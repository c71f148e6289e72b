"""The functions that the benchmark's traced runs look up by name, group or
wrap in planecurves: a rename or move that loses one fails here, where it
would otherwise fail every traced run of perfbench."""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import layers
    import sampler
finally:
    sys.path.remove(PERFBENCH)

TRACED_NAMES = sorted({dotted for names in layers.GROUPS.values() for dotted in names}
                      | set(layers.INLINE_DRAWS))


@pytest.mark.parametrize("dotted", TRACED_NAMES)
def test_traced_name_resolves_to_a_function(dotted):
    obj = layers._resolve(dotted)
    assert callable(obj) and hasattr(obj, "__code__"), dotted


def test_probes_build_on_an_unstarted_sampler(monkeypatch):
    """Probes registers every group and wraps the counted functions; an
    inactive sampler counts nothing, and the wrapped functions still work."""
    from planecurves import field, unipoly

    # Probes replaces these two; monkeypatch puts the originals back
    monkeypatch.setattr(unipoly, "find_irreducible", unipoly.find_irreducible)
    monkeypatch.setattr(field.ExtensionField, "__init__", field.ExtensionField.__init__)
    idle = sampler.Sampler(str(Path(field.__file__).parent))
    probes = layers.Probes(idle)
    assert set(idle.group_s) == set(layers.GROUPS)
    assert field.FiniteField(2, 2).extension(3).modulus == (2, 0, 0, 1)
    assert probes.finish() == {"plane.builds": 0}
