"""The functions that the benchmark's traced runs look up by name in
planecurves: a rename or move that loses one fails here, where it would
otherwise fail every traced run of perfbench."""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import layers
finally:
    sys.path.remove(PERFBENCH)

TRACED_NAMES = sorted({dotted for names in layers.GROUPS.values() for dotted in names}
                      | set(layers.INLINE_DRAWS))


@pytest.mark.parametrize("dotted", TRACED_NAMES)
def test_traced_name_resolves_to_a_function(dotted):
    obj = layers._resolve(dotted)
    assert callable(obj) and hasattr(obj, "__code__"), dotted
