import random

import pytest

from planecurves.curve import PlaneCurve, curve_mul, monomials
from planecurves.field import ExtensionField, FiniteField

FIELD_PARAMS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                7: (7, 1), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2),
                27: (3, 3)}


def field_for(q: int) -> FiniteField:
    p, k = FIELD_PARAMS[q]
    return FiniteField(p, k)


def random_curve(ctx, degree: int, rng: random.Random) -> PlaneCurve:
    """A uniformly random nonzero curve of the given degree."""
    while True:
        terms = {m: rng.randrange(ctx.q) for m in monomials(degree)}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return PlaneCurve(ctx, degree, terms)


def squared_point_free_cubic() -> PlaneCurve:
    """The square of a GF(2) cubic without GF(2)-points: singular along the
    cubic, whose points of least degree lie over GF(8)."""
    cubic = PlaneCurve(field_for(2), 3, {m: 1 for m in [(0, 0, 3), (0, 2, 1), (0, 3, 0),
                                                        (1, 1, 1), (2, 0, 1), (2, 1, 0),
                                                        (3, 0, 0)]})
    return curve_mul(cubic, cubic)


@pytest.fixture
def gf4():
    return field_for(4)


@pytest.fixture
def gf5():
    return field_for(5)


@pytest.fixture
def extension_builds(monkeypatch):
    """The arguments of every ExtensionField built while the test runs."""
    builds = []
    init = ExtensionField.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExtensionField, "__init__", counted)
    return builds
