import itertools
import random

import pytest

from planecurves import unipoly
from planecurves.catalog import exceptional_quartic
from planecurves.curve import lift_curve
from planecurves.field import ExtensionField, FiniteField, _FieldOps
from planecurves.plane import enumerate_points


def test_default_moduli_are_deterministic_and_expected():
    assert FiniteField(2, 2).modulus == (1, 1, 1)   # t^2 + t + 1
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert FiniteField(3, 2).modulus == (1, 0, 1)   # t^2 + 1
    assert FiniteField(5, 1).modulus == (0, 1)      # the k=1 convention
    # same (p, k) twice yields the identical context
    assert FiniteField(3, 2) == FiniteField(3, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(2, 2, [1, 0, 1])  # t^2 + 1 = (t+1)^2


def test_non_prime_p_rejected():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(1)


def test_gf4_arithmetic_table():
    F = FiniteField(2, 2)
    assert F.add(2, 3) == 1          # t + (t+1)
    assert F.mul(2, 2) == 3          # t^2 reduced by t^2+t+1
    assert F.inv(2) == 3             # t(t+1) = 1
    assert F.frobenius(2, 1) == 3
    assert F.frobenius(2, 2) == 2    # x^q = x


def test_division_by_zero():
    F = FiniteField(2, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


def test_element_range_checked():
    fields = [
        FiniteField(2, 2),
        FiniteField(13),                        # prime, no tables
        ExtensionField(FiniteField(2, 2), 2),   # tower, tabled
        FiniteField(3, 6),                      # q = 729, no tables
    ]
    for F in fields:
        for bad in (F.q, F.q + 7, -1, True):
            for call in (lambda: F.add(bad, 1), lambda: F.add(1, bad),
                         lambda: F.mul(bad, 1), lambda: F.mul(1, bad),
                         lambda: F.neg(bad), lambda: F.inv(bad)):
                with pytest.raises(ValueError, match="not an element code"):
                    call()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2)])
def test_field_axioms_exhaustive(p, k):
    """Commutativity, associativity, distributivity over the whole field."""
    F = FiniteField(p, k)
    elems = F.elements()
    assert elems[:2] == [0, 1] and len(elems) == p ** k
    for a, b in itertools.product(elems, elems):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(elems, elems, elems):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)])
def test_power_laws(p, k):
    F = FiniteField(p, k)
    q = F.q
    for x in F.elements():
        assert F.pow(x, q) == x
        if x:
            assert F.pow(x, q - 1) == 1
            assert F.mul(x, F.inv(x)) == 1
            assert F.pow(x, -1) == F.inv(x)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3)])
def test_frobenius_is_additive_multiplicative_bijection(p, k):
    F = FiniteField(p, k)
    for r in range(1, 2 * k + 1):
        images = {F.frobenius(x, r) for x in F.elements()}
        assert len(images) == F.q
        for a, b in itertools.product(F.elements(), repeat=2):
            assert F.frobenius(F.add(a, b), r) == F.add(F.frobenius(a, r), F.frobenius(b, r))
            assert F.frobenius(F.mul(a, b), r) == F.mul(F.frobenius(a, r), F.frobenius(b, r))


def test_spec_string_round_trip():
    for F in (FiniteField(2, 2), FiniteField(3, 2), FiniteField(7, 1)):
        assert FiniteField.from_spec(F.spec_string()) == F
    with pytest.raises(ValueError):
        FiniteField.from_spec("p=4 k=1")
    with pytest.raises(ValueError):
        FiniteField.from_spec("q=4")


def test_extension_tower_embeds_base_on_codes():
    F4 = FiniteField(2, 2)
    E = ExtensionField(F4, 2)
    assert E.q == 16 and E.char == 2
    for a, b in itertools.product(range(4), repeat=2):
        assert E.add(a, b) == F4.add(a, b)
        assert E.mul(a, b) == F4.mul(a, b)
    for x in range(16):
        assert E.pow(x, 16) == x


def test_extension_modulus_validated():
    F3 = FiniteField(3)
    with pytest.raises(ValueError, match="reducible"):
        ExtensionField(F3, 2, [0, 0, 1])  # t^2 is reducible


def test_extension_is_built_once_per_context():
    F4 = FiniteField(2, 2)
    E = F4.extension(2)
    assert F4.extension(2) is E and F4.extension(3) is F4.extension(3)
    assert E == ExtensionField(F4, 2) and E != FiniteField(2, 4)
    # an equal but distinct context keeps its own towers
    assert FiniteField(2, 2).extension(2) is not E
    assert FiniteField(2, 2).extension(2) == E


def test_tower_over_tower_lifts_curves():
    F4 = FiniteField(2, 2)
    E = F4.extension(2)
    EE = E.extension(2)
    assert EE.q == 256 and EE.base is E and repr(EE) == "GF(16^2)"
    f = exceptional_quartic(F4)
    fE = lift_curve(f, E)
    fEE = lift_curve(fE, EE)
    with pytest.raises(ValueError):
        lift_curve(f, EE)  # EE is a tower over E, not over F4
    for point in enumerate_points(E):
        assert fEE.evaluate(point) == fE.evaluate(point)
    for point in enumerate_points(F4):
        assert fEE.evaluate(point) == f.evaluate(point)


def test_unipoly_resultant_vs_euclid_consistency():
    """res(f, g) = 0 exactly when f and g share a root over the closure."""
    F = FiniteField(5)
    f = [1, 0, 1]           # t^2 + 1 = (t-2)(t-3) over GF(5)
    g = [3, 1]              # t + 3 has root 2
    assert unipoly.resultant(F, f, g) == 0
    h = [1, 1]              # t + 1, root 4
    assert unipoly.resultant(F, f, h) != 0


def test_find_irreducible_is_lex_smallest():
    F2 = FiniteField(2)
    assert unipoly.find_irreducible(F2, 2) == (1, 1, 1)
    F3 = FiniteField(3)
    assert unipoly.find_irreducible(F3, 2) == (1, 0, 1)


class _WrongInverseGF5:
    """GF(5) whose inv is off by a factor of 2.  _mul and _sub fail the test
    after 10^4 calls, so a division that never terminates shows up fast."""

    def __init__(self):
        self.calls = 0

    def _tick(self):
        self.calls += 1
        assert self.calls < 10 ** 4, "divmod_ kept looping on a wrong inverse"

    def inv(self, a):
        return 2 * pow(a, 3, 5) % 5

    def _mul(self, a, b):
        self._tick()
        return a * b % 5

    def _sub(self, a, b):
        self._tick()
        return (a - b) % 5


def test_divmod_fails_loudly_on_a_wrong_inverse():
    with pytest.raises(RuntimeError, match="leading term"):
        unipoly.divmod_(_WrongInverseGF5(), [1, 2, 3, 4], [1, 1])


@pytest.mark.parametrize("field", [(13, 1, 1), (2, 2, 3)], ids=["GF(13)", "GF(4)^3"])
def test_unipoly_trusts_its_inputs(monkeypatch, field):
    """unipoly computes with the unchecked operations: its coefficients were
    validated where they entered, so only inverses and powers check."""
    p, k, m = field
    F = FiniteField(p, k) if m == 1 else ExtensionField(FiniteField(p, k), m)
    rng = random.Random(13)

    def monic_poly(degree):
        return [rng.randrange(F.q) for _ in range(degree)] + [1]

    f, g, h = monic_poly(12), monic_poly(7), monic_poly(5)
    calls = []
    original = _FieldOps.check

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(_FieldOps, "check", counted)
    pieces = unipoly.distinct_degree_pieces(F, f)
    assert len(calls) < 500
    assert sum(unipoly.deg(piece) for piece in pieces.values()) <= 12
    assert all(unipoly.deg(piece) % e == 0 for e, piece in pieces.items())
    calls.clear()
    d, u, v = unipoly.xgcd(F, g, h)
    res = unipoly.resultant(F, g, h)
    assert len(calls) < 500
    assert unipoly.add(F, unipoly.mul(F, u, g), unipoly.mul(F, v, h)) == d
    assert (res == 0) == (unipoly.deg(d) >= 1)
