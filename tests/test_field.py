import itertools
import random

import pytest

from planecurves import unipoly
from planecurves.locus import _QuotRing
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


def test_prime_field_accepts_only_the_modulus_t():
    """Every t + c codes GF(p) alike; accepting them made equal fields unequal."""
    assert FiniteField(5, 1, (0, 1)) == FiniteField(5)
    for bad in ((3, 1), (1, 1)):
        with pytest.raises(ValueError, match="degree-1 modulus"):
            FiniteField(5, 1, bad)
        with pytest.raises(ValueError, match="degree-1 modulus"):
            ExtensionField(FiniteField(2, 2), 1, bad)
    with pytest.raises(ValueError, match="degree-1 modulus"):
        FiniteField.from_spec("p=5 k=1 mod=3,1")


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


def _trial_division_irreducible(F, f):
    """The trial division that is_irreducible replaced, kept as a reference:
    f is irreducible iff no monic polynomial of degree <= deg(f)/2 divides it."""
    d = unipoly.deg(f)
    if d < 1:
        return False
    for dd in range(1, d // 2 + 1):
        for low in itertools.product(range(F.q), repeat=dd):
            if not unipoly.mod(F, f, list(low) + [1]):
                return False
    return True


def _monic_polys(F, n):
    for low in itertools.product(range(F.q), repeat=n):
        yield list(low) + [1]


# field id -> (field, largest degree enumerated)
SMALL_FIELDS = {
    "GF(2)": (lambda: FiniteField(2), 5), "GF(3)": (lambda: FiniteField(3), 5),
    "GF(4)": (lambda: FiniteField(2, 2), 4), "GF(5)": (lambda: FiniteField(5), 4),
    "GF(7)": (lambda: FiniteField(7), 3), "GF(8)": (lambda: FiniteField(2, 3), 3),
    "GF(9)": (lambda: FiniteField(3, 2), 3),
    "GF(4)^2": (lambda: ExtensionField(FiniteField(2, 2), 2), 2),
}


@pytest.mark.parametrize("name", SMALL_FIELDS)
def test_ben_or_matches_trial_division(name):
    make, top = SMALL_FIELDS[name]
    F = make()
    for n in range(top + 1):
        for f in _monic_polys(F, n):
            assert unipoly.is_irreducible(F, f) == _trial_division_irreducible(F, f), f


def _mobius(n):
    out, m, p = 1, n, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return out


@pytest.mark.parametrize("name", SMALL_FIELDS)
def test_irreducible_counts_follow_gauss(name):
    """#monic irreducibles of degree n over GF(q) = (1/n) sum_{d|n} mu(d) q^(n/d)."""
    make, top = SMALL_FIELDS[name]
    F = make()
    for n in range(1, top + 2):
        count = sum(unipoly.is_irreducible(F, f) for f in _monic_polys(F, n))
        gauss = sum(_mobius(d) * F.q ** (n // d) for d in range(1, n + 1) if n % d == 0)
        assert count * n == gauss, (n, count)


def test_default_moduli_pinned():
    """Moduli fix every context's element coding, so they must never move."""
    defaults = {
        (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
        (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
        (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
        (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
        (3, 5): (1, 2, 0, 0, 0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
        (5, 4): (2, 0, 0, 0, 1), (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1),
        (11, 2): (1, 0, 1), (13, 2): (2, 0, 1), (17, 2): (3, 0, 1),
    }
    for (p, k), modulus in defaults.items():
        assert FiniteField(p, k).modulus == modulus, (p, k)
    towers = {
        ((2, 2), 2): (2, 1, 1), ((2, 2), 3): (2, 0, 0, 1), ((2, 2), 4): (1, 2, 1, 0, 1),
        ((2, 3), 2): (1, 1, 1), ((2, 3), 3): (2, 1, 0, 1),
        ((3, 2), 2): (4, 0, 1), ((3, 2), 3): (3, 1, 0, 1),
        ((5, 1), 5): (1, 4, 0, 0, 0, 1), ((5, 1), 6): (2, 1, 0, 0, 0, 0, 1),
        ((2, 4), 6): (13, 2, 1, 0, 0, 0, 1),
    }
    for ((p, k), m), modulus in towers.items():
        assert unipoly.find_irreducible(FiniteField(p, k), m) == modulus, (p, k, m)
    assert FiniteField(2, 2).extension(2).extension(2).modulus == (8, 1, 1)


def test_find_irreducible_operation_bound(monkeypatch):
    """Trial division made 262 612 divisions here; Ben-Or's test needs few."""
    calls = []
    divmod_ = unipoly.divmod_

    def counted(F, f, g):
        calls.append(None)
        return divmod_(F, f, g)

    monkeypatch.setattr(unipoly, "divmod_", counted)
    assert unipoly.find_irreducible(FiniteField(2, 3), 8) == (3, 2, 0, 1, 0, 0, 0, 0, 1)
    assert len(calls) < 20_000


def _with_repeated_factors(F, rng):
    a = [rng.randrange(F.q) for _ in range(rng.randrange(1, 4))] + [1]
    b = [rng.randrange(F.q) for _ in range(rng.randrange(0, 5))] + [1]
    return unipoly.mul(F, unipoly.mul(F, a, a), b)


@pytest.mark.parametrize("p,k,e", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_least_root_degree_is_the_least_piece(p, k, e):
    """The first nontrivial Frobenius gcd is the least distinct-degree piece,
    over a field and over a quotient ring coded like its tower."""
    F = FiniteField(p, k)
    ext = F.extension(e)
    ring = _QuotRing(F, ext.modulus)
    rng = random.Random(p * 100 + k * 10 + e)
    for _ in range(40):
        f = _with_repeated_factors(F, rng)
        pieces = unipoly.distinct_degree_pieces(F, f)
        assert unipoly.least_root_degree(F, f, F.q) == min(pieces)
        assert unipoly.root_count_in_field(F, f) == (unipoly.deg(pieces[1]) if 1 in pieces else 0)
        g = _with_repeated_factors(ext, rng)
        least_ext = unipoly.least_root_degree(ext, g, ext.q)
        assert unipoly.least_root_degree(ring, g, ext.q) == least_ext
        assert least_ext == min(unipoly.distinct_degree_pieces(ext, g))
