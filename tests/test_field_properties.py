"""Property tests of field arithmetic over many fields.

Fields are prime fields, GF(p^k) with q up to 2^10 and two-level towers.
Every field of at most 256 elements, GF(p) included, computes from tables;
above that the raw arithmetic runs (mod p, or through the base for a
tower).  Example counts are fixed and derandomized so the suite replays
exactly.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurves.field import ExtensionField, FiniteField

PRIMES = (2, 3, 5, 7, 11, 13, 17)
Q_MAX = 2 ** 10

PINNED = {
    "GF(251)": (251, 1, 1),  # the largest tabled prime field
    "GF(257)": (257, 1, 1),  # untabled: computed mod p
    "GF(3^6)": (3, 6, 1),
    "GF(2^9)": (2, 9, 1),
    "GF(17^2)": (17, 2, 1),
    "GF(4)^2": (2, 2, 2),
    "GF(9)^2": (3, 2, 2),
    "GF(4)^3": (2, 2, 3),
    "GF(4)^5": (2, 2, 5),   # q = 1024: raw tower arithmetic over a tabled base
}

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None,
                             derandomize=True)


@functools.cache
def _field(p: int, k: int, m: int = 1):
    """GF(p^k), or for m > 1 the degree-m tower over it."""
    F = FiniteField(p, k)
    return F if m == 1 else ExtensionField(F, m)


def _max_k(p: int) -> int:
    k = 1
    while p ** (k + 1) <= Q_MAX:
        k += 1
    return k


def _draw_field(name: str, data):
    if name != "random":
        return _field(*PINNED[name])
    p = data.draw(st.sampled_from(PRIMES), label="p")
    k = data.draw(st.integers(1, _max_k(p)), label="k")
    return _field(p, k)


def _prime_degree(F) -> int:
    """e with F.q == F.char ** e."""
    e, q = 0, F.q
    while q > 1:
        q //= F.char
        e += 1
    return e


FIELD_NAMES = [*PINNED, "random"]


@pytest.mark.parametrize("name", FIELD_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_field_axioms(name, data):
    F = _draw_field(name, data)
    a, b, c = (data.draw(st.integers(0, F.q - 1), label=n) for n in "abc")
    assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a and F.mul(a, 0) == 0
    assert F.add(a, F.neg(a)) == 0 and F.sub(F.add(a, b), b) == a
    assert F.pow(a, F.q) == a
    if a:
        assert F.mul(a, F.inv(a)) == 1 and F.div(F.mul(a, b), a) == b


@pytest.mark.parametrize("name", FIELD_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_unchecked_operations_equal_checked(name, data):
    F = _draw_field(name, data)
    a, b = (data.draw(st.integers(0, F.q - 1), label=n) for n in "ab")
    assert F._add(a, b) == F.add(a, b) and F._mul(a, b) == F.mul(a, b)
    assert F._neg(a) == F.neg(a) and F._sub(a, b) == F.sub(a, b)


@pytest.mark.parametrize("p", [2, 3, 13, 251, 257])
def test_prime_field_tables_are_arithmetic_mod_p(p):
    F = _field(p, 1)
    if p > 256:
        assert F._add_t is F._mul_t is F._inv_t is F._neg_t is None
        return
    pairs = [(a, b) for a in range(p) for b in range(p)]
    assert F._add_t == [(a + b) % p for a, b in pairs]
    assert F._mul_t == [a * b % p for a, b in pairs]
    assert F._neg_t == [-a % p for a in range(p)]
    assert F._inv_t == [0] + [pow(a, p - 2, p) for a in range(1, p)]


@pytest.mark.parametrize("name", FIELD_NAMES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_frobenius_is_additive_multiplicative_bijection(name, data):
    F = _draw_field(name, data)
    e = _prime_degree(F)
    r = data.draw(st.integers(0, 2 * e), label="r")
    a, b = (data.draw(st.integers(0, F.q - 1), label=n) for n in "ab")
    fa, fb = F.frobenius(a, r), F.frobenius(b, r)
    assert F.frobenius(F.add(a, b), r) == F.add(fa, fb)
    assert F.frobenius(F.mul(a, b), r) == F.mul(fa, fb)
    # x -> x^(p^r) has the inverse x -> x^(p^(e - r mod e)) on GF(p^e)
    assert F.frobenius(fa, -r % e) == a


@PROPERTY_SETTINGS
@given(data=st.data())
def test_extension_over_prime_field_agrees_with_finite_field(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    k = data.draw(st.integers(2, _max_k(p)), label="k")
    F, E = _field(p, k), ExtensionField(_field(p, 1), k)
    assert E.q == F.q and E.modulus == F.modulus and E != F
    element = st.integers(0, F.q - 1)
    for _ in range(8):
        a, b = data.draw(element), data.draw(element)
        assert E.add(a, b) == F.add(a, b) and E.mul(a, b) == F.mul(a, b)
        assert E.neg(a) == F.neg(a)
        if a:
            assert E.inv(a) == F.inv(a)


def _carry_less_product(a: int, b: int, modulus: int) -> int:
    """a * b in GF(2)[t] / (modulus), polynomials coded by their bits."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    top = modulus.bit_length() - 1
    while acc.bit_length() - 1 >= top:
        acc ^= modulus << (acc.bit_length() - 1 - top)
    return acc


@pytest.mark.parametrize("k", [9, 10])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_binary_field_products_match_carry_less_reference(k, data):
    F = _field(2, k)
    modulus = sum(c << i for i, c in enumerate(F.modulus))
    a, b = (data.draw(st.integers(0, F.q - 1), label=n) for n in "ab")
    assert F.mul(a, b) == _carry_less_product(a, b, modulus)
    assert F.add(a, b) == a ^ b
