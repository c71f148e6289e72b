"""Exact arithmetic in finite fields GF(p^k).

Elements are plain Python integers in [0, q).  The base-p digits of the
integer, little-endian, are the coordinates of the element in the
polynomial basis 1, t, ..., t^(k-1) of GF(p)[t] / (modulus).  All
arithmetic goes through a field context object; mixing codes from fields
of different sizes is caught by the range check, mixing same-sized
contexts is the caller's responsibility (contexts compare equal only if
(p, k, modulus) agree).

Two context classes share one operation interface:

  FiniteField(p, k, modulus)   -- GF(p^k) over the prime field, the
                                  context used by the public API.
  ExtensionField(base, m, mod) -- GF(q^m) as a tower over another context,
                                  used internally for singularity and
                                  divisibility work.  Elements of the base
                                  field keep their integer codes, so no
                                  embedding tables are needed.

The default modulus is the lexicographically smallest monic irreducible
polynomial (coefficients compared low-degree first), which makes contexts
reproducible across runs without Conway polynomial tables.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import unipoly

# Multiplication/addition tables are built for fields up to this size.
_TABLE_LIMIT = 256


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, fine for desk-scale p."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class _FieldOps:
    """Operations shared by both context classes.

    Subclasses provide q, char, add, neg, mul and inv; everything else is
    derived here.  Elements are ints in [0, q).
    """

    q: int
    char: int

    def check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element code of {self!r}")
        return x

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e with any integer exponent; negative e uses the inverse."""
        self.check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            if e == 0:
                return 1
            return 0
        e %= self.q - 1
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frobenius(self, x: int, r: int = 1) -> int:
        """The p^r-power map x -> x**(char**r); r = log_p(q) is x -> x**q."""
        if r < 0:
            raise ValueError("frobenius power must be >= 0")
        self.check(x)
        if x == 0:
            return 0
        return self.pow(x, pow(self.char, r, self.q - 1))

    def elements(self) -> list[int]:
        """All q element codes in ascending order; starts 0, 1."""
        return list(range(self.q))

    def powers(self, x: int, max_e: int) -> list[int]:
        """[x^0, x^1, ..., x^max_e] with max_e sequential multiplications."""
        out = [1]
        acc = 1
        for _ in range(max_e):
            acc = self.mul(acc, x)
            out.append(acc)
        return out


def _build_tables(field: _FieldOps):
    q = field.q
    add_t = [0] * (q * q)
    mul_t = [0] * (q * q)
    inv_t = [0] * q
    for a in range(q):
        row = a * q
        for b in range(q):
            add_t[row + b] = field._add_raw(a, b)
            mul_t[row + b] = field._mul_raw(a, b)
    for a in range(1, q):
        inv_t[a] = field._inv_raw(a)
    return add_t, mul_t, inv_t


class FiniteField(_FieldOps):
    """The field GF(p^k) with a fixed monic irreducible modulus over GF(p).

    The modulus is stored as k+1 coefficients in [0, p), low degree first,
    with leading coefficient 1.  Irreducibility is verified at construction
    by trial division against all monic polynomials of degree <= k/2.
    """

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        self.char = p
        base = FiniteField(p, 1) if k > 1 else self
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            else:
                modulus = unipoly.find_irreducible(base, k)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree exactly {k}")
            if any(not 0 <= c < p for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if k > 1 and not unipoly.is_irreducible(base, list(modulus)):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        self._add_t = self._mul_t = self._inv_t = None
        if self.q <= _TABLE_LIMIT and k > 1:
            self._add_t, self._mul_t, self._inv_t = _build_tables(self)

    # raw (table-free) arithmetic -------------------------------------

    def _digits(self, x: int) -> list[int]:
        p = self.p
        out = [0] * self.k
        for i in range(self.k):
            x, out[i] = x // p, x % p
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        x = 0
        for c in reversed(ds):
            x = x * self.p + c
        return x

    def _add_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_raw(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._undigits([(-c) % self.p for c in self._digits(a)])

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self.p == 2:
            # Carry-less multiply on bit-coded polynomials, then reduce.
            acc = 0
            aa, bb = a, b
            while bb:
                if bb & 1:
                    acc ^= aa
                aa <<= 1
                bb >>= 1
            mod_int = self._undigits(self.modulus)
            mdeg = self.k
            top = acc.bit_length() - 1
            while top >= mdeg:
                acc ^= mod_int << (top - mdeg)
                top = acc.bit_length() - 1
            return acc
        p = self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(self.k):
                    prod[top - self.k + j] = (prod[top - self.k + j] - c * self.modulus[j]) % p
        return self._undigits(prod[: self.k])

    def _inv_raw(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        # square-and-multiply a**(q-2) using raw multiplication
        e = self.q - 2
        result, acc = 1, a
        while e:
            if e & 1:
                result = self._mul_raw(result, acc)
            acc = self._mul_raw(acc, acc)
            e >>= 1
        return result

    # public arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self._add_t is not None:
            return self._add_t[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        self.check(a)
        return self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self._mul_t is not None:
            return self._mul_t[a * self.q + b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        if self._inv_t is not None:
            return self._inv_t[a]
        return self._inv_raw(a)

    # serialization ------------------------------------------------------

    def spec_string(self) -> str:
        """Field spec "p=<p> k=<k> mod=<c0,c1,...,ck>" used by curve files."""
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p} k={self.k} mod={mod}"

    @classmethod
    def from_spec(cls, text: str) -> "FiniteField":
        """Parse "p=<p> k=<k> [mod=<c0,c1,...,ck>]"; mod may be omitted."""
        parts: dict[str, str] = {}
        for tok in text.split():
            key, eq, val = tok.partition("=")
            if not eq or key not in ("p", "k", "mod") or key in parts:
                raise ValueError(f"bad field spec token {tok!r}")
            parts[key] = val
        try:
            p = int(parts["p"])
            k = int(parts.get("k", "1"))
            modulus = None
            if parts.get("mod"):
                modulus = [int(c) for c in parts["mod"].split(",")]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad field spec {text!r}") from exc
        return cls(p, k, modulus)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


class ExtensionField(_FieldOps):
    """GF(base.q ** m) built as base[t] / (modulus), modulus monic over base.

    Element codes are integers whose base-q digits (little-endian, q the
    base cardinality) are base-field element codes.  Codes below base.q
    are exactly the embedded base elements, so base-field polynomials can
    be reused over the extension without translation.
    """

    def __init__(self, base: _FieldOps, m: int, modulus: Optional[Sequence[int]] = None):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.m = m
        self.q = base.q ** m
        self.char = base.char
        if modulus is None:
            modulus = unipoly.find_irreducible(base, m)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree exactly {m}")
            if m > 1 and not unipoly.is_irreducible(base, list(modulus)):
                raise ValueError("modulus is reducible over the base field")
        self.modulus = tuple(modulus)
        self._add_t = self._mul_t = self._inv_t = None
        if self.q <= _TABLE_LIMIT:
            self._add_t, self._mul_t, self._inv_t = _build_tables(self)

    def _digits(self, x: int) -> list[int]:
        bq = self.base.q
        out = [0] * self.m
        for i in range(self.m):
            x, out[i] = x // bq, x % bq
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        x = 0
        for c in reversed(ds):
            x = x * self.base.q + c
        return x

    def _add_raw(self, a: int, b: int) -> int:
        base = self.base
        return self._undigits(
            [base.add(x, y) for x, y in zip(self._digits(a), self._digits(b))]
        )

    def _neg_raw(self, a: int) -> int:
        return self._undigits([self.base.neg(c) for c in self._digits(a)])

    def _mul_raw(self, a: int, b: int) -> int:
        base = self.base
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        for top in range(len(prod) - 1, self.m - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(self.m):
                    if self.modulus[j]:
                        prod[top - self.m + j] = base.sub(
                            prod[top - self.m + j], base.mul(c, self.modulus[j])
                        )
        return self._undigits(prod[: self.m])

    def _inv_raw(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        e = self.q - 2
        result, acc = 1, a
        while e:
            if e & 1:
                result = self._mul_raw(result, acc)
            acc = self._mul_raw(acc, acc)
            e >>= 1
        return result

    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self._add_t is not None:
            return self._add_t[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        self.check(a)
        return self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self._mul_t is not None:
            return self._mul_t[a * self.q + b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        if self._inv_t is not None:
            return self._inv_t[a]
        return self._inv_raw(a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionField)
            and self.base == other.base
            and (self.m, self.modulus) == (other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.base, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.base.q}^{self.m})"
