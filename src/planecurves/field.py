"""Exact arithmetic in finite fields GF(p^k) and towers over them.

Elements are plain Python integers in [0, q).  All arithmetic goes through
a field context object; mixing codes from fields of different sizes is
caught by the range check, mixing same-sized contexts is the caller's
responsibility (contexts compare equal only if their class, base and
modulus agree).

There is one implementation, in _FieldOps.  The prime field GF(p) is the
base case, computed mod p.  Every other field is a tower base[t] / (f)
with f monic irreducible of degree m over the base: the base-``base.q``
digits of a code, little-endian, are its coordinates in the basis
1, t, ..., t^(m-1), and it computes through its base's operations.
Codes below base.q are exactly the embedded base elements, so polynomials
over the base can be reused over a tower without translation.  The coding
and the raw arithmetic (_init_quotient) need no irreducible modulus, so
locus codes its quotient rings GF(q)[y] / (u), u possibly reducible, the
same way; _init_tower adds the irreducibility check.  Every field of at
most 256 elements, GF(p) included, tabulates add, mul, inv and neg.  Two
field context classes differ only in how they are constructed:

  FiniteField(p, k, modulus)   -- GF(p^k), the degree-k tower over GF(p)
                                  (GF(p) itself for k = 1); the context
                                  used by the public API.
  ExtensionField(base, m, mod) -- GF(q^m) as a tower over any context,
                                  used internally for singularity
                                  work.  ctx.extension(m)
                                  builds each default tower once per
                                  context.

The default modulus is the lexicographically smallest monic irreducible
polynomial (coefficients compared low-degree first), which makes contexts
reproducible across runs without Conway polynomial tables.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from . import unipoly

# Add, mul, inv and neg tables are built for every field up to this size.
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


def _checked_modulus(modulus: Sequence[int], degree: int, q: int) -> tuple[int, ...]:
    modulus = tuple(int(c) for c in modulus)
    if len(modulus) != degree + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree exactly {degree}")
    if any(not 0 <= c < q for c in modulus):
        raise ValueError(f"modulus coefficients must lie in [0, {q})")
    if degree == 1 and modulus != (0, 1):
        # every t + c gives the same codes and tables; t alone keeps
        # equal fields equal
        raise ValueError(f"degree-1 modulus {list(modulus)} must be [0, 1]")
    return modulus


class _FieldOps:
    """The arithmetic of every field context.

    ``base`` is None for the prime field GF(p), whose arithmetic is mod p.
    Otherwise the context is base[t] / (modulus) of degree ``m`` over its
    base and computes through the base's unchecked operations (table
    lookups when the base has tables).  Every field of at most _TABLE_LIMIT
    elements, prime or tower, tabulates its add, mul, inv and neg.  The
    public operations range-check their arguments with ``check``; the
    underscored ones (_add, _mul, _neg, _sub) trust them.
    """

    q: int
    char: int
    base: Optional["_FieldOps"]
    m: int
    modulus: tuple[int, ...]

    def _init_quotient(self, base: "_FieldOps", modulus: Sequence[int]):
        """Set this context up as base[t] / (modulus) for a monic modulus of
        degree >= 1, irreducible or not: the coding and the raw arithmetic."""
        self.base = base
        self.m = len(modulus) - 1
        self.q = base.q ** self.m
        self.char = base.char
        self.modulus = tuple(modulus)
        # t^m = sum_j _reduce[j] t^j in the quotient ring
        self._reduce = [base._neg(c) for c in self.modulus[:self.m]]
        self._towers = {}
        self._add_t = self._mul_t = self._inv_t = self._neg_t = None

    def _init_tower(self, base: "_FieldOps", m: int, modulus: Optional[Sequence[int]]):
        """Set this context up as base[t] / (modulus), modulus monic
        irreducible of degree m, with tables when it is small."""
        if modulus is None:
            modulus = unipoly.find_irreducible(base, m)
        else:
            modulus = _checked_modulus(modulus, m, base.q)
            if m > 1 and not unipoly.is_irreducible(base, list(modulus)):
                raise ValueError(f"modulus {list(modulus)} is reducible over {base!r}")
        self._init_quotient(base, modulus)
        if self.q <= _TABLE_LIMIT:
            self._init_tables()

    def _init_tables(self):
        """Tables from discrete logarithms: a b = g^(log a + log b) and
        a + b = a (1 + b/a), so raw arithmetic is needed only for the powers
        of a generator g and for the q sums 1 + x.  -a = (char - 1) a."""
        q, exp = self.q, self._generator_powers()
        log = {x: i for i, x in enumerate(exp)}
        exp2 = exp * 2
        mul_t = self._mul_t = [exp2[log[a] + log[b]] if a and b else 0
                               for a in range(q) for b in range(q)]
        inv_t = self._inv_t = [0] + [exp[-log[a]] for a in range(1, q)]
        succ = [self._add_raw(1, x) for x in range(q)]
        self._add_t = [mul_t[a * q + succ[mul_t[b * q + inv_t[a]]]] if a else b
                       for a in range(q) for b in range(q)]
        self._neg_t = mul_t[(self.char - 1) * q:self.char * q]

    def _generator_powers(self) -> list[int]:
        """[g^0, ..., g^(q-2)] for the least code g of multiplicative order q-1."""
        for g in range(1, self.q):
            exp = [1]
            while len(exp) < self.q and (x := self._mul_raw(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == self.q - 1:
                return exp
        raise RuntimeError(f"no generator: {self!r} arithmetic is not a field's")

    def extension(self, m: int) -> "ExtensionField":
        """ExtensionField(self, m) with the default modulus, built once per
        context object and reused by every later call."""
        ext = self._towers.get(m)
        if ext is None:
            ext = self._towers[m] = ExtensionField(self, m)
        return ext

    # unchecked arithmetic ---------------------------------------------

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
        if self.base is None:
            return (a + b) % self.q
        add = self.base._add
        return self._undigits([add(x, y) for x, y in zip(self._digits(a), self._digits(b))])

    def _neg(self, a: int) -> int:
        if self._neg_t is not None:
            return self._neg_t[a]
        if self.base is None:
            return (-a) % self.q
        return self._undigits([self.base._neg(c) for c in self._digits(a)])

    def _mul_raw(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.q
        add, mul, m = self.base._add, self.base._mul, self.m
        prod = [0] * (2 * m - 1)
        db = self._digits(b)
        for i, x in enumerate(self._digits(a)):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = add(prod[i + j], mul(x, y))
        # reduce by the monic modulus, top degree first
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top]
            if c:
                for j, r in enumerate(self._reduce):
                    if r:
                        prod[top - m + j] = add(prod[top - m + j], mul(c, r))
        return self._undigits(prod[:m])

    def _inv_raw(self, a: int) -> int:
        if self.base is None:
            return pow(a, self.q - 2, self.q)
        return self.pow(a, self.q - 2)

    def _add(self, a: int, b: int) -> int:
        if self._add_t is not None:
            return self._add_t[a * self.q + b]
        return self._add_raw(a, b)

    def _mul(self, a: int, b: int) -> int:
        if self._mul_t is not None:
            return self._mul_t[a * self.q + b]
        return self._mul_raw(a, b)

    def _sub(self, a: int, b: int) -> int:
        return self._add(a, self._neg(b))

    # public arithmetic ------------------------------------------------

    def check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element code of {self!r}")
        return x

    # add and mul repeat _add and _mul inline: checked operations dominate
    # plane builds, and one more call level each slows those measurably
    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        if self._add_t is not None:
            return self._add_t[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        self.check(a)
        return self._neg(a)

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

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (
            (self.q, self.base, self.modulus) == (other.q, other.base, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.base, self.modulus))


class FiniteField(_FieldOps):
    """The field GF(p^k) with a fixed monic irreducible modulus over GF(p).

    The modulus is stored as k+1 coefficients in [0, p), low degree first,
    with leading coefficient 1.  Irreducibility is verified at construction
    by Ben-Or's test (unipoly.is_irreducible).  GF(p) accepts only the
    modulus (0, 1).
    """

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        self.p = p
        self.k = k
        if k > 1:
            self._init_tower(FiniteField(p), k, modulus)
            return
        # GF(p): the base case of every tower, computed mod p
        self.base, self.m, self.q, self.char = None, 1, p, p
        self.modulus = (0, 1) if modulus is None else _checked_modulus(modulus, 1, p)
        self._towers = {}
        self._add_t = self._mul_t = self._inv_t = self._neg_t = None
        if p <= _TABLE_LIMIT:
            self._init_tables()

    # serialization ------------------------------------------------------

    def spec_string(self) -> str:
        """Field spec "p=<p> k=<k> mod=<c0,c1,...,ck>" used by curve files."""
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p} k={self.k} mod={mod}"

    @classmethod
    def from_spec(cls, text: str) -> "FiniteField":
        """Parse "p=<p> k=<k> [mod=<c0,c1,...,ck>]", keys apart by spaces or by
        commas (a curve-file header or a --field flag); mod may be omitted."""
        parts: dict[str, str] = {}
        for tok in re.split(r"\s*,\s*(?=\w*=)|\s+", text.strip()):
            key, eq, val = tok.partition("=")
            if not eq or key not in ("p", "k", "mod") or key in parts:
                raise ValueError(f"bad field spec token {tok!r}")
            parts[key] = val
        try:
            p = int(parts["p"])
            k = int(parts.get("k", "1"))
            modulus = None
            if "mod" in parts:
                modulus = [int(c) for c in parts["mod"].split(",")]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad field spec {text!r}") from exc
        return cls(p, k, modulus)

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
        self._init_tower(base, m, modulus)

    def __repr__(self) -> str:
        return f"GF({self.base.q}^{self.m})"
