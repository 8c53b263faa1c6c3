"""Exact coefficient fields: the rationals, prime fields F_p, and small
prime-power extensions F_{p^s} given by an explicit irreducible modulus.

Element payloads are plain Python values (Fraction, int residue, or a tuple
of residues for extension fields); FieldElement is a thin immutable wrapper.
Polynomial code works on payloads directly through the Field's `_p*` ops.
F_{p^s} payloads multiply, invert and raise to powers through the
discrete-log/antilog tables of `kernels.ext_tables`, built once per field:
a product is exp[log a + log b], an inverse exp[(q-1) - log a].  F_p
residues invert by Fermat's a^(p-2).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import log, log2
from types import MappingProxyType
from weakref import WeakValueDictionary

from . import kernels
from .errors import (DivisionByZero, FieldMismatch, NotPrime,
                     ReducibleModulus, UnsupportedField)

RATIONALS = "rationals"
PRIME = "prime"
EXTENSION = "extension"

# Shipped moduli, coefficient tuples in ascending order (c0, c1, ..., 1).
# Chosen once so certificates name extension elements reproducibly.
CANONICAL_MODULI = MappingProxyType({
    (2, 2): (1, 1, 1),          # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),       # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),    # t^4 + t + 1
    (3, 2): (1, 0, 1),          # t^2 + 1
    (3, 3): (1, 2, 0, 1),       # t^3 + 2t + 1
    (5, 2): (1, 1, 1),          # t^2 + t + 1
})


# The largest p^s of an extension field: the irreducibility test of its
# modulus searches about p^(s/2) candidate factors.
MAX_EXTENSION_ORDER = 1 << 16

# Miller-Rabin bases: exact below 3.3e24 (Sorenson-Webster), a PRP test above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Every field order lies below this, where is_prime is proven exact: above
# it, composites that pass all of _MR_BASES exist (Arnault, 1995).
FIELD_ORDER_BOUND = 3317044064679887385961981


def check_order(q: int):
    """UnsupportedField for an order at or above FIELD_ORDER_BOUND; a
    reader calls this before prime_power, whose cost grows with q."""
    if q >= FIELD_ORDER_BOUND:
        raise UnsupportedField(
            f"field order must be below {FIELD_ORDER_BOUND}, "
            "where primality is proven")


def is_prime(n: int) -> bool:
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _check_prime(p: int):
    check_order(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def prime_power(q: int):
    """(p, s) with q = p^s for a prime p and s >= 1; NotPrime otherwise.
    A prime factor b <= 41 of q leaves only p = b; any other p is > 2^5."""
    b = next((b for b in _MR_BASES if q > 1 and q % b == 0), None)
    if b is not None and b ** (s := round(log(q, b))) == q:
        return b, s
    for s in range(1, max(q, 1).bit_length() // 5 + 1 if b is None else 1):
        # p = floor(q^(1/s)) by Newton steps down from just above 2^e
        e = log2(q) / s
        p = int(2.0 ** (e % 1 + 40) * (1 + 2 ** -20)) << int(e) >> 40
        while (y := ((s - 1) * p + q // p ** (s - 1)) // s) < p:
            p = y
        if p ** s == q and is_prime(p):
            return p, s
    raise NotPrime(f"{q} is not a prime power")


def _fp_poly_divmod(a, b, p):
    """Quotient/remainder of polynomials (ascending coeffs) over F_p, b != 0."""
    a = [x % p for x in a]
    while a and a[-1] == 0:
        a.pop()
    b = [x % p for x in b]
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and r:
        c = (r[-1] * inv_lead) % p
        d = len(r) - len(b)
        q[d] = c
        for j in range(len(b)):
            r[d + j] = (r[d + j] - c * b[j]) % p
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _is_irreducible(modulus, p) -> bool:
    """Exhaustive factor search: fast enough for p^s <= MAX_EXTENSION_ORDER."""
    s = len(modulus) - 1
    if s < 1 or modulus[-1] % p != 1:
        return False
    for d in range(1, s // 2 + 1):
        # all monic candidates of degree d
        for idx in range(p ** d):
            cand = kernels.digits(idx, p, d) + (1,)
            _, r = _fp_poly_divmod(modulus, cand, p)
            if not r:
                return False
    return True


# The live Field handles by (kind, p, s, modulus): one handle per field.
_HANDLES = WeakValueDictionary()


def _interned(key) -> "Field":
    """The live handle of a validated `key`, or a new one.  Constructors
    look `key` up before validating, so a field is checked once while its
    handle lives, and a failure, never cached, raises on every call."""
    field = _HANDLES.get(key)
    if field is None:
        field = _HANDLES[key] = Field(*key)
    return field


class Field:
    """Handle for one of the supported exact fields.

    One handle per field; equality is identity.  The constructors return
    the live handle of a (kind, p, s, modulus) if there is one, so every
    field comparison is an identity test, and per-field caches such as
    `poly.identity_images` are shared by all callers.  Instances are
    immutable.
    """

    __slots__ = ("kind", "p", "s", "modulus", "_zero", "_one", "_identity",
                 "__weakref__")

    def __init__(self, kind, p, s, modulus):
        self.kind = kind
        self.p = p
        self.s = s
        self.modulus = modulus
        self._zero = FieldElement(self, self._pfrom_int(0))
        self._one = FieldElement(self, self._pfrom_int(1))
        self._identity = {}  # nvars -> (x_1, ..., x_n), poly.identity_images

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return _interned((RATIONALS, None, None, None))

    @staticmethod
    def prime(p: int) -> "Field":
        field = _HANDLES.get((PRIME, p, 1, None))
        if field is not None:
            return field
        _check_prime(p)
        return _interned((PRIME, p, 1, None))

    @staticmethod
    def extension(p: int, s: int, modulus=None) -> "Field":
        if modulus is None:
            modulus = CANONICAL_MODULI.get((p, s))
        if modulus is not None:
            field = _HANDLES.get((EXTENSION, p, s, tuple(modulus)))
            if field is not None:
                return field
        _check_prime(p)
        if s < 2:
            raise ReducibleModulus("extension degree must be at least 2")
        if s > 16 or p ** s > MAX_EXTENSION_ORDER:
            raise UnsupportedField(
                f"extension order {p}^{s} exceeds {MAX_EXTENSION_ORDER}")
        if modulus is None:
            raise ReducibleModulus(
                f"no canonical modulus shipped for F_{p}^{s}; supply one")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree s")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(
                f"modulus {modulus} is reducible over F_{p}")
        return _interned((EXTENSION, p, s, modulus))

    @staticmethod
    def of_order(q: int) -> "Field":
        """Finite field of order q with the canonical modulus."""
        check_order(q)
        p, s = prime_power(q)
        return Field.prime(p) if s == 1 else Field.extension(p, s)

    # -- descriptors ------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.p

    @property
    def order(self) -> int | None:
        if self.kind == RATIONALS:
            return None
        return self.p ** self.s

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def __repr__(self):
        return f"Field({self.tag()})"

    def tag(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F{self.p}"
        return f"F{self.order}/{element_text(self, self.modulus)}"

    # -- payload arithmetic ----------------------------------------------

    def _pfrom_int(self, k: int):
        if self.kind == RATIONALS:
            return Fraction(k)
        if self.kind == PRIME:
            return k % self.p
        return (k % self.p,) + (0,) * (self.s - 1)

    def _padd(self, a, b):
        if self.kind == RATIONALS:
            return a + b
        if self.kind == PRIME:
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _pneg(self, a):
        if self.kind == RATIONALS:
            return -a
        if self.kind == PRIME:
            return (-a) % self.p
        p = self.p
        return tuple((-x) % p for x in a)

    def _pmul(self, a, b):
        if self.kind == RATIONALS:
            return a * b
        if self.kind == PRIME:
            return (a * b) % self.p
        return kernels.ext_mul(a, b, self.p, self.modulus)

    def _pinv(self, a):
        if self._pis_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.kind == RATIONALS:
            return 1 / a
        if self.kind == PRIME:
            return pow(a, self.p - 2, self.p)
        return kernels.ext_pow(a, -1, self.p, self.modulus)

    def _pdiv(self, a, b):
        return self._pmul(a, self._pinv(b))

    def _pis_zero(self, a) -> bool:
        if self.kind == EXTENSION:
            return a == self._zero.payload
        return a == 0

    def _ppow(self, a, e: int):
        if e < 0:
            return self._ppow(self._pinv(a), -e)
        if self.kind == RATIONALS:
            return a ** e
        if self.kind == PRIME:
            return pow(a, e, self.p)
        return kernels.ext_pow(a, e, self.p, self.modulus)

    # -- elements ----------------------------------------------------------

    def elem(self, value: int | str | Fraction | tuple | FieldElement) -> "FieldElement":
        """Coerce an int, Fraction, payload tuple, or element into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value} is not in {self.tag()}")
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a field value")
        if isinstance(value, int):
            return FieldElement(self, self._pfrom_int(value))
        if isinstance(value, Fraction):
            if self.kind == RATIONALS:
                return FieldElement(self, value)
            num = self._pfrom_int(value.numerator)
            den = self._pfrom_int(value.denominator)
            return FieldElement(self, self._pdiv(num, den))
        if isinstance(value, tuple) and self.kind == EXTENSION:
            _, r = _fp_poly_divmod([int(c) for c in value], self.modulus,
                                   self.p)
            return FieldElement(self, tuple(r) + (0,) * (self.s - len(r)))
        raise TypeError(f"cannot coerce {value!r} into {self.tag()}")

    def from_int(self, k: int) -> "FieldElement":
        return FieldElement(self, self._pfrom_int(k))

    def generator(self) -> "FieldElement":
        """The class of t in an extension field."""
        if self.kind != EXTENSION:
            raise FieldMismatch("generator only defined for extension fields")
        return FieldElement(self, (0, 1) + (0,) * (self.s - 2))

    def elements(self) -> Iterator["FieldElement"]:
        """All elements of a finite field, in the fixed enumeration order."""
        if self.kind == RATIONALS:
            raise FieldMismatch("cannot enumerate the rationals")
        for idx in range(self.order):
            yield FieldElement(self, idx if self.kind == PRIME
                               else kernels.digits(idx, self.p, self.s))

    def units(self, bound: int | None = None) -> Iterator["FieldElement"]:
        """Nonzero elements.

        Finite fields: each of the q-1 units exactly once, in the integer
        encoding order (so F_4 yields 1, t, t+1).  Rationals: a deterministic
        injective stream 1, -1, 2, -2, 1/2, -1/2, 3, -3, ... truncated to
        `bound` items when given.
        """
        if self.kind != RATIONALS:
            yield from (x for x in self.elements() if not x.is_zero())
            return
        count = 0
        m = 1
        while True:
            pairs = [(m, 1)] + [(n, m) for n in range(1, m)] + \
                    [(m, d) for d in range(2, m)]
            for num, den in pairs:
                if Fraction(num, den).denominator != den:
                    continue  # not lowest terms
                for sign in (1, -1):
                    if bound is not None and count >= bound:
                        return
                    yield FieldElement(self, Fraction(sign * num, den))
                    count += 1
            m += 1


class FieldElement:
    """Immutable element of a Field; supports the usual operators."""

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        self.field = field
        self.payload = payload

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(
                f"elements of {self.field.tag()} and {other.field.tag()}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._padd(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._pmul(self.payload, other.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._pdiv(self.payload, other.payload))

    def __rtruediv__(self, other):
        return self.inv() * other

    def __neg__(self):
        return FieldElement(self.field, self.field._pneg(self.payload))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field._ppow(self.payload, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field._pinv(self.payload))

    def is_zero(self) -> bool:
        return self.field._pis_zero(self.payload)

    def is_one(self) -> bool:
        return self.payload == self.field._one.payload

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return f"<{self} in {self.field.tag()}>"

    def __str__(self):
        return element_text(self.field, self.payload)


def element_text(field: Field, payload) -> str:
    """Text of an element payload; over an extension field any coefficient
    tuple in t, the modulus included (`Field.tag`)."""
    if field.kind == RATIONALS:
        return str(payload)
    if field.kind == PRIME:
        return str(payload)
    parts = []
    for e in range(len(payload) - 1, -1, -1):
        c = payload[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            t = "t" if e == 1 else f"t^{e}"
            parts.append(t if c == 1 else f"{c}*{t}")
    return "+".join(parts) if parts else "0"
