"""Exact coefficient fields: the rationals, prime fields F_p, and small
prime-power extensions F_{p^s} given by an explicit irreducible modulus.

Element payloads are plain Python values (Fraction, int residue, or a tuple
of residues for extension fields); FieldElement is a thin immutable wrapper.
Polynomial code works on payloads directly through the Field's `_p*` ops.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Optional, Union

from .errors import DivisionByZero, FieldMismatch, NotPrime, ReducibleModulus

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


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _fp_polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _fp_polymod(a, modulus, p):
    """Reduce a (ascending coeffs) by a monic modulus over F_p."""
    a = list(a)
    dm = len(modulus) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * modulus[j]) % p
    out = [x % p for x in a[:dm]]
    while len(out) < dm:
        out.append(0)
    return tuple(out)


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
    """Exhaustive factor search: correct and fast enough for p^s <= 2^16."""
    s = len(modulus) - 1
    if s < 1 or modulus[-1] % p != 1:
        return False
    for d in range(1, s // 2 + 1):
        # all monic candidates of degree d
        for idx in range(p ** d):
            cand = []
            k = idx
            for _ in range(d):
                cand.append(k % p)
                k //= p
            cand.append(1)
            _, r = _fp_poly_divmod(modulus, cand, p)
            if not r:
                return False
    return True


class Field:
    """Handle for one of the supported exact fields.

    Instances are immutable; two handles compare equal iff they describe the
    same field with the same modulus.
    """

    __slots__ = ("kind", "p", "s", "modulus", "_zero", "_one")

    def __init__(self, kind, p=None, s=None, modulus=None):
        self.kind = kind
        self.p = p
        self.s = s
        self.modulus = modulus
        self._zero = FieldElement(self, self._pzero())
        self._one = FieldElement(self, self._pone())

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return Field(RATIONALS)

    @staticmethod
    def prime(p: int) -> "Field":
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return Field(PRIME, p=p, s=1)

    @staticmethod
    def extension(p: int, s: int, modulus=None) -> "Field":
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if s < 2:
            raise ReducibleModulus("extension degree must be at least 2")
        if modulus is None:
            modulus = CANONICAL_MODULI.get((p, s))
            if modulus is None:
                raise ReducibleModulus(
                    f"no canonical modulus shipped for F_{p}^{s}; supply one")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree s")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(
                f"modulus {modulus} is reducible over F_{p}")
        return Field(EXTENSION, p=p, s=s, modulus=modulus)

    @staticmethod
    def of_order(q: int) -> "Field":
        """Finite field of order q with the canonical modulus."""
        if is_prime(q):
            return Field.prime(q)
        for p in range(2, q):
            if q % p == 0:
                s = 0
                m = q
                while m % p == 0:
                    m //= p
                    s += 1
                if m != 1:
                    raise NotPrime(f"{q} is not a prime power")
                return Field.extension(p, s)
        raise NotPrime(f"{q} is not a prime power")

    # -- descriptors ------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.p

    @property
    def order(self) -> Optional[int]:
        if self.kind == RATIONALS:
            return None
        return self.p ** self.s

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def __eq__(self, other):
        return (isinstance(other, Field) and self.kind == other.kind
                and self.p == other.p and self.s == other.s
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.p, self.s, self.modulus))

    def __repr__(self):
        return f"Field({self.tag()})"

    def tag(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F{self.p}"
        return f"F{self.order}/{element_text(self, self.modulus)}"

    # -- payload arithmetic ----------------------------------------------

    def _pzero(self):
        if self.kind == RATIONALS:
            return Fraction(0)
        if self.kind == PRIME:
            return 0
        return (0,) * self.s

    def _pone(self):
        if self.kind == RATIONALS:
            return Fraction(1)
        if self.kind == PRIME:
            return 1
        return (1,) + (0,) * (self.s - 1)

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

    def _psub(self, a, b):
        if self.kind == RATIONALS:
            return a - b
        if self.kind == PRIME:
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

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
        return _fp_polymod(_fp_polymul(a, b, self.p), self.modulus, self.p)

    def _pinv(self, a):
        if self._pis_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.kind == RATIONALS:
            return 1 / a
        if self.kind == PRIME:
            return pow(a, self.p - 2, self.p)
        # extended Euclid in F_p[t]
        p = self.p
        r0, r1 = list(self.modulus), [x for x in a]
        s0, s1 = [0], [1]
        while any(x % p for x in r1):
            q, r = _fp_poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            qs1 = _fp_polymul(q, s1, p)
            news = [0] * max(len(s0), len(qs1))
            for i, x in enumerate(s0):
                news[i] = (news[i] + x) % p
            for i, x in enumerate(qs1):
                news[i] = (news[i] - x) % p
            s0, s1 = s1, news
        # r0 is now a nonzero constant gcd
        c = next(x % p for x in r0 if x % p)
        cinv = pow(c, p - 2, p)
        inv = [(x * cinv) % p for x in s0]
        return _fp_polymod(inv, self.modulus, p)

    def _pdiv(self, a, b):
        return self._pmul(a, self._pinv(b))

    def _pis_zero(self, a) -> bool:
        if self.kind == EXTENSION:
            return not any(a)
        return a == 0

    def _ppow(self, a, e: int):
        if e < 0:
            return self._ppow(self._pinv(a), -e)
        result = self._pone()
        base = a
        while e:
            if e & 1:
                result = self._pmul(result, base)
            base = self._pmul(base, base)
            e >>= 1
        return result

    # multiply payload by a plain integer (used by derivatives)
    def _pmul_int(self, a, k: int):
        return self._pmul(a, self._pfrom_int(k))

    # -- elements ----------------------------------------------------------

    def elem(self, value: Union[int, str, Fraction, tuple, "FieldElement"]) -> "FieldElement":
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
            vec = tuple(int(c) % self.p for c in value)
            if len(vec) > self.s:
                vec = _fp_polymod(list(vec), self.modulus, self.p)
            else:
                vec = vec + (0,) * (self.s - len(vec))
            return FieldElement(self, vec)
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
        if self.kind == PRIME:
            for r in range(self.p):
                yield FieldElement(self, r)
            return
        for idx in range(self.order):
            vec = []
            k = idx
            for _ in range(self.s):
                vec.append(k % self.p)
                k //= self.p
            yield FieldElement(self, tuple(vec))

    def units(self, bound: Optional[int] = None) -> Iterator["FieldElement"]:
        """Nonzero elements.

        Finite fields: each of the q-1 units exactly once, in the integer
        encoding order (so F_4 yields 1, t, t+1).  Rationals: a deterministic
        injective stream 1, -1, 2, -2, 1/2, -1/2, 3, -3, ... truncated to
        `bound` items when given.
        """
        if self.kind != RATIONALS:
            for x in self.elements():
                if not x.is_zero():
                    yield x
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
        return FieldElement(self.field, self.field._psub(self.payload, other.payload))

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
        return self.payload == self.field._pone()

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


def field_arith(a: FieldElement, b: Optional[FieldElement], op: str) -> FieldElement:
    """Named-operation entry point: add, sub, mul, div, inv, neg."""
    if op == "inv":
        return a.inv()
    if op == "neg":
        return -a
    if b is None:
        raise TypeError(f"operation {op} needs two operands")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown field operation {op!r}")
