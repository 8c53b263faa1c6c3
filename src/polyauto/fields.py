"""Exact coefficient fields: the rationals here, and the finite fields F_p
and F_{p^s} of `polyauto.finite`, which only the construction of a finite
field's handle imports.

Q payloads are ints when integral, else Fractions with denominator > 1;
F_p's are int residues, F_{p^s}'s the int codes sum c_i p^i of residues.
Polynomial code works on payloads directly through the Field's `_p*` ops,
term-map kernels, payload printer and matrix elimination, each bound once
for its kind, so no op decides the kind again.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice
from operator import neg, not_
from weakref import WeakValueDictionary

from . import kernels
from .errors import DivisionByZero, FieldMismatch

RATIONALS = "rationals"
PRIME = "prime"
EXTENSION = "extension"


# The live Field handles by (kind, p, s, modulus), one per field, and by tag()
_HANDLES, _TAGS = WeakValueDictionary(), WeakValueDictionary()


def _interned(key, cls=None) -> "Field":
    """The live handle of a validated `key`, or a new `cls` (Field by
    default).  Constructors look `key` up before validating, so a field is
    checked once while its handle lives, and a failure, never cached,
    raises on every call."""
    field = _HANDLES.get(key)
    if field is None:
        field = _HANDLES[key] = (cls or Field)(*key)
        _TAGS[field.tag()] = field
    return field


class Field:
    """Handle for one of the supported exact fields: the rationals as this
    class, a finite field as `polyauto.finite.FiniteField`.

    One handle per field; equality is identity.  The constructors return
    the live handle of a (kind, p, s, modulus) if there is one, so every
    field comparison is an identity test, and per-field caches such as
    `poly.identity_images` are shared by all callers.  Instances are
    immutable.
    """

    __slots__ = ("kind", "p", "s", "modulus", "characteristic", "order",
                 "_pfrom_int", "_padd", "_pneg", "_pmul", "_power",
                 "_pis_zero", "_ptext", "_mul_terms", "_ring_mul", "zero",
                 "one", "_identity", "__weakref__")

    def __init__(self, kind, p, s, modulus):
        self.kind, self.p, self.s, self.modulus = kind, p, s, modulus
        self.characteristic, self.order = (p, p ** s) if p else (0, None)
        (self._pfrom_int, self._padd, self._pneg, self._pmul, self._power,
         self._pis_zero, self._ptext, self._mul_terms, self._ring_mul) = \
            self._ops()
        self.zero = FieldElement(self, self._pfrom_int(0))
        self.one = FieldElement(self, self._pfrom_int(1))
        self._identity = {}  # nvars -> (x_1, ..., x_n), poly.identity_images

    def _ops(self):
        """The kind's payload ops (from an int, add, negate, multiply, power,
        zero test, printer; _power(a, e) takes a nonzero a when e < 0), then
        its product of two term maps and `_ring_mul(a, b, k=1, out=None)`,
        which adds k * a * b into `out` in the ring that substitution
        accumulates in: over Q, integer numerators.  mul_terms_obj is read
        per call, so a tracer that rebinds it sees every call."""
        c, r = kernels.canonical, kernels.ratio  # r: one Fraction at most
        return (int, lambda a, b: c(a + b), neg, lambda a, b: c(a * b),
                lambda a, e: r(1, a ** -e) if e < 0 and type(a) is int else
                c(a ** e), not_, str, lambda a, b: kernels.mul_terms_obj(a, b),
                kernels.mul_terms_int)

    _eliminate = staticmethod(kernels.gauss_jordan_q)  # FiniteField overrides it

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return _interned((RATIONALS, None, None, None))

    @staticmethod
    def prime(p: int) -> "Field":
        from .finite import prime
        return prime(p)

    @staticmethod
    def extension(p: int, s: int, modulus=None) -> "Field":
        from .finite import extension
        return extension(p, s, modulus)

    @staticmethod
    def of_order(q: int) -> "Field":
        """Finite field of order q with the canonical modulus."""
        from .finite import of_order
        return of_order(q)

    # -- descriptors ------------------------------------------------------

    def __repr__(self):
        return f"Field({self.tag()})"

    def tag(self) -> str:
        return "Q"

    # -- payload arithmetic ----------------------------------------------

    def _pinv(self, a):
        if self._pis_zero(a):
            raise DivisionByZero("inverse of zero")
        return self._power(a, -1)

    def _pdiv(self, a, b):
        if self.kind == RATIONALS and type(a) is type(b) is int and b:
            return kernels.ratio(a, b)  # one Fraction at most
        return self._pmul(a, self._pinv(b))  # b = 0 raises in _pinv

    def _ppow(self, a, e: int):
        return self._power(a, e) if e >= 0 else self._power(self._pinv(a), -e)

    # -- elements ----------------------------------------------------------

    def elem(self, value: int | str | Fraction | tuple | FieldElement) -> "FieldElement":
        """Coerce an int, Fraction, element or residue tuple into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value} is not in {self.tag()}")
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            num, den = map(self._pfrom_int, value.as_integer_ratio())
            return FieldElement(self, self._pdiv(num, den))
        raise TypeError(f"cannot coerce {value!r} into {self.tag()}")

    def from_int(self, k: int) -> "FieldElement":
        return FieldElement(self, self._pfrom_int(k))

    def generator(self) -> "FieldElement":
        """The class of t in an extension field."""
        raise FieldMismatch("generator only defined for extension fields")

    def elements(self) -> Iterator["FieldElement"]:
        """All elements of a finite field, in the fixed enumeration order."""
        raise FieldMismatch("cannot enumerate the rationals")

    def units(self, bound: int | None = None) -> Iterator["FieldElement"]:
        """Nonzero elements.

        Finite fields: each of the q-1 units exactly once, in the integer
        encoding order (so F_4 yields 1, t, t+1).  Rationals: a deterministic
        injective stream 1, -1, 2, -2, 1/2, -1/2, 3, -3, ... truncated to
        `bound` items when given.
        """
        def values():
            for m in count(1):
                for num, den in [(m, 1), *((n, m) for n in range(1, m)),
                                 *((m, d) for d in range(2, m))]:
                    v = self._pdiv(num, den)
                    if v.denominator == den:  # num/den in lowest terms
                        yield from (v, -v)
        return (FieldElement(self, v) for v in islice(values(), bound))


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
        return self.payload == self.field.one.payload

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
        return self.field._ptext(self.payload)

