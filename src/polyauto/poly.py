"""Sparse exact multivariate polynomials over a Field.

Terms are stored as a dict mapping packed monomials to nonzero coefficient
payloads: one int per exponent vector, exponent j (0-based) in bits
[B(n-1-j), B(n-j)) and the total degree above them all (`pack`, `unpack`).
A product of monomials is one integer addition, the total degree is
key >> B*n, and int order is graded-lex order.  Only this module and the
kernels (`kernels`, `finite`), which each Field binds when it is made, know
the layout: other code reads exponents through sorted_terms, coeff, degrees,
deg_in, involves and the masks of `tail_mask`, and writes terms through
from_keys, with keys from pack or summed from `variable_keys` (the reader's
term rule, Linear; the shape readers compare keys with them).  No
field carries into the next because no polynomial of total degree over
MAX_DEGREE is built: products, powers, monomials and substitutions over it
raise DegreeCapExceeded.  The zero polynomial is the empty dict.  Degrees
follow the deg(0) = 0 convention used throughout the engine.

Polynomials are immutable by contract: no method mutates `terms` after
construction, so instances can be shared freely.

A product with a one-term operand c x^k runs no kernel: it is a shift of
every key by k and one coefficient product per term (`_shift`), and a power
of one term is (k e, c^e).  Substitution is one accumulation for every
field (PreparedImages): one-term images' powers fold into each term's key
and multiplier k, a term with one multi-term power adds it times k by the
field's _pmul and _padd, and only a product of two or more runs the
field's kernel.  Over Q the map holds integer numerators over one shared
denominator, so each canonical Fraction payload is built once per key.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm, prod
from operator import mul
from struct import Struct

from . import kernels
from .errors import (ArityMismatch, DegreeCapExceeded, FieldMismatch,
                     IndexOutOfRange, NegativeExponent)
from .fields import PRIME, RATIONALS, Field, FieldElement

# Commutator expansion of long words can square degrees; the cap turns an
# explosion into a typed error rather than a hang.
DEFAULT_DEGREE_CAP = 1024

# The most variables a ring may have: the Jacobian's cofactor expansion
# recurses once per variable.
MAX_NVARS = 64

# Bits per exponent field of a packed monomial, and the largest total degree
# (hence exponent) a polynomial may have: no field ever carries.
B = 16
MAX_DEGREE = (1 << B) - 1


def pack(exps: Sequence[int]) -> int:
    """The key of an exponent vector: total degree, then e_1, ..., e_n, each
    in B bits.  The caller keeps every e_j >= 0 and the sum <= MAX_DEGREE."""
    return sum(map(mul, exps, variable_keys(len(exps))[1:]))


@lru_cache(maxsize=MAX_NVARS)
def _fields(n: int) -> Struct:
    return Struct(f">{n + 1}H")


def unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector (e_1, ..., e_n) of a key of arity n."""
    return _fields(n).unpack(key.to_bytes(2 * n + 2, "big"))[1:]


@lru_cache(maxsize=MAX_NVARS + 1)
def variable_keys(n: int) -> tuple[int, ...]:
    """The key of x_i (1-based) at i: one unit of degree, one of field i;
    at 0, the key of 1.  The key of x^e is the sum of e_i times x_i's."""
    return (0,) + tuple(1 << B * n | 1 << B * (n - i) for i in range(1, n + 1))


def tail_mask(n: int, i: int) -> int:
    """The bits of the key fields of x_i, ..., x_n (1-based), arity n."""
    return (1 << B * (n + 1 - i)) - 1


def check_degree(what: str, degree: int, cap: int = MAX_DEGREE):
    """Refuse, before it is built, a `what` of total degree over `cap`."""
    if degree > cap:
        raise DegreeCapExceeded(f"{what} {degree} exceeds cap {cap}")


def cap_limit(cap: int | None) -> int:
    """The largest degree that `cap` lets through: never above MAX_DEGREE,
    which None means."""
    return MAX_DEGREE if cap is None else min(cap, MAX_DEGREE)


def check_axis(i: int, nvars: int):
    """Refuse an index i outside 1..nvars."""
    if not 1 <= i <= nvars:
        raise IndexOutOfRange(f"x{i} out of range for {nvars} variables")


def check_exponents(exps: Sequence[int], nvars: int) -> tuple[int, ...]:
    """The exponent vector as ints; refuse a wrong length or a sign."""
    exps = tuple(int(e) for e in exps)
    if len(exps) != nvars:
        raise ArityMismatch("exponent vector length != nvars")
    if any(e < 0 for e in exps):
        raise NegativeExponent("negative exponent")
    return exps


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field: Field, nvars: int) -> "Polynomial":
        return Polynomial(field, nvars, {})

    @staticmethod
    def one(field: Field, nvars: int) -> "Polynomial":
        return Polynomial.constant(field, nvars, field.one)

    @staticmethod
    def constant(field: Field, nvars: int, value) -> "Polynomial":
        return Polynomial.from_keys(field, nvars,
                                    {0: field.elem(value).payload})

    @staticmethod
    def variable(field: Field, nvars: int, i: int) -> "Polynomial":
        """x_i, 1-based."""
        check_axis(i, nvars)
        return Polynomial(field, nvars,
                          {variable_keys(nvars)[i]: field.one.payload})

    @staticmethod
    def monomial(field: Field, nvars: int, coeff, exps: Sequence[int]) -> "Polynomial":
        c = field.elem(coeff)
        exps = check_exponents(exps, nvars)
        check_degree("monomial of degree", sum(exps))
        return Polynomial.from_keys(field, nvars, {pack(exps): c.payload})

    @staticmethod
    def from_keys(field: Field, nvars: int, terms: dict) -> "Polynomial":
        """The sum of c x^e over the items (key of e, c) of `terms`, leaving
        out the zero payloads.  The caller keeps each e with a nonzero c of
        length nvars, nonnegative and of sum at most MAX_DEGREE."""
        is_zero = field._pis_zero
        return Polynomial(field, nvars, {k: c for k, c in terms.items()
                                         if not is_zero(c)})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> FieldElement:
        """Constant term as a field element: the payload at x^0's key, 0."""
        return FieldElement(self.field, self.terms.get(0, self.field.zero.payload))

    def coeff(self, exps: Sequence[int]) -> FieldElement:
        """The coefficient of x^exps; zero for any vector no term can have
        (wrong length, a negative exponent, a sum over MAX_DEGREE)."""
        exps = tuple(exps)
        payload = None
        if (len(exps) == self.nvars and min(exps, default=0) >= 0
                and sum(exps) <= MAX_DEGREE):
            payload = self.terms.get(pack(exps))
        if payload is None:
            return self.field.zero
        return FieldElement(self.field, payload)

    def deg(self) -> int:
        """Total degree, with deg(0) = 0."""
        if not self.terms:
            return 0
        return max(self.terms) >> B * self.nvars

    def deg_in(self, i: int) -> int:
        """Degree in x_i (1-based), deg(0) = 0."""
        check_axis(i, self.nvars)
        shift = B * (self.nvars - i)
        return max((k >> shift & MAX_DEGREE for k in self.terms), default=0)

    def degrees(self) -> tuple[int, tuple[int, ...]]:
        """(total degree, per-variable degrees), deg(0) = 0 convention."""
        if not self.terms:
            return 0, (0,) * self.nvars
        n = self.nvars
        per = tuple(map(max, zip(*(unpack(k, n) for k in self.terms))))
        return self.deg(), per

    def involves(self, i: int) -> bool:
        """Whether some term has a positive exponent of x_i (1-based)."""
        check_axis(i, self.nvars)
        mask = MAX_DEGREE << B * (self.nvars - i)
        return any(k & mask for k in self.terms)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], FieldElement]]:
        """Graded-lexicographic order, highest first: serialization is
        byte-stable because of this."""
        field, n, terms = self.field, self.nvars, self.terms
        for k in sorted(terms, reverse=True):
            yield unpack(k, n), FieldElement(field, terms[k])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise FieldMismatch("polynomials over different fields")
            if other.nvars != self.nvars:
                raise ArityMismatch(
                    f"arity {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial.constant(self.field, self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = field._padd(acc, c)
                if field._pis_zero(acc):
                    del out[e]
                else:
                    out[e] = acc
        return Polynomial(field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        field = self.field
        return Polynomial(field, self.nvars,
                          {e: field._pneg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        check_degree("product of degree", self.deg() + other.deg())
        field, a, b = self.field, self.terms, other.terms
        if len(a) == 1 or len(b) == 1:
            if len(a) != 1:
                a, b = b, a
            (key, c), = a.items()
            terms = _shift(field, b, key, c)
        else:
            terms = field._mul_terms(a, b)
        return Polynomial(field, self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.field.elem(c)
        if c.is_zero():
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial(self.field, self.nvars,
                          _shift(self.field, self.terms, 0, c.payload))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise NegativeExponent("negative polynomial power")
        check_degree("power of degree", self.deg() * e)
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            return Polynomial(self.field, self.nvars,
                              {key * e: self.field._ppow(c, e)})
        # the substitution's powering: x1^e with x1 -> self
        return PreparedImages((self,), self.field).accumulate(
            {e * variable_keys(1)[1]: self.field.one.payload}, MAX_DEGREE)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars,
                     frozenset(self.terms.items())))

    def __repr__(self):
        from .textio import poly_to_text
        return f"Poly[{self.field.tag()},{self.nvars}]({poly_to_text(self)})"

    # -- calculus and substitution -------------------------------------------

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial by x_i; exponent coefficients reduce in the field's
        characteristic (so d(x^p)/dx = 0 over F_p)."""
        check_axis(i, self.nvars)
        field, n = self.field, self.nvars
        out = {}
        shift, unit = B * (n - i), variable_keys(n)[i]
        # distinct terms stay distinct: each loses one x_i, one unit of
        # field i and of the degree
        for key, c in self.terms.items():
            k = key >> shift & MAX_DEGREE
            if k == 0:
                continue
            v = field._pmul(c, field._pfrom_int(k))
            if not field._pis_zero(v):
                out[key - unit] = v
        return Polynomial(field, n, out)

    def substitute(self, images: Sequence["Polynomial"],
                   cap: int | None = DEFAULT_DEGREE_CAP) -> "Polynomial":
        """Replace x_j by images[j-1]; the result arity is the images' arity.

        The cap bounds the total degree of every term's expansion, and is
        never above MAX_DEGREE (None means MAX_DEGREE).  Over a field
        deg(prod) = sum of degs exactly, so the check fires iff the true
        result of some term would exceed the cap.
        """
        if len(images) != self.nvars:
            raise ArityMismatch(
                f"need {self.nvars} images, got {len(images)}")
        if not images:
            raise ArityMismatch("substitution needs at least one variable")
        for img in images:
            if img.field != self.field:
                raise FieldMismatch("image over a different field")
            if img.nvars != images[0].nvars:
                raise ArityMismatch("images of mixed arity")
        return PreparedImages(images, self.field).accumulate(
            self.terms, cap_limit(cap))


def _shift(field: Field, terms: dict, key: int, c) -> dict:
    """terms * c x^key, c a nonzero payload: a key addition and coefficient
    product per term, with no kernel call.  Distinct keys stay distinct and
    a field has no zero divisors, so nothing cancels."""
    if c == field.one.payload:
        return {k + key: v for k, v in terms.items()}
    pmul = field._pmul
    return {k + key: pmul(v, c) for k, v in terms.items()}


class PreparedImages:
    """Images of one field and arity (the caller's to hold, as Endo's are)
    with their degrees, the key fields of the zero ones, and a memo of their
    powers in the accumulation's ring: over Q, numerators over d_j^e."""

    __slots__ = ("images", "field", "nvars", "degs", "zero_mask", "powers",
                 "dens")

    def __init__(self, images: Sequence[Polynomial], field: Field):
        self.images = images = tuple(images)
        self.field, self.nvars = field, images[0].nvars if images else 0
        shift, terms = B * self.nvars, [img.terms for img in images]
        self.degs = [max(t, default=0) >> shift for t in terms]
        # the fields, in a key of arity len(images), of zero images
        self.zero_mask = sum(MAX_DEGREE << B * (len(terms) - 1 - j)
                             for j, t in enumerate(terms) if not t)
        self.powers = None  # set up by the first expansion

    def power(self, j: int, e: int) -> dict:
        """images[j] ** e as a term map of the accumulation's ring."""
        memo = self.powers[j]
        got = memo.get(e)
        if got is None:
            if len(memo[1]) == 1:  # a one-term image: (c x^key)^e
                (key, c), = memo[1].items()
                got = {key * e: self.field._ppow(c, e)}
            else:
                half = self.power(j, e // 2)
                got = self.field._ring_mul(half, half)
                if e & 1:
                    got = self.field._ring_mul(got, memo[1])
            memo[e] = got
        return got

    def accumulate(self, terms: dict, limit: int, check=True) -> Polynomial:
        """The sum of c * prod images[j]^e_j over the terms c x^e of
        `terms`, each refused first if `check` and its expansion is over
        `limit`; a bare x_j is images[j].  Over Q, (e, c) is num(c) prod
        P_j^e_j over den(c) prod d_j^e_j scaled to their lcm D; v is v / D."""
        field, n, degs = self.field, len(self.images), self.degs
        if len(terms) == 1:
            (key, c), = terms.items()
            if key >> B * n == 1 and c == field.one.payload:  # a bare x_j
                j = variable_keys(n).index(key) - 1
                check_degree("substitution term degree", degs[j], limit)
                return self.images[j]
        # a term with a zero image's variable vanishes; a single over-cap
        # term dooms the whole expansion, so every term is checked first
        live, zero = [], self.zero_mask
        for key, c in terms.items():
            if not key & zero:
                e = unpack(key, n)
                if check:
                    check_degree("substitution term degree",
                                 sum(map(mul, e, degs)), limit)
                live.append((e, c))
        if self.powers is None:
            bases = [img.terms for img in self.images]
            if field.kind == RATIONALS:
                bases, self.dens = zip(*map(kernels.clear_denominators, bases))
            self.powers = [{1: t} for t in bases]
        if field.kind == RATIONALS:
            dens = [c.denominator * prod(map(pow, self.dens, e))
                    for e, c in live]
            D = lcm(*dens)
            live = [(e, c.numerator * (D // t))
                    for (e, c), t in zip(live, dens)]
        acc, power, times = {}, self.power, field._ring_mul
        pmul, padd = field._pmul, field._padd  # 1: Q's, F_p's, F_{p^s}'s one
        for e, k in live:
            key, many = 0, []
            for j, ej in enumerate(e):
                if ej:
                    f = power(j, ej)
                    if len(f) == 1:
                        (fkey, c), = f.items()
                        key, k = key + fkey, k if c == 1 else pmul(k, c)
                    else:
                        many.append(f)
            if not many:
                got = acc.get(key)
                acc[key] = k if got is None else padd(got, k)
            elif len(many) == 1:
                for fkey, c in many[0].items():
                    fkey, c = fkey + key, c if k == 1 else pmul(k, c)
                    got = acc.get(fkey)
                    acc[fkey] = c if got is None else padd(got, c)
            else:
                *head, last = many
                times(_shift(field, reduce(times, head), key, 1), last, k,
                      acc)
        if field.kind == RATIONALS:
            terms = {e: Fraction(v, D) for e, v in acc.items() if v}
        elif field.kind == PRIME:
            terms = {e: r for e, v in acc.items() if (r := v % field.p)}
        else:
            terms = {e: v for e, v in acc.items() if v != 0}
        return Polynomial(field, self.nvars, terms)


def identity_images(field: Field, nvars: int) -> tuple[Polynomial, ...]:
    """(x_1, ..., x_n), one shared tuple per field handle and n."""
    images = field._identity.get(nvars)
    if images is None:
        images = field._identity[nvars] = tuple(
            Polynomial.variable(field, nvars, i) for i in range(1, nvars + 1))
    return images
