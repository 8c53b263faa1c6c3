"""Sparse exact multivariate polynomials over a Field.

Terms are stored as a dict mapping packed monomials to nonzero coefficient
payloads: one int per exponent vector, exponent j (0-based) in bits
[B(n-1-j), B(n-j)) and the total degree above them all (`pack`, `unpack`).
A product of monomials is one integer addition, the total degree is
key >> B*n, and int order is graded-lex order.  Only this module and the
kernels (`kernels`, `finite`), which each Field binds when it is made, know
the layout: other code reads exponents through sorted_terms, coeff, degrees,
deg_in and involves, and writes terms through from_keys, with keys from pack
or summed from `variable_keys` (the reader's term rule, Linear).  No
field carries into the next because no polynomial of total degree over
MAX_DEGREE is built: products, powers, monomials and substitutions over it
raise DegreeCapExceeded.  The zero polynomial is the empty dict.  Degrees
follow the deg(0) = 0 convention used throughout the engine.

Polynomials are immutable by contract: no method mutates `terms` after
construction, so instances can be shared freely.

A product with a one-term operand c x^k runs no kernel: it is a shift of
every key by k and one coefficient product per term (`_shift`), and a power
of one term is (k e, c^e).  Such products are most of them: substitutions
by x_j, c x_j, a signed permutation or a monomial.

Substitution is one accumulation for every field (PreparedImages): the
powers of one-term images fold into each term's key and multiplier, and
the product of the other images, if any, is added into one map by the
field's kernel.  Over Q it runs, as products do, on integer numerators over
one shared denominator, so each canonical Fraction payload is built once
per output term.
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
            [((e,), self.field.one.payload)])

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
        `images` may be a PreparedImages, shared by many substitutions.

        The cap bounds the total degree of every term's expansion, and is
        never above MAX_DEGREE (None means MAX_DEGREE).  Over a field
        deg(prod) = sum of degs exactly, so the check fires iff the true
        result of some term would exceed the cap.
        """
        if len(images) != self.nvars:
            raise ArityMismatch(
                f"need {self.nvars} images, got {len(images)}")
        field = self.field
        if not images:
            raise ArityMismatch("substitution needs at least one variable")
        if not isinstance(images, PreparedImages):
            images = PreparedImages(images, field)
        elif images.field != field:
            raise FieldMismatch("image over a different field")
        cap = cap_limit(cap)
        n, degs = self.nvars, images.degs
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            if key >> B * n == 1 and c == field.one.payload:
                j = unpack(key, n).index(1)  # a bare variable x_j
                check_degree("substitution term degree", degs[j], cap)
                return images[j]
        # a term involving a variable whose image is zero vanishes; every
        # live term is checked against the cap before any work, since a
        # single over-cap term dooms the whole expansion
        live, zero = [], images.zero_mask
        for key, c in self.terms.items():
            if not key & zero:
                e = unpack(key, n)
                check_degree("substitution term degree",
                             sum(map(mul, e, degs)), cap)
                live.append((e, c))
        return images.accumulate(live)


def _shift(field: Field, terms: dict, key: int, c) -> dict:
    """terms * c x^key, with c a nonzero payload: a product by one term is a
    key addition and a coefficient product per term, with no kernel call.
    Distinct keys stay distinct and a field has no zero divisors, so nothing
    cancels."""
    if c == field.one.payload:
        return {k + key: v for k, v in terms.items()}
    pmul = field._pmul
    return {k + key: pmul(v, c) for k, v in terms.items()}


class PreparedImages(tuple):
    """Images checked once and shared by many substitutions (compose's), with
    their degrees for the cap pre-check and a memo of their powers as term
    maps of the accumulation's ring (over Q the numerators of P_j / d_j)."""

    def __new__(cls, images: Sequence[Polynomial], field: Field):
        self = super().__new__(cls, images)
        self.field, self.nvars = field, images[0].nvars if images else 0
        for img in images:
            if img.field != field:
                raise FieldMismatch("image over a different field")
            if img.nvars != self.nvars:
                raise ArityMismatch("images of mixed arity")
        self.degs = [img.deg() for img in images]
        # the fields, in a key of arity len(images), of zero images
        self.zero_mask = sum(MAX_DEGREE << B * (len(images) - 1 - j)
                             for j, img in enumerate(images) if not img.terms)
        self.powers, self.dens = [None] * len(self), [1] * len(self)
        return self

    def power(self, j: int, e: int) -> dict:
        """images[j] ** e as a term map of the accumulation's ring."""
        memo = self.powers[j]
        if memo is None:
            terms = self[j].terms
            if self.field.kind == RATIONALS:
                terms, self.dens[j] = kernels.clear_denominators(terms)
            memo = self.powers[j] = {1: terms}
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

    def accumulate(self, live) -> Polynomial:
        """sum of c * prod images[j]^e_j over (e, c) in `live`.  The powers
        of one-term images fold into each term's key and multiplier; the
        product of the others, if any, adds into one map by the kernel with
        that multiplier, and each key is normalised once.  Over Q, (e, c) is
        num(c) prod P_j^e_j over den(c) prod d_j^e_j, scaled to the lcm D of
        those; each key is v / D."""
        field, kind = self.field, self.field.kind
        factors = [[self.power(j, k) for j, k in enumerate(e) if k]
                   for e, _ in live]
        ks = [c for _, c in live]
        if kind == RATIONALS:
            dens = [c.denominator * prod(self.dens[j] ** k
                                         for j, k in enumerate(e) if k)
                    for e, c in live]
            D = lcm(*dens)
            ks = [c.numerator * (D // t) for c, t in zip(ks, dens)]
        one = 1 if kind == RATIONALS else field.one.payload
        acc, times = {}, field._ring_mul
        pmul, padd = field._pmul, field._padd
        for fs, k in zip(factors, ks):
            key, many = 0, []
            for f in fs:
                if len(f) == 1:
                    (fkey, c), = f.items()
                    key, k = key + fkey, pmul(k, c)
                else:
                    many.append(f)
            if not many:
                got = acc.get(key)
                acc[key] = k if got is None else padd(got, k)
                continue
            *head, last = many
            first = (_shift(field, reduce(times, head), key, one) if head
                     else {key: one})
            times(first, last, k, acc)
        if kind == RATIONALS:
            terms = {e: Fraction(v, D) for e, v in acc.items() if v}
        elif kind == PRIME:
            terms = {e: r for e, v in acc.items() if (r := v % field.p)}
        else:
            terms = {e: v for e, v in acc.items() if any(v)}
        return Polynomial(field, self.nvars, terms)


def identity_images(field: Field, nvars: int) -> tuple[Polynomial, ...]:
    """(x_1, ..., x_n), one shared tuple per field handle and n."""
    images = field._identity.get(nvars)
    if images is None:
        images = field._identity[nvars] = tuple(
            Polynomial.variable(field, nvars, i) for i in range(1, nvars + 1))
    return images
