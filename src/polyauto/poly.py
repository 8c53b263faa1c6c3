"""Sparse exact multivariate polynomials over a Field.

Terms are stored as a dict mapping exponent tuples (length nvars) to nonzero
coefficient payloads.  The zero polynomial is the empty dict.  Degrees follow
the deg(0) = 0 convention used throughout the engine.

Polynomials are immutable by contract: no method mutates `terms` after
construction, so instances can be shared freely.

Substitution is one accumulation for every field (PreparedImages): each
term's last product is added into one map by the field's kernel.  Over Q it
runs, as products do, on integer numerators over one shared denominator, so
each canonical Fraction payload is built once per output term.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import partial, reduce
from math import lcm, prod
from operator import mul

from . import kernels
from .errors import (ArityMismatch, DegreeCapExceeded, FieldMismatch,
                     IndexOutOfRange)
from .fields import EXTENSION, PRIME, RATIONALS, Field, FieldElement

# Commutator expansion of long words can square degrees; the cap turns an
# explosion into a typed error rather than a hang.
DEFAULT_DEGREE_CAP = 1024

# The most variables a ring may have: the Jacobian's cofactor expansion
# recurses once per variable.
MAX_NVARS = 64


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
        c = field.elem(value)
        if c.is_zero():
            return Polynomial.zero(field, nvars)
        return Polynomial(field, nvars, {(0,) * nvars: c.payload})

    @staticmethod
    def variable(field: Field, nvars: int, i: int) -> "Polynomial":
        """x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise IndexOutOfRange(f"x{i} out of range for {nvars} variables")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return Polynomial(field, nvars, {exps: field.one.payload})

    @staticmethod
    def monomial(field: Field, nvars: int, coeff, exps: Sequence[int]) -> "Polynomial":
        c = field.elem(coeff)
        exps = tuple(int(e) for e in exps)
        if len(exps) != nvars:
            raise ArityMismatch("exponent vector length != nvars")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if c.is_zero():
            return Polynomial.zero(field, nvars)
        return Polynomial(field, nvars, {exps: c.payload})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> FieldElement:
        """Constant term as a field element."""
        z = (0,) * self.nvars
        payload = self.terms.get(z)
        if payload is None:
            return self.field.zero
        return FieldElement(self.field, payload)

    def coeff(self, exps: Sequence[int]) -> FieldElement:
        payload = self.terms.get(tuple(exps))
        if payload is None:
            return self.field.zero
        return FieldElement(self.field, payload)

    def deg(self) -> int:
        """Total degree, with deg(0) = 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def deg_in(self, i: int) -> int:
        """Degree in x_i (1-based), deg(0) = 0."""
        if not 1 <= i <= self.nvars:
            raise IndexOutOfRange(f"x{i} out of range")
        if not self.terms:
            return 0
        return max(e[i - 1] for e in self.terms)

    def degrees(self) -> tuple[int, tuple[int, ...]]:
        """(total degree, per-variable degrees), deg(0) = 0 convention."""
        if not self.terms:
            return 0, (0,) * self.nvars
        total = max(sum(e) for e in self.terms)
        per = tuple(max(e[j] for e in self.terms) for j in range(self.nvars))
        return total, per

    def involves(self, i: int) -> bool:
        return any(e[i - 1] for e in self.terms)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], FieldElement]]:
        """Graded-lexicographic order, highest first: serialization is
        byte-stable because of this."""
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            yield e, FieldElement(self.field, self.terms[e])

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
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        if field.kind == RATIONALS:
            terms = kernels.mul_terms_obj(self.terms, other.terms)
        else:
            terms = _mul_terms(field, self.terms, other.terms)
        return Polynomial(field, self.nvars, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = self.field.elem(c)
        if c.is_zero():
            return Polynomial.zero(self.field, self.nvars)
        field = self.field
        out = {}
        for e, payload in self.terms.items():
            v = field._pmul(payload, c.payload)
            if not field._pis_zero(v):
                out[e] = v
        return Polynomial(field, self.nvars, out)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.field, self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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
        if not 1 <= i <= self.nvars:
            raise IndexOutOfRange(f"x{i} out of range")
        field = self.field
        out = {}
        j = i - 1
        # distinct terms stay distinct: only their j-th exponents drop by one
        for e, c in self.terms.items():
            k = e[j]
            if k == 0:
                continue
            v = field._pmul_int(c, k)
            if not field._pis_zero(v):
                out[e[:j] + (k - 1,) + e[j + 1:]] = v
        return Polynomial(field, self.nvars, out)

    def substitute(self, images: Sequence["Polynomial"],
                   cap: int | None = DEFAULT_DEGREE_CAP) -> "Polynomial":
        """Replace x_j by images[j-1]; the result arity is the images' arity.
        `images` may be a PreparedImages, shared by many substitutions.

        The optional cap bounds the total degree of every term's expansion.
        Over a field deg(prod) = sum of degs exactly, so the check fires iff
        the true result of some term would exceed the cap.
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
        # a term involving a variable whose image is zero vanishes
        live = [(e, c) for e, c in self.terms.items()
                if not any(e[j] for j in images.zero_vars)]
        if cap is not None:
            # check every term before doing any work: a single over-cap term
            # means the whole expansion is doomed, so fail fast
            for e, _ in live:
                est = sum(map(mul, e, images.degs))
                if est > cap:
                    raise DegreeCapExceeded(
                        f"substitution term degree {est} exceeds cap {cap}")
        if len(live) == 1:
            e, c = live[0]
            if sum(e) == 1 and c == field.one.payload:
                return images[e.index(1)]  # a bare variable x_j
        return images.accumulate(live)


def _mul_terms(field: Field, a: dict, b: dict, k=1, out=None) -> dict:
    """a * b, or k * a * b added into `out` (zero sums may stay in it), by
    the field's kernel: on F_p and F_{p^s} payloads, and over Q on integer
    numerators (Polynomial.__mul__ multiplies Fraction payloads itself)."""
    if field.kind == EXTENSION:
        return kernels.mul_terms_ext(a, b, field.p, field.modulus, k, out)
    if field.kind == PRIME and out is None:
        return kernels.mul_terms_fp(a, b, field.p)
    return kernels.mul_terms_int(a, b, k, out)


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
        self.zero_vars = [j for j, img in enumerate(images) if not img.terms]
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
            half = self.power(j, e // 2)
            got = _mul_terms(self.field, half, half)
            if e & 1:
                got = _mul_terms(self.field, got, memo[1])
            memo[e] = got
        return got

    def accumulate(self, live) -> Polynomial:
        """sum of c * prod images[j]^e_j over (e, c) in `live`: each term's
        last product adds into one map with c as multiplier, and each key is
        normalised once.  Over Q, (e, c) is num(c) prod P_j^e_j over den(c)
        prod d_j^e_j, scaled to the lcm D of those; each key is v / D."""
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
        one = {(0,) * self.nvars: 1 if kind == RATIONALS else field.one.payload}
        acc, times = {}, partial(_mul_terms, field)
        for fs, k in zip(factors, ks):
            *head, last = fs or [one]
            times(reduce(times, head) if head else one, last, k, acc)
        if kind == RATIONALS:
            terms = {e: Fraction(v, D) for e, v in acc.items() if v}
        elif kind == PRIME:
            terms = {e: r for e, v in acc.items() if (r := v % field.p)}
        else:
            terms = {e: v for e, v in acc.items() if any(v)}
        return Polynomial(field, self.nvars, terms)


def poly_arith(p: Polynomial, q: Polynomial, op: str) -> Polynomial:
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "mul":
        return p * q
    raise ValueError(f"unknown polynomial operation {op!r}")


def identity_images(field: Field, nvars: int) -> tuple[Polynomial, ...]:
    """(x_1, ..., x_n), one shared tuple per field handle and n."""
    images = field._identity.get(nvars)
    if images is None:
        images = field._identity[nvars] = tuple(
            Polynomial.variable(field, nvars, i) for i in range(1, nvars + 1))
    return images
