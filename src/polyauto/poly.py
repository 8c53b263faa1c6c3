"""Sparse exact multivariate polynomials over a Field.

Terms are stored as a dict mapping exponent tuples (length nvars) to nonzero
coefficient payloads.  The zero polynomial is the empty dict.  Degrees follow
the deg(0) = 0 convention used throughout the engine.

Polynomials are immutable by contract: no method mutates `terms` after
construction, so instances can be shared freely.

Over Q, products and substitution run on integer numerators with one
shared denominator (kernels.mul_terms_obj, _substitute_rational): the
Fraction payloads are built once per output term, so the stored terms stay
canonical Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator, Optional, Sequence, Tuple

from . import kernels
from .errors import (ArityMismatch, DegreeCapExceeded, FieldMismatch,
                     IndexOutOfRange)
from .fields import EXTENSION, PRIME, RATIONALS, Field, FieldElement

# Commutator expansion of long words can square degrees; the cap turns an
# explosion into a typed error rather than a hang.
DEFAULT_DEGREE_CAP = 1024


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

    def degrees(self) -> Tuple[int, Tuple[int, ...]]:
        """(total degree, per-variable degrees), deg(0) = 0 convention."""
        if not self.terms:
            return 0, (0,) * self.nvars
        total = max(sum(e) for e in self.terms)
        per = tuple(max(e[j] for e in self.terms) for j in range(self.nvars))
        return total, per

    def involves(self, i: int) -> bool:
        return any(e[i - 1] for e in self.terms)

    def variables(self) -> Tuple[int, ...]:
        """1-based indices of variables that actually occur."""
        out = []
        for j in range(self.nvars):
            if any(e[j] for e in self.terms):
                out.append(j + 1)
        return tuple(out)

    def sorted_terms(self) -> Iterator[Tuple[Tuple[int, ...], FieldElement]]:
        """Graded-lexicographic order, highest first: serialization is
        byte-stable because of this."""
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            yield e, FieldElement(self.field, self.terms[e])

    def monomials(self) -> Iterator["Polynomial"]:
        for e, c in self.sorted_terms():
            yield Polynomial(self.field, self.nvars, {e: c.payload})

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
        if field.kind == PRIME:
            terms = kernels.mul_terms_fp(self.terms, other.terms, field.p)
        elif field.kind == EXTENSION:
            terms = kernels.mul_terms_ext(self.terms, other.terms,
                                          field.p, field.modulus)
        else:
            terms = kernels.mul_terms_obj(self.terms, other.terms)
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
        for e, c in self.terms.items():
            k = e[j]
            if k == 0:
                continue
            v = field._pmul_int(c, k)
            if field._pis_zero(v):
                continue
            ne = e[:j] + (k - 1,) + e[j + 1:]
            acc = out.get(ne)
            if acc is None:
                out[ne] = v
            else:
                acc = field._padd(acc, v)
                if field._pis_zero(acc):
                    del out[ne]
                else:
                    out[ne] = acc
        return Polynomial(field, self.nvars, out)

    def substitute(self, images: Sequence["Polynomial"],
                   cap: Optional[int] = DEFAULT_DEGREE_CAP) -> "Polynomial":
        """Replace x_j by images[j-1]; the result arity is the images' arity.

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
        m = images[0].nvars
        for img in images:
            if img.field != field:
                raise FieldMismatch("image over a different field")
            if img.nvars != m:
                raise ArityMismatch("images of mixed arity")
        # a term involving a variable whose image is zero vanishes
        zero_vars = [j for j, img in enumerate(images) if not img.terms]
        live = [(e, c) for e, c in self.terms.items()
                if not any(e[j] for j in zero_vars)]
        if cap is not None:
            # check every term before doing any work: a single over-cap term
            # means the whole expansion is doomed, so fail fast
            img_degs = [img.deg() for img in images]
            for e, _ in live:
                est = sum(map(mul, e, img_degs))
                if est > cap:
                    raise DegreeCapExceeded(
                        f"substitution term degree {est} exceeds cap {cap}")
        if field.kind == RATIONALS:
            return _substitute_rational(live, images, m)
        powers = [dict() for _ in images]

        def img_pow(j: int, e: int) -> Polynomial:
            memo = powers[j]
            got = memo.get(e)
            if got is None:
                if e == 1:
                    got = images[j]
                else:
                    half = img_pow(j, e // 2)
                    got = half * half
                    if e & 1:
                        got = got * images[j]
                memo[e] = got
            return got

        result = Polynomial.zero(field, m)
        for e, c in live:
            term = None
            for j in range(self.nvars):
                if e[j]:
                    q = img_pow(j, e[j])
                    term = q if term is None else term * q
            if term is None:
                term = Polynomial.one(field, m)
            result = result + term.scale(FieldElement(field, c))
        return result


def _int_product(a: dict, b: dict) -> dict:
    return {e: v for e, v in kernels.mul_terms_int(a, b).items() if v}


def _substitute_rational(live, images, m: int) -> Polynomial:
    """sum of c * prod images[j]^e_j over the (e, c) in `live`, over Q.

    Each image is P_j / d_j with P_j an integer term map, so the term (e, c)
    is num(c) prod P_j^e_j / (den(c) prod d_j^e_j).  A first pass takes the
    lcm D of those denominators; the second adds every term's integer
    product, scaled to D, into one map, and each surviving sum becomes one
    Fraction over D.
    """
    field = images[0].field
    cleared = [kernels.clear_denominators(img.terms)
               if any(e[j] for e, _ in live) else ({}, 1)
               for j, img in enumerate(images)]
    powers = [{1: P} for P, _ in cleared]

    def img_pow(j: int, e: int) -> dict:
        memo = powers[j]
        got = memo.get(e)
        if got is None:
            half = img_pow(j, e // 2)
            got = _int_product(half, half)
            if e & 1:
                got = _int_product(got, memo[1])
            memo[e] = got
        return got

    dens = []
    D = 1
    for e, c in live:
        t = c.denominator
        for (_, d), k in zip(cleared, e):
            if k:
                t *= d ** k
        dens.append(t)
        D = lcm(D, t)
    unit = {(0,) * m: 1}
    acc = {}
    for (e, c), t in zip(live, dens):
        factors = [img_pow(j, k) for j, k in enumerate(e) if k] or [unit]
        term = unit
        for f in factors[:-1]:
            term = f if term is unit else _int_product(term, f)
        kernels.mul_terms_int(term, factors[-1], c.numerator * (D // t), acc)
    return Polynomial(field, m, {e: Fraction(v, D)
                                 for e, v in acc.items() if v})


def poly_arith(p: Polynomial, q: Polynomial, op: str) -> Polynomial:
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "mul":
        return p * q
    raise ValueError(f"unknown polynomial operation {op!r}")


def identity_images(field: Field, nvars: int) -> Tuple[Polynomial, ...]:
    return tuple(Polynomial.variable(field, nvars, i)
                 for i in range(1, nvars + 1))
