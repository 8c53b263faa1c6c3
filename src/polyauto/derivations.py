"""Triangular derivations D (with D(x_i) free of x_i and later variables)
and the exponential series exp(FD) for F in ker D.

Only the series and kernel checks live here; the normal-closure reduction
theorems built on top of them are in polyauto.lnd.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial

from .errors import (ArityMismatch, InvalidFactor, KernelViolation,
                     NilpotencyCapExceeded, UnsupportedCharacteristic)
from .fields import RATIONALS, Field
from .poly import Polynomial

NILPOTENCY_CAP = 64


class TriDerivation:
    """D = sum Q_i d/dx_i with Q_i in K[x_1..x_{i-1}] (Q_1 constant)."""

    __slots__ = ("field", "nvars", "images")

    def __init__(self, field: Field, nvars: int, images: Sequence[Polynomial]):
        if len(images) != nvars:
            raise ArityMismatch(f"need {nvars} images, got {len(images)}")
        for i, q in enumerate(images, start=1):
            if q.field != field or q.nvars != nvars:
                raise ArityMismatch("derivation image with wrong field/arity")
            for j in range(i, nvars + 1):
                if q.involves(j):
                    raise InvalidFactor(
                        f"D(x{i}) may only involve x1..x{i-1}, found x{j}")
        self.field = field
        self.nvars = nvars
        self.images = tuple(images)

    def is_zero(self) -> bool:
        return all(q.is_zero() for q in self.images)

    def __eq__(self, other):
        return (isinstance(other, TriDerivation)
                and self.field == other.field and self.images == other.images)

    def __hash__(self):
        return hash((self.field, self.images))

    def __repr__(self):
        from .textio import derivation_to_text
        return derivation_to_text(self)


def apply_derivation(D: TriDerivation, P: Polynomial) -> Polynomial:
    """D(P) = sum_i Q_i * dP/dx_i, exact."""
    if P.field != D.field or P.nvars != D.nvars:
        raise ArityMismatch("polynomial and derivation arity/field differ")
    out = Polynomial.zero(D.field, D.nvars)
    for i, q in enumerate(D.images, start=1):
        if q.is_zero():
            continue
        dp = P.partial_derivative(i)
        if not dp.is_zero():
            out = out + q * dp
    return out


def kernel_check(D: TriDerivation, F: Polynomial) -> bool:
    return apply_derivation(D, F).is_zero()


def exp_images(F: Polynomial, D: TriDerivation) -> tuple[Polynomial, ...]:
    """Component tuple of exp(FD): x_i + sum_{m>=1} (FD)^m(x_i)/m!.

    Requires characteristic zero (the factorials) and F in ker D, which
    makes FD a locally nilpotent derivation so every series terminates.
    """
    field = F.field
    if field.kind != RATIONALS:
        raise UnsupportedCharacteristic(
            "exp(FD) is only supported in characteristic zero")
    if F.field != D.field or F.nvars != D.nvars:
        raise ArityMismatch("F and D over different rings")
    if not kernel_check(D, F):
        raise KernelViolation("F is not in the kernel of D")
    n = D.nvars
    comps = []
    for i in range(1, n + 1):
        acc = Polynomial.variable(field, n, i)
        term = acc
        m = 0
        while True:
            term = F * apply_derivation(D, term)
            m += 1
            if term.is_zero():
                break
            if m > NILPOTENCY_CAP:
                raise NilpotencyCapExceeded(
                    f"exp series for x{i} did not terminate within "
                    f"{NILPOTENCY_CAP} steps")
            acc = acc + term.scale(field.elem(Fraction(1, factorial(m))))
        comps.append(acc)
    return tuple(comps)
