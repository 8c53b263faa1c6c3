"""The translation identities that the characteristic-zero engines share
with the slin constructions: from a nontrivial special affine base a
nontrivial translation, from a translation an axis translation, and the
axis shift of a polynomial.

Each identity records its step on a CertBuilder with the value it predicts,
so a mismatch raises InternalIdentityFailure instead of recording a bad
step.  The monomial engine of polyauto.slin is not needed for these, so
this module does not load it.
"""

from __future__ import annotations

from .autos import Translation, affine_parts, elementary, is_translation
from .errors import IdentityInput, NotAffine
from .fields import FieldElement
from .poly import Polynomial
from .wordbuild import CertBuilder


def translation_from_any(builder: CertBuilder, gamma: str) -> str:
    """From a nontrivial translation derive some eps_{i,c}."""
    field, n = builder.field, builder.nvars
    val = builder.value(gamma)
    if val.is_identity():
        raise IdentityInput("translation is the identity")
    if not is_translation(val):
        raise NotAffine("base is not a translation")
    _, consts = affine_parts(val)
    j = next(k + 1 for k, cval in enumerate(consts) if not cval.is_zero())
    i = next(m for m in range(1, n + 1) if m != j)
    guard = elementary(field, n, i, Polynomial.variable(field, n, j))
    return builder.add_step(
        [(None, gamma, -1), (guard.inverse(), gamma, 1)],
        expect=elementary(field, n, i, consts[j - 1]).expand(),
        note=f"axis translation from column {j}")


def translation_from_special_affine(builder: CertBuilder, alpha: str) -> str:
    """cor. to the affine case: from a nontrivial special affine base derive
    a nontrivial translation."""
    field, n = builder.field, builder.nvars
    val = builder.value(alpha)
    if val.is_identity():
        raise IdentityInput("affine map is the identity")
    parts = affine_parts(val)
    if parts is None:
        raise NotAffine("base is not affine")
    if is_translation(val):
        return alpha
    A, _ = parts
    pick = None
    for i in range(n):
        for j in range(n):
            expect_delta = field.one if i == j else field.zero
            if A[i][j] != expect_delta:
                pick = (i, j)
                break
        if pick:
            break
    if pick is None:
        raise IdentityInput("linear part is the identity but map is not a translation")
    _, j = pick
    guard = elementary(field, n, j + 1, field.one)
    shift = tuple(A[k][j] - (field.one if k == j else field.zero)
                  for k in range(n))
    expected = Translation(field, n, shift).expand()
    return builder.add_step(
        [(guard, alpha, 1), (None, alpha, -1)],
        expect=expected, note="translation from affine part")


def axis_shift(poly: Polynomial, axis: int, amount: FieldElement) -> Polynomial:
    """(poly) eps_{axis, amount}: substitute x_axis -> x_axis + amount."""
    field, n = poly.field, poly.nvars
    images = [Polynomial.variable(field, n, m + 1) for m in range(n)]
    images[axis - 1] = images[axis - 1] + Polynomial.constant(field, n, amount)
    return poly.substitute(images)
