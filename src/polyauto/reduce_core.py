"""Shared reduction machinery for the characteristic-zero engines: the
commutator probe and its parabolic witness route, the translation pass and
the vector-degree drop check, the triangular descent, the parabolic
last-axis commutator, and the affine terminal chain with its two
translation identities, which the slin constructions share, as they do
the axis shift of a polynomial.

These are the only copies of the reduction moves; the m-triangular engine
(cotame) and the exponential engine (lnd) call them with the linear slot
they hold, an Endo or None.  A probe that finds no c is None, and
`linear_word` is the one builder of the one-factor L[...] conjugator
word.  The functions append verified steps to a CertBuilder and return
the label of the step holding the nontrivial elementary terminal.  Each
identity records its step with the value it predicts, so a mismatch
raises InternalIdentityFailure instead of recording a bad step."""

from __future__ import annotations

from functools import reduce

from .autos import (elementary, invert_endo, is_parabolic, is_translation,
                    translation, triangular_parts, vector_degree)
from .errors import (IdentityInput, InternalIdentityFailure, NotAffine,
                     NotParabolic, NotTriangular, UnsupportedCharacteristic)
from .fields import RATIONALS, Field, FieldElement
from .maps import (Endo, FactoredAuto, Linear, Record, Translation,
                   affine_parts, compose, elementary_parts)
from .poly import Polynomial
from .wordbuild import CertBuilder


def _require_char_zero(field: Field):
    if field.kind != RATIONALS:
        raise UnsupportedCharacteristic(
            "the reduction engine requires characteristic zero")


def max_var_degree(phi: Endo) -> int:
    out = 0
    for c in phi.components:
        _, per = c.degrees()
        if per:
            out = max(out, max(per))
    return out


def linear_word(endo: Endo) -> FactoredAuto | None:
    """The one-factor word L[A] of a special linear map, the engines' one
    linear conjugator word; None for any other map (a singular A raises)."""
    parts = affine_parts(endo)
    if parts is None or any(not b.is_zero() for b in parts[1]):
        return None
    field, n = endo.field, endo.nvars
    linear = Linear(field, n, parts[0])
    return FactoredAuto(field, n, [linear]) if linear.det().is_one() else None


class CommutatorProbe(Record):
    """The first c whose conjugated axis translation fails to commute."""
    __slots__ = ("c", "eps", "gamma", "gamma_word")

    def __init__(self, c: int, eps: FactoredAuto, gamma: Endo,
                 gamma_word: FactoredAuto):
        self.c = c
        self.eps = eps      # eps_{k,c}, its expansion cached
        self.gamma = gamma  # the translation alpha eps_{k,c} alpha^{-1}
        self.gamma_word = gamma_word  # gamma as one translation factor


def find_noncommuting_c(phi: Endo, alpha: Endo | None,
                        k: int) -> CommutatorProbe | None:
    """Search c = 1..B, B = max(largest per-variable degree of phi + 1, 2),
    for a conjugated axis translation gamma = alpha eps_{k,c} alpha^{-1}
    (eps_{k,c} itself when alpha is None) that fails to commute with phi:
    the commutator's entries are polynomials of degree < B in c, so
    vanishing at B points forces vanishing identically.

    None when every c commutes; then `parabolic_witness` conjugates phi to
    a parabolic map."""
    field, n = phi.field, phi.nvars
    _require_char_zero(field)
    B = max(max_var_degree(phi) + 1, 2)
    alpha_inv = invert_endo(alpha) if alpha is not None else None
    for c in range(1, B + 1):
        eps = elementary(field, n, k, field.from_int(c))
        gamma = eps.expand()
        if alpha is not None:
            gamma = reduce(compose, (alpha, gamma, alpha_inv))
        if compose(gamma, phi) != compose(phi, gamma):
            word = translation(field, n, affine_parts(gamma)[1])
            return CommutatorProbe(c, eps, gamma, word)
    return None


def parabolic_witness(phi: Endo, alpha: Endo | None):
    """When every probe c on the last axis commutes with phi, the commuting
    conditions make alpha^{-1} phi alpha parabolic; raise when it is not."""
    psi = phi if alpha is None else reduce(
        compose, (invert_endo(alpha), phi, alpha))
    if not is_parabolic(psi):
        raise InternalIdentityFailure(
            "probe exhausted but the parabolic witness failed; "
            "the degree bound argument was violated")


def parabolic_route(builder: CertBuilder, ref: str,
                    alpha: Endo | None) -> str:
    """Every probe c on the last axis commutes with the value phi of `ref`,
    so phi = alpha P alpha^{-1} with P parabolic; reduce P."""
    parabolic_witness(builder.value(ref), alpha)
    return reduce_parabolic_ref(builder, ref, alpha)


def translation_pass(tr: Endo, slots) -> Endo:
    """Conjugate the translation `tr` by each slot g in turn, tr -> g^{-1} tr g,
    with `slots` the pairs (g^{-1}, g) in word order; every conjugate must
    again be a translation (a last-axis translation passes a lower
    triangular factor, and any translation passes a linear one)."""
    for g_inv, g in slots:
        tr = reduce(compose, (g_inv, tr, g))
        if not is_translation(tr):
            raise InternalIdentityFailure(
                "translation stopped being a translation while passing "
                "the slots")
    return tr


def require_vd_drop(before: tuple[int, ...], after: Endo,
                    what: str = "vector degree") -> None:
    """The descent invariant: vd(after) < before, lexicographically."""
    vd_after = vector_degree(after)
    if not vd_after < before:
        raise InternalIdentityFailure(
            f"{what} did not drop: {before} -> {vd_after}")


# -- affine terminal chain --------------------------------------------------


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


def affine_terminal(builder: CertBuilder, ref: str) -> str:
    """From a nontrivial special affine base, derive an axis translation
    eps_{i,c} (a nontrivial elementary map) and return its step label."""
    cur = translation_from_special_affine(builder, ref)
    parts = elementary_parts(builder.value(cur))
    if parts is not None and parts[1].is_constant():
        if builder.is_step(cur):
            return cur
        return builder.passthrough(cur, note="axis translation terminal")
    return translation_from_any(builder, cur)


# -- triangular descent ------------------------------------------------------


def _axis_probe_translation(val: Endo) -> FactoredAuto:
    """Find an axis translation gamma with gamma^{-1} tau^{-1} gamma tau != id.
    Exists whenever tau is not itself a translation-commuting map, i.e.
    whenever tau is outside the translation subgroup; the axes are probed
    in order and an axis that commutes is skipped."""
    for k in range(1, val.nvars + 1):
        probe = find_noncommuting_c(val, None, k)
        if probe is not None:
            return probe.eps
    raise InternalIdentityFailure(
        "no axis translation fails to commute with a non-affine triangular "
        "map; this contradicts the translation-centralizer lemma")


def reduce_triangular_ref(builder: CertBuilder, ref: str) -> str:
    """Descent on the vector degree: replace tau by
    gamma^{-1} tau^{-1} gamma tau until the map is affine, then finish
    through the affine terminal chain."""
    val = builder.value(ref)
    _require_char_zero(val.field)
    if val.is_identity():
        raise IdentityInput("triangular input is the identity")
    if triangular_parts(val) is None:
        raise NotTriangular("input is not lower triangular")
    cur = ref
    while True:
        val = builder.value(cur)
        if affine_parts(val) is not None:
            return affine_terminal(builder, cur)
        vd_before = vector_degree(val)
        gamma = _axis_probe_translation(val)
        cur = builder.add_step(
            [(gamma, cur, -1), (None, cur, 1)],
            note=f"vd descent {vd_before}")
        require_vd_drop(vd_before, builder.value(cur))


# -- parabolic reduction ---------------------------------------------------------


def reduce_parabolic_ref(builder: CertBuilder, ref: str,
                         alpha: Endo | None = None,
                         note: str = "parabolic") -> str:
    """The base value is alpha (phi) alpha^{-1} for a parabolic special phi
    and a special linear map alpha, which is refused otherwise; conjugate
    back by alpha, recorded as one linear factor, and run the last-axis
    commutator reduction.  `note` opens the STEP note of the commutator."""
    val = builder.value(ref)
    _require_char_zero(val.field)
    field, n = val.field, val.nvars
    if val.is_identity():
        raise IdentityInput("parabolic input is the identity")
    cur = ref
    if alpha is not None:
        linear = linear_word(alpha)
        if linear is None:
            raise NotParabolic("conjugator must be special linear")
        cur = builder.add_step([(linear, ref, 1)],
                               note="SL part of the conjugator")
    w = builder.value(cur)
    if not is_parabolic(w):
        raise NotParabolic("value is not parabolic after SL conjugation")
    if triangular_parts(w) is not None:
        return reduce_triangular_ref(builder, cur)
    # last coordinate: a_n x_n + P_n; pick i < n with H_i != a_n x_i
    diag = tuple(1 if t == n - 1 else 0 for t in range(n))
    a_n = w.components[n - 1].coeff(diag)
    pick = None
    for i in range(1, n):
        xi = Polynomial.variable(field, n, i).scale(a_n)
        if w.components[i - 1] != xi:
            pick = i
            break
    if pick is None:
        raise InternalIdentityFailure(
            "parabolic map with scalar head components was not triangular")
    eps = elementary(field, n, n, Polynomial.variable(field, n, pick))
    q = w.components[pick - 1].scale(a_n.inv()) \
        - Polynomial.variable(field, n, pick)
    step = builder.add_step(
        [(eps, cur, -1), (None, cur, 1)],
        expect=elementary(field, n, n, q).expand(),
        note=f"{note} commutator with x{pick}")
    return reduce_triangular_ref(builder, step)
