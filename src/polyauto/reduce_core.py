"""Shared reduction machinery for the characteristic-zero engines: the
commutator probe and its parabolic witness route, the translation pass and
the vector-degree drop check, the triangular descent, the parabolic
last-axis commutator, and the affine terminal chain.

These are the only copies of the reduction moves; the m-triangular engine
(cotame) and the exponential engine (lnd) call them.  The functions append
verified steps to a CertBuilder and return the label of the step holding
the nontrivial elementary terminal.
"""

from __future__ import annotations

from functools import reduce

from .autos import (Endo, FactoredAuto, Linear, affine_parts, compose,
                    elementary, elementary_parts, is_parabolic, is_translation,
                    signed_swap, translation, triangular_parts, vector_degree)
from .errors import (IdentityInput, InternalIdentityFailure, NotParabolic,
                     NotTriangular, UnsupportedCharacteristic)
from .fields import RATIONALS, Field
from .poly import Polynomial
from .record import Record
from .translations import (translation_from_any,
                           translation_from_special_affine)
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


class CommutatorProbe(Record):
    __slots__ = ("alpha", "k", "bound", "c", "eps", "gamma")

    def __init__(self, alpha: FactoredAuto | None, k: int, bound: int,
                 c: int | None = None, eps: FactoredAuto | None = None,
                 gamma: Endo | None = None):
        self.alpha = alpha
        self.k = k
        self.bound = bound
        self.c = c          # None: every c in 1..bound commutes
        self.eps = eps      # eps_{k,c}, its expansion cached
        self.gamma = gamma  # the translation alpha eps_{k,c} alpha^{-1}


def find_noncommuting_c(phi: Endo, alpha: FactoredAuto | None,
                        k: int) -> CommutatorProbe:
    """Search c = 1..B, B = max(largest per-variable degree of phi + 1, 2),
    for a conjugated axis translation that fails to commute with phi;
    soundness of the bound comes from the entries of the
    commutator being polynomials of degree < B in c, so vanishing at B
    points forces vanishing identically.

    When every c commutes the probe comes back with c = None; then
    `parabolic_witness` conjugates phi to a parabolic map.
    """
    field = phi.field
    _require_char_zero(field)
    n = phi.nvars
    B = max(max_var_degree(phi) + 1, 2)
    alpha_val = alpha.expand() if alpha is not None else None
    alpha_inv = alpha.inverse().expand() if alpha is not None else None
    for c in range(1, B + 1):
        eps = elementary(field, n, k, field.from_int(c))
        gamma = eps.expand()
        if alpha_val is not None:
            gamma = reduce(compose, (alpha_val, gamma, alpha_inv))
        if compose(gamma, phi) != compose(phi, gamma):
            return CommutatorProbe(alpha, k, B, c=c, eps=eps, gamma=gamma)
    return CommutatorProbe(alpha, k, B)


def parabolic_witness(phi: Endo, probe: CommutatorProbe) -> FactoredAuto:
    """For an exhausted probe, pi in SL_n with pi (alpha^{-1} phi alpha)
    pi^{-1} parabolic: the signed swap pushing axis k to the last slot."""
    field, n = phi.field, phi.nvars
    psi = phi
    if probe.alpha is not None:
        psi = reduce(compose, (probe.alpha.inverse().expand(), phi,
                               probe.alpha.expand()))
    pi = _parabolic_normalizer(field, n, probe.k)
    conj_val = reduce(compose, (pi.expand(), psi, pi.inverse().expand()))
    if not is_parabolic(conj_val):
        raise InternalIdentityFailure(
            "probe exhausted but the parabolic witness failed; "
            "the degree bound argument was violated")
    return pi


def parabolic_route(builder: CertBuilder, ref: str,
                    probe: CommutatorProbe) -> str:
    """The probe on `ref` is exhausted, so with pi its parabolic witness
    phi = (alpha pi^{-1}) P (alpha pi^{-1})^{-1}; reduce P."""
    pi = parabolic_witness(builder.value(ref), probe)
    alpha = probe.alpha or FactoredAuto.identity(builder.field, builder.nvars)
    return reduce_parabolic_ref(builder, ref, alpha * pi.inverse())


def _parabolic_normalizer(field: Field, n: int, k: int) -> FactoredAuto:
    """pi = (-x_1, x_2, ...) composed with the swap x_k <-> x_n; identity
    when k = n (the commuting conditions already give the parabolic shape)."""
    if k == n:
        return FactoredAuto.identity(field, n)
    return signed_swap(field, n, k, n, -field.one)


def endo_translation_word(gamma: Endo) -> FactoredAuto:
    """Exact factored form of a translation value."""
    parts = affine_parts(gamma)
    if parts is None:
        raise NotTriangular("not a translation")
    A, b = parts
    return translation(gamma.field, gamma.nvars, b)


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
        if probe.c is not None:
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
                         alpha: FactoredAuto | None = None,
                         note: str = "parabolic") -> str:
    """The base value is alpha (phi) alpha^{-1} for a parabolic special phi
    and a special linear alpha, which is refused otherwise; conjugate back
    by alpha, recorded as one linear factor, and run the last-axis
    commutator reduction.  `note` opens the STEP note of the commutator."""
    val = builder.value(ref)
    _require_char_zero(val.field)
    field, n = val.field, val.nvars
    if val.is_identity():
        raise IdentityInput("parabolic input is the identity")
    cur = ref
    if alpha is not None and alpha.factors:
        parts = affine_parts(alpha.expand())
        if parts is None or any(not b.is_zero() for b in parts[1]) \
                or not alpha.det().is_one():
            raise NotParabolic("conjugator must be special linear")
        linear = FactoredAuto(field, n, [Linear(field, n, parts[0])])
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
