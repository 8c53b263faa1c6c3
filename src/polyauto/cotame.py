"""Reduction engine for m-triangular special automorphisms (m <= 4) over
characteristic-zero fields, and the certification dispatcher.

The engines work on alternating normal forms alpha_0 tau_1 ... tau_m alpha_m
with every alpha_i linear of determinant 1 and every tau_i special lower
triangular.  Each move is a commutator with a conjugated axis translation
chosen by the probe; the collapse identities are recomputed and verified by
expansion before any step is recorded, and the vector degree of the pivot
triangular factor strictly decreases, which bounds the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .autos import (Elementary, Endo, ExpLND, FactoredAuto, Linear,
                    SignedPermutation, Translation, affine_parts, classify,
                    compose, dilation, invert_endo, jacobian_det, mat_det,
                    triangular_from_endo, triangular_parts, vector_degree)
from .certificates import KIND_COTAME, Certificate
from .errors import (IdentityInput, InternalIdentityFailure, NotAlternating,
                     NotSpecial, NotStructured, UnsupportedCharacteristic,
                     UnsupportedM)
from .fields import RATIONALS, Field
from .poly import DEFAULT_DEGREE_CAP, Polynomial
from .reduce_core import (CommutatorProbe, affine_terminal,
                          endo_translation_word, find_noncommuting_c,
                          parabolic_route, reduce_triangular_ref)
from .wordbuild import CertBuilder

__all__ = [
    "MTriangularForm", "normalize_m_triangular", "find_noncommuting_c",
    "CommutatorProbe", "certify_normally_cotame",
]


@dataclass
class MTriangularForm:
    """alpha_0 tau_1 alpha_1 ... tau_m alpha_m with alphas linear special
    and taus special triangular; expansion equals the original word."""
    alphas: List[Endo]
    taus: List[Endo]

    @property
    def m(self) -> int:
        return len(self.taus)

    def expand(self) -> Endo:
        out = self.alphas[0]
        for tau, alpha in zip(self.taus, self.alphas[1:]):
            out = compose(compose(out, tau), alpha)
        return out


def _word_pieces(word: FactoredAuto) -> List[Tuple[str, Endo]]:
    """Flatten a factored word to (kind, endo) pieces classified by the
    expanded value: affine values count toward the linear slots, so m counts
    only the genuinely nonlinear triangular factors.  Elementary factors
    that are not lower triangular are rewritten through a variable swap."""
    field, n = word.field, word.nvars
    pieces: List[Tuple[str, Endo]] = []
    for factor, exp in word.factors:
        if isinstance(factor, ExpLND):
            raise NotAlternating(
                "exponential factors are not m-triangular input")
        base = factor if exp == 1 else factor.inverted()
        val = base.expand()
        if affine_parts(val) is not None:
            pieces.append(("aff", val))
        elif triangular_parts(val) is not None:
            pieces.append(("tri", val))
        elif isinstance(base, Elementary):
            # relabel so the modified axis becomes the last variable
            perm = list(range(1, n + 1))
            perm[base.i - 1], perm[n - 1] = n, base.i
            sigma = SignedPermutation(field, n, tuple(perm),
                                      tuple([field.one] * n)).expand()
            middle = compose(compose(sigma, val), sigma)
            if triangular_parts(middle) is None:
                raise NotAlternating(
                    "elementary factor could not be made triangular")
            pieces.append(("aff", sigma))
            pieces.append(("tri", middle))
            pieces.append(("aff", sigma))
        else:
            raise NotStructured(f"unsupported factor {factor!r}")
    return pieces


def _is_df(phi: Endo) -> bool:
    flags = classify(phi)
    return flags.affine and flags.diagonal_affine


def _normalize_pieces(field: Field, n: int,
                      pieces: List[Tuple[str, Endo]]) -> MTriangularForm:
    """Right-to-left sweep with a diagonal-affine carry; see module docs."""
    ident = Endo.identity(field, n)
    one = field.one
    carry = ident  # always in Df
    slots: List[Tuple[str, Endo]] = []  # normalized suffix, in word order
    for kind, val in reversed(pieces):
        if kind == "tri":
            conj = compose(compose(invert_endo(carry), val), carry)
            parts = triangular_parts(conj)
            if parts is None:
                raise InternalIdentityFailure(
                    "diagonal-affine conjugate of a triangular map "
                    "was not triangular")
            scalars, _ = parts
            det = one
            for a in scalars:
                det = det * a
            diag_fix = dilation(field, n, 1, det).expand()
            tau_sp = compose(invert_endo(diag_fix), conj)
            carry = compose(carry, diag_fix)
            if not tau_sp.is_identity():
                slots.insert(0, ("tau", tau_sp))
        else:
            W = compose(val, carry)
            A, b = affine_parts(W)
            d = mat_det(field, A)
            lam = dilation(field, n, 1, d).expand()
            # W = T_b * L_A and A = Lambda * Msl (row scaling), so the Df
            # part T_b * L_Lambda moves into the carry
            msl_rows = [list(row) for row in A]
            for j in range(n):
                msl_rows[0][j] = msl_rows[0][j] / d
            msl = Linear(field, n, tuple(map(tuple, msl_rows))).expand()
            carry = compose(Translation(field, n, b).expand(), lam)
            if not msl.is_identity():
                slots.insert(0, ("alpha", msl))
    # fold the remaining Df carry into the suffix
    A, b = affine_parts(carry)
    d = mat_det(field, A)
    if not d.is_one():
        raise NotSpecial("input word is not special")
    lam = Linear(field, n, A).expand()
    tr_vec = _solve_leading_translation(field, n, A, b)
    if any(not x.is_zero() for x in tr_vec):
        # carry = T_b * L_A = L_A * T_{A^{-1}b}; absorb the right-hand
        # translation into the first tau before prepending the linear part
        tr = Translation(field, n, tr_vec).expand()
        _absorb_translation(field, n, slots, tr)
    if not lam.is_identity():
        slots.insert(0, ("alpha", lam))
    return _assemble(field, n, slots, pieces)


def _solve_leading_translation(field, n, A, b):
    """carry = T_b * L_A = L_A * T_c with c = A^{-1} b."""
    from .autos import mat_inv
    Ainv = mat_inv(field, A)
    return tuple(sum((Ainv[i][j] * b[j] for j in range(n)), field.zero)
                 for i in range(n))


def _absorb_translation(field, n, slots, tr: Endo):
    """Insert a trailing-position translation into the first tau slot,
    pushing it through leading alpha slots."""
    idx = 0
    cur = tr
    while idx < len(slots) and slots[idx][0] == "alpha":
        alpha = slots[idx][1]
        cur = compose(compose(invert_endo(alpha), cur), alpha)
        if not classify(cur).translation:
            raise InternalIdentityFailure(
                "translation stopped being a translation under "
                "linear conjugation")
        idx += 1
    if idx == len(slots):
        slots.append(("tau", cur))
    else:
        slots[idx] = ("tau", compose(cur, slots[idx][1]))


def _assemble(field, n, slots, pieces) -> MTriangularForm:
    ident = Endo.identity(field, n)
    alphas = [ident]
    taus: List[Endo] = []
    for kind, val in slots:
        if kind == "alpha":
            alphas[-1] = compose(alphas[-1], val)
        else:
            taus.append(val)
            alphas.append(ident)
    # merge out taus that are diagonal-affine by re-normalizing
    for i, tau in enumerate(taus):
        if _is_df(tau) and len(taus) > 1:
            new_pieces: List[Tuple[str, Endo]] = []
            for j, a in enumerate(alphas):
                if j > 0:
                    kind = "aff" if _is_df(taus[j - 1]) else "tri"
                    new_pieces.append((kind, taus[j - 1]))
                new_pieces.append(("aff", a))
            return _normalize_pieces(field, n, new_pieces)
    form = MTriangularForm(alphas, taus)
    expected = ident
    for kind, val in pieces:
        expected = compose(expected, val)
    if form.expand() != expected:
        raise InternalIdentityFailure("normal form does not expand to input")
    for a in alphas:
        parts = affine_parts(a)
        if parts is None or any(not x.is_zero() for x in parts[1]) \
                or not mat_det(field, parts[0]).is_one():
            raise InternalIdentityFailure("alpha slot is not linear special")
    for t in taus:
        tp = triangular_parts(t)
        if tp is None:
            raise InternalIdentityFailure("tau slot is not triangular")
        det = field.one
        for a in tp[0]:
            det = det * a
        if not det.is_one():
            raise InternalIdentityFailure("tau slot is not special")
    return form


def normalize_m_triangular(word: FactoredAuto) -> MTriangularForm:
    """Alternating normal form of a word of affine/triangular factors."""
    val = word.expand()
    if jacobian_det(val) != Polynomial.one(word.field, word.nvars):
        raise NotSpecial("word is not special")
    pieces = _word_pieces(word)
    if not pieces:
        pieces = [("aff", Endo.identity(word.field, word.nvars))]
    return _normalize_pieces(word.field, word.nvars, pieces)


# -- words for engine conjugators ------------------------------------------------


def _linear_word(field, n, endo: Endo) -> FactoredAuto:
    A, b = affine_parts(endo)
    if any(not x.is_zero() for x in b):
        raise InternalIdentityFailure("expected a linear map")
    return FactoredAuto(field, n, [Linear(field, n, A)])


def _triangular_word(field, n, endo: Endo) -> FactoredAuto:
    return FactoredAuto(field, n, [triangular_from_endo(endo)])


# -- the engines -----------------------------------------------------------------


def _engine_m1(builder, ref, form: MTriangularForm) -> str:
    """phi = alpha_0 tau_1 alpha_1: kill the trailing linear piece, then
    either the map is triangular or one probe produces a translation."""
    field, n = builder.field, builder.nvars
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=True)
    beta0, tau1 = form.alphas[0], form.taus[0]
    val = builder.value(cur)
    if classify(val).triangular:
        return reduce_triangular_ref(builder, cur)
    beta0_word = _linear_word(field, n, beta0)
    probe = find_noncommuting_c(val, beta0_word, n)
    if probe.c is None:
        return parabolic_route(builder, cur, probe)
    gamma_word = endo_translation_word(probe.gamma)
    # gamma^{-1} phi^{-1} gamma phi = gamma^{-1} tau1^{-1} eps tau1, a translation
    eps = probe.eps.expand()
    predicted = compose(
        invert_endo(probe.gamma),
        compose(compose(invert_endo(tau1), eps), tau1))
    if not classify(predicted).translation:
        raise InternalIdentityFailure("m=1 collapse is not a translation")
    step = builder.add_step(
        [(gamma_word, cur, -1), (None, cur, 1)],
        expect=predicted, note=f"m=1 collapse c={probe.c}")
    return affine_terminal(builder, step)


def _absorb_linear_slot(builder, ref, form: MTriangularForm, trailing: bool):
    """Conjugate by the leading linear slot, or by the inverse of the
    trailing one, so the word starts with tau_1 or ends in tau_m."""
    field, n = builder.field, builder.nvars
    a = form.alphas[-1 if trailing else 0]
    if a.is_identity():
        return ref, form
    word = _linear_word(field, n, a)
    side = "trailing" if trailing else "leading"
    # a phi a^{-1} = conj(phi, a^{-1}) and a^{-1} phi a = conj(phi, a)
    new = builder.add_step([(word.inverse() if trailing else word, ref, 1)],
                           note=f"absorb {side} linear slot")
    ident = Endo.identity(field, n)
    alphas = list(form.alphas)
    if trailing:
        alphas[0], alphas[-1] = compose(a, alphas[0]), ident
    else:
        alphas[0], alphas[-1] = ident, compose(alphas[-1], a)
    new_form = MTriangularForm(alphas, list(form.taus))
    if new_form.expand() != builder.value(new):
        raise InternalIdentityFailure(f"{side}-slot absorption failed")
    return new, new_form


def _engine_m2(builder, ref, form: MTriangularForm) -> str:
    field, n = builder.field, builder.nvars
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=True)
    beta0 = form.alphas[0]
    tau1, tau2 = form.taus
    alpha1 = form.alphas[1]
    val = builder.value(cur)
    beta0_word = _linear_word(field, n, beta0)
    probe = find_noncommuting_c(val, beta0_word, n)
    if probe.c is None:
        return parabolic_route(builder, cur, probe)
    eps = probe.eps.expand()
    passed = compose(compose(invert_endo(tau1), eps), tau1)
    if not classify(passed).translation:
        raise InternalIdentityFailure("axis translation failed to pass tau1")
    gamma2 = compose(compose(invert_endo(alpha1), passed), alpha1)
    predicted = compose(
        invert_endo(probe.gamma),
        compose(compose(invert_endo(tau2), gamma2), tau2))
    if triangular_parts(predicted) is None:
        raise InternalIdentityFailure("m=2 collapse is not triangular")
    gamma_word = endo_translation_word(probe.gamma)
    step = builder.add_step(
        [(gamma_word, cur, -1), (None, cur, 1)],
        expect=predicted, note=f"m=2 collapse c={probe.c}")
    return reduce_triangular_ref(builder, step)


def _engine_m3(builder, ref, form: MTriangularForm) -> str:
    field, n = builder.field, builder.nvars
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=True)
    while True:
        beta0 = form.alphas[0]
        tau1, tau2, tau3 = form.taus
        alpha1, alpha2 = form.alphas[1], form.alphas[2]
        if _is_df(tau2):
            # middle collapses to an affine slot: the word is 2-triangular
            mid = compose(compose(alpha1, tau2), alpha2)
            pieces = [("aff", beta0), ("tri", tau1), ("aff", mid),
                      ("tri", tau3)]
            sub = _normalize_pieces(field, n, pieces)
            return _dispatch_form(builder, cur, sub)
        val = builder.value(cur)
        beta0_word = _linear_word(field, n, beta0)
        probe = find_noncommuting_c(val, beta0_word, n)
        if probe.c is None:
            return parabolic_route(builder, cur, probe)
        eps = probe.eps.expand()
        passed = compose(compose(invert_endo(tau1), eps), tau1)
        gamma2 = compose(compose(invert_endo(alpha1), passed), alpha1)
        if not classify(gamma2).translation:
            raise InternalIdentityFailure("m=3 inner translation failed")
        tau2_new = compose(compose(invert_endo(tau2), gamma2), tau2)
        vd_before = vector_degree(tau2)
        vd_after = vector_degree(tau2_new)
        if not vd_after < vd_before:
            raise InternalIdentityFailure(
                f"m=3 pivot vector degree did not drop: "
                f"{vd_before} -> {vd_after}")
        tau1_new = compose(invert_endo(probe.gamma), invert_endo(tau3))
        predicted = compose(
            compose(compose(compose(tau1_new, invert_endo(alpha2)), tau2_new),
                    alpha2), tau3)
        gamma_word = endo_translation_word(probe.gamma)
        step = builder.add_step(
            [(gamma_word, cur, -1), (None, cur, 1)],
            expect=predicted, note=f"m=3 descent c={probe.c}")
        cur = step
        form = MTriangularForm(
            [Endo.identity(field, n), invert_endo(alpha2), alpha2,
             Endo.identity(field, n)],
            [tau1_new, tau2_new, tau3])
        if form.expand() != builder.value(cur):
            raise InternalIdentityFailure("m=3 re-forming failed")


def _engine_m4(builder, ref, form: MTriangularForm) -> str:
    field, n = builder.field, builder.nvars
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=False)
    tau1, tau2, tau3, tau4 = form.taus
    alpha1, alpha2, alpha3, alpha4 = form.alphas[1:]
    val = builder.value(cur)
    # symmetrization probe: gamma = alpha4^{-1} eps_{n,c} alpha4
    alpha4_word = _linear_word(field, n, alpha4)
    probe = find_noncommuting_c(val, alpha4_word.inverse(), n)
    if probe.c is None:
        return parabolic_route(builder, cur, probe)
    eps_inv = probe.eps.inverse().expand()
    eps_prime = compose(compose(tau4, eps_inv), invert_endo(tau4))
    if not classify(eps_prime).translation:
        raise InternalIdentityFailure("m=4 pass-through failed")
    tr3 = compose(compose(alpha3, eps_prime), invert_endo(alpha3))
    tau3_new = compose(compose(tau3, tr3), invert_endo(tau3))
    predicted = probe.gamma
    for piece in (tau1, alpha1, tau2, alpha2, tau3_new,
                  invert_endo(alpha2), invert_endo(tau2),
                  invert_endo(alpha1), invert_endo(tau1)):
        predicted = compose(predicted, piece)
    gamma_word = endo_translation_word(probe.gamma)
    step = builder.add_step(
        [(gamma_word.inverse(), cur, 1), (None, cur, -1)],
        expect=predicted, note=f"m=4 symmetrization c={probe.c}")
    # conjugate by tau1
    tau1_word = _triangular_word(field, n, tau1)
    sym = builder.add_step([(tau1_word, step, 1)],
                           note="shift the leading triangular factor")
    sigma1 = compose(compose(invert_endo(tau1), probe.gamma), tau1)
    expected = sigma1
    for piece in (alpha1, tau2, alpha2, tau3_new, invert_endo(alpha2),
                  invert_endo(tau2), invert_endo(alpha1)):
        expected = compose(expected, piece)
    if builder.value(sym) != expected:
        raise InternalIdentityFailure("m=4 symmetric form failed")
    return _engine_m4_symmetric(builder, sym, sigma1, alpha1, tau2, alpha2,
                                tau3_new)


def _engine_m4_symmetric(builder, cur, sigma1, beta1, sigma2, beta2,
                         sigma3) -> str:
    """psi = sigma1 beta1 sigma2 beta2 sigma3 beta2^{-1} sigma2^{-1} beta1^{-1},
    induction on vd(sigma3)."""
    field, n = builder.field, builder.nvars
    while True:
        if _is_df(sigma3):
            mid = compose(compose(beta2, sigma3), invert_endo(beta2))
            pieces = [("tri", sigma1), ("aff", beta1), ("tri", sigma2),
                      ("aff", mid), ("tri", invert_endo(sigma2)),
                      ("aff", invert_endo(beta1))]
            sub = _normalize_pieces(field, n, pieces)
            return _dispatch_form(builder, cur, sub)
        val = builder.value(cur)
        beta1_word = _linear_word(field, n, beta1)
        probe = find_noncommuting_c(val, beta1_word, n)
        if probe.c is None:
            return parabolic_route(builder, cur, probe)
        eps = probe.eps.expand()
        eps2 = compose(compose(invert_endo(sigma2), eps), sigma2)
        if not classify(eps2).translation:
            raise InternalIdentityFailure("m=4 inner pass-through failed")
        tr = compose(compose(invert_endo(beta2), eps2), beta2)
        sigma3_new = compose(compose(sigma3, tr), invert_endo(sigma3))
        vd_before = vector_degree(sigma3)
        vd_after = vector_degree(sigma3_new)
        if not vd_after < vd_before:
            raise InternalIdentityFailure(
                f"m=4 pivot vector degree did not drop: "
                f"{vd_before} -> {vd_after}")
        gamma_word = endo_translation_word(probe.gamma)
        predicted = compose(invert_endo(probe.gamma), sigma1)
        for piece in (beta1, sigma2, beta2, sigma3_new, invert_endo(beta2),
                      invert_endo(sigma2), invert_endo(beta1),
                      invert_endo(sigma1)):
            predicted = compose(predicted, piece)
        step = builder.add_step(
            [(gamma_word, cur, 1), (None, cur, -1)],
            expect=predicted, note=f"m=4 descent c={probe.c}")
        sigma1_word = _triangular_word(field, n, sigma1)
        new = builder.add_step([(sigma1_word, step, 1)],
                               note="re-center the symmetric form")
        sigma1_new = compose(compose(invert_endo(sigma1),
                                     invert_endo(probe.gamma)), sigma1)
        expected = sigma1_new
        for piece in (beta1, sigma2, beta2, sigma3_new, invert_endo(beta2),
                      invert_endo(sigma2), invert_endo(beta1)):
            expected = compose(expected, piece)
        if builder.value(new) != expected:
            raise InternalIdentityFailure("m=4 re-centering failed")
        cur = new
        sigma1, sigma3 = sigma1_new, sigma3_new


def _dispatch_form(builder, ref, form: MTriangularForm) -> str:
    """Run the engine for form.m; the caller has checked m <= 4."""
    m = form.m
    if m == 0:
        return affine_terminal(builder, ref)
    if m == 1:
        return _engine_m1(builder, ref, form)
    if m == 2:
        return _engine_m2(builder, ref, form)
    if m == 3:
        return _engine_m3(builder, ref, form)
    return _engine_m4(builder, ref, form)


# -- public surface ---------------------------------------------------------------


def certify_normally_cotame(word: FactoredAuto, cap=None) -> Certificate:
    """The certification entry point: route a factored special automorphism
    to the applicable reduction (triangular descent, the m-triangular
    engines for m <= 4, or the exponential chain) and return the finished
    certificate."""
    field, n = word.field, word.nvars
    if field.kind != RATIONALS:
        raise UnsupportedCharacteristic(
            "certification works in characteristic zero")
    val = word.expand()
    if jacobian_det(val) != Polynomial.one(field, n):
        raise NotSpecial("input is not special (Jacobian determinant != 1)")
    if val.is_identity():
        raise IdentityInput("input is the identity")
    builder = CertBuilder(field, n, KIND_COTAME,
                          cap=cap or DEFAULT_DEGREE_CAP)
    exp_positions = [t for t, (f, _) in enumerate(word.factors)
                     if isinstance(f, ExpLND)]
    if exp_positions:
        if len(exp_positions) > 1 or exp_positions[0] != len(word.factors) - 1:
            raise NotStructured(
                "exponential input must be a single trailing Exp factor")
        factor, exp = word.factors[-1]
        F = factor.F if exp == 1 else -factor.F
        D = factor.D
        prefix = FactoredAuto(field, n, word.factors[:-1])
        tau_word, alpha_word = _split_tau_alpha(prefix)
        seed = builder.add_seed(word, label="theta")
        terminal = _route_exp(builder, seed, tau_word, alpha_word, F, D)
        path = "exponential" if tau_word.is_identity_word() \
            and alpha_word.is_identity_word() else "triangular-exponential"
        cite = "exponential-reduction"
    elif classify(val).triangular:
        seed = builder.add_seed(word, label="theta")
        terminal = reduce_triangular_ref(builder, seed)
        path, cite = "triangular", "triangular-descent"
    else:
        form = normalize_m_triangular(word)
        if form.m > 4:
            raise UnsupportedM(f"m = {form.m} > 4 is not supported")
        seed = builder.add_seed(word, label="theta")
        terminal = _dispatch_form(builder, seed, form)
        path, cite = f"m-triangular-{form.m}", "m-triangular-reduction"
    builder.meta["path"] = path
    return builder.to_certificate(terminal, cite=cite)


def _route_exp(builder, seed, tau_word, alpha_word, F, D):
    from .lnd import reduce_exponential_ref, reduce_triangular_exponential_ref
    tau = tau_word.expand()
    alpha = alpha_word.expand()
    if tau.is_identity() and alpha.is_identity():
        return reduce_exponential_ref(builder, seed, F, D)
    return reduce_triangular_exponential_ref(builder, seed, tau, alpha, F, D)


def _split_tau_alpha(prefix: FactoredAuto):
    """Split the non-exponential prefix into a triangular part followed by a
    linear part; raises when the factors interleave the wrong way."""
    field, n = prefix.field, prefix.nvars
    tau_factors = []
    alpha_factors = []
    phase = "tau"
    for factor, exp in prefix.factors:
        base = factor if exp == 1 else factor.inverted()
        val = base.expand()
        tri = triangular_parts(val) is not None
        parts = affine_parts(val)
        lin = parts is not None
        if phase == "tau" and tri:
            tau_factors.append((factor, exp))
        elif lin:
            phase = "alpha"
            alpha_factors.append((factor, exp))
        else:
            raise NotStructured(
                "prefix of an exponential word must be triangular factors "
                "followed by affine factors")
    alpha_word = FactoredAuto(field, n, alpha_factors)
    alpha_val = alpha_word.expand()
    aparts = affine_parts(alpha_val)
    if aparts is None:
        raise NotStructured("affine prefix part is not affine")
    A, b = aparts
    if any(not x.is_zero() for x in b):
        # fold the translation part into tau: alpha = T_b L_A,
        # tau' = tau * T_b stays triangular
        tau_factors = tau_factors + [(Translation(field, n, b), 1)]
        alpha_factors = [(Linear(field, n, A), 1)]
        alpha_word = FactoredAuto(field, n, alpha_factors)
    tau_word = FactoredAuto(field, n, tau_factors)
    if triangular_parts(tau_word.expand()) is None:
        raise NotStructured("triangular prefix part is not triangular")
    return tau_word, alpha_word
