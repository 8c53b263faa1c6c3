"""Reduction engine for m-triangular special automorphisms (m <= 4) over
characteristic-zero fields, and the certification dispatcher.

The engines work on alternating normal forms alpha_0 tau_1 ... tau_m alpha_m
with every alpha_i linear of determinant 1 and every tau_i special lower
triangular.  Each move is a commutator with a conjugated axis translation
chosen by the probe and passed through the leading slots: it collapses the
word for m <= 2, and for m = 3, 4 lowers the vector degree of a pivot
triangular factor, which bounds the recursion, until the pivot is
diagonal-affine.  The collapse identities are recomputed and verified by
expansion before any step is recorded.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import prod

from .autos import (Elementary, Endo, FactoredAuto, Linear, Translation,
                    affine_parts, compose, dilation, invert_endo, mat_det,
                    signed_swap, triangular_from_endo, triangular_parts,
                    vector_degree)
from .errors import (IdentityInput, InternalIdentityFailure, NotAlternating,
                     NotSpecial, NotStructured, UnsupportedCharacteristic,
                     UnsupportedM)
from .fields import RATIONALS, Field
from .maps import ExpLND
from .nct import KIND_COTAME, Certificate
from .poly import DEFAULT_DEGREE_CAP
from .record import Record
from .reduce_core import (affine_terminal, endo_translation_word,
                          find_noncommuting_c, parabolic_route,
                          reduce_triangular_ref, require_vd_drop,
                          translation_pass)
from .wordbuild import CertBuilder

__all__ = [
    "MTriangularForm", "normalize_m_triangular", "find_noncommuting_c",
    "certify_normally_cotame",
]


class MTriangularForm(Record):
    """alpha_0 tau_1 alpha_1 ... tau_m alpha_m with alphas linear special
    and taus special triangular; expansion equals the original word."""
    __slots__ = ("alphas", "taus")

    def __init__(self, alphas: list[Endo], taus: list[Endo]):
        self.alphas = alphas
        self.taus = taus

    @property
    def m(self) -> int:
        return len(self.taus)

    def expand(self) -> Endo:
        return reduce(compose, chain.from_iterable(
            zip(self.taus, self.alphas[1:])), self.alphas[0])


def _word_pieces(word: FactoredAuto) -> list[tuple[str, Endo]]:
    """Flatten a factored word to (kind, endo) pieces classified by the
    expanded value: affine values count toward the linear slots, so m counts
    only the genuinely nonlinear triangular factors.  Elementary factors
    that are not lower triangular are rewritten through a variable swap."""
    field, n = word.field, word.nvars
    pieces: list[tuple[str, Endo]] = []
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
            sigma = signed_swap(field, n, base.i, n, field.one).expand()
            middle = reduce(compose, (sigma, val, sigma))
            if triangular_parts(middle) is None:
                raise NotAlternating(
                    "elementary factor could not be made triangular")
            pieces.append(("aff", sigma))
            pieces.append(("tri", middle))
            pieces.append(("aff", sigma))
        else:
            raise NotStructured(f"unsupported factor {factor!r}")
    return pieces


def _normalize_pieces(field: Field, n: int,
                      pieces: list[tuple[str, Endo]]) -> MTriangularForm:
    """Right-to-left sweep with a diagonal-affine carry; see module docs."""
    carry = Endo.identity(field, n)  # always in Df
    slots: list[tuple[str, Endo]] = []  # normalized suffix, in word order
    for kind, val in reversed(pieces):
        plain = carry.is_identity()  # no conjugation by the identity
        if kind == "tri":
            conj = val if plain else reduce(
                compose, (invert_endo(carry), val, carry))
            parts = triangular_parts(conj)
            if parts is None:
                raise InternalIdentityFailure(
                    "diagonal-affine conjugate of a triangular map "
                    "was not triangular")
            det = prod(parts[0], start=field.one)
            tau_sp = conj
            if not det.is_one():
                diag_fix = dilation(field, n, 1, det).expand()
                tau_sp = compose(invert_endo(diag_fix), conj)
                carry = compose(carry, diag_fix)
            if not tau_sp.is_identity():
                slots.insert(0, ("tau", tau_sp))
        else:
            W = val if plain else compose(val, carry)
            A, b = affine_parts(W)
            d = mat_det(field, A)
            carry = Translation(field, n, b).expand()
            if not d.is_one():
                # W = T_b * L_A and A = Lambda * Msl (row scaling), so the
                # Df part T_b * L_Lambda moves into the carry
                A = (tuple(x / d for x in A[0]),) + A[1:]
                carry = compose(carry, dilation(field, n, 1, d).expand())
            msl = Linear(field, n, A).expand()
            if not msl.is_identity():
                slots.insert(0, ("alpha", msl))
    # the word is special and every slot has determinant 1, so the carry is
    # a translation: it passes the leading alpha slots into the first tau
    if not carry.is_identity():
        idx = next((i for i, (kind, _) in enumerate(slots)
                    if kind != "alpha"), len(slots))
        cur = translation_pass(carry, [(invert_endo(a), a)
                                       for _, a in slots[:idx]])
        if idx == len(slots):
            slots.append(("tau", cur))
        else:
            slots[idx] = ("tau", compose(cur, slots[idx][1]))
    return _assemble(field, n, slots, pieces)


def _product(field, n, endos) -> Endo:
    """e_1 * ... * e_k, started at e_1; the identity when there is none."""
    return reduce(compose, endos) if endos else Endo.identity(field, n)


def _assemble(field, n, slots, pieces) -> MTriangularForm:
    runs: list[list[Endo]] = [[]]  # the alpha slots between the taus
    taus: list[Endo] = []
    for kind, val in slots:
        if kind == "alpha":
            runs[-1].append(val)
        else:
            taus.append(val)
            runs.append([])
    alphas = [_product(field, n, run) for run in runs]
    # re-normalize away taus that are diagonal affine (vector degree zero)
    if len(taus) > 1 and not all(any(vector_degree(t)) for t in taus):
        new_pieces = [("aff", alphas[0])]
        for tau, a in zip(taus, alphas[1:]):
            kind = "tri" if any(vector_degree(tau)) else "aff"
            new_pieces += [(kind, tau), ("aff", a)]
        return _normalize_pieces(field, n, new_pieces)
    form = MTriangularForm(alphas, taus)
    if form.expand() != reduce(compose, (val for _, val in pieces)):
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
        if not prod(tp[0], start=field.one).is_one():
            raise InternalIdentityFailure("tau slot is not special")
    return form


def normalize_m_triangular(word: FactoredAuto) -> MTriangularForm:
    """Alternating normal form of a word of affine/triangular factors."""
    if not word.det().is_one():
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


# -- the engines -----------------------------------------------------------------


def _engine_collapse(builder, ref, form: MTriangularForm) -> str:
    """m <= 2, phi = beta0 tau1 [alpha1 tau2] once the trailing linear slot
    is absorbed.  A triangular m = 1 map descends directly.  Otherwise one
    probe gamma = beta0 eps beta0^{-1} collapses the commutator
    gamma^{-1} phi^{-1} gamma phi = gamma^{-1} tau_m^{-1} ... eps ... tau_m:
    eps passes tau1 (and alpha1) as a translation, so the value is a
    translation for m = 1 and triangular for m = 2, and the triangular
    descent finishes."""
    field, n, m = builder.field, builder.nvars, form.m
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=True)
    val = builder.value(cur)
    if m == 1 and triangular_parts(val) is not None:
        return reduce_triangular_ref(builder, cur)
    probe = find_noncommuting_c(val, _linear_word(field, n, form.alphas[0]),
                                n)
    if probe.c is None:
        return parabolic_route(builder, cur, probe)
    # eps passes tau1 and the linear slots before tau_m (alpha1 when m = 2)
    # as a translation; the later taus (tau2 when m = 2) conjugate it to a
    # triangular map
    passed = translation_pass(probe.eps.expand(), [
        (invert_endo(g), g) for g in [form.taus[0], *form.alphas[1:m]]])
    for tau in form.taus[1:]:
        passed = reduce(compose, (invert_endo(tau), passed, tau))
    predicted = compose(invert_endo(probe.gamma), passed)
    if triangular_parts(predicted) is None:
        raise InternalIdentityFailure(f"m={m} collapse is not triangular")
    step = builder.add_step(
        [(endo_translation_word(probe.gamma), cur, -1), (None, cur, 1)],
        expect=predicted, note=f"m={m} collapse c={probe.c}")
    return reduce_triangular_ref(builder, step)


def _absorb_linear_slot(builder, ref, form: MTriangularForm, trailing: bool):
    """Conjugate by the leading linear slot, or by the inverse of the
    trailing one, so the word starts with tau_1 or ends in tau_m."""
    field, n = builder.field, builder.nvars
    a = form.alphas[-1 if trailing else 0]
    if a.is_identity():
        return ref, form
    word = _linear_word(field, n, a)
    side = "trailing" if trailing else "leading"
    ident = Endo.identity(field, n)
    alphas = list(form.alphas)
    if trailing:
        alphas[0], alphas[-1] = compose(a, alphas[0]), ident
    else:
        alphas[0], alphas[-1] = ident, compose(alphas[-1], a)
    new_form = MTriangularForm(alphas, list(form.taus))
    # a phi a^{-1} = conj(phi, a^{-1}) and a^{-1} phi a = conj(phi, a)
    new = builder.add_step([(word.inverse() if trailing else word, ref, 1)],
                           expect=new_form.expand(),
                           note=f"absorb {side} linear slot")
    return new, new_form


def _drop_diagonal_pivot(builder, ref, head, middle, tail) -> str:
    """The pivot turned diagonal-affine, so it and the linear slots around it
    (`middle`, in word order) fold into one affine slot: normalise the
    shorter word head + [that slot] + tail, given as (kind, endo) pieces,
    and run its engine."""
    pieces = head + [("aff", reduce(compose, middle))] + tail
    sub = _normalize_pieces(builder.field, builder.nvars, pieces)
    return _dispatch_form(builder, ref, sub)


def _engine_m3(builder, ref, form: MTriangularForm) -> str:
    """phi = beta0 tau1 alpha1 tau2 alpha2 tau3, induction on vd(tau2): the
    probe's eps passes tau1 and alpha1, the pivot tau2 is conjugated by that
    translation, and the commutator re-forms as
    (gamma^{-1} tau3^{-1}) alpha2^{-1} tau2' alpha2 tau3 with vd(tau2') <
    vd(tau2), until tau2 is diagonal-affine and m drops."""
    field, n = builder.field, builder.nvars
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=True)
    # alpha2 and tau3 stay in place across the descent; alpha1 becomes
    # alpha2^{-1} after the first step
    alpha2, tau3 = form.alphas[2], form.taus[2]
    alpha2_inv, tau3_inv = invert_endo(alpha2), invert_endo(tau3)
    alpha1_inv = invert_endo(form.alphas[1])
    ident = Endo.identity(field, n)
    while True:
        beta0, alpha1 = form.alphas[0], form.alphas[1]
        tau1, tau2 = form.taus[0], form.taus[1]
        vd = vector_degree(tau2)
        if not any(vd):
            return _drop_diagonal_pivot(
                builder, cur, [("aff", beta0), ("tri", tau1)],
                (alpha1, tau2, alpha2), [("tri", tau3)])
        probe = find_noncommuting_c(builder.value(cur),
                                    _linear_word(field, n, beta0), n)
        if probe.c is None:
            return parabolic_route(builder, cur, probe)
        gamma2 = translation_pass(probe.eps.expand(), [
            (invert_endo(tau1), tau1), (alpha1_inv, alpha1)])
        tau2_new = reduce(compose, (invert_endo(tau2), gamma2, tau2))
        require_vd_drop(vd, tau2_new, "m=3 pivot vector degree")
        tau1_new = compose(invert_endo(probe.gamma), tau3_inv)
        form = MTriangularForm([ident, alpha2_inv, alpha2, ident],
                               [tau1_new, tau2_new, tau3])
        cur = builder.add_step(
            [(endo_translation_word(probe.gamma), cur, -1), (None, cur, 1)],
            expect=form.expand(), note=f"m=3 descent c={probe.c}")
        alpha1_inv = alpha2


def _engine_m4(builder, ref, form: MTriangularForm) -> str:
    """phi = tau1 alpha1 tau2 alpha2 tau3 alpha3 tau4 alpha4 after the
    leading linear slot is absorbed.  The probe gamma = alpha4^{-1} eps
    alpha4 passes tau4 and alpha3 from the right, and the commutator
    conjugated by tau1 is the symmetric form
    sigma1 alpha1 tau2 alpha2 tau3' alpha2^{-1} tau2^{-1} alpha1^{-1} that
    _engine_m4_symmetric reduces."""
    field, n = builder.field, builder.nvars
    cur, form = _absorb_linear_slot(builder, ref, form, trailing=False)
    tau1, tau2, tau3, tau4 = form.taus
    alpha1, alpha2, alpha3, alpha4 = form.alphas[1:]
    # symmetrization probe: gamma = alpha4^{-1} eps_{n,c} alpha4
    probe = find_noncommuting_c(
        builder.value(cur), _linear_word(field, n, alpha4).inverse(), n)
    if probe.c is None:
        return parabolic_route(builder, cur, probe)
    tr3 = translation_pass(probe.eps.inverse().expand(), [
        (tau4, invert_endo(tau4)), (alpha3, invert_endo(alpha3))])
    tau3_new = reduce(compose, (tau3, tr3, invert_endo(tau3)))
    tau1_inv = invert_endo(tau1)
    middle = (alpha1, tau2, alpha2, tau3_new, invert_endo(alpha2),
              invert_endo(tau2), invert_endo(alpha1))
    predicted = reduce(compose, (probe.gamma, tau1, *middle, tau1_inv))
    step = builder.add_step(
        [(endo_translation_word(probe.gamma).inverse(), cur, 1),
         (None, cur, -1)],
        expect=predicted, note=f"m=4 symmetrization c={probe.c}")
    # conjugate by tau1
    sigma1 = reduce(compose, (tau1_inv, probe.gamma, tau1))
    sym = builder.add_step(
        [(FactoredAuto(field, n, [triangular_from_endo(tau1)]), step, 1)],
        expect=reduce(compose, middle, sigma1),
        note="shift the leading triangular factor")
    return _engine_m4_symmetric(builder, sym, sigma1, alpha1, tau2, alpha2,
                                tau3_new)


def _engine_m4_symmetric(builder, cur, sigma1, beta1, sigma2, beta2,
                         sigma3) -> str:
    """psi = sigma1 beta1 sigma2 beta2 sigma3 beta2^{-1} sigma2^{-1} beta1^{-1},
    induction on vd(sigma3): the probe's eps passes sigma2 and beta2, the
    pivot sigma3 is conjugated by that translation, and conjugating the
    commutator by sigma1 re-centres the symmetric form, until sigma3 is
    diagonal-affine and m drops."""
    field, n = builder.field, builder.nvars
    beta1_inv, sigma2_inv, beta2_inv = (invert_endo(beta1),
                                        invert_endo(sigma2),
                                        invert_endo(beta2))
    beta1_word = _linear_word(field, n, beta1)
    while True:
        vd = vector_degree(sigma3)
        if not any(vd):
            return _drop_diagonal_pivot(
                builder, cur,
                [("tri", sigma1), ("aff", beta1), ("tri", sigma2)],
                (beta2, sigma3, beta2_inv),
                [("tri", sigma2_inv), ("aff", beta1_inv)])
        probe = find_noncommuting_c(builder.value(cur), beta1_word, n)
        if probe.c is None:
            return parabolic_route(builder, cur, probe)
        tr = translation_pass(probe.eps.expand(), [
            (sigma2_inv, sigma2), (beta2_inv, beta2)])
        sigma3_new = reduce(compose, (sigma3, tr, invert_endo(sigma3)))
        require_vd_drop(vd, sigma3_new, "m=4 pivot vector degree")
        gamma_inv, sigma1_inv = invert_endo(probe.gamma), invert_endo(sigma1)
        middle = (beta1, sigma2, beta2, sigma3_new, beta2_inv, sigma2_inv,
                  beta1_inv)
        predicted = reduce(compose, (gamma_inv, sigma1, *middle, sigma1_inv))
        step = builder.add_step(
            [(endo_translation_word(probe.gamma), cur, 1), (None, cur, -1)],
            expect=predicted, note=f"m=4 descent c={probe.c}")
        sigma1_word = FactoredAuto(field, n, [triangular_from_endo(sigma1)])
        sigma1 = reduce(compose, (sigma1_inv, gamma_inv, sigma1))
        sigma3 = sigma3_new
        cur = builder.add_step([(sigma1_word, step, 1)],
                               expect=reduce(compose, middle, sigma1),
                               note="re-center the symmetric form")


def _dispatch_form(builder, ref, form: MTriangularForm) -> str:
    """Run the engine for form.m; the caller has checked m <= 4."""
    m = form.m
    if m == 0:
        return affine_terminal(builder, ref)
    if m <= 2:
        return _engine_collapse(builder, ref, form)
    if m == 3:
        return _engine_m3(builder, ref, form)
    return _engine_m4(builder, ref, form)


# -- public surface ---------------------------------------------------------------


def certify_normally_cotame(word: FactoredAuto,
                            cap=DEFAULT_DEGREE_CAP) -> Certificate:
    """The certification entry point: route a factored special automorphism
    to the applicable reduction (triangular descent, the m-triangular
    engines for m <= 4, or the exponential chain) and return the finished
    certificate."""
    field, n = word.field, word.nvars
    if field.kind != RATIONALS:
        raise UnsupportedCharacteristic(
            "certification works in characteristic zero")
    val = word.expand()
    if not word.det().is_one():
        raise NotSpecial("input is not special (Jacobian determinant != 1)")
    if val.is_identity():
        raise IdentityInput("input is the identity")
    builder = CertBuilder(field, n, KIND_COTAME, cap=cap)
    exp_positions = [t for t, (f, _) in enumerate(word.factors)
                     if isinstance(f, ExpLND)]
    if exp_positions:
        from .lnd import reduce_triangular_exponential_ref
        if len(exp_positions) > 1 or exp_positions[0] != len(word.factors) - 1:
            raise NotStructured(
                "exponential input must be a single trailing Exp factor")
        factor, exp = word.factors[-1]
        F = factor.F if exp == 1 else -factor.F
        tau, alpha = _split_tau_alpha(word)
        seed = builder.add_seed(word, label="theta")
        terminal = reduce_triangular_exponential_ref(builder, seed, tau,
                                                     alpha, F, factor.D)
        path = "triangular-exponential" if len(word.factors) > 1 \
            else "exponential"
        cite = "exponential-reduction"
    elif triangular_parts(val) is not None:
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


def _split_tau_alpha(word: FactoredAuto) -> tuple[Endo, Endo]:
    """The values (tau, alpha) of the factors before the trailing Exp: tau
    is the product of the leading triangular factors, and the affine factors
    that follow give alpha = T_b L_A, whose translation moves into tau so
    that alpha = L_A.  Raises when the factors interleave the wrong way."""
    field, n = word.field, word.nvars
    taus, alphas = [], []
    for factor, exp in word.factors[:-1]:
        val = (factor if exp == 1 else factor.inverted()).expand()
        if not alphas and triangular_parts(val) is not None:
            taus.append(val)
        elif affine_parts(val) is not None:
            alphas.append(val)
        else:
            raise NotStructured(
                "prefix of an exponential word must be triangular factors "
                "followed by affine factors")
    A, b = affine_parts(_product(field, n, alphas))
    return (reduce(compose, [*taus, Translation(field, n, b).expand()]),
            Linear(field, n, A).expand())
