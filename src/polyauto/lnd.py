"""Exponential automorphisms of triangular derivations and their
normal-closure reductions.

The descent works on the x_n-degree of the kernel element F: commutating
exp(FD) with the last-axis unit translation replaces F by F - (F)shift,
dropping that degree by exactly one in characteristic zero.  Once F is free
of x_n the map is parabolic-shaped and a single commutator with eps_{n,x_i}
produces a nontrivial elementary map.

For tau * alpha * exp(FD) the chain of the corresponding theorem is
followed, the value of the prefix word tau * alpha passing the probe's
translation in one conjugation.  When the descent invariant degenerates (F
of x_n-degree <= 1 makes the second commutator collapse to the identity)
the intermediate value is itself parabolic and the engine hands over to the
parabolic reduction instead of failing.  The probe, the parabolic last-axis
commutator and the triangular descent are the shared ones of reduce_core.
"""

from __future__ import annotations

from functools import reduce

from .autos import elementary, is_parabolic, triangular_parts
from .errors import (DegenerateChain, IdentityInput, InternalIdentityFailure,
                     KernelViolation, UnsupportedCharacteristic)
from .fields import RATIONALS
from .maps import (Endo, ExpLND, FactoredAuto, TriDerivation, compose,
                   exp_images)
from .poly import Polynomial
from .reduce_core import (axis_shift, find_noncommuting_c, parabolic_route,
                          reduce_parabolic_ref, reduce_triangular_ref,
                          translation_pass)
from .wordbuild import CertBuilder

__all__ = [
    "exp_automorphism", "reduce_exponential_ref",
    "reduce_triangular_exponential_ref",
]


def exp_automorphism(F: Polynomial, D: TriDerivation) -> Endo:
    """The automorphism exp(FD), expanded.  It is special by construction:
    the Jacobian determinant of exp of a locally nilpotent derivation is 1
    (see ExpLND.det), so no determinant is taken here."""
    return Endo(F.field, F.nvars, exp_images(F, D))


def _check_exp_input(builder: CertBuilder, D: TriDerivation):
    """Refuse a field of nonzero characteristic and a zero derivation."""
    if builder.field.kind != RATIONALS:
        raise UnsupportedCharacteristic("exponential reduction needs char 0")
    if D.is_zero():
        raise KernelViolation("the derivation must be nonzero")


def reduce_exponential_ref(builder: CertBuilder, ref: str,
                           F: Polynomial, D: TriDerivation) -> str:
    """Descent on deg_{x_n} F; `ref` must hold exp(FD)."""
    field, n = builder.field, builder.nvars
    _check_exp_input(builder, D)
    val = builder.value(ref)
    if val.is_identity():
        raise IdentityInput("exp(FD) is the identity")
    if val != Endo(field, n, exp_images(F, D)):
        raise InternalIdentityFailure("base value is not exp(FD)")
    cur = ref
    F_t = F
    eps_unit = elementary(field, n, n, field.one)
    while F_t.deg_in(n) > 0:
        F_next = F_t - axis_shift(F_t, n, field.one)
        if F_next.deg_in(n) != F_t.deg_in(n) - 1:
            raise InternalIdentityFailure(
                "x_n-degree of F did not drop by one during the descent")
        expected = Endo(field, n, exp_images(F_next, D))
        cur = builder.add_step(
            [(eps_unit, cur, -1), (None, cur, 1)],
            expect=expected,
            note=f"exp descent deg_xn {F_t.deg_in(n)} -> {F_next.deg_in(n)}")
        F_t = F_next
    # base: F_t is free of x_n and nonzero, so exp(F_t D) != id and it is
    # parabolic with x_n-coefficient 1
    return reduce_parabolic_ref(builder, cur, note="exp base")


def reduce_triangular_exponential_ref(builder: CertBuilder, ref: str,
                                      prefix: FactoredAuto,
                                      F: Polynomial, D: TriDerivation) -> str:
    """Reduction for prefix * exp(FD) held in `ref`, prefix = tau * alpha.

    Runs the commutator chain; the first commutator conjugated back through
    exp(FD) collapses to eps_c^{-1} exp(GD) gamma with G = (F)eps_c^{-1} - F.
    When G still involves x_n one more commutator yields exp(HD) and the
    exponential descent takes over; otherwise the value is parabolic and the
    parabolic reduction finishes.
    """
    field, n = builder.field, builder.nvars
    _check_exp_input(builder, D)
    phi = builder.value(ref)
    if phi.is_identity():
        raise IdentityInput("input is the identity")
    if triangular_parts(phi) is not None:
        return reduce_triangular_ref(builder, ref)
    ta = prefix.expand()
    if ta.is_identity():
        return reduce_exponential_ref(builder, ref, F, D)
    probe = find_noncommuting_c(phi, None, n)
    if probe is None:
        return parabolic_route(builder, ref, None)
    exp_word_inv = FactoredAuto(field, n, [(ExpLND(field, n, F, D), -1)])
    c_el = field.from_int(probe.c)
    eps_c, eps_val = probe.eps, probe.gamma
    step0 = builder.add_step(
        [(eps_c, ref, -1), (None, ref, 1)],
        note=f"exp chain commutator c={probe.c}")
    # conjugate through exp(FD); a conjugate of the commutator in step0,
    # which is not the identity, is never the identity
    G = axis_shift(F, n, -c_el) - F
    gamma = translation_pass(eps_val, [(prefix.inverse().expand(), ta)])
    predicted = reduce(compose, (eps_c.inverse().expand(),
                                 Endo(field, n, exp_images(G, D)), gamma))
    phi1 = builder.add_step(
        [(exp_word_inv, step0, 1)],
        expect=predicted, note="conjugate the commutator through exp(FD)")
    if G.deg_in(n) == 0:
        # exp(GD) and both translations are parabolic-shaped
        if not is_parabolic(builder.value(phi1)):
            raise DegenerateChain(
                "chain collapsed but the intermediate value is not "
                "parabolic; no reduction route remains")
        return reduce_parabolic_ref(builder, phi1)
    H = G - axis_shift(G, n, c_el)
    exp_H = Endo(field, n, exp_images(H, D))
    if exp_H.is_identity():
        raise DegenerateChain(
            "exp(HD) degenerated to the identity with deg_xn G > 0")
    step2 = builder.add_step(
        [(eps_c.inverse(), phi1, 1), (None, phi1, -1)],
        expect=exp_H, note="second commutator lands in exp form")
    return reduce_exponential_ref(builder, step2, H, D)
