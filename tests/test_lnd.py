import hashlib

import pytest

from gen import rand_triangular
from polyauto.autos import jacobian_det
from polyauto.certificates import verify_certificate
from polyauto.cotame import certify_normally_cotame
from polyauto.errors import (IdentityInput, InvalidFactor, KernelViolation,
                             UnsupportedCharacteristic)
from polyauto.fields import Field
from polyauto.identities import random_kernel_pairs
from polyauto.lnd import exp_automorphism
from polyauto.maps import (Endo, ExpLND, FactoredAuto, TriDerivation,
                           apply_derivation, compose, kernel_check)
from polyauto.poly import Polynomial
from polyauto.textio import (parse_derivation, parse_endo, parse_factored,
                             serialize_certificate)

Q = Field.rationals()


def vde_pair():
    n = 4
    x = [Polynomial.variable(Q, n, i) for i in range(1, 5)]
    F = x[0] * x[2] + x[1] * x[3]
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (zero, zero, -x[1], x[0]))
    return F, D


def certify_exp(F, D, tau=None, alpha=None):
    """Certify tau * alpha * exp(FD) through the dispatcher."""
    n = F.nvars
    word = FactoredAuto(Q, n, [ExpLND(Q, n, F, D)])
    if alpha is not None:
        word = alpha * word
    if tau is not None:
        word = tau * word
    return certify_normally_cotame(word)


def test_apply_derivation_basic():
    D = parse_derivation("D(0, x1)", Q, 2)
    x2 = Polynomial.variable(Q, 2, 2)
    assert apply_derivation(D, x2) == Polynomial.variable(Q, 2, 1)
    assert apply_derivation(D, Polynomial.constant(Q, 2, 9)).is_zero()


def test_vde_kernel():
    F, D = vde_pair()
    # D(F) = -x2 x1 + x1 x2 = 0
    assert apply_derivation(D, F).is_zero()
    assert kernel_check(D, F)
    x2 = Polynomial.variable(Q, 2, 2)
    D2 = parse_derivation("D(0, x1)", Q, 2)
    assert not kernel_check(D2, x2)


def test_triangularity_enforced():
    x2 = Polynomial.variable(Q, 2, 2)
    with pytest.raises(InvalidFactor):
        TriDerivation(Q, 2, (x2, Polynomial.zero(Q, 2)))


def test_exp_one_step():
    one = Polynomial.one(Q, 2)
    D = parse_derivation("D(0, 1)", Q, 2)
    F = Polynomial.variable(Q, 2, 1)
    assert exp_automorphism(F, D) == parse_endo("[Q,2] (x1, x2+x1)")


def test_exp_vde_matches_displayed_tuple():
    F, D = vde_pair()
    tau = parse_endo("[Q,4] (x1, x2+x1^3, x3, x4)")
    got = compose(tau, exp_automorphism(F, D))
    want = parse_endo(
        "[Q,4] (x1, x2+x1^3, x3-x2*(x1*x3+x2*x4), x4+x1*(x1*x3+x2*x4))")
    assert got == want
    assert jacobian_det(got) == Polynomial.one(Q, 4)


def test_exp_zero_kernel_is_identity():
    _, D = vde_pair()
    assert exp_automorphism(Polynomial.zero(Q, 4), D).is_identity()


def test_exp_errors():
    F, D = vde_pair()
    x3 = Polynomial.variable(Q, 4, 3)
    with pytest.raises(KernelViolation):
        exp_automorphism(x3, D)
    F5 = Field.prime(5)
    D5 = parse_derivation("D(0, x1)", F5, 2)
    with pytest.raises(UnsupportedCharacteristic):
        exp_automorphism(Polynomial.variable(F5, 2, 1), D5)


def test_exp_always_special_and_invertible():
    for F, D in random_kernel_pairs(7, 100):
        phi = exp_automorphism(F, D)
        assert jacobian_det(phi) == Polynomial.one(Q, F.nvars)
        inv = exp_automorphism(-F, D)
        assert compose(phi, inv) == Endo.identity(Q, F.nvars)


def test_reduce_exponential_nagata_style():
    n = 3
    x = [Polynomial.variable(Q, n, i) for i in range(1, 4)]
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (zero, x[0], x[1].scale(Q.from_int(-2))))
    F = x[0] * x[2] + x[1] * x[1]
    assert kernel_check(D, F)
    cert = certify_exp(F, D)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    assert cert.meta["path"] == "exponential"


def test_reduce_exponential_triangular_delegation():
    # F free of x_n and exp triangular: pure delegation to the descent
    n = 3
    x1 = Polynomial.variable(Q, n, 1)
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (zero, zero, x1))
    F = Polynomial.variable(Q, n, 2)
    cert = certify_exp(F, D)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()


def test_reduce_exponential_identity_rejected():
    _, D = vde_pair()
    with pytest.raises(IdentityInput):
        certify_exp(Polynomial.zero(Q, 4), D)


def test_reduce_triangular_exponential_vde():
    from polyauto.maps import Elementary
    F, D = vde_pair()
    tau = FactoredAuto(Q, 4, [
        (Elementary(Q, 4, 2, Polynomial.variable(Q, 4, 1) ** 3), 1)])
    alpha = FactoredAuto.identity(Q, 4)
    cert = certify_exp(F, D, tau, alpha)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    assert cert.meta["path"] == "triangular-exponential"


def test_reduce_triangular_exponential_with_linear_part():
    import random
    rng = random.Random(3)
    n = 3
    x = [Polynomial.variable(Q, n, i) for i in range(1, 4)]
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (zero, zero, x[0] * x[1]))
    F = x[1] + x[0] ** 2
    assert kernel_check(D, F)
    tau = FactoredAuto(Q, n, [(rand_triangular(rng, n, 2, special=True), 1)])
    from polyauto.autos import linear_elementary
    alpha = linear_elementary(Q, n, 1, 2, 3)
    cert = certify_exp(F, D, tau, alpha)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()


def test_reduce_triangular_exponential_deep_chain():
    # deg_{x_n} F = 2 exercises the second commutator: G still involves x_n,
    # so the chain reaches exp(HD) before the exponential descent takes over
    n = 4
    x = [Polynomial.variable(Q, n, i) for i in range(1, 5)]
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (zero, zero, -x[1], x[0]))
    W = x[0] * x[2] + x[1] * x[3]
    F = W * W
    assert kernel_check(D, F) and F.deg_in(n) == 2
    from polyauto.maps import Elementary
    tau = FactoredAuto(Q, n, [(Elementary(Q, n, 2, x[0] ** 2), 1)])
    cert = certify_exp(F, D, tau, FactoredAuto.identity(Q, n))
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    assert any("exp descent" in s.note or "second commutator" in s.note
               for s in cert.steps)


def test_exp_descent_degree_invariant():
    # deg_xn(F - (F)eps) = deg_xn(F) - 1 whenever positive
    for F, D in random_kernel_pairs(99, 20):
        n = F.nvars
        if F.deg_in(n) == 0:
            continue
        images = [Polynomial.variable(Q, n, m + 1) for m in range(n)]
        images[n - 1] = images[n - 1] + Polynomial.one(Q, n)
        dropped = F - F.substitute(images)
        assert dropped.deg_in(n) == F.deg_in(n) - 1


def test_reduce_exponential_parabolic_base():
    # D = d/dx1 and F = x2 x3: one descent step ends at exp(-x2 D), which
    # moves x1 by -x2, so the base is parabolic but not triangular and the
    # shared last-axis commutator finishes it
    n = 3
    x = [Polynomial.variable(Q, n, i) for i in range(1, 4)]
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (Polynomial.one(Q, n), zero, zero))
    cert = certify_exp(x[1] * x[2], D)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    notes = [s.note for s in cert.steps]
    assert "exp base commutator with x1" in notes
    assert any(note.startswith("exp descent") for note in notes)


def test_reduce_triangular_exponential_exhausted_probe():
    # alpha * exp(x2^2 d/dx1) commutes with every x3-translation, so the
    # probe finds no c and the parabolic witness route takes over
    from polyauto.autos import linear_elementary
    n = 3
    x2 = Polynomial.variable(Q, n, 2)
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (Polynomial.one(Q, n), zero, zero))
    cert = certify_exp(x2 ** 2, D, alpha=linear_elementary(Q, n, 2, 1, 1))
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    assert cert.meta["path"] == "triangular-exponential"
    assert cert.steps[0].note == "parabolic commutator with x1"


# an inverted triangular prefix factor, a translation, and a linear part that
# is not lower triangular: the probe's translation passes the whole prefix
# in the step that conjugates the commutator through exp(FD)
EXP_CHAINS = {
    "[Q,3] T(1; 1, x1^2; 1, x1*x2)^-1 * Tr(0, 1, 2) * "
    "L[[1,0,1],[0,1,0],[0,0,1]] * Exp(x1+x2^2; D(0, 0, 1))^-1":
        "0951f123ccd4bb33b021f381f4b1aeeb71ff4b26ee8e9087872969fcf6d90b4f",
    "[Q,3] T(1; 1, x1^2; 1, x1*x2)^-1 * Tr(1, 1, 2) * "
    "L[[1,0,0],[0,0,1],[0,-1,0]] * Exp(x1^2; D(0, 0, x1))^-1":
        "acea59db8069094dd96c3b7a7e65bd7c19ea5344d899d3d65686d67202e2684a",
}


@pytest.mark.parametrize("text", sorted(EXP_CHAINS))
def test_the_chain_passes_the_probe_translation_through_the_prefix(text):
    cert = certify_normally_cotame(parse_factored(text))
    assert cert.meta["path"] == "triangular-exponential"
    assert [s.note for s in cert.steps][:2] == [
        "exp chain commutator c=1", "conjugate the commutator through exp(FD)"]
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    nct = serialize_certificate(cert)
    assert hashlib.sha256(nct.encode()).hexdigest() == EXP_CHAINS[text]
