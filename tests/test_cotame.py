import hashlib
import random

import pytest

from gen import (rand_m_triangular_word, rand_mixed_word, rand_sl_word,
                 rand_translation, rand_triangular)
from polyauto.autos import (Endo, FactoredAuto, classify, compose, dilation,
                            elementary, jacobian_det, linear_elementary,
                            translation, vector_degree)
from polyauto.certificates import (KIND_COTAME, serialize_certificate,
                                   verify_certificate)
from polyauto.cotame import (certify_normally_cotame, find_noncommuting_c,
                             normalize_m_triangular)
from polyauto.errors import (DegreeCapExceeded, IdentityInput, NotParabolic,
                             NotSpecial, NotTriangular,
                             UnsupportedCharacteristic, UnsupportedM)
from polyauto.fields import Field
from polyauto.poly import Polynomial
from polyauto.reduce_core import (parabolic_witness, reduce_parabolic_ref,
                                  reduce_triangular_ref)
from polyauto.textio import parse_factored
from polyauto.wordbuild import CertBuilder

Q = Field.rationals()


def seeded_builder(word):
    builder = CertBuilder(word.field, word.nvars, KIND_COTAME)
    return builder, builder.add_seed(word, label="theta")


def parabolic_cert(word):
    """Certificate of the parabolic reduction run directly on `word`."""
    builder, seed = seeded_builder(word)
    return builder.to_certificate(reduce_parabolic_ref(builder, seed))


# -- normalization ---------------------------------------------------------


def test_normalize_sl_only_gives_m0():
    rng = random.Random(1)
    word = rand_sl_word(rng, 3)
    form = normalize_m_triangular(word)
    assert form.m == 0
    assert form.expand() == word.expand()


def test_normalize_translation_absorbed():
    word = translation(Q, 2, [1, 2])
    form = normalize_m_triangular(word)
    assert form.m == 1
    assert form.expand() == word.expand()
    assert classify(form.taus[0]).translation


def test_normalize_gl_factor_split():
    # determinant-2 linear factor balanced against a diagonal inside tau
    from polyauto.autos import dilation
    word = (dilation(Q, 2, 1, 2)
            * parse_factored("[Q,2] T(1; 1, x1^2)")
            * dilation(Q, 2, 1, Q.from_int(2).inv()))
    form = normalize_m_triangular(word)
    assert form.expand() == word.expand()
    for a in form.alphas:
        parts = jacobian_det(a).constant_value()
        assert parts.is_one()


def test_normalize_rejects_nonspecial():
    from polyauto.autos import dilation
    with pytest.raises(NotSpecial):
        normalize_m_triangular(dilation(Q, 2, 1, 2))


def test_normalize_random_round_trip():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 3)
        word = rand_mixed_word(rng, n, rng.randint(1, 5))
        form = normalize_m_triangular(word)
        assert form.expand() == word.expand()


# -- probes ---------------------------------------------------------------------


def test_probe_finds_c_equal_one():
    phi = elementary(Q, 2, 1, Polynomial.variable(Q, 2, 2) ** 2).expand()
    probe = find_noncommuting_c(phi, None, 2)
    assert probe.c == 1
    assert probe.gamma == elementary(Q, 2, 2, 1).expand()


def assert_witness(phi, probe):
    assert probe.c is None and probe.gamma is None
    pi = parabolic_witness(phi, probe)
    conj = compose(compose(pi.expand(), phi), pi.inverse().expand())
    assert classify(conj).parabolic


def test_probe_translation_gives_witness():
    phi = translation(Q, 3, [1, 2, 3]).expand()
    assert_witness(phi, find_noncommuting_c(phi, None, 2))


def test_probe_identity_gives_witness():
    phi = Endo.identity(Q, 2)
    assert_witness(phi, find_noncommuting_c(phi, None, 1))


def test_probe_positive_characteristic_rejected(F5):
    with pytest.raises(UnsupportedCharacteristic):
        find_noncommuting_c(Endo.identity(F5, 2), None, 1)


# -- triangular reduction -----------------------------------------------------------


def test_reduce_triangular_spec_example():
    word = parse_factored("[Q,2] E(2; x1^2)")
    cert = certify_normally_cotame(word)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    # one vd-descent step from (0,2) to an affine value, then the affine tail
    first = cert.steps[0]
    assert vector_degree(first.value) < (0, 2)


def test_reduce_triangular_df_base():
    word = parse_factored("[Q,2] T(2, 1; 1/2)")
    cert = certify_normally_cotame(word)
    assert verify_certificate(cert).verdict == "PASS"


def test_reduce_triangular_translation_input():
    cert = certify_normally_cotame(translation(Q, 2, [0, 3]))
    assert verify_certificate(cert).verdict == "PASS"


def test_reduce_triangular_errors():
    with pytest.raises(IdentityInput):
        certify_normally_cotame(FactoredAuto.identity(Q, 2))
    # the entry point routes a non-triangular word elsewhere, so the
    # descent's own refusal is checked on the descent
    builder, seed = seeded_builder(parse_factored("[Q,2] E(1; x2^2)"))
    with pytest.raises(NotTriangular):
        reduce_triangular_ref(builder, seed)


def test_reduce_triangular_random():
    rng = random.Random(5)
    done = 0
    while done < 15:
        n = rng.randint(2, 3)
        tau = rand_triangular(rng, n, 2, special=True)
        word = FactoredAuto(Q, n, [(tau, 1)])
        if word.expand().is_identity():
            continue
        cert = certify_normally_cotame(word)
        rep = verify_certificate(cert)
        assert rep.verdict == "PASS", rep.format()
        done += 1


# -- parabolic reduction ---------------------------------------------------------------


def test_reduce_parabolic_direct():
    # (x2+x1, x1, x3 + x1 x2) is parabolic with a nontrivial head part
    word = parse_factored(
        "[Q,3] S(2,1,3; 1,-1,1) * E(3; x1*x2)")
    val = word.expand()
    assert classify(val).parabolic and classify(val).special
    cert = parabolic_cert(word)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()


def test_reduce_parabolic_triangular_delegation():
    word = parse_factored("[Q,3] E(3; x1^2+x2)")
    cert = parabolic_cert(word)
    assert verify_certificate(cert).verdict == "PASS"


def test_reduce_parabolic_identity_rejected():
    with pytest.raises(IdentityInput):
        parabolic_cert(FactoredAuto.identity(Q, 3))


# -- m-triangular -------------------------------------------------------------------------


def test_m2_engine_elementary_conjugates():
    # eps_{1,x2^2} * lambda * eps_{2,x1^3} * lambda^{-1} with lambda in SL_2
    lam = linear_elementary(Q, 2, 2, 1, 1)
    word = (parse_factored("[Q,2] E(1; x2^2)") * lam
            * parse_factored("[Q,2] E(2; x1^3)") * lam.inverse())
    cert = certify_normally_cotame(word)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()


def test_m_engines_random():
    rng = random.Random(11)
    for m in (1, 2, 3, 4):
        for _ in range(3):
            n = rng.randint(2, 3)
            word = rand_m_triangular_word(rng, n, m, deg=1 if m >= 3 else 2)
            if word.expand().is_identity():
                continue
            cert = certify_normally_cotame(word)
            rep = verify_certificate(cert)
            assert rep.verdict == "PASS", (m, rep.format())


# R swaps x1 and x2 with a sign; T moves only x2, by x1^2
WITNESS_R = "L[[0,1,0],[-1,0,0],[0,0,1]]"
WITNESS_T = "T(1; 1, x1^2; 1)"


def test_m_engine_witness_route():
    # phi = beta0 * tau with all moving parts away from the probe axis: the
    # conjugated last-axis translations commute with phi, so the engines must
    # take the parabolic-witness route and still finish
    word = parse_factored("[Q,3] E(1; x2) * E(2; x1^2)")
    val = word.expand()
    assert not classify(val).triangular
    cert = certify_normally_cotame(word)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    # T R T R T (m = 3) and T R T R T R T (m = 4) leave x3 alone, so the
    # first probe of _engine_m3 and of _engine_m4 is exhausted
    for m, sha in (
            (3, "be4c5284c4319a79e4237c6dea33c1baf6032a4baf6ef5bb7081cc7449de48e6"),
            (4, "970b5e063b916b6bf21da0908d8992bfe63c98cb1d743ee5e899aee5e035983b")):
        word = parse_factored(
            "[Q,3] " + f" * {WITNESS_R} * ".join([WITNESS_T] * m))
        cert = certify_normally_cotame(word)
        assert cert.meta["path"] == f"m-triangular-{m}"
        assert cert.steps[0].note == "SL part of the conjugator"
        rep = verify_certificate(cert)
        assert rep.verdict == "PASS", rep.format()
        text = serialize_certificate(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == sha, m
    # here the symmetrization succeeds and the probe of
    # _engine_m4_symmetric is exhausted
    word = parse_factored(
        "[Q,3] T(1; 1, x1^3; 1) * L[[1,1,0],[0,1,0],[0,0,1]]"
        " * T(1; 1, 2*x1^2; 1) * L[[1,0,0],[0,0,1],[0,-1,0]]"
        " * T(1; 1; 1, x1^2) * L[[0,0,1],[0,1,0],[-1,0,0]]"
        " * T(1; 1; 1, x1*x2)")
    cert = certify_normally_cotame(word)
    assert [s.note for s in cert.steps][1:3] == [
        "shift the leading triangular factor", "SL part of the conjugator"]
    assert verify_certificate(cert).verdict == "PASS"
    assert hashlib.sha256(serialize_certificate(cert).encode()).hexdigest() \
        == "e91b5dfc1cc6d8517cebcc87a74e8cd3fa7ef7405b261f379dac065900e6ef97"


def test_parabolic_reduction_refuses_a_conjugator_not_special_linear():
    # the conjugator is recorded as one linear factor, so it must be linear
    # of determinant 1; a refusal records no step
    builder, seed = seeded_builder(parse_factored("[Q,3] E(3; x1^2)"))
    for alpha in (dilation(Q, 3, 1, 2), translation(Q, 3, [0, 1, 0])):
        with pytest.raises(NotParabolic, match="special linear"):
            reduce_parabolic_ref(builder, seed, alpha)
    assert builder.steps == []


def test_m2_engine_nonunit_scalars():
    # tau_1 with x_n-scalar != 1 exercises the scaled pass-through
    word = (parse_factored("[Q,2] T(2; 1/2, x1^2)")
            * parse_factored("[Q,2] E(1; x2)")
            * parse_factored("[Q,2] T(1/3; 3, -x1^3)"))
    cert = certify_normally_cotame(word)
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()


def test_m5_rejected():
    # five nonlinear triangular slots separated by an upper elementary
    # matrix cannot merge, so the normal form keeps m = 5
    sep = parse_factored("[Q,2] E(1; x2)")
    factors = []
    for k in range(5):
        factors.extend(parse_factored(f"[Q,2] E(2; {k + 1}*x1^2)").factors)
        factors.extend(sep.factors)
    word = FactoredAuto(Q, 2, factors)
    form = normalize_m_triangular(word)
    assert form.m == 5
    with pytest.raises(UnsupportedM):
        certify_normally_cotame(word)


def test_identity_input_rejected():
    word = parse_factored("[Q,2] E(2; x1^2)") \
        * parse_factored("[Q,2] E(2; x1^2)").inverse()
    with pytest.raises(IdentityInput):
        certify_normally_cotame(word)


def test_dispatcher_rejects_nonspecial():
    from polyauto.autos import dilation
    with pytest.raises(NotSpecial):
        certify_normally_cotame(dilation(Q, 2, 1, 2))


def test_dispatcher_rejects_finite_fields(F5):
    with pytest.raises(UnsupportedCharacteristic):
        certify_normally_cotame(elementary(F5, 2, 1, F5.one))


def test_vd_descent_property():
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        tau = rand_triangular(rng, n, 3, special=True).expand()
        if vector_degree(tau) == (0,) * n:
            continue
        gamma = rand_translation(rng, n).expand()
        from polyauto.autos import invert_endo
        conj = compose(compose(invert_endo(tau), gamma), tau)
        assert vector_degree(conj) < vector_degree(tau)
        checked += 1


def test_certify_passes_its_cap_through():
    # cap 0 is a cap, not a request for the default
    word = parse_factored("[Q,2] E(1; x2^3)")
    with pytest.raises(DegreeCapExceeded):
        certify_normally_cotame(word, cap=0)
    assert verify_certificate(certify_normally_cotame(word)).verdict == "PASS"
