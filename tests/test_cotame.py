import hashlib
import random
import sys
from functools import reduce

import pytest

from gen import (rand_m_triangular_word, rand_mixed_word, rand_sl_word,
                 rand_translation, rand_triangular, rand_unit)
from polyauto import cotame
from polyauto.autos import (classify, dilation, elementary, invert_endo,
                            jacobian_det, linear_elementary, translation,
                            vector_degree)
from polyauto.certificates import verify_certificate
from polyauto.cotame import certify_normally_cotame, normalize_m_triangular
from polyauto.errors import (DegreeCapExceeded, IdentityInput,
                             InternalIdentityFailure, NotParabolic,
                             NotSpecial, NotTriangular,
                             UnsupportedCharacteristic, UnsupportedM)
from polyauto.fields import Field
from polyauto.maps import KIND_COTAME, Endo, FactoredAuto, Linear, compose
from polyauto.poly import Polynomial
from polyauto.reduce_core import (find_noncommuting_c, linear_word,
                                  parabolic_route, parabolic_witness,
                                  reduce_parabolic_ref, reduce_triangular_ref)
from polyauto.textio import parse_factored, serialize_certificate
from polyauto.wordbuild import CertBuilder
from test_hostile import within

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


SHEAR = linear_elementary(Q, 2, 1, 2, 1).expand()  # linear, det 1


def test_a_wrong_slot_is_refused_against_the_input(monkeypatch):
    """A wrong linear slot that is still linear special is caught only by
    the check that the form expands to the input word."""
    word = (linear_elementary(Q, 2, 2, 1, 3)
            * parse_factored("[Q,2] T(1; 1, x1^2)"))
    assert normalize_m_triangular(word).expand() == word.expand()
    linear_map = cotame.linear_map
    monkeypatch.setattr(cotame, "linear_map", lambda field, n, A: compose(
        linear_map(field, n, A), SHEAR))
    with pytest.raises(InternalIdentityFailure,
                       match="normal form does not expand to input"):
        normalize_m_triangular(word)


def test_a_wrong_slot_is_refused_in_the_one_sweep(monkeypatch):
    """A translation given as a triangular piece has vector degree zero, so
    the sweep takes it as an affine piece and the form needs no second
    sweep.  The sweep's form is checked against the input, so a slot made
    wrong in it is refused."""
    pieces = [("aff", linear_elementary(Q, 2, 2, 1, 3).expand()),
              ("tri", parse_factored("[Q,2] T(1; 1, x1^2)").expand()),
              ("tri", translation(Q, 2, [1, 1]).expand()),
              ("tri", parse_factored("[Q,2] T(1; 1, 2*x1^3)").expand())]
    target = reduce(compose, (val for _, val in pieces))
    passes, wrong = [], []
    normalize, linear_map = cotame._normalize_pieces, cotame.linear_map

    def counted(field, n, pieces, target):
        passes.append(len(pieces))
        return normalize(field, n, pieces, target)

    def wrong_in_the_sweep(field, n, A):
        right = linear_map(field, n, A)
        return compose(right, SHEAR) if wrong else right

    monkeypatch.setattr(cotame, "_normalize_pieces", counted)
    monkeypatch.setattr(cotame, "linear_map", wrong_in_the_sweep)
    form = cotame._normalize_pieces(Q, 2, pieces, target)
    assert passes == [4] and form.m == 2 and form.expand() == target
    passes.clear()
    wrong.append(True)
    with pytest.raises(InternalIdentityFailure,
                       match="normal form does not expand to input"):
        cotame._normalize_pieces(Q, 2, pieces, target)
    assert passes == [4]


def test_the_identity_word_is_one_identity_slot():
    for n in (1, 2, 3):
        form = normalize_m_triangular(FactoredAuto.identity(Q, n))
        assert form.m == 0 and form.alphas == [Endo.identity(Q, n)]


def sweep(pieces):
    """(alphas, taus) of the one sweep over `pieces`."""
    target = reduce(compose, (val for _, val in pieces))
    form = cotame._normalize_pieces(Q, pieces[0][1].nvars, pieces, target)
    return form.alphas, form.taus


def test_the_sweep_reads_affine_stretches_not_their_pieces():
    """Each affine stretch splits uniquely as T_b diag(d, 1, ..., 1) M with
    det M = 1, so the sweep's form does not depend on how a stretch is cut
    into pieces: folding a run of affine pieces into one leaves it
    unchanged, and so does inserting ("tri", D), ("aff", D^-1) for a
    diagonal-affine D, which the sweep takes as affine pieces."""
    rng = random.Random(3131)
    for trial in range(24):
        n = (2, 3)[trial % 2]
        word = (rand_m_triangular_word(rng, n, rng.randint(1, 3))
                if trial % 4 < 2 else rand_mixed_word(rng, n, 5))
        pieces = cotame._word_pieces(word)
        want = sweep(pieces)
        starts = [i for i in range(len(pieces) - 1)
                  if pieces[i][0] == pieces[i + 1][0] == "aff"]
        if starts:
            i = j = rng.choice(starts)
            while j < len(pieces) and pieces[j][0] == "aff":
                j += 1
            folded = reduce(compose, (val for _, val in pieces[i:j]))
            assert sweep(pieces[:i] + [("aff", folded)] + pieces[j:]) == want
        shift = [rand_unit(rng) for _ in range(n)]
        D = reduce(compose, [translation(Q, n, shift).expand()]
                   + [dilation(Q, n, k, rand_unit(rng)).expand()
                      for k in range(1, n + 1)])
        assert not any(vector_degree(D))
        i = rng.randint(0, len(pieces))
        inserted = pieces[:i] + [("tri", D), ("aff", invert_endo(D))] \
            + pieces[i:]
        assert sweep(inserted) == want


# seeded words (gen.rand_m_triangular_word with seeds 1003, 1018, 1030 and
# 1032, n and then m drawn by rng.choice, degree 2) whose m = 3 pivot turns
# diagonal-affine, so each re-forms through the sweep; seed 1028 drops a
# pivot too but takes seconds of CPU, so it is left out
PIVOT_DROPS = {
    1003: ("[Q,3] E(1; 0) * E(3; 0) * E(3; -3/2*x2) * "
           "T(1/2; 1, x1^2; 2, x2^2-x2) * E(3; x1) * E(1; 0) * "
           "T(-1, -1/2; 3, -1/2*x1^2; -1/3, 1/2*x2^2-2*x1) * E(3; -x2) * "
           "E(3; -3/2*x1) * T(1; 1, -2*x1^2+1/2*x1-3/2; 1, x1^2*x2^2+1/2*x2) "
           "* E(1; -3/2*x2) * E(3; -3*x2) * E(2; 0)",
           "d0df1f83bcdd369f72b52306f9327633df66ee06708bb1d6c3d4013a007c9c85"),
    1018: ("[Q,3] E(3; 2*x1) * E(3; -2*x2) * "
           "T(1, -1; -2; -1/2, -1/2*x1*x2^2+1/2*x2^2-2*x1) * E(1; 3*x2) * "
           "E(1; -3*x2) * T(3; 1/2; 2/3, -2*x2) * E(1; 2*x2) * "
           "E(1; -2*x2) * E(3; 3/2*x1) * T(-1/2; -2; 1, -x1^2-x1*x2+1) * "
           "E(3; -x2) * E(3; 3*x2) * T(-3, 1; -1, -x1^2; 1/3, x1^2*x2-x1*x2^2)"
           " * E(1; 2*x3) * E(2; -x1)",
           "5ec16c8b7b9dfd00abfad8de84fb4301b5e89e71eadc6ade980ea2d39b91974a"),
    1030: ("[Q,2] E(1; 2*x2) * T(3, -3/2; 1/3, -1/2*x1) * E(2; -3*x1) * "
           "E(1; -1/2*x2) * T(3, -9/2; 1/3, 3/2*x1^2) * E(2; 0) * E(2; x1) * "
           "T(3, 5/2; 1/3, x1^2-2*x1) * E(2; -3*x1) * E(1; -2*x2) * "
           "T(-3/2, 1; -2/3, x1^2) * E(2; 3/2*x1) * E(1; -x2)",
           "35d52f89884fa36530bf786e868d98f1f025ef7ba121915bd51680299206d3ec"),
    1032: ("[Q,3] E(1; -x2) * E(2; -2*x3) * E(2; -x1) * "
           "T(-1, -2; -1; 1, 3/2*x1^2*x2+3/2) * E(3; 0) * E(1; 2*x2) * "
           "E(1; x2) * T(-2; -1, -1/2*x1^2+7/2; 1/2, x1^2+6*x1) * E(1; -x2) * "
           "T(-1, 3/2; 1, -3/2; -1) * E(2; -1/2*x1) * E(3; -3/2*x1) * "
           "T(1/2, -3; 1; 2, -3/2*x1*x2+x2) * E(1; 1/2*x3) * E(2; 1/2*x1)",
           "f5adf6d896b7dfab75083ab08595d9d8ae513fe64d6a2b07af82a7109109ceb1"),
}


@pytest.mark.parametrize("seed", sorted(PIVOT_DROPS))
def test_a_dropped_pivot_re_forms_through_the_sweep(seed, monkeypatch):
    text, sha = PIVOT_DROPS[seed]
    drops, drop = [], cotame._drop_diagonal_pivot

    def counted(*args):
        drops.append(seed)
        return drop(*args)

    monkeypatch.setattr(cotame, "_drop_diagonal_pivot", counted)
    with within(2):
        cert = certify_normally_cotame(parse_factored(text))
    assert drops == [seed] and cert.meta["path"] == "m-triangular-3"
    assert verify_certificate(cert).verdict == "PASS"
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_a_re_formed_word_is_checked_against_the_certified_value(
        monkeypatch):
    """A dropped pivot re-forms the word from the form the engine hands
    over; the new form is checked against the step's certified value, not
    against a fold of that form, so a wrong slot is refused."""
    drop = cotame._drop_diagonal_pivot

    def wrong_slot(builder, ref, form):
        alphas = [compose(form.alphas[0], SHEAR), *form.alphas[1:]]
        return drop(builder, ref, cotame.MTriangularForm(alphas, form.taus))

    monkeypatch.setattr(cotame, "_drop_diagonal_pivot", wrong_slot)
    with pytest.raises(InternalIdentityFailure,
                       match="normal form does not expand to input"):
        certify_normally_cotame(parse_factored(PIVOT_DROPS[1030][0]))


# seeded words (rng = random.Random(seed), n = rng.choice((2, 3)), then
# gen.rand_m_triangular_word(rng, n, 4, 2)) whose m = 4 symmetric descent
# turns its pivot sigma3 diagonal-affine, so each re-forms through the sweep
SYMMETRIC_DROPS = {
    2009: ("[Q,3] E(3; 0) * T(-1, -2; 3/2, x1^2; -2/3) * E(2; 1/2*x3) * "
           "E(3; x1) * E(3; 2*x2) * T(-1, -1/2; -3, 1/2*x1^2-x1; 1/3) * "
           "E(3; -x2) * E(2; -3/2*x3) * E(1; 1/2*x3) * "
           "T(1, 2; 1/2, 2*x1^2; 2, 1/2*x2) * E(2; -x3) * "
           "T(1; -1/2, 3/2*x1^2+2; -2) * E(3; -x1) * E(1; 1/2*x3)",
           "dab3441c6935aed563a5054307de8b3fd70d5cada7fccc71900723a75399d498"),
    2019: ("[Q,2] E(1; -2*x2) * E(1; 3/2*x2) * E(2; 3/2*x1) * "
           "T(3/2, -3/2; 2/3, -4*x1^2) * E(1; -1/2*x2) * "
           "T(1/2, 3/2; 2, -x1^2) * E(2; -x1) * E(1; -x2) * "
           "T(3/2; 2/3, 3/2*x1^2+5*x1) * E(2; 1/2*x1) * "
           "T(-1/2; -2, -2*x1^2-1/2*x1) * E(1; 1/2*x2)",
           "ab74940ad81375f7921e4b0ff02e85bb7241238c9beb1e4deb8ba589f7fd5d7b"),
    2080: ("[Q,2] E(1; 1/2*x2) * T(2; 1/2, 1/2*x1^2) * E(2; -x1) * "
           "E(2; 3*x1) * E(2; -x1) * T(3/2, -3; 2/3, x1^2) * "
           "T(-1, 1/2; -1, 3/2*x1^2) * E(2; x1) * T(-3/2; -2/3, -x1^2-3/2) * "
           "E(1; -x2) * E(2; -3*x1)",
           "cdc44a71fba55173c8203cfab417dc10d319b2285705eff7bd2e0a9630534387"),
}


@pytest.mark.parametrize("seed", sorted(SYMMETRIC_DROPS))
def test_a_symmetric_descent_hands_its_form_to_the_pivot_drop(seed,
                                                              monkeypatch):
    """The m = 4 symmetric form is an MTriangularForm, and a dropped pivot
    re-forms from it; a wrong slot in the handed form is refused against
    the step's certified value."""
    text, sha = SYMMETRIC_DROPS[seed]
    word = parse_factored(text)
    drops, drop = [], cotame._drop_diagonal_pivot

    def counted(builder, ref, form):
        drops.append((sys._getframe(1).f_code.co_name, form.m))
        return drop(builder, ref, form)

    monkeypatch.setattr(cotame, "_drop_diagonal_pivot", counted)
    with within(1):
        cert = certify_normally_cotame(word)
    assert drops == [("_engine_m4_symmetric", 4)]
    assert cert.meta["path"] == "m-triangular-4"
    assert verify_certificate(cert).verdict == "PASS"
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    shear = linear_elementary(Q, word.nvars, 1, 2, 1).expand()

    def wrong_slot(builder, ref, form):
        alphas = [*form.alphas[:2], compose(form.alphas[2], shear),
                  *form.alphas[3:]]
        return drop(builder, ref, cotame.MTriangularForm(alphas, form.taus))

    monkeypatch.setattr(cotame, "_drop_diagonal_pivot", wrong_slot)
    with pytest.raises(InternalIdentityFailure,
                       match="normal form does not expand to input"):
        certify_normally_cotame(word)


# -- probes ---------------------------------------------------------------------


def test_probe_finds_c_equal_one():
    phi = elementary(Q, 2, 1, Polynomial.variable(Q, 2, 2) ** 2).expand()
    probe = find_noncommuting_c(phi, None, 2)
    assert probe.c == 1
    assert probe.gamma == elementary(Q, 2, 2, 1).expand()
    assert probe.gamma_word.expand() == probe.gamma
    assert len(probe.gamma_word.factors) == 1


def assert_witness(phi):
    # every c on the last axis commutes, so the probe finds none, and the
    # witness check passes on phi itself, parabolic
    assert find_noncommuting_c(phi, None, phi.nvars) is None
    parabolic_witness(phi, None)
    assert classify(phi).parabolic


def test_probe_translation_gives_witness():
    assert_witness(translation(Q, 3, [1, 2, 3]).expand())


def test_probe_identity_gives_witness():
    assert_witness(Endo.identity(Q, 2))


def test_probe_through_a_linear_map_conjugates_the_translation():
    phi = elementary(Q, 2, 1, Polynomial.variable(Q, 2, 2) ** 2).expand()
    alpha = linear_elementary(Q, 2, 1, 2, 3).expand()
    probe = find_noncommuting_c(phi, alpha, 2)
    eps = probe.eps.expand()
    assert probe.gamma == reduce(compose, (alpha, eps, invert_endo(alpha)))
    assert probe.gamma_word.expand() == probe.gamma


def test_linear_word_is_the_one_factor_word_of_a_special_linear_map():
    alpha = linear_elementary(Q, 3, 1, 2, 3).expand()
    word = linear_word(alpha)
    assert [type(f) for f, _ in word.factors] == [Linear]
    assert word.expand() == alpha and word.det().is_one()
    x2 = Polynomial.variable(Q, 3, 2)
    for other in (dilation(Q, 3, 1, 2), translation(Q, 3, [0, 1, 0]),
                  elementary(Q, 3, 1, x2 ** 2)):
        assert linear_word(other.expand()) is None


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
            reduce_parabolic_ref(builder, seed, alpha.expand())
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
