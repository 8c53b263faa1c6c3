from fractions import Fraction

import pytest

from polyauto.autos import elementary, linear_elementary, translation
from polyauto.certificates import verify_certificate
from polyauto.errors import (ArityMismatch, DegenerateTarget, IdentityInput,
                             IndexClash, IndexOutOfRange, NegativeExponent,
                             UnsupportedField, ZeroScalar)
from polyauto.fields import Field
from polyauto.maps import KIND_SLIN
from polyauto.poly import Polynomial
from polyauto.reduce_core import (translation_from_any,
                                  translation_from_special_affine)
from polyauto.slin import (SlinContext, commutator_identity, cubic_identity,
                           linear_elementary_from_translations,
                           slin_from_elementary, slin_from_monomial_elementary,
                           translation_transfer)
from polyauto.wordbuild import CertBuilder

Q = Field.rationals()


def builder(field=Q, n=2, kind=KIND_SLIN):
    return CertBuilder(field, n, kind)


# -- commutator identity ------------------------------------------------------


def test_commutator_identity_rational():
    b = builder(n=3)
    lbl = commutator_identity(b, 1, 2, Q.from_int(3), Q.from_int(2))
    assert b.value(lbl) == elementary(Q, 3, 1, 3 * 2 - 3).expand()


def test_commutator_identity_b_one_gives_identity():
    b = builder()
    lbl = commutator_identity(b, 1, 2, Q.from_int(5), Q.one)
    assert b.value(lbl).is_identity()


def test_commutator_identity_char2(F4):
    b = builder(F4, 2)
    g = F4.generator()
    lbl = commutator_identity(b, 1, 2, F4.one, g)
    # ab - a = g - 1 = g + 1 in characteristic two
    assert b.value(lbl) == elementary(F4, 2, 1, g + 1).expand()


def test_commutator_identity_errors():
    b = builder()
    with pytest.raises(IndexClash):
        commutator_identity(b, 1, 1, Q.one, Q.one)
    with pytest.raises(ZeroScalar):
        commutator_identity(b, 1, 2, Q.one, Q.zero)


# -- translation transfer -------------------------------------------------------


def test_transfer_inverse_case():
    b = builder()
    src = b.add_seed(elementary(Q, 2, 1, 1), label="src")
    lbl = translation_transfer(b, src, 1, Q.from_int(-1))
    assert b.value(lbl) == elementary(Q, 2, 1, -1).expand()
    # a single inversion step
    assert len(b.steps) == 1 and len(b.steps[0].items) == 1


def test_transfer_axis_change():
    b = CertBuilder(Q, 2, "normal-cotame")
    src = b.add_seed(elementary(Q, 2, 1, 1), label="src")
    lbl = translation_transfer(b, src, 2, Q.from_int(5))
    assert b.value(lbl) == elementary(Q, 2, 2, 5).expand()
    rep = verify_certificate(b.to_certificate(lbl))
    assert rep.verdict == "PASS", rep.format()


def test_transfer_degenerate_target():
    b = builder()
    src = b.add_seed(elementary(Q, 2, 1, 1), label="src")
    with pytest.raises(DegenerateTarget):
        translation_transfer(b, src, 1, Q.zero)


# -- translation from any -----------------------------------------------------------


def test_translation_from_any_two_axes():
    b = builder(n=2, kind=KIND_SLIN)
    # seeds in SLIN certificates must be linear, so use the cotame kind here
    b2 = CertBuilder(Q, 2, "normal-cotame")
    gamma = b2.add_seed(translation(Q, 2, [1, 0]), label="g")
    lbl = translation_from_any(b2, gamma)
    assert b2.value(lbl) == elementary(Q, 2, 2, 1).expand()

    b3 = CertBuilder(Q, 2, "normal-cotame")
    gamma = b3.add_seed(translation(Q, 2, [0, Fraction(3, 2)]), label="g")
    lbl = translation_from_any(b3, gamma)
    assert b3.value(lbl) == elementary(Q, 2, 1, Fraction(3, 2)).expand()


def test_translation_from_any_identity_rejected():
    b = CertBuilder(Q, 2, "normal-cotame")
    gamma = b.add_seed(translation(Q, 2, [0, 0]), label="g")
    with pytest.raises(IdentityInput):
        translation_from_any(b, gamma)


# -- linear elementary from translations ------------------------------------------------


def provide_factory(b):
    def provide(axis, const):
        return b.add_seed(elementary(b.field, b.nvars, axis, const))
    return provide


def test_linear_elementary_odd_char():
    b = CertBuilder(Q, 2, "normal-cotame")
    lbl = linear_elementary_from_translations(
        b, 1, 2, Q.from_int(2), provide_factory(b))
    # constants -a^2/4, -a/2, a/2 = -1, -1, 1
    seeds = {s.label: s.word.expand() for s in b.seeds}
    assert elementary(Q, 2, 1, -1).expand() in seeds.values()
    assert elementary(Q, 2, 2, -1).expand() in seeds.values()
    assert elementary(Q, 2, 2, 1).expand() in seeds.values()
    assert b.value(lbl) == linear_elementary(Q, 2, 1, 2, 2).expand()


def test_linear_elementary_char2(F4):
    b = CertBuilder(F4, 2, "normal-cotame")
    g = F4.generator()
    lbl = linear_elementary_from_translations(
        b, 1, 2, F4.one, provide_factory(b))
    assert b.value(lbl) == linear_elementary(F4, 2, 1, 2, F4.one).expand()
    # with a = 1 the first admissible b is g and c = g^2/(1+g) = 1
    assert "char 2" in b.steps[-1].note


@pytest.mark.parametrize("order", [4, 8])
def test_cubic_identity_records_its_displayed_halves(order):
    """For every (a, b) with b != a and c = b^2/(a-b): the halves
    eps_{1,f1}, eps_{1,f2} with f1 = cb x2^2 + cb^2 x2 and
    f2 = bc x2^2 + bc^2 x2, then eps_{1,a x2}; the certificate verifies."""
    field = Field.of_order(order)
    x2 = Polynomial.variable(field, 2, 2)
    for a in field.units():
        for b in field.units():
            if b == a:
                continue
            c = b * b / (a - b)
            bld = builder(field, kind="normal-cotame")
            lbl = cubic_identity(bld, 1, 2, a, b, provide_factory(bld))
            want = [(x2 * x2).scale(c * b) + x2.scale(c * b * b),
                    (x2 * x2).scale(b * c) + x2.scale(b * c * c),
                    x2.scale(a)]
            assert [s.value for s in bld.steps] == [
                elementary(field, 2, 1, f).expand() for f in want]
            assert bld.steps[-1].label == lbl
            rep = verify_certificate(bld.to_certificate(lbl))
            assert rep.verdict == "PASS", rep.format()


def test_linear_elementary_f2_rejected(F2):
    b = CertBuilder(F2, 2, "normal-cotame")
    with pytest.raises(UnsupportedField):
        linear_elementary_from_translations(
            b, 1, 2, F2.one, provide_factory(b))


# -- translation from a special affine map ------------------------------------------------


def test_translation_from_special_affine_dilation():
    from polyauto.autos import sl_dilation
    b = CertBuilder(Q, 2, KIND_SLIN)
    alpha = b.add_seed(sl_dilation(Q, 2, 1, 2, 2), label="a")
    lbl = translation_from_special_affine(b, alpha)
    # first row-major entry with a_{ij} != delta is (1,1): the translation
    # has entries a_{k,1} - delta_{k,1} = (1, 0)
    assert b.value(lbl) == translation(Q, 2, [1, 0]).expand()


def test_translation_from_special_affine_passthrough():
    b = CertBuilder(Q, 2, "normal-cotame")
    alpha = b.add_seed(translation(Q, 2, [1, 2]), label="a")
    assert translation_from_special_affine(b, alpha) == alpha


def test_translation_from_special_affine_identity():
    b = CertBuilder(Q, 2, "normal-cotame")
    alpha = b.add_seed(translation(Q, 2, [0, 0]), label="a")
    with pytest.raises(IdentityInput):
        translation_from_special_affine(b, alpha)


# -- the monomial recursion -----------------------------------------------------------------


def test_case1_rational_formula():
    # eps_{1, x2^2}: deterministic unit choice picks b = -1, c = a/(1-b^3) = 1/2
    ctx = SlinContext(Q, 2)
    cert = slin_from_monomial_elementary(ctx, 1, 1, (0, 2))
    assert cert.meta["cases"] == "1"
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    # the forced-b variant of the same identity: b = 2 gives c = -1/7
    b = CertBuilder(Q, 2, KIND_SLIN)
    from polyauto.autos import sl_dilation
    delta = sl_dilation(Q, 2, 1, 2, 2)
    seed = b.add_seed(delta)
    c = Q.elem(Fraction(-1, 7))
    conj = elementary(Q, 2, 1,
                      Polynomial.monomial(Q, 2, c, (0, 2)))
    lbl = b.add_step([(None, seed, 1), (conj, seed, -1)],
                     expect=elementary(
                         Q, 2, 1,
                         Polynomial.monomial(Q, 2, Q.one, (0, 2))).expand())
    assert b.value(lbl) == elementary(
        Q, 2, 1, Polynomial.variable(Q, 2, 2) ** 2).expand()


def test_base_cases():
    ctx = SlinContext(Q, 2)
    cert = slin_from_monomial_elementary(ctx, 1, Fraction(5, 3), (0, 0))
    assert verify_certificate(cert).verdict == "PASS"
    cert = slin_from_monomial_elementary(ctx, 1, 2, (0, 1))
    assert verify_certificate(cert).verdict == "PASS"


def test_case_2b_f4(F4):
    ctx = SlinContext(F4, 2)
    cert = slin_from_monomial_elementary(ctx, 1, F4.generator(), (0, 5))
    assert "2b" in cert.meta["cases"]
    assert verify_certificate(cert).verdict == "PASS"
    assert int(cert.meta["depth"]) <= 5 + 2


def test_axis_normalization(F9):
    ctx = SlinContext(F9, 3)
    cert = slin_from_monomial_elementary(ctx, 2, F9.generator(), (3, 0, 1))
    assert verify_certificate(cert).verdict == "PASS"


def test_monomial_involving_axis_rejected():
    ctx = SlinContext(Q, 2)
    with pytest.raises(IndexClash):
        slin_from_monomial_elementary(ctx, 1, 1, (2, 1))


def test_elementary_axis_out_of_range_rejected(F4):
    with pytest.raises(IndexOutOfRange):
        slin_from_elementary(SlinContext(F4, 2), 3, Polynomial.one(F4, 2))


def test_monomial_axis_out_of_range_rejected(F4):
    with pytest.raises(IndexOutOfRange):
        slin_from_monomial_elementary(SlinContext(F4, 2), 3, 1, (0, 2))


def test_monomial_exponent_vector_of_wrong_length_rejected(F4):
    # a one-entry vector for n = 2 used to certify eps_{1,1} silently
    with pytest.raises(ArityMismatch):
        slin_from_monomial_elementary(SlinContext(F4, 2), 1, 1, (0,))


def test_monomial_negative_exponent_rejected(F4):
    # used to end in a misleading NoSuchUnit from the Frobenius case
    with pytest.raises(NegativeExponent, match="negative exponent"):
        slin_from_monomial_elementary(SlinContext(F4, 2), 1, 1, (0, -1))


def test_prime_fields_rejected(F2, F5):
    for f in (F2, F5):
        with pytest.raises(UnsupportedField):
            slin_from_monomial_elementary(SlinContext(f, 2), 1, 1, (0, 2))


def test_slin_from_elementary_sum(F9):
    ctx = SlinContext(Q, 2)
    x2 = Polynomial.variable(Q, 2, 2)
    cert = slin_from_elementary(ctx, 1, x2 + x2 * x2)
    assert verify_certificate(cert).verdict == "PASS"
    # over F9 with an x1^3 target on axis 2
    ctx9 = SlinContext(F9, 2)
    x1 = Polynomial.variable(F9, 2, 1)
    cert = slin_from_elementary(ctx9, 2, x1 ** 3)
    assert verify_certificate(cert).verdict == "PASS"
    with pytest.raises(IdentityInput):
        slin_from_elementary(ctx, 1, Polynomial.zero(Q, 2))
