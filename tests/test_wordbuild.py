"""CertBuilder.add_step proves a predicted value V from its cheaper side:
by the verifier's split, c_1*...*c_j = V * c_k^{-1}*...*c_{j+1}^{-1}, with
INV = invert_endo(V), when the split's degree bound is below the one of the
INV fold, the reversed product of the items' inverses; otherwise (ties, or
a V whose shape is not read and inverted) by V * INV = id with that fold.
It folds the items' product instead whenever a degree bound of that fold or
of the proof exceeds the cap.  Either way a wrong prediction is refused,
and a capped step ends as the fold ends."""

import hashlib
from functools import partial, reduce

import pytest

from polyauto import wordbuild
from polyauto.autos import (elementary, invert_endo, linear_elementary,
                            translation)
from polyauto.certificates import verify_certificate
from polyauto.cli import main
from polyauto.errors import (DegreeCapExceeded, InternalIdentityFailure,
                             InvalidFactor)
from polyauto.fields import Field
from polyauto.maps import (KIND_COTAME, KIND_SLIN, Endo, affine_parts,
                           compose, mat_det)
from polyauto.poly import Polynomial
from test_hostile import within

Q = Field.rationals()
F4 = Field.of_order(4)


def eps(field, f):
    """epsilon_{1, f} in two variables, f given as a function of x2."""
    return elementary(field, 2, 1, f(Polynomial.variable(field, 2, 2)))


def changed(endo):
    """The map with one coefficient of its first component moved by 1."""
    head, *rest = endo.components
    (exps, _), *_ = head.sorted_terms()
    bump = Polynomial.monomial(endo.field, endo.nvars, endo.field.one, exps)
    return Endo(endo.field, endo.nvars, [head + bump, *rest])


def two_seed_step(field, cap):
    """A builder with seeds epsilon_{1, x2^2} and epsilon_{1, x2 - x2^2},
    and the items and value of their product epsilon_{1, x2}."""
    builder = wordbuild.CertBuilder(field, 2, KIND_COTAME, cap=cap)
    s = builder.add_seed(eps(field, lambda x2: x2 * x2))
    t = builder.add_seed(eps(field, lambda x2: x2 - x2 * x2))
    items = [(None, s, 1), (None, t, 1)]
    return builder, items, eps(field, lambda x2: x2).expand()


@pytest.fixture
def composed(monkeypatch):
    """The (phi, psi) of every compose that add_step made, in order."""
    seen = []

    def spy(phi, psi, **cap):
        seen.append((phi, psi))
        return compose(phi, psi, **cap)

    monkeypatch.setattr(wordbuild, "compose", spy)
    return seen


@pytest.fixture
def inverted(monkeypatch):
    """The maps whose inverse add_step read from their shape."""
    seen = []

    def spy(phi, **cap):
        seen.append(phi)
        return invert_endo(phi, **cap)

    monkeypatch.setattr(wordbuild, "invert_endo", spy)
    return seen


# cap 1024: the fold's bound 2 * 2 and the proof's 1 * 1 fit, so the step is
# proved; cap 3: the fold's bound does not fit, so it is folded
@pytest.mark.parametrize("cap, proved", [(1024, True), (3, False)])
@pytest.mark.parametrize("field", [Q, F4], ids=["Q", "F4"])
def test_a_prediction_is_proved_or_folded(composed, field, cap, proved):
    builder, items, value = two_seed_step(field, cap)
    label = builder.add_step(items, expect=value)
    assert builder.value(label) == value
    assert any(phi is value for phi, _ in composed) == proved
    cert = builder.to_certificate(label)
    assert verify_certificate(cert, cap=cap).verdict == "PASS"


@pytest.mark.parametrize("cap", [1024, 3])
@pytest.mark.parametrize("field", [Q, F4], ids=["Q", "F4"])
def test_a_changed_coefficient_is_refused(composed, field, cap):
    builder, items, value = two_seed_step(field, cap)
    wrong = changed(value)
    with pytest.raises(InternalIdentityFailure, match="predicted value"):
        builder.add_step(items, expect=wrong)
    assert any(phi is wrong for phi, _ in composed) == (cap == 1024)
    assert not builder.steps


def test_the_proofs_own_bound_falls_back_to_the_fold(composed):
    # one item of degree 2 fits cap 3, but deg V * deg INV = 4 does not
    builder = wordbuild.CertBuilder(Q, 2, KIND_COTAME, cap=3)
    s = builder.add_seed(eps(Q, lambda x2: x2 * x2))
    value = eps(Q, lambda x2: -x2 * x2).expand()
    label = builder.add_step([(None, s, -1)], expect=value)
    assert builder.value(label) == value
    assert not any(phi is value for phi, _ in composed)
    with pytest.raises(InternalIdentityFailure):
        builder.add_step([(None, s, -1)], expect=changed(value))


def conjugate(g, core, cap):
    """g^{-1} core g folded from the identity under `cap`."""
    fold = partial(compose, cap=cap)
    return reduce(fold, (g.inverse().expand(), core, g.expand()),
                  Endo.identity(g.field, g.nvars))


@pytest.mark.parametrize("expect", [True, False])
def test_a_capped_step_stops_as_the_fold_stops(expect):
    # t = epsilon_{1, x2^2} epsilon_{2, x3^2} has degree 4, its inverse
    # degree 2, and g = epsilon_{2, x1^3} degree 3.  The bound 3 * 4 * 3
    # exceeds cap 7; the fold conjugates the value before the inverse, and
    # meets the cap at degree 12 there, at degree 8 in the inverse
    x = partial(Polynomial.variable, Q, 3)
    t = elementary(Q, 3, 1, x(2) ** 2) * elementary(Q, 3, 2, x(3) ** 2)
    g = elementary(Q, 3, 2, x(1) ** 3)
    with pytest.raises(DegreeCapExceeded, match="degree 12 exceeds cap 7"):
        conjugate(g, t.expand(), cap=7)
    with pytest.raises(DegreeCapExceeded, match="degree 8 exceeds cap 7"):
        conjugate(g, t.inverse().expand(), cap=7)
    value = conjugate(g, t.expand(), cap=None) if expect else None
    builder = wordbuild.CertBuilder(Q, 3, KIND_COTAME, cap=7)
    s = builder.add_seed(t)
    with pytest.raises(DegreeCapExceeded, match="degree 12 exceeds cap 7"):
        builder.add_step([(g, s, 1)], expect=value)
    # under a cap that the fold fits, the step holds the folded value
    builder = wordbuild.CertBuilder(Q, 3, KIND_COTAME, cap=36)
    s = builder.add_seed(t)
    label = builder.add_step([(g, s, 1)], expect=value)
    assert builder.value(label) == conjugate(g, t.expand(), cap=36)


# -- the split and the tie -----------------------------------------------------

@pytest.mark.parametrize("field", [Q, F4], ids=["Q", "F4"])
def test_a_collapse_shaped_step_is_proved_by_the_split(composed, inverted,
                                                       field):
    # t^{-1} (g^{-1} t g) with t = epsilon_{2, x1^2} and g a translation of
    # x1 collapses to the affine epsilon_{2, 2c x1 + c^2}: the INV fold's
    # bound is 2 * 2, the split's at j = 1 is max(2, 1 * 2)
    t = elementary(field, 2, 2, Polynomial.variable(field, 2, 1) ** 2)
    g = translation(field, 2, (field.generator() if field.order else 3, 0))
    value = (t.inverse() * g.inverse() * t * g).expand()
    assert value.deg() == 1
    builder = wordbuild.CertBuilder(field, 2, KIND_COTAME)
    s = builder.add_seed(t)
    label = builder.add_step([(None, s, -1), (g, s, 1)], expect=value)
    inverse = invert_endo(value)
    assert builder.steps[-1].inverse == inverse
    assert inverted == [value]
    # the last compose is V * INV, and the INV fold c_2^{-1} * c_1^{-1}
    # never ran: no compose has c_1^{-1}, the seed's value, on its right
    assert composed[-1][0] is value and composed[-1][1] == inverse
    assert not any(psi is builder.value(s) for _, psi in composed)
    assert verify_certificate(builder.to_certificate(label)).verdict == "PASS"


def test_a_split_whose_own_proof_exceeds_the_cap_keeps_the_inv_fold(
        composed, inverted):
    # t = epsilon_{2, x1^2} epsilon_{3, x2^2} has degree 2 and its inverse
    # degree 4, so the split's bound 2 is below the INV fold's 4 and the
    # value is inverted, but deg V * deg INV = 8 exceeds cap 5: the step is
    # folded and keeps the INV fold, the seed's inverse
    x = partial(Polynomial.variable, Q, 3)
    t = elementary(Q, 3, 2, x(1) ** 2) * elementary(Q, 3, 3, x(2) ** 2)
    value, inverse = t.expand(), t.inverse().expand()
    assert (value.deg(), inverse.deg()) == (2, 4)
    builder = wordbuild.CertBuilder(Q, 3, KIND_COTAME, cap=5)
    s = builder.add_seed(t)
    label = builder.add_step([(None, s, 1)], expect=value)
    assert inverted == [value]
    assert builder.steps[-1].inverse == inverse
    assert not any(phi is value for phi, _ in composed)
    # the verifier passes the step under the same cap (the terminal, not
    # an elementary map, is refused on its own check)
    records = verify_certificate(builder.to_certificate(label), cap=5).records
    assert [(r.check, r.ok) for r in records if r.label == label] == [
        ("inverse-pair", True), ("word-equals-value", True),
        ("terminal-elementary", False)]
    with pytest.raises(InternalIdentityFailure, match="predicted value"):
        builder.add_step([(None, s, 1)], expect=changed(value))


def test_a_slin_shaped_tie_keeps_the_inv_fold(composed, inverted):
    # the commutator of two linear elementary maps is one: every item and
    # V have degree 1, so the split's bound ties with the INV fold's
    a = linear_elementary(F4, 3, 1, 2, F4.generator())
    b = linear_elementary(F4, 3, 2, 3, F4.one)
    value = (a.inverse() * b.inverse() * a * b).expand()
    builder = wordbuild.CertBuilder(F4, 3, KIND_SLIN)
    sa, sb = builder.add_seed(a), builder.add_seed(b)
    label = builder.add_step([(None, sa, -1), (None, sb, -1), (None, sa, 1),
                              (None, sb, 1)], expect=value)
    assert builder.value(label) == value
    assert inverted == []
    assert composed[-1][0] is value
    assert not any(phi is value for phi, _ in composed[:-1])


@pytest.mark.parametrize("cap", [1024, 3])
def test_a_changed_prediction_with_a_singular_linear_part_is_refused(
        composed, inverted, cap):
    # over F4 the changed x1 coefficient of (x1 + x2, x2) is 1 + 1 = 0
    builder, items, value = two_seed_step(F4, cap)
    wrong = changed(value)
    assert mat_det(F4, affine_parts(wrong)[0]).is_zero()
    with pytest.raises(InvalidFactor, match="singular"):
        invert_endo(wrong)
    with pytest.raises(InternalIdentityFailure, match="predicted value"):
        builder.add_step(items, expect=wrong)
    assert inverted == ([wrong] if cap == 1024 else [])
    assert not builder.steps


# the FOUND [Q,3] 2-triangular word, whose `m=2 collapse c=1` step took
# 40-50 s of CPU time when the builder folded INV
STALLED = ("[Q,3] E(2; x1) * E(2; -3*x3) * E(2; 0) * "
           "T(-1; 3, -1/2*x1^2; -1/3, -2*x1^2*x2+x1*x2^2) * E(1; -2*x3) * "
           "T(-3; -3, 1/2*x1^2-1; 1/9) * E(2; -3/2*x3) * E(1; 1/2*x2) * "
           "E(3; 0)")


def test_the_stalled_collapse_word_certifies_within_five_seconds(tmp_path,
                                                                 capsys):
    path = tmp_path / "c.nct"
    with within(5):
        assert main(["certify", STALLED, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "5a11e316d4bc94cfb6205f6c7773417e8d72a259e9615bbf1bca60fc192e7fff"
