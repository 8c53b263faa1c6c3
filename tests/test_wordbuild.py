"""CertBuilder.add_step proves a predicted value with one compose,
expect * INV = id, and folds the items' product instead whenever a degree
bound of that fold or of the proof exceeds the cap.  Either way a wrong
prediction is refused, and a capped step ends as the fold ends."""

from functools import partial, reduce

import pytest

from polyauto import wordbuild
from polyauto.autos import elementary
from polyauto.certificates import verify_certificate
from polyauto.errors import DegreeCapExceeded, InternalIdentityFailure
from polyauto.fields import Field
from polyauto.maps import KIND_COTAME, Endo, compose
from polyauto.poly import Polynomial

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
def proofs(monkeypatch):
    """The predicted maps that add_step composed on the left, in order."""
    seen = []

    def spy(phi, psi, **cap):
        seen.append(phi)
        return compose(phi, psi, **cap)

    monkeypatch.setattr(wordbuild, "compose", spy)
    return seen


# cap 1024: the fold's bound 2 * 2 and the proof's 1 * 1 fit, so the step is
# proved; cap 3: the fold's bound does not fit, so it is folded
@pytest.mark.parametrize("cap, proved", [(1024, True), (3, False)])
@pytest.mark.parametrize("field", [Q, F4], ids=["Q", "F4"])
def test_a_prediction_is_proved_or_folded(proofs, field, cap, proved):
    builder, items, value = two_seed_step(field, cap)
    label = builder.add_step(items, expect=value)
    assert builder.value(label) == value
    assert any(phi is value for phi in proofs) == proved
    cert = builder.to_certificate(label)
    assert verify_certificate(cert, cap=cap).verdict == "PASS"


@pytest.mark.parametrize("cap", [1024, 3])
@pytest.mark.parametrize("field", [Q, F4], ids=["Q", "F4"])
def test_a_changed_coefficient_is_refused(proofs, field, cap):
    builder, items, value = two_seed_step(field, cap)
    wrong = changed(value)
    with pytest.raises(InternalIdentityFailure, match="predicted value"):
        builder.add_step(items, expect=wrong)
    assert any(phi is wrong for phi in proofs) == (cap == 1024)
    assert not builder.steps


def test_the_proofs_own_bound_falls_back_to_the_fold(proofs):
    # one item of degree 2 fits cap 3, but deg V * deg INV = 4 does not
    builder = wordbuild.CertBuilder(Q, 2, KIND_COTAME, cap=3)
    s = builder.add_seed(eps(Q, lambda x2: x2 * x2))
    value = eps(Q, lambda x2: -x2 * x2).expand()
    label = builder.add_step([(None, s, -1)], expect=value)
    assert builder.value(label) == value
    assert not any(phi is value for phi in proofs)
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
