"""Value semantics of the record classes (polyauto.record.Record): equality
and hashing by field values, a repr that names the fields, the constructor
defaults and keywords, and the checks their constructors make."""

import pytest

from polyauto.autos import Classification
from polyauto.certificates import CheckRecord, VerificationReport
from polyauto.errors import IndexClash, InvalidFactor
from polyauto.maps import (Certificate, Elementary, Endo, FactoredAuto, Linear,
                           Seed, Step, Translation, WordItem)
from polyauto.poly import Polynomial
from polyauto.record import Record
from polyauto.reduce_core import CommutatorProbe
from polyauto.slin import SlinContext


def test_equal_records_compare_and_hash_equal(Q):
    x2 = Polynomial.variable(Q, 2, 2)
    a, b = Elementary(Q, 2, 1, x2), Elementary(Q, 2, 1, x2 + x2)
    assert a == Elementary(Q, 2, 1, Polynomial.variable(Q, 2, 2))
    assert hash(a) == hash(Elementary(Q, 2, 1, x2))
    assert a != b and len({a, b, Elementary(Q, 2, 1, x2)}) == 2
    assert CheckRecord("s1", "word", True) == CheckRecord("s1", "word", True)
    assert CheckRecord("s1", "word", True) != CheckRecord("s1", "word", False)
    assert WordItem(None, "s1", 1) != WordItem(None, "s1", -1)
    assert {WordItem(None, "s1", 1): 0}[WordItem(None, "s1", 1)] == 0


def test_records_of_different_classes_differ(Q):
    # same slot values, different class: never equal, as with dataclasses
    assert CheckRecord("a", "b", True) != ("a", "b", True, "")
    v = (Q.zero, Q.zero)
    assert Translation(Q, 2, v) != Linear(Q, 2, ((Q.one, Q.zero),
                                                 (Q.zero, Q.one)))


def test_repr_names_the_fields():
    assert repr(CheckRecord("s1", "word", False, "bad")) == (
        "CheckRecord(label='s1', check='word', ok=False, message='bad')")
    report = VerificationReport("PASS", [])
    assert repr(report) == "VerificationReport(verdict='PASS', records=[])"


def test_defaults_and_keywords(Q):
    ident = Endo.identity(Q, 2)
    assert Step("s1", (), ident, ident).note == ""
    assert CheckRecord("s1", "word", True).message == ""
    one = Certificate(Q, 2, "k", [], [], "s1")
    two = Certificate(Q, 2, "k", [], [], "s1")
    assert one.terminal_cite == "" and one.meta == {} and one == two
    one.meta["path"] = "m1"
    assert two.meta == {} and one != two
    alpha = FactoredAuto.identity(Q, 2)
    probe = CommutatorProbe(alpha, 1, c=2, eps=alpha, gamma=ident,
                            gamma_word=alpha)
    assert (probe.c, probe.eps, probe.gamma, probe.gamma_word) == (
        2, alpha, ident, alpha)
    assert CommutatorProbe(alpha, 1).gamma_word is None
    assert Seed("s1", alpha) == Seed(label="s1", word=alpha)


def test_classification_by_keywords():
    flags = dict(identity=False, translation=False, linear=True,
                 affine=True, diagonal_affine=False, elementary=False,
                 triangular=False, parabolic=False, special=True)
    c = Classification(**flags)
    assert c.linear and not c.identity and c == Classification(**flags)


def test_constructor_checks_are_kept(Q):
    x1 = Polynomial.variable(Q, 2, 1)
    with pytest.raises(InvalidFactor, match="may not involve x1"):
        Elementary(Q, 2, 1, x1)
    with pytest.raises(InvalidFactor, match="index 3 out of range"):
        Elementary(Q, 2, 3, x1)
    with pytest.raises(IndexClash, match="n >= 2"):
        SlinContext(Q, 1)
    with pytest.raises(InvalidFactor, match="singular"):
        Linear(Q, 2, ((Q.one, Q.one), (Q.one, Q.one)))
    with pytest.raises(InvalidFactor, match="n x n"):
        Linear(Q, 2, ((Q.one,),))
    with pytest.raises(InvalidFactor, match="length"):
        Translation(Q, 2, (Q.one,))


def test_records_have_no_instance_dict(Q):
    for record in (CheckRecord("s1", "word", True), SlinContext(Q, 2)):
        assert isinstance(record, Record)
        assert not hasattr(record, "__dict__")
