"""Composition is the engines' and the verifier's unit of work, and it is
tracked like a benchmark: certifying a fixed set of inputs, or verifying the
corpus certificates, makes exactly the number of composes recorded here.

Two counts are taken, and both must match: the calls of `maps.compose`,
wherever a module binds it, and the PreparedImages built.  Every compose
prepares its images once (a multi-term power and a substitution into raw
images build one too), so a compose that skipped the preparation lowers the
second count, and work that went round `compose` lowers the first.  A
change that moves a count changes its figure in its own diff and says why
in CHANGES.md."""

import sys

from polyauto import maps
from polyauto.certificates import parse_certificate, verify_certificate
from polyauto.cotame import certify_normally_cotame
from polyauto.errors import AlgebraError
from polyauto.fields import Field
from polyauto.maps import FactoredAuto
from polyauto.poly import PreparedImages
from polyauto.slin import SlinContext, slin_from_monomial_elementary
from test_acceptance import corpus_words, monomials_up_to
from test_certificates import corpus_texts

# (calls of compose, PreparedImages built)
CERTIFY_COUNTS = (1211, 1305)
VERIFY_COUNTS = (380, 383)


def certify_fixed_set(words):
    """The F4 and F8 slin rows at n = 2 to degree 6, one context per row,
    then the light corpus words as fresh words with no cached expansion."""
    for q in (4, 8):
        ctx = SlinContext(Field.of_order(q), 2)
        for a in ctx.field.units():
            for free in monomials_up_to(1, 6):
                try:
                    slin_from_monomial_elementary(ctx, 1, a, (0,) + free)
                except AlgebraError:
                    pass  # refused inputs count up to their refusal
    for name, word in words:
        if "-triangular" not in name:
            certify_normally_cotame(
                FactoredAuto(word.field, word.nvars, word.factors))


def count_composes(monkeypatch, work) -> tuple[int, int]:
    """(calls of compose, PreparedImages built) while `work` runs."""
    composes = prepared = 0
    compose, init = maps.compose, PreparedImages.__init__

    def counting_compose(*args, **kwargs):
        nonlocal composes
        composes += 1
        return compose(*args, **kwargs)

    def counting_init(self, images, field):
        nonlocal prepared
        prepared += 1
        init(self, images, field)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "polyauto" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is compose:
                    monkeypatch.setattr(module, attr, counting_compose)
    monkeypatch.setattr(PreparedImages, "__init__", counting_init)
    work()
    monkeypatch.undo()
    return composes, prepared


def test_compose_count_is_the_recorded_one(monkeypatch):
    words = corpus_words()  # built before the count starts
    counts = count_composes(monkeypatch, lambda: certify_fixed_set(words))
    assert counts == CERTIFY_COUNTS, \
        f"certifying the fixed set made {counts} (composes, preparations)"


def test_verifier_compose_count_is_the_recorded_one(monkeypatch):
    """The 25 corpus certificates, read afresh so that no expansion is
    cached, and verified."""
    certs = [parse_certificate(text) for text in corpus_texts()]
    counts = count_composes(monkeypatch, lambda: [
        verify_certificate(cert) for cert in certs])
    assert counts == VERIFY_COUNTS, \
        f"verifying the corpus certificates made {counts} " \
        "(composes, preparations)"
