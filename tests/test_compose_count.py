"""Composition is the engines' and the verifier's unit of work, and it is
tracked like a benchmark: certifying a fixed set of inputs, or verifying the
corpus certificates, may not make more composes than a ceiling recorded
here.  Every compose prepares its images once, so the count is of
PreparedImages constructions (a multi-term power and a substitution into raw
images build one too).  A change that raises a count raises its ceiling in
its own diff and says why in CHANGES.md."""

from polyauto.autos import FactoredAuto
from polyauto.certificates import parse_certificate, verify_certificate
from polyauto.cotame import certify_normally_cotame
from polyauto.errors import AlgebraError
from polyauto.fields import Field
from polyauto.poly import PreparedImages
from polyauto.slin import SlinContext, slin_from_monomial_elementary
from test_acceptance import corpus_words, monomials_up_to
from test_certificates import corpus_texts

CEILING = 1348
VERIFY_CEILING = 447


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


def count_composes(monkeypatch, work) -> int:
    count = 0
    new = PreparedImages.__new__

    def counting(cls, images, field):
        nonlocal count
        count += 1
        return new(cls, images, field)

    monkeypatch.setattr(PreparedImages, "__new__", counting)
    work()
    monkeypatch.undo()
    return count


def test_compose_count_is_within_the_ceiling(monkeypatch):
    words = corpus_words()  # built before the count starts
    count = count_composes(monkeypatch, lambda: certify_fixed_set(words))
    assert count <= CEILING, f"certifying the fixed set made {count} composes"


def test_verifier_compose_count_is_within_its_ceiling(monkeypatch):
    """The 25 corpus certificates, read afresh so that no expansion is
    cached, and verified."""
    certs = [parse_certificate(text) for text in corpus_texts()]
    count = count_composes(monkeypatch, lambda: [
        verify_certificate(cert) for cert in certs])
    assert count <= VERIFY_CEILING, \
        f"verifying the corpus certificates made {count} composes"
