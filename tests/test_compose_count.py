"""Composition is the engines' unit of work, and it is tracked like a
benchmark: certifying a fixed set of inputs may not make more composes than
a ceiling recorded here.  Every compose prepares its images once, so the
count is of PreparedImages constructions (a multi-term power and a
substitution into raw images build one too).  A change that raises the
count raises CEILING in its own diff and says why in CHANGES.md."""

from polyauto.autos import FactoredAuto
from polyauto.cotame import certify_normally_cotame
from polyauto.errors import AlgebraError
from polyauto.fields import Field
from polyauto.poly import PreparedImages
from polyauto.slin import SlinContext, slin_from_monomial_elementary
from test_acceptance import corpus_words, monomials_up_to

CEILING = 1377


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


def test_compose_count_is_within_the_ceiling(monkeypatch):
    count = 0
    new = PreparedImages.__new__

    def counting(cls, images, field):
        nonlocal count
        count += 1
        return new(cls, images, field)

    words = corpus_words()  # built before the count starts
    monkeypatch.setattr(PreparedImages, "__new__", counting)
    certify_fixed_set(words)
    assert count <= CEILING, f"certifying the fixed set made {count} composes"
