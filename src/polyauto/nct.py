"""Normal-closure membership certificates: the records.  Their canonical
text (.nct) is written by `textio.serialize_certificate` and read by
`polyauto.certificates`.

A certificate names a field and arity, a set of seed automorphisms (given as
factored words, so they are invertible by construction), and a chain of
steps.  Each step is a word whose items are conjugated powers of seeds or of
earlier steps:

    item = conjugator^{-1} * base^{exponent} * conjugator

and the step claims that the product of its items equals a stated value,
and states that value's inverse.  The terminal step must claim a nontrivial
elementary automorphism.  The engines build these records;
polyauto.certificates verifies them.
"""

from __future__ import annotations

from .fields import Field
from .maps import Endo, FactoredAuto
from .record import Record

KIND_COTAME = "normal-cotame"
KIND_SLIN = "slin-membership"
FORMAT_VERSION = "1"


class Seed(Record):
    __slots__ = ("label", "word")

    def __init__(self, label: str, word: FactoredAuto):
        self.label = label
        self.word = word


class WordItem(Record):
    __slots__ = ("conjugator", "base", "exponent")

    def __init__(self, conjugator: FactoredAuto | None, base: str,
                 exponent: int):
        self.conjugator = conjugator  # None means the identity
        self.base = base
        self.exponent = exponent


class Step(Record):
    __slots__ = ("label", "items", "value", "inverse", "note")

    def __init__(self, label: str, items: tuple[WordItem, ...], value: Endo,
                 inverse: Endo, note: str = ""):
        self.label = label
        self.items = items
        self.value = value
        self.inverse = inverse
        self.note = note


class Certificate(Record):
    __slots__ = ("field", "nvars", "kind", "seeds", "steps", "terminal",
                 "terminal_cite", "meta")

    def __init__(self, field: Field, nvars: int, kind: str, seeds: list[Seed],
                 steps: list[Step], terminal: str, terminal_cite: str = "",
                 meta: dict[str, str] | None = None):
        self.field = field
        self.nvars = nvars
        self.kind = kind
        self.seeds = seeds
        self.steps = steps
        self.terminal = terminal
        self.terminal_cite = terminal_cite
        self.meta = {} if meta is None else meta
