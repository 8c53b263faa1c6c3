"""Normal-closure membership certificates: the records and their
canonical text (.nct).

A certificate names a field and arity, a set of seed automorphisms (given as
factored words, so they are invertible by construction), and a chain of
steps.  Each step is a word whose items are conjugated powers of seeds or of
earlier steps:

    item = conjugator^{-1} * base^{exponent} * conjugator

and the step claims that the product of its items equals a stated value,
and states that value's inverse.  The terminal step must claim a nontrivial
elementary automorphism.  The engines build these records and write them;
polyauto.certificates reads and verifies them.
"""

from __future__ import annotations

from .fields import Field
from .maps import Endo, FactoredAuto
from .record import Record
from .textio import components_text, factored_to_text

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


def serialize_certificate(cert: Certificate) -> str:
    """Canonical text form (.nct).  Byte-stable for equal certificates."""
    lines = [f"NCT {FORMAT_VERSION}"]
    lines.append(f"FIELD {cert.field.tag()}")
    lines.append(f"VARS {cert.nvars}")
    lines.append(f"KIND {cert.kind}")
    for key in sorted(cert.meta):
        lines.append(f"META {key} {cert.meta[key]}")
    for seed in cert.seeds:
        lines.append(f"SEED {seed.label} {factored_to_text(seed.word)}")
    for step in cert.steps:
        lines.append(f"STEP {step.label}" + (f" # {step.note}" if step.note else ""))
        for item in step.items:
            base = f"  ITEM BASE {item.base} EXP {item.exponent:+d}"
            if item.conjugator is not None and item.conjugator.factors:
                base += f" CONJ {factored_to_text(item.conjugator)}"
            lines.append(base)
        lines.append(f"  VALUE {components_text(step.value)}")
        lines.append(f"  INV {components_text(step.inverse)}")
    cite = f" CITE {cert.terminal_cite}" if cert.terminal_cite else ""
    lines.append(f"TERMINAL {cert.terminal}{cite}")
    lines.append("END")
    return "\n".join(lines) + "\n"
