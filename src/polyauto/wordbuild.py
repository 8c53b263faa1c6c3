"""Construction-side certificate assembly.

CertBuilder tracks the environment of derived values (and their inverses),
evaluates each emitted word immediately, and refuses to record a step whose
expansion disagrees with the engine's expected value.  Every value it holds
is special: seeds are checked, and products and conjugates keep a constant
determinant of 1, so the engines never ask again.  The independent
verifier in polyauto.certificates re-checks everything from the serialized
data; this module is the only place construction and evaluation meet.
"""

from __future__ import annotations

from functools import partial, reduce

from .autos import Endo, FactoredAuto, compose
from .certificates import Certificate, Seed, Step, WordItem
from .errors import InternalIdentityFailure, NotSpecial
from .fields import Field
from .poly import DEFAULT_DEGREE_CAP


class CertBuilder:
    def __init__(self, field: Field, nvars: int, kind: str,
                 cap: int | None = DEFAULT_DEGREE_CAP):
        self.field = field
        self.nvars = nvars
        self.kind = kind
        self.cap = cap
        self.seeds: list[Seed] = []
        self.steps: list[Step] = []
        self.meta: dict[str, str] = {}
        self._env: dict[str, tuple[Endo, Endo]] = {}
        self._seed_index: dict[Endo, str] = {}
        self._counter = 0

    # -- labels -----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def value(self, label: str) -> Endo:
        return self._env[label][0]

    def is_step(self, label: str) -> bool:
        return any(s.label == label for s in self.steps)

    # -- seeds ---------------------------------------------------------------

    def add_seed(self, word: FactoredAuto,
                 label: str | None = None) -> str:
        value = word.expand(cap=self.cap)
        if not word.det().is_one():
            raise NotSpecial("seed has Jacobian determinant != 1")
        existing = self._seed_index.get(value)
        if existing is not None and label is None:
            return existing
        label = label or self._fresh("s")
        inverse = word.inverse().expand(cap=self.cap)
        self.seeds.append(Seed(label, word))
        self._env[label] = (value, inverse)
        self._seed_index.setdefault(value, label)
        return label

    # -- steps ------------------------------------------------------------------

    def add_step(self, items, expect: Endo | None = None,
                 note: str = "", label: str | None = None) -> str:
        """items: iterable of (conjugator|None, base_label, exponent).

        One pass over the items expands each conjugator g and its inverse
        once, for both g^{-1} base^e g and g^{-1} base^{-e} g; the value is
        the first ones' product in word order, the inverse the second ones'
        in reverse order."""
        cap = self.cap
        fold = partial(compose, cap=cap)
        word_items, values, inverses = [], [], []
        for conj, base, exponent in items:
            if base not in self._env:
                raise KeyError(f"unknown base {base!r}")
            word_items.append(WordItem(conj, base, exponent))
            core, core_inv = self._env[base]
            if exponent != 1:
                core, core_inv = core_inv, core
            if conj is not None and conj.factors:
                g = conj.expand(cap=cap)
                ginv = conj.inverse().expand(cap=cap)
                core = reduce(fold, (ginv, core, g))
                core_inv = reduce(fold, (ginv, core_inv, g))
            values.append(core)
            inverses.append(core_inv)
        ident = Endo.identity(self.field, self.nvars)
        value = reduce(fold, values, ident)
        inverse = reduce(fold, reversed(inverses), ident)
        if expect is not None and value != expect:
            raise InternalIdentityFailure(
                f"word expansion does not match the predicted value "
                f"(note: {note or 'unnamed step'})")
        label = label or self._fresh("t")
        self.steps.append(Step(label, tuple(word_items), value, inverse, note))
        self._env[label] = (value, inverse)
        return label

    def passthrough(self, base: str, note: str = "") -> str:
        """A step that just restates a seed/step value (used when a seed
        itself must become the terminal)."""
        return self.add_step([(None, base, 1)], expect=self.value(base),
                             note=note)

    # -- output --------------------------------------------------------------------

    def to_certificate(self, terminal: str, cite: str = "") -> Certificate:
        return Certificate(self.field, self.nvars, self.kind,
                           list(self.seeds), list(self.steps),
                           terminal, cite, dict(self.meta))
