"""Construction-side certificate assembly.

CertBuilder tracks the environment of derived values (and their inverses),
evaluates each emitted word immediately, and refuses to record a step whose
expansion disagrees with the engine's expected value.  The independent
verifier in polyauto.certificates re-checks everything from the serialized
data; this module is the only place construction and evaluation meet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .autos import Endo, FactoredAuto, compose, jacobian_det
from .certificates import Certificate, Seed, Step, WordItem
from .errors import InternalIdentityFailure, NotSpecial
from .fields import Field
from .poly import DEFAULT_DEGREE_CAP, Polynomial


class CertBuilder:
    def __init__(self, field: Field, nvars: int, kind: str,
                 cap: Optional[int] = DEFAULT_DEGREE_CAP):
        self.field = field
        self.nvars = nvars
        self.kind = kind
        self.cap = cap
        self.seeds: List[Seed] = []
        self.steps: List[Step] = []
        self.meta: Dict[str, str] = {}
        self._env: Dict[str, Tuple[Endo, Endo]] = {}
        self._seed_index: Dict[Endo, str] = {}
        self._counter = 0

    # -- labels -----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def value(self, label: str) -> Endo:
        return self._env[label][0]

    def inverse(self, label: str) -> Endo:
        return self._env[label][1]

    def is_step(self, label: str) -> bool:
        return any(s.label == label for s in self.steps)

    # -- seeds ---------------------------------------------------------------

    def add_seed(self, word: FactoredAuto,
                 label: Optional[str] = None) -> str:
        value = word.expand(cap=self.cap)
        if jacobian_det(value) != Polynomial.one(self.field, self.nvars):
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

    def add_step(self, items, expect: Optional[Endo] = None,
                 note: str = "", label: Optional[str] = None) -> str:
        """items: iterable of (conjugator|None, base_label, exponent)."""
        word_items = []
        value = Endo.identity(self.field, self.nvars)
        inverse = Endo.identity(self.field, self.nvars)
        for conj, base, exponent in items:
            if base not in self._env:
                raise KeyError(f"unknown base {base!r}")
            word_items.append(WordItem(conj, base, exponent))
        for conj, base, exponent in items:
            value = compose(value, self._item_value(conj, base, exponent),
                            cap=self.cap)
        for conj, base, exponent in reversed(items):
            inverse = compose(inverse,
                              self._item_value(conj, base, -exponent),
                              cap=self.cap)
        if expect is not None and value != expect:
            raise InternalIdentityFailure(
                f"word expansion does not match the predicted value "
                f"(note: {note or 'unnamed step'})")
        label = label or self._fresh("t")
        self.steps.append(Step(label, tuple(word_items), value, inverse, note))
        self._env[label] = (value, inverse)
        return label

    def _item_value(self, conj: Optional[FactoredAuto], base: str,
                    exponent: int) -> Endo:
        core = self._env[base][0 if exponent == 1 else 1]
        if conj is None or not conj.factors:
            return core
        g = conj.expand(cap=self.cap)
        ginv = conj.inverse().expand(cap=self.cap)
        return compose(compose(ginv, core, cap=self.cap), g, cap=self.cap)

    def passthrough(self, base: str, note: str = "") -> str:
        """A step that just restates a seed/step value (used when a seed
        itself must become the terminal)."""
        return self.add_step([(None, base, 1)], expect=self.value(base),
                             note=note)

    def conj_step(self, base: str, g: FactoredAuto, note: str = "") -> str:
        """g^{-1} * base * g."""
        return self.add_step([(g, base, 1)], note=note)

    # -- output --------------------------------------------------------------------

    def to_certificate(self, terminal: str, cite: str = "") -> Certificate:
        return Certificate(self.field, self.nvars, self.kind,
                           list(self.seeds), list(self.steps),
                           terminal, cite, dict(self.meta))
