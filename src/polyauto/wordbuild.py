"""Construction-side certificate assembly.

CertBuilder tracks the environment of derived values and their exact
inverses, evaluates each emitted word immediately, and refuses to record a
step whose value disagrees with the engine's prediction.  A step's INV, the
reversed product of its items' inverses, is the exact two-sided inverse of
the items' product P, so V * INV = id proves a prediction V = V * INV * P
= P with one compose.  P is folded only without a prediction, or when a
degree bound of that fold or of the proof exceeds the cap; under both
bounds no skipped compose could meet the cap.  Every value held is special:
seeds are checked, and products and conjugates keep a constant determinant
of 1, so the engines never ask again.  The independent verifier in
polyauto.certificates re-checks everything from the serialized data; this
module is the only place construction and evaluation meet.
"""

from __future__ import annotations

from functools import partial, reduce
from math import prod

from .errors import InternalIdentityFailure, NotSpecial
from .fields import Field
from .maps import (Certificate, Endo, FactoredAuto, Seed, Step, WordItem,
                   compose)
from .poly import DEFAULT_DEGREE_CAP, cap_limit


class CertBuilder:
    def __init__(self, field: Field, nvars: int, kind: str,
                 cap: int | None = DEFAULT_DEGREE_CAP):
        self.field = field
        self.nvars = nvars
        self.kind = kind
        self.limit = cap_limit(cap)  # the one bound every cap check meets
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
        value = word.expand(cap=self.limit)
        if not word.det().is_one():
            raise NotSpecial("seed has Jacobian determinant != 1")
        existing = self._seed_index.get(value)
        if existing is not None and label is None:
            return existing
        label = label or self._fresh("s")
        inverse = word.inverse().expand(cap=self.limit)
        self.seeds.append(Seed(label, word))
        self._env[label] = (value, inverse)
        self._seed_index.setdefault(value, label)
        return label

    # -- steps ------------------------------------------------------------------

    def add_step(self, items, expect: Endo | None = None,
                 note: str = "") -> str:
        """items: iterable of (conjugator|None, base_label, exponent).

        Item g^{-1} base^e g has the inverse g^{-1} base^{-e} g, each g and
        g^{-1} expanded once, and INV is the inverses' product in reverse
        order.  With `expect`, the step holds when expect * INV = id (see
        the module docs), unless the product over the items of
        deg g^{-1} * deg base^e * deg g, or deg expect * deg INV, exceeds
        the cap: then, as without `expect`, the items' product is folded in
        the verifier's order and compared."""
        limit = self.limit
        fold = partial(compose, cap=limit)
        word_items, values, inverses = [], [], []
        bound = 1
        for conj, base, exponent in items:
            if base not in self._env:
                raise KeyError(f"unknown base {base!r}")
            word_items.append(WordItem(conj, base, exponent))
            core, core_inv = self._env[base]
            if exponent != 1:
                core, core_inv = core_inv, core
            pieces, inverse_pieces = (core,), (core_inv,)
            if conj is not None and conj.factors:
                g = conj.expand(cap=limit)
                ginv = conj.inverse().expand(cap=limit)
                pieces, inverse_pieces = (ginv, core, g), (ginv, core_inv, g)
            bound *= prod(p.deg() for p in pieces)
            # once the cap might stop the fold, conjugates are made in its
            # order, so the first to meet the cap is the fold's first
            lazy = expect is not None and bound <= limit
            values.append(pieces if lazy else (reduce(fold, pieces),))
            inverses.append(reduce(fold, inverse_pieces))

        def product():
            return reduce(fold, (reduce(fold, v) for v in values))

        proof = expect is not None and bound <= limit
        if not proof:
            value = product()
        inverse = reduce(fold, reversed(inverses))
        if proof and expect.deg() * inverse.deg() > limit:
            proof, value = False, product()
        if proof:
            value, ok = expect, compose(expect, inverse, cap=limit).is_identity()
        else:
            ok = expect is None or value == expect
        if not ok:
            raise InternalIdentityFailure(
                f"word expansion does not match the predicted value "
                f"(note: {note or 'unnamed step'})")
        label = self._fresh("t")
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
