"""Construction-side certificate assembly.

CertBuilder tracks the environment of derived values and their exact
inverses, evaluates each emitted word immediately, and refuses to record a
step whose value disagrees with the engine's prediction.  A prediction V of
the items' product P = c_1*...*c_k is proved from its cheaper side, as the
verifier decides a step (docs/formats.md): c_1*...*c_j = V*c_k^{-1}*...*
c_{j+1}^{-1} at the j of least degree bound, with INV = invert_endo(V) and
V * INV = id.  Where that bound is not below the one of the reversed product
of the items' inverses, or V's shape is not read and inverted, INV is that
product, the exact two-sided inverse of P, and V * INV = id proves V = V *
INV * P = P with one compose.  Either way INV is V's unique inverse, so the
bytes are the same.  P is folded only without a prediction, or when a
degree bound of that fold or of the proof exceeds the cap; under both
bounds no skipped compose could meet the cap.  Every value held is special:
seeds are checked, and products and conjugates keep a constant determinant
of 1, so the engines never ask again.  The independent verifier in
polyauto.certificates re-checks everything from the serialized data; this
module is the only place construction and evaluation meet.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import accumulate
from math import prod
from operator import mul

from .autos import invert_endo
from .errors import (DegreeCapExceeded, InternalIdentityFailure, InvalidFactor,
                     NotSpecial, NotStructured)
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

        Item c_i = g^{-1} base^e g has the inverse g^{-1} base^{-e} g, each
        g and g^{-1} expanded once, and the degree bounds d_i = deg g^{-1} *
        deg base^e * deg g and d'_i, the same with base^{-e}.  With `expect`
        and d_1*...*d_k within the cap, the step is proved (see the module
        docs), unless deg expect * deg INV exceeds the cap: then, as without
        `expect`, the items' product is folded in the verifier's order."""
        limit = self.limit
        fold = partial(compose, cap=limit)
        word_items, sides = [], []
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
            sides.append((pieces, inverse_pieces))
        degs = [(prod(map(Endo.deg, p)), prod(map(Endo.deg, w)))
                for p, w in sides]
        lefts = list(accumulate([d for d, _ in degs], mul))  # d_1*...*d_j
        proof = expect is not None and lefts[-1] <= limit
        split = self._split_proof(sides, degs, lefts, expect) if proof else None
        if split is not None:
            value, (inverse, ok) = expect, split
        else:
            # once the cap might stop the fold, conjugates are made in its
            # order, so the first to meet the cap is the fold's first
            values, inverses = [], []
            for pieces, inverse_pieces in sides:
                values.append(pieces if proof else (reduce(fold, pieces),))
                inverses.append(reduce(fold, inverse_pieces))

            def product():
                return reduce(fold, (reduce(fold, v) for v in values))

            if not proof:
                value = product()
            inverse = reduce(fold, reversed(inverses))
            if proof and expect.deg() * inverse.deg() > limit:
                proof, value = False, product()
            if proof:
                value = expect
                ok = compose(expect, inverse, cap=limit).is_identity()
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

    def _split_proof(self, sides, degs, lefts, value: Endo):
        """(INV, whether c_1*...*c_j = value*c_k^{-1}*...*c_{j+1}^{-1} and
        value * INV = id) for INV = invert_endo(value) and the verifier's j
        (docs/formats.md): j >= 1 of least bound max(d_1*...*d_j, deg value
        * d'_{j+1}*...*d'_k), ties keeping the larger j.  None when that
        bound is not below d'_1*...*d'_k or exceeds the cap, or when value's
        inverse is not read from its shape within the cap."""
        limit, right = self.limit, value.deg()
        j, bound = len(degs), max(lefts[-1], right)
        for i in range(len(degs) - 1, 0, -1):
            right *= degs[i][1]
            if max(lefts[i - 1], right) < bound:
                j, bound = i, max(lefts[i - 1], right)
        if bound >= prod([d for _, d in degs]) or bound > limit:
            return None
        try:
            inverse = invert_endo(value, cap=limit)
        except (NotStructured, InvalidFactor, DegreeCapExceeded):
            return None
        if value.deg() * inverse.deg() > limit:
            return None
        fold = partial(compose, cap=limit)
        product = reduce(fold, (reduce(fold, p) for p, _ in sides[:j]))
        other = reduce(fold, (reduce(fold, w) for _, w in reversed(sides[j:])),
                       value)
        return inverse, fold(value, inverse).is_identity() and product == other

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

