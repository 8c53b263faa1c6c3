"""Constructive membership machinery for the normal closure of the linear
special group: commutator identities, translation transfer, and the full
monomial-elementary recursion over suitable fields.  The translation
identities that the characteristic-zero engines share live in
polyauto.translations.

Every emitted word is evaluated on the spot and compared against the value
the underlying identity predicts; a mismatch raises InternalIdentityFailure
instead of recording a bad step.  Certificates produced here have kind
"slin-membership": all seeds are linear with Jacobian determinant 1, so the
chain witnesses membership in the normal closure of SL_n inside the special
automorphism group.
"""

from __future__ import annotations

from math import comb

from .autos import (Endo, elementary, elementary_parts, linear_elementary,
                    signed_swap, sl_dilation)
from .errors import (DegenerateTarget, IdentityInput, IndexClash,
                     InternalIdentityFailure, NoSuchUnit, UnsupportedField,
                     ZeroScalar)
from .fields import PRIME, RATIONALS, Field, FieldElement
from .nct import KIND_SLIN, Certificate
from .poly import Polynomial, check_axis, check_exponents
from .record import Record
# translation_from_any is bound here only for perfbench/tracing.py
# (ROADMAP direction 8)
from .translations import axis_shift, translation_from_any
from .wordbuild import CertBuilder

__all__ = [
    "SlinContext", "commutator_identity", "translation_transfer",
    "translation_from_any", "linear_elementary_from_translations",
    "cubic_identity", "axis_shift", "slin_from_monomial_elementary",
    "slin_from_elementary",
]

UNIT_SEARCH_BOUND = 64  # units tried for b with b^(d+1) != 1 (proof case 1)


class SlinContext(Record):
    __slots__ = ("field", "nvars")

    def __init__(self, field: Field, nvars: int):
        if nvars < 2:
            raise IndexClash("the constructions need n >= 2")
        self.field = field
        self.nvars = nvars


# -- single identities ---------------------------------------------------------


def commutator_identity(builder: CertBuilder, i: int, j: int,
                        a: FieldElement, b: FieldElement) -> str:
    """eps_{i,a}^{-1} delta_{i,j,b} eps_{i,a} delta_{i,j,b}^{-1} = eps_{i,ab-a}."""
    if i == j:
        raise IndexClash("commutator identity needs i != j")
    if b.is_zero():
        raise ZeroScalar("b must be a unit")
    field, n = builder.field, builder.nvars
    delta = sl_dilation(field, n, i, j, b)
    seed = builder.add_seed(delta)
    eps = elementary(field, n, i, a)
    expected = elementary(field, n, i, a * b - a).expand()
    return builder.add_step(
        [(eps, seed, 1), (None, seed, -1)],
        expect=expected, note=f"commutator identity i={i} j={j}")


def translation_transfer(builder: CertBuilder, source: str,
                         j: int, d: FieldElement) -> str:
    """From eps_{i,c} (an available base) derive eps_{j,d}."""
    field, n = builder.field, builder.nvars
    src_val = builder.value(source)
    parts = elementary_parts(src_val)
    if parts is None or not parts[1].is_constant():
        raise IdentityInput("source must be a nontrivial axis translation")
    i, fpoly = parts
    c = fpoly.constant_value()
    if c.is_zero():
        raise ZeroScalar("source translation is trivial")
    if d.is_zero():
        raise DegenerateTarget("target eps_{j,0} is the identity")

    def axis_retarget(dd: FieldElement) -> str:
        # eps_{i,dd} from eps_{i,c}
        if dd == c:
            return source
        if dd == -c:
            return builder.add_step(
                [(None, source, -1)],
                expect=elementary(field, n, i, -c).expand(),
                note="translation inverse")
        k = next(m for m in range(1, n + 1) if m != i)
        b = field.one + dd / c
        delta = sl_dilation(field, n, i, k, b)
        return builder.add_step(
            [(None, source, -1), (delta.inverse(), source, 1)],
            expect=elementary(field, n, i, dd).expand(),
            note=f"axis retarget d={dd}")

    if j == i:
        return axis_retarget(d)
    mid = axis_retarget(d)
    guard = elementary(field, n, j, Polynomial.variable(field, n, i))
    return builder.add_step(
        [(None, mid, -1), (guard.inverse(), mid, 1)],
        expect=elementary(field, n, j, d).expand(),
        note=f"axis change {i}->{j}")


def linear_elementary_from_translations(builder: CertBuilder, i: int, j: int,
                                        a: FieldElement, provide) -> str:
    """Derive eps_{i, a*x_j} from translation bases.

    `provide(axis, const)` must return a base label whose value is the axis
    translation eps_{axis, const}.  Characteristic two uses the cubic word
    of the finite-field theorem with the first unit b != a; F_2 is rejected.
    """
    field, n = builder.field, builder.nvars
    if i == j:
        raise IndexClash("need i != j")
    if a.is_zero():
        raise ZeroScalar("a must be a unit")
    if field.order == 2:
        raise UnsupportedField("the identity requires a field other than F_2")
    two = field.from_int(2)
    if two.is_zero():
        b = next(u for u in field.units() if u != a)
        return cubic_identity(builder, i, j, a, b, provide)
    xj = Polynomial.variable(field, n, j)
    half = a / two
    quarter = -(a * a) / field.from_int(4)
    conj_sq = elementary(field, n, i, xj * xj)
    return builder.add_step(
        [(None, provide(i, quarter), 1),
         (None, provide(j, -half), 1),
         (conj_sq.inverse(), provide(j, half), 1)],
        expect=elementary(field, n, i, xj.scale(a)).expand(),
        note=f"linear elementary a*x{j} (odd char)")


def cubic_identity(builder: CertBuilder, i: int, j: int, a: FieldElement,
                   b: FieldElement, provide) -> str:
    """The characteristic-two cubic word for eps_{i, a*x_j}, b a unit other
    than a and c = b^2/(a-b), with the translation prefixes arranged so
    that every displayed sub-identity expands exactly.  Each half
    h(m, s) = eps_{i,-m s^3} eps_{j,-s} eps_{i,m x_j^3} eps_{j,s} eps_{i,m x_j^3}^{-1}
    is recorded as eps_{i, m s x_j^2 + m s^2 x_j}, and
    delta_{i,j,c}^{-1} h(c,b) h(b,c) delta_{i,j,c} = eps_{i, a*x_j}.
    `provide` is as for linear_elementary_from_translations."""
    field, n = builder.field, builder.nvars
    xj = Polynomial.variable(field, n, j)
    c = (b * b) / (a - b)

    def half(m: FieldElement, s: FieldElement) -> str:
        conj = elementary(field, n, i, (xj ** 3).scale(m))
        f = (xj * xj).scale(m * s) + xj.scale(m * s * s)
        return builder.add_step(
            [(None, provide(i, -(m * s ** 3)), 1),
             (None, provide(j, -s), 1),
             (conj.inverse(), provide(j, s), 1)],
            expect=elementary(field, n, i, f).expand(),
            note=f"cubic half m={m} s={s}")

    delta = sl_dilation(field, n, i, j, c)
    return builder.add_step(
        [(delta, half(c, b), 1), (delta, half(b, c), 1)],
        expect=elementary(field, n, i, xj.scale(a)).expand(),
        note=f"linear elementary a*x{j} (char 2)")


# -- the monomial recursion ------------------------------------------------------


class _SlinEngine:
    def __init__(self, ctx: SlinContext):
        field = ctx.field
        if field.kind == PRIME:
            raise UnsupportedField(
                "monomial membership is proved for fields other than F_p; "
                f"got {field.tag()}")
        self.field = field
        self.n = ctx.nvars
        self.builder = CertBuilder(field, ctx.nvars, KIND_SLIN)
        self.memo: dict[tuple[int, object, tuple[int, ...]], str] = {}
        self.cases_used = set()
        self.max_depth = 0

    def certificate(self, label: str) -> Certificate:
        """The certificate of `label`, with the proof case labels and the
        recursion depth in its metadata."""
        meta = self.builder.meta
        meta["cases"] = ",".join(sorted(self.cases_used)) or "base"
        meta["depth"] = str(self.max_depth)
        return self.builder.to_certificate(label,
                                           cite="finite-field-generation")

    # .. helpers ..

    def _eps(self, k: int, coeff: FieldElement,
             exps: tuple[int, ...]) -> Endo:
        f = Polynomial.monomial(self.field, self.n, coeff, exps)
        return elementary(self.field, self.n, k, f).expand()

    def translation_step(self, axis: int, c: FieldElement, depth: int) -> str:
        zero_exps = (0,) * self.n
        return self.monomial_step(axis, c, zero_exps, depth)

    def sum_step(self, axis: int, poly: Polynomial, depth: int) -> str:
        """Membership for eps_{axis, poly} by splitting into monomials."""
        parts = []
        for exps, coeff in poly.sorted_terms():
            parts.append(self.monomial_step(axis, coeff, exps, depth))
        if len(parts) == 1:
            return parts[0]
        expected = elementary(self.field, self.n, axis, poly).expand()
        return self.builder.add_step(
            [(None, lbl, 1) for lbl in parts],
            expect=expected, note="monomial sum")

    # .. the recursion ..

    def monomial_step(self, k: int, a: FieldElement,
                      exps: tuple[int, ...], depth: int = 0) -> str:
        if a.is_zero():
            raise ZeroScalar("monomial coefficient must be a unit")
        if exps[k - 1]:
            raise IndexClash(f"monomial may not involve x{k}")
        self.max_depth = max(self.max_depth, depth)
        key = (k, a.payload, exps)
        got = self.memo.get(key)
        if got is not None:
            return got
        label = self._monomial_step_uncached(k, a, exps, depth)
        self.memo[key] = label
        return label

    def _monomial_step_uncached(self, k: int, a: FieldElement,
                                exps: tuple[int, ...], depth: int) -> str:
        field, n = self.field, self.n
        if k != 1:
            # conjugate by the signed transposition to push the axis to 1
            pi = signed_swap(field, n, 1, k, -field.one)
            # inside the monomial, x_1 relabels to x_k
            swapped = list(exps)
            swapped[0] = 0
            swapped[k - 1] = exps[0]
            inner = self.monomial_step(1, -a, tuple(swapped), depth)
            expected = self._eps(k, a, exps)
            return self.builder.add_step(
                [(pi, inner, 1)], expect=expected,
                note=f"axis normalization {k}->1")
        deg = sum(exps)
        if deg == 0:
            return self._constant_base(a)
        if deg == 1:
            j = next(m + 1 for m, e in enumerate(exps) if e)
            seed = self.builder.add_seed(linear_elementary(field, n, 1, j, a))
            return self.builder.passthrough(seed, note="linear seed")
        if field.kind == RATIONALS:
            return self._case1(a, exps, depth, pick=2)
        q = field.order
        bad = [i + 1 for i in range(1, n)
               if (exps[i] + 1) % (q - 1) != 0]
        if bad:
            return self._case1(a, exps, depth, pick=bad[0])
        p = field.p
        good_j = [i + 1 for i in range(1, n) if (exps[i] + 1) % p != 0]
        if good_j:
            return self._case2a(a, exps, good_j[0], depth)
        return self._case2b(a, exps, depth)

    def _constant_base(self, a: FieldElement) -> str:
        """eps_{1,a} from the linear seed eps_{1, a*x_2}."""
        field, n = self.field, self.n
        seed = self.builder.add_seed(linear_elementary(field, n, 1, 2, a))
        guard = elementary(field, n, 2, field.one)
        expected = elementary(field, n, 1, a).expand()
        return self.builder.add_step(
            [(guard, seed, 1), (None, seed, -1)],
            expect=expected, note="axis translation from linear seed")

    def _case1(self, a: FieldElement, exps: tuple[int, ...],
               depth: int, pick: int) -> str:
        field, n = self.field, self.n
        self.cases_used.add("1")
        d = exps[pick - 1]
        b = None
        for u in field.units(bound=UNIT_SEARCH_BOUND):
            if u ** (d + 1) != field.one:
                b = u
                break
        if b is None:
            raise NoSuchUnit(f"no unit with b^{d+1} != 1 in {field.tag()}")
        c = a / (field.one - b ** (d + 1))
        delta = sl_dilation(field, n, 1, pick, b)
        seed = self.builder.add_seed(delta)
        conj = elementary(field, n, 1,
                          Polynomial.monomial(field, n, c, exps))
        expected = self._eps(1, a, exps)
        return self.builder.add_step(
            [(None, seed, 1), (conj, seed, -1)],
            expect=expected, note=f"case 1 via i={pick}")

    def _case2a(self, a: FieldElement, exps: tuple[int, ...],
                j: int, depth: int) -> str:
        field, n = self.field, self.n
        self.cases_used.add("2a")
        d_j = exps[j - 1]
        scale = a / field.from_int(d_j + 1)
        M = Polynomial.monomial(field, n, field.one, exps)
        xjM = Polynomial.variable(field, n, j) * M
        h = xjM.scale(scale)
        shift = axis_shift(h, j, field.one)
        g = shift - h - M.scale(a)
        if g.deg() >= sum(exps):
            raise InternalIdentityFailure("case 2a residual degree did not drop")
        items = []
        if not g.is_zero():
            items.append((None, self.sum_step(1, -g, depth + 1), 1))
        items.append((None, self.translation_step(j, -field.one, depth + 1), 1))
        conj = elementary(field, n, 1, h)
        items.append((conj.inverse(),
                      self.translation_step(j, field.one, depth + 1), 1))
        expected = self._eps(1, a, exps)
        return self.builder.add_step(items, expect=expected,
                                     note=f"case 2a via j={j}")

    def _case2b(self, a: FieldElement, exps: tuple[int, ...],
                depth: int) -> str:
        field, n = self.field, self.n
        self.cases_used.add("2b")
        p = field.p
        pick = None
        for i in range(1, n):
            d_k = exps[i]
            if d_k > 1 and comb(p + d_k, p) % p != 0:
                pick = i + 1
                break
        if pick is None:
            raise NoSuchUnit(
                "no admissible exponent for the Frobenius case; the theorem's "
                "binomial coefficient vanished for every candidate")
        d_k = exps[pick - 1]
        Cval = field.from_int(comb(p + d_k, p))
        target = a / Cval
        b = None
        for u in field.units():
            if u ** p == target:
                b = u
                break
        if b is None:
            raise NoSuchUnit("Frobenius preimage not found (cannot happen)")
        M = Polynomial.monomial(field, n, field.one, exps)
        xkp = Polynomial.variable(field, n, pick) ** p
        base_poly = xkp * M
        f = axis_shift(base_poly, pick, b) - base_poly
        conj = elementary(field, n, 1, base_poly)
        eps_f = elementary(field, n, 1, f).expand()
        f_label = self.builder.add_step(
            [(None, self.translation_step(pick, -b, depth + 1), 1),
             (conj.inverse(), self.translation_step(pick, b, depth + 1), 1)],
            expect=eps_f, note=f"case 2b Frobenius shift via k={pick}")
        rest = f - M.scale(a)
        items = [(None, f_label, 1)]
        if not rest.is_zero():
            items.append((None, self.sum_step(1, rest, depth + 1), -1))
        expected = self._eps(1, a, exps)
        return self.builder.add_step(items, expect=expected,
                                     note="case 2b combination")


def slin_from_monomial_elementary(ctx: SlinContext, k: int, a,
                                  exps: tuple[int, ...]) -> Certificate:
    """Certificate for eps_{k, a * x^exps} lying in the normal closure of the
    linear special subgroup, with the proof case labels in metadata."""
    check_axis(k, ctx.nvars)
    exps = check_exponents(exps, ctx.nvars)
    engine = _SlinEngine(ctx)
    return engine.certificate(engine.monomial_step(k, ctx.field.elem(a), exps))


def slin_from_elementary(ctx: SlinContext, i: int, f: Polynomial) -> Certificate:
    """Certificate for eps_{i,f}, f a nonzero polynomial avoiding x_i."""
    check_axis(i, ctx.nvars)
    if f.is_zero():
        raise IdentityInput("eps_{i,0} is the identity")
    if f.involves(i):
        raise IndexClash(f"f may not involve x{i}")
    engine = _SlinEngine(ctx)
    return engine.certificate(engine.sum_step(i, f, 0))
