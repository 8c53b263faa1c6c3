"""The executable identity suite: the displayed group identities that the
constructions rely on, checked by exact expansion over configurable fields.

The commutator formula (a), the square trick (b) and the characteristic-two
cubic word (c) are built by slin's constructions, the ones the certificates
are made of, on a fresh CertBuilder: each step is checked against the value
the identity states.  Each check returns an IdentityResult; the CLI
`identities` subcommand and the acceptance tests share this module, so a
failure anywhere is a failure everywhere.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from itertools import islice, product

from .autos import dilation, elementary
from .errors import InternalIdentityFailure
from .fields import Field, FieldElement
from .maps import (KIND_COTAME, Endo, Record, TriDerivation, compose,
                   exp_images, kernel_check)
from .poly import Polynomial
from .reduce_core import axis_shift
from .slin import (commutator_identity, cubic_identity,
                   linear_elementary_from_translations)
from .wordbuild import CertBuilder


SQUARE_TRICK_UNITS = 20
SCALING_CHECKS = 50
EXP_COMMUTATOR_PAIRS = 20


class IdentityResult(Record):
    __slots__ = ("family", "field_tag", "detail", "ok")

    def __init__(self, family: str, field_tag: str, detail: str, ok: bool):
        self.family = family
        self.field_tag = field_tag
        self.detail = detail
        self.ok = ok


def _holds(field: Field, build) -> bool:
    """Whether `build(builder)` records its identity on a fresh builder
    over k[x1, x2]: add_step checks every step against the identity's
    stated value."""
    builder = CertBuilder(field, 2, KIND_COTAME)
    try:
        build(builder)
    except InternalIdentityFailure:
        return False
    return True


def _translation_seeds(builder: CertBuilder):
    """The `provide` of slin's constructions: each axis translation is
    added as a seed."""
    return lambda axis, c: builder.add_seed(
        elementary(builder.field, builder.nvars, axis, c))


# -- (a) the commutator formula ---------------------------------------------


def commutator_formula_checks(field: Field) -> list[IdentityResult]:
    """eps_{i,a}^{-1} delta_{i,j,b} eps_{i,a} delta_{i,j,b}^{-1} = eps_{i,ab-a},
    built by slin.commutator_identity: over Q for a 10 x 5 grid of (a, b),
    over a finite field for every a and unit b."""
    pairs: Iterable[tuple[FieldElement, FieldElement]]
    if field.order is None:
        a_stream = [field.from_int(0)] + list(field.units(bound=9))
        pairs = product(a_stream, list(field.units(bound=5)))
    else:
        pairs = ((a, b) for a in field.elements() for b in field.units())
    return [IdentityResult(
        "commutator-formula", field.tag(), f"a={a} b={b}",
        _holds(field, lambda bld: commutator_identity(bld, 1, 2, a, b)))
        for a, b in pairs]


# -- (b) the odd-characteristic square trick ----------------------------------


def square_trick_checks(field: Field) -> list[IdentityResult]:
    """eps_{i,a x_j} as a product of translations conjugated by eps_{i,x_j^2},
    built by slin.linear_elementary_from_translations, for the first
    SQUARE_TRICK_UNITS units a; valid away from characteristic two."""
    assert field.characteristic != 2
    return [IdentityResult(
        "square-trick", field.tag(), f"a={a}",
        _holds(field, lambda bld: linear_elementary_from_translations(
            bld, 1, 2, a, _translation_seeds(bld))))
        for a in islice(field.units(), SQUARE_TRICK_UNITS)]


# -- (c) the characteristic-two cubic claim -------------------------------------


def char2_claim_checks(field: Field) -> list[IdentityResult]:
    """All valid (a, b): the cubic conjugation word equals eps_{i, a x_j},
    including the two displayed sub-identities with their exact f_1, f_2,
    built by slin.cubic_identity."""
    assert field.characteristic == 2 and field.order > 2
    return [IdentityResult(
        "char2-claim", field.tag(), f"a={a} b={b}",
        _holds(field, lambda bld: cubic_identity(
            bld, 1, 2, a, b, _translation_seeds(bld))))
        for a in field.units() for b in field.units() if b != a]


# -- (d) the scaling observation ---------------------------------------------------


def scaling_observation_checks(field: Field,
                               seed: int = 2024) -> list[IdentityResult]:
    """eps_{1,aM} = delta_{1,2}^{-1} (eps_{1,2aM}^{-1} delta_{1,2} eps_{1,2aM})
    for SCALING_CHECKS monomials M = x_2^e in k[x1, x2]; needs 2 != 0."""
    assert field.characteristic != 2
    rng = random.Random(seed)
    units = list(field.units(bound=24)) if field.order is None \
        else list(field.units())
    out = []
    for _ in range(SCALING_CHECKS):
        a = rng.choice(units)
        exps = [0, rng.randint(0, 3)]
        M = Polynomial.monomial(field, 2, field.one, exps)
        eps2 = elementary(field, 2, 1, M.scale(a * field.from_int(2)))
        delta = dilation(field, 2, 1, 2)
        word = delta.inverse() * eps2.inverse() * delta * eps2
        want = elementary(field, 2, 1, M.scale(a)).expand()
        out.append(IdentityResult(
            "scaling-observation", field.tag(),
            f"a={a} exps={tuple(exps)}", word.expand() == want))
    return out


# -- (e) the exponential commutator ---------------------------------------------------


def random_kernel_pairs(seed: int,
                        count: int) -> list[tuple[Polynomial, TriDerivation]]:
    """Deterministic (F, D) pairs with D triangular nonzero and F in ker D.

    Built from the closed-form invariants of two derivation shapes:
    D = (0, 0, Q3, Q4) has x_1, x_2 and W = Q4*x3 - Q3*x4 in its kernel;
    D = (0, Q2, 0) has x_1 and x_3 in its kernel.
    """
    field = Field.rationals()
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.choice((3, 4))
        zero = Polynomial.zero(field, n)

        def rpoly(maxvar):
            p = zero
            for _ in range(rng.randint(1, 2)):
                exps = [0] * n
                for j in range(maxvar):
                    exps[j] = rng.randint(0, 2)
                coeff = field.from_int(rng.choice((-2, -1, 1, 2, 3)))
                p = p + Polynomial.monomial(field, n, coeff, exps)
            return p

        if n == 4:
            q3, q4 = rpoly(2), rpoly(2)
            if q3.is_zero() and q4.is_zero():
                continue
            D = TriDerivation(field, n, (zero, zero, q3, q4))
            x3 = Polynomial.variable(field, n, 3)
            x4 = Polynomial.variable(field, n, 4)
            W = q4 * x3 - q3 * x4
            basis = [Polynomial.variable(field, n, 1),
                     Polynomial.variable(field, n, 2), W]
        else:
            q2 = rpoly(1)
            if q2.is_zero():
                continue
            D = TriDerivation(field, n, (zero, q2, zero))
            basis = [Polynomial.variable(field, n, 1),
                     Polynomial.variable(field, n, 3)]
        F = zero
        for _ in range(rng.randint(1, 2)):
            term = Polynomial.one(field, n)
            for b in rng.sample(basis, rng.randint(1, len(basis))):
                term = term * b
            F = F + term.scale(field.from_int(rng.choice((-1, 1, 2))))
        if F.is_zero() or not kernel_check(D, F):
            continue
        if (F * D.images[-1]).is_zero() and all(
                (F * q).is_zero() for q in D.images):
            continue
        pairs.append((F, D))
    return pairs


def exp_commutator_checks(seed: int = 515) -> list[IdentityResult]:
    """eps_{n,1}^{-1} exp(-FD) eps_{n,1} exp(FD) = exp((F - (F)eps_{n,1}) D),
    for EXP_COMMUTATOR_PAIRS random kernel pairs (F, D)."""
    field = Field.rationals()
    out = []
    for F, D in random_kernel_pairs(seed, EXP_COMMUTATOR_PAIRS):
        n = F.nvars
        eps = elementary(field, n, n, field.one)
        exp_l = Endo(field, n, exp_images(F, D))
        exp_inv = Endo(field, n, exp_images(-F, D))
        left = compose(compose(compose(eps.inverse().expand(), exp_inv),
                               eps.expand()), exp_l)
        right = Endo(field, n, exp_images(F - axis_shift(F, n, field.one), D))
        out.append(IdentityResult(
            "exp-commutator", field.tag(),
            f"n={n} degF={F.deg()}", left == right))
    return out


# -- suite ------------------------------------------------------------------------------


def run_identity_suite(tags: Sequence[str],
                       seed: int = 2024) -> list[IdentityResult]:
    from .textio import parse_field
    fields = [parse_field(t) for t in tags]
    results: list[IdentityResult] = []
    for f in fields:
        results.extend(commutator_formula_checks(f))
    for f in fields:
        if f.characteristic != 2:
            results.extend(square_trick_checks(f))
    for f in fields:
        if f.characteristic == 2 and (f.order or 3) > 2:
            results.extend(char2_claim_checks(f))
    for f in fields:
        if f.characteristic != 2:
            results.extend(scaling_observation_checks(f, seed=seed))
    results.extend(exp_commutator_checks(seed=seed + 491))
    return results


def summarize(results: Sequence[IdentityResult]) -> str:
    lines = []
    by_family = {}
    for r in results:
        by_family.setdefault((r.family, r.field_tag), []).append(r)
    for (family, tag), items in sorted(by_family.items()):
        bad = [r for r in items if not r.ok]
        status = "ok" if not bad else "FAIL"
        lines.append(f"{status:4} {family:22} {tag:12} "
                     f"{len(items) - len(bad)}/{len(items)}")
        for r in bad:
            lines.append(f"     failed: {r.detail}")
    total_bad = sum(1 for r in results if not r.ok)
    lines.append(f"identities: {len(results) - total_bad}/{len(results)} passed")
    return "\n".join(lines)
