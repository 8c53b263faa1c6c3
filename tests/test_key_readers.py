"""The shape readers of expanded maps read packed term keys: each one must
give the same parts, or None, as the reference copies below, which read
the same maps by polynomial arithmetic (subtracting x_i or a x_i and
looking at what is left).  The maps are seeded random ones of every shape
the readers know, the identity, and maps one term away from each shape."""

import random

import pytest

from gen import rand_poly, rand_scalar, rand_triangular, rand_unit
from polyauto.autos import is_parabolic, is_translation, triangular_parts
from polyauto.fields import Field
from polyauto.maps import Endo, affine_parts, elementary_parts
from polyauto.poly import Polynomial

FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5),
          "F4": Field.of_order(4), "F9": Field.of_order(9)}


# -- the reference readers, by polynomial arithmetic ------------------------

def ref_affine_parts(phi):
    n, field = phi.nvars, phi.field
    A = [[field.zero] * n for _ in range(n)]
    b = [field.zero] * n
    for i, c in enumerate(phi.components):
        for e, coeff in c.sorted_terms():
            d = sum(e)
            if d > 1:
                return None
            if d == 0:
                b[i] = coeff
            else:
                A[i][e.index(1)] = coeff
    return tuple(tuple(r) for r in A), tuple(b)


def ref_elementary_parts(phi):
    n = phi.nvars
    moved = []
    for i in range(1, n + 1):
        diff = phi.components[i - 1] - Polynomial.variable(phi.field, n, i)
        if not diff.is_zero():
            moved.append((i, diff))
    if len(moved) != 1:
        return None
    i, f = moved[0]
    return None if f.involves(i) else (i, f)


def ref_triangular_parts(phi):
    n, field = phi.nvars, phi.field
    scalars, polys = [], []
    for i, c in enumerate(phi.components, start=1):
        a = c.coeff(tuple(1 if k == i - 1 else 0 for k in range(n)))
        if a.is_zero():
            return None
        rest = c - Polynomial.variable(field, n, i).scale(a)
        if any(rest.involves(j) for j in range(i, n + 1)):
            return None
        scalars.append(a)
        polys.append(rest)
    return tuple(scalars), tuple(polys)


def ref_is_translation(phi):
    return all((c - Polynomial.variable(phi.field, phi.nvars, i)).is_constant()
               for i, c in enumerate(phi.components, start=1))


def ref_is_parabolic(phi):
    n = phi.nvars
    if any(c.involves(n) for c in phi.components[:-1]):
        return False
    last = phi.components[-1]
    a = last.coeff(tuple(1 if k == n - 1 else 0 for k in range(n)))
    if a.is_zero():
        return False
    rest = last - Polynomial.variable(phi.field, n, n).scale(a)
    return not rest.involves(n)


READERS = [(affine_parts, ref_affine_parts),
           (elementary_parts, ref_elementary_parts),
           (triangular_parts, ref_triangular_parts),
           (is_translation, ref_is_translation),
           (is_parabolic, ref_is_parabolic)]


# -- seeded maps of every shape and one term away from it -------------------

def x(field, n, i):
    return Polynomial.variable(field, n, i)


def shaped(rng, field, n):
    """One map of each shape: identity, translation, linear and affine
    (singular ones included), elementary, triangular, parabolic, and one
    with arbitrary components."""
    ident = [x(field, n, i) for i in range(1, n + 1)]
    const = [Polynomial.constant(field, n, rand_scalar(rng, field))
             for _ in range(n)]
    linear = [sum((x(field, n, j).scale(rand_scalar(rng, field))
                   for j in range(1, n + 1)), Polynomial.zero(field, n))
              for _ in range(n)]
    i = rng.randint(1, n)
    elem = list(ident)
    elem[i - 1] = elem[i - 1] + rand_poly(rng, field, n, i - 1, 2)
    parabolic = [rand_poly(rng, field, n, n - 1, 2) + x(field, n, j)
                 for j in range(1, n)]
    parabolic.append(x(field, n, n).scale(rand_unit(rng, field))
                     + rand_poly(rng, field, n, n - 1, 2))
    return [ident,
            [a + b for a, b in zip(ident, const)],
            linear,
            [a + b for a, b in zip(linear, const)],
            elem,
            list(rand_triangular(rng, n, 2, field).expand().components),
            parabolic,
            [rand_poly(rng, field, n, n, 2) for _ in range(n)]]


def nudged(rng, field, comps):
    """comps with one random monomial of degree at most 2 added to one
    component, which may cancel a term or add one."""
    n = len(comps)
    exps = [0] * n
    for _ in range(rng.randint(0, 2)):
        exps[rng.randrange(n)] += 1
    bump = Polynomial.monomial(field, n, rand_unit(rng, field), exps)
    out = list(comps)
    i = rng.randrange(n)
    out[i] = out[i] + bump
    return out


def sample_maps(field, seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 4):
        for comps in shaped(rng, field, n):
            yield Endo(field, n, comps)
            yield Endo(field, n, nudged(rng, field, comps))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_each_key_reader_gives_the_reference_parts(name, seed):
    for phi in sample_maps(FIELDS[name], seed):
        for reader, reference in READERS:
            assert reader(phi) == reference(phi), (reader.__name__, phi)


def test_the_samples_reach_every_outcome():
    """Every reader both reads and refuses some sampled map."""
    maps = [phi for name in sorted(FIELDS) for seed in range(6)
            for phi in sample_maps(FIELDS[name], seed)]
    for reader, _ in READERS:
        outcomes = {reader(phi) not in (None, False) for phi in maps}
        assert outcomes == {True, False}, reader.__name__
