"""Tools over polynomial automorphisms for the engines and the CLI:
factor builders, conjugates and commutators, the shape readers of expanded
maps and their inversion, the Jacobian determinant, and classification.

The maps and words themselves live in polyauto.maps, which the verifier
loads without this module.
"""

from __future__ import annotations

from .errors import InvalidFactor, NotStructured, NotTriangular
from .fields import Field, FieldElement
# compose is unused here; perfbench/tracing.py reads it here
from .maps import (Elementary, Endo, FactoredAuto, Linear, Record,
                   SignedPermutation, Translation, Triangular, affine_parts,
                   compose, elementary_parts, mat_det)
from .poly import (DEFAULT_DEGREE_CAP, Polynomial, check_axis, tail_mask,
                   variable_keys)

__all__ = [
    "compose", "conj", "comm", "elementary", "translation", "dilation",
    "sl_dilation", "signed_swap", "linear_elementary", "triangular_parts",
    "triangular_from_endo", "word_from_endo", "invert_endo", "jacobian_det",
    "Classification", "classify", "is_translation", "is_parabolic",
    "vector_degree",
]


def conj(phi: FactoredAuto, g: FactoredAuto) -> FactoredAuto:
    """g^{-1} * phi * g; this orientation is fixed project-wide."""
    return g.inverse() * phi * g


def comm(a: FactoredAuto, b: FactoredAuto) -> FactoredAuto:
    """a^{-1} * b^{-1} * a * b."""
    return a.inverse() * b.inverse() * a * b


# -- convenient factor builders -------------------------------------------

def elementary(field: Field, n: int, i: int, f) -> FactoredAuto:
    """epsilon_{i,f}; accepts a Polynomial or a field constant for f."""
    if not isinstance(f, Polynomial):
        f = Polynomial.constant(field, n, f)
    return FactoredAuto(field, n, [Elementary(field, n, i, f)])


def translation(field: Field, n: int, vector) -> FactoredAuto:
    vec = tuple(field.elem(b) for b in vector)
    return FactoredAuto(field, n, [Translation(field, n, vec)])


def _diagonal(field: Field, n: int, entries: dict) -> FactoredAuto:
    """The linear word of the identity matrix with entries[i] at (i, i)."""
    rows = [[field.one if r == s else field.zero for s in range(n)]
            for r in range(n)]
    for i, c in entries.items():
        check_axis(i, n)
        rows[i - 1][i - 1] = c
    return FactoredAuto(field, n, [Linear(field, n, tuple(map(tuple, rows)))])


def dilation(field: Field, n: int, i: int, c) -> FactoredAuto:
    """delta_{i,c}: scales x_i by the unit c."""
    return _diagonal(field, n, {i: field.elem(c)})


def sl_dilation(field: Field, n: int, i: int, j: int, c) -> FactoredAuto:
    """delta_{i,j,c} = delta_{i,c} delta_{j,c^{-1}}, an SL_n element."""
    if i == j:
        raise InvalidFactor("delta_{i,j,c} needs i != j")
    c = field.elem(c)
    return _diagonal(field, n, {i: c, j: c.inv()})


def signed_swap(field: Field, n: int, i: int, j: int,
                sign: FieldElement) -> FactoredAuto:
    """The relabelling x_m -> x_{pi(m)} with pi = (i j), the first image
    scaled by `sign`."""
    perm = list(range(1, n + 1))
    perm[i - 1], perm[j - 1] = j, i
    signs = (sign,) + (field.one,) * (n - 1)
    return FactoredAuto(field, n, [SignedPermutation(field, n, tuple(perm),
                                                     signs)])


def linear_elementary(field: Field, n: int, i: int, j: int, a) -> FactoredAuto:
    """epsilon_{i, a*x_j}, the elementary-matrix generator of SL_n."""
    if i == j:
        raise InvalidFactor("linear elementary needs i != j")
    f = Polynomial.variable(field, n, j).scale(field.elem(a))
    return elementary(field, n, i, f)


# -- reading and inverting structured expanded maps ---------------------

def triangular_parts(phi: Endo):
    """(scalars, polys) of a lower-triangular map, or None: component i
    has a term a x_i, and its other terms are free of x_i, ..., x_n."""
    field, n = phi.field, phi.nvars
    keys, scalars, polys = variable_keys(n), [], []
    for i, c in enumerate(phi.components, start=1):
        key, mask = keys[i], tail_mask(n, i)
        a = c.terms.get(key)
        if a is None or any(k & mask for k in c.terms if k != key):
            return None
        scalars.append(FieldElement(field, a))
        polys.append(Polynomial(field, n, {k: v for k, v in c.terms.items()
                                           if k != key}))
    return tuple(scalars), tuple(polys)


def triangular_from_endo(phi: Endo) -> Triangular:
    parts = triangular_parts(phi)
    if parts is None:
        raise NotTriangular(f"{phi!r} is not lower triangular")
    return Triangular(phi.field, phi.nvars, parts[0], parts[1])


def word_from_endo(phi: Endo) -> FactoredAuto:
    """The one reading of an expanded map's shape: an elementary or a
    triangular factor, or an affine map's translation and linear factor."""
    field, n = phi.field, phi.nvars
    ep = elementary_parts(phi)
    if ep is not None:
        return FactoredAuto(field, n, [Elementary(field, n, *ep)])
    tp = triangular_parts(phi)
    if tp is not None:
        return FactoredAuto(field, n, [Triangular(field, n, *tp)])
    ap = affine_parts(phi)
    if ap is None:
        raise NotStructured(
            "expanded input is not affine/elementary/triangular; "
            "pass a factored word instead")
    A, b = ap
    factors = [Linear(field, n, A)]
    if any(not x.is_zero() for x in b):
        factors.insert(0, Translation(field, n, b))
    return FactoredAuto(field, n, factors)


def invert_endo(phi: Endo, cap: int | None = DEFAULT_DEGREE_CAP) -> Endo:
    """Exact inverse of an affine, elementary, or triangular expanded map:
    the inverse of its word_from_endo, expanded under `cap`."""
    return word_from_endo(phi).inverse().expand(cap=cap)


# -- jacobian and classification --------------------------------------------

def jacobian_det(phi: Endo) -> Polynomial:
    """Determinant of (d components[i] / d x_j), exact.

    An affine map's is the determinant of its matrix.  Otherwise cofactor
    expansion with minor memoization: exact over any field, but a dense
    Jacobian costs about 2^n minors.
    """
    n = phi.nvars
    field = phi.field
    parts = affine_parts(phi)
    if parts is not None:
        return Polynomial.constant(field, n, mat_det(field, parts[0]))
    J = [[phi.components[i].partial_derivative(j + 1) for j in range(n)]
         for i in range(n)]
    memo = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        if not rows:
            return Polynomial.one(field, n)
        key = (rows, cols)
        got = memo.get(key)
        if got is not None:
            return got
        i = rows[0]
        rest = rows[1:]
        acc = Polynomial.zero(field, n)
        for t, j in enumerate(cols):
            entry = J[i][j]
            if entry.is_zero():
                continue
            sub = minor(rest, cols[:t] + cols[t + 1:])
            piece = entry * sub
            acc = acc + (piece if t % 2 == 0 else -piece)
        memo[key] = acc
        return acc

    return minor(tuple(range(n)), tuple(range(n)))


class Classification(Record):
    __slots__ = ("identity", "translation", "linear", "affine",
                 "diagonal_affine", "elementary", "triangular", "parabolic",
                 "special")

    def __init__(self, identity: bool, translation: bool, linear: bool,
                 affine: bool, diagonal_affine: bool, elementary: bool,
                 triangular: bool, parabolic: bool, special: bool):
        self.identity = identity
        self.translation = translation
        self.linear = linear
        self.affine = affine
        self.diagonal_affine = diagonal_affine
        self.elementary = elementary
        self.triangular = triangular
        self.parabolic = parabolic
        self.special = special


def classify(phi: Endo) -> Classification:
    n = phi.nvars
    ident = phi.is_identity()
    parts = affine_parts(phi)
    affine = parts is not None
    linear = False
    diagonal = False
    if affine:
        A, b = parts
        linear = all(x.is_zero() for x in b)
        diagonal = all(A[i][j].is_zero() for i in range(n)
                       for j in range(n) if i != j) and \
            all(not A[i][i].is_zero() for i in range(n))
    elem = ident or elementary_parts(phi) is not None
    tri = triangular_parts(phi) is not None
    return Classification(
        identity=ident,
        translation=is_translation(phi),
        linear=linear,
        affine=affine,
        diagonal_affine=diagonal,
        elementary=elem,
        triangular=tri,
        parabolic=is_parabolic(phi),
        special=jacobian_det(phi) == Polynomial.one(phi.field, n),
    )


def is_translation(phi: Endo) -> bool:
    """x_i -> x_i + b_i with constants b_i; the identity is one."""
    one = phi.field.one.payload
    return all(c.terms.get(k) == one and c.terms.keys() <= {0, k} for c, k
               in zip(phi.components, variable_keys(phi.nvars)[1:]))


def is_parabolic(phi: Endo) -> bool:
    """First n-1 components free of x_n; last = a_n x_n + P(x_1..x_{n-1})."""
    n = phi.nvars
    *head, last = phi.components
    key, mask = variable_keys(n)[n], tail_mask(n, n)
    return (key in last.terms and not any(c.involves(n) for c in head)
            and not any(k & mask for k in last.terms if k != key))


def vector_degree(phi: Endo) -> tuple[int, ...]:
    """vd(tau) = (deg P_1, ..., deg P_n) for triangular tau, deg(0) = 0.
    Tuples compare lexicographically, which matches the induction order."""
    parts = triangular_parts(phi)
    if parts is None:
        raise NotTriangular("vector degree needs a triangular map")
    return tuple(p.deg() for p in parts[1])
