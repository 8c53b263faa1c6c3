"""Polynomial endomorphisms and automorphisms.

Composition follows the right-action convention: polynomials are acted on
from the right, so the word phi*psi sends P to ((P)phi)psi and the composed
tuple is compose(phi, psi)[i] = substitute(phi[i], psi.components).

Basic factors (linear, translation, elementary, triangular, signed
permutation, exp of a triangular derivation) expand to tuples and invert
structurally, so every factored word is invertible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .derivations import TriDerivation, exp_images, kernel_check
from .errors import (ArityMismatch, FieldMismatch, InvalidFactor,
                     NotStructured, NotTriangular, Singular)
from .fields import Field, FieldElement
from .poly import DEFAULT_DEGREE_CAP, Polynomial, identity_images


class Endo:
    """Polynomial endomorphism given by its expanded component tuple:
    (x_i) phi = components[i-1]."""

    __slots__ = ("field", "nvars", "components")

    def __init__(self, field: Field, nvars: int,
                 components: Sequence[Polynomial]):
        if len(components) != nvars:
            raise ArityMismatch(f"need {nvars} components")
        for c in components:
            if c.field != field:
                raise FieldMismatch("component over a different field")
            if c.nvars != nvars:
                raise ArityMismatch("component with wrong arity")
        self.field = field
        self.nvars = nvars
        self.components = tuple(components)

    @staticmethod
    def identity(field: Field, nvars: int) -> "Endo":
        return Endo(field, nvars, identity_images(field, nvars))

    def is_identity(self) -> bool:
        for i, c in enumerate(self.components, start=1):
            if len(c.terms) != 1:
                return False
            e = tuple(1 if j == i - 1 else 0 for j in range(self.nvars))
            payload = c.terms.get(e)
            if payload is None or payload != self.field.one.payload:
                return False
        return True

    def apply(self, P: Polynomial, cap: Optional[int] = DEFAULT_DEGREE_CAP) -> Polynomial:
        """(P) phi."""
        return P.substitute(self.components, cap=cap)

    def __eq__(self, other):
        if not isinstance(other, Endo):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.components == other.components)

    def __hash__(self):
        return hash((self.field, self.components))

    def __repr__(self):
        from .textio import endo_to_text
        return endo_to_text(self)


def compose(phi: Endo, psi: Endo,
            cap: Optional[int] = DEFAULT_DEGREE_CAP) -> Endo:
    """The word phi*psi under the right-action convention."""
    if phi.field != psi.field:
        raise FieldMismatch("composing over different fields")
    if phi.nvars != psi.nvars:
        raise ArityMismatch("composing different arities")
    comps = [c.substitute(psi.components, cap=cap) for c in phi.components]
    return Endo(phi.field, phi.nvars, comps)


# -- matrices over the field (helpers for affine maps) -------------------

def mat_det(field: Field, A) -> FieldElement:
    n = len(A)
    M = [list(row) for row in A]
    det = field.one
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if not M[row][col].is_zero():
                pivot = row
                break
        if pivot is None:
            return field.zero
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det = det * M[col][col]
        inv = M[col][col].inv()
        for row in range(col + 1, n):
            if M[row][col].is_zero():
                continue
            factor = M[row][col] * inv
            for j in range(col, n):
                M[row][j] = M[row][j] - factor * M[col][j]
    return det


def mat_inv(field: Field, A):
    n = len(A)
    M = [list(row) + [field.one if i == j else field.zero
                      for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if not M[row][col].is_zero():
                pivot = row
                break
        if pivot is None:
            raise Singular("matrix is singular")
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col].inv()
        M[col] = [x * inv for x in M[col]]
        for row in range(n):
            if row != col and not M[row][col].is_zero():
                f = M[row][col]
                M[row] = [x - f * y for x, y in zip(M[row], M[col])]
    return tuple(tuple(row[n:]) for row in M)


# -- basic factors -------------------------------------------------------

@dataclass(frozen=True)
class Linear:
    """Invertible linear map x_i -> sum_j matrix[i][j] x_j."""
    field: Field
    nvars: int
    matrix: Tuple[Tuple[FieldElement, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.nvars or any(
                len(r) != self.nvars for r in self.matrix):
            raise InvalidFactor("linear factor needs an n x n matrix")
        if mat_det(self.field, self.matrix).is_zero():
            raise InvalidFactor("linear factor matrix is singular")

    def expand(self) -> Endo:
        comps = []
        for i in range(self.nvars):
            p = Polynomial.zero(self.field, self.nvars)
            for j in range(self.nvars):
                a = self.matrix[i][j]
                if not a.is_zero():
                    p = p + Polynomial.variable(
                        self.field, self.nvars, j + 1).scale(a)
            comps.append(p)
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "Linear":
        return Linear(self.field, self.nvars, mat_inv(self.field, self.matrix))

    def det(self) -> FieldElement:
        return mat_det(self.field, self.matrix)


@dataclass(frozen=True)
class Translation:
    field: Field
    nvars: int
    vector: Tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.vector) != self.nvars:
            raise InvalidFactor("translation vector length != n")

    def expand(self) -> Endo:
        comps = [Polynomial.variable(self.field, self.nvars, i + 1)
                 + Polynomial.constant(self.field, self.nvars, b)
                 for i, b in enumerate(self.vector)]
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "Translation":
        return Translation(self.field, self.nvars,
                           tuple(-b for b in self.vector))


@dataclass(frozen=True)
class Elementary:
    """x_i -> x_i + f with f free of x_i; everything else fixed."""
    field: Field
    nvars: int
    i: int
    f: Polynomial

    def __post_init__(self):
        if not 1 <= self.i <= self.nvars:
            raise InvalidFactor(f"index {self.i} out of range")
        if self.f.field != self.field or self.f.nvars != self.nvars:
            raise InvalidFactor("elementary polynomial has wrong field/arity")
        if self.f.involves(self.i):
            raise InvalidFactor(f"f may not involve x{self.i}")

    def expand(self) -> Endo:
        comps = list(identity_images(self.field, self.nvars))
        comps[self.i - 1] = comps[self.i - 1] + self.f
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "Elementary":
        return Elementary(self.field, self.nvars, self.i, -self.f)


@dataclass(frozen=True)
class Triangular:
    """Lower triangular: x_i -> a_i x_i + P_i(x_1..x_{i-1}), a_i units."""
    field: Field
    nvars: int
    scalars: Tuple[FieldElement, ...]
    polys: Tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.scalars) != self.nvars or len(self.polys) != self.nvars:
            raise InvalidFactor("triangular factor needs n scalars and n polys")
        for i, (a, p) in enumerate(zip(self.scalars, self.polys), start=1):
            if a.is_zero():
                raise InvalidFactor(f"scalar a{i} must be a unit")
            for j in range(i, self.nvars + 1):
                if p.involves(j):
                    raise InvalidFactor(
                        f"P{i} may only involve x1..x{i-1}")

    def expand(self) -> Endo:
        comps = [Polynomial.variable(self.field, self.nvars, i + 1).scale(a) + p
                 for i, (a, p) in enumerate(zip(self.scalars, self.polys))]
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "Triangular":
        inv = invert_endo(self.expand())
        return triangular_from_endo(inv)


@dataclass(frozen=True)
class SignedPermutation:
    """x_i -> sign_i * x_{perm[i]} (perm 1-based)."""
    field: Field
    nvars: int
    perm: Tuple[int, ...]
    signs: Tuple[FieldElement, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, self.nvars + 1)):
            raise InvalidFactor("not a permutation of 1..n")
        if any(s.is_zero() for s in self.signs):
            raise InvalidFactor("signs must be units")

    def expand(self) -> Endo:
        comps = [Polynomial.variable(self.field, self.nvars, self.perm[i]).scale(self.signs[i])
                 for i in range(self.nvars)]
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "SignedPermutation":
        perm = [0] * self.nvars
        signs = [self.field.one] * self.nvars
        for i in range(self.nvars):
            perm[self.perm[i] - 1] = i + 1
            signs[self.perm[i] - 1] = self.signs[i].inv()
        return SignedPermutation(self.field, self.nvars,
                                 tuple(perm), tuple(signs))


@dataclass(frozen=True)
class ExpLND:
    """exp(FD) for a triangular derivation D and F in its kernel."""
    field: Field
    nvars: int
    F: Polynomial
    D: TriDerivation

    def __post_init__(self):
        if self.F.field != self.field or self.F.nvars != self.nvars:
            raise InvalidFactor("F has wrong field/arity")
        if self.D.field != self.field or self.D.nvars != self.nvars:
            raise InvalidFactor("D has wrong field/arity")
        if not kernel_check(self.D, self.F):
            raise InvalidFactor("F is not in ker D")

    def expand(self) -> Endo:
        return Endo(self.field, self.nvars, exp_images(self.F, self.D))

    def inverted(self) -> "ExpLND":
        return ExpLND(self.field, self.nvars, -self.F, self.D)


def make_basic(factor) -> Endo:
    """Expanded tuple of a basic factor."""
    return factor.expand()


# -- factored words -------------------------------------------------------

class FactoredAuto:
    """Word of basic factors with exponents +-1; invertible by construction.

    The expansion is cached; equality of factored words is always decided on
    expanded tuples, never on the words themselves.
    """

    __slots__ = ("field", "nvars", "factors", "_expanded")

    def __init__(self, field: Field, nvars: int, factors=()):
        self.field = field
        self.nvars = nvars
        word = []
        for entry in factors:
            if isinstance(entry, tuple):
                factor, exp = entry
            else:
                factor, exp = entry, 1
            if exp not in (1, -1):
                raise InvalidFactor("factor exponent must be +-1")
            if factor.field != field or factor.nvars != nvars:
                raise InvalidFactor("factor with wrong field/arity")
            word.append((factor, exp))
        self.factors = tuple(word)
        self._expanded = None

    @staticmethod
    def identity(field: Field, nvars: int) -> "FactoredAuto":
        return FactoredAuto(field, nvars, ())

    def is_identity_word(self) -> bool:
        return not self.factors

    def expand(self, cap: Optional[int] = DEFAULT_DEGREE_CAP) -> Endo:
        if self._expanded is None:
            out = Endo.identity(self.field, self.nvars)
            for factor, exp in self.factors:
                piece = factor.expand() if exp == 1 else factor.inverted().expand()
                out = compose(out, piece, cap=cap)
            self._expanded = out
        return self._expanded

    def inverse(self) -> "FactoredAuto":
        return FactoredAuto(self.field, self.nvars,
                            [(f, -e) for f, e in reversed(self.factors)])

    def __mul__(self, other: "FactoredAuto") -> "FactoredAuto":
        if not isinstance(other, FactoredAuto):
            return NotImplemented
        if other.field != self.field or other.nvars != self.nvars:
            raise ArityMismatch("concatenating words over different rings")
        return FactoredAuto(self.field, self.nvars,
                            self.factors + other.factors)

    def __pow__(self, e: int) -> "FactoredAuto":
        if e == -1:
            return self.inverse()
        if e < 0:
            return self.inverse() ** (-e)
        out = FactoredAuto.identity(self.field, self.nvars)
        for _ in range(e):
            out = out * self
        return out

    def __repr__(self):
        from .textio import factored_to_text
        return f"[{self.field.tag()},{self.nvars}] {factored_to_text(self)}"


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


def dilation(field: Field, n: int, i: int, c) -> FactoredAuto:
    """delta_{i,c}: scales x_i by the unit c."""
    c = field.elem(c)
    rows = [[field.one if r == s else field.zero for s in range(n)]
            for r in range(n)]
    rows[i - 1][i - 1] = c
    return FactoredAuto(field, n, [Linear(field, n,
                                          tuple(tuple(r) for r in rows))])


def sl_dilation(field: Field, n: int, i: int, j: int, c) -> FactoredAuto:
    """delta_{i,j,c} = delta_{i,c} delta_{j,c^{-1}}, an SL_n element."""
    if i == j:
        raise InvalidFactor("delta_{i,j,c} needs i != j")
    c = field.elem(c)
    rows = [[field.one if r == s else field.zero for s in range(n)]
            for r in range(n)]
    rows[i - 1][i - 1] = c
    rows[j - 1][j - 1] = c.inv()
    return FactoredAuto(field, n, [Linear(field, n,
                                          tuple(tuple(r) for r in rows))])


def linear_elementary(field: Field, n: int, i: int, j: int, a) -> FactoredAuto:
    """epsilon_{i, a*x_j}, the elementary-matrix generator of SL_n."""
    if i == j:
        raise InvalidFactor("linear elementary needs i != j")
    f = Polynomial.variable(field, n, j).scale(field.elem(a))
    return elementary(field, n, i, f)


# -- inversion of structured expanded maps ---------------------------------

def affine_parts(phi: Endo):
    """(matrix, constants) of an affine map, or None if not affine."""
    n = phi.nvars
    field = phi.field
    A = [[field.zero] * n for _ in range(n)]
    b = [field.zero] * n
    for i, c in enumerate(phi.components):
        for e, payload in c.terms.items():
            d = sum(e)
            if d > 1:
                return None
            if d == 0:
                b[i] = FieldElement(field, payload)
            else:
                j = next(k for k, ek in enumerate(e) if ek)
                A[i][j] = FieldElement(field, payload)
    return tuple(tuple(r) for r in A), tuple(b)


def triangular_parts(phi: Endo):
    """(scalars, polys) of a lower-triangular map, or None."""
    n = phi.nvars
    field = phi.field
    scalars = []
    polys = []
    for i, c in enumerate(phi.components, start=1):
        diag = tuple(1 if k == i - 1 else 0 for k in range(n))
        a = c.coeff(diag)
        if a.is_zero():
            return None
        rest = c - Polynomial.variable(field, n, i).scale(a)
        for j in range(i, n + 1):
            if rest.involves(j):
                return None
        scalars.append(a)
        polys.append(rest)
    return tuple(scalars), tuple(polys)


def triangular_from_endo(phi: Endo) -> Triangular:
    parts = triangular_parts(phi)
    if parts is None:
        raise NotTriangular(f"{phi!r} is not lower triangular")
    return Triangular(phi.field, phi.nvars, parts[0], parts[1])


def elementary_parts(phi: Endo):
    """(i, f) if phi = epsilon_{i,f} with f nonzero, or None.

    The identity is not reported as elementary here; a nontrivial axis is
    required.
    """
    n = phi.nvars
    moved = []
    for i in range(1, n + 1):
        xi = Polynomial.variable(phi.field, n, i)
        diff = phi.components[i - 1] - xi
        if not diff.is_zero():
            moved.append((i, diff))
    if len(moved) != 1:
        return None
    i, f = moved[0]
    if f.involves(i):
        return None
    return i, f


def invert_endo(phi: Endo, cap: Optional[int] = DEFAULT_DEGREE_CAP) -> Endo:
    """Exact inverse of an affine, elementary, or triangular expanded map."""
    field = phi.field
    n = phi.nvars
    ep = elementary_parts(phi)
    if ep is not None:
        i, f = ep
        comps = list(identity_images(field, n))
        comps[i - 1] = comps[i - 1] - f
        return Endo(field, n, comps)
    parts = affine_parts(phi)
    if parts is not None:
        A, b = parts
        Ainv = mat_inv(field, A)  # raises Singular when not invertible
        comps = []
        for i in range(n):
            p = Polynomial.zero(field, n)
            for j in range(n):
                if not Ainv[i][j].is_zero():
                    p = p + Polynomial.variable(field, n, j + 1).scale(Ainv[i][j])
            shift = sum((Ainv[i][j] * b[j] for j in range(n)), field.zero)
            comps.append(p - Polynomial.constant(field, n, shift))
        return Endo(field, n, comps)
    tparts = triangular_parts(phi)
    if tparts is not None:
        scalars, polys = tparts
        inv_comps = list(identity_images(field, n))
        for i in range(1, n + 1):
            ainv = scalars[i - 1].inv()
            shifted = polys[i - 1].substitute(inv_comps, cap=cap)
            inv_comps[i - 1] = (Polynomial.variable(field, n, i)
                                - shifted).scale(ainv)
        return Endo(field, n, inv_comps)
    raise NotStructured(
        "can only invert affine, elementary, or triangular expanded maps")


# -- jacobian and classification --------------------------------------------

def jacobian_det(phi: Endo) -> Polynomial:
    """Determinant of (d components[i] / d x_j), exact.

    Cofactor expansion with minor memoization; exact over any field and
    comfortably fast at the dimensions this engine targets.
    """
    n = phi.nvars
    field = phi.field
    J = [[phi.components[i].partial_derivative(j + 1) for j in range(n)]
         for i in range(n)]
    memo = {}

    def minor(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Polynomial:
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


def is_special(phi: Endo) -> bool:
    return jacobian_det(phi) == Polynomial.one(phi.field, phi.nvars)


@dataclass(frozen=True)
class Classification:
    identity: bool
    translation: bool
    linear: bool
    affine: bool
    diagonal_affine: bool
    elementary: bool
    triangular: bool
    parabolic: bool
    special: bool


def classify(phi: Endo) -> Classification:
    n = phi.nvars
    field = phi.field
    ident = phi.is_identity()
    parts = affine_parts(phi)
    affine = parts is not None
    linear = False
    translation_flag = False
    diagonal = False
    if affine:
        A, b = parts
        linear = all(x.is_zero() for x in b)
        is_id_matrix = all(
            (A[i][j].is_one() if i == j else A[i][j].is_zero())
            for i in range(n) for j in range(n))
        translation_flag = is_id_matrix
        diagonal = all(A[i][j].is_zero() for i in range(n)
                       for j in range(n) if i != j) and \
            all(not A[i][i].is_zero() for i in range(n))
    elem = ident or elementary_parts(phi) is not None
    tri = triangular_parts(phi) is not None
    parabolic = _is_parabolic(phi)
    return Classification(
        identity=ident,
        translation=translation_flag,
        linear=linear,
        affine=affine,
        diagonal_affine=diagonal,
        elementary=elem,
        triangular=tri,
        parabolic=parabolic,
        special=is_special(phi),
    )


def _is_parabolic(phi: Endo) -> bool:
    """First n-1 components free of x_n; last = a_n x_n + P(x_1..x_{n-1})."""
    n = phi.nvars
    for c in phi.components[:-1]:
        if c.involves(n):
            return False
    last = phi.components[-1]
    diag = tuple(1 if k == n - 1 else 0 for k in range(n))
    a = last.coeff(diag)
    if a.is_zero():
        return False
    rest = last - Polynomial.variable(phi.field, n, n).scale(a)
    return not rest.involves(n)


def vector_degree(phi: Endo) -> Tuple[int, ...]:
    """vd(tau) = (deg P_1, ..., deg P_n) for triangular tau, deg(0) = 0.
    Tuples compare lexicographically, which matches the induction order."""
    parts = triangular_parts(phi)
    if parts is None:
        raise NotTriangular("vector degree needs a triangular map")
    return tuple(p.deg() for p in parts[1])
