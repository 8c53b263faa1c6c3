"""Polynomial endomorphisms, factored automorphism words, certificate
records and `Record`, the base of every value record: the part of the
algebra that a certificate is made of and that the verifier reads.

Composition follows the right-action convention: polynomials are acted on
from the right, so the word phi*psi sends P to ((P)phi)psi and the composed
tuple is compose(phi, psi)[i] = substitute(phi[i], psi.components).

Basic factors (linear, translation, elementary, triangular, signed
permutation, exp(FD) of a triangular derivation D with F in ker D) expand
to tuples and invert structurally, so every factored word is invertible by
construction.  The tools that the engines and the CLI build on these live
in polyauto.autos, which the verifier does not load.

A certificate names a field and arity, seed automorphisms given as
factored words, and a chain of steps.  Each step is a word whose items
conjugator^{-1} * base^{exponent} * conjugator are conjugated powers of
seeds or of earlier steps, and it states the value of their product and
that value's inverse; the terminal step claims a nontrivial elementary
automorphism.  Its text (.nct) is written by textio.serialize_certificate
and read and verified by polyauto.certificates.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import factorial, prod

from .errors import (ArityMismatch, FieldMismatch, InvalidFactor,
                     KernelViolation, NilpotencyCapExceeded,
                     UnsupportedCharacteristic)
from .fields import RATIONALS, Field, FieldElement
from .poly import (DEFAULT_DEGREE_CAP, Polynomial, PreparedImages,
                   cap_limit, check_degree, identity_images, variable_keys)


class Record:
    """Base of the value records: slots set by the class's own `__init__`,
    immutable by contract, equal and hashed by slot values, printed as
    `Name(slot=value, ...)`.  Not dataclasses: importing `dataclasses`
    (inspect, ast, dis) and building them cost each CLI process ~35 ms."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Endo:
    """Polynomial endomorphism given by its expanded component tuple:
    (x_i) phi = components[i-1].  Immutable, so its degree is taken once."""

    __slots__ = ("field", "nvars", "components", "_deg")

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
        self._deg = None

    @staticmethod
    def identity(field: Field, nvars: int) -> "Endo":
        return Endo(field, nvars, identity_images(field, nvars))

    def deg(self) -> int:
        """The largest total degree of a component."""
        if self._deg is None:
            self._deg = max(map(Polynomial.deg, self.components), default=0)
        return self._deg

    def is_identity(self) -> bool:
        return all(c.terms == x.terms for c, x in zip(
            self.components, identity_images(self.field, self.nvars)))

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
            cap: int | None = DEFAULT_DEGREE_CAP) -> Endo:
    """The word phi*psi under the right-action convention; Endo has held
    psi's components, and so the ones made here, to one field and arity."""
    if phi.field != psi.field:
        raise FieldMismatch("composing over different fields")
    if phi.nvars != psi.nvars:
        raise ArityMismatch("composing different arities")
    images, limit = PreparedImages(psi.components, psi.field), cap_limit(cap)
    check = phi.deg() * psi.deg() > limit  # no term expands past it
    out = object.__new__(Endo)
    out.field, out.nvars, out._deg = phi.field, phi.nvars, None
    out.components = tuple([images.accumulate(c.terms, limit, check)
                            for c in phi.components])
    return out


def start_product(phi: Endo, cap: int | None = DEFAULT_DEGREE_CAP) -> Endo:
    """phi as the first piece of a product, held to the cap as composing it
    after the identity would hold it: by its first component over the cap."""
    if phi.deg() > cap_limit(cap):
        for c in phi.components:
            check_degree("substitution term degree", c.deg(), cap_limit(cap))
    return phi


# -- matrices over the field (helpers for affine maps) -------------------

def mat_det(field: Field, A) -> FieldElement:
    if any(a.field is not field for row in A for a in row):
        raise FieldMismatch(f"matrix entry not in {field.tag()}")
    return FieldElement(field, field._eliminate(
        [[a.payload for a in row] for row in A])[0])


def linear_map(field: Field, n: int, A) -> Endo:
    """x_i -> sum_j A[i][j] x_j, with no check that A is invertible."""
    keys = variable_keys(n)[1:]
    return Endo(field, n, [Polynomial.from_keys(field, n, {
        k: a.payload for k, a in zip(keys, row)}) for row in A])


# -- basic factors -------------------------------------------------------

class Linear(Record):
    """Invertible linear map x_i -> sum_j matrix[i][j] x_j."""
    __slots__ = ("field", "nvars", "matrix", "_det")

    def __init__(self, field: Field, nvars: int,
                 matrix: tuple[tuple[FieldElement, ...], ...]):
        if len(matrix) != nvars or any(len(r) != nvars for r in matrix):
            raise InvalidFactor("linear factor needs an n x n matrix")
        self._det = mat_det(field, matrix)  # the singularity check's, kept
        if self._det.is_zero():
            raise InvalidFactor("linear factor matrix is singular")
        self.field = field
        self.nvars = nvars
        self.matrix = matrix

    def expand(self) -> Endo:
        return linear_map(self.field, self.nvars, self.matrix)

    def inverted(self) -> "Linear":
        """The inverse by elimination, which cannot meet a singular matrix
        (det is nonzero); its det, det^-1, needs no second one."""
        field, n = self.field, self.nvars
        rows = field._eliminate([[a.payload for a in row]
                                 for row in self.matrix], True)[1]
        out = object.__new__(Linear)
        out.field, out.nvars, out._det = field, n, self._det.inv()
        out.matrix = tuple(tuple(FieldElement(field, x) for x in row)
                           for row in rows)
        return out

    def det(self) -> FieldElement:
        return self._det


class Translation(Record):
    __slots__ = ("field", "nvars", "vector")

    def __init__(self, field: Field, nvars: int,
                 vector: tuple[FieldElement, ...]):
        if len(vector) != nvars:
            raise InvalidFactor("translation vector length != n")
        self.field = field
        self.nvars = nvars
        self.vector = vector

    def expand(self) -> Endo:
        comps = [Polynomial.variable(self.field, self.nvars, i + 1)
                 + Polynomial.constant(self.field, self.nvars, b)
                 for i, b in enumerate(self.vector)]
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "Translation":
        return Translation(self.field, self.nvars,
                           tuple(-b for b in self.vector))

    def det(self) -> FieldElement:
        return self.field.one


class Elementary(Record):
    """x_i -> x_i + f with f free of x_i; everything else fixed."""
    __slots__ = ("field", "nvars", "i", "f")

    def __init__(self, field: Field, nvars: int, i: int, f: Polynomial):
        if not 1 <= i <= nvars:
            raise InvalidFactor(f"index {i} out of range")
        if f.field != field or f.nvars != nvars:
            raise InvalidFactor("elementary polynomial has wrong field/arity")
        if f.involves(i):
            raise InvalidFactor(f"f may not involve x{i}")
        self.field = field
        self.nvars = nvars
        self.i = i
        self.f = f

    def expand(self) -> Endo:
        comps = list(identity_images(self.field, self.nvars))
        comps[self.i - 1] = comps[self.i - 1] + self.f
        return Endo(self.field, self.nvars, comps)

    def inverted(self) -> "Elementary":
        return Elementary(self.field, self.nvars, self.i, -self.f)

    def det(self) -> FieldElement:
        return self.field.one


class Triangular(Record):
    """Lower triangular: x_i -> a_i x_i + P_i(x_1..x_{i-1}), a_i units."""
    __slots__ = ("field", "nvars", "scalars", "polys")

    def __init__(self, field: Field, nvars: int,
                 scalars: tuple[FieldElement, ...],
                 polys: tuple[Polynomial, ...]):
        if len(scalars) != nvars or len(polys) != nvars:
            raise InvalidFactor("triangular factor needs n scalars and n polys")
        for i, (a, p) in enumerate(zip(scalars, polys), start=1):
            if a.is_zero():
                raise InvalidFactor(f"scalar a{i} must be a unit")
            for j in range(i, nvars + 1):
                if p.involves(j):
                    raise InvalidFactor(
                        f"P{i} may only involve x1..x{i-1}")
        self.field = field
        self.nvars = nvars
        self.scalars = scalars
        self.polys = polys

    def expand(self) -> Endo:
        comps = [Polynomial.variable(self.field, self.nvars, i + 1).scale(a) + p
                 for i, (a, p) in enumerate(zip(self.scalars, self.polys))]
        return Endo(self.field, self.nvars, comps)

    def inverted(self, cap: int | None = DEFAULT_DEGREE_CAP) -> "Triangular":
        """Back-substitution: x_i -> a_i^{-1} (x_i - P_i(inverse images of
        x_1..x_{i-1})), each P_i substituted under `cap`.  An elementary
        factor (every a_i = 1, at most one P_i nonzero) is inverted by
        negating its P_i, with no substitution and so under no cap, as
        invert_endo inverts an elementary map."""
        field, n = self.field, self.nvars
        if all(a.is_one() for a in self.scalars) and \
                sum(not p.is_zero() for p in self.polys) <= 1:
            return Triangular(field, n, self.scalars,
                              tuple(-p for p in self.polys))
        images = list(identity_images(field, n))
        scalars, polys = [], []
        for i, (a, p) in enumerate(zip(self.scalars, self.polys)):
            ainv = a.inv()
            q = p.substitute(images, cap=cap).scale(-ainv)
            images[i] = images[i].scale(ainv) + q
            scalars.append(ainv)
            polys.append(q)
        return Triangular(field, n, tuple(scalars), tuple(polys))

    def det(self) -> FieldElement:
        return prod(self.scalars, start=self.field.one)


class SignedPermutation(Record):
    """x_i -> sign_i * x_{perm[i]} (perm 1-based)."""
    __slots__ = ("field", "nvars", "perm", "signs")

    def __init__(self, field: Field, nvars: int, perm: tuple[int, ...],
                 signs: tuple[FieldElement, ...]):
        if sorted(perm) != list(range(1, nvars + 1)):
            raise InvalidFactor("not a permutation of 1..n")
        if len(signs) != nvars:
            raise InvalidFactor("signed permutation needs n signs")
        if any(s.is_zero() for s in signs):
            raise InvalidFactor("signs must be units")
        self.field = field
        self.nvars = nvars
        self.perm = perm
        self.signs = signs

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

    def det(self) -> FieldElement:
        """sign(perm) * prod s_i, the sign by counting inversions."""
        out = prod(self.signs, start=self.field.one)
        inversions = sum(a > b for k, a in enumerate(self.perm)
                         for b in self.perm[k + 1:])
        return -out if inversions % 2 else out


# -- triangular derivations and exp(FD) ---------------------------------

NILPOTENCY_CAP = 64


class TriDerivation:
    """D = sum Q_i d/dx_i with Q_i in K[x_1..x_{i-1}] (Q_1 constant)."""

    __slots__ = ("field", "nvars", "images")

    def __init__(self, field: Field, nvars: int, images: Sequence[Polynomial]):
        if len(images) != nvars:
            raise ArityMismatch(f"need {nvars} images, got {len(images)}")
        for i, q in enumerate(images, start=1):
            if q.field != field or q.nvars != nvars:
                raise ArityMismatch("derivation image with wrong field/arity")
            for j in range(i, nvars + 1):
                if q.involves(j):
                    raise InvalidFactor(
                        f"D(x{i}) may only involve x1..x{i-1}, found x{j}")
        self.field = field
        self.nvars = nvars
        self.images = tuple(images)

    def is_zero(self) -> bool:
        return all(q.is_zero() for q in self.images)

    def __eq__(self, other):
        return (isinstance(other, TriDerivation)
                and self.field == other.field and self.images == other.images)

    def __hash__(self):
        return hash((self.field, self.images))

    def __repr__(self):
        from .textio import derivation_to_text
        return derivation_to_text(self)


def apply_derivation(D: TriDerivation, P: Polynomial) -> Polynomial:
    """D(P) = sum_i Q_i * dP/dx_i, exact."""
    if P.field != D.field or P.nvars != D.nvars:
        raise ArityMismatch("polynomial and derivation arity/field differ")
    out = Polynomial.zero(D.field, D.nvars)
    for i, q in enumerate(D.images, start=1):
        if q.is_zero():
            continue
        dp = P.partial_derivative(i)
        if not dp.is_zero():
            out = out + q * dp
    return out


def kernel_check(D: TriDerivation, F: Polynomial) -> bool:
    return apply_derivation(D, F).is_zero()


def exp_images(F: Polynomial, D: TriDerivation) -> tuple[Polynomial, ...]:
    """Component tuple of exp(FD): x_i + sum_{m>=1} (FD)^m(x_i)/m!.

    Requires characteristic zero (the factorials) and F in ker D, which
    makes FD a locally nilpotent derivation so every series terminates.
    """
    field = F.field
    if field.kind != RATIONALS:
        raise UnsupportedCharacteristic(
            "exp(FD) is only supported in characteristic zero")
    if F.field != D.field or F.nvars != D.nvars:
        raise ArityMismatch("F and D over different rings")
    if not kernel_check(D, F):
        raise KernelViolation("F is not in the kernel of D")
    n = D.nvars
    comps = []
    for i in range(1, n + 1):
        acc = Polynomial.variable(field, n, i)
        term = acc
        m = 0
        while True:
            term = F * apply_derivation(D, term)
            m += 1
            if term.is_zero():
                break
            if m > NILPOTENCY_CAP:
                raise NilpotencyCapExceeded(
                    f"exp series for x{i} did not terminate within "
                    f"{NILPOTENCY_CAP} steps")
            acc = acc + term.scale(field.one / factorial(m))
        comps.append(acc)
    return tuple(comps)


class ExpLND(Record):
    """exp(FD) for a triangular derivation D and F in its kernel."""
    __slots__ = ("field", "nvars", "F", "D")

    def __init__(self, field: Field, nvars: int, F: Polynomial,
                 D: TriDerivation):
        if field.kind != RATIONALS:
            raise InvalidFactor("exp(FD) needs characteristic zero")
        if F.field != field or F.nvars != nvars:
            raise InvalidFactor("F has wrong field/arity")
        if D.field != field or D.nvars != nvars:
            raise InvalidFactor("D has wrong field/arity")
        if not kernel_check(D, F):
            raise InvalidFactor("F is not in ker D")
        self.field = field
        self.nvars = nvars
        self.F = F
        self.D = D

    def expand(self) -> Endo:
        return Endo(self.field, self.nvars, exp_images(self.F, self.D))

    def inverted(self) -> "ExpLND":
        return ExpLND(self.field, self.nvars, -self.F, self.D)

    def det(self) -> FieldElement:
        """exp(tFD) is an automorphism of k[t][x] over k[t], so its
        determinant is a unit there, a constant, and 1 at t = 0."""
        return self.field.one


# -- factored words -------------------------------------------------------

class FactoredAuto:
    """Word of basic factors with exponents +-1; invertible by construction.

    The expansion and the inverse word are cached, so a word reused as a
    conjugator is expanded once, and so is its inverse; equality of factored
    words is always decided on expanded tuples, never on the words
    themselves.
    """

    __slots__ = ("field", "nvars", "factors", "_expanded", "_inverse")

    def __init__(self, field: Field, nvars: int, factors=()):
        self.field = field
        self.nvars = nvars
        word = []
        for entry in factors:
            factor, exp = entry if isinstance(entry, tuple) else (entry, 1)
            if exp not in (1, -1):
                raise InvalidFactor("factor exponent must be +-1")
            if factor.field != field or factor.nvars != nvars:
                raise InvalidFactor("factor with wrong field/arity")
            word.append((factor, exp))
        self.factors = tuple(word)
        self._expanded = self._inverse = None

    @staticmethod
    def identity(field: Field, nvars: int) -> "FactoredAuto":
        return FactoredAuto(field, nvars, ())

    def expand(self, cap: int | None = DEFAULT_DEGREE_CAP) -> Endo:
        """The expanded map.  A cached expansion is checked against `cap`
        by its total degree, so a smaller cap than the first call's still
        raises."""
        if self._expanded is None:
            out = None
            for factor, exp in self.factors:
                if exp == 1:
                    piece = factor.expand()
                elif isinstance(factor, Triangular):
                    piece = factor.inverted(cap).expand()
                else:
                    piece = factor.inverted().expand()
                out = (start_product(piece, cap) if out is None
                       else compose(out, piece, cap=cap))
            self._expanded = out or Endo.identity(self.field, self.nvars)
        else:
            check_degree("expanded word degree", self._expanded.deg(),
                         cap_limit(cap))
        return self._expanded

    def inverse(self) -> "FactoredAuto":
        """The inverse word, built once: its own inverse is this word."""
        if self._inverse is None:
            self._inverse = FactoredAuto(
                self.field, self.nvars,
                [(f, -e) for f, e in reversed(self.factors)])
            self._inverse._inverse = self
        return self._inverse

    def det(self) -> FieldElement:
        """Jacobian determinant of the word, without expanding it.  By the
        chain rule det J(F*G) = (det J F)(G) * det J G, and every factor's
        determinant is a constant, so the word's is their product."""
        return prod((f.det() if exp == 1 else f.det().inv()
                     for f, exp in self.factors), start=self.field.one)

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


# -- the shape of an expanded map ---------------------------------------

def affine_parts(phi: Endo):
    """(matrix, constants) of an affine map, or None if not affine: each
    term's key is x_j's (column j) or 1's (the constant)."""
    if phi.deg() > 1:
        return None
    field, keys = phi.field, variable_keys(phi.nvars)
    rows = []
    for c in phi.components:
        row = [field.zero] * len(keys)
        for k, v in c.terms.items():
            row[keys.index(k)] = FieldElement(field, v)
        rows.append(row)
    return tuple(tuple(r[1:]) for r in rows), tuple(r[0] for r in rows)


def elementary_parts(phi: Endo):
    """(i, f) if phi = epsilon_{i,f} with f nonzero, or None.

    The identity is not reported as elementary here; a nontrivial axis is
    required.
    """
    field, n = phi.field, phi.nvars
    moved = [i for i, c in enumerate(phi.components, start=1)
             if c.terms != identity_images(field, n)[i - 1].terms]
    if len(moved) != 1:
        return None
    i, = moved
    terms, key = phi.components[i - 1].terms, variable_keys(n)[i]
    if terms.get(key) != field.one.payload:  # f would involve x_i
        return None
    f = Polynomial(field, n, {k: v for k, v in terms.items() if k != key})
    return None if f.involves(i) else (i, f)


# -- certificate records ----------------------------------------------------

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
