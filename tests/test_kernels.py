"""The term-map kernels against sympy as an independent oracle.

The random term maps are drawn with exponent tuples, which the oracles and
the references read; the kernels get them packed (`poly.pack`), and their
products are unpacked (`poly.unpack`) for the comparison."""

import random
from fractions import Fraction

import pytest

from gen import assert_canonical_q
from polyauto import finite, kernels
from polyauto.fields import Field
from polyauto.poly import pack, unpack


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def rand_terms_fp(rng, n, p, count):
    return {tuple(rng.randint(0, 4) for _ in range(n)):
            rng.randrange(1, p) for _ in range(count)}


def rand_terms_obj(rng, n, count):
    """Random terms over Q with canonical payloads as coefficients."""
    return {tuple(rng.randint(0, 4) for _ in range(n)):
            kernels.canonical(Fraction(rng.randint(-9, 9) or 1,
                                       rng.randint(1, 9)))
            for _ in range(count)}


def rand_terms_ext(rng, n, p, s, count):
    """Random terms over F_{p^s} with nonzero codes as coefficients."""
    return {tuple(rng.randint(0, 4) for _ in range(n)):
            rng.randrange(1, p ** s) for _ in range(count)}


def packed(terms):
    return {pack(e): c for e, c in terms.items()}


def unpacked(terms, n):
    return {unpack(k, n): c for k, c in terms.items()}


def sympy_product(sympy, a, b, gens, coeff):
    """The expanded product of two term maps, as exponent tuple -> sympy
    coefficient; `coeff` turns a payload into a sympy expression."""
    def expr(terms):
        return sympy.Add(*(coeff(c) * sympy.Mul(*(g ** k for g, k
                                                   in zip(gens, e)))
                           for e, c in terms.items()))
    return sympy.expand(expr(a) * expr(b))


def sympy_terms(sympy, expr, gens):
    """Exponent tuple -> sympy coefficient of an expanded expression."""
    return dict(sympy.Poly(expr, *gens).terms()) if expr != 0 else {}


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_fp_matches_sympy(sympy):
    # the product over Z, reduced mod 7 afterwards
    rng = random.Random(1)
    gens = sympy.symbols("x1:4")
    for _ in range(50):
        a = rand_terms_fp(rng, 3, 7, rng.randint(1, 12))
        b = rand_terms_fp(rng, 3, 7, rng.randint(1, 12))
        prod = sympy_product(sympy, a, b, gens, sympy.Integer)
        terms = sympy_terms(sympy, prod, gens)
        want = {e: int(c) % 7 for e, c in terms.items() if int(c) % 7}
        assert unpacked(finite.mul_terms_fp(packed(a), packed(b), 7),
                        3) == want


def test_obj_matches_sympy(sympy):
    rng = random.Random(2)
    gens = sympy.symbols("x1:3")
    for _ in range(50):
        a = rand_terms_obj(rng, 2, rng.randint(1, 10))
        b = rand_terms_obj(rng, 2, rng.randint(1, 10))
        prod = sympy_product(sympy, a, b, gens, sympy.Rational)
        want = {e: Fraction(int(c.p), int(c.q))
                for e, c in sympy_terms(sympy, prod, gens).items()}
        assert unpacked(kernels.mul_terms_obj(packed(a), packed(b)),
                        2) == want


def test_ext_matches_sympy(sympy):
    # F9 = F3[t]/(t^2 + 1): multiply with t as an extra variable over Z,
    # reduce mod t^2 + 1, then reduce the coefficients mod 3
    rng = random.Random(3)
    F9 = Field.of_order(9)
    assert F9.modulus == (1, 0, 1)
    gens = sympy.symbols("x1:3")
    t = sympy.Symbol("t")

    def coeff(code):
        vec = finite.digits(code, 3, 2)
        return vec[0] + vec[1] * t

    for _ in range(50):
        a = rand_terms_ext(rng, 2, 3, 2, rng.randint(1, 10))
        b = rand_terms_ext(rng, 2, 3, 2, rng.randint(1, 10))
        prod = sympy_product(sympy, a, b, gens, coeff)
        reduced = sympy.rem(prod, t ** 2 + 1, t)
        want = {}
        for e, c in sympy_terms(sympy, reduced, gens + (t,)).items():
            c = int(c) % 3
            if c:
                vec = list(want.get(e[:-1], (0, 0)))
                vec[e[-1]] = c
                want[e[:-1]] = tuple(vec)
        got = finite.mul_terms_ext(packed(a), packed(b), 3, F9.modulus)
        assert {e: finite.digits(c, 3, 2)
                for e, c in unpacked(got, 2).items()} == want


def fraction_product(a, b):
    """Coefficient by coefficient Fraction arithmetic: the reference for the
    shared-denominator Q kernel."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_obj_matches_fraction_arithmetic():
    rng = random.Random(4)
    for _ in range(200):
        a = rand_terms_obj(rng, 3, rng.randint(0, 8))
        b = rand_terms_obj(rng, 3, rng.randint(0, 8))
        got = kernels.mul_terms_obj(packed(a), packed(b))
        assert unpacked(got, 3) == fraction_product(a, b)
        assert_canonical_q(got.values())


def test_clear_denominators():
    a = {(1, 0): Fraction(1, 6), (0, 1): Fraction(-3, 4), (0, 0): Fraction(2)}
    P, d = kernels.clear_denominators(packed(a))
    assert d == 12
    assert P == packed({(1, 0): 2, (0, 1): -9, (0, 0): 24})
    assert kernels.clear_denominators({}) == ({}, 1)


def test_int_kernel_accumulates_in_place():
    rng = random.Random(5)
    for _ in range(100):
        a = {e: int(c * 100) for e, c in rand_terms_obj(rng, 2, 4).items()}
        b = {e: int(c * 100) for e, c in rand_terms_obj(rng, 2, 4).items()}
        k = rng.randint(-5, 5)
        out = {pack((0, 0)): 3}
        got = kernels.mul_terms_int(packed(a), packed(b), k, out)
        assert got is out
        want = fraction_product(a, b)
        want = {e: k * c for e, c in want.items()}
        want[(0, 0)] = want.get((0, 0), 0) + 3
        assert {e: v for e, v in unpacked(got, 2).items() if v} == \
            {e: v for e, v in want.items() if v}


def field_product(field, a, b):
    """Pair by pair with the Field's payload operations: the reference for
    the F_{p^s} kernel."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = field._padd(out.get(key, field.zero.payload),
                                   field._pmul(ca, cb))
    return {e: c for e, c in out.items() if c}


def test_ext_kernel_accumulates_in_place():
    rng = random.Random(6)
    for q in (4, 8, 9, 25):
        field = Field.of_order(q)
        p, s, modulus = field.p, field.s, field.modulus
        units = [u.payload for u in field.units()]
        for _ in range(40):
            a = rand_terms_ext(rng, 2, p, s, rng.randint(0, 6))
            b = rand_terms_ext(rng, 2, p, s, rng.randint(0, 6))
            got = finite.mul_terms_ext(packed(a), packed(b), p, modulus)
            assert unpacked(got, 2) == field_product(field, a, b)
            k = rng.choice(units)
            start = rand_terms_ext(rng, 2, p, s, rng.randint(0, 4))
            out = packed(start)
            got = finite.mul_terms_ext(packed(a), packed(b), p, modulus, k,
                                        out)
            assert got is out
            got = unpacked(got, 2)
            want = dict(start)
            for e, c in field_product(field, a, b).items():
                want[e] = field._padd(want.get(e, field.zero.payload),
                                      field._pmul(k, c))
            assert {e: c for e, c in got.items() if c} == \
                {e: c for e, c in want.items() if c}
            # the multiplier zero adds nothing, and `out` is left as it was
            out, start = packed(start), packed(start)
            got = finite.mul_terms_ext(packed(a), packed(b), p, modulus, 0,
                                       out)
            assert got is out and out == start


def test_cancellation_removes_keys():
    # (x + 1)(x + 4) = x^2 + 5x + 4 = x^2 + 4 mod 5: the x key must vanish
    x, one = pack((1,)), pack((0,))
    a = {x: 1, one: 1}
    b = {x: 1, one: 4}
    assert finite.mul_terms_fp(a, b, 5) == {pack((2,)): 1, one: 4}
    # same shape over Q with Fractions
    aq = {x: Fraction(1), one: Fraction(1)}
    bq = {x: Fraction(1), one: Fraction(-1)}
    assert kernels.mul_terms_obj(aq, bq) == {pack((2,)): Fraction(1),
                                             one: Fraction(-1)}


# -- the Q elimination ---------------------------------------------------------

def rand_matrix_q(rng, n, digits):
    """A seeded n x n matrix of Fractions with numerators and denominators
    of up to `digits` digits; about a third of the entries are zero, so
    pivots often need a row swap."""
    top = 10 ** digits - 1
    return [[Fraction(rng.randint(-top, top), rng.randint(1, top))
             if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(n)]


def elimination_cases():
    """Seeded matrices for n = 1..5 (every fifth with 40-digit entries),
    each also made singular (row n a combination of the others, or zero at
    n = 1), and hand-made ones whose pivots are zero until rows swap."""
    rng = random.Random(30)
    cases = []
    for n in range(1, 6):
        for trial in range(25):
            A = rand_matrix_q(rng, n, 40 if trial % 5 == 0 else 1)
            singular = [row[:] for row in A]
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            singular[-1] = [c * x + y for x, y in zip(A[0], A[1])] \
                if n > 1 else [Fraction(0)]
            cases += [A, singular]
    F = Fraction
    cases += [
        [[F(0), F(1)], [F(1), F(0)]],
        [[F(0), F(0), F(2)], [F(0), F(3), F(0)], [F(5), F(0), F(0)]],
        # the second pivot is zero once the first column is cleared
        [[F(1), F(1), F(0)], [F(1), F(1), F(1)], [F(0), F(1), F(1)]],
        [[F(0), F(1, 2), F(0), F(0)], [F(0), F(0), F(0), F(-1, 3)],
         [F(7, 5), F(0), F(0), F(0)], [F(0), F(0), F(2, 9), F(1)]],
        [[F(10 ** 50 + 1, 3), F(-1, 10 ** 40)], [F(0), F(10 ** 30, 7)]],
        [[F(1)] * 3] * 3,
        [],
    ]
    return cases


def test_q_elimination_is_bound_to_the_rationals_only():
    assert Field.rationals()._eliminate is kernels.gauss_jordan_q
    for field in (Field.prime(5), Field.of_order(4)):
        assert field._eliminate.__func__ is finite.FiniteField._eliminate


def test_q_elimination_matches_the_generic_one():
    """The field-generic Gauss-Jordan of finite fields, run on Q payloads,
    gives the same det and inverse."""
    Q = Field.rationals()
    for A in elimination_cases():
        for inverse in (False, True):
            want = finite.FiniteField._eliminate(Q, A, inverse)
            assert kernels.gauss_jordan_q(A, inverse) == want, (A, inverse)
        det, inv = kernels.gauss_jordan_q(A, True)
        assert_canonical_q([det] + [x for row in inv or () for x in row])
        assert (inv is None) == (det == 0)


def test_q_elimination_matches_sympy(sympy):
    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    def fraction(r):
        return Fraction(int(r.p), int(r.q))

    for A in elimination_cases():
        if not A:
            continue
        M = sympy.Matrix([[rational(x) for x in row] for row in A])
        det, inv = kernels.gauss_jordan_q(A, True)
        assert det == fraction(M.det()), A
        assert kernels.gauss_jordan_q(A)[0] == det
        if det:
            want = M.inv()
            assert inv == [[fraction(want[i, j]) for j in range(len(A))]
                           for i in range(len(A))], A
