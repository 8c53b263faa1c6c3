import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyauto import kernels
from polyauto.autos import Endo, compose
from polyauto.errors import (ArityMismatch, DegreeCapExceeded, FieldMismatch,
                             IndexOutOfRange)
from polyauto.fields import Field
from polyauto.poly import (MAX_DEGREE, Polynomial, PreparedImages,
                           identity_images, pack, unpack)
from polyauto.textio import parse_polynomial, poly_to_text

_Q = Field.rationals()


@st.composite
def rational_polys(draw, nvars=2, max_deg=3):
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)]),
            st.fractions(min_value=-50, max_value=50, max_denominator=9)),
        max_size=5))
    p = Polynomial.zero(_Q, nvars)
    for exps, coeff in terms:
        p = p + Polynomial.monomial(_Q, nvars, _Q.elem(coeff), exps)
    return p


def xvars(field, n):
    return [Polynomial.variable(field, n, i) for i in range(1, n + 1)]


def test_product_of_conjugates(Q):
    x1, x2 = xvars(Q, 2)
    assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2


def test_char2_square(F2):
    x1, x2 = xvars(F2, 2)
    # cross term 2 x1 x2 vanishes
    assert (x1 + x2) ** 2 == x1 ** 2 + x2 ** 2


def test_add_zero_identity(Q):
    x1, x2 = xvars(Q, 2)
    p = x1 * x2 + 3
    assert p + Polynomial.zero(Q, 2) == p


def test_substitute_forced_example(Q):
    x1, x2 = xvars(Q, 2)
    got = (x1 ** 2).substitute([x1 + 1, x2])
    assert got == x1 ** 2 + 2 * x1 + 1


def test_substitute_identity(Q):
    x1, x2 = xvars(Q, 2)
    p = x1 ** 3 - x2 + 2
    assert p.substitute(identity_images(Q, 2)) == p


def test_substitute_is_ring_hom(Q, F5, F4):
    for field in (Q, F5, F4):
        rng = random.Random(11)
        n = 3

        def rand_poly():
            p = Polynomial.zero(field, n)
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                if field.order is None:
                    c = field.elem(Fraction(rng.randint(-4, 4)))
                else:
                    c = field.from_int(rng.randrange(field.order))
                p = p + Polynomial.monomial(field, n, c, exps)
            return p

        for _ in range(500):
            p, q = rand_poly(), rand_poly()
            images = [rand_poly() for _ in range(n)]
            lhs = (p * q).substitute(images)
            rhs = p.substitute(images) * q.substitute(images)
            assert lhs == rhs
            assert (p + q).substitute(images) == \
                p.substitute(images) + q.substitute(images)


def test_substitution_composition_associative(Q):
    rng = random.Random(5)
    n = 2

    def rand_poly():
        p = Polynomial.zero(Q, n)
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            p = p + Polynomial.monomial(Q, n, rng.randint(-3, 3), exps)
        return p

    for _ in range(200):
        p = rand_poly()
        v = [rand_poly() for _ in range(n)]
        w = [rand_poly() for _ in range(n)]
        lhs = p.substitute(v).substitute(w)
        rhs = p.substitute([vj.substitute(w) for vj in v])
        assert lhs == rhs


# -- the integer-numerator substitution over Q against two references -------


def rand_rational_poly(rng, n, count, max_deg):
    """Random Q polynomial whose coefficients have denominators up to 12."""
    p = Polynomial.zero(_Q, n)
    for _ in range(count):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        p = p + Polynomial.monomial(_Q, n, _Q.elem(c), exps)
    return p


def per_term_substitute(p, images):
    """sum(c * prod(img ** e)) term by term, from Polynomial ops alone."""
    m = images[0].nvars
    out = Polynomial.zero(_Q, m)
    for e, c in p.sorted_terms():
        term = Polynomial.constant(_Q, m, c)
        for img, k in zip(images, e):
            term = term * img ** k
        out = out + term
    return out


def assert_fraction_payloads(p):
    assert all(type(c) is Fraction for c in p.terms.values())


def special_images(rng, n):
    """Images mixing zero, constant and general polynomials."""
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(Polynomial.zero(_Q, n))
        elif kind == 1:
            out.append(Polynomial.constant(
                _Q, n, _Q.elem(Fraction(rng.randint(-7, 7) or 1,
                                        rng.randint(1, 9)))))
        else:
            out.append(rand_rational_poly(rng, n, rng.randint(1, 4), 2))
    return out


def test_substitute_matches_per_term_formula():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 3)
        p = rand_rational_poly(rng, n, rng.randint(0, 6), 3)
        images = special_images(rng, n)
        got = p.substitute(images)
        assert got == per_term_substitute(p, images)
        assert_fraction_payloads(got)


def test_compose_matches_per_term_formula():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 3)
        phi = Endo(_Q, n, [rand_rational_poly(rng, n, rng.randint(1, 4), 2)
                           for _ in range(n)])
        psi = Endo(_Q, n, special_images(rng, n))
        got = compose(phi, psi)
        for comp, want in zip(got.components, phi.components):
            assert comp == per_term_substitute(want, psi.components)
            assert_fraction_payloads(comp)


def test_substitute_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    n = 3
    gens = sympy.symbols("x1:4")

    def expr(p):
        return sympy.Add(*(sympy.Rational(c.payload.numerator,
                                          c.payload.denominator)
                           * sympy.Mul(*(g ** k for g, k in zip(gens, e)))
                           for e, c in p.sorted_terms()))

    for _ in range(40):
        p = rand_rational_poly(rng, n, rng.randint(0, 5), 3)
        images = special_images(rng, n)
        want = sympy.expand(expr(p).xreplace(
            {g: expr(img) for g, img in zip(gens, images)}))
        terms = dict(sympy.Poly(want, *gens).terms()) if want != 0 else {}
        got = p.substitute(images)
        assert got.terms == {pack(e): Fraction(int(c.p), int(c.q))
                             for e, c in terms.items()}
        assert_fraction_payloads(got)


def test_substitute_edge_cases(Q):
    x1, x2 = xvars(Q, 2)
    half = Q.elem(Fraction(1, 2))
    zero = Polynomial.zero(Q, 2)
    # the zero polynomial stays zero, whatever the images
    assert zero.substitute([x1 * half, x2]).is_zero()
    # constant images give a constant
    p = x1 ** 2 * x2 + Polynomial.constant(Q, 2, Q.elem(Fraction(1, 3)))
    got = p.substitute([Polynomial.constant(Q, 2, half),
                        Polynomial.constant(Q, 2, Q.elem(Fraction(2, 3)))])
    assert got == Polynomial.constant(Q, 2, Q.elem(Fraction(1, 2)))
    assert_fraction_payloads(got)
    # a zero image kills exactly the terms that involve its variable, and
    # a killed term is not held against the cap
    assert p.substitute([zero, x2]) == \
        Polynomial.constant(Q, 2, Q.elem(Fraction(1, 3)))
    assert (x1 * x2 ** 40).substitute([zero, x2], cap=10).is_zero()
    # terms that cancel leave an empty map: x1^2 - x2 at (y + 1/2, (y + 1/2)^2)
    y = x1 + Polynomial.constant(Q, 2, half)
    assert (x1 ** 2 - x2).substitute([y, y ** 2]).terms == {}


def test_substitute_cap_raises_before_any_work(Q, monkeypatch):
    x1, x2 = xvars(Q, 2)
    p = x1 ** 3 + x2 ** 40
    images = [x1 * Q.elem(Fraction(1, 3)) + 1, x2 ** 40]

    def no_work(*args, **kwargs):
        raise AssertionError("multiplied before the cap check")

    monkeypatch.setattr(kernels, "mul_terms_int", no_work)
    with pytest.raises(DegreeCapExceeded):
        p.substitute(images, cap=1024)


# -- substitution and compose against sympy over Q, F_7 and F_9 -------------


def rand_poly(rng, field, n, count, max_deg):
    """Random polynomial over Q (denominators up to 9) or a finite field.
    Each term involves at most three variables: with n up to 8 the keys
    span several machine words while the expansions stay small."""
    units = None if field.order is None else list(field.units())
    p = Polynomial.zero(field, n)
    for _ in range(count):
        exps = [0] * n
        for j in rng.sample(range(n), min(n, 3)):
            exps[j] = rng.randint(0, max_deg)
        c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             if units is None else rng.choice(units))
        p = p + Polynomial.monomial(field, n, field.elem(c), exps)
    return p


def shaped_images(rng, field, n):
    """Images of every shape compose meets: zero, constant, a bare
    variable, and a general polynomial."""
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(Polynomial.zero(field, n))
        elif kind == 1:
            out.append(rand_poly(rng, field, n, 1, 0))
        elif kind == 2:
            out.append(Polynomial.variable(field, n, rng.randint(1, n)))
        else:
            out.append(rand_poly(rng, field, n, rng.randint(1, 4), 2))
    return out


class SympyRing:
    """The polynomial ring of sympy.polys.rings over the same field: QQ, or
    GF(p) with t as one more generator for F_{p^s}, reduced by the modulus
    in t with rem."""

    def __init__(self, sympy, field, n):
        from sympy.polys.rings import ring
        self.field, self.modulus = field, None
        names = ",".join(f"x{i}" for i in range(1, n + 1))
        if field.order is None:
            self.ring, *self.gens = ring(names, sympy.QQ)
            return
        extra = ",t" if field.modulus else ""
        self.ring, *self.gens = ring(names + extra, sympy.GF(field.p))
        if extra:
            t = self.gens.pop()
            self.modulus = sum(c * t ** i
                               for i, c in enumerate(field.modulus))

    def of(self, poly):
        terms = {}
        for e, c in poly.sorted_terms():
            c = c.payload
            if self.field.order is None:
                terms[e] = self.ring.domain(c.numerator, c.denominator)
            elif self.modulus is None:
                terms[e] = c
            else:
                terms.update({e + (i,): x for i, x in enumerate(c) if x})
        return self.ring.from_dict(terms) if terms else self.ring.zero

    def compose(self, poly, images):
        got = self.of(poly).compose(
            [(g, self.of(img)) for g, img in zip(self.gens, images)])
        return got if self.modulus is None else got.rem(self.modulus)


@pytest.mark.parametrize("order", [None, 7, 9])
def test_substitute_and_compose_match_sympy(order):
    sympy = pytest.importorskip("sympy")
    field = _Q if order is None else Field.of_order(order)
    rng = random.Random(44 + (order or 0))
    for _ in range(40):
        n = rng.randint(1, 8)
        oracle = SympyRing(sympy, field, n)
        p = rand_poly(rng, field, n, rng.randint(0, 5), 3)
        images = shaped_images(rng, field, n)
        assert oracle.of(p.substitute(images)) == oracle.compose(p, images)
        phi = Endo(field, n, shaped_images(rng, field, n)[:-1]
                   + [rand_poly(rng, field, n, rng.randint(1, 4), 2)])
        psi = Endo(field, n, images)
        for got, comp in zip(compose(phi, psi).components, phi.components):
            assert oracle.of(got) == oracle.compose(comp, images)


@pytest.mark.parametrize("order", [None, 7, 9])
def test_mul_partials_and_jacobian_match_sympy(order):
    """Products, partial derivatives and Jacobian determinants; sympy's
    determinant is the Leibniz sum over permutations, not cofactors."""
    sympy = pytest.importorskip("sympy")
    from itertools import permutations
    from polyauto.autos import jacobian_det
    field = _Q if order is None else Field.of_order(order)
    rng = random.Random(71 + (order or 0))
    for _ in range(30):
        n = rng.randint(1, 8)
        oracle = SympyRing(sympy, field, n)

        def reduced(f):
            """f reduced in t, without the zero terms sympy's diff leaves
            over GF(p)."""
            f = oracle.ring.from_dict({m: c for m, c in f.items() if c})
            return f if oracle.modulus is None else f.rem(oracle.modulus)

        p, q = (rand_poly(rng, field, n, rng.randint(0, 5), 3)
                for _ in range(2))
        assert oracle.of(p * q) == reduced(oracle.of(p) * oracle.of(q))
        for i, g in enumerate(oracle.gens, 1):
            assert oracle.of(p.partial_derivative(i)) == \
                reduced(oracle.of(p).diff(g))
        comps = [rand_poly(rng, field, n, rng.randint(1, 4), 2)
                 for _ in range(n)]
        J = [[oracle.of(c).diff(g) for g in oracle.gens] for c in comps]
        det = oracle.ring.zero
        for perm in permutations(range(n)):
            if not all(J[i][j] for i, j in enumerate(perm)):
                continue  # a zero product
            inversions = sum(a > b for i, a in enumerate(perm)
                             for b in perm[i + 1:])
            term = (-1) ** inversions * oracle.ring.one
            for i, j in enumerate(perm):
                term *= J[i][j]
            det += term
        assert oracle.of(jacobian_det(Endo(field, n, comps))) == reduced(det)


def test_bare_variable_does_no_work(Q, F4, monkeypatch):
    cases = []
    for field in (Q, F4):
        x1, x2 = xvars(field, 2)
        cases.append((x1, x2, [x1 * x2 + 1, Polynomial.zero(field, 2)]))

    def no_work(*args, **kwargs):
        raise AssertionError("a bare variable ran a kernel")

    for name in ("mul_terms_int", "mul_terms_fp", "mul_terms_ext",
                 "clear_denominators"):
        monkeypatch.setattr(kernels, name, no_work)
    for x1, x2, images in cases:
        assert x1.substitute(images) == images[0]
        # a zero image kills the bare variable too
        assert x2.substitute(images).is_zero()
        phi = Endo(x1.field, 2, [x2, x1])
        assert compose(phi, Endo(x1.field, 2, images)).components == \
            (images[1], images[0])


def test_bare_variable_over_the_cap(Q):
    x1, x2 = xvars(Q, 2)
    with pytest.raises(DegreeCapExceeded,
                       match="^substitution term degree 40 exceeds cap 10$"):
        x1.substitute([x1 ** 40, x2], cap=10)
    with pytest.raises(DegreeCapExceeded,
                       match="^substitution term degree 40 exceeds cap 39$"):
        compose(Endo(Q, 2, [x2, x1]), Endo(Q, 2, [x1, x2 ** 40]), cap=39)
    assert x1.substitute([x1 ** 40, x2], cap=40) == x1 ** 40


def test_zero_image_kills_exactly_its_terms_in_compose(Q, F9):
    for field in (Q, F9):
        x1, x2 = xvars(field, 2)
        zero = Polynomial.zero(field, 2)
        phi = Endo(field, 2, [x1 * x2 + x2 ** 2 + 1, x1 ** 3 + x2])
        got = compose(phi, Endo(field, 2, [zero, x1 + x2]))
        assert got.components == ((x1 + x2) ** 2 + 1, x1 + x2)


def test_image_checks_fire_in_the_same_order(Q, F5):
    x1, x2 = xvars(Q, 2)
    y1 = Polynomial.variable(Q, 3, 1)
    z1, z2 = xvars(F5, 2)
    cases = [
        (x1, [x1], ArityMismatch, "need 2 images, got 1"),
        (x1, [x1, y1], ArityMismatch, "images of mixed arity"),
        (x1, [z1, y1], FieldMismatch, "image over a different field"),
        (z1, [x1, y1], FieldMismatch, "image over a different field"),
        (x1, [x1, z2], FieldMismatch, "image over a different field"),
        (z1, PreparedImages([x1, x2], Q), FieldMismatch,
         "image over a different field"),
    ]
    for poly, images, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            poly.substitute(images)
    with pytest.raises(ArityMismatch,
                       match="^substitution needs at least one variable$"):
        Polynomial.zero(Q, 0).substitute([])
    assert compose(Endo(Q, 0, []), Endo(Q, 0, [])).components == ()


def test_identity_images_are_shared_per_field_and_n(Q, F4):
    from polyauto.textio import _Parser
    xs = identity_images(F4, 3)
    assert identity_images(F4, 3) is xs
    assert xs == tuple(Polynomial.variable(F4, 3, i) for i in (1, 2, 3))
    assert len(identity_images(F4, 2)) == 2
    # one handle per field, so every caller of the field shares the tuple
    assert Field.of_order(4) is F4
    assert identity_images(Field.of_order(4), 3) is xs
    assert _Parser("x2", F4, 3, None).atom() is xs[1]
    assert identity_images(Q, 3)[0].field is Q


def test_degree_convention(Q):
    x1, x2 = xvars(Q, 2)
    assert (x1 * x2 ** 4).degrees() == (5, (1, 4))
    assert Polynomial.zero(Q, 2).degrees() == (0, (0, 0))
    assert Polynomial.constant(Q, 2, 7).deg() == 0
    assert (x1 ** 2 + x2).degrees() == (2, (2, 1))


def test_degree_multiplicative(Q, F5):
    rng = random.Random(3)
    for field in (Q, F5):
        for _ in range(100):
            n = 2
            p = Polynomial.zero(field, n)
            q = Polynomial.zero(field, n)
            for _ in range(rng.randint(1, 3)):
                p = p + Polynomial.monomial(
                    field, n, field.from_int(rng.randint(1, 4)),
                    (rng.randint(0, 3), rng.randint(0, 3)))
                q = q + Polynomial.monomial(
                    field, n, field.from_int(rng.randint(1, 4)),
                    (rng.randint(0, 3), rng.randint(0, 3)))
            if p.is_zero() or q.is_zero():
                continue
            assert (p * q).deg() == p.deg() + q.deg()


def test_partial_derivative(Q, F3):
    x1, x2 = xvars(Q, 2)
    assert (x1 * x2 ** 2).partial_derivative(2) == 2 * x1 * x2
    z = Polynomial.variable(F3, 1, 1)
    assert (z ** 3).partial_derivative(1).is_zero()
    assert Polynomial.constant(Q, 2, 5).partial_derivative(1).is_zero()
    with pytest.raises(IndexOutOfRange):
        x1.partial_derivative(3)


@pytest.mark.parametrize("axis", [0, 3])
def test_involves_refuses_an_axis_out_of_range(Q, axis):
    # axis 0 would read the total-degree field, axis n+1 a negative shift
    x1, x2 = xvars(Q, 2)
    with pytest.raises(IndexOutOfRange):
        (x1 * x2).involves(axis)


def test_arity_and_field_mismatch(Q, F5):
    x1, _ = xvars(Q, 2)
    y = Polynomial.variable(Q, 3, 1)
    with pytest.raises(ArityMismatch):
        x1 + y
    z = Polynomial.variable(F5, 2, 1)
    with pytest.raises(FieldMismatch):
        x1 * z
    with pytest.raises(ArityMismatch):
        x1.substitute([y])


def test_degree_cap(Q):
    x1, x2 = xvars(Q, 2)
    p = x1 ** 40
    with pytest.raises(DegreeCapExceeded):
        p.substitute([x1 ** 40, x2], cap=1024)
    # zero images annihilate terms instead of tripping the cap
    assert p.substitute([Polynomial.zero(Q, 2), x2], cap=10).is_zero()


def test_text_round_trip(Q, F4):
    samples = [
        ("x1*x2^4-x1^2+x3", Q, 3),
        ("1/2*x1+7", Q, 2),
        ("0", Q, 2),
        ("t*x2+x1", F4, 2),
        ("(t+1)*x1^3+t", F4, 2),
    ]
    for text, field, n in samples:
        p = parse_polynomial(text, field, n)
        assert parse_polynomial(poly_to_text(p), field, n) == p


def test_canonical_print_is_stable(Q):
    p = parse_polynomial("x3-x1^2+x1*x2^4", Q, 3)
    q = parse_polynomial("-x1^2+x1*x2^4+x3", Q, 3)
    assert p == q
    assert poly_to_text(p) == poly_to_text(q) == "x1*x2^4-x1^2+x3"


@given(rational_polys(), rational_polys(), rational_polys())
@settings(max_examples=60)
def test_ring_laws_hypothesis(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(rational_polys())
@settings(max_examples=60)
def test_print_parse_round_trip_hypothesis(p):
    assert parse_polynomial(poly_to_text(p), _Q, 2) == p


# -- packed monomials: the key layout and its bound -------------------------


def test_pack_round_trip():
    rng = random.Random(61)
    for n in (1, 3, 64):
        vectors = [(0,) * n, (MAX_DEGREE,) + (0,) * (n - 1),
                   (0,) * (n - 1) + (MAX_DEGREE,)]
        for _ in range(50):
            e = [0] * n
            for _ in range(rng.randint(1, n)):
                e[rng.randrange(n)] = rng.randint(0, MAX_DEGREE // n)
            vectors.append(tuple(e))
        for e in vectors:
            assert unpack(pack(e), n) == e
            assert pack(e) >> 16 * n == sum(e)


def test_sorted_terms_is_graded_lex():
    # int order of the keys is the order the printers sorted tuples by
    rng = random.Random(62)
    for _ in range(500):
        n = rng.randint(1, 8)
        top = rng.choice((3, 40, MAX_DEGREE // n))
        exps = {tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(1, 12))}
        p = Polynomial(_Q, n, {pack(e): Fraction(1) for e in exps})
        assert [e for e, _ in p.sorted_terms()] == \
            sorted(exps, key=lambda e: (sum(e), e), reverse=True)


def test_coeff_of_a_vector_no_term_can_have_is_zero(Q):
    x1, x2 = xvars(Q, 2)
    p = x1 + x2 ** MAX_DEGREE + x1 ** MAX_DEGREE + 5
    assert p.coeff((MAX_DEGREE, 0)).is_one()
    assert p.coeff((0, MAX_DEGREE)).is_one()
    for exps in ((MAX_DEGREE, 1), (0, MAX_DEGREE + 1), (1 << 16, 0),
                 (MAX_DEGREE + 1, 0), (2, -1), (1,), (1, 0, 0)):
        assert p.coeff(exps).is_zero()
    assert p.coeff((1, 0)).is_one() and p.constant_value() == Q.elem(5)


def over_the_bound(what, degree):
    return pytest.raises(DegreeCapExceeded,
                         match=f"^{what} {degree} exceeds cap 65535$")


def test_products_over_the_bound_raise_before_any_work(Q, F4, monkeypatch):
    cases = []
    for field in (Q, F4):
        x1, x2 = xvars(field, 2)
        cases.append((x1, x1 ** 40000, x1 * x2 ** 2, x1 + 1, x1 ** 2 + x2,
                      x1 * x2))
        # the bound itself is reached
        assert (x1 * x2 ** (MAX_DEGREE - 1)).deg() == MAX_DEGREE
        assert (x1 ** MAX_DEGREE).substitute([x1, x2], cap=None) == \
            x1 ** MAX_DEGREE

    def no_work(*args, **kwargs):
        raise AssertionError("a kernel ran on a product over MAX_DEGREE")

    for name in ("mul_terms_int", "mul_terms_fp", "mul_terms_obj",
                 "mul_terms_ext"):
        monkeypatch.setattr(kernels, name, no_work)
    for x1, big, small, linear, square, mixed in cases:
        with over_the_bound("product of degree", 80000):
            big * big
        for base in (x1, linear):
            with over_the_bound("power of degree", 70000):
                base ** 70000
        with over_the_bound("power of degree", 90000):
            small ** 30000
        for exps in ((70000, 0), (40000, 30000)):
            for coeff in (1, 0):
                with over_the_bound("monomial of degree", 70000):
                    Polynomial.monomial(x1.field, 2, coeff, exps)
        for cap in (None, 100000):
            with over_the_bound("substitution term degree", 80000):
                square.substitute([big, linear], cap=cap)
            with over_the_bound("substitution term degree", 80000):
                mixed.substitute([big, big], cap=cap)


def test_parse_refuses_a_product_over_the_bound(Q, monkeypatch):
    # the parser's own check passes with cap=None; the product itself is
    # refused, and no kernel ever returns a key whose degree carried
    def bounded(kernel):
        def run(*args, **kwargs):
            out = kernel(*args, **kwargs)
            assert all(k < 1 << 32 for k in out)
            return out
        return run

    for name in ("mul_terms_obj", "mul_terms_int"):
        monkeypatch.setattr(kernels, name, bounded(getattr(kernels, name)))
    with over_the_bound("product of degree", 80000):
        parse_polynomial("x1^40000*x1^40000", Q, 1, cap=None)
    with over_the_bound("power of degree", 70000):
        parse_polynomial("x1^70000", Q, 1, cap=None)


# -- one-term products: packed-key shifts against the kernels and sympy ------


def kernel_product(field, a, b):
    """a * b of two term maps by the field's kernel, called directly."""
    if field.order is None:
        return kernels.mul_terms_obj(a, b)
    if field.modulus is None:
        return kernels.mul_terms_fp(a, b, field.p)
    return kernels.mul_terms_ext(a, b, field.p, field.modulus)


def one_term(rng, field, n, max_deg=4):
    """c x^e with c a random unit and e on at most three variables."""
    exps = [0] * n
    for j in rng.sample(range(n), min(n, 3)):
        exps[j] = rng.randint(0, max_deg)
    c = rng.choice(list(field.units(bound=12)))
    return Polynomial.monomial(field, n, c, exps)


@pytest.mark.parametrize("order", [None, 7, 9])
def test_one_term_products_match_the_kernels(order):
    field = _Q if order is None else Field.of_order(order)
    rng = random.Random(90 + (order or 0))
    for _ in range(80):
        n = rng.randint(1, 8)
        mono = one_term(rng, field, n)
        other = rand_poly(rng, field, n, rng.randint(0, 6), 3)
        for p, q in ((mono, other), (other, mono), (mono, mono)):
            assert (p * q).terms == kernel_product(field, p.terms, q.terms)
        e = rng.randint(0, 6)
        want = {0: field.one.payload}
        for _ in range(e):
            want = kernel_product(field, want, mono.terms)
        assert (mono ** e).terms == want


def one_term_images(rng, field, n, shape):
    """Images of one shape: the identity, scaled variables c x_j, a signed
    permutation, one-term monomials, or a mix of these and general
    polynomials."""
    perm = rng.sample(range(1, n + 1), n)
    units = list(field.units(bound=12))
    out = []
    for j in range(n):
        kind = shape if shape != "mixed" else rng.choice(
            ["identity", "scaled", "signed", "monomial", "general"])
        if kind == "identity":
            out.append(Polynomial.variable(field, n, j + 1))
        elif kind == "scaled":
            out.append(Polynomial.variable(field, n, j + 1).scale(
                rng.choice(units)))
        elif kind == "signed":
            out.append(Polynomial.variable(field, n, perm[j]).scale(
                rng.choice([1, -1])))
        elif kind == "monomial":
            out.append(one_term(rng, field, n, 3))
        else:
            out.append(rand_poly(rng, field, n, rng.randint(2, 4), 2))
    return out


@pytest.mark.parametrize("order", [None, 7, 9])
@pytest.mark.parametrize("shape", ["identity", "scaled", "signed",
                                   "monomial", "mixed"])
def test_compose_with_one_term_images_matches_sympy(order, shape):
    sympy = pytest.importorskip("sympy")
    field = _Q if order is None else Field.of_order(order)
    rng = random.Random(len(shape) + (order or 0))
    for _ in range(12):
        n = rng.randint(1, 5)
        oracle = SympyRing(sympy, field, n)
        images = one_term_images(rng, field, n, shape)
        phi = Endo(field, n, [rand_poly(rng, field, n, rng.randint(0, 5), 3)
                              for _ in range(n)])
        got = compose(phi, Endo(field, n, images))
        for comp, want in zip(got.components, phi.components):
            assert oracle.of(comp) == oracle.compose(want, images)


def test_one_term_products_run_no_kernel(Q, F4, monkeypatch):
    from polyauto.autos import Elementary, SignedPermutation
    cases = []
    for field in (Q, Field.prime(7), F4):
        f = parse_polynomial("3*x2*x3^2-x2+1", field, 3)
        phi = Elementary(field, 3, 1, f).expand()
        one = field.one
        perm = SignedPermutation(field, 3, (3, 1, 2), (one, -one, one))
        for psi in (Endo.identity(field, 3), perm.expand()):
            cases.append((phi, psi, compose(phi, psi)))

    def no_kernel(*args, **kwargs):
        raise AssertionError("a one-term product ran a kernel")

    for name in ("mul_terms_int", "mul_terms_fp", "mul_terms_obj",
                 "mul_terms_ext"):
        monkeypatch.setattr(kernels, name, no_kernel)
    p = parse_polynomial("t*x2*x3^2+x1", F4, 3)
    assert list(p.sorted_terms()) == [((0, 1, 2), F4.generator()),
                                      ((1, 0, 0), F4.one)]
    for phi, psi, want in cases:
        assert compose(phi, psi) == want


# -- multi-term powers: the substitution's powering against repeated products
# and sympy ------------------------------------------------------------------


@pytest.mark.parametrize("order", [None, 7, 9])
def test_multi_term_power_matches_repeated_products_and_sympy(order):
    sympy = pytest.importorskip("sympy")
    field = _Q if order is None else Field.of_order(order)
    rng = random.Random(31 + (order or 0))
    for _ in range(8):
        n = rng.randint(1, 4)
        oracle = SympyRing(sympy, field, n)
        p = Polynomial.zero(field, n)
        while len(p.terms) < 2:
            p = rand_poly(rng, field, n, rng.randint(2, 4), 2)
        for base in (p, Polynomial.zero(field, n)):
            want = Polynomial.one(field, n)
            for e in range(8):
                if e in (0, 1, 2, 7):
                    got = base ** e
                    assert got == want, (base, e)
                    # sympy's rings refuse 0**0
                    oracle_power = oracle.of(base) ** e if e else \
                        oracle.ring.one
                    if oracle.modulus is not None:
                        oracle_power = oracle_power.rem(oracle.modulus)
                    assert oracle.of(got) == oracle_power, (base, e)
                want = want * base


def test_multi_term_power_over_the_cap_does_no_work(Q, F9, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a power over MAX_DEGREE was expanded")

    monkeypatch.setattr(PreparedImages, "accumulate", no_work)
    for name in ("mul_terms_int", "mul_terms_fp", "mul_terms_obj",
                 "mul_terms_ext"):
        monkeypatch.setattr(kernels, name, no_work)
    for field in (Q, Field.prime(7), F9):
        x1, x2 = xvars(field, 2)
        with over_the_bound("power of degree", 66000):
            (x1 * x2 + 1) ** 33000
