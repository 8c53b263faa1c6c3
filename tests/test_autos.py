import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from gen import (Q as QF, rand_m_triangular_word, rand_mixed_word,
                 rand_sl_word, rand_translation, rand_triangular, rand_unit)
from polyauto.autos import (Elementary, Endo, FactoredAuto, Linear,
                            SignedPermutation, Translation, Triangular,
                            classify, comm, compose, conj, dilation,
                            elementary, invert_endo, jacobian_det, mat_det,
                            sl_dilation, translation, triangular_from_endo,
                            vector_degree, word_from_endo)
from polyauto.errors import (DegreeCapExceeded, IndexOutOfRange,
                             InvalidFactor, NotStructured, NotTriangular)
from polyauto.fields import Field
from polyauto.identities import random_kernel_pairs
from polyauto.maps import ExpLND
from polyauto.poly import Polynomial
from polyauto.textio import parse_endo, parse_factored


def X(field, n, i):
    return Polynomial.variable(field, n, i)


def test_make_basic_elementary(Q):
    phi = Elementary(Q, 2, 1, X(Q, 2, 2) ** 2).expand()
    assert phi == parse_endo("[Q,2] (x1+x2^2, x2)")


def test_make_basic_sl_dilation(Q):
    # delta_{1,2,c} scales x1 by c and x2 by 1/c
    phi = sl_dilation(Q, 3, 1, 2, 2).expand()
    assert phi == parse_endo("[Q,3] (2*x1, 1/2*x2, x3)")


def test_make_basic_translation(Q):
    phi = translation(Q, 2, [1, 0]).expand()
    assert phi == parse_endo("[Q,2] (x1+1, x2)")


def test_invalid_factors(Q):
    with pytest.raises(InvalidFactor):
        Elementary(Q, 2, 1, X(Q, 2, 1))  # f involves x_i
    with pytest.raises(InvalidFactor):
        Linear(Q, 2, ((Q.zero, Q.zero), (Q.zero, Q.one)))  # singular
    with pytest.raises(InvalidFactor):
        Triangular(Q, 2, (Q.one, Q.zero), (Polynomial.zero(Q, 2),) * 2)


def test_signed_permutation_needs_n_signs(Q):
    with pytest.raises(InvalidFactor):
        SignedPermutation(Q, 2, (1, 2), (Q.one,))
    with pytest.raises(InvalidFactor):
        SignedPermutation(Q, 2, (1, 2), (Q.one,) * 3)


def test_compose_convention(Q):
    # (P) phi psi = ((P) phi) psi with phi = (x1, x2+x1^2), psi = (x1+1, x2)
    phi = parse_endo("[Q,2] (x1, x2+x1^2)")
    psi = parse_endo("[Q,2] (x1+1, x2)")
    got = compose(phi, psi)
    assert got == parse_endo("[Q,2] (x1+1, x2+(x1+1)^2)")


def test_compose_identity_and_translation_addition(Q):
    phi = parse_endo("[Q,2] (x1+x2^2, x2)")
    ident = Endo.identity(Q, 2)
    assert compose(phi, ident) == phi
    a = elementary(Q, 2, 1, 3)
    b = elementary(Q, 2, 1, 4)
    assert (a * b).expand() == elementary(Q, 2, 1, 7).expand()


def test_compose_associative_on_random_words():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 3)
        a = rand_mixed_word(rng, n, 2).expand()
        b = rand_mixed_word(rng, n, 2).expand()
        c = rand_mixed_word(rng, n, 2).expand()
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_invert_triangular_back_substitution(Q):
    phi = parse_endo("[Q,2] (x1, x2+x1^2)")
    inv = invert_endo(phi)
    assert inv == parse_endo("[Q,2] (x1, x2-x1^2)")
    assert compose(phi, inv) == Endo.identity(Q, 2)


def test_invert_dilation_and_identity(Q):
    d = sl_dilation(Q, 2, 1, 2, 5)
    assert invert_endo(d.expand()) == sl_dilation(Q, 2, 1, 2, Fraction(1, 5)).expand()
    ident = Endo.identity(Q, 3)
    assert invert_endo(ident) == ident


def test_invert_structured_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 4)
        tau = rand_triangular(rng, n).expand()
        assert compose(tau, invert_endo(tau)) == Endo.identity(QF, n)
        word = rand_sl_word(rng, n)
        aff = compose(word.expand(), rand_translation(rng, n).expand())
        assert compose(aff, invert_endo(aff)) == Endo.identity(QF, n)


def test_invert_unstructured_rejected(Q):
    # component mixes later variables non-triangularly and is not affine
    phi = parse_endo("[Q,2] (x1+x2^2, x2+x1^2)")
    with pytest.raises(NotStructured):
        invert_endo(phi)


def test_factored_inverse_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 3)
        word = rand_mixed_word(rng, n, 3)
        assert compose(word.expand(), word.inverse().expand()) == \
            Endo.identity(QF, n)


def test_jacobian_examples(Q):
    eps = elementary(Q, 3, 2, X(Q, 3, 1) ** 3).expand()
    assert jacobian_det(eps) == Polynomial.one(Q, 3)
    d = dilation(Q, 2, 1, 5).expand()
    assert jacobian_det(d) == Polynomial.constant(Q, 2, 5)


@pytest.mark.parametrize("build", [
    lambda Q: dilation(Q, 2, 0, 5),
    lambda Q: dilation(Q, 2, 3, 5),
    lambda Q: sl_dilation(Q, 2, 0, 2, 5),
    lambda Q: sl_dilation(Q, 2, 1, 3, 5),
])
def test_dilations_refuse_an_axis_out_of_range(Q, build):
    with pytest.raises(IndexOutOfRange):
        build(Q)


def test_jacobian_of_a_dense_affine_map_is_its_matrix_determinant(Q):
    # by cofactor expansion, a dense [Q,18] Jacobian took 26.9 s on a
    # shared 2-core VM
    n = 18
    rng = random.Random(18)
    A = [[Q.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    phi = Endo(Q, n, [sum((X(Q, n, j + 1).scale(A[i][j]) for j in range(n)),
                          Polynomial.constant(Q, n, i))
                      for i in range(n)])
    t0 = time.perf_counter()
    det = jacobian_det(phi)
    assert time.perf_counter() - t0 < 1
    assert det == Polynomial.constant(Q, n, mat_det(Q, A))
    assert not det.is_zero()


def test_jacobian_chain_rule():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 3)
        phi = rand_mixed_word(rng, n, 2).expand()
        psi = rand_mixed_word(rng, n, 2).expand()
        lhs = jacobian_det(compose(phi, psi))
        rhs = jacobian_det(psi) * jacobian_det(phi).substitute(
            list(psi.components))
        assert lhs == rhs


def test_special_closed_under_composition(Q):
    rng = random.Random(43)
    for _ in range(30):
        a = rand_m_triangular_word(rng, 2, 1).expand()
        b = rand_m_triangular_word(rng, 2, 1).expand()
        one = Polynomial.one(Q, 2)
        assert jacobian_det(a) == one and jacobian_det(b) == one
        assert jacobian_det(compose(a, b)) == one


def test_classify_examples(Q):
    f = classify(parse_endo("[Q,2] (2*x1+3, x2-1)"))
    assert f.affine and f.diagonal_affine and not f.special
    g = classify(parse_endo("[Q,2] (x1, x2+x1^2)"))
    assert g.triangular and g.elementary and g.parabolic and g.special
    h = classify(parse_endo("[Q,2] (x1^2+x1, 2*x2+x1)"))
    assert not h.triangular  # head component is nonlinear in x1
    t = classify(parse_endo("[Q,2] (x1+1, x2)"))
    assert t.translation and t.affine and t.elementary and t.special


def test_classify_df_iff_vd_zero():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 4)
        tau = rand_triangular(rng, n, deg=2).expand()
        vd = vector_degree(tau)
        assert (vd == (0,) * n) == classify(tau).diagonal_affine


def test_vector_degree_examples(Q):
    phi = parse_endo("[Q,3] (x1+2, x2+x1^2, x3-x1^2+x1*x2^4)")
    assert vector_degree(phi) == (0, 2, 5)
    assert (0, 2, 5) < (0, 3, 3)  # lex comparison on tuples
    df = parse_endo("[Q,2] (2*x1+1, 3*x2)")
    assert vector_degree(df) == (0, 0)
    with pytest.raises(NotTriangular):
        vector_degree(parse_endo("[Q,2] (x1+x2, x2)"))


def test_conj_and_comm(Q):
    phi = elementary(Q, 2, 1, X(Q, 2, 2) ** 2)
    assert conj(phi, FactoredAuto.identity(Q, 2)).expand() == phi.expand()
    # commuting elements give the trivial commutator
    a = elementary(Q, 2, 1, 2)
    b = elementary(Q, 2, 1, 5)
    assert comm(a, b).expand() == Endo.identity(Q, 2)
    # the commutator formula eps^{-1} delta eps delta^{-1} = eps_{1,ab-a}
    # reads comm(eps, delta^{-1}) in the fixed orientation
    eps = elementary(Q, 2, 1, 3)
    dil = sl_dilation(Q, 2, 1, 2, 2)
    assert comm(eps, dil.inverse()).expand() == \
        elementary(Q, 2, 1, 3 * 2 - 3).expand()


def test_signed_permutation_inverse(Q):
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 4)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        signs = tuple(rand_unit(rng) for _ in range(n))
        s = SignedPermutation(Q, n, tuple(perm), signs)
        assert compose(s.expand(), s.inverted().expand()) == Endo.identity(Q, n)


def test_constructor_determinants(Q):
    one = Polynomial.one(Q, 3)
    rng = random.Random(61)
    assert jacobian_det(elementary(Q, 3, 1, X(Q, 3, 2) ** 2).expand()) == one
    assert jacobian_det(sl_dilation(Q, 3, 1, 3, 7).expand()) == one
    assert jacobian_det(translation(Q, 3, [1, 2, 3]).expand()) == one
    tau = rand_triangular(rng, 3, special=True)
    assert jacobian_det(tau.expand()) == one
    # the two non-special families
    assert jacobian_det(dilation(Q, 3, 2, 5).expand()) == \
        Polynomial.constant(Q, 3, 5)
    mat = rand_sl_word(rng, 3).expand()  # det 1 by construction
    assert jacobian_det(mat) == one


def random_factor(rng, field, n, kind):
    """A factor of `kind` with random data over `field`, whose units are
    drawn from all of it (F9 included), not only from its prime field."""
    units = list(field.units(bound=8))

    def poly(allowed):
        p = Polynomial.zero(field, n)
        for _ in range(rng.randint(0, 2)):
            exps = tuple(rng.randint(0, 2) if j in allowed else 0
                         for j in range(n))
            p = p + Polynomial.monomial(field, n, rng.choice(units), exps)
        return p

    if kind == "L":
        while True:
            rows = tuple(tuple(rng.choice(units + [field.zero])
                               for _ in range(n)) for _ in range(n))
            if not mat_det(field, rows).is_zero():
                return Linear(field, n, rows)
    if kind == "Tr":
        return Translation(field, n, tuple(rng.choice(units)
                                           for _ in range(n)))
    if kind == "E":
        i = rng.randint(1, n)
        return Elementary(field, n, i, poly(set(range(n)) - {i - 1}))
    if kind == "T":
        return Triangular(field, n,
                          tuple(rng.choice(units) for _ in range(n)),
                          tuple(poly(set(range(i))) for i in range(n)))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    if kind == "S-odd":  # one more transposition flips the parity
        perm[0], perm[1] = perm[1], perm[0]
    return SignedPermutation(field, n, tuple(perm),
                             tuple(rng.choice(units) for _ in range(n)))


@pytest.mark.parametrize("order", [None, 7, 9])
def test_word_determinant_is_the_product_of_factor_determinants(order):
    """On seeded random words of every factor kind, with ^-1 factors, the
    word determinant is the Jacobian determinant of the expansion."""
    field = Field.rationals() if order is None else Field.of_order(order)
    rng = random.Random(order or 1)
    kinds = ["L", "Tr", "E", "T", "S", "S-odd"]
    pairs = random_kernel_pairs(5, 6) if order is None else []
    for trial in range(24):
        kind = kinds[trial % len(kinds)]
        n = rng.randint(2, 3)
        factors = []
        if pairs and trial % 4 == 0:  # Exp is over Q only
            F, D = pairs.pop()
            n = F.nvars
            factors.append((ExpLND(field, n, F, D), rng.choice((1, -1))))
        factors.append((random_factor(rng, field, n, kind),
                        rng.choice((1, -1))))
        for _ in range(rng.randint(0, 2)):
            factors.append((random_factor(rng, field, n, rng.choice(kinds)),
                            rng.choice((1, -1))))
        rng.shuffle(factors)
        word = FactoredAuto(field, n, factors)
        assert jacobian_det(word.expand()) == \
            Polynomial.constant(field, n, word.det()), word


def test_word_determinants_of_hand_made_words():
    for text, det in (
            ("[Q,3] T(2; 3, x1^2; 2, x1*x2) * S(2,1,3; 1,-1,1)"
             " * E(1; x2^2)^-1", 12),
            ("[F9,2] S(2,1; t, 1) * T(t; 1, x1^2)^-1 * E(2; x1^2)", 2),
            ("[Q,3] S(3,1,2; 2, 1/2, -1) * Exp(x1; D(0, x1, -x2))"
             " * L[[1,2,0],[0,1,0],[0,0,1]]^-1", -1)):
        word = parse_factored(text)
        want = word.field.from_int(det)
        assert word.det() == want, text
        assert jacobian_det(word.expand()) == \
            Polynomial.constant(word.field, word.nvars, want), text


def test_triangular_roundtrip(Q):
    rng = random.Random(59)
    for _ in range(30):
        tau = rand_triangular(rng, 3)
        assert triangular_from_endo(tau.expand()).expand() == tau.expand()


def test_cached_expansion_respects_a_smaller_cap(Q):
    # the first expansion fills the cache under the default cap; a later
    # call with a cap below the map's degree must still raise
    word = elementary(Q, 2, 1, X(Q, 2, 2) ** 3)
    assert word.expand().components[0].deg() == 3
    with pytest.raises(DegreeCapExceeded):
        word.expand(cap=2)
    assert word.expand(cap=3) is word.expand()
    assert word.expand(cap=None) is word.expand()


def test_expansion_holds_its_first_piece_to_the_cap(Q):
    # the product starts at its first piece, which is refused as composing
    # it after the identity would refuse it: by its first component over
    # the cap, before a later compose would see degree 3 * 2
    first = elementary(Q, 2, 1, X(Q, 2, 2) ** 3)
    for word in (first, first * elementary(Q, 2, 2, X(Q, 2, 1) ** 2)):
        with pytest.raises(DegreeCapExceeded,
                           match="^substitution term degree 3 exceeds cap 2$"):
            word.expand(cap=2)
        assert word.expand(cap=6) == reduce(
            compose, [factor.expand() for factor, _ in word.factors])
    assert FactoredAuto.identity(Q, 2).expand() == Endo.identity(Q, 2)


def test_inverse_word_is_built_once(Q):
    word = parse_factored("[Q,2] T(2; 1, x1^3) * E(1; x2)")
    inv = word.inverse()
    assert word.inverse() is inv
    assert inv.inverse() is word
    assert (word ** -1) is inv
    assert inv.expand() is word.inverse().expand()
    assert compose(word.expand(), inv.expand()) == Endo.identity(Q, 2)
    # the cached expansion of the inverse still answers a smaller cap
    with pytest.raises(DegreeCapExceeded):
        inv.expand(cap=2)


FACTOR_KINDS = ["L", "Tr", "E", "T", "S", "S-odd"]


@pytest.mark.parametrize("order", [None, 7, 9])
def test_every_factor_kind_inverts_to_the_identity(order):
    """f * f^{-1} = id for every factor kind; for the kinds invert_endo
    handles, its inverse of the expansion is the factor's own."""
    field = Field.rationals() if order is None else Field.of_order(order)
    rng = random.Random(70 + (order or 0))
    for trial in range(36):
        kind = FACTOR_KINDS[trial % len(FACTOR_KINDS)]
        n = rng.randint(2, 3)
        f = random_factor(rng, field, n, kind)
        inv = f.inverted().expand()
        assert compose(f.expand(), inv) == Endo.identity(field, n), f
        if kind in ("L", "Tr", "E", "T"):
            assert invert_endo(f.expand()) == inv, f


def test_invert_endo_matches_sympy():
    """invert_endo against sympy's solution of phi(x) = y, on random
    affine, elementary and triangular maps over Q with n <= 3."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(83)
    for trial in range(24):
        n = rng.randint(1, 3)
        kind = ("L", "Tr", "E", "T")[trial % 4]
        f = random_factor(rng, QF, n, kind)
        if kind == "L":  # an affine map, not only a linear one
            f = FactoredAuto(QF, n, [f, random_factor(rng, QF, n, "Tr")])
        phi = f.expand()
        xs = sympy.symbols(f"x1:{n + 1}")
        ys = sympy.symbols(f"y1:{n + 1}")

        def to_sympy(poly):
            return sympy.Add(*(
                sympy.Rational(c.payload.numerator, c.payload.denominator)
                * sympy.Mul(*(x ** k for x, k in zip(xs, e)))
                for e, c in poly.sorted_terms()))

        solutions = sympy.solve(
            [to_sympy(c) - y for c, y in zip(phi.components, ys)], xs,
            dict=True)
        assert len(solutions) == 1, f
        rename = dict(zip(ys, xs))
        got = invert_endo(phi).components
        for x, c in zip(xs, got):
            want = solutions[0][x].subs(rename, simultaneous=True)
            assert sympy.expand(to_sympy(c) - want) == 0, f


def test_invert_endo_honours_a_cap_above_and_below_the_default(Q):
    # the inverse's last component has degree 40 * 40 = 1600 > 1024
    phi = parse_endo("[Q,3] (x1, x2+x1^40, x3+x2^40)")
    inv = invert_endo(phi, cap=2000)
    assert inv.components[2].deg() == 1600
    assert compose(phi, inv, cap=2000) == Endo.identity(Q, 3)
    with pytest.raises(DegreeCapExceeded):
        invert_endo(phi, cap=1000)


@pytest.mark.parametrize("order", [None, 7, 9])
def test_word_from_endo_expands_back_to_the_map(order):
    """The word read from an elementary map, a triangular map (diagonal ones
    too) or an affine map with or without a translation expands back to
    that map, and is a word of those factor kinds only."""
    field = Field.rationals() if order is None else Field.of_order(order)
    rng = random.Random(61 + (order or 0))
    units = list(field.units(bound=8))
    for trial in range(30):
        n = rng.randint(2, 3)
        shape = ("E", "T", "diagonal", "L", "Tr", "Tr L")[trial % 6]
        if shape == "diagonal":
            zero = Polynomial.zero(field, n)
            factors = [Triangular(field, n, tuple(rng.choice(units)
                                                  for _ in range(n)),
                                  (zero,) * n)]
        else:
            factors = [random_factor(rng, field, n, kind)
                       for kind in shape.split()]
        phi = FactoredAuto(field, n, factors).expand()
        word = word_from_endo(phi)
        assert word.expand() == phi, factors
        assert all(exp == 1 and isinstance(
            f, (Elementary, Triangular, Translation, Linear))
            for f, exp in word.factors), word


def test_word_from_endo_reads_each_shape(Q):
    for text, kinds in (
            ("[Q,2] (x1+x2^2, x2)", [Elementary]),
            ("[Q,2] (x1+1, x2)", [Elementary]),
            ("[Q,2] (2*x1, x2+x1^2)", [Triangular]),
            ("[Q,2] (2*x1, 1/2*x2)", [Triangular]),
            ("[Q,2] (x1+1, x2+1)", [Triangular]),
            ("[Q,2] (x2, -x1)", [Linear]),
            ("[Q,2] (x2+1, x1-3)", [Translation, Linear])):
        phi = parse_endo(text)
        word = word_from_endo(phi)
        assert [type(f) for f, _ in word.factors] == kinds, text
        assert word.expand() == phi, text
    with pytest.raises(NotStructured):
        word_from_endo(parse_endo("[Q,2] (x1+x2^2, x2+x1^2)"))
    with pytest.raises(InvalidFactor, match="singular"):
        word_from_endo(parse_endo("[Q,2] (x1+x2, x1+x2)"))
