import gc
import importlib.util
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gen import rand_mixed_word
from polyauto import finite
from polyauto.certificates import parse_certificate
from polyauto.errors import ArityError, ParseError
from polyauto.fields import _HANDLES, _TAGS, Field
from polyauto.poly import Polynomial, identity_images, pack
from polyauto.textio import (endo_to_text, factored_to_text,
                             derivation_to_text, parse_automorphism,
                             parse_derivation, parse_endo, parse_factored,
                             parse_field, parse_polynomial, poly_to_text)


def test_parse_endo_example(Q):
    phi = parse_endo("[Q,3] (x1+2, x2+x1^2, x3-x1^2+x1*x2^4)")
    assert phi.nvars == 3
    assert poly_to_text(phi.components[0]) == "x1+2"


def test_parse_linear_over_f4():
    phi = parse_endo("[F4,2] (x1+t*x2, x2)")
    assert phi.field.order == 4


def test_one_term_polynomial_is_not_rebuilt(Q):
    assert parse_polynomial("x2", Q, 3) is identity_images(Q, 3)[1]
    assert parse_polynomial("-x2+x1", Q, 3) == \
        identity_images(Q, 3)[0] - identity_images(Q, 3)[1]


def test_parse_error_on_truncated():
    with pytest.raises((ParseError, ArityError)):
        parse_endo("[Q,2] (x1,")


def test_parse_error_positions(Q):
    with pytest.raises(ParseError):
        parse_polynomial("x1 + + *", Q, 2)
    with pytest.raises(ParseError):
        parse_polynomial("x9", Q, 2)
    with pytest.raises(ParseError):
        parse_polynomial("t+1", Q, 2)  # t needs an extension field


def test_factored_round_trip():
    import random
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 3)
        word = rand_mixed_word(rng, n, 3)
        text = f"[Q,{n}] {factored_to_text(word)}"
        again = parse_factored(text)
        assert again.expand() == word.expand()
        assert factored_to_text(again) == factored_to_text(word)


def test_exp_factor_round_trip(Q):
    from polyauto.maps import ExpLND, FactoredAuto, TriDerivation
    n = 3
    x1 = Polynomial.variable(Q, n, 1)
    zero = Polynomial.zero(Q, n)
    D = TriDerivation(Q, n, (zero, zero, x1))
    F = Polynomial.variable(Q, n, 2)
    word = FactoredAuto(Q, n, [(ExpLND(Q, n, F, D), -1)])
    text = f"[Q,{n}] {factored_to_text(word)}"
    again = parse_factored(text)
    assert again.expand() == word.expand()


def test_derivation_round_trip(Q):
    D = parse_derivation("D(0, x1, -x2*x1)", Q, 3)
    canonical = derivation_to_text(D)
    assert canonical == "D(0, x1, -x1*x2)"  # variables print in index order
    assert parse_derivation(canonical, Q, 3) == D
    with pytest.raises(ArityError):
        parse_derivation("D(0, x1)", Q, 3)


def test_parse_automorphism_detects_shape(Q):
    e = parse_automorphism("[Q,2] (x1+1, x2)")
    w = parse_automorphism("[Q,2] E(1; 1)")
    assert e == w.expand()


def test_field_tag_errors():
    with pytest.raises(ParseError):
        parse_field("G7")
    with pytest.raises(Exception):
        parse_field("F12")
    # with F2, F8 and F27 live, text that only looks like one of their tags
    # fails where it always did: "F2 7" is no F27, and F8's tag ends at "1"
    live = [Field.of_order(q) for q in (2, 8, 27)]
    assert "F27/t^3+2*t+1" in _TAGS and live
    for text, column in (("F2 7/t^3+2*t+1", 4), ("F8/t^3+t+1 1", 12)):
        with pytest.raises(ParseError) as info:
            parse_field(text)
        assert (info.value.line, info.value.column) == (1, column)
        with pytest.raises(ParseError) as info:
            parse_certificate(f"NCT 1\nFIELD {text}\nVARS 1\n")
        assert (info.value.line, info.value.column) == (2, column + 6)


def test_endo_text_round_trip(F9):
    t = F9.generator()
    phi = parse_endo("[F9/t^2+1,2] (x1+(2*t+1)*x2^2, 2*x2)")
    text = endo_to_text(phi)
    assert parse_endo(text) == phi


MALFORMED = {
    "index-not-a-number": ("[Q,2] E(x; 1)", 9),
    "zero-denominator": ("[Q,2] (1/0*x1, x2)", 10),
    "missing-term": ("[Q,2] (x1+, x2)", 11),
    "trailing-input": ("[Q,2] (x1, x2) (x1)", 16),
    "variable-out-of-range": ("[Q,2] (x1, x3)", 12),
    "factor-exponent": ("[Q,2] E(1; x2)^-2", 17),
    "short-matrix-row": ("[Q,2] L[[1,0],[0]]", 16),
    "translation-not-constant": ("[Q,2] Tr(1, x1)", 13),
    "unknown-factor": ("[Q,2] W(1; 1)", 7),
    "bad-field-tag": ("[G7,2] (x1, x2)", 2),
    "modulus-degree": ("[F9/t^3+1,2] (x1, x2)", 5),
    "not-a-prime-power": ("[F12,2] (x1, x2)", 2),
    "reducible-modulus": ("[F9/t^2+2*t+1,2] (x1, x2)", 2),
    "no-variables": ("[Q,0] id", 1),
    "missing-prefix": ("E(1; x2)", 1),
    "number-too-long": ("[Q,2] (x1, 2^" + "9" * 5000 + ")", 14),
    "nested-too-deeply": ("[Q,1] (" + "(" * 2000 + "x1" + ")" * 2000 + ")",
                          None),
}


@pytest.mark.parametrize("text, column", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_text_is_a_parse_error_at_a_column(text, column):
    with pytest.raises(ParseError) as info:
        parse_automorphism(text)
    assert info.value.line == 1
    if column is not None:
        assert info.value.column == column, str(info.value)


def test_parse_error_line_and_column_span_newlines(Q):
    with pytest.raises(ParseError) as info:
        parse_polynomial("x1\n  + *x2", Q, 2)
    assert (info.value.line, info.value.column) == (2, 5)


def test_power_over_the_cap_is_refused_before_expanding(Q, F4, monkeypatch):
    from polyauto.errors import DegreeCapExceeded

    def no_expansion(*args):
        raise AssertionError("expanded a power over the cap")

    monkeypatch.setattr(Polynomial, "__pow__", no_expansion)
    with pytest.raises(DegreeCapExceeded):
        parse_polynomial("(x1+x2+x3+1)^30", Q, 3, cap=20)
    with pytest.raises(DegreeCapExceeded):  # a constant's exponent counts too
        parse_polynomial("2^100000", Q, 3, cap=1024)
    with pytest.raises(DegreeCapExceeded, match="power of degree 2000 "):
        parse_polynomial("t^2000", F4, 2)  # t is a constant base too
    monkeypatch.undo()
    assert parse_polynomial("(x1+1)^20", Q, 3, cap=20).deg() == 20
    assert parse_polynomial("(x1+1)^30", Q, 3, cap=None).deg() == 30
    # no cap, or one above 65535, still builds no monomial over 65535
    for cap in (None, 100000):
        with pytest.raises(DegreeCapExceeded,
                           match="power of degree 70000 exceeds cap 65535"):
            parse_polynomial("x1^70000", Q, 3, cap=cap)
        with pytest.raises(DegreeCapExceeded,
                           match="power of degree 70000 exceeds cap 65535"):
            parse_polynomial("2*x1*x2^70000", Q, 3, cap=cap)
        for text in ("3^70000", "(3)^70000"):  # a constant's power too
            with pytest.raises(DegreeCapExceeded,
                               match="power of degree 70000 exceeds cap 65535"):
                parse_polynomial(text, Q, 3, cap=cap)


def test_a_bare_variable_meets_the_cap_as_any_term(Q, F4):
    """A bare variable is a term of degree 1: the reader's shortcut for it
    refuses it under a cap below 1 with the message of the general rule."""
    from polyauto.errors import DegreeCapExceeded
    for field in (Q, F4):
        x1 = identity_images(field, 2)[0]
        for text in ("x1", "(x1)", "x1+1"):
            for cap in (0, -1):
                with pytest.raises(DegreeCapExceeded,
                                   match=f"^product of degree 1 exceeds "
                                         f"cap {cap}$"):
                    parse_polynomial(text, field, 2, cap=cap)
        assert parse_polynomial("x1", field, 2, cap=1) is x1
        assert parse_polynomial("(x1)", field, 2, cap=1) == x1


def test_product_over_the_cap_is_refused_before_expanding(Q, monkeypatch):
    from polyauto.errors import DegreeCapExceeded
    mul = Polynomial.__mul__

    def capped_mul(p, q):
        assert p.deg() + q.deg() <= 20, "expanded a product over the cap"
        return mul(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", capped_mul)
    with pytest.raises(DegreeCapExceeded):
        parse_polynomial("*".join(["(x1+x2+x3+1)^20"] * 4), Q, 3, cap=20)
    with pytest.raises(DegreeCapExceeded):
        parse_polynomial("x1^15*x2^15", Q, 3, cap=20)
    assert parse_polynomial("(x1+1)^10*(x2+1)^10", Q, 3, cap=20).deg() == 20
    with pytest.raises(DegreeCapExceeded,
                       match="product of degree 1200 exceeds cap 1024"):
        parse_polynomial("x1^600*x2^600", Q, 3)
    monkeypatch.undo()
    # no cap, or one above 65535, still builds no product over 65535
    for cap in (None, 100000):
        with pytest.raises(DegreeCapExceeded,
                           match="product of degree 65536 exceeds cap 65535"):
            parse_polynomial("x1^65535*3*x2", Q, 3, cap=cap)
        with pytest.raises(DegreeCapExceeded,
                           match="product of degree 65536 exceeds cap 65535"):
            parse_polynomial("x1^65535*(x2+1)", Q, 3, cap=cap)
    # zero has degree 0, so after a zero factor no product passes the cap
    assert parse_polynomial("0*x1^1000*x2^1000+x3", Q, 3).deg() == 1


def test_flat_sum_is_read_without_polynomial_arithmetic(Q, monkeypatch):
    """A sum of monomial terms adds into one term map: no Polynomial is
    added or multiplied, so a flat sum reads in linear time."""
    rng = random.Random(500)
    terms = {}
    while len(terms) < 500:
        exps = tuple(rng.randint(0, 30) for _ in range(3))
        terms[exps] = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
    p = Polynomial(Q, 3, {pack(e): c for e, c in terms.items()})
    text = poly_to_text(p)

    def no_arithmetic(*args):
        raise AssertionError("read a monomial term by Polynomial arithmetic")

    monkeypatch.setattr(Polynomial, "__add__", no_arithmetic)
    monkeypatch.setattr(Polynomial, "__mul__", no_arithmetic)
    assert parse_polynomial(text, Q, 3) == p


def test_modulus_is_a_polynomial_in_t():
    F9 = parse_field("F9")
    assert parse_field("F9/t^2+1") == F9
    assert parse_field("F9/(t+1)^2-2*t") == F9
    assert parse_field("F9 / t ^ 2 + 1") == F9
    with pytest.raises(ParseError):
        parse_field("F9/x1^2+1")  # only t is a variable of a modulus
    with pytest.raises(ParseError):
        parse_field("F6/t+1")  # 6 is not a prime power
    # a live handle's tag() is looked up, any other spelling read
    F8 = Field.of_order(8)
    for text in (F8.tag(), "F8/1+t+t^3", "F8/t^3 +t+1", "F8 /t^3+t+1"):
        assert parse_field(text) is F8
    for _ in range(2):  # a reducible modulus makes no handle to look up
        with pytest.raises(ParseError, match="reducible"):
            parse_field("F9/t^2+2*t+1")
    gc.collect()  # the index holds one entry per live handle, its tag()
    assert dict(_TAGS) == {f.tag(): f for f in _HANDLES.values()}


@pytest.mark.parametrize("text, canonical", [
    ("x1*-x2", "-x1*x2"),  # the example of docs/formats.md
    ("x1*-x2^2", "x1*x2^2"),  # "-" atom: the power takes the negated atom
])
def test_unary_minus_negates_one_atom(Q, text, canonical):
    assert poly_to_text(parse_polynomial(text, Q, 2)) == canonical


def test_prefix_must_agree_with_the_given_ring(Q):
    assert parse_factored("[Q,2] E(1; x2)", Q, 2).expand() == parse_factored(
        "E(1; x2)", Q, 2).expand()
    with pytest.raises(ParseError, match="disagrees"):
        parse_factored("[F5,2] E(1; x2)", Q, 2)
    with pytest.raises(ParseError, match="prefix"):
        parse_factored("E(1; x2)")



@pytest.mark.parametrize("n", [0, 65])
@pytest.mark.parametrize("parse", [parse_polynomial, parse_derivation])
def test_a_given_ring_is_bounded_as_a_prefix_is(Q, parse, n):
    """A ring size given through the API is refused with the prefix's
    message before the text is read, so even a text that does not tokenize
    gets that message."""
    with pytest.raises(ParseError) as given:
        parse("x1 @", Q, n)
    with pytest.raises(ParseError) as prefix:
        parse_endo(f"[Q,{n}] (x1)")
    assert str(given.value) == "a ring needs 1 to 64 variables"
    assert str(prefix.value).startswith(str(given.value))


def test_a_given_ring_of_64_variables_is_read(Q):
    assert parse_polynomial("x64", Q, 64) == Polynomial.variable(Q, 64, 64)
    images = parse_derivation("D(" + "0, " * 63 + "x1)", Q, 64).images
    assert images[-1] == Polynomial.variable(Q, 64, 1)


def test_wrong_arity_is_a_parse_error(Q):
    with pytest.raises(ParseError):
        parse_endo("[Q,3] (x1, x2)")
    with pytest.raises(ArityError):
        parse_factored("[Q,2] T(1; 1; 1)")


@pytest.mark.parametrize("tag, texts", [
    ("F4", ["x1", "t*x1", "(t+1)*x1"]),
    ("F9", ["x1", "2*x1", "t*x1", "(t+1)*x1", "(t+2)*x1", "(2*t)*x1",
            "(2*t+1)*x1", "(2*t+2)*x1"]),
])
def test_coefficient_text_of_every_unit(tag, texts):
    """c*x1 for every unit c: a coefficient is parenthesised exactly when
    its element text holds a '+' or a '*'."""
    field = parse_field(tag)
    x1 = Polynomial.variable(field, 2, 1)
    assert [poly_to_text(x1.scale(c)) for c in field.units()] == texts


def test_rational_coefficient_text(Q):
    x1 = Polynomial.variable(Q, 2, 1)
    assert [poly_to_text(x1.scale(Q.elem(Fraction(c))))
            for c in ("-1", "1/2", "-3/2")] == ["-x1", "1/2*x1", "-3/2*x1"]


# -- a sympy oracle for text that is not in canonical form -------------------

# tag -> (p, modulus in t), p = 0 for Q
ORACLE_FIELDS = {"Q": (0, None), "F5": (5, None), "F4": (2, (1, 1, 1)),
                 "F9": (3, (1, 0, 1))}


@st.composite
def trees(draw, p, modulus, depth=2):
    """A sum of products of powers over Q or F_p (and t over F_{p^s}): a
    nested tuple that `render` writes as text and `evaluate` computes."""

    def atom(depth):
        kinds = (["num", "var", "var"] + ["t"] * (modulus is not None)
                 + ["group"] * (depth > 0))
        kind = draw(st.sampled_from(kinds))
        if kind == "num":  # a/b with b a unit mod p, or a whole number
            den = draw(st.sampled_from([None] * 3 + [
                d for d in range(1, 8) if not p or d % p]))
            return ("num", draw(st.integers(0, 12)), den)
        if kind == "var":
            return ("var", draw(st.integers(1, 2)))
        return ("t",) if kind == "t" else ("group", term_sum(depth - 1))

    def factor(depth, first):
        base = atom(depth)
        if not first and draw(st.booleans()):  # a unary minus chain
            base = ("neg", draw(st.integers(1, 3)), base)
        k = draw(st.sampled_from([None, None, 0, 1, 2, 3]))
        return base if k is None else ("pow", base, k)

    def product(depth):
        factors = [factor(depth, i == 0)
                   for i in range(draw(st.integers(1, 3)))]
        if draw(st.integers(0, 5)) == 5:  # a zero factor, then big powers
            at = draw(st.integers(0, len(factors)))
            factors[at:at] = [("num", 0, None), ("pow", ("var", 1), 1000),
                              ("pow", ("var", 2), 1000)]
        return ("prod", draw(st.sampled_from(["*", " * "])), factors)

    def term_sum(depth):
        signs = st.sampled_from(["+", "-", "--", "+-", "-+-", " - "])
        return ("sum", [(draw(st.sampled_from(["", "-", "--"])) if i == 0
                         else draw(signs), product(depth))
                        for i in range(draw(st.integers(1, 3)))])

    return term_sum(depth)


def render(tree):
    kind = tree[0]
    if kind == "num":
        return f"{tree[1]}" if tree[2] is None else f"{tree[1]}/{tree[2]}"
    if kind == "var":
        return f"x{tree[1]}"
    if kind == "t":
        return "t"
    if kind == "group":
        return f"({render(tree[1])})"
    if kind == "neg":
        return "-" * tree[1] + render(tree[2])
    if kind == "pow":
        return f"{render(tree[1])}^{tree[2]}"
    if kind == "prod":
        return tree[1].join(render(f) for f in tree[2])
    return "".join(signs + render(t) for signs, t in tree[1])


def evaluate(tree, R, gens, p):
    kind = tree[0]
    if kind == "num":
        if tree[2] is None:
            return R(tree[1])
        if p == 0:
            return R(R.domain(tree[1]) / R.domain(tree[2]))
        return R(tree[1] * pow(tree[2], -1, p))
    if kind == "var":
        return gens[tree[1] - 1]
    if kind == "t":
        return gens[2]
    if kind == "group":
        return evaluate(tree[1], R, gens, p)
    if kind == "neg":
        return (-1) ** tree[1] * evaluate(tree[2], R, gens, p)
    if kind == "pow":  # x^0 is 1, 0^0 included
        return evaluate(tree[1], R, gens, p) ** tree[2] if tree[2] else R.one
    if kind == "prod":
        out = R.one
        for f in tree[2]:
            out *= evaluate(f, R, gens, p)
        return out
    return sum((evaluate(t, R, gens, p) * (-1) ** signs.count("-")
                for signs, t in tree[1]), R.zero)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None,
                    reason="needs sympy")
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(sorted(ORACLE_FIELDS)).flatmap(
    lambda tag: st.tuples(st.just(tag), trees(*ORACLE_FIELDS[tag]))))
def test_parse_matches_sympy_on_text_not_in_canonical_form(case):
    """Nested sums, products and small powers, unary minus chains, zero
    factors before powers over the cap, x^0, 0^0, a/b inside a product and
    t anywhere: each text reads as sympy's ring computes it (t reduced by
    the modulus with rem, the coefficients mod p)."""
    from sympy.polys.domains import GF, QQ
    from sympy.polys.rings import ring
    tag, tree = case
    p, modulus = ORACLE_FIELDS[tag]
    R, *gens = ring("x1,x2,t", GF(p) if p else QQ)
    want = evaluate(tree, R, gens, p)
    if modulus is not None:
        want = want.rem(sum(c * gens[2] ** e for e, c in enumerate(modulus)))
    expected = {}
    for (e1, e2, et), c in want.terms():
        if p == 0:
            expected[(e1, e2)] = Fraction(int(c.numerator), int(c.denominator))
        elif modulus is None:
            expected[(e1, e2)] = int(c) % p
        else:
            vec = list(expected.get((e1, e2), (0,) * (len(modulus) - 1)))
            vec[et] = int(c) % p
            expected[(e1, e2)] = tuple(vec)
    field = parse_field(tag)
    got = parse_polynomial(render(tree), field, 2)
    read = (lambda c: c) if modulus is None else (
        lambda c: finite.digits(c, p, field.s))  # codes as residues in t
    assert {e: read(c.payload) for e, c in got.sorted_terms()} == \
        {e: c for e, c in expected.items() if c}
