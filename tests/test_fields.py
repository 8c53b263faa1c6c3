import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gen import assert_canonical_q, is_canonical_q
from polyauto.errors import (DivisionByZero, FieldMismatch, NotPrime,
                             ReducibleModulus)
from polyauto import finite
from polyauto.fields import Field
from polyauto.finite import CANONICAL_MODULI


def test_prime_field_basics(F5):
    assert F5.characteristic == 5
    assert F5.order == 5
    assert F5.from_int(7) == F5.from_int(2)


def test_extension_construction():
    # t^2 + t + 1 has no roots over F_2 (t=0 -> 1, t=1 -> 1), so F_4 exists
    F4 = Field.extension(2, 2, (1, 1, 1))
    assert F4.characteristic == 2
    assert F4.order == 4


def test_rationals(Q):
    assert Q.characteristic == 0
    assert Q.order is None
    assert Q.elem(Fraction(1, 2)) + Q.elem(Fraction(1, 3)) == Q.elem(Fraction(5, 6))


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        Field.prime(6)
    with pytest.raises(NotPrime):
        Field.of_order(12)


def test_reducible_modulus_rejected():
    # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        Field.extension(2, 2, (1, 0, 1))
    with pytest.raises(ReducibleModulus):
        Field.extension(3, 1, (1, 1))


def test_one_handle_per_field():
    from polyauto.textio import parse_field
    F9 = Field.of_order(9)
    assert F9 is Field.extension(3, 2, (1, 0, 1))
    assert F9 is Field.extension(3, 2, (4, 3, 7))  # the same modulus mod 3
    assert parse_field("F9/t^2+1") is F9
    assert Field.prime(7) is Field.of_order(7)
    assert Field.rationals() is Field.rationals()
    # t^2 + 2t + 2 is irreducible over F_3 too: a second field of order 9
    other = Field.extension(3, 2, (2, 2, 1))
    assert other is not F9 and other.order == F9.order
    assert other is Field.extension(3, 2, (2, 2, 1))
    assert other.one != F9.one


def test_a_failed_construction_raises_on_every_call():
    from polyauto import fields
    for _ in range(3):
        for p in (1, 9, 12):
            with pytest.raises(NotPrime):
                Field.prime(p)
        with pytest.raises(NotPrime):
            Field.extension(4, 2, (1, 1, 1))
        # t^2 + 2 = (t + 1)(t + 2) over F_3
        with pytest.raises(ReducibleModulus):
            Field.extension(3, 2, (2, 0, 1))
    assert ("extension", 3, 2, (2, 0, 1)) not in fields._HANDLES
    assert ("prime", 9, 1, None) not in fields._HANDLES


def test_the_table_drops_a_handle_nothing_references():
    import gc
    import weakref
    from polyauto import fields
    key = ("extension", 5, 2, (2, 0, 1))  # t^2 + 2: 3 is no square mod 5
    field = Field.extension(5, 2, (2, 0, 1))
    assert fields._HANDLES[key] is field
    ref = weakref.ref(field)
    del field
    gc.collect()
    assert ref() is None
    assert key not in fields._HANDLES


def test_canonical_moduli_are_irreducible():
    for (p, s) in CANONICAL_MODULI:
        f = Field.extension(p, s)
        assert f.order == p ** s


def test_f4_multiplication_table(F4):
    # hand-reduced: t * t = t^2 = t + 1 mod t^2 + t + 1
    g = F4.generator()
    assert g * g == F4.elem((1, 1))
    assert g * g * g == F4.one


def test_f9_inverse(F9):
    # t * 2t = 2 t^2 = 2 * (-1) = 1 mod t^2 + 1
    t = F9.generator()
    assert t.inv() == F9.from_int(2) * t


def test_division_by_zero(F5):
    with pytest.raises(DivisionByZero):
        F5.one / F5.zero
    with pytest.raises(DivisionByZero):
        F5.zero.inv()


def test_a_quotient_of_two_integers_over_q_is_one_canonical_payload(Q):
    for a in range(-12, 13):
        for b in range(-6, 7):
            if not b:
                with pytest.raises(DivisionByZero):
                    Q._pdiv(a, b)
                with pytest.raises(DivisionByZero):
                    Q.from_int(a) / Q.zero
                continue
            got = Q._pdiv(a, b)
            assert got == Fraction(a, b) and is_canonical_q(got)
            assert (type(got) is int) == (a % b == 0)
            assert (Q.from_int(a) / Q.from_int(b)).payload == got
    # a Fraction operand, and the int payloads of F_p, take the product path
    assert Q._pdiv(Fraction(3, 2), -3) == Fraction(-1, 2)
    assert Field.prime(5)._pdiv(3, 2) == 4


def test_a_negative_power_over_q_is_one_canonical_payload(Q, monkeypatch):
    # an int base builds its reciprocal with one kernels.ratio, so at most
    # one Fraction; a Fraction base keeps the Fraction power
    for a, e, want in ((1, -3, 1), (-1, -3, -1), (-1, -2, 1),
                       (2, -1, Fraction(1, 2)), (-2, -3, Fraction(-1, 8)),
                       (2, 0, 1), (-2, 3, -8), (Fraction(1, 2), -2, 4),
                       (Fraction(-2, 3), -1, Fraction(-3, 2)),
                       (Fraction(2, 3), 2, Fraction(4, 9))):
        got = Q._power(a, e)
        assert got == want and type(got) is type(want), (a, e, got)
        assert is_canonical_q(got)
    built, new, want = [], Fraction.__new__, Fraction(-1, 32)

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Q._power(-2, -5) == want and len(built) == 1
    assert Q.from_int(-1).inv().payload == -1 and len(built) == 1


def test_a_fraction_is_coerced_as_a_quotient(F5, F4):
    # 1/3 = 2 in F5, and 3 = 1 in F4; a denominator p divides is no unit
    assert F5.elem(Fraction(1, 3)) == F5.from_int(2)
    assert F5.elem(Fraction(-7, 3)) == F5.from_int(-7) / F5.from_int(3)
    assert F4.elem(Fraction(1, 3)) == F4.one
    for field, bad in ((F5, Fraction(3, 5)), (F4, Fraction(1, 2))):
        with pytest.raises(DivisionByZero):
            field.elem(bad)


def test_field_mismatch(F5, F4):
    with pytest.raises(FieldMismatch):
        F5.one + F4.one


def test_units_enumeration(F4, F5, Q):
    g = F4.generator()
    assert list(F4.units()) == [F4.one, g, g + 1]
    assert [u.payload for u in F5.units()] == [1, 2, 3, 4]
    units = [u.payload for u in Q.units(bound=5)]
    assert units == [1, -1, 2, -2, Fraction(1, 2)]
    assert list(map(type, units)) == [int] * 4 + [Fraction]


def test_rational_unit_stream_injective(Q):
    seen = list(Q.units(bound=60))
    assert len({u.payload for u in seen}) == 60


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_frobenius_fixed_points(q):
    field = Field.of_order(q)
    for x in field.elements():
        assert x ** q == x


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_root_is_a_power(q):
    """Frobenius has order s on F_{p^s}, so x^(p^(s-1)) is the p-th root
    of x: slin's case 2b takes its root this way."""
    field = Field.of_order(q)
    p, s = field.p, field.s
    for x in field.elements():
        assert (x ** p ** (s - 1)) ** p == x


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_double_inverse_exhaustive(q):
    field = Field.of_order(q)
    for x in field.units():
        assert x.inv().inv() == x
        assert x * x.inv() == field.one


@pytest.mark.parametrize("tag", ["Q", "F5", "F4", "F9", "F8", "F27", "F25"])
def test_field_axioms_random_triples(tag):
    from polyauto.textio import parse_field
    field = parse_field(tag)
    rng = random.Random(99)

    def rand():
        if field.order is None:
            return field.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return field.from_int(rng.randrange(field.order))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if not a.is_zero():
            assert a * a.inv() == field.one


RATIONAL_VALUES = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions())


@given(RATIONAL_VALUES, RATIONAL_VALUES, st.integers(-5, 5))
def test_rational_arith_matches_fraction(a, b, e):
    """Q's elem of an int or a Fraction and its + - * / and ** (negative
    exponents too) give canonical payloads equal to Fraction arithmetic."""
    Q = Field.rationals()
    x, y, a = Q.elem(a), Q.elem(b), Fraction(a)
    pairs = [(x, a), (y, b), (x + y, a + b), (x - y, a - b),
             (x * y, a * b), (-x, -a)]
    if b:
        pairs.append((x / y, a / b))
    if a or e >= 0:
        pairs.append((x ** e, a ** e))
    for got, want in pairs:
        assert got.payload == want and is_canonical_q(got.payload)


def test_q_payloads_are_canonical_at_every_producer(Q):
    from polyauto import kernels
    from polyauto.maps import TriDerivation, exp_images
    from polyauto.poly import Polynomial
    from polyauto.textio import parse_factored, parse_polynomial
    two = Q.elem(Fraction(4, 2)).payload
    assert type(two) is int and two == 2
    # the reader: integral quotients are ints
    vector = parse_factored("[Q,2] Tr(0/5, 6/3)").factors[0][0].vector
    assert [c.payload for c in vector] == [0, 2]
    assert_canonical_q(c.payload for c in vector)
    terms = parse_polynomial("x1*6/3", Q, 1).terms
    assert list(terms.values()) == [2]
    assert_canonical_q(terms.values())
    det = kernels.gauss_jordan_q([[1, Fraction(1, 2)], [2, 1]], True)
    assert det == (0, None) and type(det[0]) is int
    # exp(D) with D(x1) = 1, D(x2) = x1: x2 -> x2 + x1 + 1/2
    one, x1 = Polynomial.one(Q, 2), Polynomial.variable(Q, 2, 1)
    images = exp_images(one, TriDerivation(Q, 2, (one, x1)))
    assert images[1] == Polynomial.variable(Q, 2, 2) + x1 + \
        Polynomial.constant(Q, 2, Q.elem(Fraction(1, 2)))
    assert_canonical_q(images[0].terms.values())
    assert type(images[1].terms[0]) is Fraction
    with pytest.raises(TypeError):
        Q.elem(True)


def test_tags_round_trip():
    from polyauto.textio import parse_field
    for tag in ("Q", "F5", "F4/t^2+t+1", "F9/t^2+1"):
        f = parse_field(tag)
        assert parse_field(f.tag()) == f


def test_prime_power_splits_q():
    from polyauto.finite import prime_power
    m61 = 2 ** 61 - 1
    assert [prime_power(q) for q in (2, 4, 8, 9, 25, 27, 97, 3 ** 40,
                                     m61 ** 3, 43 ** 7, 2 ** 10000)] == [
        (2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (97, 1), (3, 40),
        (m61, 3), (43, 7), (2, 10000)]
    # a 3,001-digit q with a small factor is refused at once
    for q in (-4, 0, 1, 6, 12, 100, m61 - 2, m61 * 3, 6 ** 20,
              10 ** 3000 + 1, 43 ** 7 * 47):
        with pytest.raises(NotPrime):
            prime_power(q)


def test_is_prime_agrees_with_a_sieve():
    from polyauto.finite import is_prime
    sieve = [False, False] + [True] * 19998
    for d in range(2, 142):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [n for n in range(-3, 20000) if is_prime(n)] == \
        [n for n, prime in enumerate(sieve) if prime]
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161)
    assert not any(is_prime(n) for n in carmichael)
    # a strong pseudoprime to every base below 41 is still caught
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 89 - 1) and not is_prime(2 ** 89 + 1)


def test_large_field_tag_reads_fast():
    from time import perf_counter
    from polyauto.textio import parse_field
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        field = parse_field("F1000000000039")
        best = min(best, perf_counter() - start)
    assert field.kind == "prime" and field.p == 1000000000039
    assert best < 0.01


def test_field_order_is_bounded():
    """Orders at or above FIELD_ORDER_BOUND, where the Miller-Rabin bases
    stop being a proof, are refused before any primality work."""
    from time import perf_counter
    from polyauto.errors import ParseError, UnsupportedField
    from polyauto.finite import FIELD_ORDER_BOUND, is_prime
    from polyauto.textio import parse_field
    # 2,001 digits and no prime factor up to 41: Miller-Rabin would run
    tag = f"F{10 ** 2000 + 1}"
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        with pytest.raises(ParseError, match="must be below") as info:
            parse_field(tag)
        best = min(best, perf_counter() - start)
    assert best < 0.01
    assert (info.value.line, info.value.column) == (1, 1)
    with pytest.raises(ParseError, match="must be below"):
        parse_field(f"F{FIELD_ORDER_BOUND}/t^2+t+1")
    assert is_prime(2 ** 89 - 1) and 2 ** 89 - 1 >= FIELD_ORDER_BOUND
    for make in (Field.prime, Field.of_order):
        with pytest.raises(UnsupportedField):
            make(2 ** 89 - 1)
    with pytest.raises(UnsupportedField):
        Field.extension(2 ** 89 - 1, 2)
    assert parse_field("F1000000000039").p == 1000000000039


def test_extension_order_is_bounded():
    from polyauto.errors import ParseError, UnsupportedField
    from polyauto.textio import parse_field
    # 2^28: the factor search of the modulus would try about 2^14 divisors
    with pytest.raises(ParseError, match=r"2\^28 exceeds 65536") as info:
        parse_field("F268435456/t^28+t^3+1")
    assert (info.value.line, info.value.column) == (1, 1)
    for p, s in ((2, 17), (3, 11), (257, 2), (2, 10 ** 9)):
        with pytest.raises(UnsupportedField):
            Field.extension(p, s)
    # the largest order still reads: t^16 + t^5 + t^3 + t^2 + 1 over F_2
    F = parse_field("F65536/t^16+t^5+t^3+t^2+1")
    assert F.order == 2 ** 16 and F.generator() ** (2 ** 16 - 1) == F.one


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2)])
def test_payload_arithmetic_matches_sympy(p, s):
    """Every monic modulus of degree s over F_p: a reducible one is refused,
    and over an irreducible one every product, every inverse and the
    reduction of longer tuples agree with sympy's GF(p)[t]."""
    sympy = pytest.importorskip("sympy")
    from itertools import product
    from sympy.polys.rings import ring
    R, t = ring("t", sympy.GF(p))

    def of(vec):
        return sum(c * t ** i for i, c in enumerate(vec))

    def back(f):
        vec = [0] * s
        for (i,), c in f.items():
            vec[i] = int(c) % p
        return tuple(vec)

    rng = random.Random(p * 10 + s)
    irreducible = 0
    for low in product(range(p), repeat=s):
        modulus = low + (1,)
        m = of(modulus)
        if not m.is_irreducible:
            with pytest.raises(ReducibleModulus):
                Field.extension(p, s, modulus)
            with pytest.raises(ValueError, match="reducible"):
                finite.ext_tables(p, modulus)
            continue
        irreducible += 1
        field = Field.extension(p, s, modulus)
        vec = [finite.digits(x.payload, p, s) for x in field.elements()]
        for a, x in enumerate(vec):
            for b, y in enumerate(vec):
                assert vec[field._pmul(a, b)] == back((of(x) * of(y)).rem(m))
            if a:
                inv, _, g = of(x).gcdex(m)
                assert g == 1
                assert vec[field._pinv(a)] == back(inv.rem(m))
        for _ in range(20):
            v = tuple(rng.randrange(-p, 2 * p)
                      for _ in range(rng.randint(s + 1, 2 * s + 2)))
            assert vec[field.elem(v).payload] == back(of(v).rem(m))
    # the number of monic irreducibles of degree s: (p^s - p) / s for prime s
    assert irreducible == {(2, 4): 3}.get((p, s), (p ** s - p) // s)


def gf_ring(p, modulus):
    """sympy's GF(p)[t] with maps to and from residue tuples in t, and x^e
    mod the modulus by square and multiply."""
    from sympy import GF
    from sympy.polys.rings import ring
    R, t = ring("t", GF(p))
    s = len(modulus) - 1
    m = sum(c * t ** i for i, c in enumerate(modulus))

    def of(vec):
        return sum(c * t ** i for i, c in enumerate(vec))

    def back(f):
        vec = [0] * s
        for (i,), c in f.items():
            vec[i] = int(c) % p
        return tuple(vec)

    def power(f, e):
        result = R.one
        while e:
            if e & 1:
                result = (result * f).rem(m)
            f, e = (f * f).rem(m), e >> 1
        return result

    return m, of, back, power


# Non-canonical moduli of F256 and F243, with whether t generates the units
LOG_CASES = [
    (2, (1, 1, 0, 1, 1, 0, 0, 0, 1), False),  # t^8+t^4+t^3+t+1: t has order 51
    (2, (1, 0, 1, 1, 1, 0, 0, 0, 1), True),   # t^8+t^4+t^3+t^2+1
    (3, (1, 0, 2, 2, 2, 1), False),           # t^5+2t^4+2t^3+2t^2+1
    (3, (1, 0, 0, 0, 2, 1), True),            # t^5+2t^4+1
]


@pytest.mark.parametrize("p, modulus, t_primitive", LOG_CASES)
def test_log_tables_match_sympy(p, modulus, t_primitive):
    """F256 and F243: exp holds every unit code once, twice over, then the
    zeros that log 0 lands a product with zero in; random products,
    inverses and powers (negative, and beyond q - 1) through the tables
    agree with sympy's GF(p)[t], also when t does not generate the unit
    group."""
    pytest.importorskip("sympy")
    from math import gcd
    s = len(modulus) - 1
    q, n = p ** s, p ** s - 1
    field = Field.extension(p, s, modulus)
    m, of, back, power = gf_ring(p, modulus)
    log, exp = finite.ext_tables(p, modulus)[:2]
    assert sorted(exp[:n]) == list(range(1, q))
    assert all(log[x] == i for i, x in enumerate(exp[:n]))
    assert exp[n:2 * n] == exp[:n] and exp[2 * n:] == [0] * (2 * n + 1)
    assert len(log) == q and log[0] == 2 * n
    t = field.generator().payload
    assert finite.digits(t, p, s) == (0, 1) + (0,) * (s - 2)
    assert (gcd(log[t], n) == 1) == t_primitive
    vec = [finite.digits(k, p, s) for k in range(q)]
    rng = random.Random(q + sum(modulus))
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        assert vec[field._pmul(a, b)] == back((of(vec[a]) * of(vec[b])).rem(m))
        e = rng.choice([rng.randrange(q - 1, 3 * q),
                        rng.randrange(-3 * q, 0), q - 1, q - 2, 0])
        if a:
            inv, _, g = of(vec[a]).gcdex(m)
            assert g == 1
            assert vec[field._pinv(a)] == back(inv.rem(m))
            want = power(inv if e < 0 else of(vec[a]), abs(e))
            assert vec[field._ppow(a, e)] == back(want)
        else:
            with pytest.raises(DivisionByZero):
                field._pinv(a)
            assert field._ppow(a, abs(e)) == (1 if e == 0 else 0)


def ext_schoolbook(x, y, p, modulus):
    """x * y in F_p[t]/(modulus) on residue tuples, lowest first, by the
    schoolbook product and reduction: the tuple reference of the tables."""
    s = len(modulus) - 1
    prod = [0] * (2 * s - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y, i):
            prod[j] += xi * yj
    for i in range(2 * s - 2, s - 1, -1):
        c = prod[i] % p
        for j in range(s):
            prod[i - s + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:s])


def tuple_power(x, e, p, modulus):
    """x^e, e >= 0, by square and multiply on ext_schoolbook."""
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = ext_schoolbook(result, x, p, modulus)
        x, e = ext_schoolbook(x, x, p, modulus), e >> 1
    return result


@pytest.mark.parametrize("p, modulus", [
    (p, m) for (p, _), m in sorted(CANONICAL_MODULI.items())] + [
    (p, m) for p, m, _ in LOG_CASES])
def test_code_ops_match_the_tuple_reference(p, modulus):
    """Every canonical extension field and the non-canonical F256 and F243:
    over all pairs of codes, the table sum, product, negation, inverse,
    power (e = -3, 0, 1, 2, q) and text equal the digit-wise sum mod p,
    ext_schoolbook and element_text on the residues that `digits` reads."""
    s = len(modulus) - 1
    q = p ** s
    field = Field.extension(p, s, modulus)
    vec = [finite.digits(k, p, s) for k in range(q)]
    code = {v: k for k, v in enumerate(vec)}
    assert len(code) == q and [x.payload for x in field.elements()] == \
        list(range(q))
    for a, x in enumerate(vec):
        assert field._ptext(a) == finite.element_text(x)
        assert field._pneg(a) == code[tuple(-c % p for c in x)]
        for b, y in enumerate(vec):
            assert field._padd(a, b) == code[tuple(
                (c + d) % p for c, d in zip(x, y))]
            assert field._pmul(a, b) == code[ext_schoolbook(x, y, p, modulus)]
        for e in (-3, 0, 1, 2, q):
            if a or e >= 0:
                want = tuple_power(x, e % (q - 1) if e < 0 else e, p, modulus)
                assert field._ppow(a, e) == code[want]
        if a:
            assert field._pinv(a) == code[tuple_power(x, q - 2, p, modulus)]
        else:
            for call in (lambda: field._pinv(a), lambda: field._ppow(a, -3)):
                with pytest.raises(DivisionByZero):
                    call()


def test_non_canonical_payload_raises(F9):
    """A value that is not the code of an element raises ValueError: it
    never reads as zero, a falsy one such as () or None included, and a
    negative one never wraps as a list index, in a sum, product, negation,
    inverse, power, text or the term kernel, as a coefficient, a multiplier
    or a value already in the kernel's accumulator."""
    one, zero = F9.one.payload, F9.zero.payload
    for bad in (-1, -9, 9, 12, (1, 0), (0, 0), (3, 0), (0, -1), (1, 0, 0),
                (0, 0, 0), (1,), (), None, ""):
        assert not F9._pis_zero(bad)
        for call in (lambda: F9._pmul(bad, one), lambda: F9._pmul(one, bad),
                     lambda: F9._pmul(zero, bad), lambda: F9._padd(bad, one),
                     lambda: F9._padd(one, bad), lambda: F9._padd(zero, bad),
                     lambda: F9._padd(bad, zero), lambda: F9._pneg(bad),
                     lambda: F9._pinv(bad), lambda: F9._ppow(bad, 3),
                     lambda: F9._ppow(bad, -1), lambda: F9._ptext(bad),
                     lambda: finite.mul_terms_ext({1: bad}, {0: one},
                                                  3, F9.modulus),
                     lambda: finite.mul_terms_ext({1: one}, {0: one},
                                                  3, F9.modulus, bad, {}),
                     lambda: finite.mul_terms_ext({1: one}, {0: one},
                                                  3, F9.modulus, 1, {1: bad})):
            with pytest.raises(ValueError, match="not a canonical"):
                call()


def test_log_tables_of_the_largest_extension():
    """F65536 = F_2[t]/(t^16+t^5+t^3+t^2+1), the largest field the format
    takes: its tables build within 2 s of CPU, and exp and log are inverse
    on a sample of its units."""
    from test_hostile import within
    modulus = (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)
    field = Field.extension(2, 16, modulus)
    finite.ext_tables.cache_clear()
    with within(2.0):
        log, exp = finite.ext_tables(2, field.modulus)[:2]
    assert len(log) == 1 << 16
    rng = random.Random(16)
    for _ in range(2000):
        x = rng.randrange(1, 1 << 16)
        assert exp[log[x]] == x
        assert field._pmul(x, field._pinv(x)) == field.one.payload


def test_table_memo_holds_the_sweep_fields():
    """The six slin-sweep fields, interleaved in the term kernel, build
    their tables once each, and share them with their handles."""
    fields = [Field.of_order(q) for q in (4, 8, 9, 16, 25, 27)]
    finite.ext_tables.cache_clear()
    for _ in range(3):
        for field in fields:
            x = field.generator().payload
            got = finite.mul_terms_ext({1: x}, {1: x}, field.p, field.modulus)
            assert got == {2: field._pmul(x, x)}
    assert finite.ext_tables.cache_info().misses == len(fields)
