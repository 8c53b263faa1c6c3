import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyauto.errors import (DivisionByZero, FieldMismatch, NotPrime,
                             ReducibleModulus)
from polyauto import kernels
from polyauto.fields import CANONICAL_MODULI, Field


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


def test_field_mismatch(F5, F4):
    with pytest.raises(FieldMismatch):
        F5.one + F4.one


def test_units_enumeration(F4, F5, Q):
    g = F4.generator()
    assert list(F4.units()) == [F4.one, g, g + 1]
    assert [u.payload for u in F5.units()] == [1, 2, 3, 4]
    assert [u.payload for u in Q.units(bound=4)] == \
        [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]


def test_rational_unit_stream_injective(Q):
    seen = list(Q.units(bound=60))
    assert len({u.payload for u in seen}) == 60


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_frobenius_fixed_points(q):
    field = Field.of_order(q)
    for x in field.elements():
        assert x ** q == x


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


@given(st.fractions(), st.fractions())
def test_rational_arith_matches_fraction(a, b):
    Q = Field.rationals()
    assert (Q.elem(a) + Q.elem(b)).payload == a + b
    assert (Q.elem(a) * Q.elem(b)).payload == a * b


def test_tags_round_trip():
    from polyauto.textio import parse_field
    for tag in ("Q", "F5", "F4/t^2+t+1", "F9/t^2+1"):
        f = parse_field(tag)
        assert parse_field(f.tag()) == f


def test_prime_power_splits_q():
    from polyauto.fields import prime_power
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
    from polyauto.fields import is_prime
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
    from polyauto.fields import FIELD_ORDER_BOUND, is_prime
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
                kernels.ext_tables(p, modulus)
            continue
        irreducible += 1
        field = Field.extension(p, s, modulus)
        payloads = [x.payload for x in field.elements()]
        for a in payloads:
            for b in payloads:
                assert field._pmul(a, b) == back((of(a) * of(b)).rem(m))
            if any(a):
                inv, _, g = of(a).gcdex(m)
                assert g == 1
                assert field._pinv(a) == back(inv.rem(m))
        for _ in range(20):
            vec = tuple(rng.randrange(-p, 2 * p)
                        for _ in range(rng.randint(s + 1, 2 * s + 2)))
            assert field.elem(vec).payload == back(of(vec).rem(m))
    # the number of monic irreducibles of degree s: (p^s - p) / s for prime s
    assert irreducible == {(2, 4): 3}.get((p, s), (p ** s - p) // s)


def gf_ring(p, modulus):
    """sympy's GF(p)[t] with maps to and from s-tuple payloads, and x^e mod
    the modulus by square and multiply."""
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


@pytest.mark.parametrize("p, modulus, t_primitive", [
    (2, (1, 1, 0, 1, 1, 0, 0, 0, 1), False),  # t^8+t^4+t^3+t+1: t has order 51
    (2, (1, 0, 1, 1, 1, 0, 0, 0, 1), True),   # t^8+t^4+t^3+t^2+1
    (3, (1, 0, 2, 2, 2, 1), False),           # t^5+2t^4+2t^3+2t^2+1
    (3, (1, 0, 0, 0, 2, 1), True),            # t^5+2t^4+1
])
def test_log_tables_match_sympy(p, modulus, t_primitive):
    """F256 and F243: the tables hold every unit once, and random products,
    inverses and powers (negative, and beyond q - 1) through them agree with
    sympy's GF(p)[t], also when t does not generate the unit group."""
    pytest.importorskip("sympy")
    from math import gcd
    s = len(modulus) - 1
    q = p ** s
    field = Field.extension(p, s, modulus)
    m, of, back, power = gf_ring(p, modulus)
    log, exp = kernels.ext_tables(p, modulus)
    assert len(log) == q - 1 and len(exp) == 2 * (q - 1)
    assert all(log[x] == i for i, x in enumerate(exp[:q - 1]))
    assert exp[q - 1:] == exp[:q - 1]
    t = field.generator().payload
    assert (gcd(log[t], q - 1) == 1) == t_primitive
    payloads = [x.payload for x in field.elements()]
    rng = random.Random(q + sum(modulus))
    for _ in range(300):
        a, b = rng.choice(payloads), rng.choice(payloads)
        assert field._pmul(a, b) == back((of(a) * of(b)).rem(m))
        e = rng.choice([rng.randrange(q - 1, 3 * q),
                        rng.randrange(-3 * q, 0), q - 1, q - 2, 0])
        if any(a):
            inv, _, g = of(a).gcdex(m)
            assert g == 1
            assert field._pinv(a) == back(inv.rem(m))
            want = power(inv if e < 0 else of(a), abs(e))
            assert field._ppow(a, e) == back(want)
        else:
            with pytest.raises(DivisionByZero):
                field._pinv(a)
            assert field._ppow(a, abs(e)) == (field.one.payload if e == 0
                                              else a)


def test_non_canonical_payload_raises(F9):
    """A tuple that is neither zero nor a reduced s-tuple raises: it never
    reads as zero, in a product, an inverse, a power or the term kernel."""
    one = F9.one.payload
    for bad in ((3, 0), (0, -1), (1, 0, 0), (0, 0, 0), (1,), ()):
        assert not F9._pis_zero(bad)
        for call in (lambda: F9._pmul(bad, one), lambda: F9._pmul(one, bad),
                     lambda: F9._pmul(F9.zero.payload, bad),
                     lambda: F9._pinv(bad), lambda: F9._ppow(bad, 3),
                     lambda: kernels.mul_terms_ext({(1,): bad}, {(0,): one},
                                                   3, F9.modulus),
                     lambda: kernels.mul_terms_ext({(1,): one}, {(0,): one},
                                                   3, F9.modulus, bad, {})):
            with pytest.raises(ValueError, match="not a canonical"):
                call()


def test_log_tables_of_the_largest_extension():
    """F65536 = F_2[t]/(t^16+t^5+t^3+t^2+1), the largest field the format
    takes: exp and log are inverse on a sample of its units."""
    modulus = (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)
    field = Field.extension(2, 16, modulus)
    log, exp = kernels.ext_tables(2, field.modulus)
    assert len(log) == (1 << 16) - 1
    rng = random.Random(16)
    for _ in range(2000):
        x = tuple(rng.randrange(2) for _ in range(16))
        if any(x):
            assert exp[log[x]] == x
            assert field._pmul(x, field._pinv(x)) == field.one.payload


def test_table_memo_holds_the_sweep_fields():
    """The six slin-sweep fields, interleaved, build their tables once."""
    fields = [Field.of_order(q) for q in (4, 8, 9, 16, 25, 27)]
    kernels.ext_tables.cache_clear()
    for _ in range(3):
        for field in fields:
            x = field.generator().payload
            field._pmul(x, x)
    assert kernels.ext_tables.cache_info().misses == len(fields)
