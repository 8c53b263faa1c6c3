"""Term-map kernels: the hot loops of sparse polynomial multiplication,
keyed by field kind.  Coefficients are Python ints, tuples of ints, or
Fractions, so every kernel is exact for any characteristic.

Over Q no Fraction arithmetic runs in the loop: each operand is written as
an integer term map over one shared denominator (the lcm of its
coefficient denominators), the integer maps are multiplied, and each
output coefficient is normalised once, by one Fraction at the end.
"""

from fractions import Fraction
from math import lcm
from operator import add

BACKEND = "python"


def clear_denominators(a):
    """(P, d) with a = P / d: P an integer term map, d the lcm of the
    coefficient denominators of the Fraction term map a."""
    d = lcm(*(c.denominator for c in a.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in a.items()}, d


def mul_terms_int(a, b, k=1, out=None):
    """Add k * a * b into `out` (a new map when None) and return it; the
    coefficients are Python ints.  Keys whose sum cancels stay as 0
    entries, so a caller summing many products drops them once, at the
    end."""
    if out is None:
        out = {}
    get = out.get
    for ea, ca in a.items():
        ca *= k
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = get(key, 0) + ca * cb
    return out


def mul_terms_fp(a, b, p):
    """Multiply term maps with int-residue coefficients mod p: the integer
    product, then one reduction per output key."""
    return {e: r for e, v in mul_terms_int(a, b).items() if (r := v % p)}


def mul_terms_obj(a, b):
    """Multiply term maps with Fraction coefficients: integer numerators
    over the shared denominator da * db, one Fraction per nonzero output
    term."""
    pa, da = clear_denominators(a)
    pb, db = clear_denominators(b)
    d = da * db
    return {e: Fraction(v, d)
            for e, v in mul_terms_int(pa, pb).items() if v}


def mul_terms_ext(a, b, p, modulus):
    """Multiply term maps with F_{p^s} coefficients (tuples, ascending)."""
    s = len(modulus) - 1
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            prod = [0] * (2 * s - 1)
            for i in range(s):
                ci = ca[i]
                if ci:
                    for j in range(s):
                        prod[i + j] = (prod[i + j] + ci * cb[j]) % p
            for i in range(2 * s - 2, s - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(s):
                        prod[i - s + j] = (prod[i - s + j] - c * modulus[j]) % p
            c = tuple(prod[:s])
            if not any(c):
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = tuple((x + y) % p for x, y in zip(acc, c))
                if any(acc):
                    out[key] = acc
                else:
                    del out[key]
    return out
