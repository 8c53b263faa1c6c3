"""Term-map kernels: the hot loops of sparse polynomial multiplication,
keyed by field kind.  Coefficients are Python ints, tuples of ints, or
Fractions, so every kernel is exact for any characteristic.

Over Q no Fraction arithmetic runs in the loop: operands are integer term
maps over one shared denominator (the lcm of their denominators), and each
output becomes one Fraction at the end.  mul_terms_int and mul_terms_ext add
k * a * b into a map in place: one substitution accumulation for all fields.
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


def ext_mul(x, y, p, modulus):
    """x * y in F_p[t]/(modulus): s-tuples of residues, ascending in t.  The
    only F_{p^s} element product; Field payloads multiply with it too."""
    s = len(modulus) - 1
    prod = [0] * (2 * s - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y, i):
                prod[j] += xi * yj
    for i in range(2 * s - 2, s - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(s):
                prod[i - s + j] -= c * modulus[j]
    return tuple([c % p for c in prod[:s]])


def mul_terms_ext(a, b, p, modulus, k=1, out=None):
    """mul_terms_int for F_{p^s} payloads (ext_mul tuples; the int 1 stands
    for one): a cancelled sum stays in `out` as a zero tuple, and with no
    `out` the product is returned without zero entries."""
    fresh = out is None
    out = {} if fresh else out
    get = out.get
    for ea, ca in a.items():
        if k != 1:
            ca = ext_mul(ca, k, p, modulus)
        for eb, cb in b.items():
            c = ext_mul(ca, cb, p, modulus)
            key = tuple(map(add, ea, eb))
            acc = get(key)
            out[key] = c if acc is None else tuple(
                [(x + y) % p for x, y in zip(acc, c)])
    return {e: c for e, c in out.items() if any(c)} if fresh else out
