"""Term-map kernels: the hot loops of sparse polynomial multiplication,
keyed by field kind.  Keys are packed monomials (see `poly.pack`), one int
per exponent vector, so the monomial of a pair of terms is one integer
addition; the caller keeps every product's degree within poly.MAX_DEGREE, so
no exponent field carries.  Coefficients are Python ints, tuples of ints, or
Fractions, so every kernel is exact for any characteristic.

Over Q no Fraction arithmetic runs in the loop: operands are integer term
maps over one shared denominator (the lcm of their denominators), and each
output becomes one Fraction at the end.  mul_terms_int and mul_terms_ext add
k * a * b into a map in place: one substitution accumulation for all fields.

F_{p^s} elements stay s-tuples of residues, but every product, power and
inverse is a lookup in the field's discrete-log/antilog tables
(`ext_tables`), so mul_terms_ext adds two logs per pair of terms.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

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
            key = ea + eb
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


def _ext_schoolbook(x, y, p, modulus):
    """x * y in F_p[t]/(modulus) by the schoolbook product and reduction:
    only the table builder below multiplies this way."""
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


def digits(k, p, s):
    """The s base-p digits of k, lowest first: the payload of the k-th
    element of F_{p^s} in the integer encoding."""
    return tuple(k // p ** i % p for i in range(s))


def _prime_factors(n):
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=8)
def ext_tables(p, modulus):
    """(log, exp) of F_p[t]/(modulus), modulus an irreducible monic s+1-tuple:
    exp[i] = g^i for a generator g of the unit group, listed twice over
    (i < 2(q-1)) so that a sum of two logs needs no reduction, and log the
    inverse dict on the q-1 nonzero canonical s-tuples (the log/antilog
    tables of FLINT's fq_zech).  Built once per field with one walk of q-1
    products; the memo holds eight fields at once, since callers interleave
    fields."""
    s = len(modulus) - 1
    n = p ** s - 1
    one = (1,) + (0,) * (s - 1)

    def power(x, e):
        result = one
        while e:
            if e & 1:
                result = _ext_schoolbook(x, result, p, modulus)
            x = _ext_schoolbook(x, x, p, modulus)
            e >>= 1
        return result

    # the first non-constant g in the integer encoding whose order is q-1
    rs = _prime_factors(n)
    for idx in range(p, n + 1):
        g = digits(idx, p, s)
        if all(power(g, n // r) != one for r in rs):
            break
    exp, x = [one], one
    for _ in range(n - 1):
        x = _ext_schoolbook(g, x, p, modulus)
        exp.append(x)
    log = {x: i for i, x in enumerate(exp)}
    if len(log) != n or (0,) * s in log:  # no unit of order q-1
        raise ValueError(f"{modulus} is reducible over F_{p}")
    return log, exp + exp


def _payload_error(x, p, modulus):
    return ValueError(f"{x!r} is not a canonical F_{p}^{len(modulus) - 1} "
                      "payload")


def ext_mul(x, y, p, modulus):
    """x * y in F_p[t]/(modulus): s-tuples of residues, ascending in t.  The
    one F_{p^s} element product, exp[log x + log y]; Field payloads multiply
    with it too.  A tuple that is neither zero nor in `log` raises
    ValueError: a malformed payload never reads as zero."""
    log, exp = ext_tables(p, modulus)
    try:
        return exp[log[x] + log[y]]
    except KeyError:
        zero = (0,) * (len(modulus) - 1)
        for v in (x, y):
            if v != zero and v not in log:
                raise _payload_error(v, p, modulus) from None
        return zero


def ext_pow(x, e, p, modulus):
    """x^e in F_p[t]/(modulus) for any integer e, exp[e log x mod (q-1)]:
    e = -1 is the inverse.  0^0 is one; 0^e with e < 0 raises
    ZeroDivisionError."""
    log, exp = ext_tables(p, modulus)
    try:
        return exp[e * log[x] % len(log)]
    except KeyError:
        s = len(modulus) - 1
        if x != (0,) * s:
            raise _payload_error(x, p, modulus) from None
        if e < 0:
            raise ZeroDivisionError("zero to a negative power") from None
        return exp[0] if e == 0 else x


def mul_terms_ext(a, b, p, modulus, k=1, out=None):
    """mul_terms_int for F_{p^s} payloads (ext_mul tuples; the int 1 stands
    for one): a cancelled sum stays in `out` as a zero tuple, and with no
    `out` the product is returned without zero entries.  Every coefficient
    is mapped to its log once, so the product of a pair is exp[i + j]."""
    fresh = out is None
    out = {} if fresh else out
    get = out.get
    log, exp = ext_tables(p, modulus)
    n, zero = len(log), (0,) * (len(modulus) - 1)
    if k == zero:
        return out
    try:
        lk = 0 if k == 1 else log[k]
        la = [(ea, (log[ca] + lk) % n) for ea, ca in a.items() if ca != zero]
        lb = [(eb, log[cb]) for eb, cb in b.items() if cb != zero]
    except KeyError as exc:
        raise _payload_error(exc.args[0], p, modulus) from None
    for ea, i in la:
        for eb, j in lb:
            c = exp[i + j]
            key = ea + eb
            acc = get(key)
            out[key] = c if acc is None else tuple(
                [(x + y) % p for x, y in zip(acc, c)])
    return {e: c for e, c in out.items() if any(c)} if fresh else out
