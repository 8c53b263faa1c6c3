"""Kernels over Q: the hot loops of sparse polynomial multiplication, the
integer loop that the F_p kernel of `polyauto.finite` runs too, and matrix
elimination.  Keys are packed monomials (see `poly.pack`), one int per
exponent vector, so the monomial of a pair of terms is one integer addition;
the caller keeps every product's degree within poly.MAX_DEGREE, so no field
carries.  Coefficients are Python ints or Fractions: every kernel is exact.

Over Q no Fraction arithmetic runs in a loop: operands are integer term
maps over one shared denominator (the lcm of their denominators), and each
output becomes one Fraction at the end; a matrix is reduced on integer rows,
fraction-free (Bareiss, Math. Comp. 22, 1968).  mul_terms_int, like
finite.mul_terms_ext, adds k * a * b into a map in place: a substitution
runs it only for a term with two or more multi-term image powers.
Each Field binds its kind's kernels when it is made (`Field._ops`).
"""

from fractions import Fraction
from math import lcm, prod

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


def mul_terms_obj(a, b):
    """Multiply term maps with Fraction coefficients: integer numerators
    over the shared denominator da * db, one Fraction per nonzero output
    term."""
    pa, da = clear_denominators(a)
    pb, db = clear_denominators(b)
    d = da * db
    return {e: Fraction(v, d)
            for e, v in mul_terms_int(pa, pb).items() if v}


def gauss_jordan_q(rows, inverse=False):
    """Q's Field._eliminate: (det A, A^-1's rows if `inverse`), (0, None) if
    A is singular.  R = diag(L) A, L_i the lcm of row i's denominators, or
    [R | diag(L)] to invert, is reduced (a det: below each pivot) until R's
    part is d I, d = +-det R: det A = +-d / prod L, A^-1 = right part / d."""
    n, sign, prev = len(rows), 1, 1
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    M = [[x.numerator * (s // x.denominator) for x in row]
         + [s if j == i else 0 for j in range(n if inverse else 0)]
         for i, (row, s) in enumerate(zip(rows, scales))]
    for k in range(n):
        pivot = next((r for r in range(k, n) if M[r][k]), None)
        if pivot is None:
            return Fraction(0), None
        M[k], M[pivot], sign = M[pivot], M[k], sign if pivot == k else -sign
        top, p, lo = M[k], M[k][k], 0 if inverse else k
        for row in M if inverse else M[k + 1:]:
            f = row[k]
            if row is not top and (f or p != prev):
                row[lo:] = [(p * x - f * y) // prev
                            for x, y in zip(row[lo:], top[lo:])]
        prev = p
    return Fraction(sign * prev, prod(scales)), [
        [Fraction(x, prev) for x in row[n:]] for row in M] if inverse else None


def __getattr__(name: str):  # perfbench's name (ROADMAP direction 18)
    if name == "mul_terms_ext":
        from .finite import mul_terms_ext
        return mul_terms_ext
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
