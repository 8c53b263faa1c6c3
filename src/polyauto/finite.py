"""Finite fields: prime fields F_p and extensions F_{p^s} given by an explicit
irreducible modulus.  Only the construction of a finite-field handle
imports this module, so a process that works over Q compiles none of it.

A `FiniteField` binds its kind's payload ops, term-map kernels and payload
printer when it is made, and eliminates matrices by Gauss-Jordan.  An F_p
payload is its residue; an F_{p^s} payload is the integer code sum c_i p^i
of its residues c_i in t, the index of the element in `elements()`, so zero
is 0, one is 1 and t is p.  Every F_{p^s} op is a lookup in the tables of
`ext_tables`, built once per field: a product is exp[log a + log b], a sum
exp[log a + zech[log b - log a]], a negation, power or inverse one entry.
F_p residues invert by pow(a, -1, p).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache, partial
from math import log, log2
from operator import eq, not_
from types import MappingProxyType

from .errors import NotPrime, ReducibleModulus, UnsupportedField
from .fields import _HANDLES, EXTENSION, PRIME, Field, FieldElement, _interned
from .kernels import mul_terms_int

# Shipped moduli, coefficient tuples in ascending order (c0, c1, ..., 1).
# Chosen once so certificates name extension elements reproducibly.
CANONICAL_MODULI = MappingProxyType({
    (2, 2): (1, 1, 1),          # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),       # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),    # t^4 + t + 1
    (3, 2): (1, 0, 1),          # t^2 + 1
    (3, 3): (1, 2, 0, 1),       # t^3 + 2t + 1
    (5, 2): (1, 1, 1),          # t^2 + t + 1
})


# The largest p^s of an extension field: the irreducibility test of its
# modulus searches about p^(s/2) candidate factors.
MAX_EXTENSION_ORDER = 1 << 16

# Miller-Rabin bases: exact below 3.3e24 (Sorenson-Webster), a PRP test above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Every field order lies below this, where is_prime is proven exact: above
# it, composites that pass all of _MR_BASES exist (Arnault, 1995).
FIELD_ORDER_BOUND = 3317044064679887385961981


def check_order(q: int):
    """UnsupportedField for an order at or above FIELD_ORDER_BOUND; a
    reader calls this before prime_power, whose cost grows with q."""
    if q >= FIELD_ORDER_BOUND:
        raise UnsupportedField(
            f"field order must be below {FIELD_ORDER_BOUND}, "
            "where primality is proven")


def is_prime(n: int) -> bool:
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _check_prime(p: int):
    check_order(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def prime_power(q: int):
    """(p, s) with q = p^s for a prime p and s >= 1; NotPrime otherwise.
    A prime factor b <= 41 of q leaves only p = b; any other p is > 2^5."""
    b = next((b for b in _MR_BASES if q > 1 and q % b == 0), None)
    if b is not None and b ** (s := round(log(q, b))) == q:
        return b, s
    for s in range(1, max(q, 1).bit_length() // 5 + 1 if b is None else 1):
        # p = floor(q^(1/s)) by Newton steps down from just above 2^e
        e = log2(q) / s
        p = int(2.0 ** (e % 1 + 40) * (1 + 2 ** -20)) << int(e) >> 40
        while (y := ((s - 1) * p + q // p ** (s - 1)) // s) < p:
            p = y
        if p ** s == q and is_prime(p):
            return p, s
    raise NotPrime(f"{q} is not a prime power")


def _fp_poly_rem(a, b, p):
    """The remainder of a by a monic b over F_p, coefficients ascending: its
    len(b) - 1 residues, or fewer when a is shorter."""
    r = [x % p for x in a]
    d = len(b) - 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * b[j]) % p
    return r[:d]


def _is_irreducible(modulus, p) -> bool:
    """Exhaustive factor search: fast enough for p^s <= MAX_EXTENSION_ORDER."""
    s = len(modulus) - 1
    if s < 1 or modulus[-1] % p != 1:
        return False
    for d in range(1, s // 2 + 1):
        # all monic candidates of degree d
        for idx in range(p ** d):
            cand = digits(idx, p, d) + (1,)
            if not any(_fp_poly_rem(modulus, cand, p)):
                return False
    return True


# -- the constructors behind Field.prime, Field.extension, Field.of_order -----

def prime(p: int) -> Field:
    field = _HANDLES.get((PRIME, p, 1, None))
    if field is not None:
        return field
    _check_prime(p)
    return _interned((PRIME, p, 1, None), FiniteField)


def extension(p: int, s: int, modulus=None) -> Field:
    if modulus is None:
        modulus = CANONICAL_MODULI.get((p, s))
    if modulus is not None:
        field = _HANDLES.get((EXTENSION, p, s, tuple(modulus)))
        if field is not None:
            return field
    _check_prime(p)
    if s < 2:
        raise ReducibleModulus("extension degree must be at least 2")
    if s > 16 or p ** s > MAX_EXTENSION_ORDER:
        raise UnsupportedField(
            f"extension order {p}^{s} exceeds {MAX_EXTENSION_ORDER}")
    if modulus is None:
        raise ReducibleModulus(
            f"no canonical modulus shipped for F_{p}^{s}; supply one")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != s + 1 or modulus[-1] != 1:
        raise ReducibleModulus("modulus must be monic of degree s")
    if not _is_irreducible(modulus, p):
        raise ReducibleModulus(
            f"modulus {modulus} is reducible over F_{p}")
    return _interned((EXTENSION, p, s, modulus), FiniteField)


def of_order(q: int) -> Field:
    check_order(q)
    p, s = prime_power(q)
    return prime(p) if s == 1 else extension(p, s)


class FiniteField(Field):
    """The handle of F_p or F_{p^s}: the ops, descriptors and enumerations
    that differ from the rationals'."""

    __slots__ = ()

    def _ops(self):
        # the kernels call the module's names, so a tracer that rebinds
        # mul_terms_ext sees every call
        p, modulus = self.p, self.modulus
        if self.kind == PRIME:
            times = lambda a, b, k=1, out=None: mul_terms_fp(a, b, p, k, out)
            return (lambda k: k % p, lambda a, b: (a + b) % p,
                    lambda a: -a % p, lambda a, b: a * b % p,
                    lambda a, e: pow(a, e, p), not_, str, times, times)
        log, exp, zech, neg, texts = ext_tables(p, modulus)
        n = len(zech)

        def add(a, b):
            la, lb = log[a], log[b]
            return exp[la + zech[(lb - la) % n]] if a and b else a or b

        def power(a, e):
            i = log[a]  # 2n for zero
            return exp[e * i % n] if i < n else int(not e)  # 0^0 is one

        times = (lambda a, b, k=1, out=None:
                 mul_terms_ext(a, b, p, modulus, k, out))
        return (lambda k: k % p, add, neg.__getitem__,
                lambda a, b: exp[log[a] + log[b]], power,
                partial(eq, 0),  # only the code 0 is zero, not a falsy ()
                texts.__getitem__, times, times)

    def _eliminate(self, rows, inverse=False):
        """Field._eliminate by Gauss-Jordan on payloads, reducing [A | I if
        inverting] until A's part is I (a det: only below the diagonal)."""
        n, zero, one = len(rows), self.zero.payload, self.one.payload
        pmul, padd, is_zero = self._pmul, self._padd, self._pis_zero
        M = [list(row) + [one if i == j else zero
                          for j in range(n if inverse else 0)]
             for i, row in enumerate(rows)]
        det = one
        for col in range(n):
            pivot = next((r for r in range(col, n)
                          if not is_zero(M[r][col])), None)
            if pivot is None:
                return zero, None
            if pivot != col:
                M[col], M[pivot], det = M[pivot], M[col], self._pneg(det)
            det, inv = pmul(det, M[col][col]), self._pinv(M[col][col])
            M[col] = [pmul(x, inv) for x in M[col]]
            for row in range(0 if inverse else col + 1, n):
                if row != col and not is_zero(M[row][col]):
                    f = self._pneg(M[row][col])
                    M[row] = [padd(x, pmul(f, y))
                              for x, y in zip(M[row], M[col])]
        return det, [row[n:] for row in M] if inverse else None

    def tag(self) -> str:
        if self.kind == PRIME:
            return f"F{self.p}"
        return f"F{self.order}/{element_text(self.modulus)}"

    def elem(self, value) -> FieldElement:
        """Field.elem; an extension field also reduces a tuple of residues
        in t, ascending, to the code of its remainder by the modulus."""
        if isinstance(value, tuple) and self.kind == EXTENSION:
            r = _fp_poly_rem([int(c) for c in value], self.modulus, self.p)
            return FieldElement(self, sum(c * self.p ** i
                                          for i, c in enumerate(r)))
        return super().elem(value)

    def generator(self) -> FieldElement:
        if self.kind != EXTENSION:
            return super().generator()
        return FieldElement(self, self.p)  # t, the code of (0, 1, 0, ...)

    def elements(self) -> Iterator[FieldElement]:
        return map(partial(FieldElement, self), range(self.order))

    def units(self, bound: int | None = None) -> Iterator[FieldElement]:
        return map(partial(FieldElement, self), range(1, self.order))


def element_text(payload) -> str:
    """Text of a coefficient tuple in t, ascending: the printer of an
    extension field's modulus, and the reference the element texts of
    `ext_tables` are tested against."""
    parts = []
    for e in range(len(payload) - 1, -1, -1):
        c = payload[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            t = "t" if e == 1 else f"t^{e}"
            parts.append(t if c == 1 else f"{c}*{t}")
    return "+".join(parts) if parts else "0"


# -- term-map kernels ------------------------------------------------------------

def mul_terms_fp(a, b, p, k=1, out=None):
    """mul_terms_int on int residues mod p: with `out`, the unreduced sums
    added into it (its caller reduces each key once); with none, the
    product reduced once per key, without zero entries."""
    if out is not None:
        return mul_terms_int(a, b, k, out)
    return {e: r for e, v in mul_terms_int(a, b, k).items() if (r := v % p)}


def digits(k, p, s):
    """The s base-p digits of k, lowest first: the residues in t of the
    F_{p^s} element of code k."""
    return tuple(k // p ** i % p for i in range(s))


class _CodeTable(dict):
    """A table keyed by the codes of one F_{p^s}: any other key raises
    ValueError, so a malformed payload never reads as zero and a negative
    code never wraps as a list index."""

    def __init__(self, items, name):
        super().__init__(items)
        self.name = name

    def __missing__(self, key):
        raise ValueError(f"{key!r} is not a canonical {self.name} payload")


@lru_cache(maxsize=8)
def ext_tables(p, modulus):
    """(log, exp, zech, neg, texts) of F_p[t]/(modulus), modulus an
    irreducible monic s+1-tuple, on the codes of its elements: the Zech-log
    layout of FLINT's fq_zech.  exp[i] = g^i for the first generator g of the
    unit group in the encoding, listed twice (i < 2(q-1)) and then followed by
    2q-1 zeros; log is its inverse, with log 0 = 2(q-1), so that a product
    with zero lands in the zeros; zech[d] = log(1 + g^d), also 2(q-1) where
    1 + g^d = 0; neg and texts are -x and the printed x.  A reducible
    modulus raises ValueError.  Built once per field by one walk of the
    powers of each candidate g, dropped when they return to 1 early; the
    memo holds eight fields at once, since callers interleave fields."""
    if not _is_irreducible(modulus, p):
        raise ValueError(f"{modulus} is reducible over F_{p}")
    s = len(modulus) - 1
    q = p ** s
    n, name = q - 1, f"F_{p}^{s}"
    # The walk runs on lane forms: residue i in bits W*i..W*i+W-1, with room
    # for a sum of two residues plus off, whose high bit marks a sum >= p.
    W = p.bit_length() + 1
    ones = sum(1 << W * i for i in range(s))
    high, off, mask = ones << W - 1, ones * ((1 << W - 1) - p), (1 << W) - 1
    top, low = W * (s - 1), (1 << W * (s - 1)) - 1
    # t * c t^(s-1) = c t^s = -c (m_0 + ... + m_{s-1} t^(s-1))
    red = [sum(-c * m % p << W * i for i, m in enumerate(modulus[:-1]))
           for c in range(p)]

    def add(x, y):
        z = x + y
        return z - ((z + off & high) >> W - 1) * p

    def times(x, y):  # x * y: x added y_i times for each y_i, then x *= t
        acc = 0
        while y:
            for _ in range(y & mask):
                acc = add(acc, x)
            x, y = add((x & low) << W, red[x >> top]), y >> W
        return acc

    lanes = range(p)  # the lane form of every code, in code order
    for i in range(1, s):
        lanes = [c << W * i | r for c in range(p) for r in lanes]
    code = dict(zip(lanes, range(q)))
    for g in range(p, q):
        exp, x = [1], lanes[g]
        while x != 1:
            exp.append(code[x])
            x = times(x, lanes[g])
        if len(exp) == n:
            break
    log = _CodeTable(zip(exp, range(n)), name)
    log[0] = 2 * n
    exp += exp + [0] * (2 * n + 1)
    # 1 + x: the code with digit 0 of x raised by one mod p
    zech = [log[c - c % p + (c + 1) % p] for c in exp[:n]]
    half = n // 2 if p > 2 else 0  # log(-1)
    neg = _CodeTable({c: exp[i + half] for c, i in log.items()}, name)
    texts = [str(c) for c in range(p)]
    for i in range(1, s):  # codes c p^i + r, 0 < c < p, r < p^i
        t = "t" if i == 1 else f"t^{i}"
        heads = [t] + [f"{c}*{t}" for c in range(2, p)]
        texts += [h if r == "0" else f"{h}+{r}" for h in heads for r in texts]
    return log, exp, zech, neg, _CodeTable(enumerate(texts), name)


def mul_terms_ext(a, b, p, modulus, k=1, out=None):
    """mul_terms_int for F_{p^s} codes: a cancelled sum stays in `out` as
    0, and with no `out` the product is returned without zero entries.
    Every coefficient is mapped to its log once, so the product of a pair
    is exp[i + j], and its sum with a stored c is exp[l + zech[i + j - l]],
    l = log c."""
    log, exp, zech = ext_tables(p, modulus)[:3]
    n, fresh = len(zech), out is None
    out = {} if fresh else out
    z, lk = 2 * n, log[k]  # every zero test is on a log, 2n being zero's
    if lk == z:
        return out
    la = [(ea, (i + lk) % n) for ea, ca in a.items() if (i := log[ca]) < n]
    lb = [(eb, j) for eb, cb in b.items() if (j := log[cb]) < n]
    get = out.get
    for ea, i in la:
        for eb, j in lb:
            key = ea + eb
            lc = log[get(key, 0)]
            out[key] = (exp[i + j] if lc == z
                        else exp[lc + zech[(i + j - lc) % n]])
    return {e: c for e, c in out.items() if c != 0} if fresh else out
