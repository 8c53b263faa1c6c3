"""Finite fields: prime fields F_p and extensions F_{p^s} given by an explicit
irreducible modulus.  Only the construction of a finite-field handle
imports this module, so a process that works over Q compiles none of it.

A `FiniteField` binds its kind's payload ops, term-map kernels and payload
printer when it is made, and eliminates matrices by Gauss-Jordan.  F_{p^s}
payloads multiply, invert and raise to powers through the log/antilog tables
of `ext_tables`, built once per field: a product is exp[log a + log b], an
inverse exp[(q-1) - log a].  F_p residues invert by pow(a, -1, p).
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
        p, s, modulus = self.p, self.s, self.modulus
        if self.kind == PRIME:
            times = lambda a, b, k=1, out=None: mul_terms_fp(a, b, p, k, out)
            return (lambda k: k % p, lambda a, b: (a + b) % p,
                    lambda a: -a % p, lambda a, b: a * b % p,
                    lambda a, e: pow(a, e, p), not_, str, times, times)
        pad = (0,) * (s - 1)
        times = (lambda a, b, k=1, out=None:
                 mul_terms_ext(a, b, p, modulus, k, out))
        return (lambda k: (k % p,) + pad,
                lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)]),
                lambda a: tuple([-x % p for x in a]),
                lambda a, b: ext_mul(a, b, p, modulus),
                lambda a, e: ext_pow(a, e, p, modulus),
                partial(eq, (0,) + pad),  # only this tuple is zero
                element_text, times, times)

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
        """Field.elem; an extension field also reduces a tuple in t."""
        if isinstance(value, tuple) and self.kind == EXTENSION:
            r = _fp_poly_rem([int(c) for c in value], self.modulus, self.p)
            return FieldElement(self, tuple(r) + (0,) * (self.s - len(r)))
        return super().elem(value)

    def generator(self) -> FieldElement:
        if self.kind != EXTENSION:
            return super().generator()
        return FieldElement(self, (0, 1) + (0,) * (self.s - 2))

    def elements(self) -> Iterator[FieldElement]:
        for idx in range(self.order):
            yield FieldElement(self, idx if self.kind == PRIME
                               else digits(idx, self.p, self.s))

    def units(self, bound: int | None = None) -> Iterator[FieldElement]:
        return (x for x in self.elements() if not x.is_zero())


def element_text(payload) -> str:
    """Text of an F_{p^s} payload, any coefficient tuple in t: the printer
    of an extension field's elements and of its modulus."""
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
