"""Term-map kernels: the hot loops of sparse polynomial multiplication,
keyed by field kind.  Coefficients are Python ints, tuples of ints, or
Fractions, so every kernel is exact for any characteristic.
"""

BACKEND = "python"


def mul_terms_fp(a, b, p):
    """Multiply term maps with int-residue coefficients mod p."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            c = (ca * cb) % p
            if not c:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = (acc + c) % p
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def mul_terms_obj(a, b):
    """Multiply term maps whose coefficients are exact Python objects
    (Fraction); zero test is equality with int 0."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            c = ca * cb
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc == 0:
                    del out[key]
                else:
                    out[key] = acc
    return out


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
