"""Deterministic random generators shared by the unit and acceptance tests,
and the check that a Q payload is canonical."""

from fractions import Fraction

from polyauto.autos import linear_elementary
from polyauto.fields import Field
from polyauto.maps import Elementary, FactoredAuto, Translation, Triangular
from polyauto.poly import Polynomial, unpack

Q = Field.rationals()


def is_canonical_q(c) -> bool:
    """Q's one payload per value: an int (not a bool) when the value is an
    integer, else a Fraction with denominator > 1."""
    return type(c) is int or type(c) is Fraction and c.denominator > 1


def assert_canonical_q(payloads):
    bad = [c for c in payloads if not is_canonical_q(c)]
    assert not bad, f"non-canonical Q payloads: {bad[:5]!r}"


def rand_scalar(rng, field=Q, maxv=3):
    if field.order is None:
        return field.elem(Fraction(rng.randint(-maxv, maxv),
                                   rng.randint(1, 2)))
    return field.from_int(rng.randrange(field.order))


def rand_unit(rng, field=Q, maxv=3):
    while True:
        x = rand_scalar(rng, field, maxv)
        if not x.is_zero():
            return x


def rand_poly(rng, field, n, maxvar, deg, terms=3):
    p = Polynomial.zero(field, n)
    for _ in range(rng.randint(0, terms)):
        exps = [0] * n
        for j in range(maxvar):
            exps[j] = rng.randint(0, deg)
        p = p + Polynomial.monomial(field, n, rand_scalar(rng, field),
                                    tuple(exps))
    return p


def rand_triangular(rng, n, deg=2, field=Q, special=False, terms=3):
    scalars = [rand_unit(rng, field) for _ in range(n)]
    if special:
        prod = field.one
        for a in scalars[:-1]:
            prod = prod * a
        scalars[-1] = prod.inv()
    polys = tuple(rand_poly(rng, field, n, i, deg, terms=terms)
                  for i in range(n))
    return Triangular(field, n, tuple(scalars), polys)


def rand_sl_word(rng, n, field=Q, length=3):
    factors = []
    for _ in range(length):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        if i == j:
            continue
        factors.extend(
            linear_elementary(field, n, i, j, rand_scalar(rng, field)).factors)
    return FactoredAuto(field, n, factors)


def rand_translation(rng, n, field=Q):
    return Translation(field, n, tuple(rand_scalar(rng, field)
                                       for _ in range(n)))


def rand_m_triangular_word(rng, n, m, deg=2, field=Q):
    """Alternating word alpha_0 tau_1 ... tau_m alpha_m, special."""
    factors = []
    factors.extend(rand_sl_word(rng, n, field).factors)
    for _ in range(m):
        factors.append((rand_triangular(rng, n, deg, field, special=True), 1))
        factors.extend(rand_sl_word(rng, n, field).factors)
    return FactoredAuto(field, n, factors)


def parseable_value_mutants(text, limit=None):
    """Single-character digit corruptions of VALUE/INV lines that still
    parse; yields parsed Certificate mutants."""
    from polyauto.certificates import parse_certificate
    from polyauto.errors import ParseError
    lines = text.splitlines()
    count = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not (stripped.startswith("VALUE") or stripped.startswith("INV")):
            continue
        for j, ch in enumerate(line):
            if not ch.isdigit():
                continue
            for repl in "0123456789":
                if repl == ch:
                    continue
                mutated = "\n".join(
                    lines[:i] + [line[:j] + repl + line[j + 1:]]
                    + lines[i + 1:]) + "\n"
                try:
                    cert = parse_certificate(mutated)
                except ParseError:
                    continue
                yield cert
                count += 1
                break
            if limit is not None and count >= limit:
                return


def rand_mixed_word(rng, n, length=4, deg=2, field=Q):
    """Random word of assorted factors, corrected to Jacobian determinant 1."""
    from polyauto.autos import dilation, jacobian_det
    factors = []
    for _ in range(length):
        kind = rng.choice(("tri", "sl", "tr", "elem"))
        if kind == "tri":
            factors.append((rand_triangular(rng, n, deg, field), rng.choice((1, -1))))
        elif kind == "sl":
            factors.extend(rand_sl_word(rng, n, field).factors)
        elif kind == "tr":
            factors.append((rand_translation(rng, n, field), 1))
        else:
            i = rng.randint(1, n)
            f = rand_poly(rng, field, n, n, deg)
            f = Polynomial(field, n, {k: c for k, c in f.terms.items()
                                      if not unpack(k, n)[i - 1]})
            factors.append((Elementary(field, n, i, f), rng.choice((1, -1))))
    word = FactoredAuto(field, n, factors)
    det = jacobian_det(word.expand()).constant_value()
    if not det.is_one():
        word = word * dilation(field, n, 1, det.inv())
    return word
