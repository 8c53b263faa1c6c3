"""Text formats: field tags, polynomials, expanded and factored
automorphisms, derivations.

Printers emit a canonical form (graded-lex term order, fixed spacing) so
that serialized objects are byte-stable; parsers accept the same grammar
with arbitrary whitespace.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .derivations import TriDerivation
from .errors import ArityError, ParseError
from .fields import EXTENSION, PRIME, RATIONALS, Field, element_text
from .poly import Polynomial

# -- field tags -------------------------------------------------------------

def parse_field(text: str) -> Field:
    text = text.strip()
    if text == "Q":
        return Field.rationals()
    m = re.fullmatch(r"F(\d+)(?:/(.+))?", text)
    if not m:
        raise ParseError(f"bad field tag {text!r}")
    q = int(m.group(1))
    modtext = m.group(2)
    if modtext is None:
        return Field.of_order(q)
    # explicit modulus: find p, s from q
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    s = 0
    mq = q
    while mq % p == 0:
        mq //= p
        s += 1
    if mq != 1:
        raise ParseError(f"{q} is not a prime power")
    modulus = _parse_modulus(modtext, p, s)
    return Field.extension(p, s, modulus)


def _parse_modulus(text: str, p: int, s: int) -> Tuple[int, ...]:
    coeffs = [0] * (s + 1)
    for sign, part in _signed_parts(text):
        part = part.strip()
        m = re.fullmatch(r"(?:(\d+)\*?)?(?:t(?:\^(\d+))?)?", part)
        if not m or not part:
            raise ParseError(f"bad modulus term {part!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if "t" in part:
            e = int(m.group(2)) if m.group(2) else 1
        else:
            e = 0
        if e > s:
            raise ParseError(f"modulus degree exceeds {s}")
        coeffs[e] = (coeffs[e] + sign * c) % p
    return tuple(coeffs)


def _signed_parts(text: str):
    parts = []
    sign = 1
    cur = ""
    for ch in text:
        if ch in "+-" and cur:
            parts.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch == "-" and not cur:
            sign = -sign
        elif ch == "+" and not cur:
            pass
        else:
            cur += ch
    if cur:
        parts.append((sign, cur))
    return parts


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\^-1)|(.))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                break
            if m.group(1):
                self.items.append(("num", m.group(1), m.start(1)))
            elif m.group(2):
                self.items.append(("name", m.group(2), m.start(2)))
            elif m.group(3):
                self.items.append(("invexp", m.group(3), m.start(3)))
            elif m.group(4) and not m.group(4).isspace():
                self.items.append(("punct", m.group(4), m.start(4)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}",
                             1, pos + 1)
        return val

    def error(self, message: str):
        _, val, pos = self.peek()
        raise ParseError(f"{message} (at {val or 'end of input'!r})", 1, pos + 1)


# -- polynomial parsing -------------------------------------------------------

def parse_polynomial(text: str, field: Field, nvars: int) -> Polynomial:
    toks = _Tokens(text)
    p = _parse_expr(toks, field, nvars)
    if toks.peek()[0] != "eof":
        toks.error("trailing input after polynomial")
    return p


def _parse_expr(toks: _Tokens, field: Field, nvars: int) -> Polynomial:
    sign = 1
    while toks.peek()[1] in ("+", "-"):
        if toks.next()[1] == "-":
            sign = -sign
    p = _parse_term(toks, field, nvars)
    if sign < 0:
        p = -p
    while toks.peek()[1] in ("+", "-"):
        op = toks.next()[1]
        sign = 1 if op == "+" else -1
        while toks.peek()[1] in ("+", "-"):
            if toks.next()[1] == "-":
                sign = -sign
        q = _parse_term(toks, field, nvars)
        p = p + q if sign > 0 else p - q
    return p


def _parse_term(toks: _Tokens, field: Field, nvars: int) -> Polynomial:
    p = _parse_power(toks, field, nvars)
    while toks.peek()[1] == "*":
        toks.next()
        p = p * _parse_power(toks, field, nvars)
    return p


def _parse_power(toks: _Tokens, field: Field, nvars: int) -> Polynomial:
    p = _parse_atom(toks, field, nvars)
    if toks.peek()[1] == "^":
        toks.next()
        kind, val, pos = toks.next()
        if kind != "num":
            raise ParseError("expected integer exponent", 1, pos + 1)
        p = p ** int(val)
    return p


def _parse_atom(toks: _Tokens, field: Field, nvars: int) -> Polynomial:
    kind, val, pos = toks.next()
    if kind == "num":
        value = int(val)
        if toks.peek()[1] == "/":
            toks.next()
            k2, v2, p2 = toks.next()
            if k2 != "num":
                raise ParseError("expected denominator", 1, p2 + 1)
            if field.kind == RATIONALS:
                return Polynomial.constant(field, nvars,
                                           Fraction(value, int(v2)))
            return Polynomial.constant(
                field, nvars, field.from_int(value) / field.from_int(int(v2)))
        return Polynomial.constant(field, nvars, value)
    if kind == "name":
        if val == "t":
            if field.kind != EXTENSION:
                raise ParseError("t is only valid over extension fields",
                                 1, pos + 1)
            return Polynomial.constant(field, nvars, field.generator())
        m = re.fullmatch(r"x(\d+)", val)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= nvars:
                raise ParseError(f"variable x{i} out of range 1..{nvars}",
                                 1, pos + 1)
            return Polynomial.variable(field, nvars, i)
        raise ParseError(f"unexpected name {val!r}", 1, pos + 1)
    if val == "(":
        p = _parse_expr(toks, field, nvars)
        toks.expect(")")
        return p
    if val == "-":
        return -_parse_atom(toks, field, nvars)
    raise ParseError(f"unexpected token {val!r}", 1, pos + 1)


# -- polynomial printing -------------------------------------------------------

def _coeff_text(field: Field, payload) -> Tuple[str, bool]:
    """(text, needs_parens_when_multiplied)."""
    if field.kind == RATIONALS:
        return str(payload), False
    if field.kind == PRIME:
        return str(payload), False
    nonzero = [e for e, c in enumerate(payload) if c]
    if nonzero == [0]:
        return str(payload[0]), False
    if len(nonzero) == 1 and payload[nonzero[0]] == 1:
        e = nonzero[0]
        return ("t" if e == 1 else f"t^{e}"), False
    return element_text(field, payload), True


def poly_to_text(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    field = p.field
    parts = []
    for exps, coeff in p.sorted_terms():
        mono = "*".join(
            (f"x{j+1}" if e == 1 else f"x{j+1}^{e}")
            for j, e in enumerate(exps) if e)
        ctext, parens = _coeff_text(field, coeff.payload)
        if mono:
            if ctext == "1":
                body = mono
            elif ctext == "-1" and field.kind == RATIONALS:
                body = "-" + mono
            elif parens:
                body = f"({ctext})*{mono}"
            else:
                body = f"{ctext}*{mono}"
        else:
            body = f"({ctext})" if parens else ctext
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append("-" + body[1:])
        else:
            parts.append("+" + body)
    return "".join(parts)


# -- endomorphisms --------------------------------------------------------------

def endo_to_text(phi) -> str:
    comps = ", ".join(poly_to_text(c) for c in phi.components)
    return f"[{phi.field.tag()},{phi.nvars}] ({comps})"


def components_text(phi) -> str:
    return "(" + ", ".join(poly_to_text(c) for c in phi.components) + ")"


_PREFIX_RE = re.compile(r"\s*\[([^\]]+),\s*(\d+)\]\s*(.*)", re.DOTALL)


def split_prefix(text: str):
    """Split an optional '[field,n]' prefix; returns (field, n, rest)."""
    m = _PREFIX_RE.fullmatch(text)
    if not m:
        return None, None, text.strip()
    field = parse_field(m.group(1))
    return field, int(m.group(2)), m.group(3).strip()


def parse_endo(text: str, field: Optional[Field] = None,
               nvars: Optional[int] = None):
    from .autos import Endo
    f2, n2, rest = split_prefix(text)
    field = f2 or field
    nvars = n2 if n2 is not None else nvars
    if field is None or nvars is None:
        raise ParseError("missing [field,n] prefix")
    return Endo(field, nvars, parse_components(rest, field, nvars))


def parse_components(text: str, field: Field, nvars: int):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("component tuple must be parenthesized")
    inner = text[1:-1]
    parts = _split_top_level(inner, ",")
    if len(parts) != nvars:
        raise ArityError(f"expected {nvars} components, got {len(parts)}")
    return tuple(parse_polynomial(part, field, nvars) for part in parts)


def _split_top_level(text: str, sep: str) -> List[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


# -- derivations ------------------------------------------------------------------

def derivation_to_text(D: TriDerivation) -> str:
    return "D(" + ", ".join(poly_to_text(q) for q in D.images) + ")"


def parse_derivation(text: str, field: Field, nvars: int) -> TriDerivation:
    text = text.strip()
    if not (text.startswith("D(") and text.endswith(")")):
        raise ParseError("derivation must look like D(q1, ..., qn)")
    parts = _split_top_level(text[2:-1], ",")
    if len(parts) != nvars:
        raise ArityError(f"expected {nvars} derivation images")
    images = tuple(parse_polynomial(part, field, nvars) for part in parts)
    return TriDerivation(field, nvars, images)


# -- factored automorphisms ---------------------------------------------------------

def factor_to_text(factor) -> str:
    from .autos import (Elementary, ExpLND, Linear, SignedPermutation,
                        Translation, Triangular)
    if isinstance(factor, Elementary):
        return f"E({factor.i}; {poly_to_text(factor.f)})"
    if isinstance(factor, Translation):
        return "Tr(" + ", ".join(str(b) for b in factor.vector) + ")"
    if isinstance(factor, Linear):
        rows = ",".join(
            "[" + ",".join(str(x) for x in row) + "]"
            for row in factor.matrix)
        return f"L[{rows}]"
    if isinstance(factor, Triangular):
        groups = []
        for a, p in zip(factor.scalars, factor.polys):
            if p.is_zero():
                groups.append(str(a))
            else:
                groups.append(f"{a}, {poly_to_text(p)}")
        return "T(" + "; ".join(groups) + ")"
    if isinstance(factor, SignedPermutation):
        return ("S(" + ",".join(str(p) for p in factor.perm) + "; "
                + ",".join(str(s) for s in factor.signs) + ")")
    if isinstance(factor, ExpLND):
        return (f"Exp({poly_to_text(factor.F)}; "
                f"{derivation_to_text(factor.D)})")
    raise TypeError(f"unknown factor {factor!r}")


def factored_to_text(word) -> str:
    if not word.factors:
        return "id"
    parts = []
    for factor, exp in word.factors:
        t = factor_to_text(factor)
        parts.append(t if exp == 1 else t + "^-1")
    return " * ".join(parts)


def parse_factored(text: str, field: Optional[Field] = None,
                   nvars: Optional[int] = None):
    from .autos import FactoredAuto
    f2, n2, rest = split_prefix(text)
    field = f2 or field
    nvars = n2 if n2 is not None else nvars
    if field is None or nvars is None:
        raise ParseError("missing [field,n] prefix for factored word")
    rest = rest.strip()
    if rest == "id" or not rest:
        return FactoredAuto.identity(field, nvars)
    factors = []
    for piece in _split_top_level(rest, "*"):
        piece = piece.strip()
        exp = 1
        if piece.endswith("^-1"):
            exp = -1
            piece = piece[:-3].strip()
        factors.append((_parse_factor(piece, field, nvars), exp))
    return FactoredAuto(field, nvars, factors)


def _parse_constant(text: str, field: Field, nvars: int):
    p = parse_polynomial(text, field, nvars)
    if not p.is_constant():
        raise ParseError(f"expected a constant, got {text.strip()!r}")
    return p.constant_value()


def _parse_factor(text: str, field: Field, nvars: int):
    from .autos import (Elementary, ExpLND, Linear, SignedPermutation,
                        Translation, Triangular)
    m = re.fullmatch(r"(E|Tr|T|S|Exp)\((.*)\)", text, re.DOTALL)
    if m:
        kind, inner = m.group(1), m.group(2)
        if kind == "E":
            parts = _split_top_level(inner, ";")
            if len(parts) != 2:
                raise ParseError(f"E needs (i; f): {text!r}")
            i = int(parts[0].strip())
            f = parse_polynomial(parts[1], field, nvars)
            return Elementary(field, nvars, i, f)
        if kind == "Tr":
            parts = _split_top_level(inner, ",")
            if len(parts) != nvars:
                raise ArityError(f"Tr needs {nvars} entries")
            vec = tuple(_parse_constant(p, field, nvars) for p in parts)
            return Translation(field, nvars, vec)
        if kind == "T":
            groups = _split_top_level(inner, ";")
            if len(groups) != nvars:
                raise ArityError(f"T needs {nvars} groups")
            scalars = []
            polys = []
            for g in groups:
                bits = _split_top_level(g, ",")
                a = _parse_constant(bits[0], field, nvars)
                if len(bits) == 1:
                    p = Polynomial.zero(field, nvars)
                elif len(bits) == 2:
                    p = parse_polynomial(bits[1], field, nvars)
                else:
                    raise ParseError(f"bad triangular group {g!r}")
                scalars.append(a)
                polys.append(p)
            return Triangular(field, nvars, tuple(scalars), tuple(polys))
        if kind == "S":
            parts = _split_top_level(inner, ";")
            if len(parts) != 2:
                raise ParseError(f"S needs (perm; signs): {text!r}")
            perm = tuple(int(x) for x in _split_top_level(parts[0], ","))
            signs = tuple(_parse_constant(x, field, nvars)
                          for x in _split_top_level(parts[1], ","))
            return SignedPermutation(field, nvars, perm, signs)
        if kind == "Exp":
            parts = _split_top_level(inner, ";")
            if len(parts) != 2:
                raise ParseError(f"Exp needs (F; D(...)): {text!r}")
            F = parse_polynomial(parts[0], field, nvars)
            D = parse_derivation(parts[1].strip(), field, nvars)
            return ExpLND(field, nvars, F, D)
    m = re.fullmatch(r"L\[(.*)\]", text, re.DOTALL)
    if m:
        matrix = _parse_matrix(m.group(1), field, nvars)
        return Linear(field, nvars, matrix)
    raise ParseError(f"unrecognized factor {text!r}")


def _parse_matrix(text: str, field: Field, nvars: int):
    rows = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "[":
            depth += 1
            if depth == 1:
                cur = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                rows.append(cur)
                continue
        if depth >= 1:
            cur += ch
    if len(rows) != nvars:
        raise ArityError(f"L needs {nvars} rows")
    matrix = []
    for row in rows:
        entries = _split_top_level(row, ",")
        if len(entries) != nvars:
            raise ArityError(f"L row needs {nvars} entries")
        matrix.append(tuple(_parse_constant(e, field, nvars)
                            for e in entries))
    return tuple(matrix)


def parse_automorphism(text: str):
    """Parse either an expanded tuple or a factored word, detected by shape.
    The '[field,n]' prefix is required."""
    field, nvars, rest = split_prefix(text)
    if field is None:
        raise ParseError("missing [field,n] prefix")
    if rest.startswith("("):
        return parse_endo(text)
    return parse_factored(text)
