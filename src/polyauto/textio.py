"""Text formats: field tags, polynomials, expanded and factored
automorphisms, derivations.

Printers emit canonical, byte-stable text.  Parsing is one recursive-descent
`_Parser` over one token stream, one rule per production of the grammar in
docs/formats.md (a subclass in `polyauto.certificates` adds the file's).  A
polynomial is read into one term map, a monomial term as one exponent vector
and one coefficient; only a factor that is not constant in parentheses or
after a unary minus multiplies polynomials.  A syntax error is a ParseError
at a line and column; a power or product over the cap is refused first.
"""

from __future__ import annotations

import re
from itertools import compress, repeat
from math import inf
from operator import contains

from .derivations import TriDerivation
from .errors import (ArityError, NotPrime, ParseError, ReducibleModulus,
                     UnsupportedField)
from .fields import (EXTENSION, Field, check_order, element_text,
                     prime_power)
from .maps import (Elementary, Endo, ExpLND, FactoredAuto, Linear,
                   SignedPermutation, Translation, Triangular)
from .poly import (DEFAULT_DEGREE_CAP, MAX_NVARS, Polynomial, cap_limit,
                   check_degree, identity_images)

# -- the token stream --------------------------------------------------------

_TOKEN_RE = re.compile(r"([0-9]+|x[0-9]+|[A-Za-z]+|\S)")
END, EOL = "end of input", "end of line"
_SIGNS = ("+", "-")
_JOINS = ("+", "-", "*", "^")  # what continues a term or a sum
_RING_SIZE = f"a ring needs 1 to {MAX_NVARS} variables"


class _Parser:
    """The tokens of one text (digits, x<digits>, letters or one other
    character, then "end of input"), the whitespace before each, and the
    grammar rules that read them, in a ring that is given or set by a
    '[field,n]' prefix.  A subclass that sets `lines` reads a line-oriented
    text: each of its lines then ends in an "end of line" token."""

    lines = False

    def __init__(self, text: str, field: Field | None, nvars: int | None,
                 cap: int | None):
        self.text, self.i = text, 0
        # the parse-time cap, and the one that no polynomial is built over
        self.cap, self.limit = inf if cap is None else cap, cap_limit(cap)
        parts = _TOKEN_RE.split(text)  # whitespace, token, ..., whitespace
        if self.lines and len(parts) > 1:  # an EOL ends each line with a token
            lined, start = [], 0  # built in one pass, so in linear time
            for end in compress(range(2, len(parts) - 1, 2),
                                map(contains, parts[2:-1:2], repeat("\n"))):
                lined += parts[start:end]
                lined += ("", EOL)  # an EOL follows its line's last token
                start = end
            parts = lined + parts[start:-1] + ["", EOL, parts[-1]]
        self.toks, self.gaps = parts[1::2], parts[::2]
        self.toks.append(END)  # its gap is the whitespace after the last token
        self.set_ring(field, nvars)

    def set_ring(self, field, nvars):
        self.field, self.nvars, self.xvars = field, nvars, nvars
        self.t = None  # t as (payload, j), see mono

    def fail(self, message: str, index: int | None = None,
             error=ParseError):
        """Raise at the token `index` (default: the next one), whose offset
        is the length of the gaps and tokens before it."""
        index = self.i if index is None else index
        text = self.text
        offset = (sum(map(len, self.gaps[:index + 1]))
                  + sum(len(tok) for tok in self.toks[:index] if tok != EOL))
        line = text.count("\n", 0, offset) + 1
        raise error(message, line, offset - text.rfind("\n", 0, offset))

    def at(self, tok: str) -> bool:
        """Take the next token if it is `tok`."""
        hit = self.toks[self.i] == tok
        self.i += hit
        return hit

    def expect(self, tok: str):
        if self.toks[self.i] != tok:
            self.fail(f"expected {tok!r}, found {self.toks[self.i]!r}")
        self.i += 1

    def number(self, digits: str | None = None) -> int:
        """Take a number token, or read the digits of the token just taken."""
        if digits is None:
            digits = self.toks[self.i]
            if not "0" <= digits[:1] <= "9":
                self.fail(f"expected a number, found {self.toks[self.i]!r}")
            self.i += 1
        try:
            return int(digits)
        except ValueError:  # longer than int() reads
            self.fail("number too long", self.i - 1)

    def items(self, item, sep: str = ",", count: int | None = None,
              what: str = "entries", brackets: str = ""):
        """[open] item {sep item} [close]: the one list rule; `count` fixes
        its length."""
        if brackets:
            self.expect(brackets[0])
        first = self.i
        out = [item()]
        while self.at(sep):
            out.append(item())
        if count is not None and len(out) != count:
            self.fail(f"expected {count} {what}, got {len(out)}", first,
                      ArityError)
        if brackets:
            self.expect(brackets[1])
        return tuple(out)

    def whole(self, rule, ring: bool = False):
        """Run one rule over the whole text, after the ring when asked."""
        try:
            if ring:
                self.ring()
            value = rule()
        except RecursionError:
            self.fail("input nested too deeply")
        if self.i + 1 < len(self.toks):
            self.fail(f"unexpected {self.toks[self.i]!r} after the input")
        return value

    # -- fields and the ring --

    def field_tag(self) -> Field:
        if self.at("Q"):
            return Field.rationals()
        first = self.i
        if not self.at("F"):
            self.fail(f"bad field tag {self.toks[self.i]!r}")
        q = self.number()
        try:
            check_order(q)
            if not self.at("/"):
                return Field.of_order(q)
            # the modulus: a polynomial in the variable t over F_p, degree <= s
            p, s = prime_power(q)
            fp = Field.prime(p)
            self.set_ring(fp, 1)
            self.xvars, self.t = 0, (fp.one.payload, 1)
            start, m = self.i, self.poly()
            if m.deg() > s:
                self.fail(f"modulus degree exceeds {s}", start)
            return Field.extension(
                p, s, tuple(m.coeff((e,)).payload for e in range(s + 1)))
        except (NotPrime, ReducibleModulus, UnsupportedField) as e:
            self.fail(str(e), first)

    def ring(self):
        """Optional '[field,n]' prefix, which must agree with a given ring."""
        given, first = (self.field, self.nvars), self.i
        if self.at("["):
            field = self.field_tag()
            self.expect(",")
            nvars = self.number()
            self.expect("]")
            if given[0] is not None and given != (field, nvars):
                self.fail("prefix disagrees with the enclosing ring", first)
            if not 1 <= nvars <= MAX_NVARS:
                self.fail(_RING_SIZE, first)
            given = (field, nvars)
        if given[0] is None or given[1] is None:
            self.fail("missing [field,n] prefix")
        self.set_ring(*given)

    # -- polynomials --

    def poly(self) -> Polynomial:
        """{+|-} term {(+|-) {+|-} term}: the monomial terms add into one map
        of exponent vectors, and a bare variable is the shared x_i."""
        toks, field = self.toks, self.field
        if toks[self.i][:1] == "x" and toks[self.i + 1] not in _JOINS:
            return identity_images(field, self.nvars)[self.mono()[1] - 1]
        terms = {}
        while True:
            negate = False
            while toks[self.i] in _SIGNS:
                negate ^= toks[self.i] == "-"
                self.i += 1
            exps, c = self.term(negate)
            if exps is not None:
                acc = terms.get(exps)
                terms[exps] = c if acc is None else field._padd(acc, c)
            else:  # a polynomial joins the map term by term
                for e, x in c.sorted_terms():
                    acc, x = terms.get(e), x.payload
                    terms[e] = x if acc is None else field._padd(acc, x)
            if toks[self.i] not in _SIGNS:
                return Polynomial.from_exponents(field, self.nvars, terms)

    def term(self, negate: bool):
        """power {'*' power}, refused before a product over the cap, and
        negated when asked.  The powers of numbers, a/b, x_i, t and constant
        groups multiply into one monomial c x^e, returned as (e, c); a
        product with any other power p is returned as (None, p)."""
        field, toks = self.field, self.toks
        c, exps, p = None, [0] * self.nvars, None  # c None: the coefficient 1
        deg, zero = 0, False  # the degree of the product so far
        while True:
            if toks[self.i] in ("(", "-"):
                f, j = self.power(), 0
                fc = f.constant_value().payload if f.is_constant() else None
                fdeg = f.deg()
            else:
                fc, j = self.mono()
                fdeg = 1 if j else 0
                if toks[self.i] == "^":
                    self.i += 1
                    k = self.number()
                    check_degree("power of degree", k,
                                 self.limit if j else self.cap)
                    fdeg, fc = (k, fc) if j else (0, field._ppow(fc, k))
            check_degree("product of degree", deg + fdeg, self.limit)
            if j:
                exps[j - 1] += fdeg
            elif fc is None:
                p = f if p is None else p * f
            else:
                c = fc if c is None else field._pmul(c, fc)
                zero = zero or field._pis_zero(fc)
            deg = 0 if zero else deg + fdeg
            if toks[self.i] != "*":
                break
            self.i += 1
        if p is not None and c is None and not (negate or any(exps)):
            return None, p  # (...) alone: no monomial to multiply by
        c = field._one.payload if c is None else c
        c = field._pneg(c) if negate else c
        if p is None:
            return tuple(exps), c
        return None, p * Polynomial.from_exponents(field, self.nvars,
                                                   {tuple(exps): c})

    def power(self) -> Polynomial:
        """atom ['^' number], refused before a power over the cap."""
        base = self.atom()
        if not self.at("^"):
            return base
        k = self.number()
        check_degree("power of degree", max(base.deg(), 1) * k, self.cap)
        return base ** k

    def atom(self) -> Polynomial:
        tok, n = self.toks[self.i], self.nvars
        if tok in ("(", "-"):
            self.i += 1
            if tok == "-":
                return -self.atom()
            p = self.poly()
            self.expect(")")
            return p
        c, j = self.mono()
        return (identity_images(self.field, n)[j - 1] if j else
                Polynomial.from_exponents(self.field, n, {(0,) * n: c}))

    def mono(self):
        """number ['/' number] | variable | 't', as (c, j) for the monomial
        c x_j, with j = 0 for a constant."""
        tok, field = self.toks[self.i], self.field
        self.i += 1
        if "0" <= tok[:1] <= "9":
            c = field._pfrom_int(self.number(tok))
            if self.at("/"):
                d = field._pfrom_int(self.number())
                if field._pis_zero(d):
                    self.fail("zero denominator", self.i - 1)
                c = field._pdiv(c, d)
            return c, 0
        if tok[:1] == "x" and "0" <= tok[1:2] <= "9":
            index = self.number(tok[1:])
            if not 1 <= index <= self.xvars:
                self.fail(f"variable {tok} out of range 1..{self.xvars}",
                          self.i - 1)
            return field._one.payload, index
        if tok == "t":
            if self.t is None and field.kind != EXTENSION:
                self.fail("t is only valid over extension fields", self.i - 1)
            self.t = self.t or (field.generator().payload, 0)
            return self.t
        self.fail(f"unexpected {tok!r}", self.i - 1)

    def const(self):
        first = self.i
        p = self.poly()
        if not p.is_constant():
            self.fail("expected a constant", first)
        return p.constant_value()

    # -- maps, derivations, factored words --

    def components(self):
        return self.items(self.poly, ",", self.nvars, "components", "()")

    def endo(self):
        return Endo(self.field, self.nvars, self.components())

    def derivation(self) -> TriDerivation:
        self.expect("D")
        return TriDerivation(self.field, self.nvars, self.items(
            self.poly, ",", self.nvars, "derivation images", "()"))

    def word(self):
        if self.at("id") or self.toks[self.i] in (END, EOL):
            return FactoredAuto.identity(self.field, self.nvars)
        return FactoredAuto(self.field, self.nvars,
                            self.items(self.word_factor, "*"))

    def word_factor(self):
        """factor ['^' '-' '1']"""
        factor = self.factor()
        if not self.at("^"):
            return factor, 1
        self.expect("-")
        self.expect("1")
        return factor, -1

    def factor(self):
        name = self.toks[self.i]
        field, n = self.field, self.nvars
        if self.at("L"):
            return Linear(field, n, self.items(self.row, ",", n, "rows", "[]"))
        if name not in ("E", "Tr", "T", "S", "Exp"):
            self.fail(f"unknown factor {self.toks[self.i]!r}")
        self.i += 1
        self.expect("(")
        if name == "E":
            i = self.number()
            self.expect(";")
            factor = Elementary(field, n, i, self.poly())
        elif name == "Tr":
            factor = Translation(field, n, self.items(self.const, ",", n))
        elif name == "T":
            groups = self.items(self.group, ";", n, "groups")
            factor = Triangular(field, n, tuple(a for a, _ in groups),
                                tuple(p for _, p in groups))
        elif name == "S":
            perm = self.items(self.number)
            self.expect(";")
            factor = SignedPermutation(field, n, perm, self.items(self.const))
        else:
            F = self.poly()
            self.expect(";")
            factor = ExpLND(field, n, F, self.derivation())
        self.expect(")")
        return factor

    def row(self):
        return self.items(self.const, ",", self.nvars, "row entries", "[]")

    def group(self):
        """a [',' P]: one row of a triangular factor."""
        a = self.const()
        if self.at(","):
            return a, self.poly()
        return a, Polynomial.zero(self.field, self.nvars)

    def automorphism(self):
        """A component tuple or a factored word, told apart by shape."""
        return self.endo() if self.toks[self.i] == "(" else self.word()


# -- parsing entry points ------------------------------------------------------

def _parse(text, rule, field=None, nvars=None, cap=DEFAULT_DEGREE_CAP,
           ring=False):
    if nvars is not None and not 1 <= nvars <= MAX_NVARS:
        raise ParseError(_RING_SIZE)
    parser = _Parser(text, field, nvars, cap)
    return parser.whole(getattr(parser, rule), ring)


def parse_field(text: str) -> Field:
    return _parse(text, "field_tag")


def parse_polynomial(text: str, field: Field, nvars: int,
                     cap: int | None = DEFAULT_DEGREE_CAP) -> Polynomial:
    return _parse(text, "poly", field, nvars, cap)


def parse_derivation(text: str, field: Field, nvars: int,
                     cap: int | None = DEFAULT_DEGREE_CAP) -> TriDerivation:
    return _parse(text, "derivation", field, nvars, cap)


def parse_endo(text: str, field: Field | None = None,
               nvars: int | None = None,
               cap: int | None = DEFAULT_DEGREE_CAP):
    return _parse(text, "endo", field, nvars, cap, ring=True)


def parse_factored(text: str, field: Field | None = None,
                   nvars: int | None = None,
                   cap: int | None = DEFAULT_DEGREE_CAP):
    return _parse(text, "word", field, nvars, cap, ring=True)


def parse_automorphism(text: str, cap: int | None = DEFAULT_DEGREE_CAP):
    """Parse either an expanded tuple or a factored word, detected by shape.
    The '[field,n]' prefix is required."""
    return _parse(text, "automorphism", cap=cap, ring=True)


# -- polynomial printing -------------------------------------------------------

def poly_to_text(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    field = p.field
    parts = []
    for exps, coeff in p.sorted_terms():
        mono = "*".join(
            (f"x{j+1}" if e == 1 else f"x{j+1}^{e}")
            for j, e in enumerate(exps) if e)
        ctext = element_text(field, coeff.payload)
        parens = "+" in ctext or "*" in ctext
        if not mono:
            body = f"({ctext})" if parens else ctext
        elif ctext in ("1", "-1"):
            body = ctext[:-1] + mono
        else:
            body = f"({ctext})*{mono}" if parens else f"{ctext}*{mono}"
        parts.append(body if not parts or body[0] == "-" else "+" + body)
    return "".join(parts)


# -- endomorphisms and derivations ---------------------------------------------

def endo_to_text(phi) -> str:
    return f"[{phi.field.tag()},{phi.nvars}] {components_text(phi)}"


def components_text(phi) -> str:
    return "(" + ", ".join(poly_to_text(c) for c in phi.components) + ")"


def derivation_to_text(D: TriDerivation) -> str:
    return "D(" + ", ".join(poly_to_text(q) for q in D.images) + ")"


# -- factored automorphisms ---------------------------------------------------------

def factor_to_text(factor) -> str:
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
        return "T(" + "; ".join(
            str(a) if p.is_zero() else f"{a}, {poly_to_text(p)}"
            for a, p in zip(factor.scalars, factor.polys)) + ")"
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
    return " * ".join(factor_to_text(factor) + ("" if exp == 1 else "^-1")
                      for factor, exp in word.factors)
