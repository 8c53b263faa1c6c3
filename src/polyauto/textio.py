"""Text formats: field tags, polynomials, expanded and factored
automorphisms, derivations.

Printers emit a canonical form (graded-lex term order, fixed spacing) so
that serialized objects are byte-stable.  Parsing is one recursive-descent
`_Parser` over one token stream, one rule per production of the grammar in
docs/formats.md (the rules of the certificate file are added by a subclass
in `polyauto.certificates`); every syntax error is a ParseError at a line
and column, and a power or product over the degree cap is refused before it
is expanded.
"""

from __future__ import annotations

import re

from .derivations import TriDerivation
from .errors import (ArityError, NotPrime, ParseError, ReducibleModulus,
                     UnsupportedField)
from .fields import (EXTENSION, Field, check_order, element_text,
                     prime_power)
from .maps import (Elementary, Endo, ExpLND, FactoredAuto, Linear,
                   SignedPermutation, Translation, Triangular)
from .poly import (DEFAULT_DEGREE_CAP, MAX_NVARS, Polynomial, check_degree,
                   identity_images)

# -- the token stream --------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([0-9]+|x[0-9]+|[A-Za-z]+|\S)")
END, EOL = "end of input", "end of line"
_RING_SIZE = f"a ring needs 1 to {MAX_NVARS} variables"


class _Parser:
    """The tokens of one text (digits, x<digits>, letters or one other
    character, then "end of input") and the grammar rules that read them, in
    a ring that is given or set by a '[field,n]' prefix.  A subclass that
    sets `lines` reads a line-oriented text: each of its lines then ends in
    an "end of line" token."""

    lines = False

    def __init__(self, text: str, field: Field | None, nvars: int | None,
                 cap: int | None):
        self.text, self.cap, self.i = text, cap, 0
        toks, starts = self.toks, self.starts = [], []  # tokens, offsets
        for m in _TOKEN_RE.finditer(text):
            if self.lines and toks and "\n" in m[0]:
                toks.append(EOL)
                starts.append(m.start())
            toks.append(m[1])
            starts.append(m.start(1))
        if self.lines and toks:
            starts.append(starts[-1] + len(toks[-1]))
            toks.append(EOL)
        toks.append(END)
        starts.append(len(text))
        self.set_ring(field, nvars)

    def set_ring(self, field, nvars):
        self.field, self.nvars, self.xvars = field, nvars, nvars
        self.t = None

    def fail(self, message: str, index: int | None = None,
             error=ParseError):
        """Raise at the token `index` (default: the next one)."""
        offset = self.starts[self.i if index is None else index]
        line = self.text.count("\n", 0, offset) + 1
        raise error(message, line, offset - self.text.rfind("\n", 0, offset))

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
            self.xvars, self.t = 0, Polynomial.variable(fp, 1, 1)
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
        """{+|-} term {(+|-) {+|-} term}; the first term is taken as it is."""
        p = None
        while True:
            negate = False
            while self.toks[self.i] in ("+", "-"):
                negate ^= self.toks[self.i] == "-"
                self.i += 1
            q = -self.term() if negate else self.term()
            p = q if p is None else p + q
            if self.toks[self.i] not in ("+", "-"):
                return p

    def term(self) -> Polynomial:
        """power {'*' power}, refused before a product over the cap."""
        p = self.power()
        while self.at("*"):
            q = self.power()
            self.check_cap("product", p.deg() + q.deg())
            p = p * q
        return p

    def power(self) -> Polynomial:
        """atom ['^' number], refused before a power over the cap."""
        base = self.atom()
        if not self.at("^"):
            return base
        k = self.number()
        self.check_cap("power", max(base.deg(), 1) * k)
        return base ** k

    def check_cap(self, what: str, degree: int):
        if self.cap is not None:
            check_degree(f"{what} of degree", degree, self.cap)

    def atom(self) -> Polynomial:
        tok = self.toks[self.i]
        field, nvars = self.field, self.nvars
        if "0" <= tok[:1] <= "9":
            c = field.from_int(self.number())
            if self.at("/"):
                d = field.from_int(self.number())
                if d.is_zero():
                    self.fail("zero denominator", self.i - 1)
                c = c / d
            return Polynomial.constant(field, nvars, c)
        self.i += 1
        if tok[:1] == "x" and "0" <= tok[1:2] <= "9":
            index = self.number(tok[1:])
            if not 1 <= index <= self.xvars:
                self.fail(f"variable {tok} out of range 1..{self.xvars}",
                          self.i - 1)
            return identity_images(field, nvars)[index - 1]
        if tok == "t":
            if self.t is None:
                if field.kind != EXTENSION:
                    self.fail("t is only valid over extension fields",
                              self.i - 1)
                self.t = Polynomial.constant(field, nvars, field.generator())
            return self.t
        if tok == "(":
            p = self.poly()
            self.expect(")")
            return p
        if tok == "-":
            return -self.atom()
        self.fail(f"unexpected {self.toks[self.i - 1]!r}", self.i - 1)

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
        if mono:
            if ctext == "1":
                body = mono
            elif ctext == "-1":
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
