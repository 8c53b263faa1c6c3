"""The grammar of docs/formats.md read by one recursive-descent `_Parser`
over one token stream, one rule per production (a subclass in
`polyauto.certificates` adds the file's).  A polynomial is read into one
term map, a monomial term as one packed key, the sum of the increments of
`poly.variable_keys`, and one coefficient; only a factor that is not
constant in parentheses or after a unary minus multiplies polynomials.  A
finite field's tag written as a live handle's tag() is looked up, not read
again.  A syntax error is a ParseError at a line and
column; a power or product over the cap is refused first.
"""

from __future__ import annotations

import re

from .errors import (ArityError, NotPrime, ParseError, ReducibleModulus,
                     UnsupportedField)
from .fields import _TAGS, EXTENSION, Field, FieldElement
from .maps import (Elementary, Endo, ExpLND, FactoredAuto, Linear,
                   SignedPermutation, Translation, Triangular, TriDerivation)
from .poly import (MAX_NVARS, Polynomial, cap_limit, check_degree,
                   identity_images, variable_keys)

# -- the token stream --------------------------------------------------------

_TOKEN_RE = re.compile(r"([0-9]+|x[0-9]+|[A-Za-z]+|\S)")
# and an EOL token, the last newline of the whitespace after a token
_LINE_TOKEN_RE = re.compile(r"([0-9]+|x[0-9]+|[A-Za-z]+|\S|\n(?![^\S\n]*\n))")
END, EOL = "end of input", "\n"
_SIGNS = ("+", "-")
_JOINS = ("+", "-", "*", "^")  # what continues a term or a sum
_RING_SIZE = f"a ring needs 1 to {MAX_NVARS} variables"


def _name(tok: str) -> str:
    return "'end of line'" if tok == EOL else repr(tok)


class _Parser:
    """The tokens of one text (digits, x<digits>, letters or one other
    character, then "end of input"), the whitespace before each, and the
    grammar rules that read them, in a ring that is given or set by a
    '[field,n]' prefix.  A subclass whose `tokens` are _LINE_TOKEN_RE reads
    a line-oriented text: each of its lines then ends in an EOL token."""

    tokens = _TOKEN_RE

    def __init__(self, text: str, field: Field | None, nvars: int | None,
                 cap: int | None):
        self.text, self.i = text, 0
        # the one bound of every power and product: min(cap, MAX_DEGREE)
        self.limit = cap_limit(cap)
        # whitespace, token, ..., whitespace of the text and a newline: in
        # lines, an EOL ends every line, the last too, and the leading space
        parts = self.tokens.split(text + EOL)
        self.toks, self.gaps = parts[1::2], parts[::2]
        self.toks.append(END)  # its gap is the whitespace after the last token
        self.set_ring(field, nvars)

    def set_ring(self, field, nvars):
        self.field, self.nvars, self.xvars = field, nvars, nvars
        self.t = None  # t as (payload, j), see mono
        self.keys = variable_keys(nvars or 0)  # the key of x_j at j

    def fail(self, message: str, index: int | None = None,
             error=ParseError):
        """Raise at the token `index` (default: the next one): at the length
        of the text before it, less an EOL's gap, and at most the text's."""
        index = self.i if index is None else index
        text = self.text
        offset = min(len(text), sum(map(len, self.toks[:index])) + sum(map(
            len, self.gaps[:index + (self.toks[index] != EOL)])))
        line = text.count("\n", 0, offset) + 1
        raise error(message, line, offset - text.rfind("\n", 0, offset))

    def at(self, tok: str) -> bool:
        """Take the next token if it is `tok`."""
        hit = self.toks[self.i] == tok
        self.i += hit
        return hit

    def expect(self, tok: str):
        found = self.toks[self.i]
        if found != tok:
            self.fail(f"expected {_name(tok)}, found {_name(found)}")
        self.i += 1

    def number(self, digits: str | None = None) -> int:
        """Take a number token, or read the digits of the token just taken."""
        if digits is None:
            digits = self.toks[self.i]
            if not "0" <= digits[:1] <= "9":
                self.fail(f"expected a number, found {_name(digits)}")
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
            self.fail(f"unexpected {_name(self.toks[self.i])} after the input")
        return value

    # -- fields and the ring --

    def field_tag(self) -> Field:
        if self.at("Q"):
            return Field.rationals()
        toks, gaps, first = self.toks, self.gaps, self.i
        if not self.at("F"):
            self.fail(f"bad field tag {_name(toks[first])}")
        end = first + 1  # a live handle's whitespace-free tag(), not read on
        while not gaps[end] and (toks[end] in "/t^+*" or toks[end].isdigit()):
            end += 1
        field = _TAGS.get("".join(toks[first:end]))
        if field is not None and toks[end] not in _JOINS + ("/",):
            if field.kind == EXTENSION:  # as its modulus t^s + ... would be
                check_degree("power of degree", field.s, self.limit)
            self.i = end
            return field
        q = self.number()
        from . import finite  # read only with a finite field's tag
        try:
            finite.check_order(q)
            if not self.at("/"):
                return finite.of_order(q)
            # the modulus: a polynomial in the variable t over F_p, degree <= s
            p, s = finite.prime_power(q)
            fp = finite.prime(p)
            self.set_ring(fp, 1)
            self.xvars, self.t = 0, (fp.one.payload, 1)
            start, m = self.i, self.poly()
            if m.deg() > s:
                self.fail(f"modulus degree exceeds {s}", start)
            return finite.extension(
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
        of keys; a bare variable is the shared x_i if the cap admits it."""
        toks, field, i = self.toks, self.field, self.i
        if toks[i][:1] == "x" and toks[i + 1] not in _JOINS and self.limit > 0:
            return identity_images(field, self.nvars)[self.mono()[1] - 1]
        terms = {}
        while True:
            negate = False
            while toks[self.i] in _SIGNS:
                negate ^= toks[self.i] == "-"
                self.i += 1
            for key, c in self.term(negate):
                acc = terms.get(key)
                terms[key] = c if acc is None else field._padd(acc, c)
            if toks[self.i] not in _SIGNS:
                return Polynomial.from_keys(field, self.nvars, terms)

    def term(self, negate: bool):
        """power {'*' power}, refused before a product over the cap, and
        negated when asked.  The powers of numbers, a/b, x_i, t and constant
        groups multiply into one monomial c x^e, returned as ((key, c),); a
        product p with any other powers, as p's (key, c) pairs."""
        field, toks, keys = self.field, self.toks, self.keys
        c, key, p = None, 0, None  # c None: the coefficient 1
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
                    check_degree("power of degree", k, self.limit)
                    fdeg, fc = (k, fc) if j else (0, field._ppow(fc, k))
            check_degree("product of degree", deg + fdeg, self.limit)
            if j:  # a field of the key may carry only once c is zero
                key += fdeg * keys[j]
            elif fc is None:
                p = f if p is None else p * f
            else:
                c = fc if c is None else field._pmul(c, fc)
                zero = zero or field._pis_zero(fc)
            deg = 0 if zero else deg + fdeg
            if toks[self.i] != "*":
                break
            self.i += 1
        if p is None or c is not None or negate or key:  # else (...) alone
            c = field.one.payload if c is None else c
            c = field._pneg(c) if negate else c
            if p is None:
                return ((key, c),)
            p *= Polynomial.from_keys(field, self.nvars, {key: c})
        return p.terms.items()

    def power(self) -> Polynomial:
        """atom ['^' number], refused before a power over the cap."""
        base = self.atom()
        if not self.at("^"):
            return base
        k = self.number()
        check_degree("power of degree", max(base.deg(), 1) * k, self.limit)
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
                Polynomial.from_keys(self.field, n, {0: c}))

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
            return field.one.payload, index
        if tok == "t":
            if self.t is None and field.kind != EXTENSION:
                self.fail("t is only valid over extension fields", self.i - 1)
            self.t = self.t or (field.generator().payload, 0)
            return self.t
        self.fail(f"unexpected {_name(tok)}", self.i - 1)

    def const(self):
        first, toks = self.i, self.toks
        # one number or t, when the cap lets a constant (degree 0) through
        if (toks[first] == "t" or toks[first].isdigit()) and self.limit >= 0 \
                and toks[first + 1] not in _JOINS + ("/",):
            return FieldElement(self.field, self.mono()[0])
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
            self.fail(f"unknown factor {_name(name)}")
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
