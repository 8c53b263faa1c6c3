"""The independent verifier of normal-closure membership certificates, and
the reader of their text (.nct); the records themselves are in
polyauto.maps, and their writer is textio.serialize_certificate.

Steps carry both the claimed value and its claimed inverse; the verifier
checks that VALUE composed with INV is the identity and then never needs to
invert an arbitrary expanded map when an item uses exponent -1.  One side
suffices: if F o G = id, the endomorphism that G induces on the Noetherian
ring k[x_1..x_n] is surjective, hence injective, so G o F = id too (van den
Essen, Polynomial Automorphisms and the Jacobian Conjecture, 2000).

Seeds and conjugators are special when their words' determinants are 1.  A
word's Jacobian determinant is the product of its factors' constant
determinants (FactoredAuto.det), so no Jacobian of an expanded map is taken.

This module deliberately depends only on the algebra core (fields, poly,
maps, grammar) and the dependency-free record base.  None of the
construction engines (slin, cotame, lnd) nor their tools (autos) are
imported here, so verification cannot accidentally share logic with
generation.
"""

from __future__ import annotations

import re
from operator import add

from .errors import DegreeCapExceeded, InvalidFactor
from .grammar import _LINE_TOKEN_RE, EOL, _name, _Parser
from .maps import (FORMAT_VERSION, KIND_COTAME, KIND_SLIN, Certificate, Endo,
                   Seed, Step, WordItem, affine_parts, compose,
                   elementary_parts, start_product)
from .poly import DEFAULT_DEGREE_CAP, MAX_NVARS, cap_limit
from .record import Record

__all__ = [
    "CheckRecord", "VerificationReport", "verify_certificate",
    "parse_certificate", "serialize_certificate",
]


def __getattr__(name: str):  # perfbench's name (ROADMAP direction 18)
    if name == "serialize_certificate":
        from .textio import serialize_certificate
        return serialize_certificate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CheckRecord(Record):
    __slots__ = ("label", "check", "ok", "message")

    def __init__(self, label: str, check: str, ok: bool, message: str = ""):
        self.label = label
        self.check = check
        self.ok = ok
        self.message = message


class VerificationReport(Record):
    __slots__ = ("verdict", "records")

    def __init__(self, verdict: str, records: list[CheckRecord]):
        self.verdict = verdict  # PASS | FAIL | INDETERMINATE
        self.records = records

    def format(self) -> str:
        lines = []
        for r in self.records:
            status = "ok" if r.ok else "FAIL"
            msg = f" {r.message}" if r.message else ""
            lines.append(f"{status:4} {r.label:12} {r.check}{msg}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def verify_certificate(cert: Certificate,
                       cap: int | None = DEFAULT_DEGREE_CAP) -> VerificationReport:
    """Re-check every claim in the certificate by exact expansion.

    Uses only word expansion and determinants, compose, affine_parts and
    elementary_parts on the stored data; the word engines that produced
    the certificate play no part here.  A step c_1*...*c_k = V is decided
    as c_1*...*c_j = V*c_k^-1*...*c_{j+1}^-1 for the j that _split_point
    picks (see docs/formats.md).
    """
    records: list[CheckRecord] = []
    indeterminate = False
    labels = set()
    ident = Endo.identity(cert.field, cert.nvars)
    limit = cap_limit(cap)
    # label -> [value, inverse, inverse exact, seed word]: a seed's inverse
    # is None until a check reads it, and a step's INV is exact when it
    # passed inverse-pair
    env: dict[str, list] = {}

    def check(label, name, ok, why):
        """Record a check; its message `why` is kept only when it fails."""
        records.append(CheckRecord(label, name, ok, "" if ok else why))
        return ok

    def undecided(label, name, exc):
        """Record a check the cap stopped; the verdict is INDETERMINATE."""
        nonlocal indeterminate
        indeterminate = True
        records.append(CheckRecord(label, name, False, str(exc)))

    def fresh(label):
        """Whether no earlier seed or step has `label`; a repeat fails."""
        if label in labels:
            return check(label, "unique-label", False, "duplicate label")
        labels.add(label)
        return True

    def conjugate(item, side):
        """g^-1 * core * g for the item's core on `side` (0 its base's
        value, 1 its inverse), composed as the word is read."""
        entry, _, ginv, g, _ = item
        core = entry[side]
        return core if g is None else compose(compose(ginv, core, cap=cap),
                                              g, cap=cap)

    for seed in cert.seeds:
        label = seed.label
        if not fresh(label):
            continue
        try:
            value = seed.word.expand(cap=cap)
        except DegreeCapExceeded as exc:
            undecided(label, "seed-expansion", exc)
            continue
        env[label] = [value, None, True, seed.word]
        check(label, "seed-special", seed.word.det().is_one(),
              "seed Jacobian determinant != 1")
        if cert.kind == KIND_SLIN:
            parts = affine_parts(value)
            check(label, "seed-linear", parts is not None and all(
                b.is_zero() for b in parts[1]), "SLIN seed must be linear")

    for step in cert.steps:
        label = step.label
        if not fresh(label):
            continue
        try:
            pair_ok = compose(step.value, step.inverse, cap=cap) == ident
        except DegreeCapExceeded as exc:
            undecided(label, "inverse-pair", exc)
            continue
        check(label, "inverse-pair", pair_ok,
              "stated inverse is not an inverse")
        # per item: its entry, the side (0 value, 1 inverse) of its core, its
        # conjugator's inverse and expansion (None, None without one), and
        # the degree bound d_1*...*d_i of the fold through it
        items, left = [], 1
        for idx, item in enumerate(step.items):
            entry = env.get(item.base)
            if entry is None:
                check(label, f"item{idx}-base", False,
                      f"unknown or later base {item.base!r}")
                break
            side, conj = int(item.exponent != 1), item.conjugator
            ginv = g = None
            try:
                if side and entry[1] is None:
                    entry[1] = entry[3].inverse().expand(cap=cap)
                if conj is not None and conj.factors:
                    g = conj.expand(cap=cap)
                    if not check(label, f"item{idx}-conjugator-special",
                                 conj.det().is_one(),
                                 "conjugator Jacobian determinant != 1"):
                        break
                    ginv = conj.inverse().expand(cap=cap)
                left *= (entry[side].deg() if g is None
                         else ginv.deg() * entry[side].deg() * g.deg())
                items.append((entry, side, ginv, g, left))
            except DegreeCapExceeded as exc:
                undecided(label, f"item{idx}-expansion", exc)
                break
        else:  # every item was read
            j, bound = (_split_point(items, step.value) if len(items) > 1
                        else (len(items), 0))
            if bound > limit:
                j = len(items)  # the fold, which the cap stops as any fold
            try:
                product = ident
                for idx in range(j):
                    piece = conjugate(items[idx], items[idx][1])
                    product = (compose(product, piece, cap=cap) if idx
                               else start_product(piece, cap))
                other = step.value
                for idx in range(len(items) - 1, j - 1, -1):
                    other = compose(
                        other, conjugate(items[idx], 1 - items[idx][1]),
                        cap=cap)
            except DegreeCapExceeded as exc:
                undecided(label, f"item{idx}-expansion", exc)
                continue
            check(label, "word-equals-value", product == other,
                  "word expansion differs from claimed value")
            env[label] = [step.value, step.inverse, pair_ok, None]

    # terminal checks
    if cert.terminal not in env or not any(
            s.label == cert.terminal for s in cert.steps):
        check(cert.terminal or "<missing>", "terminal-exists", False,
              "terminal must reference a step")
    else:
        check(cert.terminal, "terminal-elementary",
              elementary_parts(env[cert.terminal][0]) is not None,
              "terminal is not a nontrivial elementary map")

    verdict = ("INDETERMINATE" if indeterminate else
               "PASS" if all(r.ok for r in records) else "FAIL")
    return VerificationReport(verdict, records)


def _split_point(items, value: Endo) -> tuple[int, int]:
    """(j, bound): the j >= 1 items kept on the left of a step of value V
    that minimises max(d_1*...*d_j, deg V * d'_{j+1}*...*d'_k), d'_i being
    d_i with the core's inverse, which only an exact inverse already read
    lets move.  Ties keep the larger j, the fold being j = k."""
    k, right = len(items), value.deg()
    j, best = k, max(items[-1][4], right)
    for i in range(k - 1, 0, -1):
        entry, side, ginv, g, _ = items[i]
        inverse = entry[1 - side]
        if not entry[2] or inverse is None:
            break
        right *= (inverse.deg() if g is None
                  else ginv.deg() * inverse.deg() * g.deg())
        if right >= best:
            break
        if items[i - 1][4] < best:
            j, best = i, max(items[i - 1][4], right)
    return j, best


# -- parsing -----------------------------------------------------------------

# the directives that a file holds once, in the order that it holds them
_ONCE = ("NCT", "FIELD", "VARS", "KIND", "TERMINAL", "END")
_LABEL_RE = re.compile(r"[A-Za-z0-9_.-]+")


class _CertificateParser(_Parser):
    """The .nct rules of the grammar in docs/formats.md, read over one token
    stream of the whole file."""

    tokens = _LINE_TOKEN_RE

    def certificate(self) -> Certificate:
        self.at(EOL)  # the whitespace before the first line
        self.directive("NCT")
        if not self.at(FORMAT_VERSION):
            self.fail(f"unsupported format version {_name(self.toks[self.i])}")
        self.expect(EOL)
        self.directive("FIELD")
        field = self.field_tag()
        self.expect(EOL)
        first = self.i
        self.directive("VARS")
        nvars = self.number()
        if not 1 <= nvars <= MAX_NVARS:
            self.fail(f"VARS must be between 1 and {MAX_NVARS}", first)
        self.expect(EOL)
        self.set_ring(field, nvars)
        self.directive("KIND")
        kind = self.kind()
        self.expect(EOL)
        meta: dict[str, str] = {}
        while self.at("META"):
            first = self.i
            key = self.label()
            if key in meta:
                self.fail(f"repeated META key {key!r}", first)
            meta[key] = self.line_text()
            self.expect(EOL)
        seeds = []
        while self.at("SEED"):
            seeds.append(Seed(self.label(), self.word()))
            self.expect(EOL)
        steps = []
        while self.toks[self.i] == "STEP":
            steps.append(self.step())
        self.directive("TERMINAL")
        terminal = self.label()
        cite = self.line_text() if self.at("CITE") else ""
        self.expect(EOL)
        self.directive("END")
        self.expect(EOL)
        return Certificate(field, nvars, kind, seeds, steps, terminal, cite,
                           meta)

    def directive(self, name: str):
        """Take `name`, a directive that the file holds once; one of them
        read a second time is named as repeated."""
        tok = self.toks[self.i]
        if tok != name and tok in _ONCE[:_ONCE.index(name)]:
            self.fail(f"repeated {tok} line")
        self.expect(name)

    def kind(self) -> str:
        first = self.i
        kind = self.label()
        if kind not in (KIND_COTAME, KIND_SLIN):
            self.fail(f"unknown kind {kind!r}", first)
        return kind

    def step(self) -> Step:
        self.expect("STEP")
        label = self.label()
        note = self.line_text() if self.at("#") else ""
        self.expect(EOL)
        items = []
        while self.toks[self.i] == "ITEM":
            items.append(self.item())
        self.expect("VALUE")
        value = self.endo()
        self.expect(EOL)
        self.expect("INV")
        inverse = self.endo()
        self.expect(EOL)
        return Step(label, tuple(items), value, inverse, note)

    def item(self) -> WordItem:
        self.expect("ITEM")
        self.expect("BASE")
        base = self.label()
        self.expect("EXP")
        exponent = {"+": 1, "-": -1}.get(self.toks[self.i])
        if exponent is None or self.toks[self.i + 1] != "1":
            self.fail("EXP must be +1 or -1")
        self.i += 2
        conjugator = self.word() if self.at("CONJ") else None
        self.expect(EOL)
        return WordItem(conjugator, base, exponent)

    def label(self) -> str:
        """A run of letters, digits, '_', '.' and '-', in tokens with no gap."""
        toks, gaps, first = self.toks, self.gaps, self.i
        if not _LABEL_RE.fullmatch(toks[first]):
            self.fail(f"expected a label, found {_name(toks[first])}")
        self.i += 1
        while not gaps[self.i] and _LABEL_RE.fullmatch(toks[self.i]):
            self.i += 1
        return "".join(toks[first:self.i])

    def line_text(self) -> str:
        """The rest of the line, as written."""
        first, end = self.i, self.toks.index(EOL, self.i)
        self.i = end
        return "".join(map(add, self.gaps[first:end],
                           self.toks[first:end]))[len(self.gaps[first]):]

    def factor(self):
        """A factor whose data is invalid is a parse error at the factor."""
        first = self.i
        try:
            return super().factor()
        except InvalidFactor as exc:
            self.fail(str(exc), first)


def parse_certificate(text: str,
                      cap: int | None = DEFAULT_DEGREE_CAP) -> Certificate:
    """Read a .nct text.  Malformed text raises ParseError at its line and
    column; a power over `cap` raises DegreeCapExceeded before expanding."""
    parser = _CertificateParser(text, None, None, cap)
    return parser.whole(parser.certificate)
