"""Normal-closure membership certificates and their independent verifier.

A certificate names a field and arity, a set of seed automorphisms (given as
factored words, so they are invertible by construction), and a chain of
steps.  Each step is a word whose items are conjugated powers of seeds or of
earlier steps:

    item = conjugator^{-1} * base^{exponent} * conjugator

and the step claims that the product of its items equals a stated value.
The terminal step must claim a nontrivial elementary automorphism.

Steps carry both the claimed value and its claimed inverse; the verifier
checks the pair composes to the identity both ways and then never needs to
invert an arbitrary expanded map when an item uses exponent -1.

This module deliberately depends only on the algebra core (fields, poly,
autos, textio).  None of the construction engines (slin, cotame, lnd) are
imported here, so verification cannot accidentally share logic with
generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .autos import Endo, FactoredAuto, classify, compose, jacobian_det
from .errors import DegreeCapExceeded, ParseError
from .fields import Field
from .poly import DEFAULT_DEGREE_CAP, Polynomial
from .textio import (components_text, factored_to_text, parse_components,
                     parse_factored, parse_field)

KIND_COTAME = "normal-cotame"
KIND_SLIN = "slin-membership"


@dataclass(frozen=True)
class Seed:
    label: str
    word: FactoredAuto


@dataclass(frozen=True)
class WordItem:
    conjugator: Optional[FactoredAuto]  # None means the identity
    base: str
    exponent: int


@dataclass(frozen=True)
class Step:
    label: str
    items: Tuple[WordItem, ...]
    value: Endo
    inverse: Endo
    note: str = ""


@dataclass
class Certificate:
    field: Field
    nvars: int
    kind: str
    seeds: List[Seed]
    steps: List[Step]
    terminal: str
    terminal_cite: str = ""
    meta: Dict[str, str] = dc_field(default_factory=dict)


@dataclass
class CheckRecord:
    label: str
    check: str
    ok: bool
    message: str = ""


@dataclass
class VerificationReport:
    verdict: str  # PASS | FAIL | INDETERMINATE
    records: List[CheckRecord]

    def format(self) -> str:
        lines = []
        for r in self.records:
            status = "ok" if r.ok else "FAIL"
            msg = f" {r.message}" if r.message else ""
            lines.append(f"{status:4} {r.label:12} {r.check}{msg}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def verify_certificate(cert: Certificate,
                       cap: Optional[int] = DEFAULT_DEGREE_CAP) -> VerificationReport:
    """Re-check every claim in the certificate by exact expansion.

    Uses only compose/invert/jacobian_det/classify on the stored data; the
    word engines that produced the certificate play no part here.
    """
    records: List[CheckRecord] = []
    indeterminate = False
    one = Polynomial.one(cert.field, cert.nvars)
    ident = Endo.identity(cert.field, cert.nvars)
    env: Dict[str, Tuple[Endo, Endo]] = {}

    def record(label, check, ok, message=""):
        records.append(CheckRecord(label, check, ok, message))
        return ok

    ok_all = True
    labels = set()
    for seed in cert.seeds:
        if seed.label in labels:
            ok_all = record(seed.label, "unique-label", False,
                            "duplicate label") and ok_all
            continue
        labels.add(seed.label)
        try:
            value = seed.word.expand(cap=cap)
            inverse = seed.word.inverse().expand(cap=cap)
        except DegreeCapExceeded as exc:
            indeterminate = True
            record(seed.label, "seed-expansion", False, str(exc))
            continue
        env[seed.label] = (value, inverse)
        special = jacobian_det(value) == one
        ok_all = record(seed.label, "seed-special", special,
                        "" if special else "seed Jacobian determinant != 1") and ok_all
        if cert.kind == KIND_SLIN:
            lin = classify(value).linear
            ok_all = record(seed.label, "seed-linear", lin,
                            "" if lin else "SLIN seed must be linear") and ok_all

    for step in cert.steps:
        label = step.label
        if label in labels:
            ok_all = record(label, "unique-label", False, "duplicate label") and ok_all
            continue
        labels.add(label)
        try:
            pair_ok = (compose(step.value, step.inverse, cap=cap) == ident
                       and compose(step.inverse, step.value, cap=cap) == ident)
        except DegreeCapExceeded as exc:
            indeterminate = True
            record(label, "inverse-pair", False, str(exc))
            continue
        ok_all = record(label, "inverse-pair", pair_ok,
                        "" if pair_ok else "stated inverse is not an inverse") and ok_all
        product = ident
        failed = False
        for idx, item in enumerate(step.items):
            if item.base not in env:
                ok_all = record(label, f"item{idx}-base", False,
                                f"unknown or later base {item.base!r}") and ok_all
                failed = True
                break
            base_val, base_inv = env[item.base]
            core = base_val if item.exponent == 1 else base_inv
            try:
                if item.conjugator is not None and item.conjugator.factors:
                    g = item.conjugator.expand(cap=cap)
                    gdet = jacobian_det(g)
                    ok_all = record(
                        label, f"item{idx}-conjugator-special", gdet == one,
                        "" if gdet == one else
                        "conjugator Jacobian determinant != 1") and ok_all
                    if gdet != one:
                        failed = True
                        break
                    ginv = item.conjugator.inverse().expand(cap=cap)
                    core = compose(compose(ginv, core, cap=cap), g, cap=cap)
                product = compose(product, core, cap=cap)
            except DegreeCapExceeded as exc:
                indeterminate = True
                record(label, f"item{idx}-expansion", False, str(exc))
                failed = True
                break
        if failed:
            continue
        match = product == step.value
        ok_all = record(label, "word-equals-value", match,
                        "" if match else "word expansion differs from claimed value") and ok_all
        env[label] = (step.value, step.inverse)

    # terminal checks
    if cert.terminal not in env or not any(
            s.label == cert.terminal for s in cert.steps):
        ok_all = record(cert.terminal or "<missing>", "terminal-exists",
                        False, "terminal must reference a step") and ok_all
    else:
        term_val = env[cert.terminal][0]
        flags = classify(term_val)
        elem_ok = flags.elementary and not flags.identity
        ok_all = record(cert.terminal, "terminal-elementary", elem_ok,
                        "" if elem_ok else
                        "terminal is not a nontrivial elementary map") and ok_all

    if indeterminate:
        verdict = "INDETERMINATE"
    elif ok_all:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return VerificationReport(verdict, records)


# -- serialization -------------------------------------------------------------

FORMAT_VERSION = "1"
HEADER_DIRECTIVES = ("NCT", "FIELD", "VARS", "KIND")  # each exactly once


def serialize_certificate(cert: Certificate) -> str:
    """Canonical text form (.nct).  Byte-stable for equal certificates."""
    lines = [f"NCT {FORMAT_VERSION}"]
    lines.append(f"FIELD {cert.field.tag()}")
    lines.append(f"VARS {cert.nvars}")
    lines.append(f"KIND {cert.kind}")
    for key in sorted(cert.meta):
        lines.append(f"META {key} {cert.meta[key]}")
    for seed in cert.seeds:
        lines.append(f"SEED {seed.label} {factored_to_text(seed.word)}")
    for step in cert.steps:
        lines.append(f"STEP {step.label}" + (f" # {step.note}" if step.note else ""))
        for item in step.items:
            base = f"  ITEM BASE {item.base} EXP {item.exponent:+d}"
            if item.conjugator is not None and item.conjugator.factors:
                base += f" CONJ {factored_to_text(item.conjugator)}"
            lines.append(base)
        lines.append(f"  VALUE {components_text(step.value)}")
        lines.append(f"  INV {components_text(step.inverse)}")
    cite = f" CITE {cert.terminal_cite}" if cert.terminal_cite else ""
    lines.append(f"TERMINAL {cert.terminal}{cite}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    from .autos import Endo
    field = None
    nvars = None
    kind = None
    meta: Dict[str, str] = {}
    seeds: List[Seed] = []
    steps: List[Step] = []
    terminal = None
    cite = ""
    cur_label = None
    cur_note = ""
    cur_items: List[WordItem] = []
    cur_value = None
    cur_inverse = None
    headers = set()
    saw_end = False

    def flush_step(lineno):
        nonlocal cur_label, cur_items, cur_value, cur_inverse, cur_note
        if cur_label is None:
            return
        if cur_value is None or cur_inverse is None:
            raise ParseError(f"step {cur_label} missing VALUE or INV", lineno, 1)
        steps.append(Step(cur_label, tuple(cur_items), cur_value,
                          cur_inverse, cur_note))
        cur_label = None
        cur_note = ""
        cur_items = []
        cur_value = None
        cur_inverse = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head in HEADER_DIRECTIVES:
                if head in headers:
                    raise ParseError(f"repeated {head} line", lineno, 1)
                headers.add(head)
            if head == "NCT":
                if rest != FORMAT_VERSION:
                    raise ParseError(
                        f"unsupported format version {rest!r}", lineno, 1)
            elif head == "FIELD":
                field = parse_field(rest)
            elif head == "VARS":
                nvars = int(rest)
            elif head == "KIND":
                if rest not in (KIND_COTAME, KIND_SLIN):
                    raise ParseError(f"unknown kind {rest!r}", lineno, 1)
                kind = rest
            elif head == "META":
                key, _, val = rest.partition(" ")
                meta[key] = val.strip()
            elif head == "SEED":
                flush_step(lineno)
                label, _, wordtext = rest.partition(" ")
                if field is None or nvars is None:
                    raise ParseError("SEED before FIELD/VARS", lineno, 1)
                seeds.append(Seed(label, parse_factored(
                    wordtext, field=field, nvars=nvars)))
            elif head == "STEP":
                flush_step(lineno)
                label, _, notetext = rest.partition("#")
                cur_label = label.strip()
                cur_note = notetext.strip()
            elif head == "ITEM":
                if cur_label is None:
                    raise ParseError("ITEM outside a STEP", lineno, 1)
                m_rest = rest
                if not m_rest.startswith("BASE "):
                    raise ParseError("ITEM must start with BASE", lineno, 1)
                m_rest = m_rest[5:]
                base, _, m_rest = m_rest.partition(" ")
                m_rest = m_rest.strip()
                if not m_rest.startswith("EXP "):
                    raise ParseError("ITEM missing EXP", lineno, 1)
                m_rest = m_rest[4:]
                exp_text, _, conj_text = m_rest.partition(" CONJ ")
                exponent = int(exp_text.strip())
                if exponent not in (1, -1):
                    raise ParseError("EXP must be +1 or -1", lineno, 1)
                conj = None
                if conj_text.strip():
                    conj = parse_factored(conj_text, field=field, nvars=nvars)
                cur_items.append(WordItem(conj, base, exponent))
            elif head == "VALUE":
                if cur_label is None:
                    raise ParseError("VALUE outside a STEP", lineno, 1)
                cur_value = Endo(field, nvars,
                                 parse_components(rest, field, nvars))
            elif head == "INV":
                if cur_label is None:
                    raise ParseError("INV outside a STEP", lineno, 1)
                cur_inverse = Endo(field, nvars,
                                   parse_components(rest, field, nvars))
            elif head == "TERMINAL":
                flush_step(lineno)
                term_label, _, cite_part = rest.partition(" CITE ")
                terminal = term_label.strip()
                cite = cite_part.strip()
            elif head == "END":
                flush_step(lineno)
                saw_end = True
            else:
                raise ParseError(f"unknown directive {head!r}", lineno, 1)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"{exc}", lineno, 1)
    if "NCT" not in headers:
        raise ParseError("missing NCT header", 1, 1)
    if not saw_end:
        raise ParseError("missing END line (truncated file?)",
                         text.count("\n") + 1, 1)
    if field is None or nvars is None or kind is None or terminal is None:
        raise ParseError(
            "certificate missing FIELD, VARS, KIND, or TERMINAL", 1, 1)
    return Certificate(field, nvars, kind, seeds, steps, terminal, cite, meta)


def certificates_equal(a: Certificate, b: Certificate) -> bool:
    """Structural equality on expanded content (words compare by expansion)."""
    if (a.field != b.field or a.nvars != b.nvars or a.kind != b.kind
            or a.terminal != b.terminal or len(a.seeds) != len(b.seeds)
            or len(a.steps) != len(b.steps)):
        return False
    for sa, sb in zip(a.seeds, b.seeds):
        if sa.label != sb.label or sa.word.expand() != sb.word.expand():
            return False
    for ta, tb in zip(a.steps, b.steps):
        if (ta.label != tb.label or ta.value != tb.value
                or ta.inverse != tb.inverse or len(ta.items) != len(tb.items)):
            return False
        for ia, ib in zip(ta.items, tb.items):
            if ia.base != ib.base or ia.exponent != ib.exponent:
                return False
            ga = ia.conjugator.expand() if ia.conjugator else None
            gb = ib.conjugator.expand() if ib.conjugator else None
            if ga != gb:
                return False
    return True
