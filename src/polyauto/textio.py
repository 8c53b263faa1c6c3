"""Text formats: the `parse_*` entry points to the rules of
`polyauto.grammar`, and the canonical, byte-stable printers of field
elements, polynomials, maps, words, derivations and certificates (.nct).
A verifier process loads none of this module.
"""

from __future__ import annotations

from .errors import ParseError
from .fields import Field
from .grammar import _RING_SIZE, _Parser
from .maps import (FORMAT_VERSION, Certificate, Elementary, ExpLND, Linear,
                   SignedPermutation, Translation, Triangular, TriDerivation)
from .poly import DEFAULT_DEGREE_CAP, MAX_NVARS, Polynomial

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
        ctext = field._ptext(coeff.payload)
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


# -- certificates ----------------------------------------------------------------

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
