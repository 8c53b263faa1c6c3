"""Every example in docs/formats.md parses, and its certificate verifies."""

import re
from pathlib import Path

from polyauto.certificates import (_CertificateParser, parse_certificate,
                                   verify_certificate)
from polyauto.cotame import certify_normally_cotame
from polyauto.textio import (parse_automorphism, parse_factored, parse_field,
                             serialize_certificate)

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def fenced_blocks():
    """(info string, body) of every fenced block in the document."""
    text = FORMATS.read_text()
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)


def test_every_block_is_a_known_form():
    kinds = [kind for kind, _ in fenced_blocks()]
    assert set(kinds) == {"ebnf", "field", "automorphism", "nct"}
    assert kinds.count("nct") == 1


def test_field_and_automorphism_examples_parse():
    count = 0
    for kind, body in fenced_blocks():
        for line in body.splitlines():
            if kind == "field":
                assert parse_field(line).tag() == parse_field("F9").tag()
                count += 1
            elif kind == "automorphism":
                parse_automorphism(line)
                count += 1
    assert count >= 8


def test_certificate_example_is_the_certify_output_and_passes():
    body = next(body for kind, body in fenced_blocks() if kind == "nct")
    cert = parse_certificate(body)
    assert verify_certificate(cert).verdict == "PASS"
    word = parse_factored("[Q,2] E(2; x1^2)")
    assert serialize_certificate(certify_normally_cotame(word)) == body


def test_every_production_is_a_parser_rule():
    ebnf = next(body for kind, body in fenced_blocks() if kind == "ebnf")
    productions = re.findall(r"^(\w+)\s*=", ebnf, re.M)
    assert {"poly", "word", "certificate", "step", "item"} <= set(productions)
    token_level = {"number", "variable", "text"}
    missing = [name for name in productions if name not in token_level
               and not callable(getattr(_CertificateParser, name, None))]
    assert missing == []
