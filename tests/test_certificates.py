import pytest

from polyauto.autos import dilation, elementary, sl_dilation
from polyauto.certificates import (KIND_COTAME, KIND_SLIN, Step, WordItem,
                                   certificates_equal, parse_certificate,
                                   serialize_certificate, verify_certificate)
from polyauto.errors import ParseError
from polyauto.fields import Field
from polyauto.poly import Polynomial
from polyauto.textio import parse_factored
from polyauto.wordbuild import CertBuilder

Q = Field.rationals()


def single_seed_cert():
    """Seed eps_{1,1}; one passthrough step; terminal that step."""
    b = CertBuilder(Q, 2, KIND_COTAME)
    s = b.add_seed(elementary(Q, 2, 1, 1), label="s0")
    t = b.passthrough(s)
    return b.to_certificate(t, cite="example")


def commutator_cert():
    """Step claiming eps_{1,1}^{-1} d_{1,2,2} eps_{1,1} d^{-1} = eps_{1,1}."""
    b = CertBuilder(Q, 2, KIND_SLIN)
    seed = b.add_seed(sl_dilation(Q, 2, 1, 2, 2), label="d")
    eps = elementary(Q, 2, 1, 1)
    t = b.add_step([(eps, "d", 1), (None, "d", -1)],
                   expect=elementary(Q, 2, 1, 1).expand())
    return b.to_certificate(t, cite="commutator")


def test_single_seed_pass():
    rep = verify_certificate(single_seed_cert())
    assert rep.verdict == "PASS", rep.format()


def test_commutator_cert_pass():
    rep = verify_certificate(commutator_cert())
    assert rep.verdict == "PASS", rep.format()


def test_nonspecial_conjugator_fails():
    cert = commutator_cert()
    bad = dilation(Q, 2, 1, 2)  # Jacobian determinant 2
    step = cert.steps[0]
    cert.steps[0] = Step(step.label,
                         (WordItem(bad, step.items[0].base, 1),
                          step.items[1]),
                         step.value, step.inverse)
    rep = verify_certificate(cert)
    assert rep.verdict == "FAIL"
    assert any("conjugator" in r.check and not r.ok for r in rep.records)


def test_wrong_value_fails():
    cert = commutator_cert()
    step = cert.steps[0]
    wrong = elementary(Q, 2, 1, 2).expand()
    cert.steps[0] = Step(step.label, step.items, wrong,
                         step.inverse)
    rep = verify_certificate(cert)
    assert rep.verdict == "FAIL"


def test_wrong_inverse_fails():
    cert = commutator_cert()
    step = cert.steps[0]
    cert.steps[0] = Step(step.label, step.items, step.value, step.value)
    rep = verify_certificate(cert)
    assert rep.verdict == "FAIL"
    assert any(r.check == "inverse-pair" and not r.ok for r in rep.records)


def test_nonelementary_terminal_fails():
    b = CertBuilder(Q, 2, KIND_COTAME)
    # a translation moving two axes is special but not elementary
    from polyauto.autos import translation
    s = b.add_seed(translation(Q, 2, [1, 2]), label="s0")
    t = b.passthrough(s)
    rep = verify_certificate(b.to_certificate(t))
    assert rep.verdict == "FAIL"
    assert any(r.check == "terminal-elementary" and not r.ok
               for r in rep.records)


def test_forward_reference_fails():
    cert = single_seed_cert()
    step = cert.steps[0]
    cert.steps[0] = Step(step.label,
                         (WordItem(None, "nonexistent", 1),),
                         step.value, step.inverse)
    rep = verify_certificate(cert)
    assert rep.verdict == "FAIL"


def test_identity_word_on_slin_requires_linear_seed():
    b = CertBuilder(Q, 2, KIND_SLIN)
    s = b.add_seed(elementary(Q, 2, 1, Polynomial.variable(Q, 2, 2) ** 2),
                   label="s0")
    t = b.passthrough(s)
    rep = verify_certificate(b.to_certificate(t))
    assert any(r.check == "seed-linear" and not r.ok for r in rep.records)
    assert rep.verdict == "FAIL"


def test_round_trip_bytes_and_verdict():
    for cert in (single_seed_cert(), commutator_cert()):
        text = serialize_certificate(cert)
        again = parse_certificate(text)
        assert serialize_certificate(again) == text
        assert certificates_equal(cert, again)
        assert verify_certificate(again).verdict == \
            verify_certificate(cert).verdict


def test_truncated_file_rejected():
    text = serialize_certificate(commutator_cert())
    with pytest.raises(ParseError):
        parse_certificate(text[: len(text) // 2])


def test_indeterminate_on_cap():
    cert = commutator_cert()
    rep = verify_certificate(cert, cap=0)
    assert rep.verdict == "INDETERMINATE"


def test_verifier_is_firewalled_from_construction():
    """The verifier module must not import any construction engine, so a
    bug in generation cannot silently excuse itself during checking."""
    import ast
    import inspect

    import polyauto.certificates as certs
    tree = ast.parse(inspect.getsource(certs))
    banned = {"slin", "cotame", "lnd", "wordbuild", "reduce_core"}
    for node in ast.walk(tree):
        mods = []
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        for mod in mods:
            assert not (set(mod.split(".")) & banned), \
                f"verifier imports construction module {mod}"


def test_mutation_killing():
    cert = commutator_cert()
    text = serialize_certificate(cert)
    lines = text.splitlines()
    mutants = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not (stripped.startswith("VALUE") or stripped.startswith("INV")):
            continue
        for j, ch in enumerate(line):
            if ch.isdigit():
                repl = "7" if ch != "7" else "3"
                mutated = "\n".join(
                    lines[:i] + [line[:j] + repl + line[j + 1:]]
                    + lines[i + 1:]) + "\n"
                mutants += 1
                try:
                    mcert = parse_certificate(mutated)
                except ParseError:
                    continue
                assert verify_certificate(mcert).verdict != "PASS", \
                    f"mutant survived at line {i} col {j}"
    assert mutants >= 4


def corpus_certificate_text(index=0):
    """Serialized certificate of an acceptance-corpus word."""
    from polyauto.cotame import certify_normally_cotame
    from test_acceptance import corpus_words
    _, word = corpus_words()[index]
    text = serialize_certificate(certify_normally_cotame(word))
    assert verify_certificate(parse_certificate(text)).verdict == "PASS"
    return text


def test_unknown_format_version_rejected():
    text = corpus_certificate_text()
    assert text.startswith("NCT 1\n")
    with pytest.raises(ParseError, match="version"):
        parse_certificate(text.replace("NCT 1\n", "NCT 99\n", 1))


def test_unknown_kind_rejected():
    text = corpus_certificate_text()
    assert "\nKIND normal-cotame\n" in text
    with pytest.raises(ParseError, match="kind"):
        parse_certificate(text.replace("\nKIND normal-cotame\n",
                                       "\nKIND bogus\n", 1))


def test_repeated_header_rejected():
    # read over F5 from the second FIELD line on, this certificate over Q
    # would still verify
    text = corpus_certificate_text(2)
    assert "\nFIELD Q\n" in text
    with pytest.raises(ParseError, match="repeated FIELD"):
        parse_certificate(
            text.replace("\nFIELD Q\n", "\nFIELD Q\nFIELD F5\n", 1))


def test_missing_kind_rejected():
    # an slin certificate with a nonlinear seed fails; without its KIND line
    # it must not be read as normal-cotame, where it would pass
    b = CertBuilder(Q, 2, KIND_SLIN)
    seed = b.add_seed(parse_factored("[Q,2] E(1; x2^2)"), label="s0")
    text = serialize_certificate(b.to_certificate(b.passthrough(seed)))
    assert verify_certificate(parse_certificate(text)).verdict == "FAIL"
    assert f"\nKIND {KIND_SLIN}\n" in text
    with pytest.raises(ParseError, match="KIND"):
        parse_certificate(text.replace(f"\nKIND {KIND_SLIN}\n", "\n", 1))
