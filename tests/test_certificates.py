import hashlib
import json
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyauto.autos import dilation, elementary, sl_dilation, translation
from polyauto.certificates import (_split_point, parse_certificate,
                                   verify_certificate)
from polyauto.errors import AlgebraError, DegreeCapExceeded, ParseError
from polyauto.fields import Field
from polyauto.maps import (KIND_COTAME, KIND_SLIN, Elementary, FactoredAuto,
                           Linear, Seed, Step, WordItem)
from polyauto.poly import Polynomial
from polyauto.textio import parse_endo, parse_factored, serialize_certificate
from polyauto.wordbuild import CertBuilder
from reference_verifier import reference_verify

Q = Field.rationals()
DATA = Path(__file__).resolve().parent / "data"


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


def test_odd_permutation_seed_is_not_special():
    """S(2,1; 2,1/2) has signs of product 1; the odd permutation alone
    makes its determinant -1."""
    text = ("NCT 1\nFIELD Q\nVARS 2\nKIND normal-cotame\n"
            "SEED s0 S(2,1; 2,1/2)\nSTEP t1\n  ITEM BASE s0 EXP +1\n"
            "  VALUE (2*x2, 1/2*x1)\n  INV (2*x2, 1/2*x1)\nTERMINAL t1\nEND\n")
    rep = verify_certificate(parse_certificate(text))
    assert rep.verdict == "FAIL"
    assert [r.check for r in rep.records if not r.ok] == \
        ["seed-special", "terminal-elementary"]


def test_dense_nonlinear_seed_verifies_in_seconds():
    """The [Q,24] seed L[upper ones] * E(1; x2^2) * L[lower ones] has a
    dense nonlinear Jacobian: its cofactor expansion took 1.42 s at n = 14
    and 23.3 s at n = 18 on a shared 2-core VM.  Its word determinant is a
    product of three constants."""
    n = 24
    upper = tuple(tuple(Q.one if j >= i else Q.zero for j in range(n))
                  for i in range(n))
    lower = tuple(tuple(Q.one if j <= i else Q.zero for j in range(n))
                  for i in range(n))
    x2 = Polynomial.variable(Q, n, 2)
    word = FactoredAuto(Q, n, [Linear(Q, n, upper),
                               Elementary(Q, n, 1, x2 * x2),
                               Linear(Q, n, lower)])
    b = CertBuilder(Q, n, KIND_COTAME)
    s = b.passthrough(b.add_seed(word, label="s0"))
    text = serialize_certificate(b.to_certificate(s))
    t0 = time.perf_counter()
    rep = verify_certificate(parse_certificate(text))
    assert time.perf_counter() - t0 < 5
    assert [(r.check, r.ok) for r in rep.records[:1]] == [("seed-special",
                                                           True)]
    assert rep.verdict == "FAIL"  # the value is not elementary


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
    s = b.add_seed(translation(Q, 2, [1, 2]), label="s0")
    t = b.passthrough(s)
    rep = verify_certificate(b.to_certificate(t))
    assert rep.verdict == "FAIL"
    assert any(r.check == "terminal-elementary" and not r.ok
               for r in rep.records)


def test_identity_terminal_fails():
    b = CertBuilder(Q, 2, KIND_COTAME)
    s = b.add_seed(elementary(Q, 2, 1, 1), label="s0")
    t = b.add_step([(None, s, 1), (None, s, -1)])
    rep = verify_certificate(b.to_certificate(t))
    assert rep.verdict == "FAIL"
    assert [r.check for r in rep.records if not r.ok] == [
        "terminal-elementary"]


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


def test_translation_seed_on_slin_is_not_linear():
    b = CertBuilder(Q, 2, KIND_SLIN)
    s = b.add_seed(translation(Q, 2, [1, 0]), label="s0")
    rep = verify_certificate(b.to_certificate(b.passthrough(s)))
    assert rep.verdict == "FAIL"
    assert [r.check for r in rep.records if not r.ok] == ["seed-linear"]


def test_round_trip_bytes_and_verdict():
    for cert in (single_seed_cert(), commutator_cert()):
        text = serialize_certificate(cert)
        again = parse_certificate(text)
        assert serialize_certificate(again) == text
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
    assert rep.verdict == reference_verify(cert, cap=0).verdict


def test_unused_seed_inverse_over_the_cap_is_not_expanded():
    # the extra seed's value has degree 40 and its inverse degree 1200; no
    # check reads the inverse, so the cap of 1024 does not stop the file
    b = CertBuilder(Q, 3, KIND_COTAME)
    cert = b.to_certificate(b.passthrough(b.add_seed(elementary(Q, 3, 1, 1))))
    cert.seeds.append(Seed("s9", parse_factored(
        "[Q,3] T(1; 1, x1^40; 1, x2^30)")))
    cert = parse_certificate(serialize_certificate(cert))
    rep = verify_certificate(cert)
    assert rep.verdict == "PASS", rep.format()
    assert reference_verify(cert).verdict == "INDETERMINATE"


def found_collapse_step():
    """The `m=2 collapse c=1` step on which certifying the [Q,3] 2-triangular
    word of CHANGES.md stalls: folding its items g^-1 b^-1 g, b (g a
    translation) composes A = g^-1 b^-1 g (373 terms, degree 10) with b (67
    terms, degree 5), which took 44 s, for a value of 7 terms of degree 1."""
    return parse_certificate((DATA / "found_collapse_step.nct").read_text())


def test_found_collapse_step_verifies_within_a_second():
    # A = V * b^-1 is decided instead, at a degree bound of 10 against 50
    cert = found_collapse_step()
    t0 = time.perf_counter()
    rep = verify_certificate(cert)
    assert time.perf_counter() - t0 < 1
    assert [(r.check, r.ok) for r in rep.records] == [
        ("seed-special", True), ("inverse-pair", True),
        ("item0-conjugator-special", True), ("word-equals-value", True),
        ("terminal-elementary", False)]


def test_cap_hit_while_weighing_a_split_is_indeterminate():
    # reading the seed's inverse (degree 10) for item 0 meets the cap of 9;
    # at a cap of 10 the split's bound is met and the step is decided
    rep = verify_certificate(found_collapse_step(), cap=9)
    assert rep.verdict == "INDETERMINATE"
    assert [(r.label, r.check, r.message) for r in rep.records
            if not r.ok][0] == (
        "t1", "item0-expansion", "substitution term degree 10 exceeds cap 9")
    rep = verify_certificate(found_collapse_step(), cap=10)
    assert ("word-equals-value", True) in [(r.check, r.ok)
                                           for r in rep.records]


def test_split_point_moves_items_only_for_a_smaller_bound():
    def item(text, exact=True, left=1):
        # (entry, side, g^-1, g, fold bound through the item), as listed by
        # verify_certificate for an item with no conjugator
        value = parse_endo(f"[Q,2] {text}")
        return [value, value, exact, None], 0, None, None, left

    value = parse_endo("[Q,2] (x1, x2)")
    quartic, linear = "(x1, x2+x1^4)", "(x1+x2, x2)"
    # fold bound 4 * 4 against max(4, 1 * 4): the second item moves
    assert _split_point([item(quartic, left=4), item(quartic, left=16)],
                        value) == (1, 4)
    # fold bound 4 * 1 against max(4, 1 * 1): a tie keeps the fold
    assert _split_point([item(quartic, left=4), item(linear, left=4)],
                        value) == (2, 4)
    # an inverse that failed inverse-pair does not move
    assert _split_point([item(quartic, left=4),
                         item(quartic, exact=False, left=16)], value) == (2, 16)


def test_first_piece_over_the_cap_is_indeterminate():
    # t1's INV, of degree 5, is wrong, so t1 fails inverse-pair yet enters
    # the environment; t2 starts from it, and under a cap of 4 that start
    # meets the cap as composing it after the identity would
    text = ("NCT 1\nFIELD Q\nVARS 2\nKIND normal-cotame\nSEED s E(1; x2)\n"
            "STEP t1\n  ITEM BASE s EXP +1\n  VALUE (x2, x2)\n"
            "  INV (x1-x2^5, x2)\nSTEP t2\n  ITEM BASE t1 EXP -1\n"
            "  VALUE (x1, x2+1)\n  INV (x1, x2-1)\nTERMINAL t2\nEND\n")
    rep = same_as_reference(parse_certificate(text), cap=4)
    assert rep.verdict == "INDETERMINATE"
    assert ("t2", "item0-expansion") in [(r.label, r.check)
                                         for r in rep.records]


def same_as_reference(cert, cap=None):
    """verify_certificate and the reference give the same records and
    verdict, except that an unread seed inverse over the cap does not make
    verify_certificate INDETERMINATE; returns the report."""
    kw = {} if cap is None else {"cap": cap}
    rep, ref = verify_certificate(cert, **kw), reference_verify(cert, **kw)
    if rep.verdict != ref.verdict:
        assert ref.verdict == "INDETERMINATE"
        assert {r.check for r in ref.records if "exceeds cap" in r.message} \
            == {"seed-expansion"}
        assert not any("exceeds cap" in r.message for r in rep.records)
    else:
        assert rep.records == ref.records
    return rep


@lru_cache(maxsize=None)
def corpus_texts():
    """The serialized certificates of the 25 acceptance-corpus words."""
    from polyauto.cotame import certify_normally_cotame
    from test_acceptance import corpus_words
    return tuple(serialize_certificate(certify_normally_cotame(word))
                 for _, word in corpus_words())


def test_verifier_agrees_with_the_reference_on_the_corpus():
    for text in corpus_texts():
        assert same_as_reference(parse_certificate(text)).verdict == "PASS"


def test_verifier_agrees_with_the_reference_on_slin_at_n2():
    from polyauto.slin import SlinContext, slin_from_monomial_elementary
    from test_acceptance import monomials_up_to
    count = 0
    for q, top in ((4, 20), (8, 20), (9, 6), (16, 6), (25, 6), (27, 6)):
        ctx = SlinContext(Field.of_order(q), 2)
        for a in ctx.field.units():
            for free in monomials_up_to(1, top):
                try:
                    cert = slin_from_monomial_elementary(ctx, 1, a,
                                                         (0,) + free)
                except AlgebraError:
                    continue  # the refusals of x2^11 and x2^14 over F4
                text = serialize_certificate(cert)
                assert same_as_reference(
                    parse_certificate(text)).verdict == "PASS"
                count += 1
    assert count == 715


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
        # special-ness is the word determinant, never a Jacobian expansion
        if isinstance(node, ast.ImportFrom):
            assert "jacobian_det" not in [a.name for a in node.names]
        assert getattr(node, "attr", None) != "jacobian_det"


def test_importing_the_verifier_loads_no_engine():
    """The same boundary at run time, in a fresh interpreter: no module
    that certificates imports, directly or not, pulls in an engine."""
    import os
    import subprocess
    import sys
    engines = ["slin", "cotame", "lnd", "reduce_core", "wordbuild",
               "identities", "cli"]
    code = ("import sys, polyauto.certificates; print(' '.join(m for m in "
            f"{engines!r} if 'polyauto.' + m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


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


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_slin_certificates_round_trip_bytes(q):
    from polyauto.slin import SlinContext, slin_from_monomial_elementary
    field = Field.of_order(q)
    ctx = SlinContext(field, 2)
    units = list(field.units())
    for a in (units[0], units[-1]):
        for exps in ((0, 1), (0, 2), (0, 5)):
            text = serialize_certificate(
                slin_from_monomial_elementary(ctx, 1, a, exps))
            assert serialize_certificate(parse_certificate(text)) == text


def test_parse_errors_point_into_the_file():
    text = serialize_certificate(commutator_cert())
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if "VALUE" in line)
    col = lines[row].index("(") + 1
    lines[row] = lines[row][:col] + "x9+" + lines[row][col:]
    with pytest.raises(ParseError) as info:
        parse_certificate("\n".join(lines) + "\n")
    assert (info.value.line, info.value.column) == (row + 1, col + 1)


@pytest.mark.parametrize("old, new, at, reason", [
    ("TERMINAL t8 CITE triangular-descent\n",
     "TERMINAL t8 CITE triangular-descent\nTERMINAL t7\n", "TERMINAL t7",
     "repeated TERMINAL line"),
    ("END\n", "END\nSTEP t9\n", "STEP",
     "unexpected 'STEP' after the input"),
    ("END\n", "END\nEND\n", "END\n", "unexpected 'END' after the input"),
    ("META path triangular\n", "META path triangular\nMETA path other\n",
     "path other", "repeated META key 'path'"),
    ("CONJ E(1; 1)", "CONJ E(9; 1)", "E(9", "index 9 out of range"),
    ("CONJ E(1; 1)", "CONJ L[[1,2,0,0],[2,4,0,0],[0,0,1,0],[0,0,0,1]]", "L[",
     "linear factor matrix is singular"),
    ("VARS 4", "VARS x", "x", "expected a number, found 'x'"),
], ids=["second-TERMINAL", "STEP-after-END", "second-END", "repeated-META",
        "CONJ-E9", "singular-CONJ-L", "VARS-x"])
def test_reader_holes_are_parse_errors_at_their_token(old, new, at, reason):
    # each edit of a corpus certificate was read without complaint, or
    # reported at column 1 or as a Python error message
    text = first_corpus_text()
    bad = text.replace(old, new, 1)
    offset = text.index(old) + new.rindex(at)
    with pytest.raises(ParseError) as info:
        parse_certificate(bad)
    assert info.value.reason == reason
    assert (info.value.line, info.value.column) == (
        bad.count("\n", 0, offset) + 1, offset - bad.rfind("\n", 0, offset))


EXP_OVER_F5 = """NCT 1
FIELD F5
VARS 2
KIND normal-cotame
SEED s Exp(x1; D(0, 1))
STEP t1
  ITEM BASE s EXP +1
  VALUE (x1, x1+x2)
  INV (x1, -x1+x2)
TERMINAL t1
END
"""


def test_exp_factor_over_a_prime_field_is_a_parse_error():
    # exp(FD) divides by factorials, so it exists only over Q; the factor
    # used to be read, and expanding it in the verifier raised an untyped
    # UnsupportedCharacteristic
    with pytest.raises(ParseError) as info:
        parse_certificate(EXP_OVER_F5)
    assert info.value.reason == "exp(FD) needs characteristic zero"
    assert (info.value.line, info.value.column) == (5, 8)


def test_power_over_the_cap_is_not_a_parse_error():
    text = serialize_certificate(commutator_cert())
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if "VALUE" in line)
    lines[row] = lines[row].replace("VALUE (", "VALUE ((x1+x2+1)^25+", 1)
    bad = "\n".join(lines) + "\n"
    with pytest.raises(DegreeCapExceeded):
        parse_certificate(bad, cap=20)
    assert verify_certificate(parse_certificate(bad)).verdict == "FAIL"


@lru_cache(maxsize=None)
def first_corpus_text():
    return corpus_certificate_text(0)


def mutate(text, edit):
    kind, where, bit = edit
    if kind == "flip":
        data = bytearray(text.encode())
        data[where % len(data)] ^= 1 << bit
        return data.decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    i = where % len(lines)
    if kind == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "".join(lines)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(("flip", "drop", "dup")),
                          st.integers(0, 1 << 20), st.integers(0, 7)),
                min_size=1, max_size=3))
def test_mutated_certificate_ends_in_a_verdict_or_typed_error(edits):
    text = first_corpus_text()
    for edit in edits:
        text = mutate(text, edit)
    try:
        cert = parse_certificate(text)
    except (ParseError, DegreeCapExceeded):
        return
    assert same_as_reference(cert).verdict in ("PASS", "FAIL",
                                               "INDETERMINATE")


# -- every truncation of a certificate reads as it did -------------------------


def read_outcome(text):
    """What reading `text` gives: the digest of the certificate it holds,
    or the class, message, line and column of the error it raises."""
    try:
        cert = parse_certificate(text)
    except Exception as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None)]
    return ["parse", hashlib.sha256(
        serialize_certificate(cert).encode()).hexdigest()]


@pytest.mark.parametrize("name", ["corpus", "slin-sweep"])
def test_every_truncation_reads_as_recorded(name):
    """tests/data/truncations.json holds the outcome of every prefix of a
    corpus and a slin-sweep certificate, recorded with the reader that
    built a Polynomial per atom; the term-map reader gives the same
    certificates and the same errors at the same lines and columns."""
    recorded = json.loads((DATA / "truncations.json").read_text())[name]
    text = recorded["text"]
    assert [read_outcome(text[:k]) for k in range(len(text) + 1)] == \
        recorded["outcomes"]
