"""Hostile certificates end in an outcome within a CPU-time bound.

Each file under tests/data/hostile is one family of hostile input; its
index records the outcome, a verdict or the class of the error that
parse_certificate raises, and the cap it is read under.  Two inputs too
large to commit are made in memory: a file of many lines and a sum of many
parenthesized terms, which the reader once took quadratic time over."""

import json
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from polyauto.certificates import parse_certificate, verify_certificate
from polyauto.errors import AlgebraError, ParseError
from polyauto.fields import Field
from polyauto.poly import DEFAULT_DEGREE_CAP
from polyauto.textio import parse_polynomial
from reference_verifier import reference_verify

HOSTILE = Path(__file__).resolve().parent / "data" / "hostile"
INDEX = json.loads((HOSTILE / "index.json").read_text())


@contextmanager
def within(seconds: float):
    """Fail a block that runs `seconds` of this process's CPU time: a
    profiling timer interrupts it then, and its CPU time is checked when it
    ends.  Time that other processes take from a loaded host is not
    counted."""
    def expire(signum, frame):
        raise TimeoutError(f"no outcome within {seconds} s of CPU time")
    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    start = time.process_time()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    assert time.process_time() - start < seconds


def outcome(text: str, cap: int) -> str:
    try:
        cert = parse_certificate(text, cap)
    except AlgebraError as exc:
        return type(exc).__name__
    return verify_certificate(cert, cap).verdict


def test_the_index_names_every_file():
    assert sorted(INDEX) == sorted(p.name for p in HOSTILE.glob("*.nct"))


@pytest.mark.parametrize("name", sorted(INDEX))
def test_hostile_file_meets_its_outcome_within_2_s(name):
    entry = INDEX[name]
    text = (HOSTILE / name).read_text()
    with within(2.0):
        got = outcome(text, entry.get("cap", DEFAULT_DEGREE_CAP))
    assert got == entry["outcome"], entry["family"]


def test_a_file_of_40000_lines_is_tokenized_within_1_s():
    text = "NCT 1\n" + 40_000 * "  ITEM BASE s1 EXP +1\n" + "END\n"
    with within(1.0), pytest.raises(ParseError, match="expected 'FIELD'"):
        parse_certificate(text)


def test_a_sum_of_32000_parenthesized_terms_is_read_within_1_s():
    k = 32_000
    text = "+".join(f"(x1^{i})" for i in range(1, k + 1))
    with within(1.0):
        p = parse_polynomial(text, Field.rationals(), 1, cap=None)
    assert len(p.terms) == k and p.deg() == k


@pytest.mark.parametrize("name", ["repeated_seed_label.nct",
                                  "repeated_step_label.nct"])
def test_a_repeated_label_fails_only_its_unique_label_check(name):
    cert = parse_certificate((HOSTILE / name).read_text())
    report = verify_certificate(cert)
    assert [r.check for r in report.records if not r.ok] == ["unique-label"]
    assert report.records == reference_verify(cert).records


@pytest.mark.parametrize("name", [
    "constant_value_after_two_seed_items.nct",
    "constant_value_step_as_a_base_before_a_seed_inverse.nct"])
def test_a_constant_value_never_lets_an_unread_seed_inverse_be_used(name):
    # a constant map's degree 0 must not cancel the bound of an item whose
    # inverse is not at hand: the step is decided, not crashed
    cert = parse_certificate((HOSTILE / name).read_text())
    assert verify_certificate(cert).records == reference_verify(cert).records
