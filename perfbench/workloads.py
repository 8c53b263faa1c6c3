"""The three benchmark workloads: their inputs, one operation per input, and
the correctness gate each operation passes through.

Inputs come from the generators of the test suite (`tests/gen.py`,
`tests/test_acceptance.py`) at the acceptance seeds; the digests pinned in
`pins.json` catch any drift in them.  The runner's `--seed` fixes the order
in which a pass runs the inputs, never the inputs themselves, so that every
certificate can be checked against its pinned digest.

Every operation ends in one of three outcomes:

* ``ok``      - the output passed the gate;
* ``refused`` - the engine raised a typed ``AlgebraError`` that the pins
  expect for this input;
* ``failed``  - anything else: an untyped exception, an internal identity
  failure, a refusal the pins do not expect, a digest mismatch, a verdict
  other than PASS, or a CLI exit code other than 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from refclock import alloc_probe, start_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

# The acceptance seeds, fixed inside corpus_words(): 414243 for the words,
# 99991 for the kernel pairs of the exp-type words.
CORPUS_SEEDS = (414243, 99991)

# (field order, n) -> top total degree of the monomials x^e, e_1 = 0.  The
# F4, F8 and F9 rows at n = 2, 3 are the acceptance criterion-5 coverage;
# F16, F25 and F27 join at n = 2.  The n = 2 rows over F4 and F8 go on to
# degree 20 so that proof cases 2a and 2b, and the NoSuchUnit refusals of
# x2^11 and x2^14 over F4, run every pass.  The n = 3 rows over F16, F25 and
# F27 (1820 more certificates, 8 s a pass) are left out so that a run holds
# several passes.
SLIN_ROWS = {
    (4, 2): 20, (4, 3): 6, (8, 2): 20, (8, 3): 6, (9, 2): 6, (9, 3): 6,
    (16, 2): 6, (25, 2): 6, (27, 2): 6,
}


def require_sources():
    """Put the library and its test generators on sys.path, or exit with a
    message when the checkout does not hold them."""
    needed = (SRC / "polyauto" / "__init__.py", TESTS / "gen.py",
              TESTS / "test_acceptance.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit("perfbench: the checkout lacks " + ", ".join(missing))
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    status: str           # ok | refused | failed
    certify_s: float      # write side: build plus serialize
    verify_s: float       # read side: parse plus verify
    reason: str = ""
    peak_rss_kb: int = 0  # the CLI children's peak resident set
    wall_s: float = 0.0   # the whole operation, set by the runner
    ref_s: float = 0.0    # seconds per ref while it ran, set by the runner

    def refs(self, field):
        """A time of this operation in refs (see refclock.py)."""
        return getattr(self, field) / self.ref_s


def _refusal(exc, expected, certify_s):
    """Classify an engine exception against the pinned expectation."""
    from polyauto.errors import AlgebraError, InternalIdentityFailure
    got = f"refused:{type(exc).__name__}"
    if (isinstance(exc, AlgebraError)
            and not isinstance(exc, InternalIdentityFailure)
            and got == expected):
        return Outcome("refused", certify_s, 0.0, got)
    return Outcome("failed", certify_s, 0.0,
                   f"{type(exc).__name__}: {exc} (pinned {expected})")


def _gate(text, expected, verdict, certify_s, verify_s, problems=()):
    problems = list(problems)
    if expected is None:
        problems.append("no pinned digest")
    elif digest(text) != expected:
        problems.append("digest mismatch")
    if verdict != "PASS":
        problems.append(f"verdict {verdict}")
    if problems:
        return Outcome("failed", certify_s, verify_s, "; ".join(problems))
    return Outcome("ok", certify_s, verify_s)


def _verify_text(text):
    """Verify from freshly parsed bytes, as `polyauto verify` does: the
    in-memory certificate would reuse expansions cached on the engine side."""
    from polyauto.certificates import parse_certificate, verify_certificate
    return verify_certificate(parse_certificate(text)).verdict


def _certify_then_verify(certify, expected, tamper):
    """Shared body of the in-process certify -> bytes -> parse -> verify
    operations."""
    from polyauto.certificates import serialize_certificate
    t0 = perf_counter()
    try:
        text = serialize_certificate(certify())
    except Exception as exc:  # noqa: BLE001 - every outcome is reported
        return _refusal(exc, expected, perf_counter() - t0)
    t1 = perf_counter()
    if tamper is not None:
        text = tamper(text)
    t2 = perf_counter()
    try:
        verdict = _verify_text(text)
    except Exception as exc:  # noqa: BLE001
        return Outcome("failed", t1 - t0, perf_counter() - t2,
                       f"verify raised {type(exc).__name__}: {exc}")
    return _gate(text, expected, verdict, t1 - t0, perf_counter() - t2)


# -- corpus -------------------------------------------------------------------


# The two m-triangular words with n = 3 certify and verify in 8 s and 5 s,
# 85% of a pass over all 25 words.  With one sample of each per run their
# times swing by a third on a shared machine, so they are left out.
CORPUS_LEFT_OUT = ("14-3-triangular", "18-4-triangular")


class Corpus:
    """The acceptance certification corpus over Q, less CORPUS_LEFT_OUT."""

    name = "corpus"
    # nominal seconds per pass on a shared 2-core x86-64 VM, Python 3.11
    pass_seconds = 2.5
    probe = staticmethod(alloc_probe)  # the reference clock's (refclock.py)

    def __init__(self, args):
        from test_acceptance import corpus_words
        self.inputs = [(f"{i:02d}-{name}", word)
                       for i, (name, word) in enumerate(corpus_words())
                       if f"{i:02d}-{name}" not in CORPUS_LEFT_OUT]

    @staticmethod
    def certify(word):
        from polyauto.autos import FactoredAuto
        from polyauto.cotame import certify_normally_cotame
        # corpus_words() expanded each word; a fresh word with the same
        # factors carries no cached expansion into the timed certify
        return certify_normally_cotame(
            FactoredAuto(word.field, word.nvars, word.factors))

    def run(self, word, expected, tamper=None):
        return _certify_then_verify(lambda: self.certify(word), expected,
                                    tamper)


# -- slin-sweep ---------------------------------------------------------------


class SlinSweep:
    """Every unit times every monomial x^e with e_1 = 0 on the SLIN_ROWS."""

    name = "slin-sweep"
    pass_seconds = 7.0
    probe = staticmethod(alloc_probe)

    def __init__(self, args):
        from polyauto.fields import Field
        from polyauto.slin import SlinContext
        from test_acceptance import monomials_up_to
        self.inputs = []
        for (q, n), top in SLIN_ROWS.items():
            field = Field.of_order(q)
            ctx = SlinContext(field, n)
            for a in field.units():
                for free in monomials_up_to(n - 1, top):
                    exps = (0,) + free
                    key = (f"F{q}/n{n}/a={a}/e="
                           + ",".join(str(e) for e in exps))
                    self.inputs.append((key, (ctx, a, exps)))

    @staticmethod
    def certify(payload):
        from polyauto.slin import slin_from_monomial_elementary
        ctx, a, exps = payload
        return slin_from_monomial_elementary(ctx, 1, a, exps)

    def run(self, payload, expected, tamper=None):
        return _certify_then_verify(lambda: self.certify(payload), expected,
                                    tamper)


# -- cli ----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, out_path, peak=False):
    """Run one child to completion; returns (exit code, seconds, stdout,
    peak resident set in KiB).  Output goes to a file, so no pipe can fill.
    With peak, the child runs under peak.py, which reads its own peak; else
    the peak is 0."""
    peak_path = Path(f"{out_path}.peak")
    if peak:
        argv = [argv[0], str(HERE / "peak.py"), str(peak_path)] + argv[1:]
    with open(out_path, "w+") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        proc.wait()
        seconds = perf_counter() - t0
        out.seek(0)
        text = out.read()
    peak_kb = 0
    if peak and peak_path.exists():
        peak_kb = int(peak_path.read_text() or 0)
        peak_path.unlink()
    return proc.returncode, seconds, text, peak_kb


class Cli:
    """`polyauto certify MAP --out F` then `polyauto verify F`, one
    subprocess at a time, on the light corpus words."""

    name = "cli"
    pass_seconds = 7.0

    def __init__(self, args):
        from polyauto.textio import factored_to_text
        from test_acceptance import corpus_words
        self.workdir = args.workdir
        # the traced run calls `polyauto.cli.main(argv)` in this
        # interpreter instead of a child, so that the wrappers see the layers
        self.in_process = False
        self.inputs = []
        for i, (name, word) in enumerate(corpus_words()):
            # the 18 words that certify in well under a second: the
            # m-triangular words are left to the corpus workload
            if "-triangular" not in name:
                text = f"[{word.field.tag()},{word.nvars}] " + \
                    factored_to_text(word)
                self.inputs.append((f"{i:02d}-{name}", text))

    def probe(self):
        """The children start interpreters; the traced run's in-process
        operations allocate."""
        return alloc_probe() if self.in_process else start_probe()

    def run(self, text, expected, tamper=None):
        cert = self.workdir / "op.nct"
        log = self.workdir / "op.log"
        certify = [sys.executable, "-m", "polyauto", "certify", text,
                   "--out", str(cert)]
        verify = [sys.executable, "-m", "polyauto", "verify", str(cert)]
        runner = run_in_process if self.in_process else run_child
        code1, certify_s, _, rss1 = runner(certify, log, peak=True)
        if tamper is not None and cert.exists():
            cert.write_text(tamper(cert.read_text()))
        code2, verify_s, out, rss2 = runner(verify, log, peak=True)
        text_out = cert.read_text() if cert.exists() else ""
        cert.unlink(missing_ok=True)
        codes = [] if (code1, code2) == (0, 0) else \
            [f"exit codes {code1}/{code2}"]
        lines = out.strip().splitlines()
        verdict = lines[-1].removeprefix("verdict: ") if lines else "none"
        outcome = _gate(text_out, expected, verdict, certify_s, verify_s,
                        codes)
        outcome.peak_rss_kb = max(rss1, rss2)
        return outcome


def run_in_process(argv, out_path, peak=False):
    """`polyauto.cli.main` on the argv after `-m polyauto`, with its output
    captured; same return shape as run_child (peak 0).  An exception
    that escapes main reads as exit code -1."""
    import contextlib
    import io
    from polyauto import cli
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv[3:])
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            print(f"{type(exc).__name__}: {exc}")
            code = -1
    return code, perf_counter() - t0, buf.getvalue(), 0


WORKLOADS = {w.name: w for w in (Corpus, SlinSweep, Cli)}

# The pinned digest table each workload checks against: the CLI must write
# the same bytes as the in-process corpus run.
PIN_TABLE = {"corpus": "corpus", "slin-sweep": "slin-sweep", "cli": "corpus"}
