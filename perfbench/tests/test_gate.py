"""Negative controls for the benchmark's correctness gate, and checks that
the runner and BENCHMARK.json agree.  Smoke-sized: a few inputs each.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

wl.require_sources()

PINS = wl.load_pins()


def smoke(name, keys, tmp_path=None):
    args = Namespace(workdir=tmp_path)
    workload = wl.WORKLOADS[name](args)
    by_key = dict(workload.inputs)
    workload.inputs = [(k, by_key[k]) for k in keys]
    return workload


def outcomes(passed):
    return {key: o for key, o in passed.ops}


CORPUS_KEYS = ["02-triangular", "11-triangular", "19-phi2"]


def flip_value_digit(text):
    """Change the first digit of the first VALUE line."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.lstrip().startswith("VALUE"):
            j = next(j for j, ch in enumerate(line) if ch.isdigit())
            new = "2" if line[j] != "2" else "3"
            lines[i] = line[:j] + new + line[j + 1:]
            return "".join(lines)
    raise AssertionError("no VALUE line")


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_untampered_smoke_pass_is_clean():
    workload = smoke("corpus", CORPUS_KEYS)
    got = run.run_pass(workload, PINS["corpus"], seed=1, index=0)
    assert [o.status for _, o in got.ops] == ["ok"] * 3


def test_corrupted_pin_fails_that_op_only():
    workload = smoke("corpus", CORPUS_KEYS)
    pins = dict(PINS["corpus"])
    pins["11-triangular"] = "0" * 64
    got = outcomes(run.run_pass(workload, pins, seed=1, index=0))
    assert got["11-triangular"].status == "failed"
    assert got["11-triangular"].reason == "digest mismatch"
    assert got["02-triangular"].status == got["19-phi2"].status == "ok"


def test_flipped_certificate_byte_fails_that_op():
    workload = smoke("corpus", CORPUS_KEYS)
    got = outcomes(run.run_pass(workload, PINS["corpus"], seed=1, index=0,
                                tamper={"19-phi2": flip_value_digit}))
    assert got["19-phi2"].status == "failed"
    # the verifier itself rejects the flipped byte, not only the digest
    assert "verdict FAIL" in got["19-phi2"].reason
    assert got["02-triangular"].status == "ok"


def test_refusals_are_counted_against_the_pins():
    key = "F4/n2/a=1/e=0,11"
    workload = smoke("slin-sweep", [key])
    assert PINS["slin-sweep"][key] == "refused:NoSuchUnit"
    got = run.run_pass(workload, PINS["slin-sweep"], seed=1, index=0)
    assert got.ops[0][1].status == "refused"
    # a refusal where the pins expect a certificate is a failure
    got = run.run_pass(workload, {key: "0" * 64}, seed=1, index=0)
    assert got.ops[0][1].status == "failed"
    acct = run.accounting([got])
    assert (acct["attempted"], acct["failed"], acct["refused"]) == (1, 1, 0)


@pytest.mark.parametrize("in_process", [False, True])
def test_cli_gate(tmp_path, in_process):
    workload = smoke("cli", ["11-triangular"], tmp_path)
    workload.in_process = in_process
    text = workload.inputs[0][1]
    ok = workload.run(text, PINS["corpus"]["11-triangular"])
    assert ok.status == "ok", ok.reason
    # a child reads its own peak, not the runner's folded in at exec
    assert (ok.peak_rss_kb > 0) != in_process
    bad = workload.run(text, "0" * 64)
    assert (bad.status, bad.reason) == ("failed", "digest mismatch")
    flipped = workload.run(text, PINS["corpus"]["11-triangular"],
                           tamper=flip_value_digit)
    assert flipped.status == "failed"
    assert "exit codes 0/1" in flipped.reason


def test_tracer_wraps_every_binding_and_counts_repeat():
    import polyauto
    from polyauto import (autos, certificates, cotame, identities, lnd,
                          reduce_core, wordbuild)
    original = autos.compose
    workload = smoke("corpus", CORPUS_KEYS)
    tracer = tracing.Tracer()
    counts = []
    try:
        assert tracer.install() > 20
        for module in (polyauto, autos, certificates, cotame, identities,
                       lnd, reduce_core, wordbuild):
            assert module.compose is not original
            assert module.compose.__wrapped__ is original
        for index in range(2):
            tracer.reset()
            run.run_pass(workload, PINS["corpus"], seed=index, index=index,
                         tracer=tracer)
            counts.append({k: v for k, v in tracer.layer_values().items()
                           if not k.endswith("_s")})
    finally:
        tracer.uninstall()
    assert autos.compose is original and certificates.compose is original
    assert counts[0] == counts[1]
    assert counts[0]["cotame.certify.calls"] == 3
    assert counts[0]["certificates.verify.calls"] == 3
    assert counts[0]["autos.compose.calls"] > 0
