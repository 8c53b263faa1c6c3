"""polyauto benchmark runner.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads: corpus, slin-sweep, cli (see
workloads.py and README.md for what each runs and why).  A run sets up,
then runs whole passes over the workload's inputs for about --seconds
seconds: it plans --seconds // (the workload's nominal pass time) passes,
so that runs of the same code do the same work, and skips the rest of the
plan only when the next pass would end past OVERRUN x --seconds on a
slower machine.
Timings are medians over the passes; the tail percentile is fixed by the
plan.  They are given in refs, units of fixed work timed by the same
process around every half second of operations (refclock.py), because
the shared host's speed shifts too much for seconds to compare;
the raw seconds go to the first output line and the report.  setup_s,
timed in fresh processes, stays in seconds.

With --trace 0 the last line of stdout is one JSON object carrying every
end-to-end metric; with --trace 1 it carries every per-layer metric, taken
by wrapping the library's public functions (tracing.py) after one untraced
pass that gives the tracing overhead.  Earlier lines give the run metadata
and the failure accounting, and a report with the per-op outcomes (and the
spans of a traced run) is written to perfbench/out/.

Every operation passes the correctness gate of workloads.py; `correct` is
false when any operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from refclock import NoProbes, RefClock  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SETUP_SPAWNS = 9   # fresh processes per run whose median is setup_s
IMPORT_SPAWNS = 5  # fresh `import polyauto.cli` per traced run
TAIL_SAMPLES = 10  # samples the tail percentile must leave beyond it
PERCENTILES = (99.9, 99.0, 90.0, 75.0, 60.0, 50.0)
OVERRUN = 1.2      # a run cuts its plan short rather than pass this share
END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "certify_ref": "ref",
    "verify_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the inputs within each pass")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit "
                         "(what setup_s times in a fresh process)")
    ap.add_argument("--rss-pass", action="store_true",
                    help="set up, run one pass without probes, then exit "
                         "(the fresh process peak_rss_mb is read from)")
    return ap.parse_args(argv)


# -- passes ------------------------------------------------------------------


class Pass:
    def __init__(self, ops):
        self.ops = ops  # [(input id, Outcome)]
        self.wall = self.total("wall_s")

    def total(self, field):
        return sum(getattr(o, field) for _, o in self.ops)

    def refs(self, field):
        return sum(o.refs(field) for _, o in self.ops)


def run_pass(workload, pins, seed, index, tracer=None, tamper=None,
             clock=None):
    """One pass over every input in a seeded order, each operation timed
    and set against the probes of `clock` taken around it.  tamper, a map
    from input id to a function on the certificate text, is for the gate's
    negative controls."""
    clock = clock or RefClock(workload.probe)
    order = list(range(len(workload.inputs)))
    random.Random(f"{seed}/{index}").shuffle(order)
    gc.collect()
    ops, segment = [], []
    before = clock.probe()

    def close_segment():
        nonlocal before, segment
        after = clock.probe()
        for outcome in segment:
            outcome.ref_s = (before + after) / 2
        before, segment = after, []

    for i in order:
        if segment and clock.due():
            close_segment()
        key, payload = workload.inputs[i]
        if tracer is not None:
            tracer.input_id = key
        t0 = perf_counter()
        outcome = workload.run(payload, pins.get(key),
                               (tamper or {}).get(key))
        outcome.wall_s = perf_counter() - t0
        ops.append((key, outcome))
        segment.append(outcome)
    close_segment()
    return Pass(ops)


def run_passes(workload, pins, args, planned, start, tracer=None,
               between=None):
    """Up to `planned` passes, stopping early when the next one would end
    more than OVERRUN x --seconds after `start`; `between(index)` is called
    after each.  Returns the passes and, when traced, the layer values of
    each."""
    passes, layers = [], []
    clock = RefClock(workload.probe)
    for index in range(planned):
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(workload, pins, args.seed, index, tracer,
                               clock=clock))
        if tracer is not None:
            layers.append(tracer.layer_values())
        if between is not None:
            between(index)
        if perf_counter() - start + passes[-1].wall > OVERRUN * args.seconds:
            break
    return passes, layers


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count):
    """The highest listed percentile with TAIL_SAMPLES samples beyond it."""
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            return pct
    return PERCENTILES[-1]


def accounting(passes):
    attempted = sum(len(p.ops) for p in passes)
    failed = [(k, o.reason) for p in passes for k, o in p.ops
              if o.status == "failed"]
    refused = [(k, o.reason) for p in passes for k, o in p.ops
               if o.status == "refused"]
    return {
        "attempted": attempted,
        "failed": len(failed),
        "refused": len(refused),
        "fail_ratio": {"value": (len(failed) + len(refused)) / attempted,
                       "unit": "ratio", "base": attempted},
        "refused_inputs": sorted({f"{k} ({r})" for k, r in refused}),
        "failed_inputs": [f"{k}: {r}" for k, r in failed[:20]],
    }


def end_to_end(workload, passes, setup_s, rss_kb, planned):
    samples = sorted(o.refs("certify_s") + o.refs("verify_s")
                     for p in passes for _, o in p.ops if o.status == "ok")
    pct = tail_percentile(planned * len(workload.inputs))
    values = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(p.refs("wall_s") for p in passes),
        "certify_ref": statistics.median(p.refs("certify_s")
                                         for p in passes),
        "verify_ref": statistics.median(p.refs("verify_s") for p in passes),
        "op_p50_ref": statistics.median(samples),
        "op_tail_ref": nearest_rank(samples, pct),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    probes = sorted(o.ref_s for p in passes for _, o in p.ops)
    detail = {"op_samples": len(samples), "op_tail_percentile": pct,
              "passes": len(passes), "planned_passes": planned,
              "raw_seconds": {
                  "wall_s": statistics.median(p.wall for p in passes),
                  "certify_s": statistics.median(p.total("certify_s")
                                                 for p in passes),
                  "verify_s": statistics.median(p.total("verify_s")
                                                for p in passes),
                  "ref_s_range": [probes[0], probes[-1]]}}
    return values, detail


# -- fresh-process timings ---------------------------------------------------


def spawn(argv, log, peak=False):
    """Run a child to completion; returns its seconds and, with peak, its
    peak resident set (KiB)."""
    code, seconds, out, rss_kb = wl.run_child(argv, log, peak)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} ... exited {code}:\n{out}")
    return seconds, rss_kb


def spawn_seconds(argv, log):
    return spawn(argv, log)[0]


def peak_rss_kb(args, passes):
    """The workload process's peak resident set: of a fresh process that
    runs one pass without probes, whose allocations would otherwise set the
    peak; for cli, of the largest CLI child."""
    if args.workload == "cli":
        return max(o.peak_rss_kb for p in passes for _, o in p.ops)
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--rss-pass"]
    return spawn(argv, args.workdir / "rss.log", peak=True)[1]


class SetupTimer:
    """Times SETUP_SPAWNS fresh `--setup-only` processes, spread evenly
    over the planned passes so that their median samples the whole run,
    not one moment of the host's load."""

    def __init__(self, args, planned):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload",
                     args.workload, "--seed", str(args.seed), "--setup-only"]
        self.log = args.workdir / "setup.log"
        self.planned = planned
        self.times = []

    def spawn(self, count):
        self.times.extend(spawn_seconds(self.argv, self.log)
                          for _ in range(count))

    def after_pass(self, index):
        self.spawn((index + 1) * SETUP_SPAWNS // self.planned
                   - index * SETUP_SPAWNS // self.planned)

    def median(self):
        self.spawn(SETUP_SPAWNS - len(self.times))  # a plan cut short
        return statistics.median(self.times)


def cli_import_seconds(args):
    argv = [sys.executable, "-c", "import polyauto.cli"]
    return statistics.median(spawn_seconds(argv, args.workdir / "import.log")
                             for _ in range(IMPORT_SPAWNS))


# -- the traced run ----------------------------------------------------------


def traced_run(args, workload, pins, planned):
    """One untraced pass, then up to `planned` traced ones.  Counts come
    from the first traced pass (and must repeat in the others); times are
    medians; the spans are those of the last traced pass."""
    if workload.name == "cli":
        workload.in_process = True
    start = perf_counter()
    baseline = run_pass(workload, pins, args.seed, 0)
    tracer = Tracer()
    try:
        wrapped = tracer.install()
        traced, layers = run_passes(workload, pins, args, planned, start,
                                    tracer)
    finally:
        tracer.uninstall()
    spans = tracer.span_dump(start)
    values, unstable = {}, []
    for name, unit in LAYER_METRICS:
        got = [layer.get(name, 0) for layer in layers]
        if unit == "s":
            values[name] = statistics.median(got)
        else:
            values[name] = got[0]
            if any(g != got[0] for g in got):
                unstable.append(name)
    untraced = baseline.refs("wall_s")
    traced_wall = statistics.median(p.refs("wall_s") for p in traced)
    values["cli.import_s"] = cli_import_seconds(args)
    values["trace.wall_untraced_ref"] = untraced
    values["trace.wall_traced_ref"] = traced_wall
    values["trace.overhead_ref"] = traced_wall - untraced
    detail = {"passes": len(traced), "planned_passes": planned,
              "unstable_counts": unstable,
              "bindings_wrapped": wrapped}
    return [baseline] + traced, values, detail, spans


# -- output ------------------------------------------------------------------


def metadata(args, workload, planned):
    import polyauto
    from polyauto import kernels
    commit = None
    if (wl.ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "workload": workload.name,
        "commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "kernel_backend": kernels.BACKEND,
        "polyauto": polyauto.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "acceptance_seeds": list(wl.CORPUS_SEEDS),
        "seconds": args.seconds,
        "planned_passes": planned,
        "inputs": len(workload.inputs),
        "trace": args.trace,
    }


def source_digest():
    """SHA-256 over the library sources, for checkouts without git."""
    import hashlib
    h = hashlib.sha256()
    pkg = wl.SRC / "polyauto"
    for path in sorted(pkg.glob("*.py")) + sorted(pkg.glob("*.pyx")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure(args):
    workload = wl.WORKLOADS[args.workload](args)
    pins = wl.load_pins().get(wl.PIN_TABLE.get(args.workload), {})
    planned = max(1, int(args.seconds // workload.pass_seconds))
    meta = metadata(args, workload, planned)
    report = {"meta": meta}
    if args.trace:
        runs, values, detail, spans = traced_run(args, workload, pins, planned)
        units = dict(LAYER_METRICS)
        report["spans"] = spans
    else:
        setup = SetupTimer(args, planned)
        runs, _ = run_passes(workload, pins, args, planned, perf_counter(),
                             between=setup.after_pass)
        values, detail = end_to_end(workload, runs, setup.median(),
                                    peak_rss_kb(args, runs), planned)
        units = END_TO_END_UNITS
    acct = accounting(runs)
    report.update(detail=detail, accounting=acct,
                  passes=[{"wall_s": p.wall,
                           "ops": [[k, o.status, o.certify_s, o.verify_s,
                                    o.ref_s, o.reason] for k, o in p.ops]}
                          for p in runs])
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(HERE / "out" / name, "w") as fh:
        json.dump(report, fh)
    print(json.dumps({"meta": meta, "detail": detail}))
    print(json.dumps({"accounting": acct}))
    for key in sorted(values):
        print(f"# {key:52s} {values[key]:>14.6g} {units[key]}")
    print(json.dumps({
        "correct": acct["failed"] == 0,
        "attempted": acct["attempted"],
        "failed": acct["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    wl.require_sources()
    args.workdir = HERE / "out" / f"work-{os.getpid()}"
    if args.setup_only:
        import polyauto  # noqa: F401
        wl.WORKLOADS[args.workload](args)
        return 0
    if args.rss_pass:
        workload = wl.WORKLOADS[args.workload](args)
        pins = wl.load_pins().get(wl.PIN_TABLE.get(args.workload), {})
        run_pass(workload, pins, args.seed, 0, clock=NoProbes())
        return 0
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
