"""Per-layer tracing for the traced benchmark runs.

The wrappers time calls into each module's public functions from outside
the library: `src/` is not edited.  A function imported by name into other
modules (``compose`` lives in ``autos`` but is also bound in
``certificates``, ``wordbuild``, ``cotame``, ``lnd``, ``reduce_core``,
``identities``, ``cli`` and the package root) is wrapped on every module
attribute that binds it, otherwise most calls would be missed.  Methods are
wrapped on their class.

Every wrapped call records a span (name, start, end, parent, input id).
Spans are kept in memory and written out when the run ends; self time is a
span's duration minus the part of it that its child spans cover, kept as a
running sum so that no span list is needed for the aggregates.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (metric prefix, module in polyauto, attribute, class name or None, the
# extra counters kept for it)
TARGETS = (
    ("kernels.mul_terms_obj", "kernels", "mul_terms_obj", None, "kernel"),
    ("kernels.mul_terms_ext", "kernels", "mul_terms_ext", None, "kernel"),
    ("poly.substitute", "poly", "substitute", "Polynomial", "substitute"),
    ("poly.mul", "poly", "__mul__", "Polynomial", None),
    ("poly.scale", "poly", "scale", "Polynomial", None),
    ("autos.compose", "autos", "compose", None, "compose"),
    ("autos.invert_endo", "autos", "invert_endo", None, None),
    ("autos.jacobian_det", "autos", "jacobian_det", None, None),
    ("autos.expand", "autos", "expand", "FactoredAuto", None),
    ("autos.classify", "autos", "classify", None, None),
    ("textio.parse_polynomial", "textio", "parse_polynomial", None, None),
    ("textio.parse_factored", "textio", "parse_factored", None, None),
    ("certificates.serialize", "certificates",
     "serialize_certificate", None, "serialize"),
    ("certificates.parse", "certificates", "parse_certificate", None, "parse"),
    ("certificates.verify", "certificates",
     "verify_certificate", None, "verify"),
    ("wordbuild.add_step", "wordbuild", "add_step", "CertBuilder", None),
    ("wordbuild.add_seed", "wordbuild", "add_seed", "CertBuilder", None),
    ("reduce_core.find_noncommuting_c", "reduce_core",
     "find_noncommuting_c", None, "probe"),
    ("reduce_core.reduce_triangular_ref", "reduce_core",
     "reduce_triangular_ref", None, None),
    ("reduce_core.reduce_parabolic_ref", "reduce_core",
     "reduce_parabolic_ref", None, None),
    ("cotame.certify", "cotame", "certify_normally_cotame", None, None),
    ("cotame.normalize_m_triangular", "cotame",
     "normalize_m_triangular", None, None),
    ("lnd.exp_automorphism", "lnd", "exp_automorphism", None, None),
    ("lnd.reduce_triangular_exponential_ref", "lnd",
     "reduce_triangular_exponential_ref", None, None),
    ("slin.from_monomial_elementary", "slin",
     "slin_from_monomial_elementary", None, "slin"),
    ("slin.translation_from_any", "slin", "translation_from_any", None, None),
    ("cli.main", "cli", "main", None, None),
)

# The per-layer metrics every traced run prints, as (name, unit).  The
# first group comes from the wrappers above; the rest are measured by the
# runner.  BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("kernels.mul_terms_obj.calls", "count"),
    ("kernels.mul_terms_obj.self_s", "s"),
    ("kernels.mul_terms_obj.pairs", "count"),
    ("kernels.mul_terms_obj.out_terms", "count"),
    ("kernels.mul_terms_ext.calls", "count"),
    ("kernels.mul_terms_ext.self_s", "s"),
    ("kernels.mul_terms_ext.pairs", "count"),
    ("kernels.mul_terms_ext.out_terms", "count"),
    ("poly.substitute.calls", "count"),
    ("poly.substitute.total_s", "s"),
    ("poly.substitute.self_s", "s"),
    ("poly.substitute.out_terms_max", "count"),
    ("poly.substitute.swell", "ratio"),
    ("poly.substitute.coeff_bits_max", "bits"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.scale.calls", "count"),
    ("poly.scale.self_s", "s"),
    ("autos.compose.calls", "count"),
    ("autos.compose.total_s", "s"),
    ("autos.compose.self_s", "s"),
    ("autos.invert_endo.calls", "count"),
    ("autos.invert_endo.total_s", "s"),
    ("autos.jacobian_det.calls", "count"),
    ("autos.jacobian_det.total_s", "s"),
    ("autos.expand.calls", "count"),
    ("autos.expand.total_s", "s"),
    ("autos.classify.calls", "count"),
    ("autos.classify.total_s", "s"),
    ("certificates.serialize.calls", "count"),
    ("certificates.serialize.total_s", "s"),
    ("certificates.serialize.bytes", "bytes"),
    ("certificates.parse.calls", "count"),
    ("certificates.parse.total_s", "s"),
    ("certificates.parse.bytes", "bytes"),
    ("textio.parse_polynomial.calls", "count"),
    ("textio.parse_polynomial.total_s", "s"),
    ("textio.parse_factored.calls", "count"),
    ("textio.parse_factored.total_s", "s"),
    ("certificates.verify.calls", "count"),
    ("certificates.verify.total_s", "s"),
    ("certificates.verify.self_s", "s"),
    ("certificates.verify.checks", "count"),
    ("certificates.verify.steps", "count"),
    ("wordbuild.add_step.calls", "count"),
    ("wordbuild.add_step.total_s", "s"),
    ("wordbuild.add_step.self_s", "s"),
    ("wordbuild.add_seed.calls", "count"),
    ("wordbuild.add_seed.total_s", "s"),
    ("reduce_core.find_noncommuting_c.calls", "count"),
    ("reduce_core.find_noncommuting_c.total_s", "s"),
    ("reduce_core.find_noncommuting_c.composes_per_call", "count/call"),
    ("reduce_core.reduce_triangular_ref.total_s", "s"),
    ("reduce_core.reduce_parabolic_ref.total_s", "s"),
    ("cotame.certify.calls", "count"),
    ("cotame.certify.total_s", "s"),
    ("cotame.normalize_m_triangular.total_s", "s"),
    ("lnd.exp_automorphism.calls", "count"),
    ("lnd.exp_automorphism.total_s", "s"),
    ("lnd.reduce_triangular_exponential_ref.total_s", "s"),
    ("slin.from_monomial_elementary.calls", "count"),
    ("slin.from_monomial_elementary.total_s", "s"),
    ("slin.from_monomial_elementary.steps", "count"),
    ("slin.translation_from_any.calls", "count"),
    ("slin.translation_from_any.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.total_s", "s"),
    ("cli.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_untraced_ref", "ref"),
    ("trace.wall_traced_ref", "ref"),
    ("trace.overhead_ref", "ref"),
)

SPAN_LIMIT = 100_000  # spans kept per run; the aggregates are always exact
_RAISED = object()


class Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def peak(self, key, value):
        if value > self.extra.get(key, 0):
            self.extra[key] = value


def coeff_bits(payload) -> int:
    """Bit size of one coefficient payload: an int residue, a tuple of
    residues, or a Fraction (the larger of numerator and denominator)."""
    if isinstance(payload, int):
        return abs(payload).bit_length()
    if isinstance(payload, tuple):
        return max((abs(x).bit_length() for x in payload), default=0)
    return max(abs(payload.numerator).bit_length(),
               payload.denominator.bit_length())


class Tracer:
    """Holds the spans and per-name aggregates of one traced pass."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.reset()
        self._installed = []  # (owner, attribute, original)

    def reset(self):
        self.stats = {name: Stat() for name in self.names}
        self.stack = []  # one [child time, span index] frame per open span
        self.spans = []  # (name index, start, end, parent span, input id)
        self.span_count = 0
        self.input_id = None
        self.kernel_out = 0  # running sum of kernel output terms
        self.composes = 0    # running sum of compose calls

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; returns the number of bindings wrapped."""
        for target in TARGETS:
            importlib.import_module(f"polyauto.{target[1]}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "polyauto" or name.startswith("polyauto."))
                   and m is not None]
        for index, (name, modname, attr, cls, kind) in enumerate(TARGETS):
            owner = sys.modules[f"polyauto.{modname}"]
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._set(owner, attr, original,
                          self._wrap(index, original, kind))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)
        return len(self._installed)

    def _set(self, owner, attr, original, wrapper):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, index, fn, kind):
        name = self.names[index]
        tracer = self

        def traced(*args, **kwargs):
            stat = tracer.stats[name]
            stack = tracer.stack
            span = tracer.span_count
            tracer.span_count += 1
            frame = [0.0, span]  # [child time, span index]
            stat.depth += 1
            mark_out = tracer.kernel_out
            mark_comp = tracer.composes
            stack.append(frame)
            result = _RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                stat.calls += 1
                stat.self_time += duration - frame[0]
                if not stat.depth:
                    stat.total += duration
                if span < SPAN_LIMIT:
                    tracer.spans.append((index, start, end,
                                         stack[-1][1] if stack else -1,
                                         tracer.input_id))
                if kind is not None and result is not _RAISED:
                    # counting is tracing cost: keep it out of the
                    # parent's self time
                    hook_start = perf_counter()
                    tracer._count(kind, stat, args, result, mark_out,
                                  mark_comp)
                    duration += perf_counter() - hook_start
                if stack:
                    stack[-1][0] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, kind, stat, args, result, mark_out, mark_comp):
        if kind == "kernel":
            stat.add("pairs", len(args[0]) * len(args[1]))
            stat.add("out_terms", len(result))
            self.kernel_out += len(result)
        elif kind == "substitute":
            terms = len(result.terms)
            stat.peak("out_terms_max", terms)
            stat.add("kernel_out", self.kernel_out - mark_out)
            stat.add("result_terms", terms)
            stat.peak("coeff_bits_max", max(
                (coeff_bits(c) for c in result.terms.values()), default=0))
        elif kind == "compose":
            self.composes += 1
        elif kind == "probe":
            stat.add("composes", self.composes - mark_comp)
        elif kind in ("serialize", "parse"):
            text = result if kind == "serialize" else args[0]
            stat.add("bytes", len(text.encode()))
        elif kind == "verify":
            stat.add("checks", len(result.records))
            stat.add("steps", len(args[0].steps))
        elif kind == "slin":
            stat.add("steps", len(result.steps))

    # -- results ------------------------------------------------------------

    def layer_values(self):
        """The wrapper-derived per-layer metrics of the current pass."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.total_s"] = stat.total
            out[f"{name}.self_s"] = stat.self_time
            for key, value in stat.extra.items():
                out[f"{name}.{key}"] = value
        sub = self.stats["poly.substitute"].extra
        out["poly.substitute.swell"] = (
            sub.get("kernel_out", 0) / sub["result_terms"]
            if sub.get("result_terms") else 0.0)
        probe = self.stats["reduce_core.find_noncommuting_c"]
        out["reduce_core.find_noncommuting_c.composes_per_call"] = (
            probe.extra.get("composes", 0) / probe.calls
            if probe.calls else 0.0)
        out["trace.spans"] = self.span_count
        return out

    def span_dump(self, origin):
        """Kept spans as JSON-ready rows, times in seconds from origin."""
        return {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "input"],
            "spans": [[i, round(s - origin, 7), round(e - origin, 7), p, inp]
                      for i, s, e, p, inp in self.spans],
            "kept": len(self.spans),
            "total": self.span_count,
        }
