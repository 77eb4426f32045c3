"""Span tracer for the benchmark: wraps the package's public functions from outside.

Each wrapper is bound at every name a caller looks up: a function imported
into several modules (``displaced_solution`` lives in ``lindblad`` and is
imported by ``sweep`` and ``cli``) is replaced in every ``blockadesim``
module namespace that holds it, and a method is replaced on its class.
Spans (name, start, end, parent, extra) are kept in memory and written
out when the workload ends; ``layer_metrics`` turns them into the
per-layer metrics listed in ``PER_LAYER``.

This module imports nothing from numpy or the package at import time, so
the child interpreter can load it before its set-up timer starts.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


def _steady_state_name(args, kwargs):
    L = args[0] if args else kwargs["L"]
    return "lindblad.steady_state_sparse" if L.is_sparse else "lindblad.steady_state_dense"


def _trace_bytes(args, kwargs, result):
    t = args[0] if args else kwargs["t"]
    return {"bytes": t.X_r.nbytes + t.Y_r.nbytes, "samples": t.packet_size}


# (span name or name function, dotted target, extra-recorder or None).
# The extra-recorder sees (args, kwargs, result) and returns a dict of
# numbers stored on the span.
TARGETS = (
    ("config.load_config", "blockadesim.config.load_config", None),
    ("cli.derive_device", "blockadesim.cli.derive_device", None),
    ("cli.write", "blockadesim.cli.write_csv", None),
    ("cli.write", "blockadesim.cli.write_json", None),
    ("hilbert.two_mode_annihilators", "blockadesim.hilbert.two_mode_annihilators", None),
    ("hilbert.validate", "blockadesim.hilbert.DensityMatrix.validate", None),
    ("lindblad.displaced_solution", "blockadesim.lindblad.displaced_solution", None),
    ("lindblad.mean_field_steady_state", "blockadesim.lindblad.mean_field_steady_state", None),
    ("lindblad.build_liouvillian", "blockadesim.lindblad.build_liouvillian",
     lambda args, kwargs, L: {"side": L.side}),
    (_steady_state_name, "blockadesim.lindblad.steady_state", None),
    ("lindblad.observables", "blockadesim.lindblad.observables", None),
    ("lindblad.two_time_correlations", "blockadesim.lindblad.two_time_correlations", None),
    ("sweep.solve_point", "blockadesim.sweep.solve_point", None),
    ("sweep.minimize_g2", "blockadesim.sweep.minimize_g2", None),
    ("sweep.nelder_mead", "blockadesim.sweep.minimize",
     lambda args, kwargs, res: {"evals": res.nfev}),
    ("gaussian.gaussian_params_from_moments",
     "blockadesim.gaussian.gaussian_params_from_moments", None),
    ("gaussian.g2prime_from_fourth_moments",
     "blockadesim.gaussian.g2prime_from_fourth_moments", None),
    ("gaussian.g2_tau", "blockadesim.gaussian.g2_tau", None),
    ("measurement.synth_traces", "blockadesim.measurement.synth_traces",
     lambda args, kwargs, t: {"bytes": t.X_r.nbytes + t.Y_r.nbytes}),
    ("measurement.estimate_moments", "blockadesim.measurement.estimate_moments", _trace_bytes),
    ("measurement.calibrate_correct", "blockadesim.measurement.calibrate", None),
    ("measurement.calibrate_correct", "blockadesim.measurement.correct_moments", None),
    ("measurement.packet_statistics", "blockadesim.measurement.packet_statistics", None),
)

# Per-layer metrics: (name, unit, the end-to-end metric and workloads it should move).
PER_LAYER = (
    ("config.load_config.self_s", "s", "setup_s on all"),
    ("cli.write.self_s", "s", "wall_s on envelope, measure"),
    ("cli.derive_device.calls", "count", "nothing (under 10 ms)"),
    ("cli.derive_device.self_s", "s", "nothing (under 10 ms)"),
    ("hilbert.two_mode_annihilators.calls", "count", "wall_s on envelope"),
    ("hilbert.two_mode_annihilators.self_s", "s", "wall_s on envelope"),
    ("hilbert.validate.calls", "count", "wall_s on envelope"),
    ("hilbert.validate.self_s", "s", "wall_s on envelope"),
    ("lindblad.mean_field_steady_state.calls", "count", "wall_s on envelope; none on measure"),
    ("lindblad.mean_field_steady_state.self_s", "s", "wall_s on envelope; none on measure"),
    ("lindblad.build_liouvillian.calls", "count", "wall_s on envelope; none on measure"),
    ("lindblad.build_liouvillian.self_s", "s", "wall_s on envelope; none on measure"),
    ("lindblad.build_liouvillian.p50_ms", "ms", "wall_s on envelope; none on measure"),
    ("lindblad.build_liouvillian.p99_ms", "ms", "wall_s on envelope; none on measure"),
    ("lindblad.steady_state_dense.calls", "count", "wall_s on envelope; none on measure"),
    ("lindblad.steady_state_dense.self_s", "s", "wall_s on envelope; none on measure"),
    ("lindblad.steady_state_dense.p50_ms", "ms", "wall_s on envelope; none on measure"),
    ("lindblad.steady_state_dense.p99_ms", "ms", "wall_s on envelope; none on measure"),
    ("lindblad.observables.calls", "count", "wall_s on envelope; none on measure"),
    ("lindblad.observables.self_s", "s", "wall_s on envelope; none on measure"),
    ("lindblad.steady_state_sparse.calls", "count", "wall_s on oracle"),
    ("lindblad.steady_state_sparse.self_s", "s", "wall_s on oracle"),
    ("lindblad.two_time_correlations.calls", "count", "wall_s on oracle"),
    ("lindblad.two_time_correlations.self_s", "s", "wall_s on oracle"),
    ("lindblad.superop_side.max", "count", "wall_s on oracle"),
    ("sweep.solve_point.calls", "count", "wall_s on envelope"),
    ("sweep.solve_point.p50_ms", "ms", "wall_s on envelope"),
    ("sweep.solve_point.p99_ms", "ms", "wall_s on envelope"),
    ("sweep.minimize_g2.total_s", "s", "wall_s on envelope"),
    ("sweep.nelder_mead.calls", "count", "wall_s on envelope"),
    ("sweep.nelder_mead.total_s", "s", "wall_s on envelope"),
    ("sweep.nelder_mead.evals", "count", "wall_s on envelope"),
    ("gaussian.gaussian_params_from_moments.calls", "count", "wall_s on measure"),
    ("gaussian.gaussian_params_from_moments.self_s", "s", "wall_s on measure"),
    ("gaussian.g2prime_from_fourth_moments.calls", "count", "wall_s on measure"),
    ("gaussian.g2prime_from_fourth_moments.self_s", "s", "wall_s on measure"),
    ("gaussian.g2_tau.self_s", "s", "wall_s on oracle"),
    ("measurement.synth_traces.calls", "count", "wall_s on measure"),
    ("measurement.synth_traces.self_s", "s", "wall_s on measure"),
    ("measurement.synth_traces.bytes_computed", "B", "wall_s on measure"),
    ("measurement.estimate_moments.calls", "count", "wall_s and peak_rss_mb on measure"),
    ("measurement.estimate_moments.self_s", "s", "wall_s and peak_rss_mb on measure"),
    ("measurement.estimate_moments.bytes_computed", "B", "wall_s and peak_rss_mb on measure"),
    ("measurement.estimate_moments.samples_per_s", "1/s", "wall_s and peak_rss_mb on measure"),
    ("measurement.calibrate_correct.self_s", "s", "wall_s on measure"),
    ("measurement.packet_statistics.self_s", "s", "wall_s on measure"),
    ("trace.coverage_frac", "frac", "none: root spans over traced wall_s, kept >= 0.9"),
    ("trace.overhead_frac", "frac", "none: traced over untraced wall_s, minus 1"),
)

# metric prefixes that read the extras of another span
SPAN_OF = {"lindblad.superop_side": "lindblad.build_liouvillian"}


class Tracer:
    """In-memory span recorder; ``install`` wraps every target it can find."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, extra]
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0, 0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for name, target, extra in TARGETS:
            module_name, _, attr = target.rpartition(".")
            owner = None
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                # a method: the owner is a class inside the module
                mod_name, _, cls_name = module_name.rpartition(".")
                try:
                    owner = getattr(importlib.import_module(mod_name), cls_name)
                except (ImportError, AttributeError):
                    owner = None
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(target)
                continue
            wrapped = self._wrap(fn, name, extra)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "blockadesim" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def dump(self, path, body_ns):
        """Write the spans; body_ns is the (start, end) of the timed workload body."""
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "body_ns": list(body_ns),
                       "spans": [{"name": s[0], "start_ns": s[1], "end_ns": s[2],
                                  "parent": s[3], "extra": s[4]} for s in self.spans]}, fh)


def _percentile_ms(durations_ns, q):
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    cuts = statistics.quantiles(durations_ns, n=100, method="inclusive")
    return cuts[q - 1] / 1e6


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float):
    """Per-layer metrics from a dumped trace.

    trace.coverage_frac is the time under root spans inside the workload
    body (set-up spans excluded) over the traced wall_s.

    Returns (metrics, percentiles, absent): metrics maps each PER_LAYER name
    whose span target exists to its value; percentiles gives every span's
    p50/p99 in ms with the sample count they rest on; absent lists the
    metric names whose target no longer exists in the package.
    """
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name: dict[str, dict] = {}
    root_ns = 0
    for i, s in enumerate(spans):
        dur = s["end_ns"] - s["start_ns"]
        agg = by_name.setdefault(s["name"], {"durations": [], "self_ns": 0, "extra": {}})
        agg["durations"].append(dur)
        agg["self_ns"] += dur - child_ns[i]
        for key, value in (s["extra"] or {}).items():
            agg["extra"].setdefault(key, []).append(value)
        if s["parent"] < 0 and s["start_ns"] >= trace["body_ns"][0]:
            root_ns += dur

    absent_spans = set()
    for name, target, _ in TARGETS:
        if target in trace["absent"]:
            absent_spans.update([name] if isinstance(name, str) else
                                ["lindblad.steady_state_dense", "lindblad.steady_state_sparse"])

    metrics, absent = {}, []
    for metric, unit, _ in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        span = SPAN_OF.get(span, span)
        if span == "trace":
            value = (root_ns / 1e9 / traced_wall_s if stat == "coverage_frac"
                     else traced_wall_s / untraced_wall_s - 1.0)
        elif span in absent_spans:
            absent.append(metric)
            continue
        else:
            agg = by_name.get(span, {"durations": [], "self_ns": 0, "extra": {}})
            durations, extra = agg["durations"], agg["extra"]
            if stat == "calls":
                value = len(durations)
            elif stat == "self_s":
                value = agg["self_ns"] / 1e9
            elif stat == "total_s":
                value = sum(durations) / 1e9
            elif stat in ("p50_ms", "p99_ms"):
                value = _percentile_ms(durations, int(stat[1:3]))
            elif stat == "max":
                value = max(extra.get("side", [0]))
            elif stat == "evals":
                value = sum(extra.get("evals", []))
            elif stat == "bytes_computed":
                value = sum(extra.get("bytes", []))
            elif stat == "samples_per_s":
                value = sum(extra.get("samples", [])) / (agg["self_ns"] / 1e9) if agg["self_ns"] else 0.0
            else:
                raise ValueError(f"unknown statistic in per-layer metric {metric}")
        metrics[metric] = {"value": value, "unit": unit}

    percentiles = {name: {"n": len(agg["durations"]),
                          "p50_ms": _percentile_ms(agg["durations"], 50),
                          "p99_ms": _percentile_ms(agg["durations"], 99)}
                   for name, agg in sorted(by_name.items())}
    return metrics, percentiles, absent
