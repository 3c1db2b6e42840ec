"""Span tracing of the ftconsensus layers, installed from outside the package.

The tracer wraps public functions of ``graph``, ``protocols``, ``dynamics``,
``analysis``, ``config`` and ``cli`` at every place they are bound: each
module that imported a function by name holds its own reference, so the
tracer scans every loaded ``ftconsensus`` module for the original object
and replaces each binding.  Methods are wrapped on their class.  Targets a
later version of the package no longer has are skipped, and their metrics
read 0.

A span is (name, start, end, parent span, op id).  Spans stay in memory and
are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct child spans.  The hot scalar
functions ``evaluate`` and ``antiderivative`` get count-only wrappers, so
their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

# (metric name, module, attribute, class or None, mode); mode "span" records
# a span, "count" only counts calls
TARGETS = (
    ("graph.condensation", "ftconsensus.graph", "condensation", None, "span"),
    ("graph.left_null_vector", "ftconsensus.graph", "left_null_vector", None, "span"),
    ("graph.mirror_laplacian", "ftconsensus.graph", "mirror_laplacian", None, "span"),
    ("graph.laplacian", "ftconsensus.graph", "laplacian", None, "span"),
    ("protocols.bank_eval", "ftconsensus.protocols", "eval", "ProtocolBank", "span"),
    ("protocols.antiderivatives", "ftconsensus.protocols", "antiderivatives", "ProtocolBank", "span"),
    ("protocols.evaluate", "ftconsensus.protocols", "evaluate", None, "count"),
    ("protocols.antiderivative", "ftconsensus.protocols", "antiderivative", None, "count"),
    ("protocols.ratio_min", "ftconsensus.protocols", "_ratio_min_single", None, "span"),
    ("protocols.check_a1", "ftconsensus.protocols", "check_a1", None, "span"),
    ("protocols.check_a2", "ftconsensus.protocols", "check_a2", None, "span"),
    ("dynamics.integrate", "ftconsensus.dynamics", "integrate", None, "span"),
    ("dynamics.lyapunov_trace", "ftconsensus.dynamics", "lyapunov_trace", None, "span"),
    ("dynamics.lyapunov_value", "ftconsensus.dynamics", "lyapunov_value", None, "span"),
    ("analysis.certify", "ftconsensus.analysis", "certify", None, "span"),
    ("analysis.constants_for_bank", "ftconsensus.analysis", "constants_for_bank", None, "span"),
    ("analysis.estimate_c1", "ftconsensus.analysis", "estimate_c1", None, "span"),
    ("analysis.settling_bound_rooted", "ftconsensus.analysis", "settling_bound_rooted", None, "span"),
    ("config.load_config", "ftconsensus.config", "load_config", None, "span"),
    ("cli", "ftconsensus.cli", "main", None, "span"),
    ("cli.write_text", "ftconsensus.cli", "_write_text", None, "count"),
)

# per-layer metrics, all normalised per pass of the workload's op mix
LAYER_METRICS = (
    ("graph.condensation.calls", "count"),
    ("graph.condensation.self_s", "s"),
    ("graph.left_null_vector.calls", "count"),
    ("graph.left_null_vector.self_s", "s"),
    ("graph.mirror_laplacian.self_s", "s"),
    ("graph.laplacian.calls", "count"),
    ("protocols.bank_eval.calls", "count"),
    ("protocols.bank_eval.self_s", "s"),
    ("protocols.bank_eval.ns_per_agent_eval", "ns"),
    ("protocols.antiderivatives.calls", "count"),
    ("protocols.antiderivatives.self_s", "s"),
    ("protocols.evaluate.calls", "count"),
    ("protocols.antiderivative.calls", "count"),
    ("protocols.ratio_min.calls", "count"),
    ("protocols.ratio_min.self_s", "s"),
    ("protocols.ratio_min.distinct_share", "ratio"),
    ("protocols.check_a1.self_s", "s"),
    ("protocols.check_a2.self_s", "s"),
    ("dynamics.integrate.self_s", "s"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.us_per_step", "us"),
    ("dynamics.records", "count"),
    ("dynamics.frozen_tail_share", "ratio"),
    ("dynamics.lyapunov_trace.self_s", "s"),
    ("dynamics.lyapunov_value.calls", "count"),
    ("analysis.certify.self_s", "s"),
    ("analysis.constants_for_bank.self_s", "s"),
    ("analysis.estimate_c1.a_posteriori.self_s", "s"),
    ("analysis.estimate_c1.a_priori.self_s", "s"),
    ("analysis.settling_bound_rooted.calls", "count"),
    ("analysis.settling_bound_rooted.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "count"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Collects spans and counters; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        # one row per finished span: name id, start ns, end ns, parent span id, op id
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self._stack: list = []  # frames [span id, child span ns]
        self._next_span = 0
        self.op = -1
        self.cycle = -1
        self.counts: dict = {}
        # layer observations made from arguments and results
        self.bank_eval_elements = 0
        self.ratio_min_keys: set = set()
        self.rk4_steps = 0
        self.integrate_ns = 0
        self.records = 0
        self.frozen_records = 0
        self.installed: list = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    # -- wrappers ---------------------------------------------------------

    def _timed(self, nid: int, fn, args, kwargs, observe=None):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = self._next_span
        self._next_span += 1
        frame = [sid, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            self.calls[nid] += 1
            self.total_ns[nid] += dur
            self.self_ns[nid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            self.span_id.append(sid)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
        if observe is not None:
            observe(args, kwargs, result, dur)
        return result

    def span(self, name: str, fn, observe=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(nid, fn, args, kwargs, observe)

        return wrapper

    def count(self, name: str, fn, observe=None):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result, 0)
            return result

        return wrapper

    def run_op(self, name: str, fn, *args):
        """Run one benchmark op as a root span tagged with a fresh op id."""
        self.op += 1
        return self._timed(self._intern(name), fn, args, {})

    # -- observers --------------------------------------------------------

    def _observe_bank_eval(self, args, kwargs, result, dur):
        self.bank_eval_elements += int(np.size(args[1]))

    def _observe_ratio_min(self, args, kwargs, result, dur):
        f, M, alpha = args[0], args[1], args[2]
        self.ratio_min_keys.add((self.cycle, f, float(M), float(alpha), args[3:]))

    def _observe_integrate(self, args, kwargs, result, dur):
        cfg, traj = args[0], result
        n_steps = max(1, int(round(cfg.t_max / cfg.dt)))
        frozen = cfg.freeze_on_consensus and traj.settled_at is not None
        # with the freeze rule the freeze step is always recorded, and it is
        # the first record within eps, so settled_at marks the last RK4 step
        self.rk4_steps += int(round(traj.settled_at / cfg.dt)) if frozen else n_steps
        self.integrate_ns += dur
        self.records += int(traj.times.size)
        if frozen:
            self.frozen_records += int(np.count_nonzero(traj.times > traj.settled_at))

    def _observe_write(self, args, kwargs, result, dur):
        self.counts["cli.bytes_written"] = (
            self.counts.get("cli.bytes_written", 0) + len(args[1].encode("utf-8")))

    # -- installation -----------------------------------------------------

    def _make_wrapper(self, metric: str, mode: str, fn):
        if metric == "analysis.estimate_c1":
            ids = {m: self._intern(f"analysis.estimate_c1.{m}") for m in ("a_priori", "a_posteriori")}

            @functools.wraps(fn)
            def by_mode(*args, **kwargs):
                mode_arg = kwargs.get("mode", args[1] if len(args) > 1 else "a_priori")
                return self._timed(ids.get(mode_arg, ids["a_priori"]), fn, args, kwargs)

            return by_mode
        observers = {
            "protocols.bank_eval": self._observe_bank_eval,
            "protocols.ratio_min": self._observe_ratio_min,
            "dynamics.integrate": self._observe_integrate,
            "cli.write_text": self._observe_write,
        }
        make = self.span if mode == "span" else self.count
        return make(metric, fn, observers.get(metric))

    def install(self):
        """Wrap every binding of every target; returns the metric names wrapped."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ftconsensus" or name.startswith("ftconsensus."))]
        wrapped = []
        for metric, module_name, attr, cls_name, mode in TARGETS:
            module = sys.modules.get(module_name)
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._make_wrapper(metric, mode, original)
            if cls_name:
                self._set(owner, attr, original, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
            wrapped.append(metric)
        return wrapped

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- results ----------------------------------------------------------

    def _agg(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer values per pass of the op mix (``trace.overhead_frac`` excluded)."""
        per = 1.0 / max(cycles, 1)
        out = {}
        for metric, _ in LAYER_METRICS:
            base, _, leaf = metric.rpartition(".")
            if leaf == "calls":
                calls = self.counts[base] if base in self.counts else self._agg(base)[0]
                out[metric] = calls * per
            elif leaf == "self_s":
                out[metric] = self._agg(base)[2] * 1e-9 * per
        _, total, _ = self._agg("protocols.bank_eval")
        out["protocols.bank_eval.ns_per_agent_eval"] = total / max(self.bank_eval_elements, 1)
        rm_calls = self._agg("protocols.ratio_min")[0]
        out["protocols.ratio_min.distinct_share"] = len(self.ratio_min_keys) / max(rm_calls, 1)
        out["dynamics.rk4_steps"] = self.rk4_steps * per
        out["dynamics.us_per_step"] = self.integrate_ns * 1e-3 / max(self.rk4_steps, 1)
        out["dynamics.records"] = self.records * per
        out["dynamics.frozen_tail_share"] = self.frozen_records / max(self.records, 1)
        out["cli.bytes_written"] = self.counts.get("cli.bytes_written", 0) * per
        return out

    def write_spans(self, path):
        doc = {
            "names": self.names,
            "columns": ["span", "name", "start_ns", "end_ns", "parent", "op"],
            "span": self.span_id.tolist(),
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
