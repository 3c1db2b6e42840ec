"""The workload process: one client running the op mix in a closed loop.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 in its
environment.  Each op goes through ``ftconsensus.cli.main(argv)`` in this
process (or, for ``estimate_c1``, a direct library call); the next op starts
when the previous one returns.  Passes over the op mix start while fewer
than ``--seconds`` have elapsed, so every pass is complete.

Prints one JSON object on stdout: latency samples per op kind, pass times,
op counts, the first failures, digests of the first pass's outputs, peak
RSS and library versions, plus the per-layer values when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import ftconsensus
    from ftconsensus import analysis, cli, graph

    if Path(ftconsensus.__file__).resolve().parent != (ROOT / "src" / "ftconsensus").resolve():
        raise SystemExit(f"imported ftconsensus from {ftconsensus.__file__}, not from this checkout")
    return cli, analysis, graph


def _digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


class Runner:
    def __init__(self, workload, workdir: Path, tracer=None):
        self.cli, self.analysis, graph = _import_package()
        self.w = workload
        self.workdir = workdir
        self.tracer = tracer
        self.paths = {key: workdir / f"{key}.json" for key in workload.configs}
        self.samples = {op.kind: [] for op in workload.ops}
        self.cycles = []
        self.attempted = self.failed = self.wrong = 0
        self.failures = []
        self.digests = {}
        self.demo_reference = None
        self.c1_args = None
        if any(op.kind == "estimate_c1" for op in workload.ops):
            import numpy as np

            # the mirror Laplacian of the root SCC, built before any timing
            g = self.cli.load_config(self.paths["freeze"]).graph()
            root = graph.condensation(g).components[0]
            g_root = g.subgraph(root)
            B = graph.mirror_laplacian(g_root, graph.left_null_vector(g_root))
            eig = np.linalg.eigvalsh(B)
            self.c1_args = (B, float(eig[0]), float(eig[-1]))

    def _argv(self, op, out: Path) -> list:
        if op.kind in ("simulate", "simulate_nofreeze"):
            return ["simulate", str(self.paths[op.cfg]), "--out", str(out)]
        if op.kind == "certify":
            return ["certify", str(self.paths[op.cfg]), "--out", str(out)]
        if op.kind == "check_protocol":
            return ["check-protocol", "--spec", workloads.LOGPOWER_SPEC, "--bound", repr(self.w.bound)]
        if op.kind == "demo_paper":
            return ["demo-paper", "--out", str(out)]
        raise ValueError(op.kind)

    def _call(self, kind: str, fn, *args):
        if self.tracer is not None:
            return self.tracer.run_op(f"op.{kind}", fn, *args)
        return fn(*args)

    def _run_op(self, op, state: dict):
        """Run one op; returns (seconds, error message or None, wrong output?)."""
        out = self.workdir / f"out-{op.kind}"
        if op.kind == "estimate_c1":
            B, lo, hi = self.c1_args
            t0 = time.perf_counter()
            value, _ = self._call(op.kind, self.analysis.estimate_c1, B, "a_priori")
            dt = time.perf_counter() - t0
            try:
                checks.check_c1(value, lo, hi)
            except checks.WrongOutput as exc:
                return dt, str(exc), True
            return dt, None, False

        argv = self._argv(op, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = self._call(op.kind, self.cli.main, argv)
            except Exception as exc:  # the CLI would die with a traceback: a failed op
                rc, stderr = "traceback", io.StringIO(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
        if rc != 0:
            msg = (stderr.getvalue().strip() or stdout.getvalue().strip()).splitlines()
            return dt, f"exit {rc}: {msg[-1] if msg else ''}", False
        try:
            if op.kind in ("simulate", "simulate_nofreeze"):
                summary = checks.check_simulate(out, self.w.configs[op.cfg])
                state[op.cfg] = summary["settled_at"]
            elif op.kind == "certify":
                checks.check_certify(out, self.w.configs[op.cfg], state.get(op.cfg, False))
            elif op.kind == "check_protocol":
                checks.check_protocol_stdout(stdout.getvalue())
            elif op.kind == "demo_paper":
                blobs = checks.read_demo(out)
                if self.demo_reference is None:
                    self.demo_reference = blobs
                checks.check_demo_bytes(blobs, self.demo_reference)
        except (checks.WrongOutput, OSError, ValueError, KeyError, TypeError) as exc:
            return dt, f"{type(exc).__name__}: {exc}", True
        if out.is_dir() and op.kind not in self.digests:
            self.digests[op.kind] = _digest(out)
        return dt, None, False

    def run(self, seconds: float):
        start = time.perf_counter()
        while not self.cycles or time.perf_counter() - start < seconds:
            if self.tracer is not None:
                self.tracer.cycle = len(self.cycles)
            state, cycle = {}, 0.0
            for op in self.w.ops:
                dt, err, wrong = self._run_op(op, state)
                cycle += dt
                self.attempted += 1
                if err is None:
                    self.samples[op.kind].append(dt)
                else:
                    self.failed += 1
                    self.wrong += int(wrong)
                    if len(self.failures) < 5:
                        self.failures.append(f"{op.kind}: {err}")
            self.cycles.append(cycle)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = p.parse_args(argv)

    w = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    runner = Runner(w, args.workdir, tracer)
    wrapped = tracer.install() if tracer is not None else []
    try:
        runner.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    import numpy
    import scipy

    result = {
        "samples": runner.samples,
        "cycles": runner.cycles,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong": runner.wrong,
        "failures": runner.failures,
        "digests": runner.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["wrapped"] = wrapped
        result["layers"] = tracer.layer_metrics(len(runner.cycles))
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
