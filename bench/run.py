"""ftconsensus benchmark: seeded CLI workloads, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload fig1-paper --seed 1 --seconds 20 --trace 0

Workloads and metrics are defined in ``BENCHMARK.json`` at the root; the
per-layer -> end-to-end -> workload map is ``bench/metric_map.json`` and the
notes are ``bench/NOTES.md``.

``--trace 0`` measures the end-to-end metrics with tracing off: one workload
process runs the op mix in a closed loop for ``--seconds``, and set-up time
is taken over fresh interpreters before and after it.  ``--trace 1`` runs the workload
process twice for half the time each, untraced and traced, and reports the
per-layer metrics of the traced run plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits non-zero without that line when the checkout has no ftconsensus
sources or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 4  # fresh interpreters before the workload process, and again after it
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# op kind -> printed metric name
OP_METRICS = {"simulate": "simulate_s", "simulate_nofreeze": "simulate_nofreeze_s",
              "certify": "certify_s", "check_protocol": "check_protocol_s",
              "demo_paper": "demo_paper_s", "estimate_c1": "estimate_c1_s"}
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ftconsensus.cli; "
              "from ftconsensus.config import load_config; load_config(sys.argv[2])")


class BenchError(Exception):
    pass


def workload_env() -> dict:
    """The environment of every process that runs ftconsensus code."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env.pop("PYTHONPATH", None)
    return env


def commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(values: list):
    """(p, value): the highest of p50..p99.9 with at least 10 samples above it."""
    best = None
    ordered = sorted(values)
    for p in (50.0, 90.0, 95.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            k = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
            best = (p, ordered[k])
    return best


def measure_setup(config: Path, deadline: float) -> list:
    """Wall times of fresh interpreters that import ftconsensus.cli and parse the config."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(config)],
                              env=workload_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


def run_worker(args, workdir: Path, seconds: float, trace: int, deadline: float,
               spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--workdir", str(workdir),
           "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=workload_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(name: str, unit: str, values: list) -> dict:
    entry = {"name": name, "unit": unit, "n": len(values),
             "value": statistics.median(values) if values else None}
    tail = tail_percentile(values)
    if tail is not None:
        entry["tail"] = {"p": tail[0], "value": tail[1]}
    return entry


def show(entry: dict):
    value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
    tail = entry.get("tail")
    tail_text = f"p{tail['p']:g}={tail['value']:.6g}" if tail else "no percentile with >=10 samples above"
    print(f"  {entry['name']:<44} {value:>12} {entry['unit']:<6} n={entry['n']:<4} {tail_text}")


def end_to_end(args, workdir: Path, config: Path, deadline: float) -> dict:
    # set-up is sampled on both sides of the workload process so that its
    # median spans the whole run, not one phase of a noisy machine
    setup = measure_setup(config, deadline)
    res = run_worker(args, workdir, args.seconds, 0, deadline)
    setup += measure_setup(config, deadline)
    rows = [summarise("setup_s", "s", setup)]
    rows += [summarise(OP_METRICS[kind], "s", values) for kind, values in res["samples"].items()]
    rows.append(summarise("cycle_s", "s", res["cycles"]))
    rows.append(summarise("peak_rss_mb", "MB", [res["peak_rss_mb"]]))
    rows.append({"name": "failed_frac", "unit": "ratio", "n": res["attempted"],
                 "value": res["failed"] / res["attempted"]})
    return {"rows": rows, "attempted": res["attempted"], "failed": res["failed"],
            "correct": res["wrong"] == 0, "failures": res["failures"], "versions": res["versions"],
            "raw": {"setup_s": setup, "samples": res["samples"], "cycles": res["cycles"]}}


def per_layer(args, workdir: Path, deadline: float) -> dict:
    half = args.seconds / 2.0
    plain = run_worker(args, workdir, half, 0, deadline)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    traced = run_worker(args, workdir, half, 1, deadline, spans)
    layers = dict(traced["layers"])
    base = statistics.median(plain["cycles"])
    layers["trace.overhead_frac"] = statistics.median(traced["cycles"]) / base - 1.0
    import tracer

    units = dict(tracer.LAYER_METRICS)
    rows = [{"name": name, "unit": units[name], "n": len(traced["cycles"]), "value": value}
            for name, value in layers.items()]
    # traced outputs must equal untraced outputs, op by op
    same = plain["digests"] == traced["digests"]
    if not same:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
    return {"rows": rows, "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "correct": same and plain["wrong"] == 0 and traced["wrong"] == 0,
            "failures": plain["failures"] + traced["failures"], "versions": traced["versions"],
            "raw": {"untraced_cycles": plain["cycles"], "traced_cycles": traced["cycles"],
                    "spans": str(spans.relative_to(ROOT)), "wrapped": traced["wrapped"]}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ftconsensus benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ftconsensus" / "cli.py").is_file():
        print(f"error: no ftconsensus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        w = workloads.build(args.workload, args.seed)
        paths = w.write_configs(workdir)
        if args.trace:
            outcome = per_layer(args, workdir, deadline)
        else:
            outcome = end_to_end(args, workdir, paths[w.ops[0].cfg], deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(outcome["versions"], nproc=os.cpu_count(), seed=args.seed, commit=commit(),
               workload=args.workload, seconds=args.seconds, trace=args.trace,
               pinned_threads=list(PINNED_THREADS))
    print(f"ftconsensus benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("  " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "pinned_threads"))
    for row in outcome["rows"]:
        show(row)
    print(f"  attempted={outcome['attempted']} failed={outcome['failed']} correct={outcome['correct']}")
    for failure in outcome["failures"][:5]:
        print(f"  failure: {failure}")

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    by_name = {row["name"]: row for row in outcome["rows"]}
    missing = [name for name in wanted if by_name.get(name, {}).get("value") is None]
    if missing:
        print(f"error: no successful samples for {', '.join(missing)}", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": by_name[name]["value"], "unit": units[name]} for name in wanted}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **outcome}, indent=2) + "\n")
    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
