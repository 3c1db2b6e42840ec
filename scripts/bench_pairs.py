"""Alternating parent/change pairs of the benchmark, summarised as one JSON file.

Usage (from the root of a checkout)::

    python3 scripts/bench_pairs.py --base HEAD~1 --workload scc-200 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 --out BENCH_11.json

For each workload and seed the unchanged ``bench/run.py --trace 0`` runs
once on the base revision and once on the change, the committed files of
HEAD, one after the other; the order alternates from pair to pair so that
drift over the session falls on both sides alike.  Both revisions are
unpacked with ``git archive`` into sibling temporary directories whose paths
have the same length, which leaves the repository's own metadata untouched
(no worktree to register or prune) and is removed at the end.  The paths
must match: ``peak_rss_mb`` moves with the length of the checkout path (one
fig1-paper tree read 36.84-36.93 MB under ``/tmp/bench_pairs_*/tree`` and
37.01-37.09 MB under a path 10 characters shorter, seeds 111-113).
Uncommitted edits are not measured; ``uncommitted_changes`` records them.

The output holds, per workload and end-to-end metric of ``BENCHMARK.json``:
every pair's two values, each side's median and quartiles (the IQR is
q3 - q1), and how many pairs the change won (strictly better, in the
direction the metric's ``better`` field names).  A run that is not
``correct`` or has failed operations is recorded and counts as no win.
Repeating ``--workload`` measures several workloads into the same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` under ``dest``."""
    dest.mkdir()
    archive = dest / "rev.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return dest / "tree"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout} ({workload}, seed {seed}): "
                         f"exit {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        valid = [p["base"]["ok"] and p["change"]["ok"] for p in pairs]
        wins = sum(v and ((c < b) if lower else (c > b)) for b, c, v in zip(base, change, valid))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                     "base": quartiles(base), "change": quartiles(change),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, action="append", help="repeatable")
    p.add_argument("--seeds", required=True, type=int, nargs="+", help="one pair per seed")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds (one pair per seed)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    base_sha = git("rev-parse", args.base)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    result = {
        "command": ["python3", "bench/run.py", "--workload", "<w>", "--seed", "<s>",
                    "--seconds", str(args.seconds), "--trace", "0"],
        "base": {"rev": args.base, "commit": base_sha},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        # equal-length sibling paths, so that neither side's layout is favoured
        base_tree = unpack(base_sha, Path(tmp) / "base")
        change_tree = unpack(result["change"]["commit"], Path(tmp) / "head")
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    r = run_bench(base_tree if side == "base" else change_tree, workload, seed,
                                  args.seconds)
                    pair[side] = {"ok": bool(r["correct"]) and r["failed"] == 0,
                                  "correct": r["correct"], "failed": r["failed"],
                                  "metrics": r["metrics"]}
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m['name']} {pair['base']['metrics'][m['name']]['value']:.4g} -> "
                    f"{pair['change']['metrics'][m['name']]['value']:.4g}" for m in metrics),
                    flush=True)
            result["workloads"][workload] = {"seeds": args.seeds, "pairs": pairs,
                                             "summary": summarise(pairs, metrics)}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
