"""Alternating parent/change pairs of the benchmark, summarised as one JSON file.

Usage (from the root of a checkout)::

    python3 scripts/bench_pairs.py --base HEAD~1 --workload scc-200 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 --out BENCH_11.json

This is the one script that sizes a change between two revisions.  The
base revision and the change, the committed files of HEAD, are unpacked
with ``git archive`` into sibling temporary directories whose paths have
the same length, which leaves the repository's own metadata untouched (no
worktree to register or prune) and is removed at the end.  The paths must
match: ``peak_rss_mb`` moves with the length of the checkout path (one
fig1-paper tree read 36.84-36.93 MB under ``/tmp/bench_pairs_*/tree`` and
37.01-37.09 MB under a path 10 characters shorter, seeds 111-113).
Uncommitted edits are not measured; ``uncommitted_changes`` records them.

First, on both trees, this checkout's ``scripts/output_digests.py`` runs
once, and ``scripts/rss_by_mapping.py`` once per workload (first seed).  The
output records the digest lines that differ and how many are equal
(``digests``), and each side's ``traced_peak_kib``, ``compile_peak_kib`` and
``ru_maxrss_kib`` (``memory``).

Then, for each workload and seed, the unchanged ``bench/run.py --trace 0``
runs once on each tree, one after the other; the order alternates from
pair to pair so that drift over the set falls on both sides alike.
Each run's record in ``.bench_out/`` gives every row it printed and its raw
set-up samples.  Per workload the output holds:

* ``summary``: each end-to-end metric of ``BENCHMARK.json``; ``ungated``:
  every other row (op latencies, ``cycle_s``, ``failed_frac``).  For each:
  every side's median and quartiles (the IQR is q3 - q1), how many pairs
  the change won (strictly better, in the direction of ``better``), and
  two verdicts.  ``claim_rule_met``: the change won at least nine tenths
  of the pairs and its median is better than the base's by more than the
  base's IQR.  ``within_bound``: the change's median is worse than the
  base's by at most ``bound`` times the base's median (null where there is
  no bound).  A run that is not ``correct`` or has failed operations is
  recorded and counts as no win.
* ``setup_s_pooled``: the quartiles of every raw set-up sample of every
  run, per side (eight per run), finer than the per-run medians.

Repeating ``--workload`` measures several workloads into the same file.  On
SIGTERM it exits 143 as on an error: the unpacked trees go, the child is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


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


def run(checkout: Path, argv: list, what: str) -> str:
    """Stdout of ``argv`` run with this interpreter in ``checkout``."""
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{what} failed in {checkout}: exit {proc.returncode}\n{proc.stderr.strip()}")
    return proc.stdout


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, units: dict) -> dict:
    """One untraced benchmark run in ``checkout``: its verdict, rows and set-up samples.
    Adds the unit of each row to ``units``."""
    out = run(checkout, ["bench/run.py", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"], f"bench/run.py ({workload}, seed {seed})")
    line = json.loads(out.strip().splitlines()[-1])
    record = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    rows = [row for row in record["rows"] if row["value"] is not None]
    units.update((row["name"], row["unit"]) for row in rows)
    return {"ok": bool(line["correct"]) and line["failed"] == 0, "correct": line["correct"],
            "failed": line["failed"], "setup_samples": record["raw"]["setup_s"],
            "rows": {row["name"]: row["value"] for row in rows}}


def memory(checkout: Path, workload: str, seed: int) -> dict:
    """``rss_by_mapping.py``'s traced and compile peaks and ``ru_maxrss``."""
    out = run(checkout, [str(ROOT / "scripts" / "rss_by_mapping.py"), "--root", str(checkout),
                         "--workload", workload, "--seed", str(seed)],
              f"rss_by_mapping.py ({workload})")
    readout = json.loads(out.strip().splitlines()[-1])
    return {key: readout[key] for key in ("traced_peak_kib", "compile_peak_kib", "ru_maxrss_kib")}


def compare_digests(base: str, change: str) -> dict:
    """The lines of two ``output_digests.py`` outputs that differ, and how many are equal."""
    sides = [dict(line.rsplit("\t", 1) for line in text.splitlines()) for text in (base, change)]
    keys = sorted(sides[0].keys() | sides[1].keys())
    differ = [{"item": k, "base": sides[0].get(k), "change": sides[1].get(k)}
              for k in keys if sides[0].get(k) != sides[1].get(k)]
    return {"equal": len(keys) - len(differ), "differ": differ}


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name, bound = m["name"], m.get("bound")
        sign = 1.0 if m["better"] == "lower" else -1.0  # sign * (change - base) < 0: the change is better
        base = [p["base"]["rows"][name] for p in pairs]
        change = [p["change"]["rows"][name] for p in pairs]
        valid = [p["base"]["ok"] and p["change"]["ok"] for p in pairs]
        wins = sum(v and sign * (c - b) < 0 for b, c, v in zip(base, change, valid))
        qb, qc = quartiles(base), quartiles(change)
        worse_by = sign * (qc["median"] - qb["median"])
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": bound,
                     "base": qb, "change": qc, "change_wins": wins, "pairs": len(pairs),
                     "claim_rule_met": 10 * wins >= 9 * len(pairs) and -worse_by > qb["iqr"],
                     "within_bound": None if bound is None else worse_by <= bound * abs(qb["median"])}
    return out


def pooled_setup(pairs: list) -> dict:
    """Each side's quartiles over the raw set-up samples of all its runs."""
    out = {}
    for side in SIDES:
        samples = [t for p in pairs for t in p[side]["setup_samples"]]
        out[side] = dict(quartiles(samples), n=len(samples))
    return out


def summarise_workload(pairs: list, gated: list, units: dict) -> dict:
    """The gated summary, every other row that every run printed (all lower-is-better:
    latencies and ``failed_frac``), and the pooled set-up."""
    names = set.intersection(*(set(p[side]["rows"]) for p in pairs for side in SIDES))
    ungated = [{"name": name, "unit": units[name], "better": "lower"}
               for name in sorted(names - {m["name"] for m in gated})]
    return {"pairs": pairs, "summary": summarise(pairs, gated),
            "ungated": summarise(pairs, ungated), "setup_s_pooled": pooled_setup(pairs)}


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
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

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
        trees = {"base": unpack(base_sha, Path(tmp) / "base"),
                 "change": unpack(result["change"]["commit"], Path(tmp) / "head")}
        digests = [run(trees[side], [str(ROOT / "scripts" / "output_digests.py"), "--root", str(trees[side])],
                       "output_digests.py") for side in SIDES]
        result["digests"] = compare_digests(*digests)
        print(f"output digests: {result['digests']['equal']} equal, "
              f"{len(result['digests']['differ'])} differ", flush=True)
        mem = {w: {side: memory(trees[side], w, args.seeds[0]) for side in SIDES} for w in args.workload}
        for workload in args.workload:
            pairs, units = [], {}
            for i, seed in enumerate(args.seeds):
                pair = {"seed": seed, "first": SIDES[i % 2]}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_bench(trees[side], workload, seed, args.seconds, units)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m['name']} {pair['base']['rows'][m['name']]:.4g} -> "
                    f"{pair['change']['rows'][m['name']]:.4g}" for m in metrics), flush=True)
            result["workloads"][workload] = dict(summarise_workload(pairs, metrics, units), seeds=args.seeds,
                                                 memory=mem[workload])
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
