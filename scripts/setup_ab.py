"""Alternating fresh set-up interpreters of two revisions and a bare one, for sizing a start-up change.

Usage (from the root of a checkout)::

    python3 scripts/setup_ab.py --base HEAD~1 --workload dag-mixed --seed 1 --runs 40

``bench/run.py`` reports ``setup_s`` as the median of 8 fresh interpreters
that run its ``SETUP_CODE`` (import ``ftconsensus.cli``, load the workload's
first config).  Eight samples spread by tens of milliseconds on a shared
machine, too widely to size a change of a few.  This script reads
``SETUP_CODE`` and ``PINNED_THREADS`` from ``bench/run.py`` (parsed, not
imported) and runs the same set-up code ``--runs`` times on the committed
files of ``--base`` and of HEAD, unpacked as ``scripts/bench_pairs.py``
unpacks them (no bytecode cache, equal-length paths), plus as many bare
``python -c "import sys"`` interpreters.  The order of the three rotates
from round to round, so that drift falls on every side alike.  Uncommitted
edits are not measured.

It prints each side's median and quartiles in ms, the median less the bare
one (the program's share), and in how many rounds HEAD was faster than the
base.

It stands in for a higher-resolution ``setup_s`` until ``bench/run.py``
takes more set-up samples, and goes when it does.  Its numbers size a
change; a claim is judged on the benchmark's ``setup_s``.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "scripts"))
import workloads  # noqa: E402
from bench_pairs import git, quartiles, unpack  # noqa: E402


def bench_constant(name: str):
    """The literal value assigned to ``name`` at the top level of bench/run.py."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"bench/run.py assigns no {name}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare HEAD against")
    p.add_argument("--workload", default="dag-mixed", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=40, help="interpreters per side")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs needs at least 2")

    setup_code = bench_constant("SETUP_CODE")
    env = dict(os.environ, **{name: "1" for name in bench_constant("PINNED_THREADS")})
    env.pop("PYTHONPATH", None)  # as bench/run.py's workload_env
    revs = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    times = {"base": [], "head": [], "bare": []}
    with tempfile.TemporaryDirectory(prefix="setup_ab_") as tmp:
        w = workloads.build(args.workload, args.seed)
        config = w.write_configs(Path(tmp))[w.ops[0].cfg]
        commands = {"bare": ([sys.executable, "-c", "import sys"], Path(tmp))}
        for side, rev in revs.items():
            tree = unpack(rev, Path(tmp) / side)
            commands[side] = ([sys.executable, "-c", setup_code, str(tree / "src"), str(config)], tree)
        sides = list(times)
        for i in range(args.runs):
            for side in sides[i % 3:] + sides[:i % 3]:
                cmd, cwd = commands[side]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
                times[side].append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    raise SystemExit(f"{side} set-up interpreter failed: {proc.stderr.strip()[-500:]}")

    bare = statistics.median(times["bare"])
    print(f"{args.workload} seed {args.seed}, {args.runs} interpreters per side, ms:")
    for side in sides:
        q = quartiles(times[side])
        label = f"{side} {revs[side][:8]}" if side in revs else side
        print(f"  {label:<14} median {1e3 * q['median']:7.2f}  q1-q3 {1e3 * q['q1']:7.2f}-"
              f"{1e3 * q['q3']:7.2f}  iqr {1e3 * q['iqr']:6.2f}  less bare {1e3 * (q['median'] - bare):7.2f}")
    wins = sum(h < b for b, h in zip(times["base"], times["head"]))
    print(f"  head faster than base in {wins}/{args.runs} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
