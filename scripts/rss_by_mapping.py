"""Where a benchmark workload's resident memory sits, mapping by mapping.

Usage (from the root of a checkout)::

    python3 scripts/rss_by_mapping.py --workload scc-200 --seed 1 [--root ../other]

Runs one pass of the workload's op mix in this process, through
``bench/worker.Runner`` of the checkout at ``--root`` (default: this one) and
that checkout's ``src/ftconsensus``, with BLAS/OpenMP threads pinned to 1 as
the benchmark pins them, then reads ``ru_maxrss`` and the Rss of each
mapping from ``/proc/self/smaps``.  Nothing under ``bench/`` is changed.

Then it runs two more passes with ``tracemalloc`` started and stopped around
each op's command (not the output check after it), and keeps each op's
traced peak from the second, the first having warmed the interpreter's free
lists: the memory the program itself allocates, which tells a change in what
it holds from a change in heap layout.  ``tracemalloc`` is imported only
after the RSS readout, so it does not move the RSS figures.

It prints one JSON line: ``workload``, ``seed``, ``failed`` (failed ops, each
named on stderr; the exit code is then 1), ``ru_maxrss_kib``, ``rss_kib`` (by
mapping) and ``traced_peak_kib`` (by op kind, the larger where a kind repeats).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# bench/run.py's PINNED_THREADS; importing run.py would load statistics and
# decimal, which the workload process does not, into the process measured
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def rss_by_mapping() -> dict:
    """KiB of Rss per mapping name: '[heap]', 'anon', a file's base name, '[stack]', ..."""
    totals = Counter()
    name = None
    with open("/proc/self/smaps", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if not line[0].isupper():  # a mapping's header: address range, perms, offset, dev, inode[, path]
                name = "anon" if len(fields) < 6 else os.path.basename(fields[5]) or fields[5]
            elif fields[0] == "Rss:":
                totals[name] += int(fields[1])
    return dict(totals.most_common())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose bench/ and src/ run")
    args = p.parse_args(argv)

    os.environ.update({name: "1" for name in PINNED_THREADS})
    sys.path.insert(0, str(args.root.resolve() / "bench"))
    import worker
    import workloads

    w = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="rss_by_mapping_") as tmp:
        w.write_configs(Path(tmp))
        runner = worker.Runner(w, Path(tmp))
        state = {}
        errors = [runner._run_op(op, state)[1] for op in w.ops]
        failures = [f"{op.kind}: {err}" for op, err in zip(w.ops, errors) if err is not None]
        maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        mappings = rss_by_mapping()
        import tracemalloc

        traced, state = {}, {}

        def traced_call(kind, fn, *args):
            tracemalloc.start()
            try:
                return fn(*args)
            finally:
                peak_kib = round(tracemalloc.get_traced_memory()[1] / 1024.0, 1)
                tracemalloc.stop()
                traced[kind] = max(traced.get(kind, 0.0), peak_kib)

        runner._call = traced_call  # the op's command alone, not the output check after it
        for _ in range(2):  # the peaks of the second pass: see the module docstring
            traced.clear()
            errors = [runner._run_op(op, state)[1] for op in w.ops]
        failures += [f"{op.kind} (traced): {err}" for op, err in zip(w.ops, errors) if err is not None]

    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "failed": len(failures),
                      "ru_maxrss_kib": maxrss_kib, "rss_kib": mappings, "traced_peak_kib": traced}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
