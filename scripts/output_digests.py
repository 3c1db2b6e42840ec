"""SHA-256 of every output of a fixed set of commands, for comparing two checkouts.

Usage (from the root of a checkout)::

    python3 scripts/output_digests.py > change.txt
    python3 scripts/output_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

Each command runs in a fresh interpreter on ``src/ftconsensus`` of the
checkout at ``--root`` (default: this one), with BLAS/OpenMP threads pinned
to 1 as the benchmark pins them:

* ``simulate`` and ``certify`` on ``configs/fig1.cfg`` and on every config of
  the benchmark workloads at seeds 1-3, as that checkout's
  ``bench/workloads.py`` builds them (the module is imported, not changed);
* ``demo-paper``;
* ``check-protocol`` on each family, at ``--bound 1e150`` and with an
  explicit ``--beta`` (``CHECK_PROTOCOL``).

Every command runs in its own new temporary directory and names its paths
relative to it, so the printed paths, and with them stdout, do not depend on
where the checkout or the temporary directory lies.  One tab-separated line
per value: case, item, value.  The items are every output file, ``stdout``
and ``stderr`` (each a SHA-256) and ``exit`` (the exit code itself).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# bench/run.py's PINNED_THREADS
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHECK_PROTOCOL = (
    ("--spec", "linear{k=1}", "--bound", "6"),
    ("--spec", "powerlinear{a=1,b=1,c=0.75}", "--bound", "6"),
    ("--spec", "logpower{a=1,c=0.5}", "--bound", "6"),
    ("--spec", "powerlinear{a=1,b=1,c=0.5}", "--bound", "1e150"),
    ("--spec", "linear{k=1}", "--bound", "6", "--beta", "1e-10"),
    ("--spec", "powerlinear{a=1,b=1,c=0.75}", "--bound", "6", "--alpha", "0.9", "--beta", "1"),
)
MAIN = "import sys; from ftconsensus.cli import main; sys.exit(main(sys.argv[1:]))"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(root: Path, argv: list, config_text: str | None = None) -> list:
    """(item, value) pairs of one command, run in a new directory holding
    ``config.json`` when ``config_text`` is given."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{name: "1" for name in PINNED_THREADS})
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        if config_text is not None:
            Path(tmp, "config.json").write_text(config_text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=tmp, env=env,
                              capture_output=True)
        out = Path(tmp, "out")
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        items = [(p.relative_to(tmp).as_posix(), sha256(p.read_bytes())) for p in files]
    return items + [("stdout", sha256(proc.stdout)), ("stderr", sha256(proc.stderr)),
                    ("exit", str(proc.returncode))]


def configs(root: Path) -> list:
    """(name, JSON text) of fig1.cfg and of every workload config at each seed."""
    out = [("fig1.cfg", (root / "configs" / "fig1.cfg").read_text(encoding="utf-8"))]
    sys.path.insert(0, str(root / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                for key, path in workloads.build(name, seed).write_configs(Path(tmp)).items():
                    out.append((f"{name}/{seed}/{key}", path.read_text(encoding="utf-8")))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    root = p.parse_args(argv).root.resolve()
    cases = [(f"{command} {name}", [command, "config.json", "--out", "out"], text)
             for name, text in configs(root) for command in ("simulate", "certify")]
    cases.append(("demo-paper", ["demo-paper", "--out", "out"], None))
    cases += [("check-protocol " + " ".join(a), ["check-protocol", *a], None) for a in CHECK_PROTOCOL]
    for case, command, text in cases:
        for item, value in run(root, command, text):
            print(f"{case}\t{item}\t{value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
