"""Output checks for each benchmark op.

Each check reads what an op wrote and raises ``WrongOutput`` when the output
is not correct.  An op that exits non-zero fails; an op whose output is
wrong fails and also makes the whole run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# slack for float round-off when comparing with x0 or with settled_at
TOL = 1e-9


class WrongOutput(Exception):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise WrongOutput(msg)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WrongOutput(f"{Path(path).name}: {exc}") from exc


def _check_consensus(value, x0, what: str):
    _require(value is not None and math.isfinite(value), f"{what}: consensus value missing")
    _require(min(x0) - TOL <= value <= max(x0) + TOL,
             f"{what}: consensus value {value!r} outside [min x0, max x0]")


def check_simulate(out: Path, doc: dict) -> dict:
    """summary.json and trajectory.csv of one ``simulate``; returns the summary."""
    summary = _load_json(out / "summary.json")
    n, x0, eps = doc["graph"]["n"], doc["x0"], doc["sim"]["eps_consensus"]
    final = summary["final_state"]
    _require(len(final) == n, "summary: final_state has the wrong length")
    if summary["settled_at"] is not None:
        _require(summary["final_disagreement"] <= eps,
                 f"summary: settled but final disagreement {summary['final_disagreement']!r} > eps")
        _check_consensus(sum(final) / n, x0, "summary")
    with open(out / "trajectory.csv", "rb") as fh:
        header = fh.readline().decode().rstrip("\n").split(",")
        fh.seek(max(0, fh.seek(0, 2) - 65536))
        last = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1].split(",")
    _require(header[0] == "t" and header[1:n + 1] == [f"x_{i + 1}" for i in range(n)],
             "trajectory.csv: unexpected header")
    _require(len(last) == len(header), "trajectory.csv: ragged last row")
    _require(float(last[0]) == summary["t_end"], "trajectory.csv: last row is not t_end")
    return summary


def check_certify(out: Path, doc: dict, simulated_settled_at) -> dict:
    """certificate.json of one ``certify``; ``simulated_settled_at`` is from ``simulate``."""
    cert = _load_json(out / "certificate.json")
    x0, eps = doc["x0"], doc["sim"]["eps_consensus"]
    settled = cert["settled_at"]
    _require(cert["spanning_tree"] is True, "certificate: spanning_tree is not true")
    if simulated_settled_at is not False:
        _require(settled == simulated_settled_at,
                 f"certificate: settled_at {settled!r} differs from simulate's {simulated_settled_at!r}")
    if settled is not None:
        _require(cert["final_disagreement"] <= eps,
                 f"certificate: settled but final disagreement {cert['final_disagreement']!r} > eps")
        _check_consensus(cert["consensus_value"], x0, "certificate")
        if cert["overall_bound"] is not None:
            _require(cert["overall_bound"] >= settled - TOL,
                     f"certificate: overall_bound {cert['overall_bound']!r} < settled_at {settled!r}")
    return cert


def check_protocol_stdout(text: str):
    _require("ratio bound (A2): pass" in text, "check-protocol: A2 verdict missing")


DEMO_FILES = ("fig2.csv", "fig3.csv", "demo_summary.json")


def read_demo(out: Path) -> dict:
    """The bytes of every demo-paper output, after checking each case settled."""
    blobs = {name: (out / name).read_bytes() for name in DEMO_FILES}
    summary = json.loads(blobs["demo_summary.json"])
    _require(set(summary) == {"fig2.csv", "fig3.csv"}, "demo_summary.json: unexpected cases")
    for name, case in summary.items():
        _require(case["settled_at"] is not None, f"demo {name}: did not settle")
    return blobs


def check_demo_bytes(blobs: dict, reference: dict):
    for name in DEMO_FILES:
        _require(blobs[name] == reference[name], f"demo-paper: {name} differs from the first call")


def check_c1(value: float, eig_min: float, eig_max: float):
    _require(math.isfinite(value) and eig_min - TOL <= value <= eig_max + TOL,
             f"estimate_c1: {value!r} outside the spectrum [{eig_min!r}, {eig_max!r}]")
