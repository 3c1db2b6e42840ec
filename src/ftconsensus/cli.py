"""Command-line front end.

Commands::

    ftconsensus simulate <config> --out <dir>
    ftconsensus certify <config> --out <dir>
    ftconsensus check-protocol --spec <s> --bound <M> [--alpha A] [--beta B]
    ftconsensus demo-paper --out <dir>

Exit codes: 0 success / criteria pass; 1 validation or criteria failure;
2 I/O or internal error.

Argument parsing, config validation and their error exits load no numpy:
each command imports the numeric modules when it starts to compute.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .config import ExperimentConfig, SimulationConfig, load_config, parse_protocol_spec
from .errors import FtConsensusError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

FIG1_EDGES = ((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 4, 1.0))
FIG1_X0 = (2.0, -1.0, 3.0, -2.0)


_fmt = "{:.17g}".format


def _run_experiment(cfg: ExperimentConfig):
    from .dynamics import integrate, lyapunov_trace
    from .graph import is_strongly_connected, left_null_vector

    g, bank = cfg.graph(), cfg.bank()
    # omega before the run: its n x n elimination copy is freed before the records exist
    omega = left_null_vector(g) if is_strongly_connected(g) else None
    traj = integrate(cfg.sim, g, bank, cfg.x0_array())
    if omega is not None:
        lyapunov_trace(g, omega, bank, traj)
    return traj


def _summary(traj) -> dict:
    return {
        "settled_at": traj.settled_at,
        "final_state": traj.final_state().tolist(),
        "final_disagreement": float(traj.disagreement[-1]),
        "t_end": float(traj.times[-1]),
    }


def _json(v, pad="\n"):
    """``json.dumps(v, indent=2, sort_keys=True)`` for string keys, without reference cycles.

    ``indent`` selects the pure-Python encoder, whose nested closures are left
    in cycles on every call; this puts the containers together itself and
    passes only scalars to the default (C) encoder.
    """
    inner = pad + "  "
    if isinstance(v, dict):
        parts = [f"{inner}{json.dumps(k)}: {_json(x, inner)}" for k, x in sorted(v.items())]
        ends = "{}"
    elif isinstance(v, (list, tuple)):
        parts = [inner + _json(x, inner) for x in v]
        ends = "[]"
    else:
        return json.dumps(v)
    return ends[0] + ",".join(parts) + pad + ends[1] if parts else ends


def _write_text(path: Path, text: str):  # text, then a final newline
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _write_trajectory_csv(path: Path, traj):
    """Stream ``traj`` as CSV (t, x_1..x_n, disagreement[, V]), one row at a time.

    Records after the held state rows repeat the last row's cells, formatted
    once; each adds only its t.  Rows go to a temporary name beside ``path``
    that replaces it once complete: a failed write leaves no partial file.
    """
    import os

    columns = [traj.disagreement] + ([] if traj.lyapunov is None else [traj.lyapunov])
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["disagreement", "V"][:len(columns)]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for k, state in enumerate(traj.states):
                rest = ",".join(map(_fmt, [*state, *(col[k] for col in columns)])) + "\n"
                fh.write(f"{_fmt(traj.times[k])},{rest}")
            for t in traj.times[k + 1:]:
                fh.write(f"{_fmt(t)},{rest}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    traj = _run_experiment(cfg)
    summary_text = _json(_summary(traj))
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", traj)
    _write_text(out / "summary.json", summary_text)
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    if traj.settled_at is not None:
        print(f"settled_at = {traj.settled_at:.6g}, final disagreement = {traj.disagreement[-1]:.3e}")
    else:
        print(f"no consensus within horizon; final disagreement = {traj.disagreement[-1]:.3e}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    from .analysis import certify

    report, traj = certify(cfg.graph(), cfg.bank(), cfg.x0_array(), cfg.sim)
    text = _json(report.to_dict())
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "certificate.json", text)
    print(f"wrote {out / 'certificate.json'}")
    if not report.spanning_tree:
        print("no directed spanning tree: finite-time consensus hypothesis fails")
    elif report.overall_bound is not None:
        print(f"overall settling bound (empirical-hybrid): {report.overall_bound:.6g}")
    return EXIT_OK


def _criteria(f, M: float, alpha, beta) -> tuple:
    """(check_a2 report, closed-form beta or None) for one protocol over (0, M].

    The closed-form beta is shown, and used when no beta is given, unless it
    exceeds the proven ratio bound."""
    from .protocols import ProtocolBank, _closed_beta_exceeds, _closed_form_constants, check_a2

    bank = ProtocolBank([f])
    closed = None
    if alpha is None:
        alpha, closed, _ = _closed_form_constants(bank, M)
    report = check_a2(bank, M, alpha, beta)
    if _closed_beta_exceeds(closed, report.ratio_bound):
        closed = None
    if closed is not None and beta is None:
        report = dataclasses.replace(report, beta=closed, beta_source="closed-form")
    return report, closed


def cmd_check_protocol(args) -> int:
    f = parse_protocol_spec(args.spec)
    M = args.bound
    for flag, value in (("--bound", M), ("--alpha", args.alpha), ("--beta", args.beta)):
        if value is not None and not math.isfinite(value):
            raise FtConsensusError(f"{flag} must be finite")
    if not M > 0:
        raise FtConsensusError("--bound must be positive")
    if args.beta is not None and not args.beta > 0:
        raise FtConsensusError("--beta must be positive (A2 needs beta > 0)")
    report, closed = _criteria(f, M, args.alpha, args.beta)

    print(f"protocol: {args.spec}")
    # A1 holds for every family by proof (protocols.check_a1)
    print("A1 continuity:        pass")
    print("A1 zero only at zero: pass")
    print("A1 sign preservation: pass")
    if not report.a1[0].monotone:
        print("warning: monotonicity fails (non-fatal; the convergence "
              "argument uses sign preservation, not monotonicity)")
    print(f"alpha = {report.alpha:.12g}")
    if closed is not None:
        print(f"beta (closed-form) = {closed:.12g}")
    print(f"beta (used, {report.beta_source}) = {report.beta:.12g}")
    print(f"ratio lower bound over (0, {M:g}] = {report.ratio_bound:.12g}")
    print(f"ratio bound (A2): {'pass' if report.a2_pass else 'FAIL'}")
    return EXIT_OK if report.a2_pass else EXIT_FAIL


def cmd_demo_paper(args) -> int:
    out = Path(args.out)
    # the log-power field stalls under fixed-step RK4 at a disagreement around
    # 1e-5 (dt = 1e-3), so its consensus threshold sits above that resolution
    # floor; the freeze rule then lands the states exactly on their mean
    cases = [
        ("fig2.csv", "powerlinear{a=1,b=1,c=0.75}", SimulationConfig()),
        ("fig3.csv", "logpower{a=1,c=0.5}", SimulationConfig(eps_consensus=1e-4)),
    ]
    # compute everything before touching the filesystem so a failure leaves
    # no partial outputs behind
    results = []
    for name, spec, sim in cases:
        traj = _run_experiment(ExperimentConfig(
            n=4, edges=FIG1_EDGES, protocol_specs=(spec,) * 4, x0=FIG1_X0, sim=sim))
        results.append((name, spec, traj, _summary(traj)))
    combined = {name: dict(summary, protocol=spec) for name, spec, _, summary in results}
    combined_text = _json(combined)
    out.mkdir(parents=True, exist_ok=True)
    for name, _, traj, _ in results:
        _write_trajectory_csv(out / name, traj)
    _write_text(out / "demo_summary.json", combined_text)
    for name, spec, _, summary in results:
        print(f"{name}: protocol {spec}, settled_at = {summary['settled_at']}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: exit 1 with one line
        raise FtConsensusError(message)


@functools.cache  # one parser per process: each build leaves argparse objects in cycles
def build_parser() -> _Parser:
    p = _Parser(
        prog="ftconsensus",
        description="Simulate and certify finite-time consensus on weighted digraphs")
    sub = p.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "integrate a config and export the trajectory"),
                       ("certify", "produce a staged settling-time certificate")):
        s = sub.add_parser(name, help=text)
        s.add_argument("config", help="path to the JSON experiment config")
        s.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("check-protocol", help="verify the shape and ratio criteria")
    s.add_argument("--spec", required=True, help="protocol spec, e.g. powerlinear{a=1,b=1,c=0.75}")
    s.add_argument("--bound", required=True, type=float, help="argument range bound M")
    s.add_argument("--alpha", type=float, help="override alpha")
    s.add_argument("--beta", type=float, help="override beta")

    s = sub.add_parser("demo-paper", help="run the bundled four-agent demonstration cases")
    s.add_argument("--out", required=True, help="output directory")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on each call, so the cached parser holds no command function
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (FtConsensusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_FAIL
    except Exception as exc:  # an internal fault still ends in one line, not a traceback
        print(f"error: internal error ({type(exc).__name__}): {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_IO


def entry():  # console-script wrapper
    sys.exit(main())
