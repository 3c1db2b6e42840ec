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
import json
import math
import sys
from pathlib import Path

from .config import (ExperimentConfig, LogPower, PowerLinear, SimulationConfig, load_config,
                     parse_protocol_spec)
from .errors import FtConsensusError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

FIG1_EDGES = ((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 4, 1.0))
FIG1_X0 = (2.0, -1.0, 3.0, -2.0)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _run_experiment(cfg: ExperimentConfig):
    from .dynamics import integrate, lyapunov_trace
    from .graph import is_strongly_connected, left_null_vector

    g = cfg.graph()
    bank = cfg.bank()
    traj = integrate(cfg.sim, g, bank, cfg.x0_array())
    if is_strongly_connected(g):
        lyapunov_trace(g, left_null_vector(g), bank, traj)
    return traj


def _summary(traj) -> dict:
    return {
        "settled_at": traj.settled_at,
        "final_state": [float(v) for v in traj.final_state()],
        "final_disagreement": float(traj.disagreement[-1]),
        "t_end": float(traj.times[-1]),
    }


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_trajectory_csv(path: Path, traj):
    """Stream ``traj`` as CSV (t, x_1..x_n, disagreement[, V]), one row at a time.

    The rows go to a temporary name beside ``path`` that replaces it only once
    complete, so a failed write leaves no partial file.
    """
    import os

    columns = [traj.disagreement] + ([] if traj.lyapunov is None else [traj.lyapunov])
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["disagreement", "V"][:len(columns)]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for k, state in enumerate(traj.states):
                cells = [traj.times[k], *state, *(col[k] for col in columns)]
                fh.write(",".join(map(_fmt, cells)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    traj = _run_experiment(cfg)
    summary_text = json.dumps(_summary(traj), indent=2, sort_keys=True) + "\n"
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
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "certificate.json", text)
    print(f"wrote {out / 'certificate.json'}")
    if not report.spanning_tree:
        print("no directed spanning tree: finite-time consensus hypothesis fails")
    elif report.overall_bound is not None:
        print(f"overall settling bound (empirical-hybrid): {report.overall_bound:.6g}")
    return EXIT_OK


def _criteria(f, M: float, alpha, beta) -> tuple:
    """(check_a2 report, closed-form beta or None) for one protocol over (0, M]."""
    from .protocols import (GridSpec, ProtocolBank, antiderivative, check_a2, claim1_constants,
                            claim2_constants, evaluate)

    fM, FM = evaluate(f, M), antiderivative(f, M)
    if not (math.isfinite(fM * fM) and math.isfinite(FM)):
        raise FtConsensusError(f"--bound {M:g} is too large: f(M)^2 or F(M) overflows a float")
    z = GridSpec().bottom(M)
    if not (evaluate(f, z) ** 2 > 0.0 and antiderivative(f, z) > 0.0):
        raise FtConsensusError(f"--bound {M:g} is too small: f^2 or F underflows to 0 at the "
                               f"bottom of the ratio grid, z = {z:g}")
    bank = ProtocolBank([f])
    closed = None
    if alpha is None:
        if isinstance(f, PowerLinear):
            alpha, closed = claim1_constants(bank, M)
        elif isinstance(f, LogPower):
            alpha, closed, emp = claim2_constants(bank, M)
            if closed is not None and emp < closed:
                closed = None  # closed form unsound here; fall back to empirical
        else:
            alpha = 0.5
    report = check_a2(bank, M, alpha, closed if beta is None else beta)
    if beta is None and closed is not None:
        report = dataclasses.replace(report, beta_source="closed-form")
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
    import numpy as np

    # with f(M)^2 and F(M) finite, what may still overflow is a branch that
    # np.where discards or a parabolic step that Brent rejects
    with np.errstate(over="ignore", invalid="ignore"):
        report, closed = _criteria(f, M, args.alpha, args.beta)

    a1 = report.a1[0]
    print(f"protocol: {args.spec}")
    print(f"A1 continuity:        {'pass' if a1.continuous else 'FAIL'}")
    print(f"A1 zero only at zero: {'pass' if a1.zero_at_zero and a1.sign_preserving else 'FAIL'}")
    print(f"A1 sign preservation: {'pass' if a1.sign_preserving else 'FAIL'}")
    if not a1.monotone:
        print("warning: sampled monotonicity fails (non-fatal; the convergence "
              "argument uses sign preservation, not monotonicity)")
    print(f"alpha = {report.alpha:.12g}")
    if closed is not None:
        print(f"beta (closed-form) = {closed:.12g}")
    print(f"beta (used, {report.beta_source}) = {report.beta:.12g}")
    print(f"empirical ratio minimum over (0, {M:g}] = {report.empirical_ratio_min:.12g}")
    ok = a1.passed and report.a2_pass
    print(f"ratio bound (A2): {'pass' if report.a2_pass else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def _fig1_config(spec: str, sim: SimulationConfig | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig(
        n=4, edges=FIG1_EDGES, protocol_specs=(spec,) * 4, x0=FIG1_X0)
    if sim is not None:
        cfg = dataclasses.replace(cfg, sim=sim)
    return cfg


def cmd_demo_paper(args) -> int:
    out = Path(args.out)
    # the log-power field stalls under fixed-step RK4 at a disagreement around
    # 1e-5 (dt = 1e-3), so its consensus threshold sits above that resolution
    # floor; the freeze rule then lands the states exactly on their mean
    cases = [
        ("fig2.csv", "powerlinear{a=1,b=1,c=0.75}", None),
        ("fig3.csv", "logpower{a=1,c=0.5}", SimulationConfig(eps_consensus=1e-4)),
    ]
    # compute everything before touching the filesystem so a failure leaves
    # no partial outputs behind
    results = []
    for name, spec, sim in cases:
        cfg = _fig1_config(spec, sim)
        traj = _run_experiment(cfg)
        results.append((name, spec, traj, _summary(traj)))
    combined = {name: dict(summary, protocol=spec) for name, spec, _, summary in results}
    combined_text = json.dumps(combined, indent=2, sort_keys=True) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    for name, _, traj, _ in results:
        _write_trajectory_csv(out / name, traj)
    _write_text(out / "demo_summary.json", combined_text)
    for name, spec, _, summary in results:
        print(f"{name}: protocol {spec}, settled_at = {summary['settled_at']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ftconsensus",
        description="Simulate and certify finite-time consensus on weighted digraphs")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="integrate a config and export the trajectory")
    s.add_argument("config", help="path to the JSON experiment config")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("certify", help="produce a staged settling-time certificate")
    s.add_argument("config", help="path to the JSON experiment config")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_certify)

    s = sub.add_parser("check-protocol", help="verify the shape and ratio criteria")
    s.add_argument("--spec", required=True, help="protocol spec, e.g. powerlinear{a=1,b=1,c=0.75}")
    s.add_argument("--bound", required=True, type=float, help="argument range bound M")
    s.add_argument("--alpha", type=float, default=None, help="override alpha")
    s.add_argument("--beta", type=float, default=None, help="override beta")
    s.set_defaults(func=cmd_check_protocol)

    s = sub.add_parser("demo-paper", help="run the bundled four-agent demonstration cases")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_demo_paper)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FtConsensusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # an internal fault still ends in one line, not a traceback
        message = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {message}", file=sys.stderr)
        return EXIT_IO


def entry():  # console-script wrapper
    sys.exit(main())
