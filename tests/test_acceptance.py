"""End-to-end acceptance gate.

Each test checks one advertised capability at its stated tolerance and prints
a single verdict line (visible under ``pytest -s`` or in the captured output).
Run with::

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np

from ftconsensus import (
    Linear,
    LogPower,
    PowerLinear,
    ProtocolBank,
    SimulationConfig,
    WeightedDigraph,
    certify,
    check_a2,
    has_spanning_tree,
    integrate,
    laplacian,
    left_null_vector,
    lyapunov_trace,
    mirror_laplacian,
)
from ftconsensus.cli import FIG1_EDGES, FIG1_X0, main
from ftconsensus.config import ExperimentConfig
from ftconsensus.protocols import _constants
from scipy.linalg import expm

from conftest import (
    brute_force_spanning_tree,
    fig1_graph,
    full_states,
    random_claim1_bank,
    random_digraph,
    random_strongly_connected,
)


def verdict(num, label):
    print(f"\nacceptance {num} ({label}): PASS")


def _fig1_run(spec, sim=None):
    cfg = ExperimentConfig(n=4, edges=FIG1_EDGES, protocol_specs=(spec,) * 4, x0=FIG1_X0)
    sim = sim or SimulationConfig()
    return integrate(sim, cfg.graph(), cfg.bank(), cfg.x0_array())


def _twenty_fixtures():
    """Deterministic strongly connected fixtures with valid power-linear banks.

    eps sits above the fixed-step chatter floor of the non-Lipschitz field so
    the freeze rule can engage cleanly on every fixture.
    """
    rng = np.random.default_rng(31)
    cfg = SimulationConfig(t_max=15.0, eps_consensus=2e-3)
    for _ in range(20):
        g = random_strongly_connected(rng, int(rng.integers(2, 6)))
        bank = random_claim1_bank(rng, g.n)
        x0 = rng.uniform(-3, 3, g.n)
        yield g, bank, x0, cfg


def test_01_power_linear_reproduction():
    t0 = time.perf_counter()
    traj = _fig1_run("powerlinear{a=1,b=1,c=0.75}")
    elapsed = time.perf_counter() - t0
    assert traj.settled_at is not None and traj.settled_at < 20.0
    assert traj.disagreement[-1] <= 1e-9
    k = np.searchsorted(traj.times, traj.settled_at)
    assert np.all(np.abs(full_states(traj)[k:] - traj.states[-1]) <= 1e-9)
    assert elapsed < 1.0
    verdict(1, "power-linear four-agent run settles in finite time")


def test_02_log_power_reproduction():
    # threshold above the ~1e-5 fixed-step resolution floor of this field;
    # the freeze lands the final states exactly on their mean
    traj = _fig1_run("logpower{a=1,c=0.5}", SimulationConfig(eps_consensus=1e-4))
    assert traj.settled_at is not None and traj.settled_at < 20.0
    assert traj.disagreement[-1] <= 1e-9
    verdict(2, "log-power four-agent run settles in finite time")


def test_03_linear_contrast(capsys):
    traj = _fig1_run("linear{k=1}", SimulationConfig(freeze_on_consensus=False))
    assert traj.disagreement[-1] > 0.0
    half = traj.times >= traj.times[-1] / 2
    t, logd = traj.times[half], np.log(traj.disagreement[half])
    slope, icpt = np.polyfit(t, logd, 1)
    ss_res = np.sum((logd - (slope * t + icpt)) ** 2)
    ss_tot = np.sum((logd - logd.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 0.999
    rc = main(["check-protocol", "--spec", "linear{k=1}", "--bound", "6"])
    capsys.readouterr()
    assert rc == 1
    verdict(3, "linear protocol only decays exponentially and fails the ratio check")


def test_04_rooted_decision_value():
    w = np.zeros((5, 5))
    for v in range(1, 5):
        w[v, 0] = 1.0
    for v in range(1, 5):
        w[1 + v % 4, v] = 0.8
    g = WeightedDigraph(w)
    bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 5)
    x0 = np.array([1.25, -2.0, 0.5, 3.0, -1.0])
    traj = integrate(SimulationConfig(), g, bank, x0)
    assert traj.settled_at is not None
    assert np.abs(traj.states[:, 0] - x0[0]).max() <= 1e-9
    assert abs(traj.states[-1].mean() - x0[0]) <= 1e-9
    verdict(4, "in-arc-free root dictates the consensus value")


def test_05_graph_layer_oracles():
    rng = np.random.default_rng(51)
    for _ in range(200):
        g = random_digraph(rng, int(rng.integers(1, 8)), p=float(rng.uniform(0.1, 0.6)))
        st = has_spanning_tree(g)
        assert st == brute_force_spanning_tree(g)
        eig = np.linalg.eigvals(laplacian(g))
        assert st == (int(np.sum(np.abs(eig) <= 1e-8)) == 1)
    for _ in range(100):
        g = random_strongly_connected(rng, int(rng.integers(2, 7)))
        omega = left_null_vector(g)
        assert np.abs(omega @ laplacian(g)).max() <= 1e-10
        assert omega.min() > 0
        B = mirror_laplacian(g, omega)
        assert np.abs(B - B.T).max() <= 1e-12
        assert np.abs(B @ np.ones(g.n)).max() <= 1e-10
        ev = np.linalg.eigvalsh(B)
        assert ev[0] >= -1e-10 and ev[1] > 0
    verdict(5, "spanning-tree, left-null-vector and mirror-Laplacian oracles agree")


def test_06_lyapunov_and_max_norm_monotone():
    for g, bank, x0, cfg in _twenty_fixtures():
        traj = integrate(cfg, g, bank, x0)
        assert traj.settled_at is not None
        norms = np.abs(traj.states).max(axis=1)
        assert np.all(np.diff(norms) <= 1e-9)
        v = lyapunov_trace(g, left_null_vector(g), bank, traj)
        assert np.all(np.diff(v) <= 1e-9)
    verdict(6, "V and the max norm are non-increasing on 20 random fixtures")


def test_07_certificate_soundness():
    for g, bank, x0, cfg in _twenty_fixtures():
        report = certify(g, bank, x0, cfg)
        traj = integrate(cfg, g, bank, x0)
        cert = report.certificates[0]
        assert cert.c1_source == "a-posteriori-trajectory"
        assert cert.beta_source == "grid-bound"
        v = lyapunov_trace(g, left_null_vector(g), bank, traj)
        # at/below the extinction threshold the frozen state is consensus up
        # to rounding residue in L, so V counts as exactly zero there
        v = np.where(v <= 1e-12, 0.0, v)
        K = cert.c1 * cert.c2 * cert.beta
        dv = np.diff(v) / np.diff(traj.times[:v.size])
        bound = -K * v[1:] ** cert.alpha
        assert np.all(dv <= bound + 1e-6 * np.abs(bound) + 1e-12)
        ext = np.flatnonzero(v <= 1e-12)
        assert ext.size > 0 and traj.times[ext[0]] <= cert.t_star
    verdict(7, "discrete decay inequality and extinction-before-t* hold on all 20 fixtures")


def test_08_criteria_checker(capsys):
    rng = np.random.default_rng(81)
    for _ in range(20):
        bank = random_claim1_bank(rng, int(rng.integers(1, 5)))
        M = float(rng.uniform(1.0, 10.0))
        alpha, _, beta, _ = _constants(bank, M)
        rep = check_a2(bank, M, alpha, beta)
        assert beta is not None and rep.a2_pass  # None: a closed form above the bound
    for c in [0.2, 0.4, 0.6]:
        bank = ProtocolBank([LogPower(1.0, c)])
        rep = check_a2(bank, 6.0, 4 * c / (2 + c))
        assert rep.ratio_bound > 0
    # the proven ratio bound is the beta that certification uses
    g = fig1_graph()
    bank4 = ProtocolBank([LogPower(1.0, 0.5)] * 4)
    report = certify(g, bank4, np.array(FIG1_X0), SimulationConfig(eps_consensus=1e-4))
    cert = report.certificates[0]
    assert cert.beta_source == "grid-bound"
    # certify's argument bound M = ||L||_inf ||x0||_inf is 2 * 3 on fig1
    rep = check_a2(bank4, 6.0, cert.alpha)
    assert cert.beta == rep.ratio_bound
    rc = main(["check-protocol", "--spec", "logpower{a=1,c=0.5}", "--bound", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warning: monotonicity fails" in out
    verdict(8, "closed-form constants and the ratio bound verified; monotonicity caveat surfaced")


def test_09_integrator_verification():
    w = np.zeros((4, 4))
    for v in range(4):
        w[(v + 1) % 4, v] = 2.5
    g = WeightedDigraph(w)
    bank = ProtocolBank([Linear(k=1.0)] * 4)
    x0 = np.array([2.0, -1.0, 3.0, -2.0])
    L = laplacian(g)
    errs = []
    for dt in [1e-3, 5e-4]:
        cfg = SimulationConfig(dt=dt, t_max=2.0, freeze_on_consensus=False)
        traj = integrate(cfg, g, bank, x0)
        errs.append(np.abs(traj.states[-1] - expm(-L * 2.0) @ x0).max())
    assert errs[0] <= 1e-10
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    verdict(9, "fixed-step integrator matches the matrix-exponential oracle at 4th order")


def test_10_demo_determinism(tmp_path, capsys):
    for d in ("first", "second"):
        assert main(["demo-paper", "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    for name in ("fig2.csv", "fig3.csv", "demo_summary.json"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
    summary = json.loads((tmp_path / "first" / "demo_summary.json").read_text())
    assert all(v["settled_at"] is not None for v in summary.values())
    verdict(10, "demo command is byte-identical across runs")
