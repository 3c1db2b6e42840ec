import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftconsensus import (
    Linear,
    LogPower,
    PowerLinear,
    ProtocolBank,
    SimulationConfig,
    WeightedDigraph,
    c2_constant,
    certify,
    check_a2,
    estimate_c1,
    integrate,
    laplacian,
    left_null_vector,
    lyapunov_trace,
    lyapunov_value,
    mirror_laplacian,
    settling_bound_rooted,
)
from ftconsensus import analysis, dynamics, protocols
from ftconsensus._record import replace
from ftconsensus.analysis import constants_for_bank
from ftconsensus.cli import main
from ftconsensus.config import load_config
from ftconsensus.errors import (
    DegenerateInput,
    InvalidConstants,
    ZeroCoupling,
)

from conftest import (
    count_graph_searches,
    directed_cycle,
    every_step_c1,
    fig1_graph,
    random_claim1_bank,
    random_strongly_connected,
    rayleigh_min,
    recorded_c1,
    traced_peak,
)

REPO = Path(__file__).resolve().parents[1]


class TestC2Constant:
    def test_uniform_three(self):
        assert c2_constant(np.full(3, 1.0 / 3.0), 0.5) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_single_agent(self):
        for alpha in [0.1, 0.5, 0.9]:
            assert c2_constant(np.array([1.0]), alpha) == 1.0

    def test_max_weight_one(self):
        assert c2_constant(np.array([0.3, 1.0, 0.2]), 0.7) == 1.0

    def test_alpha_range(self):
        with pytest.raises(InvalidConstants):
            c2_constant(np.array([1.0]), 1.0)


def deleted_row_oracle(B):
    """min over i of the smallest eigenvalue of B without row and column i."""
    lows = []
    for i in range(len(B)):
        lows.append(np.linalg.eigvalsh(np.delete(np.delete(B, i, axis=0), i, axis=1))[0])
    return min(lows)


class TestEstimateC1:
    def test_two_path_range(self):
        # B = [[w,-w],[-w,w]]: over mixed-sign unit vectors the quadratic
        # form is w(1 - 2 xi1 xi2), ranging over (w, 2w]; its infimum is w
        for w in [0.5, 1.0, 3.0]:
            B = np.array([[w, -w], [-w, w]])
            val, prov = estimate_c1(B, mode="a_priori")
            assert prov == "mixed-sign-infimum"
            assert val == w
            # dense angular sweep oracle over mixed-sign directions
            theta = np.linspace(1e-6, np.pi / 2 - 1e-6, 100_000)
            xi = np.column_stack([np.cos(theta), -np.sin(theta)])
            sweep = np.einsum("ij,jk,ik->i", xi, B, xi).min()
            assert val <= sweep <= val + 1e-5

    def test_triangle_positive(self):
        B = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        val, _ = estimate_c1(B, mode="a_priori")
        assert 0 < val <= np.linalg.eigvalsh(B)[-1]

    def test_a_priori_values_and_memory(self):
        # the exact value equals the deleted-row oracle; at n = 200 it sits
        # far below lambda_2, and n principal submatrices fit in a few MB
        B3 = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        g4 = random_strongly_connected(np.random.default_rng(4), 4)
        B4 = mirror_laplacian(g4, left_null_vector(g4))
        assert estimate_c1(B3)[0] == deleted_row_oracle(B3) == 1.0
        assert estimate_c1(B4)[0] == deleted_row_oracle(B4)
        g = random_strongly_connected(np.random.default_rng(200), 200, extra_p=0.05)
        B = mirror_laplacian(g, left_null_vector(g))
        out = []
        peak = traced_peak(lambda: out.append(estimate_c1(B)[0]))
        assert peak < 8 * 2**20
        assert out == [deleted_row_oracle(B)]
        assert 0.0 < out[0] < 0.01 * np.linalg.eigvalsh(B)[1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_a_priori_is_a_lower_bound(self, n, seed):
        # Cauchy interlacing brackets the infimum by lambda_1 and lambda_2, no
        # mixed-sign unit vector goes below it, and the every-step C1 of a
        # trajectory on the same graph lies between it and lambda_max
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(rng, n)
        B = mirror_laplacian(g, left_null_vector(g))
        val, _ = estimate_c1(B)
        lam = np.linalg.eigvalsh(B)
        tol = 1e-10 * max(1.0, lam[-1])
        assert lam[0] - tol <= val <= lam[1] + tol
        xi = rng.standard_normal((500, n))
        xi[:, 0], xi[:, 1] = -np.abs(xi[:, 0]), np.abs(xi[:, 1])
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        assert val <= np.einsum("ij,jk,ik->i", xi, B, xi).min() + tol
        bank = random_claim1_bank(rng, n)
        observe, low = analysis._root_observer(np.arange(n), left_null_vector(g), laplacian(g))
        integrate(SimulationConfig(t_max=1.0), g, bank, rng.uniform(-2.0, 2.0, n), observe)
        assert val - tol <= low() <= lam[-1] + tol

    def test_certify_consensus_start_uses_the_infimum(self):
        # V(0) = 0 leaves no feedback to measure, so the root stage takes the
        # a-priori value: 1/6 on the 3-cycle, whose omega is 1/3 everywhere.
        # With random weights -L x at x = 0.5 * 1 is rounding noise, not 0.
        for g in (directed_cycle(3), random_strongly_connected(np.random.default_rng(21), 40)):
            bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * g.n)
            report = certify(g, bank, np.full(g.n, 0.5), SimulationConfig(t_max=0.1))
            root = report.certificates[0]
            assert root.c1_source == "mixed-sign-infimum"
            assert root.v0 == 0.0 and root.t_star == 0.0
            B = mirror_laplacian(g, left_null_vector(g))
            assert root.c1 == estimate_c1(B, mode="a_priori")[0]
            if g.n == 3:
                assert root.c1 == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_unobserved_run_falls_back_to_the_infimum(self):
        # states whose root agents are equal are skipped: a run frozen at step 0
        # observes nothing, so V(0) > 0 gets the a-priori value
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        x0 = np.array([0.5, 0.5, 0.5 + 1e-12])
        root = (np.arange(3), left_null_vector(g), laplacian(g))
        cfg = SimulationConfig(t_max=0.1, eps_consensus=1e-9)
        observe, low = analysis._root_observer(*root)
        integrate(cfg, g, bank, x0, observe)
        assert low() == math.inf
        report = certify(g, bank, x0, cfg)
        cert = report.certificates[0]
        assert cert.v0 > 0.0 and cert.c1_source == "mixed-sign-infimum"
        assert cert.c1 == estimate_c1(mirror_laplacian(g, left_null_vector(g)))[0]
        # at exact consensus -L x is exactly 0 on the unit cycle and nothing moves
        observe, low = analysis._root_observer(*root)
        integrate(SimulationConfig(t_max=0.1, freeze_on_consensus=False), g, bank,
                  np.full(3, 0.5), observe)
        assert low() == math.inf

    @pytest.mark.parametrize("check", ["estimate_c1", "_check_psd"])
    def test_psd_check_accepts_what_the_eigensolve_accepts(self, check, monkeypatch):
        # Gershgorin decides a diagonally dominant matrix; anything else goes
        # to the eigensolve and its test, so the accepted set is unchanged.
        # _check_psd is the proof the root stage runs beside an observed C1
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            sizes.append(len(m))
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)

        def run(B):
            return getattr(analysis, check)(B)

        with pytest.raises(DegenerateInput):
            run(np.array([[1.0, 2.0], [2.0, 1.0]]))  # symmetric, eigenvalues -1 and 3
        assert sizes == [2]
        # PSD (eigenvalues 0, 0, 3) but no row is diagonally dominant
        run(np.ones((3, 3)))
        assert sizes[1] == 3
        sizes.clear()
        w = random_strongly_connected(np.random.default_rng(8), 30).weights * 1e6
        g = WeightedDigraph(w)
        run(mirror_laplacian(g, left_null_vector(g)))
        assert 30 not in sizes  # a priori still solves the 29 x 29 deletions

    def test_psd_proof_takes_no_n_by_n_array(self):
        # the Gershgorin row sums of |S| are taken in strips of 64 rows; the
        # symmetry test's n x n booleans are an eighth of one float array
        n = 200
        g = random_strongly_connected(np.random.default_rng(200), n)
        B = mirror_laplacian(g, left_null_vector(g))
        assert traced_peak(lambda: analysis._check_psd(B)) <= 64 * n * 8 + n * n + 16 * 1024

    def test_certify_runs_no_eigensolve(self, monkeypatch):
        def refuse(m):
            raise AssertionError("eigvalsh called")

        g = random_strongly_connected(np.random.default_rng(200), 200)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * g.n)
        x0 = np.random.default_rng(201).uniform(-2.0, 2.0, g.n)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        report = certify(g, bank, x0, SimulationConfig(t_max=0.2))
        root = report.certificates[0]
        assert root.v0 > 0.0 and root.c1_source == "a-posteriori-trajectory" and root.c1 > 0.0

    def test_certify_memory_grows_only_by_the_records(self):
        # C1 is observed inside the run, so a longer horizon adds the records
        # array (and a time, a step and a disagreement per record), nothing more
        g = random_strongly_connected(np.random.default_rng(200), 200)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * g.n)
        x0 = np.random.default_rng(202).uniform(-2.0, 2.0, g.n)
        peaks, runs, records = [], [], []
        certify(g, bank, x0, SimulationConfig(t_max=0.1))  # first-call caches
        for t_max in (0.5, 5.0):
            cfg = SimulationConfig(t_max=t_max, freeze_on_consensus=False)
            peaks.append(traced_peak(lambda: runs.append(certify(g, bank, x0, cfg))))
            records.append(dynamics._record_plan(cfg, g.n).size)
        grown = (records[1] - records[0]) * 8 * (g.n + 3)
        # a records x n copy would add another 450 records x 200 x 8 B = 703 KiB
        assert peaks[1] - peaks[0] <= grown + 16 * 2**10
        assert [r.certificates[0].c1_source for r in runs] == ["a-posteriori-trajectory"] * 2


class TestStronglyConnectedBound:
    BANK3 = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)

    @staticmethod
    def bound(g, omega, bank, x0, alpha, beta, c1):
        """The root stage's certificate of a strongly connected graph started at x0."""
        v0 = lyapunov_value(g, omega, bank, x0)
        return analysis._certificate(0, alpha, beta, c1, "a-posteriori-trajectory", omega, v0)

    def test_consensus_start_gives_zero(self):
        g = directed_cycle(3)
        omega = left_null_vector(g)
        cert = self.bound(g, omega, self.BANK3, np.full(3, 2.0), alpha=6 / 7, beta=0.5, c1=1.0)
        assert cert.v0 == pytest.approx(0.0, abs=1e-25)
        assert cert.t_star == 0.0

    def test_beta_inverse_proportionality(self):
        g = directed_cycle(3)
        omega = left_null_vector(g)
        x0 = np.array([1.0, 0.0, 0.0])
        c1 = self.bound(g, omega, self.BANK3, x0, 6 / 7, 0.5, 1.0)
        c4 = self.bound(g, omega, self.BANK3, x0, 6 / 7, 2.0, 1.0)
        assert c4.t_star == pytest.approx(c1.t_star / 4.0, rel=1e-12)

    def test_bound_dominates_observed_extinction(self):
        g = directed_cycle(3)
        omega = left_null_vector(g)
        x0 = np.array([1.0, 0.0, 0.0])
        M = np.abs(laplacian(g)).sum(axis=1).max() * np.abs(x0).max()
        alpha = protocols._constants(self.BANK3, M)[0]
        rep = check_a2(self.BANK3, M, alpha)
        traj = integrate(SimulationConfig(t_max=10.0), g, self.BANK3, x0)
        v = lyapunov_trace(g, omega, self.BANK3, traj)
        fy = self.BANK3.eval((-(laplacian(g) @ traj.states.T)).T)
        c1 = rayleigh_min(mirror_laplacian(g, omega), fy)
        cert = self.bound(g, omega, self.BANK3, x0, alpha, rep.ratio_bound, c1)
        ext = traj.times[np.flatnonzero(v <= 1e-12)[0]]
        assert ext <= cert.t_star

    def test_omega_scale_coherence(self):
        # rescaling omega rescales V0, C1 and C2 consistently; t* is invariant
        g = random_strongly_connected(np.random.default_rng(9), 4)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        x0 = np.array([1.0, -2.0, 0.5, 0.25])
        omega = left_null_vector(g)
        alpha, beta = 6.0 / 7.0, 0.4
        traj = integrate(SimulationConfig(t_max=5.0), g, bank, x0)
        fy = bank.eval((-(laplacian(g) @ traj.states.T)).T)

        def t_star(om):
            v0 = lyapunov_value(g, om, bank, x0)
            c2 = c2_constant(om, alpha)
            B = (np.diag(om) @ laplacian(g) + laplacian(g).T @ np.diag(om)) / 2.0
            c1 = rayleigh_min(B, fy)
            return v0 ** (1 - alpha) / (c1 * c2 * beta * (1 - alpha))

        assert t_star(2.0 * omega) == pytest.approx(t_star(omega), rel=1e-9)


class TestRootedBound:
    def test_zero_relative_state(self):
        g_sub = directed_cycle(2)
        cert = settling_bound_rooted(
            g_sub, np.array([1.0, 0.0]), ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 2),
            np.zeros(2), alpha=6 / 7, beta=0.5)
        assert cert.v0 == 0.0 and cert.t_star == 0.0

    def test_single_follower_closed_form(self):
        g_sub = WeightedDigraph(np.zeros((1, 1)))
        cert = settling_bound_rooted(
            g_sub, np.array([1.0]), ProtocolBank([Linear(k=1.0)]),
            np.array([2.0]), alpha=0.5, beta=0.5)
        assert cert.lambda1 == pytest.approx(1.0)
        # y0 = -(L z + b z) = -2, V0 = 1 * F(-2) = 2
        assert cert.v0 == pytest.approx(2.0)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCoupling):
            settling_bound_rooted(
                directed_cycle(2), np.zeros(2),
                ProtocolBank([Linear(k=1.0)] * 2), np.ones(2), 0.5, 0.5)

    def test_invalid_constants(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 2)
        with pytest.raises(InvalidConstants):
            settling_bound_rooted(directed_cycle(2), np.ones(2), bank, np.zeros(2), 1.5, 0.5)
        with pytest.raises(InvalidConstants):
            settling_bound_rooted(directed_cycle(2), np.ones(2), bank, np.zeros(2), 0.5, -1.0)

    def test_positive_definite_random_rooted(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_sub = int(rng.integers(1, 6))
            g_sub = random_strongly_connected(rng, n_sub) if n_sub > 1 else WeightedDigraph(np.zeros((1, 1)))
            b = rng.uniform(0.0, 2.0, n_sub)
            b[rng.integers(0, n_sub)] = rng.uniform(0.5, 2.0)  # ensure b != 0
            omega = left_null_vector(g_sub)
            B = mirror_laplacian(g_sub, omega) + np.diag(omega * b)
            lam1 = np.linalg.eigvalsh(B)[0]
            assert lam1 > 0


class TestCertify:
    def test_strongly_connected_single_stage(self):
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        report = certify(g, bank, np.array([1.0, 0.0, -1.0]), SimulationConfig(t_max=10.0))
        assert report.spanning_tree
        assert len(report.components) == 1
        cert = report.certificates[0]
        assert cert.c1_source == "a-posteriori-trajectory"
        assert report.overall_bound == cert.t_star
        assert report.extinction_times[0] is not None
        assert report.extinction_times[0] <= cert.t_star

    def test_fig1_two_stages(self, fig1, monkeypatch):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        searches = count_graph_searches(monkeypatch)
        report = certify(fig1, bank, np.array([2.0, -1.0, 3.0, -2.0]), SimulationConfig())
        assert len(searches) == 1  # one condensation serves the whole certificate
        assert report.components == ((0, 1, 2), (3,))
        assert report.dag_edges == ((0, 1),)
        root, follower = report.certificates
        assert root.lambda1 is None
        assert follower.lambda1 is not None and follower.lambda1 > 0
        assert follower.lambda1 == pytest.approx(1.0)  # omega=(1), b=weight of arc 1->4
        assert report.overall_bound == pytest.approx(root.t_star + follower.t_star)
        # staged bounds dominate the staged empirical settling
        assert report.extinction_times[0] <= root.t_star
        assert report.extinction_times[1] - report.stage_starts[1] <= follower.t_star

    def test_star_root_decision_value(self):
        w = np.zeros((4, 4))
        for v in range(1, 4):
            w[v, 0] = 1.0
        g = WeightedDigraph(w)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        x0 = np.array([0.75, -1.0, 2.0, 0.0])
        cfg = SimulationConfig(t_max=15.0)
        report = certify(g, bank, x0, cfg)
        traj = integrate(cfg, g, bank, x0)
        assert report.certificates[0].t_star == 0.0
        assert report.consensus_value == pytest.approx(x0[0])
        assert abs(traj.states[-1].mean() - x0[0]) <= 1e-9

    def test_mixed_kind_root_with_follower(self, fig1):
        # the root 3-cycle mixes both finite-time families
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75), LogPower(1.0, 0.5),
                             PowerLinear(1.5, 0.5, 0.6), LogPower(0.8, 0.4)])
        x0 = np.array([2.0, -1.0, 3.0, -2.0])
        cfg = SimulationConfig(eps_consensus=1e-4)
        report = certify(fig1, bank, x0, cfg)
        traj = integrate(cfg, fig1, bank, x0)
        assert bank.uniform_kind is None and traj.times.size == 2002
        root, follower = report.certificates
        # alpha is the largest per-agent closed form, power-linear's 2c/(1+c)
        # (rounded up by two ulps) at c = 0.75 over log-power's 4c/(2+c) at c = 0.5
        assert root.alpha == follower.alpha == math.nextafter(math.nextafter(1.5 / 1.75, 1), 1)
        assert any("largest per-agent" in note for note in report.notes)
        assert report.settled_at <= report.overall_bound < 1e4
        assert root.c1_source == "a-posteriori-trajectory"
        assert follower.lambda1 == pytest.approx(1.0)
        # C1 is the Rayleigh-quotient minimum over the feedback of every step
        # (TestEveryStepC1 compares it with a reference loop)
        assert root.c1 <= recorded_c1(fig1, bank, traj, [0, 1, 2]) * (1 + 1e-12)
        assert report.overall_bound == pytest.approx(root.t_star + follower.t_star)
        assert report.extinction_times[0] <= root.t_star
        assert report.extinction_times[1] - report.stage_starts[1] <= follower.t_star

    @pytest.mark.parametrize("specs", [[Linear(k=1.0)] * 4,
                                       [PowerLinear(1.0, 1.0, 0.75), Linear(k=1.0), LogPower(1.0, 0.5),
                                        PowerLinear(1.5, 0.5, 0.6)]], ids=["linear", "mixed-linear"])
    def test_no_root_observer_when_beta_is_zero_at_every_bound(self, specs, monkeypatch):
        # a linear agent makes beta 0 whatever M, so no stage reads the root's
        # every-step C1 and the run observes nothing; the report is the one an
        # observed run gives, and x0 = 0 (M = 0) still certifies its root
        cfg = load_config(REPO / "configs" / "fig1.cfg")
        g, bank = cfg.graph(), ProtocolBank(specs)
        calls, original = [], analysis._root_observer

        def counting(*args):
            observe, low = original(*args)
            return (lambda x, k1: calls.append(1) or observe(x, k1)), low

        monkeypatch.setattr(analysis, "_root_observer", counting)
        reports = [certify(g, bank, x0, cfg.sim) for x0 in (cfg.x0_array(), np.zeros(4))]
        assert calls == []
        assert reports[0].overall_bound is None and reports[0].notes[-1].startswith("ratio bound (A2) is 0")
        root = reports[1].certificates[0]
        assert (root.c1_source, root.beta, reports[1].overall_bound) == ("mixed-sign-infimum", math.inf, 0.0)
        monkeypatch.setattr(analysis, "_bound_vanishes", lambda bank: False)
        assert [certify(g, bank, x0, cfg.sim) for x0 in (cfg.x0_array(), np.zeros(4))] == reports
        assert len(calls) == 20001  # every step from fig1's x0; none from x0 = 0, frozen at once

    def test_no_spanning_tree(self):
        # two disjoint strongly connected 2-cycles starting at different means
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = WeightedDigraph(w)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        x0 = np.array([1.0, 1.2, -2.0, -2.2])
        report = certify(g, bank, x0, SimulationConfig(t_max=5.0))
        assert not report.spanning_tree
        assert report.overall_bound is None
        assert all(c is None for c in report.certificates)
        assert any("spanning tree" in n for n in report.notes)
        assert report.final_disagreement > 1.0  # non-consensus confirmed

    def test_ancestors_never_settled(self):
        # fig1 stopped at t = 1, before its root SCC settles: the follower
        # stage has no start, so no certificate and no overall bound
        cfg = load_config(REPO / "configs" / "fig1.cfg")
        report = certify(cfg.graph(), cfg.bank(), cfg.x0_array(), replace(cfg.sim, t_max=1.0))
        assert report.certificates[0] is not None and report.stage_starts[0] == 0.0
        assert (report.certificates[1], report.stage_starts[1], report.extinction_times[1],
                report.overall_bound) == (None, None, None, None)
        assert report.notes[-1] == ("component 1: ancestors never settled within the horizon; "
                                    "stage bound unavailable")

    @pytest.mark.parametrize("seed", range(4))
    def test_follower_coupling_matches_the_dense_weights(self, seed, monkeypatch):
        # each follower stage's b_vec, its in-arc weights summed per agent, is
        # bit for bit the sum over the weights matrix, zero weights included
        rng = np.random.default_rng(500 + seed)
        blocks = [int(rng.integers(1, 4)) for _ in range(4)]
        n = sum(blocks)
        w = np.zeros((n, n))
        starts = np.cumsum([0, *blocks])
        for k, size in enumerate(blocks):
            verts = np.arange(starts[k], starts[k + 1])
            if size > 1:
                w[np.roll(verts, -1), verts] = rng.uniform(0.3, 2.0, size)
                w[np.ix_(verts, verts)] += (rng.random((size, size)) < 0.4) * rng.uniform(0.2, 2.0, (size, size))
            if k:  # one arc from the previous block, some more from any earlier one
                w[rng.choice(verts), rng.integers(starts[k - 1], starts[k])] = rng.uniform(0.3, 2.0)
                w[verts, :starts[k]] += (rng.random((size, starts[k])) < 0.2) * rng.uniform(0.2, 2.0)
        np.fill_diagonal(w, 0.0)
        g = WeightedDigraph(w)
        seen = []
        rooted = analysis.settling_bound_rooted

        def spy(g_sub, b_vec, *args, **kwargs):
            seen.append(b_vec)
            return rooted(g_sub, b_vec, *args, **kwargs)

        monkeypatch.setattr(analysis, "settling_bound_rooted", spy)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * n)
        report = certify(g, bank, rng.uniform(-2.0, 2.0, n), SimulationConfig(t_max=30.0))
        assert report.overall_bound is not None
        refs = [w[np.ix_(comp, [u for u in range(n) if u not in comp])].sum(axis=1)
                for comp in report.components[1:]]
        assert [b.tobytes() for b in seen] == [r.tobytes() for r in refs]

    def test_report_is_an_immutable_value(self):
        # the list-like fields are tuples: a built report cannot change, and it hashes
        cfg = load_config(REPO / "configs" / "fig1.cfg")
        report = certify(cfg.graph(), cfg.bank(), cfg.x0_array(), cfg.sim)
        with pytest.raises(AttributeError):
            report.notes.append("changed")
        assert hash(report) == hash(replace(report)) and report == replace(report)

    def test_certificate_soundness_random(self):
        rng = np.random.default_rng(31)
        cfg = SimulationConfig(t_max=15.0, eps_consensus=2e-3)
        for _ in range(5):
            g = random_strongly_connected(rng, int(rng.integers(2, 6)))
            bank = random_claim1_bank(rng, g.n)
            x0 = rng.uniform(-3, 3, g.n)
            report = certify(g, bank, x0, cfg)
            traj = integrate(cfg, g, bank, x0)
            cert = report.certificates[0]
            omega = left_null_vector(g)
            v = lyapunov_trace(g, omega, bank, traj)
            # records at/below the extinction threshold are extinct: the
            # frozen state carries O(1e-20) rounding residue in V
            v = np.where(v <= 1e-12, 0.0, v)
            K = cert.c1 * cert.c2 * cert.beta
            dv = np.diff(v) / np.diff(traj.times[:v.size])
            bound = -K * v[1:] ** cert.alpha
            assert np.all(dv <= bound + 1e-6 * np.abs(bound) + 1e-12)
            ext_idx = np.flatnonzero(v <= 1e-12)
            assert ext_idx.size > 0
            assert traj.times[ext_idx[0]] <= cert.t_star


def _load_bench(name):
    """``bench/<name>.py``, loaded by path: the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_exists():
    # the tracer skips a target the package no longer has, and its metrics then
    # read 0; pytest bench carries known failures, so a third would pass unseen
    missing = []
    for metric, module_name, attr, cls_name, _ in _load_bench("tracer").TARGETS:
        owner = importlib.import_module(module_name)
        owner = getattr(owner, cls_name, None) if cls_name else owner
        missing += [] if hasattr(owner, attr) else [metric]
    assert missing == []


class TestEveryStepC1:
    """The root C1 is the least Rayleigh quotient over the feedback of every RK4 step."""

    MIXED = ProtocolBank([PowerLinear(1.0, 1.0, 0.75), LogPower(1.0, 0.5),
                          PowerLinear(1.5, 0.5, 0.6), LogPower(0.8, 0.4)])

    @staticmethod
    def _cases():
        paper = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        x0 = np.array([2.0, -1.0, 3.0, -2.0])
        g200 = random_strongly_connected(np.random.default_rng(200), 200)
        return {
            "fig1": (fig1_graph(), paper, x0, SimulationConfig()),
            # the quotient still falls at t_max: the field at the last state sets C1
            "fig1-cut": (fig1_graph(), paper, x0, SimulationConfig(t_max=1.0, freeze_on_consensus=False)),
            "mixed-kind": (fig1_graph(), TestEveryStepC1.MIXED, x0, SimulationConfig(eps_consensus=1e-4)),
            "n200": (g200, ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 200),
                     np.random.default_rng(202).uniform(-2.0, 2.0, 200),
                     SimulationConfig(t_max=1.0, freeze_on_consensus=False)),
        }

    @pytest.mark.parametrize("case", ["fig1", "fig1-cut", "mixed-kind", "n200"])
    def test_equals_a_reference_loop(self, case):
        g, bank, x0, cfg = self._cases()[case]
        report = certify(g, bank, x0, cfg)
        traj = integrate(cfg, g, bank, x0)
        root = report.certificates[0]
        verts = list(report.components[0])
        assert root.c1_source == "a-posteriori-trajectory"
        assert root.c1 == pytest.approx(every_step_c1(cfg, g, bank, x0, verts), rel=1e-12)
        assert root.c1 <= recorded_c1(g, bank, traj, verts) * (1 + 1e-12)

    def test_not_above_the_recorded_states_on_the_acceptance_fixtures(self):
        from test_acceptance import _twenty_fixtures

        for g, bank, x0, cfg in _twenty_fixtures():
            report = certify(g, bank, x0, cfg)
            traj = integrate(cfg, g, bank, x0)
            assert report.certificates[0].c1 <= recorded_c1(g, bank, traj, list(range(g.n))) * (1 + 1e-12)

    @pytest.mark.parametrize("workload", ["fig1_paper", "scc_200", "dag_mixed"])
    def test_not_above_the_recorded_states_on_the_workloads(self, workload):
        from ftconsensus.config import parse_config

        make = getattr(_load_bench("workloads"), workload)
        for seed in (1, 2, 3):
            doc = next(iter(make(seed).configs.values()))  # fig1-paper: the freeze config
            cfg = parse_config(json.dumps(doc))
            g, bank = cfg.graph(), cfg.bank()
            report = certify(g, bank, cfg.x0_array(), cfg.sim)
            traj = integrate(cfg.sim, g, bank, cfg.x0_array())
            verts = list(report.components[0])
            assert report.certificates[0].c1 <= recorded_c1(g, bank, traj, verts) * (1 + 1e-12)


class TestConstantsForBank:
    def test_powerlinear_alpha_matches_closed_form(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 2)
        alpha, emp, _ = constants_for_bank(bank, 6.0)
        a2, bound, closed, _ = protocols._constants(bank, 6.0)
        assert alpha == a2 and emp == bound
        assert emp >= closed - 1e-9

    @pytest.mark.parametrize("specs,distinct", [
        ([PowerLinear(1.0, 1.0, 0.75)] * 30, 1),
        ([LogPower(1.0, 0.5)] * 30, 1),
        ([PowerLinear(1.0, 1.0, 0.75), PowerLinear(2.0, 0.5, 0.6)] * 15, 2),
    ])
    def test_one_ratio_minimisation_per_distinct_spec(self, specs, distinct, monkeypatch):
        bank = ProtocolBank(specs)
        original = protocols._ratio_min_single
        alpha = constants_for_bank(bank, 6.0)[0]
        per_agent = min(original(f, 6.0, alpha) for f in bank)
        calls = []

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(protocols, "_ratio_min_single", counting)
        _, emp, _ = constants_for_bank(bank, 6.0)
        assert len(calls) == distinct
        assert emp == per_agent

        monotone = {f: protocols.check_a1(f, 6.0) for f in bank}
        shape_checks = []
        original_a1 = protocols.check_a1

        def counting_a1(f, M):
            shape_checks.append(f)
            return original_a1(f, M)

        monkeypatch.setattr(protocols, "check_a1", counting_a1)
        report = check_a2(bank, 6.0, alpha)
        assert len(calls) == 2 * distinct and len(shape_checks) == distinct
        assert report.monotone is all(monotone.values())

    @pytest.mark.parametrize("spec", ["logpower{a=1,c=0.5}", "powerlinear{a=1,b=1,c=0.75}", "linear{k=1}"])
    def test_check_protocol_minimises_the_ratio_once(self, spec, monkeypatch, capsys):
        original = protocols._ratio_min_single
        calls = []

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(protocols, "_ratio_min_single", counting)
        assert main(["check-protocol", "--spec", spec, "--bound", "6"]) in (0, 1)
        assert "ratio lower bound" in capsys.readouterr().out
        assert len(calls) == 1

    def test_mixed_bank_falls_back(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75), Linear(k=1.0)])
        alpha, emp, notes = constants_for_bank(bank, 6.0)
        assert protocols._constants(bank, 6.0)[2] is None and alpha == 0.5
        assert "no closed form" in notes[0]
