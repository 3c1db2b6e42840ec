import numpy as np
import pytest
from scipy.linalg import expm

from ftconsensus import (
    Linear,
    LogPower,
    PowerLinear,
    ProtocolBank,
    SimulationConfig,
    Trajectory,
    WeightedDigraph,
    integrate,
    laplacian,
    left_null_vector,
    lyapunov_trace,
    lyapunov_value,
    settling_time,
)
from ftconsensus import dynamics
from ftconsensus._record import replace
from ftconsensus.errors import NonFiniteState, NotStronglyConnected, RecordBudgetExceeded

from conftest import (
    count_graph_searches,
    directed_cycle,
    fig1_graph,
    full_states,
    random_claim1_bank,
    random_strongly_connected,
    rk4_reference,
)

PL_BANK4 = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)


class TestRhs:
    def test_consensus_is_equilibrium(self):
        g = fig1_graph()
        for c in [0.0, 1.0, -3.7]:
            assert np.array_equal(PL_BANK4.eval(-(laplacian(g) @ np.full(4, c))), np.zeros(4))

    def test_fig1_inner_argument(self):
        g = fig1_graph()
        x = np.array([2.0, -1.0, 3.0, -2.0])
        y = -(laplacian(g) @ x)
        assert np.array_equal(y, [1.0, 3.0, -4.0, 4.0])

    def test_fig1_protocol_output(self):
        g = fig1_graph()
        x = np.array([2.0, -1.0, 3.0, -2.0])
        u = PL_BANK4.eval(-(laplacian(g) @ x))
        expected = [2.0, 3.0**0.75 + 3.0, -(4.0**0.75 + 4.0), 4.0**0.75 + 4.0]
        assert np.allclose(u, expected, rtol=1e-15)


class TestDisagreement:
    @staticmethod
    def recorded(x0):
        """The disagreement a one-step run records for its start x0."""
        bank = ProtocolBank([Linear(k=1.0)] * len(x0))
        traj = integrate(SimulationConfig(t_max=1e-3), directed_cycle(len(x0)), bank, np.array(x0))
        return traj.disagreement[0]

    def test_fixture(self):
        assert self.recorded([2.0, -1.0, 3.0, -2.0]) == 5.0

    def test_constant(self):
        assert self.recorded([1.7] * 5) == 0.0

    def test_pair(self):
        assert self.recorded([0.0, 1.0]) == 1.0


class TestIntegrate:
    def test_consensus_initial_state(self):
        g = fig1_graph()
        traj = integrate(SimulationConfig(t_max=1.0), g, PL_BANK4, np.full(4, 2.5))
        assert traj.settled_at == 0.0
        assert np.all(traj.disagreement == 0.0)
        assert np.allclose(traj.states, 2.5)

    def test_fig1_powerlinear_finite_time(self):
        g = fig1_graph()
        traj = integrate(SimulationConfig(), g, PL_BANK4, np.array([2.0, -1.0, 3.0, -2.0]))
        assert traj.settled_at is not None
        assert traj.settled_at < 20.0
        assert traj.disagreement[-1] <= 1e-9
        assert np.ptp(traj.states[-1]) <= 1e-9

    def test_fig1_linear_exponential_decay(self):
        g = fig1_graph()
        bank = ProtocolBank([Linear(k=1.0)] * 4)
        cfg = SimulationConfig(eps_consensus=1e-6, freeze_on_consensus=False)
        traj = integrate(cfg, g, bank, np.array([2.0, -1.0, 3.0, -2.0]))
        assert settling_time(traj, 1e-6) is not None
        assert traj.disagreement[-1] > 0.0
        # decay rate equals the smallest nonzero real part of L's spectrum
        eig = np.linalg.eigvals(laplacian(g))
        rate = min(e.real for e in eig if abs(e) > 1e-9)
        half = traj.times >= traj.times[-1] / 2
        slope, _ = np.polyfit(traj.times[half], np.log(traj.disagreement[half]), 1)
        assert slope == pytest.approx(-rate, rel=0.02)

    def test_nonfinite_state_detected(self):
        g = directed_cycle(2, weight=1.0)
        bank = ProtocolBank([Linear(k=1.0)] * 2)
        # dt far beyond the stability limit blows RK4 up
        cfg = SimulationConfig(dt=50.0, t_max=5000.0, freeze_on_consensus=False)
        with pytest.raises(NonFiniteState, match="; reduce dt$"):
            integrate(cfg, g, bank, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("weight, x0, k", [(1.0, [1e308, -1e308], 1.0), (1e308, [1.0, -1.0], 1.0),
                                               (1.0, [1.0, -1.0], 1e308)])
    def test_field_overflow_at_x0_names_the_scale(self, weight, x0, k):
        # -L x0, or the gain times it, already overflows, so no dt helps
        bank = ProtocolBank([Linear(k=k)] * 2)
        with pytest.raises(NonFiniteState, match="at t=0.001; the field overflows at the finite state x0, so "
                                                 "no dt helps: the state, weight or protocol scale is too large$"):
            integrate(SimulationConfig(dt=1e-3), directed_cycle(2, weight=weight), bank, np.array(x0))

    def test_record_stride_and_final_step(self):
        g = directed_cycle(3)
        bank = ProtocolBank([Linear(k=1.0)] * 3)
        cfg = SimulationConfig(dt=0.01, t_max=0.105, record_stride=4, freeze_on_consensus=False)
        traj = integrate(cfg, g, bank, np.array([1.0, 0.0, 0.0]))
        # 10 steps (rounded), records at 0, 4, 8, 10
        assert list(traj.times) == pytest.approx([0.0, 0.04, 0.08, 0.10])

    def test_record_stride_keeps_freeze_step(self):
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.5)] * 3)
        x0 = np.array([1.0, 0.0, 0.0])
        cfg = SimulationConfig(dt=0.01, t_max=1.05, eps_consensus=1e-3, record_stride=4,
                               freeze_on_consensus=True)
        traj = integrate(cfg, g, bank, x0)
        n_steps = round(1.05 / 0.01)
        steps = set(range(0, n_steps + 1, 4)) | {n_steps}
        # the freeze step is the first step of the free run within eps, and it
        # falls between stride multiples
        free = integrate(replace(cfg, record_stride=1, freeze_on_consensus=False),
                         g, bank, x0)
        k_f = int(np.argmax(free.disagreement <= 1e-3))
        assert 0 < k_f < n_steps and k_f % 4 != 0
        steps.add(k_f)
        assert traj.settled_at == k_f * 0.01
        after = traj.times >= traj.settled_at
        assert np.all(full_states(traj)[after] == free.states[k_f].mean())
        assert list(traj.times) == pytest.approx([k * 0.01 for k in sorted(steps)])

    @pytest.mark.parametrize("t_max,stride,freeze", [
        (0.001, 10, False), (0.01, 10, False), (0.011, 10, False), (0.105, 4, False),
        (3.0, 7, True), (3.0, 10, True), (3.0, 1, True), (0.9, 1000, True)])
    def test_record_plan_counts_records(self, t_max, stride, freeze):
        # records: step 0, the stride multiples below the last step, the last
        # step, and with freezing one more for a freeze step off the stride grid
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.5)] * 3)
        cfg = SimulationConfig(dt=0.001, t_max=t_max, eps_consensus=1e-3, record_stride=stride,
                               freeze_on_consensus=freeze)
        traj = integrate(cfg, g, bank, np.array([1.0, 0.0, 0.0]))
        plan = dynamics._record_plan(cfg, 3)
        n_steps = max(1, round(t_max / cfg.dt))
        assert list(plan) == [*range(0, n_steps, stride), n_steps]
        k = np.rint(traj.times / cfg.dt).astype(int)
        grid = set(plan)
        assert traj.times.size == plan.size + len(set(k) - grid)
        assert set(k) >= grid and len(set(k) - grid) <= int(freeze)
        assert np.all(np.diff(k) > 0) and full_states(traj).shape == (traj.times.size, 3)

    def test_record_budget_refused_before_integrating(self, monkeypatch):
        g = fig1_graph()
        x0 = np.array([2.0, -1.0, 3.0, -2.0])
        monkeypatch.setattr(dynamics, "laplacian", None)  # integrating would fail
        for cfg in [SimulationConfig(t_max=1e12),
                    SimulationConfig(dt=1e-300, t_max=1e300, record_stride=10**300)]:
            with pytest.raises(RecordBudgetExceeded, match="lower t_max or raise record_stride"):
                integrate(cfg, g, PL_BANK4, x0)
        # the bound is on records x n: exactly at the budget still runs
        monkeypatch.undo()
        cfg = SimulationConfig(t_max=1.0)
        monkeypatch.setattr(dynamics, "MAX_RECORD_VALUES", 101 * 4)
        assert integrate(cfg, g, PL_BANK4, x0).times.size == 101
        monkeypatch.setattr(dynamics, "MAX_RECORD_VALUES", 101 * 4 - 1)
        with pytest.raises(RecordBudgetExceeded, match="would record 101 states of 4 agents"):
            integrate(cfg, g, PL_BANK4, x0)

    def test_rk4_fourth_order_vs_matrix_exponential(self):
        g = directed_cycle(4, weight=2.5)
        bank = ProtocolBank([Linear(k=1.0)] * 4)
        x0 = np.array([2.0, -1.0, 3.0, -2.0])
        L = laplacian(g)
        errs = []
        for dt in [1e-3, 5e-4]:
            cfg = SimulationConfig(dt=dt, t_max=2.0, freeze_on_consensus=False)
            traj = integrate(cfg, g, bank, x0)
            exact = expm(-L * 2.0) @ x0
            errs.append(np.abs(traj.states[-1] - exact).max())
        assert errs[0] <= 1e-10
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_max_norm_and_lyapunov_monotone(self):
        # eps sits above the fixed-step chatter floor ~ (a c dt)^(1/(1-c)) of
        # the non-Lipschitz equilibrium, so the freeze rule can engage
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_strongly_connected(rng, int(rng.integers(2, 6)))
            bank = random_claim1_bank(rng, g.n)
            x0 = rng.uniform(-3, 3, g.n)
            cfg = SimulationConfig(t_max=15.0, eps_consensus=5e-4)
            traj = integrate(cfg, g, bank, x0)
            assert traj.settled_at is not None
            norms = np.abs(traj.states).max(axis=1)
            assert np.all(np.diff(norms) <= 1e-9)
            v = lyapunov_trace(g, left_null_vector(g), bank, traj)
            assert np.all(np.diff(v) <= 1e-9)

    def test_root_decision_value(self):
        # root vertex 0 has no in-arcs; followers form a strongly connected ring
        w = np.zeros((5, 5))
        for v in range(1, 5):
            w[v, 0] = 1.0  # 0 -> v
        for v in range(1, 5):
            w[1 + v % 4, v] = 0.8  # ring 1->2->3->4->1
        g = WeightedDigraph(w)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 5)
        x0 = np.array([1.25, -2.0, 0.5, 3.0, -1.0])
        traj = integrate(SimulationConfig(), g, bank, x0)
        assert traj.settled_at is not None
        assert np.abs(traj.states[:, 0] - x0[0]).max() <= 1e-9
        assert abs(traj.states[-1].mean() - x0[0]) <= 1e-9


FIG1_X0 = np.array([2.0, -1.0, 3.0, -2.0])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _fig1_case():
    return fig1_graph(), PL_BANK4, FIG1_X0, SimulationConfig(t_max=4.0, record_stride=10)


def _uniform_200_case():
    rng = np.random.default_rng(200)
    g = random_strongly_connected(rng, 200, extra_p=0.05)
    bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 200)
    return g, bank, rng.uniform(-2.5, 2.5, 200), SimulationConfig(t_max=1.2, eps_consensus=1e-6)


def _mixed_case():
    # power-linear and log-power agents interleaved, so the bank's family
    # order differs from the agent order
    rng = np.random.default_rng(11)
    g = random_strongly_connected(rng, 9)
    bank = ProtocolBank([LogPower(rng.uniform(0.5, 1.0), rng.uniform(0.5, 0.6)) if i % 3 == 1
                         else PowerLinear(rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.5),
                                          rng.uniform(0.5, 0.75)) for i in range(9)])
    assert bank.uniform_kind is None and bank[0] != bank[1]
    return g, bank, rng.uniform(-2.5, 2.5, 9), SimulationConfig(t_max=2.5, eps_consensus=1e-4,
                                                                 record_stride=7)


class TestRk4Loop:
    @pytest.mark.parametrize("case", [_fig1_case, _uniform_200_case, _mixed_case])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_states_bit_equal_to_plain_rk4(self, case, freeze):
        g, bank, x0, cfg = case()
        cfg = replace(cfg, freeze_on_consensus=freeze)
        traj = integrate(cfg, g, bank, x0)
        steps, rows = rk4_reference(cfg, g, bank, x0)
        assert np.array_equal(_bits(traj.states), _bits(rows))
        assert np.array_equal(traj.times[:len(steps)], np.array(steps) * cfg.dt)
        plan = dynamics._record_plan(cfg, g.n)
        n_steps = plan[-1]
        if freeze:
            # each case freezes before t_max, so there is a tail of records
            assert traj.freeze_step == traj.steps == steps[-1] < n_steps
            assert traj.times.size > len(steps)
        else:
            assert traj.freeze_step is None and traj.steps == n_steps
            assert traj.times.size == len(steps) == plan.size

    @pytest.mark.parametrize("case", [_uniform_200_case, _mixed_case])
    @pytest.mark.parametrize("freeze,stride", [(True, None), (True, 1), (False, None)])
    def test_every_column_but_times_ends_at_the_freeze_record(self, case, freeze, stride):
        # times has one entry per planned record, and one more for a freeze
        # step between two of them (each case freezes off its own stride);
        # the state rows, disagreement and V end at the freeze record
        g, bank, x0, cfg = case()
        cfg = replace(cfg, freeze_on_consensus=freeze, record_stride=stride or cfg.record_stride)
        plan = dynamics._record_plan(cfg, g.n)
        for start in (x0, np.full(g.n, 1.5)):  # the second freezes at step 0
            traj = integrate(cfg, g, bank, start)
            v = lyapunov_trace(g, left_null_vector(g), bank, traj)
            assert traj.lyapunov is None  # V is returned, not stored
            assert len(traj.disagreement) == len(v) == len(traj.states)
            off_stride = traj.freeze_step is not None and traj.freeze_step not in plan
            assert off_stride == (freeze and stride is None and start is x0)
            assert traj.times.size == plan.size + off_stride
            if traj.freeze_step is None:
                assert len(traj.states) == plan.size
            else:
                assert traj.times[len(traj.states) - 1] == traj.settled_at

    @pytest.mark.parametrize("case", [_fig1_case, _mixed_case])
    @pytest.mark.parametrize("freeze", [True, False])
    def test_observe_sees_every_unfrozen_state_with_its_field(self, case, freeze):
        # with every step recorded, the observed states are the held rows
        # without a frozen last one, and each comes with f(-L x), bit for bit
        g, bank, x0, cfg = case()
        cfg = replace(cfg, record_stride=1, freeze_on_consensus=freeze)
        seen = []

        def observe(x, fx):
            seen.append((x.copy(), fx.copy()))

        traj = integrate(cfg, g, bank, x0, observe)
        assert (traj.freeze_step is not None) is freeze  # each case freezes before t_max
        rows = traj.states[:-1] if freeze else traj.states
        assert np.array_equal(_bits([x for x, _ in seen]), _bits(rows))
        L = laplacian(g)
        assert all(np.array_equal(_bits(fx), _bits(bank.eval(-(L @ x)))) for x, fx in seen)
        seen.clear()
        integrate(cfg, g, bank, np.full(g.n, 1.5), observe)
        assert len(seen) == (0 if freeze else len(traj.states))  # frozen at step 0: none

    def test_freeze_step_and_steps(self):
        g, bank, x0, cfg = _fig1_case()
        traj = integrate(cfg, g, bank, x0)
        assert traj.freeze_step == round(traj.settled_at / cfg.dt) == traj.steps
        assert traj.settled_at == traj.times[len(traj.states) - 1]
        free = integrate(replace(cfg, freeze_on_consensus=False), g, bank, x0)
        assert free.freeze_step is None and free.steps == round(cfg.t_max / cfg.dt)
        at_consensus = integrate(cfg, g, bank, np.full(4, 1.5))
        assert at_consensus.freeze_step == at_consensus.steps == 0

    def test_frozen_tail_holds_no_rows(self):
        # the state rows, disagreement and V end at the freeze record,
        # whatever the horizon; the later records repeat them
        g, bank, x0, cfg = _fig1_case()
        short = integrate(cfg, g, bank, x0)
        long = integrate(replace(cfg, t_max=10 * cfg.t_max), g, bank, x0)
        held = len(short.states)
        assert held == len(long.states) < short.times.size < long.times.size
        assert np.array_equal(_bits(short.states), _bits(long.states))
        assert long.freeze_step == short.freeze_step and long.settled_at == short.settled_at
        assert np.array_equal(short.times[:held], long.times[:held])
        assert np.array_equal(long.disagreement, short.disagreement) and long.disagreement[-1] == 0.0
        cycle = directed_cycle(3)
        bank3 = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        traj = integrate(SimulationConfig(t_max=5.0), cycle, bank3, np.array([1.0, 0.0, -1.0]))
        v = lyapunov_trace(cycle, left_null_vector(cycle), bank3, traj)
        assert v.size == len(traj.states) < traj.times.size
        assert list(v) == [lyapunov_value(cycle, left_null_vector(cycle), bank3, x)
                           for x in traj.states]

    def test_rows_repeat_the_freeze_row(self):
        # one (t, row) per record, the row being the state, disagreement and V;
        # every record after the freeze record gets its row, the same list
        g, bank, x0, cfg = _fig1_case()
        cycle = directed_cycle(3)
        bank3 = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        traced = integrate(SimulationConfig(t_max=5.0), cycle, bank3, np.array([1.0, 0.0, -1.0]))
        traced = replace(traced, lyapunov=lyapunov_trace(cycle, left_null_vector(cycle), bank3, traced))
        assert traced.lyapunov.size == len(traced.states)  # the V column is checked below
        free = integrate(replace(cfg, freeze_on_consensus=False), g, bank, x0)
        for traj in (integrate(cfg, g, bank, x0), free, traced):
            held = len(traj.states)
            k = np.minimum(np.arange(traj.times.size), held - 1)
            columns = [traj.disagreement] + ([] if traj.lyapunov is None else [traj.lyapunov])
            rows = list(traj.rows())
            assert np.array_equal([t for t, _ in rows], traj.times)
            assert np.array_equal(_bits([row for _, row in rows]),
                                  _bits(np.column_stack([traj.states[k], *(c[k] for c in columns)])))
            assert all(row is rows[held - 1][1] for _, row in rows[held:])
            assert (len(rows) > held) is (traj is not free)

    def test_finite_state_with_overflowing_sum_runs(self):
        # two entries of 1e308 sum to inf, so the quick check fails and the
        # entry-by-entry check passes; the state sits at consensus and stays
        x0 = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            assert not np.isfinite(x0.sum())
        cfg = SimulationConfig(dt=0.01, t_max=0.1, record_stride=1, freeze_on_consensus=False)
        traj = integrate(cfg, directed_cycle(2), ProtocolBank([Linear(k=1.0)] * 2), x0)
        assert np.array_equal(traj.states, np.full((11, 2), 1e308))


class TestLyapunovValue:
    def test_zero_at_consensus(self):
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        omega = left_null_vector(g)
        assert lyapunov_value(g, omega, bank, np.full(3, 4.2)) == pytest.approx(0.0, abs=1e-25)

    def test_hand_computed_cycle(self):
        # arcs 1->2->3->1, Linear(k=1), x=(1,0,0): y = (-1, 1, 0),
        # V = (1/3)(1/2 + 1/2 + 0) = 1/3
        g = directed_cycle(3)
        bank = ProtocolBank([Linear(k=1.0)] * 3)
        omega = left_null_vector(g)
        v = lyapunov_value(g, omega, bank, np.array([1.0, 0.0, 0.0]))
        assert v == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_requires_strong_connectivity(self):
        with pytest.raises(NotStronglyConnected):
            lyapunov_value(fig1_graph(), np.full(4, 0.25), PL_BANK4, np.zeros(4))

    def test_trace_searches_the_graph_once(self, monkeypatch):
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        omega = left_null_vector(g)
        cfg = SimulationConfig(dt=0.01, t_max=3.0, record_stride=1, freeze_on_consensus=False)
        traj = integrate(cfg, g, bank, np.array([1.0, 0.0, -1.0]))
        assert traj.times.size > 300
        expected = [lyapunov_value(g, omega, bank, x) for x in traj.states]
        searches = count_graph_searches(monkeypatch)
        v = lyapunov_trace(g, omega, bank, traj)
        assert searches == []  # left_null_vector above searched g, and g kept the result
        assert list(v) == expected

    def test_trace_leaves_the_trajectory_as_it_was(self):
        # V is returned; a trajectory with a V column is a replace, and
        # tracing that one leaves its column in place
        g = directed_cycle(3)
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 3)
        omega = left_null_vector(g)
        traj = integrate(SimulationConfig(t_max=2.0), g, bank, np.array([1.0, 0.0, -1.0]))
        v = lyapunov_trace(g, omega, bank, traj)
        traced = replace(traj, lyapunov=v)
        assert lyapunov_trace(g, omega, bank, traced) is not v
        assert traced.lyapunov is v and traj.lyapunov is None


class TestSettlingTime:
    @staticmethod
    def _traj(times, dis):
        times = np.asarray(times, dtype=float)
        dis = np.asarray(dis, dtype=float)
        states = np.column_stack([np.zeros_like(dis), dis])
        return Trajectory(times=times, states=states, disagreement=dis)

    def test_constant_consensus(self):
        traj = self._traj([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert settling_time(traj, 1e-9) == 0.0

    def test_monotone_crossing(self):
        traj = self._traj([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 1e-10, 1e-12])
        assert settling_time(traj, 1e-9) == 2.0

    def test_dip_and_reexceed(self):
        traj = self._traj([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1e-12, 0.5, 1e-12, 1e-13])
        assert settling_time(traj, 1e-9) == 3.0

    def test_never_settles(self):
        traj = self._traj([0.0, 1.0], [1.0, 0.5])
        assert settling_time(traj, 1e-9) is None

    def test_first_settled_index_reads_held_rows(self, fig1):
        # every vertex subset settles at the record the expanded states give
        from itertools import combinations

        traj = integrate(SimulationConfig(t_max=8.0), fig1, PL_BANK4, FIG1_X0)
        assert len(traj.states) < traj.times.size  # a frozen tail
        full = full_states(traj)
        for size in (1, 2, 3, 4):
            for verts in combinations(range(4), size):
                sub = full[:, list(verts)]
                expected = dynamics._settled_index(sub.max(axis=1) - sub.min(axis=1), 1e-9)
                assert dynamics._first_settled_index(traj, list(verts), 1e-9) == expected

