"""Forward simulation of the networked agent dynamics.

Each agent integrates dx_i/dt = f_i(y_i) with y = -L x.  The integrator is
classical fixed-step RK4: the right-hand side is continuous but not
Lipschitz at consensus, where adaptive step control chatters, so a
deterministic fixed step plus an explicit freeze rule at the consensus
threshold is both reproducible and honest about resolution.  This module
owns the record format (see ``Trajectory``; ``_first_settled_index`` reads
it for ``analysis``), and ``integrate``'s ``observe`` hook sees every state
with its field.  ``SimulationConfig`` lives in the numpy-free
``config`` module and is re-exported here.
``lyapunov_value`` and ``lyapunov_trace`` take the graph and check it; the
graph keeps its condensation and Laplacian, so the check costs no search.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .config import SimulationConfig
from .errors import NonFiniteState, NotStronglyConnected, RecordBudgetExceeded
from .graph import WeightedDigraph, is_strongly_connected, laplacian
from .protocols import ProtocolBank


class Trajectory(Record):
    """One time per record; state rows, disagreement and V up to the freeze
    record: the solution is constant after it, so later records repeat its row."""

    times: np.ndarray
    states: np.ndarray  # shape (held records, n)
    disagreement: np.ndarray  # one per held row, as is lyapunov
    lyapunov: np.ndarray | None = None
    settled_at: float | None = None
    steps: int | None = None  # RK4 steps taken
    freeze_step: int | None = None  # None: the freeze rule never fired

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def rows(self):
        """Yield (t, row) for every record: row lists the state, disagreement and
        V (when traced) of its held row.  Every record after the freeze record
        gets the freeze record's row, the same list object."""
        columns = [self.disagreement] + ([] if self.lyapunov is None else [self.lyapunov])
        for k, t in enumerate(self.times):
            if k < len(self.states):
                row = [*self.states[k], *(col[k] for col in columns)]
            yield t, row


def _settled_index(dis, eps):
    """First index of the trailing run of ``dis <= eps``; None if dis[-1] > eps."""
    ok = dis <= eps
    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    return 0 if bad.size == 0 else int(bad[-1] + 1)


def _first_settled_index(traj, vertices, eps):
    """First record after which the agents ``vertices`` stay eps-agreed, read
    from the held state rows through a column mask: no rows x vertices copy."""
    cols = np.zeros(traj.states.shape[1], dtype=bool)
    cols[vertices] = True
    hi = traj.states.max(axis=1, initial=-np.inf, where=cols)
    return _settled_index(hi - traj.states.min(axis=1, initial=np.inf, where=cols), eps)


def settling_time(traj: Trajectory, eps: float) -> float | None:
    """Earliest recorded time after which disagreement never exceeds eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    k = _settled_index(traj.disagreement, eps)
    return None if k is None else float(traj.times[k])


# a run may keep at most this many recorded state values (records x agents),
# 128 MiB of float64; a longer run is refused before anything is allocated
MAX_RECORD_VALUES = 2**24


def _record_plan(cfg: SimulationConfig, n: int) -> np.ndarray:
    """The recorded RK4 steps: step 0, every ``record_stride`` multiple below
    the last step, and the last.  Raises ``RecordBudgetExceeded`` first when
    records x n exceeds ``MAX_RECORD_VALUES``."""
    steps = cfg.t_max / cfg.dt
    n_steps = max(1, int(round(steps))) if math.isfinite(steps) else None
    records = (n_steps - 1) // cfg.record_stride + 2 if n_steps else math.inf
    if records * n > MAX_RECORD_VALUES:
        raise RecordBudgetExceeded(
            f"t_max = {cfg.t_max:g} at dt = {cfg.dt:g} with record_stride = {cfg.record_stride} "
            f"would record {records} states of {n} agents, more than the {MAX_RECORD_VALUES} "
            "values a run may keep; lower t_max or raise record_stride")
    plan = np.arange(0, n_steps + cfg.record_stride, cfg.record_stride)
    plan[-1] = n_steps
    return plan


def integrate(
    cfg: SimulationConfig,
    g: WeightedDigraph,
    bank: ProtocolBank,
    x0: np.ndarray,
    observe=None,
) -> Trajectory:
    """Fixed-step RK4 on [0, t_max] with optional freeze at consensus.

    Records the steps of ``_record_plan``.  Once the disagreement drops to
    ``eps_consensus`` (freezing enabled) the states snap to their mean, which
    stops floating-point chatter at the non-Lipschitz equilibrium; the freeze
    step is recorded and the run stops.
    A step costs four ``L @ x``, four ``bank.eval`` and a few O(n) ufuncs.

    The state rows (a spare one for an off-stride freeze step) are allocated
    up front.  ``times`` keeps one entry per record; the state rows and the
    disagreement end at the freeze record.

    ``observe(x, fx)``, when given, is called with every state x of the run
    except a frozen one, together with its field fx = f(-L x): each step's x
    with its k1, and the last state when the run did not freeze.  Between
    the states of a step the path is not observed.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (g.n,):
        raise ValueError("x0 length must equal agent count")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if len(bank) != g.n:
        raise ValueError("bank size must equal agent count")
    plan = _record_plan(cfg, g.n)  # raises RecordBudgetExceeded before anything is allocated

    L = laplacian(g)
    dt, eps, freeze = cfg.dt, cfg.eps_consensus, cfg.freeze_on_consensus
    half, sixth = 0.5 * dt, dt / 6.0

    def field(v):
        y = L @ v
        return bank.eval(np.negative(y, out=y))

    states = np.empty((plan.size + 1, g.n))
    frozen, r = False, 0

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(plan[-1] + 1):  # step 0: x0
            if k:
                k1 = field(x)
                if observe:
                    observe(x, k1)
                k2 = field(x + half * k1)
                k3 = field(x + half * k2)
                k4 = field(x + dt * k3)
                x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # a finite sum proves every entry finite
                if not (math.isfinite(x.sum()) or np.all(np.isfinite(x))):
                    raise NonFiniteState(f"state non-finite at t={k * dt:g}; reduce dt")
            if freeze and x.max() - x.min() <= eps:
                x[:] = x.mean()
                frozen = True
            if frozen or k == plan[r]:
                states[r] = x
                r += 1
                if frozen:
                    break
        if observe and not frozen:
            observe(x, field(x))

    if plan[r - 1] != k:
        plan = np.insert(plan, r - 1, k)
    states = states[:r]
    times, dis = plan * dt, np.ptp(states, axis=1)
    settled = _settled_index(dis, eps)
    settled_at = None if settled is None else float(times[settled])
    return Trajectory(times, states, dis, settled_at=settled_at, steps=k,
                      freeze_step=k if frozen else None)


def lyapunov_value(
    g: WeightedDigraph,
    omega: np.ndarray,
    bank: ProtocolBank,
    x: np.ndarray,
) -> float:
    """V(x) = sum_i omega_i * F_i(y_i), y = -L x; zero exactly at consensus."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("Lyapunov value requires a strongly connected graph")
    return _lyapunov(laplacian(g), omega, bank, x)


def _lyapunov(L, omega, bank, x):
    with np.errstate(all="ignore"):
        v = float(np.dot(omega, bank.antiderivatives(-(L @ x))))
    if math.isfinite(v):
        return v
    raise NonFiniteState("V overflows a float: the state scale is too large")


def lyapunov_trace(
    g: WeightedDigraph,
    omega: np.ndarray,
    bank: ProtocolBank,
    traj: Trajectory,
) -> np.ndarray:
    """V at every held state row; ``traj`` is left as it is (a trajectory
    with a V column is ``_record.replace(traj, lyapunov=...)``)."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("Lyapunov value requires a strongly connected graph")
    L = laplacian(g)
    return np.array([_lyapunov(L, omega, bank, x) for x in traj.states])
