"""Forward simulation of the networked agent dynamics.

Each agent integrates dx_i/dt = f_i(y_i) with y = -L x.  The integrator is
classical fixed-step RK4: the right-hand side is continuous but not
Lipschitz at consensus, where adaptive step control chatters, so a
deterministic fixed step plus an explicit freeze rule at the consensus
threshold is both reproducible and honest about resolution.
``SimulationConfig`` lives in the numpy-free ``config`` module and is
re-exported here.
``lyapunov_value`` and ``lyapunov_trace`` take the graph and check it; the
graph keeps its condensation and Laplacian, so the check costs no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .errors import NonFiniteState, NotStronglyConnected, RecordBudgetExceeded
from .graph import WeightedDigraph, is_strongly_connected, laplacian
from .protocols import ProtocolBank

__all__ = [
    "SimulationConfig",
    "Trajectory",
    "integrate",
    "disagreement",
    "lyapunov_value",
    "lyapunov_trace",
    "settling_time",
]


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    disagreement: np.ndarray
    lyapunov: np.ndarray | None = None
    settled_at: float | None = None

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def disagreement(x: np.ndarray) -> float:
    """max_i x_i - min_i x_i."""
    x = np.asarray(x, dtype=float)
    return float(x.max() - x.min())


def _settled_index(dis: np.ndarray, eps: float) -> int | None:
    """First index of the trailing run of ``dis <= eps``; None if dis[-1] > eps."""
    ok = dis <= eps
    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    return 0 if bad.size == 0 else int(bad[-1] + 1)


def settling_time(traj: Trajectory, eps: float) -> float | None:
    """Earliest recorded time after which disagreement never exceeds eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    k = _settled_index(traj.disagreement, eps)
    return None if k is None else float(traj.times[k])


# a run may keep at most this many recorded state values (records x agents),
# 128 MiB of float64; a longer run is refused before anything is allocated
MAX_RECORD_VALUES = 2**24


def _record_plan(cfg: SimulationConfig, n: int) -> tuple:
    """(RK4 steps, records) of a run: step 0, every ``record_stride`` multiple
    below the last step and the last step are recorded.  Raises
    ``RecordBudgetExceeded`` when records x n exceeds ``MAX_RECORD_VALUES``."""
    steps = cfg.t_max / cfg.dt
    n_steps = max(1, int(round(steps))) if math.isfinite(steps) else None
    records = (n_steps - 1) // cfg.record_stride + 2 if n_steps else math.inf
    if records * n > MAX_RECORD_VALUES:
        raise RecordBudgetExceeded(
            f"t_max = {cfg.t_max:g} at dt = {cfg.dt:g} with record_stride = {cfg.record_stride} "
            f"would record {records} states of {n} agents, more than the {MAX_RECORD_VALUES} "
            "values a run may keep; lower t_max or raise record_stride")
    return n_steps, records


def integrate(
    cfg: SimulationConfig,
    g: WeightedDigraph,
    bank: ProtocolBank,
    x0: np.ndarray,
) -> Trajectory:
    """Fixed-step RK4 on [0, t_max] with optional freeze at consensus.

    Records every ``record_stride`` steps plus the final step.  Once the
    disagreement drops below the threshold (with freezing enabled) the states
    snap to their arithmetic mean and stay constant, which suppresses
    floating-point chatter around the non-Lipschitz equilibrium; the freeze
    step is recorded too, and the remaining grid points repeat its state.

    Memory is the records array and O(n) per step: the record count follows
    from ``t_max``, ``dt`` and ``record_stride`` alone, so one array with a
    spare row for an off-stride freeze step is allocated up front and every
    record, the frozen tail included, is written into it in place.  A run
    whose records x n exceeds ``MAX_RECORD_VALUES`` raises
    ``RecordBudgetExceeded`` before integrating.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (g.n,):
        raise ValueError("x0 length must equal agent count")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if len(bank) != g.n:
        raise ValueError("bank size must equal agent count")
    n_steps, records = _record_plan(cfg, g.n)

    L = laplacian(g)
    dt = cfg.dt
    stride = cfg.record_stride

    def deriv(xv):
        return bank.eval(-(L @ xv))

    states = np.empty((records + 1, g.n))
    idx = np.empty(records + 1, dtype=np.int64)
    frozen = disagreement(x) <= cfg.eps_consensus and cfg.freeze_on_consensus
    if frozen:
        x[:] = x.mean()
    states[0] = x
    idx[0] = 0
    r = 1

    for k in range(1, n_steps + 1):
        if frozen:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = deriv(x)
            k2 = deriv(x + 0.5 * dt * k1)
            k3 = deriv(x + 0.5 * dt * k2)
            k4 = deriv(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"state non-finite at t={k * dt:g}; reduce dt")
        if cfg.freeze_on_consensus and float(x.max() - x.min()) <= cfg.eps_consensus:
            x[:] = x.mean()
            frozen = True
        if k % stride == 0 or k == n_steps or frozen:
            states[r] = x
            idx[r] = k
            r += 1

    last = int(idx[r - 1])
    if frozen and last < n_steps:
        # the exact solution is constant after consensus: the remaining grid
        # points (stride multiples, then the final step) repeat the frozen state
        tail = np.arange((last // stride + 1) * stride, n_steps, stride)
        idx[r:r + tail.size] = tail
        idx[r + tail.size] = n_steps
        states[r:r + tail.size + 1] = x
        r += tail.size + 1

    states = states[:r]
    times = idx[:r] * dt
    dis = states.max(axis=1) - states.min(axis=1)
    traj = Trajectory(times=times, states=states, disagreement=dis)
    traj.settled_at = settling_time(traj, cfg.eps_consensus)
    return traj


def lyapunov_value(
    g: WeightedDigraph,
    omega: np.ndarray,
    bank: ProtocolBank,
    x: np.ndarray,
) -> float:
    """V(x) = sum_i omega_i * F_i(y_i), y = -L x; zero exactly at consensus."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("Lyapunov value requires a strongly connected graph")
    return _lyapunov(laplacian(g), np.asarray(omega, dtype=float), bank, np.asarray(x, dtype=float))


def _lyapunov(L: np.ndarray, omega: np.ndarray, bank: ProtocolBank, x: np.ndarray) -> float:
    return float(np.dot(omega, bank.antiderivatives(-(L @ x))))


def lyapunov_trace(
    g: WeightedDigraph,
    omega: np.ndarray,
    bank: ProtocolBank,
    traj: Trajectory,
) -> np.ndarray:
    """V along the recorded states; also stored on the trajectory."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("Lyapunov value requires a strongly connected graph")
    L = laplacian(g)
    omega = np.asarray(omega, dtype=float)
    v = np.array([_lyapunov(L, omega, bank, x) for x in traj.states])
    traj.lyapunov = v
    return v
