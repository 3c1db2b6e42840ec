"""Forward simulation of the networked agent dynamics.

Each agent integrates dx_i/dt = f_i(y_i) with y = -L x.  The integrator is
classical fixed-step RK4: the right-hand side is continuous but not
Lipschitz at consensus, where adaptive step control chatters, so a
deterministic fixed step plus an explicit freeze rule at the consensus
threshold is both reproducible and honest about resolution.  The frozen
tail is implicit (see ``Trajectory``).  ``SimulationConfig`` lives in the
numpy-free ``config`` module and is re-exported here.
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
    "lyapunov_value",
    "lyapunov_trace",
    "settling_time",
]


@dataclass
class Trajectory:
    """One time, disagreement and V per record, and state rows up to the freeze
    record: the solution is constant after it, so later records repeat its row."""

    times: np.ndarray
    states: np.ndarray  # shape (held records, n)
    disagreement: np.ndarray
    lyapunov: np.ndarray | None = None
    settled_at: float | None = None
    steps: int | None = None  # RK4 steps taken
    freeze_step: int | None = None  # None: the freeze rule never fired
    root_c1: float | None = None  # the root observer's minimum (see integrate)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _settled_index(dis, eps):
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
    root: tuple | None = None,
) -> Trajectory:
    """Fixed-step RK4 on [0, t_max] with optional freeze at consensus.

    Records step 0, every ``record_stride``-th step and the last.  Once the
    disagreement drops to ``eps_consensus`` (freezing enabled) the states
    snap to their mean, which stops floating-point chatter at the
    non-Lipschitz equilibrium; the freeze step is recorded and the run stops.
    A step costs four ``L @ x``, four ``bank.eval`` and a few O(n) ufuncs.

    The records array (a spare row for an off-stride freeze step) is
    allocated up front; rows past the freeze record are never written.  A
    run whose records x n exceeds ``MAX_RECORD_VALUES`` raises
    ``RecordBudgetExceeded`` first.

    ``root = (vertices, omega, L_root)`` of an SCC with no in-arcs observes
    every state x of the run: the root rows u of the step's k1 are exactly
    f(y_root), so u^T B u = (omega u) . (L_root u) for the mirror Laplacian
    B, one matrix-vector product and two dots.  ``Trajectory.root_c1`` is the
    least u^T B u / u^T u over the k1 of every step and the field at the last
    state when the run did not freeze, skipping states whose root agents are
    equal and zero u; inf if none is left, -inf if some quotient is not
    finite.  Between the states of a step the path is not observed.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (g.n,):
        raise ValueError("x0 length must equal agent count")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if len(bank) != g.n:
        raise ValueError("bank size must equal agent count")
    n_steps, _ = _record_plan(cfg, g.n)

    L = laplacian(g)
    dt, eps, freeze = cfg.dt, cfg.eps_consensus, cfg.freeze_on_consensus
    half, sixth = 0.5 * dt, dt / 6.0

    def field(v):
        y = L @ v
        return bank.eval(np.negative(y, out=y))

    low = math.inf
    if root:
        verts, omega, L_root = root

        def observe(x, k1):
            nonlocal low
            v = x[verts]
            if (v != v[0]).any():  # else y_root is rounding noise, not feedback
                u = k1[verts]
                den = np.dot(u, u)
                if den:
                    q = np.dot(omega * u, np.dot(L_root, u)) / den
                    low = min(low, q) if math.isfinite(q * den) else -math.inf

    plan = np.arange(0, n_steps + cfg.record_stride, cfg.record_stride)  # the recorded steps
    plan[-1] = n_steps
    states = np.empty((plan.size + 1, g.n))
    frozen, r = False, 0

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):  # step 0: x0
            if k:
                k1 = field(x)
                if root:
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
        if root and not frozen:
            observe(x, field(x))

    if plan[r - 1] != k:
        plan = np.insert(plan, r - 1, k)
    states = states[:r]
    dis = np.empty(plan.size)
    np.subtract(states.max(axis=1), states.min(axis=1), out=dis[:r])
    dis[r:] = dis[r - 1]
    traj = Trajectory(times=plan * dt, states=states, disagreement=dis,
                      steps=k, freeze_step=k if frozen else None,
                      root_c1=float(low) if root else None)
    traj.settled_at = settling_time(traj, eps)
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
    """V at every record from the held state rows; also stored on the trajectory."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("Lyapunov value requires a strongly connected graph")
    L = laplacian(g)
    traj.lyapunov = v = np.empty(traj.times.size)
    for i, x in enumerate(traj.states):
        v[i] = _lyapunov(L, omega, bank, x)
    v[i + 1:] = v[i]  # the frozen tail repeats V of the freeze record
    return v
