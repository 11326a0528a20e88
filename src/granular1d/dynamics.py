"""Time integration of the constrained Lagrangian flow.

One marching step advances the free velocity by the external force,
moves the current configuration by the updated free velocity, and
projects the result back onto the admissible cone.  The congested
zones are the pooled groups of that projection; on them the velocity
is replaced by its mass average and the deficit accumulates into the
nonpositive adhesion potential.  Working on the monotone offset
``s = x - ps.packed`` (rather than re-subtracting assembled coordinates)
keeps pooled plateaus exactly tied between steps, so contact and
release events are decided by the dynamics and not by rounding noise.

``picard_solve`` implements the global fixed-point characterization of
the same trajectory (projection of the accumulated free path with the
force integrated along the previous iterate) and serves as an
independent integrator for cross-checks before any contact occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, Granular1dError, InvariantViolation
from .transport import (
    BlockPartition,
    MonotoneMap,
    ParticleSystem,
    project_monotone,
    weighted_norm,
)


@dataclass(frozen=True)
class ForceField:
    """External force f(t, x) with a declared Lipschitz bound.

    ``lipschitz_k`` bounds the spatial Lipschitz constant and enters the
    weighted norm of the fixed-point iteration; for piecewise-constant
    forces (which are not Lipschitz across their jumps) declare 0 and
    rely on the jump locations staying away from the particles.
    """

    eval: Callable[[float, np.ndarray], np.ndarray]
    lipschitz_k: float = 0.0

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.eval(t, x), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).astype(float)
        if not np.all(np.isfinite(out)):
            raise Granular1dError(f"force returned non-finite values at t={t}")
        return out


def zero_force() -> ForceField:
    return ForceField(lambda t, x: np.zeros_like(x))


def constant_force(value: float) -> ForceField:
    return ForceField(lambda t, x: np.full_like(x, value))


def two_block_force(alpha: float, t_star: float) -> ForceField:
    """Compress toward x=0 until t_star, then pull apart.

    The reversal applies from t >= t_star on (the instant itself carries
    no mass; taking the reversed branch at exactly t_star makes the
    discrete release land one step after 2*t_star on a uniform grid).
    """

    def f(t, x):
        a = alpha if t < t_star else -alpha
        return np.where(x < 0.0, a, -a)

    return ForceField(f)


def piecewise_constant_force(breakpoints: Sequence[float], values: Sequence[float]) -> ForceField:
    """Piecewise-constant-in-x force, constant in time.

    ``values`` has one more entry than ``breakpoints``; value[k] applies
    on [breakpoints[k-1], breakpoints[k]).
    """
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if vals.size != bp.size + 1:
        raise ValueError("need len(values) == len(breakpoints) + 1")

    def f(t, x):
        return vals[np.searchsorted(bp, x, side="right")]

    return ForceField(f)


@dataclass(frozen=True)
class PicardOptions:
    max_iters: int = 30
    tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1 or not (self.tol > 0):
            raise ValueError("need max_iters >= 1 and tol > 0")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot of the Lagrangian fields at one time.

    ``s`` is the monotone offset x - ps.packed carrying the pooled plateaus
    exactly; ``force_sum`` is the per-particle sum of sampled force
    values, so that u_free = u_init + dt * force_sum reproduces the
    left-rectangle quadrature without drift across force reversals.
    """

    t: float
    step_index: int
    u_free: np.ndarray
    x: MonotoneMap
    u: np.ndarray
    gamma: np.ndarray
    blocks: BlockPartition
    s: MonotoneMap
    force_sum: np.ndarray
    u_init: np.ndarray

    @property
    def n(self) -> int:
        return self.x.n


def block_velocity(u_free: np.ndarray, blocks: BlockPartition, masses: np.ndarray) -> np.ndarray:
    """Replace the free velocity by its mass average on each block."""
    u = np.array(u_free, dtype=float)
    if blocks.is_empty:
        return u
    mean = blocks.sums(masses * u) / blocks.sums(masses)
    labels = blocks.labels(u.size)
    inside = labels >= 0
    u[inside] = mean[labels[inside]]
    return u


def adhesion_potential(u: np.ndarray, u_free: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Cumulative mass-weighted velocity deficit, gamma_i = sum_{j<=i} m_j (u_j - uf_j).

    Nonpositive, and zero at block right edges and in total, whenever u
    is a blockwise mean or monotone fit of u_free; ``check_state``
    verifies this on every state.
    """
    u = np.asarray(u, dtype=float)
    u_free = np.asarray(u_free, dtype=float)
    if u.shape != u_free.shape or u.shape != masses.shape:
        raise ValueError("u, u_free, masses must have equal length")
    return np.cumsum(masses * (u - u_free))


def _new_state(
    ps: ParticleSystem,
    t: float,
    step_index: int,
    s: MonotoneMap,
    u_free: np.ndarray,
    u: np.ndarray,
    blocks: BlockPartition,
    force_sum: np.ndarray,
    u_init: np.ndarray,
) -> SimState:
    """The checked snapshot with offset s and velocities (u_free, u):
    x = ps.packed + s and gamma from ``adhesion_potential``."""
    state = SimState(
        t=t,
        step_index=step_index,
        u_free=u_free,
        x=MonotoneMap(ps.packed.values + s.values),
        u=u,
        gamma=adhesion_potential(u, u_free, ps.masses),
        blocks=blocks,
        s=s,
        force_sum=force_sum,
        u_init=u_init,
    )
    return check_state(state, ps)


def _tangent_velocity(
    u0: np.ndarray, pos_blocks: BlockPartition, masses: np.ndarray
) -> tuple[np.ndarray, BlockPartition]:
    """Project an initial velocity onto the cone tangent to the
    configuration: monotone fit within each congested zone, identity
    elsewhere.  Returns the projected velocity and the zones where it
    came out constant (the surviving congested blocks)."""
    u = np.array(u0, dtype=float)
    survivors: list[tuple[int, int]] = []
    for lo, hi in pos_blocks:
        sl = slice(lo, hi + 1)
        fit, sub = project_monotone(u0[sl], masses[sl])
        u[sl] = fit.values
        survivors.extend((lo + a, lo + b) for a, b in sub)
    return u, BlockPartition(tuple(survivors))


def init_state(ps: ParticleSystem, u0: np.ndarray) -> SimState:
    """State at t=0: positions projected onto the admissible cone and
    the initial velocity projected onto the tangent cone.

    On a congested zone the tangent projection is the monotone fit of
    u0 (a decreasing profile collapses to the mass average; a profile
    already spreading the zone apart is kept, and the zone is then not
    reported as a block since it dissolves immediately).
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != ps.positions.shape:
        raise ValueError("u0 must match the particle count")
    if not np.all(np.isfinite(u0)):
        raise ValueError("non-finite initial velocity")
    s, pos_blocks = project_monotone(ps.positions - ps.packed.values, ps.masses)
    u, blocks = _tangent_velocity(u0, pos_blocks, ps.masses)
    return _new_state(ps, 0.0, 0, s, u0.copy(), u, blocks, np.zeros(ps.n), u0.copy())


def step(state: SimState, force: ForceField, cfg: StepperConfig, ps: ParticleSystem) -> SimState:
    """Advance one step of size cfg.dt.

    Order: sample the force at the current projected positions
    (left-rectangle rule), update the free velocity, move the offset by
    the updated free velocity and project back onto the monotone cone;
    then derive the block velocity and the adhesion potential.
    """
    dt = cfg.dt
    masses = ps.masses
    fval = force(state.t, state.x.values)
    force_sum = state.force_sum + fval
    u_free = state.u_init + dt * force_sum
    s, blocks = project_monotone(state.s.values + dt * u_free, masses)
    u = block_velocity(u_free, blocks, masses)
    k = state.step_index + 1
    return _new_state(ps, k * dt, k, s, u_free, u, blocks, force_sum, state.u_init)


def position_tol(x: np.ndarray) -> float:
    """Absolute rounding tolerance for the gaps of the configuration x."""
    return 1e-12 * max(1.0, float(np.max(np.abs(x))))


def check_state(state: SimState, ps: ParticleSystem) -> SimState:
    """Return the snapshot unchanged, or raise InvariantViolation (with
    its time and step) unless it satisfies the structural invariants:
    feasibility of x, exact block-constancy of u, nonpositive gamma
    vanishing at block right edges and globally, and momentum balance.

    This is the package's one tolerance policy: gaps are compared at
    ``position_tol(x)``; gamma's sign at 1e-10, and its edge values and
    the momentum drift at 1e-12, times max(1, M * max(1, max|u_free|)).
    """

    def fail(check: str, value: float, message: str = "") -> InvariantViolation:
        return InvariantViolation(check, value, message, t=state.t, step=state.step_index)

    x = state.x.values
    worst = float(np.min(np.diff(x) - ps.packed.gaps(), initial=0.0))
    if worst < -position_tol(x):
        raise fail("feasibility", -worst)

    labels = state.blocks.labels(state.n)
    inside = (labels[:-1] == labels[1:]) & (labels[1:] >= 0)
    if not np.array_equal(state.u[:-1][inside], state.u[1:][inside]):
        raise fail("block_velocity_constant", 0.0, "u not constant on a block")
    off = labels < 0
    if not np.array_equal(state.u[off], state.u_free[off]):
        raise fail("free_velocity_off_blocks", 0.0, "u != u_free off blocks")

    umax = max(1.0, float(np.max(np.abs(state.u_free), initial=0.0)))
    vel_scale = max(1.0, ps.total_mass * umax)
    if float(np.max(state.gamma)) > 1e-10 * vel_scale:
        raise fail("gamma_sign", float(np.max(state.gamma)))
    edge_tol = 1e-12 * vel_scale
    if abs(float(state.gamma[-1])) > edge_tol:
        raise fail("gamma_total", abs(float(state.gamma[-1])))
    edges = np.abs(state.gamma[state.blocks.hi])
    bad = np.flatnonzero(edges > edge_tol)
    if bad.size:
        raise fail("gamma_block_edge", float(edges[bad[0]]))
    drift = abs(float(np.dot(ps.masses, state.u) - np.dot(ps.masses, state.u_free)))
    if drift > edge_tol:
        raise fail("momentum_balance", drift)
    return state


def run_simulation(
    ps: ParticleSystem, u0: np.ndarray, force: ForceField, cfg: StepperConfig
) -> Iterator[SimState]:
    """Yield the state at t=0 and after every step up to t_end."""
    state = init_state(ps, u0)
    yield state
    for _ in range(cfg.n_steps):
        state = step(state, force, cfg, ps)
        yield state


@dataclass
class PicardResult:
    times: np.ndarray
    states: list[SimState]
    sweeps: int
    residuals: list[float]

    @property
    def residual_ratios(self) -> list[float]:
        out = []
        for a, b in zip(self.residuals, self.residuals[1:]):
            if a > 0:
                out.append(b / a)
        return out


def picard_solve(
    ps: ParticleSystem,
    u0: np.ndarray,
    force: ForceField,
    cfg: StepperConfig,
    options: PicardOptions = PicardOptions(),
) -> PicardResult:
    """Solve the global fixed point on the uniform time grid.

    Each sweep integrates the force along the previous iterate
    (left-rectangle in time, same quadrature as the marching stepper),
    builds the accumulated free path, and projects it at every grid
    time.  Convergence is measured in the exponentially weighted
    sup-in-time norm  max_t exp(-2 sqrt(k) t) ||X'_t - X_t||_w  with k
    the declared Lipschitz constant of the force, in which one sweep
    contracts by at least 1/4 for Lipschitz forces.  The state at t=0
    is ``init_state``'s, as for the marching stepper.

    The accumulated-path formula coincides with the marching dynamics up
    to the first release event (a glued block whose adhesion potential
    returns to zero): past it the formula keeps blocks glued and its
    derived adhesion potential turns positive, which ``check_state``
    raises as an InvariantViolation rather than silently accepting.
    """
    state0 = init_state(ps, u0)
    u0 = state0.u_init
    m = ps.masses
    packed = ps.packed.values
    n_steps = cfg.n_steps
    dt = cfg.dt
    times = np.arange(n_steps + 1) * dt
    k = max(0.0, force.lipschitz_k)
    decay = np.exp(-2.0 * np.sqrt(k) * times)
    z0 = ps.positions - packed

    def sweep(prev_s: np.ndarray) -> tuple[np.ndarray, list[BlockPartition], np.ndarray]:
        # force partial sums along the previous iterate
        fsum = np.zeros_like(z0)
        ufree = np.empty((n_steps + 1, ps.n))
        ufree[0] = u0
        for j in range(n_steps):
            fsum = fsum + force(times[j], packed + prev_s[j])
            ufree[j + 1] = u0 + dt * fsum
        s_new = np.empty_like(ufree)
        s_new[0] = state0.s.values
        blocks_list = [state0.blocks]
        path = z0.copy()
        for j in range(1, n_steps + 1):
            path = path + dt * ufree[j]
            fit, blocks = project_monotone(path, m)
            s_new[j] = fit.values
            blocks_list.append(blocks)
        return s_new, blocks_list, ufree

    prev = np.tile(state0.s.values, (n_steps + 1, 1))
    residuals: list[float] = []
    converged = False
    for _ in range(options.max_iters):
        cur, blocks_list, ufree = sweep(prev)
        res = max(
            float(decay[j]) * weighted_norm(cur[j] - prev[j], m) for j in range(n_steps + 1)
        )
        residuals.append(res)
        prev = cur
        if res < options.tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(residuals[-1], len(residuals))

    states = [state0]
    fsum_running = np.zeros(ps.n)
    for j in range(1, n_steps + 1):
        fsum_running = fsum_running + force(times[j - 1], packed + cur[j - 1])
        u = block_velocity(ufree[j], blocks_list[j], m)
        states.append(
            _new_state(
                ps, float(times[j]), j, MonotoneMap(cur[j]), ufree[j].copy(), u,
                blocks_list[j], fsum_running.copy(), u0.copy(),
            )
        )
    return PicardResult(times=times, states=states, sweeps=len(residuals), residuals=residuals)
