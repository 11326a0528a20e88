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

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, Granular1dError, InvariantViolation
from .transport import (
    BlockPartition,
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

    ``values`` has one more entry than the nondecreasing ``breakpoints``;
    value[k] applies on [breakpoints[k-1], breakpoints[k]).  All finite.
    """
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bp.ndim != 1 or vals.shape != (bp.size + 1,):
        raise ValueError("need 1-D breakpoints and len(values) == len(breakpoints) + 1")
    if not (np.isfinite(bp).all() and np.isfinite(vals).all() and np.all(np.diff(bp) >= 0)):
        raise ValueError("breakpoints must be finite and nondecreasing, values finite")

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
    """Immutable Lagrangian fields at one time, or at consecutive times
    on one block partition (a window of steps).

    A state has (n,) arrays, a float ``t`` and an int ``step_index``.  A
    window stacks states into (rows, n) arrays, with (rows,) ``t`` and
    ``step_index``: row j is the state after step ``step_index[j]``.  The
    functions of this module work along the last axis, so they take
    either.  ``blocks`` and ``u_init`` are shared by all rows, and the
    arrays are read-only by convention.

    ``s`` is the monotone offset x - ps.packed carrying the pooled plateaus
    exactly; ``force_sum`` is the per-particle sum of sampled force
    values, so that u_free = u_init + dt * force_sum reproduces the
    left-rectangle quadrature without drift across force reversals.
    ``slack`` is the smallest gap of x minus its packed gap (inf for one
    particle), per row, as ``check_state`` measured it.
    """

    t: float | np.ndarray
    step_index: int | np.ndarray
    u_free: np.ndarray
    x: np.ndarray
    u: np.ndarray
    gamma: np.ndarray
    blocks: BlockPartition
    s: np.ndarray
    force_sum: np.ndarray
    u_init: np.ndarray
    slack: float | np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    def __len__(self) -> int:
        """The number of rows: 1 for a state."""
        return np.size(self.t)

    def as_window(self) -> SimState:
        """A state as a one-row window (views of its arrays); a window as it is."""
        return self if np.ndim(self.t) else self._per_row(lambda a: np.asarray(a)[None])

    def row(self, j: int) -> SimState:
        """Row j as a state of its own, with a float ``t`` and an int
        ``step_index``; its arrays are copies, so that it does not keep
        the window alive."""
        return self.as_window()._per_row(lambda a: a[j].item() if a.ndim == 1 else a[j].copy())

    _PER_ROW = ("t", "step_index", "u_free", "x", "u", "gamma", "s", "force_sum", "slack")

    def _per_row(self, take: Callable[[np.ndarray], object]) -> SimState:
        return replace(self, **{f: take(getattr(self, f)) for f in self._PER_ROW
                                if getattr(self, f) is not None})


def block_velocity(u_free: np.ndarray, blocks: BlockPartition, masses: np.ndarray) -> np.ndarray:
    """Replace the free velocity by its mass average on each block, along
    the last axis (one state per row)."""
    u = np.array(u_free, dtype=float)
    if blocks.is_empty:
        return u
    mean = blocks.sums(masses * u) / blocks.sums(masses)
    labels = blocks.labels(u.shape[-1])
    np.copyto(u, mean[..., labels], where=labels >= 0)
    return u


def adhesion_potential(u: np.ndarray, u_free: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Cumulative mass-weighted velocity deficit, gamma_i = sum_{j<=i} m_j (u_j - uf_j),
    along the last axis (one state per row).

    Nonpositive, and zero at block right edges and in total, whenever u
    is a blockwise mean or monotone fit of u_free; ``check_state``
    verifies this on every state.
    """
    u = np.asarray(u, dtype=float)
    u_free = np.asarray(u_free, dtype=float)
    if u.shape != u_free.shape or u.shape[-1:] != masses.shape:
        raise ValueError("u, u_free, masses must have equal length")
    gamma = u - u_free
    gamma *= masses
    return np.cumsum(gamma, axis=-1, out=gamma)


def _new_state(
    ps: ParticleSystem,
    t: float,
    step_index: int,
    s: np.ndarray,
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
        x=ps.packed.values + s,
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
    came out constant (the surviving congested blocks).

    A zone on which u0 is exactly constant is its own fit and survives
    whole, which is what the projection returns for a single tied run,
    so only the other zones are projected."""
    u = np.array(u0, dtype=float)
    labels = pos_blocks.labels(u.size)
    varies = np.zeros(len(pos_blocks), dtype=bool)
    varies[labels[:-1][(np.diff(u0) != 0) & pos_blocks.interior_cells(u.size)]] = True
    survivors = [b for b, v in zip(pos_blocks, varies.tolist()) if not v]
    for lo, hi in (b for b, v in zip(pos_blocks, varies.tolist()) if v):
        sl = slice(lo, hi + 1)
        fit, sub = project_monotone(u0[sl], masses[sl])
        u[sl] = fit.values
        survivors.extend((lo + a, lo + b) for a, b in sub)
    return u, BlockPartition(sorted(survivors))


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
    return _new_state(ps, 0.0, 0, s.values, u0.copy(), u, blocks, np.zeros(ps.n), u0.copy())


def step(state: SimState, force: ForceField, cfg: StepperConfig, ps: ParticleSystem) -> SimState:
    """Advance one step of size cfg.dt.

    Order: sample the force at the current projected positions
    (left-rectangle rule), update the free velocity, move the offset by
    the updated free velocity and project back onto the monotone cone;
    then derive the block velocity and the adhesion potential.
    """
    dt = cfg.dt
    masses = ps.masses
    fval = force(state.t, state.x)
    force_sum = state.force_sum + fval
    u_free = state.u_init + dt * force_sum
    s, blocks = project_monotone(state.s + dt * u_free, masses)
    u = block_velocity(u_free, blocks, masses)
    k = state.step_index + 1
    return _new_state(ps, k * dt, k, s.values, u_free, u, blocks, force_sum, state.u_init)


def position_tol(x: np.ndarray) -> float | np.ndarray:
    """Absolute rounding tolerance for the gaps of the configuration x,
    one per configuration along the last axis."""
    return 1e-12 * np.maximum(1.0, np.maximum(x.max(axis=-1), -x.min(axis=-1)))


def check_state(state: SimState, ps: ParticleSystem) -> SimState:
    """Return the state carrying its measured ``slack`` (the same object
    if it already does), or raise InvariantViolation (with its time and
    step) unless it satisfies the structural invariants: feasibility of
    x, exact block-constancy of u, nonpositive gamma vanishing at block
    right edges and globally, and momentum balance.

    A state is checked as a one-row window, and a window row by row: the
    error names the first failing row's first failing check, with that
    row's time and step.

    This is the package's one tolerance policy: gaps are compared at
    ``position_tol(x)``; gamma's sign at 1e-10, and its edge values and
    the momentum drift at 1e-12, times max(1, M * max(1, max|u_free|)).
    """
    win = state.as_window()
    x, u, u_free, gamma, blocks = win.x, win.u, win.u_free, win.gamma, win.blocks

    gaps = np.diff(x)
    gaps -= ps.packed.gaps()
    slack = gaps.min(axis=-1, initial=np.inf)

    labels = blocks.labels(x.shape[-1])
    inside = blocks.interior_cells(x.shape[-1])

    umax = np.maximum(1.0, np.maximum(u_free.max(axis=-1), -u_free.min(axis=-1)))
    vel_scale = np.maximum(1.0, ps.total_mass * umax)
    edge_tol = 1e-12 * vel_scale
    top = gamma.max(axis=-1)
    total = np.abs(gamma[..., -1])
    edges = np.abs(gamma[..., blocks.hi])
    drift = np.abs(u @ ps.masses - u_free @ ps.masses)

    # (name, failed per row, magnitude per row, message), in reporting order
    checks = [
        ("feasibility", slack < -position_tol(x), -slack, ""),
        ("block_velocity_constant", ((u[..., :-1] != u[..., 1:]) & inside).any(axis=-1),
         0.0, "u not constant on a block"),
        ("free_velocity_off_blocks", ((u != u_free) & (labels < 0)).any(axis=-1),
         0.0, "u != u_free off blocks"),
        ("gamma_sign", top > 1e-10 * vel_scale, top, ""),
        ("gamma_total", total > edge_tol, total, ""),
        ("gamma_block_edge", (edges > edge_tol[..., None]).any(axis=-1), None, ""),
        ("momentum_balance", drift > edge_tol, drift, ""),
    ]
    if any(failed.any() for _, failed, _, _ in checks):
        row = min(int(np.argmax(f)) for _, f, _, _ in checks if f.any())
        name, _, value, message = next(c for c in checks if c[1][row])
        if value is None:  # the first block edge over the tolerance
            value = edges[row][edges[row] > edge_tol[row]][0]
        raise InvariantViolation(
            name, float(np.broadcast_to(value, slack.shape)[row]), message,
            t=float(win.t[row]), step=int(win.step_index[row]),
        )
    slack = slack if np.ndim(state.t) else float(slack[0])
    return state if np.array_equal(state.slack, slack) else replace(state, slack=slack)


# Largest window, in cells (rows times particles).  The (rows, n) arrays
# of a window live beside the run's own data, so this caps the memory
# that stepping many steps at once adds.
_WINDOW_CELLS = 1 << 14


def _window(state: SimState, rows: int, force: ForceField, cfg: StepperConfig,
            ps: ParticleSystem) -> SimState | None:
    """A window of up to ``rows`` steps from ``state``, all at once on
    its block partition with the force values sampled there held fixed.

    Row j is what ``step`` would give if the partition and the force
    values do not change: the force sums accumulate in the same order,
    blocks move at their mean free velocity, and the offset advances by
    dt * u.  The window keeps its leading rows up to the first that
    fails one of these, each decided exactly, without a tolerance:

    (a) force unchanged: the force at a kept row (which feeds the next
        row) equals the held values;
    (b) no new contact: s strictly increases across every gap that is
        not inside one block (projection pools exact ties);
    (c) no release: every proper prefix of a block's m (u - u_free) is
        <= 0, so the projection keeps the block pooled.  Blocks on which
        u_init, the force sums and the held force are each constant are
        exempt: their projected input is one exactly tied run.

    Returns the checked window, or None if its first row fails.  A row
    that fails ``check_state`` ends the window too, so that ``step``
    recomputes it and the run stops, if it must, where a stepwise run
    would, after yielding the rows before it.
    """
    dt = cfg.dt
    m = ps.masses
    blocks = state.blocks
    f = force(state.t, state.x)
    fs = np.empty((rows, ps.n))
    fs[0] = state.force_sum + f
    fs[1:] = f
    _running_sum(fs)
    u_free = dt * fs
    u_free += state.u_init
    u = block_velocity(u_free, blocks, m)
    s = dt * u
    s[0] += state.s
    _running_sum(s)
    gamma = adhesion_potential(u, u_free, m)

    labels = blocks.labels(ps.n)
    inside = blocks.interior_cells(ps.n)
    ok = ((s[:, 1:] > s[:, :-1]) | inside).all(axis=-1)  # (b)
    if not blocks.is_empty:  # (c)
        varies = np.zeros(len(blocks), dtype=bool)
        changes = (np.diff(state.u_init) != 0) | (np.diff(fs[0]) != 0) | (np.diff(f) != 0)
        varies[labels[:-1][changes & inside]] = True
        if varies.any():
            lo, hi = blocks.lo, blocks.hi
            # a block's proper prefixes are gamma over [lo, hi) less gamma before lo
            top = np.maximum.reduceat(gamma, np.stack([lo, hi], axis=1).ravel(), axis=-1)[:, ::2]
            before = np.where(lo > 0, gamma[:, lo - 1], 0.0)
            ok &= ((top <= before) | ~varies).all(axis=-1)
    kept = rows if ok.all() else int(np.argmin(ok))
    steps = state.step_index + np.arange(1, kept + 1)
    t = steps * dt
    x = ps.packed.values + s[:kept]
    for j in range(kept - 1):  # (a)
        if not np.array_equal(force(float(t[j]), x[j]), f):
            kept = j + 1
            break

    def first(k: int) -> SimState:
        return SimState(
            t=t[:k],
            step_index=steps[:k],
            u_free=u_free[:k],
            x=x[:k],
            u=u[:k],
            gamma=gamma[:k],
            blocks=blocks,
            s=s[:k],
            force_sum=fs[:k],
            u_init=state.u_init,
        )

    if kept == 0:
        return None
    try:
        return check_state(first(kept), ps)
    except InvariantViolation as exc:
        # the rows before the failing one passed; the failing row is left
        # to ``step``, whose own state the gate then passes or rejects
        kept = exc.step - int(steps[0])
        return check_state(first(kept), ps) if kept else None


def _running_sum(a: np.ndarray) -> None:
    """Replace each row of a by the sum of the rows up to it, added in
    row order (as a stepwise running sum does), in place."""
    for j in range(1, len(a)):
        np.add(a[j - 1], a[j], out=a[j])


def run_windows(
    ps: ParticleSystem, u0: np.ndarray, force: ForceField, cfg: StepperConfig
) -> Iterator[SimState]:
    """Yield the run as consecutive checked windows: the state at t=0,
    then every step up to t_end, each once.

    Between topology events the run advances a window of many steps at
    once (see ``_window``); where a window stops short, one ``step``
    finds the new partition and is yielded as a one-row window.  A
    window is tried only when it would hold at least two rows, and never
    more rows than the run has gone steps without a partition change or
    a stopped window, nor more than ``_WINDOW_CELLS`` cells.  Only a
    copy of the last row of a yielded window is kept for the next, so a
    consumer that drops each window before asking for the next holds
    one window at a time.
    """
    state = init_state(ps, u0)
    yield state.as_window()
    calm = 0  # steps since the partition changed or a window stopped short
    most = _WINDOW_CELLS // ps.n
    left = cfg.n_steps
    while left:
        rows = min(calm, most, left)
        if rows >= 2:
            win = _window(state, rows, force, cfg, ps)
            if win is not None:
                kept = len(win)
                state = win.row(-1)
                left -= kept
                yield win
                del win
                if kept == rows:
                    calm += rows
                    continue
            calm = 0
            if not left:
                break
        nxt = step(state, force, cfg, ps)
        calm = calm + 1 if nxt.blocks == state.blocks else 0
        state = nxt
        left -= 1
        yield state.as_window()


def run_simulation(
    ps: ParticleSystem, u0: np.ndarray, force: ForceField, cfg: StepperConfig
) -> Iterator[SimState]:
    """Yield the state at t=0 and after every step up to t_end."""
    for win in run_windows(ps, u0, force, cfg):
        for j in range(len(win)):
            yield win.row(j)


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
        s_new[0] = state0.s
        blocks_list = [state0.blocks]
        path = z0.copy()
        for j in range(1, n_steps + 1):
            path = path + dt * ufree[j]
            fit, blocks = project_monotone(path, m)
            s_new[j] = fit.values
            blocks_list.append(blocks)
        return s_new, blocks_list, ufree

    prev = np.tile(state0.s, (n_steps + 1, 1))
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
                ps, float(times[j]), j, cur[j], ufree[j].copy(), u,
                blocks_list[j], fsum_running.copy(), u0.copy(),
            )
        )
    return PicardResult(times=times, states=states, sweeps=len(residuals), residuals=residuals)
