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
independent integrator for cross-checks up to the first release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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

    ``breakpoints`` is (x cuts, t cuts) when ``piecewise_constant_force``
    built the force; None for a plain callable, which ``run_windows``
    advances one step at a time and whose values are checked finite on
    every call.
    """

    eval: Callable[[float, np.ndarray], np.ndarray]
    lipschitz_k: float = 0.0
    breakpoints: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.eval(t, x), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).astype(float)
        # a declared force's values were checked finite when it was built
        if self.breakpoints is None and not np.all(np.isfinite(out)):
            raise Granular1dError(f"force returned non-finite values at t={t}")
        return out


def piecewise_constant_force(breakpoints: Sequence[float], values: Sequence,
                             t_breakpoints: Sequence[float] = ()) -> ForceField:
    """Force constant between nondecreasing finite x ``breakpoints`` and
    ``t_breakpoints``.

    ``values`` (finite) has len(breakpoints) + 1 entries, value[k] on
    [breakpoints[k-1], breakpoints[k]), or one such row per time piece.
    A time equal to a breakpoint takes the later piece: the two-block
    force reverses at t_star itself, so the discrete release lands one
    step after 2*t_star on a uniform grid.
    """
    bp, tbp = np.asarray(breakpoints, dtype=float), np.asarray(t_breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    cols = np.atleast_2d(vals).T  # one row per x piece, one column per time piece
    if (bp.ndim != 1 or tbp.ndim != 1 or vals.ndim not in (1, 2)
            or cols.shape != (bp.size + 1, tbp.size + 1)):
        raise ValueError("need 1-D breakpoints and len(breakpoints) + 1 values per time piece")
    if not (all(np.isfinite(a).all() for a in (bp, tbp, vals))
            and np.all(np.diff(bp) >= 0) and np.all(np.diff(tbp) >= 0)):
        raise ValueError("breakpoints must be finite and nondecreasing, values finite")

    def f(t, x):
        # the piece searchsorted(bp, x, side="right") picks, NaN the last: one where per
        # cut, on the values at t as Python floats, which np.where takes fastest
        at_t = cols[:, np.searchsorted(tbp, t, side="right")].tolist()
        out = at_t[-1]
        for b, v in zip(bp.tolist()[::-1], at_t[-2::-1]):
            out = np.where(x < b, v, out)
        return out

    return ForceField(f, breakpoints=(bp, tbp))


def zero_force() -> ForceField:
    return piecewise_constant_force([], [0.0])


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not self.t_end >= 0:
            raise ValueError("t_end must be nonnegative")
        if self.t_end / self.dt == math.inf:
            raise ValueError("t_end / dt overflows: too many steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class SimState:
    """Immutable Lagrangian fields at one time: (n,) arrays, a float
    ``t`` and an int ``step_index``; the arrays are read-only by
    convention.

    ``s`` is the monotone offset x - ps.packed carrying the pooled plateaus
    exactly; ``force_sum`` is the per-particle sum of sampled force
    values, so that u_free = u_init + dt * force_sum reproduces the
    left-rectangle quadrature without drift across force reversals.
    ``slack`` is the smallest gap of x minus its packed gap (inf for one
    particle) and ``gamma_max`` the largest gamma, as ``check_state``
    measured them.
    """

    t: float
    step_index: int
    u_free: np.ndarray
    x: np.ndarray
    u: np.ndarray
    gamma: np.ndarray
    blocks: BlockPartition
    s: np.ndarray
    force_sum: np.ndarray
    u_init: np.ndarray
    slack: float | None = None
    gamma_max: float | None = None

    @property
    def n(self) -> int:
        return self.x.size


def block_velocity(u_free: np.ndarray, blocks: BlockPartition, masses: np.ndarray) -> np.ndarray:
    """Replace the free velocity by its mass average on each block."""
    u = np.array(u_free, dtype=float)
    if not len(blocks):
        return u
    mean = blocks.sums(masses * u) / blocks.sums(masses)
    labels = blocks.labels(u.size)
    np.copyto(u, mean[labels], where=labels >= 0)
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
    gamma = u - u_free
    gamma *= masses
    return np.cumsum(gamma, out=gamma)


def _states(ps: ParticleSystem, t: float, step_index: int, s: np.ndarray, u_free: np.ndarray,
            u: np.ndarray, blocks: BlockPartition, force_sum: np.ndarray,
            u_init: np.ndarray) -> SimState:
    """The unchecked state with offset s and velocities (u_free, u):
    x = ps.packed + s and gamma from ``adhesion_potential``."""
    return SimState(t=t, step_index=step_index, u_free=u_free, x=ps.packed + s, u=u,
                    gamma=adhesion_potential(u, u_free, ps.masses), blocks=blocks, s=s,
                    force_sum=force_sum, u_init=u_init)


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
    lo, hi = [pos_blocks.lo[~varies]], [pos_blocks.hi[~varies]]
    for a, b in zip(pos_blocks.lo[varies].tolist(), pos_blocks.hi[varies].tolist()):
        fit, sub = project_monotone(u0[a:b + 1], masses[a:b + 1])
        u[a:b + 1] = fit
        lo.append(a + sub.lo)
        hi.append(a + sub.hi)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    order = np.argsort(lo)
    return u, BlockPartition(lo[order], hi[order])


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
    s, pos_blocks = project_monotone(ps.positions - ps.packed, ps.masses)
    u, blocks = _tangent_velocity(u0, pos_blocks, ps.masses)
    return check_state(_states(ps, 0.0, 0, s, u0.copy(), u, blocks, np.zeros(ps.n), u0.copy()), ps)


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
    z = state.s + dt * u_free
    # a free path that overflowed is left unprojected for the gate to name
    s, blocks = (project_monotone(z, masses, cum_w=ps.cum_masses) if np.isfinite(z).all()
                 else (z, BlockPartition()))
    u = block_velocity(u_free, blocks, masses)
    k = state.step_index + 1
    return check_state(_states(ps, k * dt, k, s, u_free, u, blocks, force_sum, state.u_init), ps)


def position_tol(x: np.ndarray) -> float:
    """Absolute rounding tolerance for the gaps of the configuration x
    (NaN if x holds one)."""
    return 1e-12 * np.maximum(1.0, np.maximum(np.maximum.reduce(x), -np.minimum.reduce(x)))


def check_state(state: SimState, ps: ParticleSystem) -> SimState:
    """Return the state carrying its measured ``slack`` and ``gamma_max``
    (the same object if it already does), or raise InvariantViolation
    (with its time and step) unless it satisfies the structural
    invariants: finite fields, feasibility of x, u constant on each block
    and u_free off them, nonpositive gamma vanishing globally and at
    block right edges, and momentum balance.  The error names the first
    failing check in that order and, where one gap or particle fails it,
    the first such ``index``: the gap for feasibility, the particle for
    the others (for block constancy the first whose u differs from its
    block neighbour on the left).

    This is the package's one tolerance policy: non-finite fields fail
    first; gaps are compared at ``position_tol(x)``; gamma's sign at
    1e-10, and its edge values and the momentum drift at 1e-12, times
    max(1, M * max(1, max|u_free|)).
    """
    x, u, u_free, gamma, blocks = state.x, state.u, state.u_free, state.gamma, state.blocks
    n = x.size

    def failed(name, value=0.0, message="", index=None):
        return InvariantViolation(name, float(value), message, t=state.t, step=state.step_index,
                                  index=index)

    gaps = x[1:] - x[:-1]
    gaps -= ps.packed_gaps
    slack = float(np.minimum.reduce(gaps, initial=np.inf))
    umax = np.maximum(1.0, np.maximum(np.maximum.reduce(u_free), -np.minimum.reduce(u_free)))
    vel_scale = np.maximum(1.0, ps.total_mass * umax)
    edge_tol = 1e-12 * vel_scale
    sign_tol = 1e-10 * vel_scale
    top = np.maximum.reduce(gamma)
    drift = abs(u @ ps.masses - u_free @ ps.masses)
    tol = position_tol(x)
    # a NaN or an infinity in x, u_free, u or gamma reaches one of these
    # reductions; each is tested on its own, as a sum of them may overflow
    if not np.isfinite((tol, umax, drift, top, np.minimum.reduce(gamma))).all():
        raise failed("finite", message="non-finite x, u, u_free or gamma")
    if slack < -tol:
        raise failed("feasibility", -slack, index=int((gaps < -tol).argmax()))
    jumps = (u[:-1] != u[1:]) & blocks.interior_cells(n)
    if jumps.any():  # the particle whose u differs from its left neighbour's
        raise failed("block_velocity_constant", message="u not constant on a block",
                     index=int(jumps.argmax()) + 1)
    loose = (u != u_free) & (blocks.labels(n) < 0)
    if loose.any():
        raise failed("free_velocity_off_blocks", message="u != u_free off blocks",
                     index=int(loose.argmax()))
    if top > sign_tol:
        raise failed("gamma_sign", top, index=int((gamma > sign_tol).argmax()))
    if abs(gamma[-1]) > edge_tol:
        raise failed("gamma_total", abs(gamma[-1]))
    edges = np.abs(gamma[blocks.hi])
    if (edges > edge_tol).any():  # the first block edge over the tolerance
        k = int((edges > edge_tol).argmax())
        raise failed("gamma_block_edge", edges[k], index=int(blocks.hi[k]))
    if drift > edge_tol:
        raise failed("momentum_balance", drift)
    gamma_max = float(top)
    if state.slack == slack and state.gamma_max == gamma_max:
        return state
    return replace(state, slack=slack, gamma_max=gamma_max)


def first_root(a, b, c) -> np.ndarray:
    """Per entry, the smallest t >= 0 at which a + b*t + c*t**2 <= 0: 0
    where it does not start positive and rise, inf where it stays positive.

    The roots are the numerically stable pair q/c and a/q with
    q = -(b + sign(b) sqrt(b*b - 4*a*c))/2, which also gives the root -a/b
    of a line (c = 0); arguments broadcast against each other.
    """
    a, b, c = np.broadcast_arrays(a, b, c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.stack([q / c, a / q])
    first = np.where(roots > 0, roots, np.inf).min(axis=0)  # NaN: no real root
    return np.where((a < 0) | ((a == 0) & ((b < 0) | ((b == 0) & (c <= 0)))), 0.0, first)


class _ClosedForm:
    """The rows after ``start`` while its partition and the force values
    ``f`` sampled there stay fixed.  Row j is the state after j more
    steps: force_sum = fs0 + j*f and u_free = u_init + dt*force_sum, as
    ``step`` forms them, and u is the block mean of that u_free.  A block
    particle's offset is s_j = s0 + dt*(j*u0 + dt*j*(j+1)/2 * bf), with u0
    the start's block velocity and bf the block mean of f.  A particle
    off the blocks moves as ``step`` moves it, s_j = s_{j-1} + dt*u_free_j
    (the projection keeps a one-particle group bit for bit), so that a
    contact it makes is decided on the bits of a stepwise run."""

    def __init__(self, start: SimState, f: np.ndarray, ps: ParticleSystem, dt: float):
        # the start's fields that rows are made of, and no more
        self.k0, self.blocks, self.u_init = start.step_index, start.blocks, start.u_init
        self.s0, self.u0, self.fs0 = start.s, start.u, start.force_sum
        self.f, self.ps, self.dt = f, ps, dt
        self.bf = block_velocity(f, start.blocks, ps.masses)
        self.free = np.flatnonzero(start.blocks.labels(ps.n) < 0)

    def offsets(self) -> Callable[[int], np.ndarray]:
        """A function j -> s_j for ascending j that carries the free
        particles' running sums on from the row it was last asked for, so
        the rows cost one pass; each caller takes its own."""
        dt, s0, free = self.dt, self.s0, self.free
        fs0, f, u_init = self.fs0[free], self.f[free], self.u_init[free]
        last, free_s = 0, s0[free]

        def s(j: int) -> np.ndarray:
            nonlocal last, free_s
            out = s0 + (dt * j * self.u0 + dt * dt * (j * (j + 1) // 2) * self.bf)
            if free.size:
                for i in range(last + 1, j + 1):
                    free_s = free_s + dt * (u_init + dt * (fs0 + i * f))
                last = j
                out[free] = free_s
            return out

        return s

    def row(self, j: int, offsets: Callable[[int], np.ndarray]) -> SimState:
        """Row j, unchecked, with its offsets from ``offsets``."""
        force_sum = self.fs0 + j * self.f
        u_free = self.u_init + self.dt * force_sum
        u = block_velocity(u_free, self.blocks, self.ps.masses)
        k = self.k0 + j
        return _states(self.ps, k * self.dt, k, offsets(j), u_free, u, self.blocks, force_sum,
                       self.u_init)


@dataclass(frozen=True)
class Stretch:
    """Checked states after the consecutive steps ``steps`` of a run, all
    on one block partition: a single state, or the rows of a closed form
    (see ``run_windows``).  Whatever its length it holds O(n) arrays:
    ``last``, the state after its last step, and the closed form's start
    fields and force values.  ``gamma_max`` and ``slack_min`` are the largest
    gamma and the smallest slack of its covering rows (see ``_stretch``),
    which bound those of every row up to rounding."""

    steps: range
    last: SimState
    gamma_max: float
    slack_min: float
    form: _ClosedForm | None = None

    @classmethod
    def of(cls, state: SimState) -> Stretch:
        """A checked state as a stretch of its own."""
        k = state.step_index
        return cls(range(k, k + 1), state, state.gamma_max, state.slack)

    @property
    def blocks(self) -> BlockPartition:
        return self.last.blocks

    def rows(self, steps: Iterable[int]) -> Iterator[SimState]:
        """The checked states after ``steps`` (ascending, each in the
        stretch): ``last``, or a row evaluated anew."""
        offsets = None if self.form is None else self.form.offsets()
        left = self.steps  # the steps still ahead
        for k in steps:
            if k not in left:
                raise IndexError(f"step {k} is not in {left} (ascending steps of {self.steps})")
            left = range(k, left.stop)
            if k == self.last.step_index:
                yield self.last
            else:
                yield check_state(self.form.row(k - self.form.k0, offsets), self.form.ps)

    def row(self, k: int) -> SimState:
        """The checked state after step k."""
        return next(self.rows([k]))


def _stretch(state: SimState, most: int, force: ForceField, cfg: StepperConfig,
             ps: ParticleSystem) -> Stretch | None:
    """The stretch of up to ``most`` rows after ``state`` on its partition,
    with the force values f sampled there held (see ``_ClosedForm``), or
    None if a row that covers it fails.

    Row j is the run's state if it passes each of these, decided exactly
    on its materialized fields, without a tolerance:

    (a) force unchanged: the force at row j - 1, which feeds row j, is f;
    (b) no new contact: s strictly increases across every gap that is
        not inside one block (projection pools exact ties);
    (c) no release: every proper prefix of a block's m (u - u_free) is
        <= 0.  Blocks on which u_init, the start's force sums and f are
        each constant are exempt: the projection keeps a tied run whole.

    In exact arithmetic (b) is a quadratic in j per gap, (a) one per
    particle and x breakpoint plus the first step fed from the next time
    piece, and (c) affine per prefix.  The stretch ends at the last row
    the roots let through.

    The gate covers every row: slack is quadratic per gap, and gamma,
    its block-edge values, its total and the momentum drift are affine,
    so the covering rows, the first and last and those next to each
    gap's lowest point, bound them all.  One ascending loop decides each
    covering row by (a), (b), (c) and then ``check_state``, and gives
    ``gamma_max`` and ``slack_min``.  The stretch is taken whole or not
    at all: if a covering row fails, None leaves every row to ``step``,
    so a failing run stops where a stepwise run would.
    """
    dt, n, k0 = cfg.dt, ps.n, state.step_index
    blocks = state.blocks
    f = force(state.t, state.x)
    form = _ClosedForm(state, f, ps, dt)
    labels, inside = blocks.labels(n), blocks.interior_cells(n)
    p2 = 0.5 * dt * dt * form.bf  # s_j = s0 + p1*j + p2*j**2
    p1 = dt * state.u + p2

    ends = [most]  # the last row each test lets through, from its root
    x_cuts, t_cuts = force.breakpoints
    piece = np.searchsorted(t_cuts, state.t, side="right")
    if piece < t_cuts.size:  # (a), the step that samples the next time piece
        ends.append(math.ceil(t_cuts[piece] / dt) - k0)
    # (a), x stays within its piece [lo, hi) up to the feeding row
    cuts = np.concatenate(([-np.inf], x_cuts, [np.inf]))
    at = np.searchsorted(x_cuts, state.x, side="right")
    leave = np.minimum(first_root(state.x - cuts[at], p1, p2),
                       first_root(cuts[at + 1] - state.x, -p1, -p2))
    ends.append(np.floor(leave.min()) + 1)
    gap = ~inside  # (b)
    close = first_root(np.diff(state.s)[gap], np.diff(p1)[gap], np.diff(p2)[gap])
    ends.append(np.ceil(close.min(initial=np.inf)) - 1)
    changes = (np.diff(state.u_init) != 0) | (np.diff(state.force_sum) != 0) | (np.diff(f) != 0)
    i = np.flatnonzero(inside)  # (c), a prefix ending at i: before - prefix = A + j*B >= 0
    varies = np.zeros(len(blocks), dtype=bool)
    varies[labels[i[changes[i]]]] = True
    i = i[varies[labels[i]]]
    lo = blocks.lo[labels[i]]
    g = np.concatenate(([0.0], state.gamma))
    slope = np.concatenate(([0.0], np.cumsum(dt * ps.masses * (form.bf - f))))
    release = first_root(g[lo] - g[i + 1], slope[lo] - slope[i + 1], 0.0)
    ends.append(np.floor(release.min(initial=np.inf)))

    spans = np.stack([blocks.lo, blocks.hi], axis=1).ravel()  # a block's proper prefixes
    end = int(max(1, min(ends)))
    bottom = np.diff(p2) > 0  # a gap's slack is lowest near its vertex
    vertex = -np.diff(p1)[bottom] / (2 * np.diff(p2)[bottom])
    vertex = vertex[(vertex > 1) & (vertex < end)]
    inner = np.concatenate((np.floor(vertex), np.ceil(vertex))).astype(int).tolist()
    offsets = form.offsets()
    top, low = -np.inf, np.inf
    for j in sorted({1, end, *inner}):
        if j > 1 and not (force((k0 + j - 1) * dt, ps.packed + offsets(j - 1)) == f).all():  # (a)
            return None
        row = form.row(j, offsets)
        if not ((row.s[1:] > row.s[:-1]) | inside).all():  # (b)
            return None
        peak = np.maximum.reduceat(row.gamma, spans)[::2]  # (c)
        before = np.where(blocks.lo > 0, row.gamma[blocks.lo - 1], 0.0)
        if ((peak > before) & varies).any():
            return None
        try:
            row = check_state(row, ps)
        except InvariantViolation:
            return None
        top, low = max(top, row.gamma_max), min(low, row.slack)
    return Stretch(range(k0 + 1, k0 + end + 1), row, top, low, form)


def run_windows(
    ps: ParticleSystem, u0: np.ndarray, force: ForceField, cfg: StepperConfig
) -> Iterator[Stretch]:
    """Yield the run as consecutive checked stretches: the state at t=0,
    then every step up to t_end, each once.

    Between topology events the run jumps over a stretch of many steps
    (see ``_stretch``); after a stretch, or in place of one that is
    refused, one ``step`` finds the next partition and is yielded as a
    stretch of its own.  A stretch is tried only for a force that
    declares its breakpoints, and only once two steps in a row kept the
    partition, so a run whose partition changes at almost every step
    goes step by step.
    """
    state = init_state(ps, u0)
    yield Stretch.of(state)
    calm = 0  # steps since the partition changed or a stretch had no row
    left = cfg.n_steps
    while left:
        if calm >= 2 and force.breakpoints is not None:
            stretch = _stretch(state, left, force, cfg, ps)
            if stretch is None:
                calm = 0
            else:
                state, left = stretch.last, left - len(stretch.steps)
                yield stretch
                del stretch  # the run goes on from its last state alone
                if not left:
                    return
        nxt = step(state, force, cfg, ps)
        calm = calm + 1 if nxt.blocks == state.blocks else 0
        state = nxt
        left -= 1
        yield Stretch.of(state)


def run_simulation(
    ps: ParticleSystem, u0: np.ndarray, force: ForceField, cfg: StepperConfig
) -> Iterator[SimState]:
    """Yield the state at t=0 and after every step up to t_end."""
    for stretch in run_windows(ps, u0, force, cfg):
        yield from stretch.rows(stretch.steps)


@dataclass
class PicardResult:
    states: list[SimState]
    residuals: list[float]

    @property
    def sweeps(self) -> int:
        return len(self.residuals)

    @property
    def residual_ratios(self) -> list[float]:
        return [b / a for a, b in zip(self.residuals, self.residuals[1:]) if a > 0]


def picard_solve(ps: ParticleSystem, u0: np.ndarray, force: ForceField, cfg: StepperConfig,
                 max_iters: int = 30, tol: float = 1e-12) -> PicardResult:
    """Solve the global fixed point on the uniform time grid.

    Each sweep integrates the force along the previous iterate
    (left-rectangle in time, same quadrature as the marching stepper),
    builds the accumulated free path, and projects it at every grid
    time.  Convergence is measured in the exponentially weighted
    sup-in-time norm  max_t exp(-2 sqrt(k) t) ||X'_t - X_t||_w  with k
    the declared Lipschitz constant of the force, in which one sweep
    contracts by at least 1/4 for Lipschitz forces; the iteration stops
    below ``tol`` or raises ConvergenceError after ``max_iters`` sweeps.
    The state at t=0 is ``init_state``'s, as for the marching stepper.

    The accumulated-path formula coincides with the marching dynamics up
    to the first release event (a glued block whose adhesion potential
    returns to zero): past it the formula keeps blocks glued and its
    derived adhesion potential turns positive, which ``check_state``
    raises as an InvariantViolation rather than silently accepting.
    """
    if max_iters < 1 or not tol > 0:
        raise ValueError("need max_iters >= 1 and tol > 0")
    state0 = init_state(ps, u0)
    m, dt, n_steps = ps.masses, cfg.dt, cfg.n_steps
    times = np.arange(n_steps + 1) * dt
    decay = np.exp(-2.0 * np.sqrt(max(0.0, force.lipschitz_k)) * times).tolist()

    def force_sums(s: np.ndarray) -> np.ndarray:
        # row j: the force sum after step j + 1 along the offsets s
        fs = np.empty((n_steps, ps.n))
        for j in range(n_steps):
            fs[j] = force(times[j], ps.packed + s[j])
        return np.cumsum(fs, axis=0, out=fs)  # added in row order, as step adds

    prev = np.tile(state0.s, (n_steps + 1, 1))
    residuals: list[float] = []
    for _ in range(max_iters):
        # rows of u_free, path and blocks are steps 1..n_steps; rows of cur 0..n_steps
        u_free = dt * force_sums(prev)
        u_free += state0.u_init
        path = dt * u_free
        path[:1] += ps.positions - ps.packed
        np.cumsum(path, axis=0, out=path)
        fits = [project_monotone(z, m) for z in path]
        cur = np.array([state0.s] + [fit for fit, _ in fits])
        residuals.append(max(d * weighted_norm(c - p, m) for d, c, p in zip(decay, cur, prev)))
        prev = cur
        if residuals[-1] < tol:
            break
    else:
        raise ConvergenceError(residuals[-1], len(residuals))

    fs = force_sums(cur)
    states = [state0] + [
        check_state(_states(ps, float(times[j + 1]), j + 1, cur[j + 1], u_free[j],
                            block_velocity(u_free[j], blocks, m), blocks, fs[j], state0.u_init), ps)
        for j, (_, blocks) in enumerate(fits)
    ]
    return PicardResult(states=states, residuals=residuals)
