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

import bisect
import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, Granular1dError, InvariantViolation
from .transport import (
    BlockPartition,
    ParticleSystem,
    position_tol,
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
            and np.all(bp[1:] >= bp[:-1]) and np.all(tbp[1:] >= tbp[:-1])):
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
    np.copyto(u, mean[blocks.labels], where=blocks.labels >= 0)
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
    elsewhere.  Returns the projected velocity and the pieces of the zones
    where it came out constant (the surviving congested blocks): a fit's
    pooled groups are its runs of equal values.

    A zone on which u0 is exactly constant is its own fit and survives
    whole, so only the other zones are projected."""
    u = np.array(u0, dtype=float)
    labels, inside = pos_blocks.labels, pos_blocks.interior_cells
    varies = np.zeros(len(pos_blocks), dtype=bool)
    varies[labels[:-1][(np.diff(u0) != 0) & inside]] = True
    for a, b in zip(pos_blocks.lo[varies].tolist(), pos_blocks.hi[varies].tolist()):
        u[a:b + 1] = project_monotone(u0[a:b + 1], masses[a:b + 1])[0]
    # the runs of tied gaps inside zones: a run over gaps lo..hi-1 is the block [lo, hi]
    edges = np.flatnonzero(np.diff(np.concatenate(([0], inside & (u[1:] == u[:-1]), [0]))))
    return u, BlockPartition(edges[0::2], edges[1::2], u.size)


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
                 else (z, BlockPartition([], [], ps.n)))
    u = block_velocity(u_free, blocks, masses)
    k = state.step_index + 1
    return check_state(_states(ps, k * dt, k, s, u_free, u, blocks, force_sum, state.u_init), ps)


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
    first; gaps are compared at ``position_tol(x)`` capped at
    ``ps.gap_tol_cap``; gamma's sign at 1e-10, and its edge values and
    the momentum drift at 1e-12, times max(1, M * max(1, max|u_free|)).
    """
    x, u, u_free, gamma, blocks = state.x, state.u, state.u_free, state.gamma, state.blocks

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
    tol = min(tol, ps.gap_tol_cap)
    if slack < -tol:
        raise failed("feasibility", -slack, index=int((gaps < -tol).argmax()))
    jumps = (u[:-1] != u[1:]) & blocks.interior_cells
    if jumps.any():  # the particle whose u differs from its left neighbour's
        raise failed("block_velocity_constant", message="u not constant on a block",
                     index=int(jumps.argmax()) + 1)
    loose = (u != u_free) & (blocks.labels < 0)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        big, small = q / c, a / q  # NaN: no real root
    first = np.minimum(np.where(big > 0, big, np.inf), np.where(small > 0, small, np.inf))
    return np.where((a < 0) | ((a == 0) & ((b < 0) | ((b == 0) & (c <= 0)))), 0.0, first)


class _ClosedForm:
    """The rows after ``start`` while the force values ``f`` sampled there
    stay fixed and its partition changes only by arrivals.  Row j is the
    state after j more steps: force_sum = fs0 + j*f and u_free = u_init +
    dt*force_sum, as ``step`` forms them, and u is the block mean of that
    u_free on the row's partition.  A block moves as one plateau: from its
    offset S at row r it is S + dt*((j - r)*u0 + dt*(T(j) - T(r))*bf) at
    row j, with T(j) = j(j+1)/2, u0 the block mean of the start's u_free
    and bf that of f; a start block has r = 0 and the start's offset and
    block velocity.  A particle off the blocks moves as ``step`` moves it,
    s_j = s_{j-1} + dt*u_free_j (the projection keeps a one-particle group
    bit for bit), so that a contact it makes is decided on the bits of a
    stepwise run.

    ``arrivals`` holds, in row order, one (r, block, lo, hi, S, u0, bf)
    per block that particles joined at row r: its bounds and plateau from
    row r on (see ``_stretch``)."""

    def __init__(self, start: SimState, f: np.ndarray, ps: ParticleSystem, dt: float):
        # the start's fields that rows are made of, and no more
        self.k0, self.blocks, self.u_init = start.step_index, start.blocks, start.u_init
        self.s0, self.u0, self.fs0 = start.s, start.u, start.force_sum
        self.f, self.ps, self.dt = f, ps, dt
        self.bf = block_velocity(f, start.blocks, ps.masses)
        self.free = np.flatnonzero(start.blocks.labels < 0)
        self.arrivals: list[tuple[int, int, int, int, float, float, float]] = []

    def plateau(self, j: int, r: int, s: float, u0: float, bf: float) -> float:
        """The offset at row j of a block whose plateau is s at row r."""
        dt = self.dt
        return s + (dt * (j - r) * u0 + dt * dt * (j * (j + 1) // 2 - r * (r + 1) // 2) * bf)

    def offsets(self) -> _Offsets:
        """A function j -> s_j for ascending j; each caller takes its own."""
        return _Offsets(self)

    def row(self, j: int, offsets: _Offsets) -> SimState:
        """Row j, unchecked, with its offsets and partition from ``offsets``."""
        force_sum = self.fs0 + j * self.f
        u_free = self.u_init + self.dt * force_sum
        s = offsets(j)
        u = block_velocity(u_free, offsets.blocks, self.ps.masses)
        k = self.k0 + j
        return _states(self.ps, k * self.dt, k, s, u_free, u, offsets.blocks, force_sum,
                       self.u_init)


class _Offsets:
    """j -> s_j of a closed form for ascending j, with ``blocks``, the
    partition of the row it was last asked for.  It carries the running
    sums of the start's free particles (``free``), the partition and the
    latest plateau of each grown block on from that row, taking in each
    arrival once, so the rows cost one pass.  A row that finds blocks
    holding half of ``free`` drops their sums, which no later row reads."""

    def __init__(self, form: _ClosedForm):
        free = self.free = form.free
        self.form, self.last, self.free_s = form, 0, form.s0[free]
        self._u, self._fs, self._f = form.u_init[free], form.fs0[free], form.f[free]
        self.blocks, self.taken, self.plateaus = form.blocks, 0, {}
        self.joined, self._slot = 0, None  # how many of ``free`` blocks took in; ``slot``

    def partition(self, j: int) -> BlockPartition:
        """The partition at row j, if no row after j was asked for.  A block
        that grew since the last row asked for grows once, to its bounds at j."""
        arrivals, grown, start = self.form.arrivals, set(), self.form.blocks
        while self.taken < len(arrivals) and arrivals[self.taken][0] <= j:
            r, b, lo, hi, *plateau = arrivals[self.taken]
            was = self.plateaus.get(b) or (start.lo.item(b), start.hi.item(b))
            self.joined += (hi - lo) - (was[1] - was[0])
            self.plateaus[b] = (lo, hi, r, *plateau)
            grown.add(b)
            self.taken += 1
        for b in grown:
            self.blocks = self.blocks.grown(b, *self.plateaus[b][:2])
        return self.blocks

    def free_at(self, j: int) -> np.ndarray:
        """The running sums of ``free`` at row j, if no row after j was asked for."""
        dt, free_s, u, fs, f = self.form.dt, self.free_s, self._u, self._fs, self._f
        for i in range(self.last + 1, j + 1):
            ds = f * i  # free_s + dt * (u + dt * (fs + i * f)), in place
            ds += fs
            ds *= dt
            ds += u
            ds *= dt
            free_s += ds
        self.last = max(self.last, j)
        return free_s

    @property
    def slot(self) -> np.ndarray:
        """Per particle, its place in ``free`` (-1 if none), made when first read."""
        if self._slot is None:
            self._slot = np.full(self.form.ps.n, -1)
            self._slot[self.free] = np.arange(self.free.size)
        return self._slot

    def __call__(self, j: int) -> np.ndarray:
        form, dt = self.form, self.form.dt
        out = form.s0 + (dt * j * form.u0 + dt * dt * (j * (j + 1) // 2) * form.bf)
        blocks = self.partition(j)
        if 2 * self.joined > self.free.size:
            keep = blocks.labels[self.free] < 0
            self.free, self.free_s, self._u, self._fs, self._f = (
                a[keep] for a in (self.free, self.free_s, self._u, self._fs, self._f))
            self.joined, self._slot = 0, None
        if self.free.size:
            out[self.free] = self.free_at(j)
        for lo, hi, *plateau in self.plateaus.values():
            out[lo:hi + 1] = form.plateau(j, *plateau)
        return out


@dataclass(frozen=True)
class Stretch:
    """Checked states after the consecutive steps ``steps`` of a run: a
    single state, or the rows of a closed form (see ``run_windows``), whose
    partition changes only where particles join a block.  Whatever its
    length and however many arrivals it spans, it holds O(n) arrays:
    ``last``, the state after its last step, and the closed form's start
    fields and force values, with a few numbers per arrival.
    ``gamma_max`` and ``slack_min`` are the largest gamma and the smallest
    slack of its covering rows (see ``_stretch``), which bound those of
    every row up to rounding."""

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
        """The partition of its last step."""
        return self.last.blocks

    def pieces(self) -> Iterator[tuple[int, BlockPartition]]:
        """The first step and the partition of each run of its steps on
        one partition, in step order."""
        first = self.steps[0]
        if self.form is None:
            yield first, self.last.blocks
            return
        form = self.form
        replay = form.offsets()
        for r in dict.fromkeys(arrival[0] for arrival in form.arrivals):  # ascending
            if form.k0 + r > first:
                yield first, replay.blocks
                first = form.k0 + r
            replay.partition(r)
        yield first, replay.blocks

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


def _release_prefixes(blocks: BlockPartition, changes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The proper block prefixes that (c) reads, as the particle i each
    ends at and the first particle of its block: those of the blocks on
    which u_init, the force sums or f change (``changes``, per gap)."""
    labels = blocks.labels
    i = np.flatnonzero(blocks.interior_cells)
    varies = np.bincount(labels[i[changes[i]]], minlength=len(blocks)) > 0
    i = i[varies[labels[i]]]
    return i, blocks.lo[labels[i]]


def _prefixes(uf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The proper prefixes of m (u - u_free) over one block, u its mean."""
    return np.cumsum(((w @ uf) / w.sum() - uf) * w)[:-1]


def _stretch(state: SimState, most: int, force: ForceField, cfg: StepperConfig,
             ps: ParticleSystem) -> Stretch | None:
    """The stretch of up to ``most`` rows after ``state``, with the force
    values f sampled there held (see ``_ClosedForm``), or None if a row
    that covers it fails.

    Row j is the run's state if it passes each of these, decided exactly
    on its materialized fields, without a tolerance:

    (a) force unchanged: the force at row j - 1, which feeds row j, is f;
    (b) no new contact: s strictly increases across every gap that is
        not inside one block (projection pools exact ties), except where
        particles join a block (below);
    (c) no release: every proper prefix of a block's m (u - u_free) is
        <= 0.  Blocks on which u_init, the start's force sums and f are
        each constant are exempt: the projection keeps a tied run whole.

    In exact arithmetic (b) is a quadratic in j per gap, (a) one per
    particle and x breakpoint plus the first step fed from the next time
    piece, and (c) affine per prefix.  The stretch ends at the last row
    the roots let through, but for a free particle's contact with a block
    (an arrival), which ``_Stretcher.arrive`` decides at its row as the
    projection does: the block takes in its neighbour while the
    neighbour's z = s_{j-1} + dt*u_free_j is at least the pooled mean (at
    most, on the right), and then the next one.  The grown block restarts
    its plateau from the pooled offset and sums, and only its own roots
    are found again.  An arrival the projection would not make alone (a
    block reaching another, a test below failing) ends the stretch before
    its row.

    The gate covers every row.  A gap's slack is quadratic and gamma, its
    block-edge values, its total and the momentum drift are affine while
    their forms hold, so the first and last row and those next to each
    gap's lowest point bound them: one ascending loop decides these
    covering rows by (a), (b), (c), on the gaps and prefixes their roots
    read, and ``check_state``, giving ``gamma_max`` and ``slack_min``.  An
    arrival ends the forms of the grown block and its edge gaps and starts
    new ones, and ``_Stretcher.holds`` tests each at its last or first row
    on scalars: (b) on the gaps from the grown block's outer neighbours to
    the old block at the row before, (a) on the joining particles and the
    block's particles next to an x cut, and (c) through the old block's
    prefixes, which stay at most their first value while their slope does
    not rise, and the joining particles' deficits.  A stretch is whole or
    None: a failing covering row leaves every row to ``step``, so a
    failing run stops where a stepwise run would.
    """
    return _Stretcher(state, most, force, cfg, ps).build()


class _LastRows:
    """The last row each root of a stretch lets through, in a table with a
    row per test, (a), (b) and (c), and a column per particle (gap, prefix),
    and their least value, kept under writes of a few entries at a time.
    From the first ``clear`` on, it holds the entries then finite in
    ascending order, ``found``, and those written since in a heap of
    (value, entry); an entry in either whose value has since changed is
    passed over."""

    def __init__(self, rows: np.ndarray):
        self.rows, self.flat, self.found, self.heap = rows, rows.reshape(-1), None, []

    def clear(self, a: int, b: int, y: int, z: int):
        """Set every test's entries in columns a..b and y..z to inf."""
        if self.found is None:
            finite = np.flatnonzero(self.flat < np.inf)
            found = finite[np.argsort(self.flat[finite], kind="stable")]
            # the entries, their values and the first not passed over
            self.found, self.was, self.next = found.tolist(), self.flat[found].tolist(), 0
        self.rows[:, a:b + 1] = self.rows[:, y:z + 1] = np.inf

    def put(self, test: int, at: int, last: float):
        """Set entry ``at`` of test ``test`` (0 for (a), 1 for (b), 2 for (c))
        to ``last``."""
        at += test * self.rows.shape[1]
        self.flat[at] = last
        if last < np.inf and self.found is not None:
            heapq.heappush(self.heap, (last, at))

    def min(self) -> float:
        found = self.found
        if found is None:
            return float(self.flat.min())
        value, was, k, heap = self.flat.item, self.was, self.next, self.heap
        while k < len(found) and value(found[k]) != was[k]:
            k += 1
        self.next = k
        while heap and value(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
        least = was[k] if k < len(found) else math.inf
        return min(least, heap[0][0]) if heap else least


class _Stretcher:
    """One stretch being built (see ``_stretch``): its closed form and the
    root of each test, as the row up to which it holds.  ``last`` holds the
    last row that (a) per particle, (b) per gap and (c) per proper prefix
    let through; a block rerooted after an arrival keeps its (a) and (c) at
    its first particle and prefix.  ``reach`` maps each gap from a free
    particle to a block with a finite root to the arrival's (b) there.
    ``pending`` is the heap of covering rows."""

    def __init__(self, state: SimState, most: int, force: ForceField, cfg: StepperConfig,
                 ps: ParticleSystem):
        dt, k0, n, m = cfg.dt, state.step_index, ps.n, ps.masses
        self.most, self.force, self.ps, self.dt, self.k0 = most, force, ps, dt, k0
        blocks = self.blocks = state.blocks
        f = self.f = force(state.t, state.x)
        form = self.form = _ClosedForm(state, f, ps, dt)
        labels, inside = blocks.labels, blocks.interior_cells
        p2 = 0.5 * dt * dt * form.bf  # s_j = s0 + p1*j + p2*j**2
        p1 = dt * state.u + p2
        d1, d2 = np.diff(p1), np.diff(p2)  # per gap

        self.cap = most  # the last row before the step fed from the next time piece
        x_cuts, t_cuts = force.breakpoints
        piece = np.searchsorted(t_cuts, state.t, side="right")
        # a cut past the last row cannot end the stretch, and its step may not fit an int
        if piece < t_cuts.size and t_cuts[piece] / dt <= k0 + most:
            self.cap = min(most, math.ceil(t_cuts[piece] / dt) - k0)
        # (a), x stays within its piece [lo, hi) up to the feeding row
        cuts = np.concatenate(([-np.inf], x_cuts, [np.inf]))
        self.at = np.searchsorted(x_cuts, state.x, side="right")
        self.below, self.above = cuts[self.at], cuts[self.at + 1]  # each particle's piece
        leave = np.minimum(first_root(state.x - self.below, p1, p2),
                           first_root(self.above - state.x, -p1, -p2))
        close = np.full(n - 1, np.inf)  # (b)
        gap = ~inside
        close[gap] = first_root(np.diff(state.s)[gap], d1[gap], d2[gap])
        edge = (labels[:-1] < 0) != (labels[1:] < 0)
        reach = np.flatnonzero(edge & (close < np.inf))
        self.reach = dict(zip(reach.tolist(), close[reach].tolist()))
        close[edge] = np.inf
        # (c), a prefix ending at i: before - prefix = margin + j*rate >= 0
        self.changes = ((np.diff(state.u_init) != 0) | (np.diff(state.force_sum) != 0)
                        | (np.diff(f) != 0))
        self.prefix = i, lo = _release_prefixes(blocks, self.changes)
        g = np.concatenate(([0.0], state.gamma))
        slope = np.concatenate(([0.0], np.cumsum(dt * m * (form.bf - f))))
        margin, rate = g[lo] - g[i + 1], slope[lo] - slope[i + 1]
        some = (margin < 0) | (rate <= 0)  # a margin from >= 0 that grows has no root
        release = np.full(n - 1, np.inf)
        release[i[some]] = first_root(margin[some], rate[some], 0.0)
        last = np.full((3, n), np.inf)
        last[0], last[1, :-1], last[2, :-1] = (np.floor(leave) + 1, np.ceil(close) - 1,
                                               np.floor(release))
        self.last = _LastRows(last)

        bottom = d2 > 0  # a gap's slack is lowest near its vertex
        vertex = -d1[bottom] / (2 * d2[bottom])
        vertex = vertex[(vertex > 1) & (vertex <= most)]
        self.pending = sorted({1, *np.floor(vertex).astype(int).tolist(),
                               *np.ceil(vertex).astype(int).tolist()})
        self.offsets = form.offsets()
        self.top, self.low, self.row = -np.inf, np.inf, None

        # the blocks as arrivals leave them
        self.uf0 = state.u_free
        self.owner = blocks.labels.copy()  # per particle, -1 if free
        self.bounds = list(zip(blocks.lo.tolist(), blocks.hi.tolist()))
        self.plateaus = list(zip([0] * len(blocks), form.s0[blocks.lo].tolist(),
                                 form.u0[blocks.lo].tolist(), form.bf[blocks.lo].tolist()))
        self.sums: list[tuple | None] = [None] * len(blocks)  # (mass, momentum, force) once grown
        self.steady: list[bool | None] = [None] * len(blocks)  # no prefix's (c) slope rises
        self.mixed: list[bool | None] = [None] * len(blocks)  # not exempt from (c)
        self.rooted: dict[int, tuple[int, int]] = {}  # a block's bounds at its last reroot
        self.cut_runs: dict[int, tuple] = {}  # a block's bounds and ``runs``
        self.turns = np.flatnonzero(self.at[1:] != self.at[:-1]).tolist()  # gaps across a cut

    def end(self) -> int:
        """The last row that the roots other than the arrivals let through."""
        last = self.last.min()
        return int(last) if last < self.cap else self.cap

    def build(self) -> Stretch | None:
        form = self.form
        while True:
            stop = self.end()
            reach = min(self.reach.values(), default=math.inf)
            c = math.ceil(reach) if reach < math.inf else reach  # the next arrival's row
            while self.pending and self.pending[0] <= min(c - 1, stop):
                if not self.cover(heapq.heappop(self.pending)):
                    return None
            if c > stop:
                break
            if not self.arrive(c):
                stop = c - 1
                break
        stop = max(1, stop)
        if (self.row is None or self.row.step_index != self.k0 + stop) and not self.cover(stop):
            return None
        return Stretch(range(self.k0 + 1, self.k0 + stop + 1), self.row, self.top, self.low, form)

    def cover(self, j: int) -> bool:
        """Hold the covering row j to (a), (b), (c), then to ``check_state``."""
        form, ps, offsets = self.form, self.ps, self.offsets
        if j > 1 and not (self.force((self.k0 + j - 1) * self.dt, ps.packed + offsets(j - 1))
                          == self.f).all():
            return False
        row = form.row(j, offsets)
        if not (row.s[1:] > row.s[:-1])[~row.blocks.interior_cells].all():
            return False
        i, lo = (self.prefix if row.blocks is self.blocks
                 else _release_prefixes(row.blocks, self.changes))
        if (row.gamma[i] > np.where(lo > 0, row.gamma[lo - 1], 0.0)).any():
            return False
        try:
            self.row = check_state(row, ps)
        except InvariantViolation:
            return False
        self.top, self.low = max(self.top, self.row.gamma_max), min(self.low, self.row.slack)
        return True

    @cached_property
    def cum_force(self) -> np.ndarray:
        """The cumulative m*f, made at the first arrival that reads it."""
        return np.cumsum(self.ps.masses * self.f)

    def walk(self, k: int, c: int) -> tuple[float, float, float, float, float, bool]:
        """What an arrival at row c reads of free particle k: its offsets at
        rows c - 1 and c, carried on from the running sums' last row with the
        operations of ``_Offsets``, its mass, start u_free and force value,
        and whether it fed row c from its x piece (a)."""
        seen = self.seen.get(k)
        if seen is None:
            form, offsets, dt, ps = self.form, self.offsets, self.dt, self.ps
            s = offsets.free_s.item(offsets.slot.item(k))
            u, fs, f = form.u_init.item(k), form.fs0.item(k), self.f.item(k)
            for i in range(offsets.last + 1, c):
                s = s + dt * (u + dt * (fs + i * f))
            seen = self.seen[k] = (
                s, s + dt * (u + dt * (fs + c * f)), ps.masses.item(k), self.uf0.item(k), f,
                self.below.item(k) <= ps.packed.item(k) + s < self.above.item(k))
        return seen

    def runs(self, b: int) -> tuple[list[int], list[int], list[tuple[float, float, float]]]:
        """The first and the last particles of block b's runs in one x
        piece, those that leave their piece first as the block moves, and
        the x piece and packed position of each."""
        bounds = lo, hi = self.bounds[b]
        known = self.cut_runs.get(b)
        if known is None or known[0] != bounds:
            turns, x = self.turns, self.ps.packed.item
            below, above = self.below.item, self.above.item
            inner = turns[bisect.bisect_left(turns, lo):bisect.bisect_left(turns, hi)]
            starts, ends = [lo] + [k + 1 for k in inner], inner + [hi]
            known = self.cut_runs[b] = (bounds, starts, ends,
                                        [(below(k), x(k), above(k)) for k in starts + ends])
        return known[1:]

    def inside(self, b: int, s: float) -> bool:
        """(a): block b's particles at plateau s are in the x pieces they
        started in, as its runs' first and last particles are."""
        return all(below <= x + s < above for below, x, above in self.runs(b)[2])

    def arrive(self, c: int) -> bool:
        """Take in the arrivals at row c; False where the stretch must end before it."""
        form, owner, n, walk = self.form, self.owner, self.ps.n, self.walk
        self.offsets.free_at(c - 2)
        self.seen = seen = {}
        grown, early = {}, []
        for b in sorted({max(owner.item(g), owner.item(g + 1))  # the block at each gap
                         for g, r in self.reach.items() if r <= c}):
            lo, hi = self.bounds[b]
            if self.sums[b] is None:
                w = self.ps.masses[lo:hi + 1]
                self.sums[b] = (float(w.sum()), float(w @ self.uf0[lo:hi + 1]),
                                float(w @ self.f[lo:hi + 1]))
            mass, mom, push = self.sums[b]
            mean = form.plateau(c, *self.plateaus[b])
            pooled, a, z = mass * mean, lo, hi
            while True:  # the projection's pooling: left, right, and again while it grows
                size = z - a
                while a and owner.item(a - 1) < 0:
                    _, s, w, uf, fk, _ = seen.get(a - 1) or walk(a - 1, c)
                    if s < mean:
                        break
                    pooled, mass, mom, push = pooled + w * s, mass + w, mom + w * uf, push + w * fk
                    mean, a = pooled / mass, a - 1
                while z < n - 1 and owner.item(z + 1) < 0:
                    _, s, w, uf, fk, _ = seen.get(z + 1) or walk(z + 1, c)
                    if s > mean:
                        break
                    pooled, mass, mom, push = pooled + w * s, mass + w, mom + w * uf, push + w * fk
                    mean, z = pooled / mass, z + 1
                if z - a == size:
                    break
            if (a, z) == (lo, hi):  # no contact yet: its roots came early
                early.append(b)
            else:
                grown[b] = (a, z, (c, mean, mom / mass, push / mass), (mass, mom, push))
        spans = sorted((a, z) for a, z, *_ in grown.values())
        if any(z + 1 >= a for (_, z), (a, _) in zip(spans, spans[1:])):
            return False  # two blocks reach each other
        if not all(self.holds(b, c, a, z, plateau, grown)
                   for b, (a, z, plateau, _) in grown.items()):
            return False
        changes = self.changes
        for b, (a, z, plateau, sums) in grown.items():
            lo, hi = self.bounds[b]
            owner[a:lo] = owner[hi + 1:z + 1] = b
            self.reach.pop(lo - 1, None)  # its edges are found again
            self.reach.pop(hi, None)
            if self.mixed[b] is not None:
                self.mixed[b] = self.mixed[b] or bool(changes[a:lo].any() or changes[hi:z].any())
            self.bounds[b], self.plateaus[b], self.sums[b] = (a, z), plateau, sums
            self.steady[b] = None
            form.arrivals.append((c, b, a, z, *plateau[1:]))
        for b in [*grown, *early]:
            self.reroot(b, c, b in grown)
        return True

    def holds(self, b: int, c: int, a: int, z: int, plateau: tuple, grown: dict) -> bool:
        """The tests of the forms that block b's arrivals at row c end and start
        (the joining particles were walked to row c)."""
        form, owner, n, dt, seen = self.form, self.owner.item, self.ps.n, self.dt, self.seen
        lo, hi = self.bounds[b]
        old = form.plateau(c - 1, *self.plateaus[b])
        u = plateau[2] + dt * c * plateau[3]
        # each side from the outer neighbour in: (b) at c against a neighbouring
        # block and at c - 1 on the gaps from the outer neighbour to the old block,
        # (a) on the joining particles, and (c): the grown block's prefixes are <= 0
        # if the old block's are and the joining particles' deficits m (u - u_free)
        # sum to <= 0 from the left and >= 0 from the right
        for side, k, ks in ((1, a - 1, range(a, lo)), (-1, z + 1, range(z, hi, -1))):
            o = owner(k) if 0 <= k < n else -1
            if o >= 0:
                other = form.plateau(c, *(grown[o][2] if o in grown else self.plateaus[o]))
                if (other >= plateau[1]) if side > 0 else (other <= plateau[1]):
                    return False
                last = form.plateau(c - 1, *self.plateaus[o])
            else:
                last = seen[k][0] if 0 <= k < n else None
            total = 0.0
            for k in ks:
                s, _, w, uf, fk, fed = seen[k]
                if not fed or last is not None and ((last >= s) if side > 0 else (s >= last)):
                    return False
                total += w * (u - uf - dt * c * fk)
                if total * side > 0:
                    return False
                last = s
            if last is not None and ((last >= old) if side > 0 else (old >= last)):
                return False
        # (a) on the old block at c - 1
        if not self.inside(b, old):
            return False
        # (c) at c.  The old block's prefixes are affine in j since its plateau
        # started, where they were <= 0; unless their slope rises they still are
        if self.steady[b] is None:
            self.steady[b] = self.holds_still(b)
        return self.steady[b] or not (_prefixes(*self.fields(lo, hi, c)) > 0).any()

    def fields(self, lo: int, hi: int, c: int) -> tuple[np.ndarray, np.ndarray]:
        """u_free at row c and the masses of the particles lo..hi."""
        cells, form = slice(lo, hi + 1), self.form
        return (form.u_init[cells] + self.dt * (form.fs0[cells] + c * self.f[cells]),
                self.ps.masses[cells])

    def holds_still(self, b: int) -> bool:
        """Whether no proper prefix of block b's m (bf - f), the slope of
        (c), is positive, or the block is exempt from (c).  The sum is
        linear in the prefix's mass between x cuts, so it is tested at the
        ends of the runs in one piece."""
        lo, hi = self.bounds[b]
        bf = self.plateaus[b][3]
        if self.mixed[b] is None:
            self.mixed[b] = bool(self.changes[lo:hi].any())
        if not self.mixed[b]:
            return True
        cm, cf = self.ps.cum_masses.item, self.cum_force.item
        m0, f0 = (cm(lo - 1), cf(lo - 1)) if lo else (0.0, 0.0)
        starts, ends, _ = self.runs(b)
        return all(bf * (cm(i) - m0) <= cf(i) - f0 for i in (*starts, *ends, hi - 1) if i < hi)

    def reroot(self, b: int, c: int, grew: bool):
        """The roots of block b on its plateau from row c on: its edge gaps',
        its x pieces' and its prefixes'.  A block that grew at row c, with a
        free particle beside each edge and no (c) slope that rises, gets
        one-row roots instead, as a growing front most often grows again at
        the next row: its edges are tried again at row c + 1, where it grows
        or its roots are solved, and its particles, if in their pieces at row
        c, feed that row."""
        form, owner, n, dt = self.form, self.owner, self.ps.n, self.dt
        a, z = self.bounds[b]
        # its roots inside: at the first reroot all the start's, later those at
        # its first particle and of the particles it took in
        lo, hi = self.rooted.get(b, (z, a))
        self.last.clear(a, lo, hi, z)
        self.rooted[b] = a, z
        if self.steady[b] is None:
            self.steady[b] = self.holds_still(b)
        s = form.plateau(c, *self.plateaus[b])
        # a particle already out of its piece feeds no row after c
        inside = self.inside(b, s)
        gaps = [g for g in (a - 1, z) if 0 <= g < n - 1]
        arrivals = [(owner.item(g) < 0) != (owner.item(g + 1) < 0) for g in gaps]
        if grew and gaps and all(arrivals) and self.steady[b]:
            for g in gaps:
                self.reach[g] = c + 0.5
                self.last.put(1, g, np.inf)
            self.last.put(0, a, c + 1 if inside else c)
            return
        starts, ends, _ = self.runs(b)
        bf = self.plateaus[b][3]

        def motion(k):  # particle k's offset at row c and its s_{c+t} - s_c = q1*t + q2*t**2
            o = owner.item(k)
            if o < 0:
                y, v, vf = self.walk(k, c)[1], self.uf0.item(k), self.f.item(k)
            else:
                y, (_, _, v, vf) = form.plateau(c, *self.plateaus[o]), self.plateaus[o]
            q2 = 0.5 * dt * dt * vf
            return y, dt * (v + dt * vf * c) + q2, q2

        coef = [tuple(y - w for y, w in zip(motion(g + 1), motion(g))) for g in gaps]
        # (a): every particle of the block keeps its piece while the plateau stays in
        # [low, high), bounded at the first particle after each cut and the last before
        _, q1, q2 = motion(a)
        x = self.ps.packed.item
        low = max(self.below.item(k) - x(k) for k in starts)
        high = min(self.above.item(k) - x(k) for k in ends)
        coef += [(s - low, q1, q2), (high - s, -q1, -q2)]
        roots = c + first_root(*np.array(coef).T)
        for g, arrival, r, last, (_, lin, quad) in zip(gaps, arrivals, roots.tolist(),
                                                       (np.ceil(roots) - 1).tolist(), coef):
            if arrival and r < np.inf:
                self.reach[g] = r
            else:
                self.reach.pop(g, None)
            self.last.put(1, g, np.inf if arrival else last)
            if quad > 0 and lin < 0:  # a gap that bends up: cover the rows at its lowest point
                v = c - lin / (2 * quad)
                for r in {math.floor(v), math.ceil(v)}:
                    if c < r <= self.most:
                        heapq.heappush(self.pending, r)
        self.last.put(0, a, np.floor(roots[len(gaps):].min()) + 1 if inside else c)
        if not self.steady[b]:  # (c): prefix + t*slope, where the slope rises
            uf, w = self.fields(a, z, c)
            slope = np.cumsum(dt * w * (bf - self.f[a:z + 1]))[:-1]
            rise = slope > 0
            self.last.put(2, a, np.floor(
                c + first_root(-_prefixes(uf, w)[rise], -slope[rise], 0.0).min(initial=np.inf)))


def _grows(a: BlockPartition, b: BlockPartition) -> bool:
    """Whether b is a with none, some or all of its blocks grown at their edges."""
    return len(a) == len(b) and bool((b.lo <= a.lo).all() and (b.hi >= a.hi).all())


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
        calm = calm + 1 if _grows(state.blocks, nxt.blocks) else 0
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
    u_free = state0.u_init + dt * fs  # the states' own force sums, as ``step`` forms u_free
    states = [state0] + [
        check_state(_states(ps, float(times[j + 1]), j + 1, cur[j + 1], u_free[j],
                            block_velocity(u_free[j], blocks, m), blocks, fs[j], state0.u_init), ps)
        for j, (_, blocks) in enumerate(fits)
    ]
    return PicardResult(states=states, residuals=residuals)
