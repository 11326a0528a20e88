"""Particle discretization of 1D measures and projection onto the
admissible cone of transport maps.

A measure is carried by N sorted particles with positive masses.  Every
transport map lives on the particle index set as a nondecreasing vector.
The maximal-compression rearrangement packs the particles into a single
interval whose length equals the total mass; the admissible cone
consists of maps whose consecutive gaps are at least the gaps of that
packed map, which is exactly the discrete form of the density bound.

Projection onto the cone reduces, after subtracting the packed map, to
weighted isotonic regression, solved here by pool-adjacent-violators.
An exhaustive active-set oracle provides an independent check for small
systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import PiecewiseDensity
from .errors import OracleLimitError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def position_tol(x: np.ndarray) -> float:
    """Absolute rounding tolerance for the gaps of the configuration x
    (NaN if x holds one)."""
    return 1e-12 * np.maximum(1.0, np.maximum(np.maximum.reduce(x), -np.minimum.reduce(x)))


@dataclass(frozen=True)
class ParticleSystem:
    """Sorted particle positions with positive masses: the fixed frame
    of a run.

    ``total_mass`` is always the exact float sum of ``masses``.
    ``packed`` is the maximal-compression rearrangement, a read-only
    increasing array: the unit-density interval of length
    ``total_mass`` centered at the center of mass, with particle i at the
    midpoint of its own mass cell; its gaps (m_i + m_{i+1})/2 are the
    lower bounds of the admissible cone, and each must exceed
    ``position_tol(packed)``, or a gap could close unseen within it.
    ``rho_star`` is the maximal density each particle carries along its
    trajectory, or None for the homogeneous bound rho <= 1.
    ``packed_gaps`` (the gaps of ``packed``), ``cum_masses``
    (cumsum(masses)) and ``gap_tol_cap`` (half the least packed gap, inf
    for one particle: the gap tolerance's cap) are read-only run constants.
    """

    positions: np.ndarray
    masses: np.ndarray
    rho_star: np.ndarray | None = None
    total_mass: float = field(init=False)
    packed: np.ndarray = field(init=False)
    packed_gaps: np.ndarray = field(init=False)
    cum_masses: np.ndarray = field(init=False)
    gap_tol_cap: float = field(init=False)

    def __post_init__(self):
        pos = _readonly(self.positions)
        m = _readonly(self.masses)
        if pos.ndim != 1 or pos.shape != m.shape or pos.size < 1:
            raise ValueError("positions and masses must be equal-length 1D vectors, N >= 1")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(m)):
            raise ValueError("non-finite particle data")
        if np.any(pos[1:] < pos[:-1]):  # no difference to overflow
            raise ValueError("positions must be nondecreasing")
        if np.any(m <= 0):
            raise ValueError("masses must be positive")
        if self.rho_star is not None:
            star = _readonly(self.rho_star)  # carried along trajectories, never rewritten
            if star.shape != pos.shape:
                raise ValueError("rho_star must match the particle count")
            if np.any(star <= 0) or not np.all(np.isfinite(star)):
                raise ValueError("rho_star must be positive and finite")
            object.__setattr__(self, "rho_star", star)
        # masses or a center of mass that overflow leave packed non-finite, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(m))
            cum = _readonly(np.cumsum(m))
            try:  # correctly rounded, so no BLAS kernel changes the bits
                center = math.fsum(m * pos) / total
            except (OverflowError, ValueError):  # an overflowing sum or inf - inf
                center = math.inf
            packed = _readonly((center - total / 2) + (cum - m) + m / 2)
            gaps = _readonly(np.diff(packed))
        if not np.all(np.isfinite(packed)) or np.any(gaps <= position_tol(packed)):
            raise ValueError("packed map is not finite or does not increase past position_tol")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "total_mass", total)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "packed_gaps", gaps)
        object.__setattr__(self, "cum_masses", cum)
        object.__setattr__(self, "gap_tol_cap", 0.5 * float(gaps.min(initial=np.inf)))

    @property
    def n(self) -> int:
        return self.positions.size


class BlockPartition:
    """Disjoint, sorted index ranges [lo, hi] (inclusive, hi > lo) of the
    particles 0..n-1.

    Each range is a congested zone: a maximal group of particles pooled
    by the cone projection.  A partition is built as
    ``BlockPartition(lo, hi, n)`` from the first and last particle index of
    each block, kept as two read-only int arrays, so that per-block work
    is a numpy operation rather than a Python loop, with the particle
    count ``n``.  It makes its read-only ``labels`` (block id per
    particle, -1 outside all blocks) and ``interior_cells`` (over the n-1
    gaps: True where the gap lies inside one block) once; the partition
    that ``project_monotone`` returns takes them from the fit, which
    already knows them, and a ``grown`` one makes them when first read.
    """

    __slots__ = ("lo", "hi", "n", "labels", "interior_cells")

    def __init__(self, lo, hi, n: int):
        lo = np.array(lo, dtype=np.intp)
        hi = np.array(hi, dtype=np.intp)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("block bounds must be equal-length 1D vectors")
        short = np.flatnonzero(hi <= lo)
        if short.size:
            k = short[0]
            raise ValueError(f"block [{lo[k]}, {hi[k]}] shorter than 2 particles")
        if np.any(lo[1:] <= hi[:-1]):
            raise ValueError("blocks overlap or are out of order")
        if np.any(lo < 0) or np.any(hi >= n):
            raise ValueError(f"blocks outside the particles [0, {n})")
        self._set(lo, hi, *self._runs(lo, hi, n))

    @staticmethod
    def _runs(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The runs of the labels of bounds lo, hi: runs of gaps (-1)
        alternate with blocks (their id), cut at 0, lo[0], hi[0] + 1,
        lo[1], ..., n; their ids and lengths."""
        cuts = np.stack([lo, hi + 1], axis=-1).ravel()
        ids = np.full(2 * lo.size + 1, -1, dtype=np.intp)
        ids[1::2] = np.arange(lo.size)
        return ids, np.diff(cuts, prepend=0, append=n)

    @classmethod
    def _of_groups(cls, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray,
                   lengths: np.ndarray) -> BlockPartition:
        """The partition with bounds lo, hi of a fit's groups, which are
        ordered and disjoint, so unchecked; ``ids`` holds each group's
        block id (-1 for a single particle) and ``lengths`` its length."""
        return object.__new__(cls)._set(lo, hi, ids, lengths)

    def _set(self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray,
             lengths: np.ndarray) -> BlockPartition:
        """Freeze the bounds with the labels ids[k] repeated lengths[k]
        times and the interior cells of those labels."""
        labels = ids.repeat(lengths)
        return self._freeze(lo, hi, labels.size, labels=labels,
                            interior_cells=(labels[:-1] == labels[1:]) & (labels[1:] >= 0))

    def _freeze(self, lo: np.ndarray, hi: np.ndarray, n: int,
                **masks: np.ndarray) -> BlockPartition:
        for name, a in (("lo", lo), ("hi", hi), *masks.items()):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n", n)
        return self

    def grown(self, b: int, lo: int, hi: int) -> BlockPartition:
        """This partition with block b grown to [lo, hi] over particles in
        no block.  Only the bounds are copied: its labels and interior
        cells are made from them when first read."""
        bounds = self.lo.copy(), self.hi.copy()
        bounds[0][b], bounds[1][b] = lo, hi
        return object.__new__(BlockPartition)._freeze(*bounds, self.n)

    def __getattr__(self, name):
        # called only for an attribute not set: a grown partition's masks
        if name not in ("labels", "interior_cells"):
            raise AttributeError(name)
        self._set(self.lo, self.hi, *self._runs(self.lo, self.hi, self.n))
        return getattr(self, name)

    def __setattr__(self, name, value):
        raise AttributeError("BlockPartition is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockPartition):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"BlockPartition({self.lo.tolist()}, {self.hi.tolist()}, {self.n})"

    def __len__(self) -> int:
        return self.lo.size

    def sums(self, a: np.ndarray) -> np.ndarray:
        """Sum of the per-particle values a over each block."""
        if not len(self):
            return np.zeros(0)
        # block starts interleaved with the ends of all but the last block;
        # cutting a after the last block ends that block's segment
        edges = np.empty(2 * self.lo.size - 1, dtype=np.intp)
        edges[0::2] = self.lo
        edges[1::2] = self.hi[:-1] + 1
        return np.add.reduceat(a[: self.hi[-1] + 1], edges)[::2]


def build_particles(density: PiecewiseDensity, n: int) -> ParticleSystem:
    """Discretize a density of heights at most 1, the maximal density,
    into n equal-mass particles at the mass quantile midpoints:
    position[i] = F^{-1}((i + 1/2) m) with m = M/n.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    if np.any(density.heights > 1.0):
        raise ValueError("a density height exceeds the maximal density 1")
    m = density.total_mass / n
    try:
        masses = np.full(n, m)
        targets = (np.arange(n) + 0.5) * m
    except (MemoryError, ValueError) as exc:  # too large to allocate, or past numpy's maximum size
        raise ValueError(f"n = {n:.3g} particles do not fit in memory") from exc
    return ParticleSystem(density.mass_quantiles(targets), masses)


def _validate_projection_args(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.ndim != 1 or z.shape != w.shape or z.size < 1:
        raise ValueError("z and w must be equal-length 1D vectors, n >= 1")
    # a NaN makes the reduction NaN, which fails every comparison
    if not -np.inf < z.min() <= z.max() < np.inf:
        raise ValueError("non-finite entries in z")
    if not 0 < w.min() <= w.max() < np.inf:
        raise ValueError("weights must be finite and strictly positive")
    return z, w


# A chain-pooling round rescans every group, the local scan only the
# violations and their neighbours: at n = 4000 a round paid off above 64
# to 128 violating pairs.  A staircase (one fast particle overtaking a
# long train) has one violation and would need O(n) rounds.
_CHAIN_ROUNDS = 16
_LOCAL_POOLS = 64


def project_monotone(z: np.ndarray, w: np.ndarray, *,
                     cum_w: np.ndarray | None = None) -> tuple[np.ndarray, BlockPartition]:
    """Weighted L2 projection onto the cone of nondecreasing vectors.

    Pool-adjacent-violators on groups of particles: runs of exactly equal
    values start as groups (ties pool).  While more than
    ``_LOCAL_POOLS`` adjacent groups violate the order (for at most
    ``_CHAIN_ROUNDS`` rounds), every maximal chain of nonincreasing
    group means is pooled at once into its weighted mean; then
    ``_pool_local`` pools the remaining violations with their
    neighbours.  Pooling adjacent violators in any order reaches the same
    fit, the unique minimizer of sum w_i (z_i - x_i)^2 over nondecreasing
    x.  A group that never merges keeps its value bit for bit, and each
    pooled group is one repeated value, so pooled plateaus are exactly
    tied.

    Returns the fitted map and the pooled groups of length >= 2.

    A run passes its masses' ``cum_w`` = cumsum(w)
    (``ParticleSystem.cum_masses``) and vouches for its arguments: z
    finite and of w's length, w checked when the run was built; then
    neither is checked again.
    """
    if cum_w is None:
        z, w = _validate_projection_args(z, w)
        cum_w = np.cumsum(w)
    n = z.size

    # run-length compression of exact ties
    starts = np.concatenate(([0], (z[1:] != z[:-1]).nonzero()[0] + 1))
    tops = cum_w[np.concatenate((starts[1:], [n])) - 1]  # the weight up to each run's end
    weights = tops - np.concatenate(([0.0], tops[:-1]))
    means = z[starts]
    sums = weights * means

    joins = means[1:] <= means[:-1]  # group k+1 pools into group k
    for _ in range(_CHAIN_ROUNDS):
        if np.count_nonzero(joins) <= _LOCAL_POOLS:
            break
        heads = np.concatenate(([True], ~joins)).nonzero()[0]
        merged = np.concatenate((heads[1:], [means.size])) - heads > 1
        starts = starts[heads]
        weights = np.add.reduceat(weights, heads)
        sums = np.add.reduceat(sums, heads)
        means = means[heads]
        means[merged] = sums[merged] / weights[merged]
        joins = means[1:] <= means[:-1]
    starts, means = _pool_local(starts, weights, sums, means, joins.nonzero()[0])

    lengths = np.concatenate((starts[1:], [n])) - starts
    big = lengths >= 2
    lo = starts[big]
    ids = np.full(lengths.size, -1, dtype=np.intp)
    ids[big] = np.arange(lo.size)
    blocks = BlockPartition._of_groups(lo, lo + lengths[big] - 1, ids, lengths)
    return means.repeat(lengths), blocks


def _pool_local(
    starts: np.ndarray, weights: np.ndarray, sums: np.ndarray, means: np.ndarray,
    violations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators stack scan that visits only the violating
    pairs of groups (k, k + 1), ``violations`` in ascending order.

    Each violation starts a pool at group k + 1, which takes in groups on
    its right while they do not exceed its mean, and on its left (an
    untouched group or the pool before it) while they are not below it.
    Left of the scan the groups increase, so a group that no violation
    reaches is never touched.  Returns the starts and means of the pooled
    groups."""
    size = means.size
    pools: list[tuple[int, int, float, float, float]] = []  # (lo, hi, weight, sum, mean)
    for k in violations.tolist():
        if pools and pools[-1][1] > k:
            continue  # a right merge already took in this pair
        lo = hi = k + 1
        wc, sc, mc = weights.item(hi), sums.item(hi), means.item(hi)
        while True:
            while hi + 1 < size and means.item(hi + 1) <= mc:
                hi += 1
                wc += weights.item(hi)
                sc += sums.item(hi)
                mc = sc / wc
            if pools and pools[-1][1] == lo - 1:
                if pools[-1][4] < mc:
                    break
                lo, _, w_left, s_left, _ = pools.pop()
            elif lo > 0 and means.item(lo - 1) >= mc:
                lo -= 1
                w_left, s_left = weights.item(lo), sums.item(lo)
            else:
                break
            wc += w_left
            sc += s_left
            mc = sc / wc
        pools.append((lo, hi, wc, sc, mc))

    if not pools:
        return starts, means
    # a pool's first group takes its mean and the others go: the groups
    # kept are the runs from one pool's end to the next pool's first group
    kept, last = [], 0
    for lo, hi, *_, mean in pools:
        means[lo] = mean
        kept.append(slice(last, lo + 1))
        last = hi + 1
    kept.append(slice(last, size))
    return np.concatenate([starts[k] for k in kept]), np.concatenate([means[k] for k in kept])


def project_admissible(
    z: np.ndarray, xtil: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, BlockPartition]:
    """Weighted L2 projection onto the shifted cone {xtil + nondecreasing}.

    Membership encodes the density bound: output gaps are at least the
    gaps of ``xtil``.  The pooled groups of the inner isotonic fit are
    the congested zones (gap exactly equal to the packed gap).
    """
    xtil = np.asarray(xtil, dtype=float)
    if np.shape(z) != xtil.shape:
        raise ValueError("z and xtil must have equal length")
    inner, blocks = project_monotone(z - xtil, w)
    return xtil + inner, blocks


_ORACLE_MAX_N = 12


def oracle_qp_projection(z: np.ndarray, xtil: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact constrained minimizer by exhaustive active-set enumeration.

    Solves min sum w_i (x_i - z_i)^2 subject to the n-1 gap constraints
    x_{i+1} - x_i >= g_i (g = gaps of xtil) by trying every subset of
    active constraints, solving the KKT system for each, and keeping the
    best candidate that is primal and dual feasible.  Exponential in n;
    intended only as a test oracle.
    """
    z, w = _validate_projection_args(z, w)
    n = z.size
    if n > _ORACLE_MAX_N:
        raise OracleLimitError(f"oracle limit: n={n} > {_ORACLE_MAX_N}")
    xtil = np.asarray(xtil, dtype=float)
    g = np.diff(xtil)
    if n == 1:
        return z.copy()

    scale = max(1.0, float(np.max(np.abs(z))), float(np.max(np.abs(xtil))))
    feas_tol = 1e-9 * scale
    dual_tol = 1e-9 * scale
    twow = 2.0 * w
    best_x = None
    best_obj = np.inf
    n_con = n - 1
    for mask in range(1 << n_con):
        active = [i for i in range(n_con) if mask >> i & 1]
        k = len(active)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = np.diag(twow)
        rhs = np.concatenate([twow * z, np.empty(k)])
        for row, i in enumerate(active):
            # constraint as equality: x_i - x_{i+1} = -g_i
            kkt[n + row, i] = 1.0
            kkt[n + row, i + 1] = -1.0
            kkt[i, n + row] = 1.0
            kkt[i + 1, n + row] = -1.0
            rhs[n + row] = -g[i]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x, lam = sol[:n], sol[n:]
        if np.any(np.diff(x) < g - feas_tol):
            continue
        if np.any(lam < -dual_tol):
            continue
        obj = float((w * (x - z) ** 2).sum())
        if obj < best_obj:
            best_obj = obj
            best_x = x
    if best_x is None:
        raise RuntimeError("active-set enumeration found no feasible KKT point")
    return best_x


def weighted_norm(v: np.ndarray, w: np.ndarray) -> float:
    """The mass-weighted L2 norm sqrt(sum w_i v_i^2), its sum correctly
    rounded so that no BLAS kernel changes the bits; inf past the float range."""
    v = np.asarray(v, dtype=float)
    try:
        with np.errstate(over="ignore"):  # a square past the float range is inf, as is the norm
            return math.sqrt(math.fsum(np.asarray(w, dtype=float) * (v * v)))
    except OverflowError:
        return math.inf
