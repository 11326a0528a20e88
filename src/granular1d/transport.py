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

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .density import PiecewiseDensity
from .errors import OracleLimitError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParticleSystem:
    """Sorted particle positions with positive masses.

    ``total_mass`` is always the exact float sum of ``masses``.
    """

    positions: np.ndarray
    masses: np.ndarray
    total_mass: float = 0.0

    def __post_init__(self):
        pos = _readonly(self.positions)
        m = _readonly(self.masses)
        if pos.ndim != 1 or pos.shape != m.shape or pos.size < 1:
            raise ValueError("positions and masses must be equal-length 1D vectors, N >= 1")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(m)):
            raise ValueError("non-finite particle data")
        if np.any(np.diff(pos) < 0):
            raise ValueError("positions must be nondecreasing")
        if np.any(m <= 0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "total_mass", float(np.sum(m)))

    @property
    def n(self) -> int:
        return self.positions.size

    def center_of_mass(self) -> float:
        return float(np.dot(self.masses, self.positions)) / self.total_mass


@dataclass(frozen=True)
class MonotoneMap:
    """A nondecreasing vector over the particle index set."""

    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a 1D vector, N >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite values")
        if np.any(np.diff(v) < 0):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def gaps(self) -> np.ndarray:
        return np.diff(self.values)


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint, sorted index ranges [lo, hi] (inclusive, hi > lo).

    Each range is a congested zone: a maximal group of particles pooled
    by the cone projection.
    """

    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev_hi = -1
        for lo, hi in self.blocks:
            if hi <= lo:
                raise ValueError(f"block [{lo}, {hi}] shorter than 2 particles")
            if lo <= prev_hi:
                raise ValueError("blocks overlap or are out of order")
            prev_hi = hi
        object.__setattr__(self, "blocks", tuple((int(lo), int(hi)) for lo, hi in self.blocks))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    def slices(self) -> list[slice]:
        return [slice(lo, hi + 1) for lo, hi in self.blocks]

    def labels(self, n: int) -> np.ndarray:
        """Block id per particle, -1 outside all blocks."""
        lab = np.full(n, -1, dtype=int)
        for k, (lo, hi) in enumerate(self.blocks):
            lab[lo : hi + 1] = k
        return lab

    def interior_cells(self, n: int) -> np.ndarray:
        """Boolean over the n-1 particle gaps: True where the gap lies
        inside a single block."""
        inside = np.zeros(n - 1, dtype=bool)
        for lo, hi in self.blocks:
            inside[lo:hi] = True
        return inside

    def spans(self, i: int, j: int) -> bool:
        """Whether some block contains both particle i and particle j."""
        return any(lo <= i and j <= hi for lo, hi in self.blocks)


def build_particles(density: PiecewiseDensity, n: int) -> ParticleSystem:
    """Discretize a density into n equal-mass particles at the mass
    quantile midpoints: position[i] = F^{-1}((i + 1/2) m) with m = M/n.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    m = density.total_mass / n
    targets = (np.arange(n) + 0.5) * m
    positions = density.mass_quantiles(targets)
    return ParticleSystem(positions, np.full(n, m))


def congested_transport(ps: ParticleSystem) -> MonotoneMap:
    """Rearrangement packing the particles at maximal density.

    The packed configuration is the unit-density interval of length
    ``total_mass`` centered at the center of mass; particle i sits at
    the midpoint of its own mass cell, so consecutive gaps equal
    (m_i + m_{i+1})/2 and the map is strictly increasing.
    """
    m = ps.masses
    c = ps.center_of_mass()
    cum_before = np.cumsum(m) - m
    return MonotoneMap((c - ps.total_mass / 2) + cum_before + m / 2)


def _validate_projection_args(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.ndim != 1 or z.shape != w.shape:
        raise ValueError("z and w must be equal-length 1D vectors")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite entries in z")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and strictly positive")
    return z, w


def project_monotone(z: np.ndarray, w: np.ndarray) -> tuple[MonotoneMap, BlockPartition]:
    """Weighted L2 projection onto the cone of nondecreasing vectors.

    Pool-adjacent-violators: scan left to right keeping a stack of
    pooled groups; whenever the newest group mean does not exceed the
    previous one, merge them (weighted mean) and keep back-merging.
    The result is the unique minimizer of sum w_i (z_i - x_i)^2 over
    nondecreasing x; each pooled group's value is the weighted mean of
    z over the group.  Ties pool (adjacent equal values join a group),
    so runs of equal values are compressed vectorized before the scan.

    Returns the fitted map and the pooled groups of length >= 2.
    """
    z, w = _validate_projection_args(z, w)
    n = z.size
    if n == 1:
        return MonotoneMap(z), BlockPartition()

    # run-length compression of exact ties
    cut = np.flatnonzero(np.diff(z) != 0) + 1
    run_starts = np.concatenate([[0], cut]).astype(int)
    run_ends = np.concatenate([cut, [n]]).astype(int)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    run_w = cw[run_ends] - cw[run_starts]
    run_v = z[run_starts]

    starts: list[int] = []
    weights: list[float] = []
    means: list[float] = []
    for s, rw, rv in zip(run_starts, run_w, run_v):
        starts.append(int(s))
        weights.append(float(rw))
        means.append(float(rv))
        while len(starts) > 1 and means[-2] >= means[-1]:
            w_top = weights.pop()
            m_top = means.pop()
            starts.pop()
            w_new = weights[-1] + w_top
            means[-1] = (weights[-1] * means[-1] + w_top * m_top) / w_new
            weights[-1] = w_new

    bounds = np.append(np.asarray(starts, dtype=int), n)
    lengths = np.diff(bounds)
    fitted = np.repeat(np.asarray(means), lengths)
    blocks = BlockPartition(
        tuple(
            (int(bounds[k]), int(bounds[k + 1] - 1))
            for k in range(len(lengths))
            if lengths[k] >= 2
        )
    )
    return MonotoneMap(fitted), blocks


def project_admissible(
    z: np.ndarray, xtil: MonotoneMap, w: np.ndarray
) -> tuple[MonotoneMap, BlockPartition]:
    """Weighted L2 projection onto the shifted cone {xtil + nondecreasing}.

    Membership encodes the density bound: output gaps are at least the
    gaps of ``xtil``.  The pooled groups of the inner isotonic fit are
    the congested zones (gap exactly equal to the packed gap).
    """
    z, w = _validate_projection_args(z, w)
    if z.shape != xtil.values.shape:
        raise ValueError("z and xtil must have equal length")
    inner, blocks = project_monotone(z - xtil.values, w)
    return MonotoneMap(xtil.values + inner.values), blocks


_ORACLE_MAX_N = 12


def oracle_qp_projection(z: np.ndarray, xtil: MonotoneMap, w: np.ndarray) -> np.ndarray:
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
    g = xtil.gaps()
    if n == 1:
        return z.copy()

    scale = max(1.0, float(np.max(np.abs(z))), float(np.max(np.abs(xtil.values))))
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
        obj = float(np.dot(w, (x - z) ** 2))
        if obj < best_obj:
            best_obj = obj
            best_x = x
    if best_x is None:
        raise RuntimeError("active-set enumeration found no feasible KKT point")
    return best_x


def weighted_norm(v: np.ndarray, w: np.ndarray) -> float:
    """The mass-weighted L2 norm sqrt(sum w_i v_i^2)."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.dot(np.asarray(w, dtype=float), v * v)))
