"""Closed-form reference solution for the symmetric two-block scenario.

Two unit-density blocks are pushed toward each other, collide, stay
glued while the adhesion potential is negative, and separate once it
relaxes back to zero.  The motion decomposes into four phases with
explicit formulas per particle, branched on the sign of the initial
position:

  1. free flight toward the origin until contact at t1,
  2. glued with growing adhesion while the force still compresses,
  3. force reversed, still glued, adhesion relaxing linearly to zero,
  4. free separation from t2 = 2 t_star on.

At the contact instant the velocity and the adhesion potential jump
(the collision absorbs momentum); the snapshot at exactly t1 uses the
post-collision branch.  In phase 3 the adhesion is the phase-2 profile
at t_star scaled by (t2 - t)/(t2 - t_star), which is what continuity at
t_star, vanishing at t2, and the cumulative-deficit definition dictate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import PiecewiseDensity, uniform_blocks
from .dynamics import ForceField, SimState, piecewise_constant_force
from .transport import BlockPartition, ParticleSystem, build_particles, weighted_norm


@dataclass(frozen=True)
class TwoBlockParams:
    """Geometry and forcing of the two-block scenario.

    Blocks [a1, b1] and [a2, b2], exact mirror images about the origin
    (so of equal width), unit density; force magnitude alpha with reversal at
    t_star.  Contact happens at t1 = sqrt((a2 - b1)/alpha), separation
    at t2 = 2 t_star.
    """

    a1: float = -1.1024
    b1: float = -0.1024
    a2: float = 0.1024
    b2: float = 1.1024
    alpha: float = 0.5
    t_star: float = 1.0

    def __post_init__(self):
        if self.a1 != -self.b2 or self.b1 != -self.a2:
            raise ValueError("blocks must be exact mirror images about 0 (a1 == -b2, b1 == -a2)")
        if not self.a1 < self.b1 < self.a2:
            raise ValueError("blocks must be nonempty and separated (a1 < b1 < a2)")
        if self.alpha <= 0 or self.t_star <= 0:
            raise ValueError("alpha and t_star must be positive")
        if not self.t1 < self.t_star:
            raise ValueError("contact must happen before the force reversal (t1 < t_star)")

    @property
    def width(self) -> float:
        return self.b1 - self.a1

    @property
    def t1(self) -> float:
        return float(np.sqrt((self.a2 - self.b1) / self.alpha))

    @property
    def t2(self) -> float:
        return 2.0 * self.t_star

    def density(self) -> PiecewiseDensity:
        return uniform_blocks([(self.a1, self.b1), (self.a2, self.b2)])

    def force(self) -> ForceField:
        a = self.alpha
        return piecewise_constant_force([0.0], [[a, -a], [-a, a]], [self.t_star])

    def build(self, n: int) -> ParticleSystem:
        return build_particles(self.density(), n)


@dataclass(frozen=True)
class ExactSnapshot:
    """Reference (x, u, gamma) per particle at one query time."""

    x_ex: np.ndarray
    u_ex: np.ndarray
    gamma_ex: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.x_ex) < 0):
            raise ValueError("exact positions must be nondecreasing")
        gscale = max(1.0, float(np.max(np.abs(self.gamma_ex), initial=0.0)))
        if float(np.max(self.gamma_ex, initial=0.0)) > 1e-12 * gscale:
            raise ValueError("exact adhesion potential must be nonpositive")


def two_block_exact(params: TwoBlockParams, ps: ParticleSystem, t: float) -> ExactSnapshot:
    """Evaluate the four-phase formulas at time t for every particle."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    x0 = ps.positions
    left = x0 < 0
    sgn = np.where(left, 1.0, -1.0)  # direction of compression
    alpha, t1, t2, w = params.alpha, params.t1, params.t2, params.width
    x_t1 = x0 + sgn * alpha * t1**2 / 2

    if t < t1:
        x = x0 + sgn * alpha * t**2 / 2
        u = sgn * alpha * t
        gamma = np.zeros_like(x0)
    elif t <= t2:
        x = x_t1
        u = np.zeros_like(x0)
        amp = alpha * t if t <= params.t_star else alpha * (t2 - t)
        gamma = np.where(left, -amp * (x + w), amp * (x - w))
    else:
        tau = t - t2
        x = x_t1 - sgn * alpha * tau**2 / 2
        u = -sgn * alpha * tau
        gamma = np.zeros_like(x0)
    return ExactSnapshot(x, u, gamma)


def error_norms(sim: SimState, exact: ExactSnapshot, masses: np.ndarray) -> dict[str, float]:
    """L2 (mass-weighted) errors of x and u, sup error of gamma; the summary's keys."""
    if sim.n != exact.x_ex.size:
        raise ValueError("state and snapshot index sets differ")
    return {
        "x": weighted_norm(sim.x - exact.x_ex, masses),
        "u": weighted_norm(sim.u - exact.u_ex, masses),
        "gamma_sup": float(np.max(np.abs(sim.gamma - exact.gamma_ex))),
    }


class ContactTracker:
    """Records when a block spanning a given particle interface exists.

    Feed the partitions of a run in time order: every state, or every
    stretch of ``run_windows`` at its first time (the states of a stretch
    share one partition), which gives the same result.  Contact/separation are
    reported as the half-open step interval [first merged time, first
    time merged again absent)."""

    def __init__(self, interface: tuple[int, int]):
        self.interface = interface
        self.contact_time: float | None = None
        self.separation_time: float | None = None
        self._was_merged = False

    def observe(self, t: float, blocks: BlockPartition) -> bool:
        i, j = self.interface
        merged = blocks.spans(i, j)
        if merged and self.contact_time is None:
            self.contact_time = t
        if self._was_merged and not merged and self.separation_time is None:
            self.separation_time = t
        self._was_merged = merged
        return merged
