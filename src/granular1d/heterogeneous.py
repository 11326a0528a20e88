"""Dynamics under a heterogeneous maximal density transported with the flow.

With an upper bound rho_star carried by the fluid, the ratio
r = rho / rho_star obeys the same continuity equation as a plain
density bounded by one, so the whole Lagrangian machinery applies to
the r-measure unchanged.  The maximal density itself is constant along
trajectories: each particle keeps its initial rho_star value forever,
and the physical density is recovered as r * rho_star on samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .density import PiecewiseDensity, Segment
from .dynamics import ForceField, SimState, StepperConfig, position_tol, run_simulation
from .eulerian import EulerianField, reconstruct
from .transport import MonotoneMap, ParticleSystem, build_particles, congested_transport


@dataclass(frozen=True)
class RatioSystem:
    """Particle carrier of the ratio measure r0(x) dx plus the maximal
    density sampled at the initial particle positions."""

    base: ParticleSystem
    rho_star0_at_particles: np.ndarray
    xtil: MonotoneMap

    def __post_init__(self):
        rs = np.asarray(self.rho_star0_at_particles, dtype=float)
        if rs.shape != self.base.positions.shape:
            raise ValueError("rho_star samples must match the particle count")
        if np.any(rs <= 0) or not np.all(np.isfinite(rs)):
            raise ValueError("rho_star must be positive and finite")
        slack = np.diff(self.base.positions) - self.xtil.gaps()
        if float(np.min(slack, initial=0.0)) < -position_tol(self.base.positions):
            raise ValueError("initial data violates the ratio bound r <= 1")
        rs = rs.copy()
        rs.setflags(write=False)  # carried along trajectories, never rewritten
        object.__setattr__(self, "rho_star0_at_particles", rs)


def build_ratio_system(
    rho0: PiecewiseDensity,
    rho_star0: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> RatioSystem:
    """Discretize the ratio measure (rho0/rho_star0)(x) dx by mass
    quantiles and sample rho_star0 at the particle positions."""
    ratio_segments = []
    for seg in rho0.segments:
        if isinstance(seg.profile, (int, float)):
            height = float(seg.profile)
            ratio_segments.append(
                Segment(seg.lo, seg.hi, lambda x, h=height: h / np.asarray(rho_star0(x), float))
            )
        else:
            fn = seg.profile
            ratio_segments.append(
                Segment(
                    seg.lo,
                    seg.hi,
                    lambda x, f=fn: np.asarray(f(x), float) / np.asarray(rho_star0(x), float),
                )
            )
        # the bound must hold pointwise on the support
        xs = np.linspace(seg.lo, seg.hi, 1025)
        dens = seg.profile if isinstance(seg.profile, (int, float)) else seg.profile(xs)
        star = np.asarray(rho_star0(xs), dtype=float)
        if np.any(np.asarray(dens, dtype=float) > star * (1 + 1e-12)):
            raise ValueError("density exceeds the maximal density rho_star0")
    ratio_density = PiecewiseDensity(ratio_segments)
    base = build_particles(ratio_density, n)
    return RatioSystem(
        base=base,
        rho_star0_at_particles=np.asarray(rho_star0(base.positions), dtype=float),
        xtil=congested_transport(base),
    )


def run_heterogeneous(
    rs: RatioSystem,
    u0: np.ndarray,
    force: ForceField,
    cfg: StepperConfig,
) -> Iterator[SimState]:
    """March the ratio system; rho_star rides along unchanged.

    Particles accelerate by f(t, Y_i) directly, matching the
    free-velocity formula of the transported-constraint dynamics.
    """
    yield from run_simulation(rs.base, u0, force, cfg, xtil=rs.xtil)


def reconstruct_heterogeneous(state: SimState, rs: RatioSystem) -> EulerianField:
    """Eulerian samples with the physical density r * rho_star."""
    return reconstruct(state, rs.base, rs.xtil, rho_star_at_particles=rs.rho_star0_at_particles)


def cosine_bump_rho_star(base: float = 1.0, amplitude: float = 0.2) -> Callable[[np.ndarray], np.ndarray]:
    """Maximal density base + amplitude * (1 - cos(2 pi (x - 1/2)))."""

    def profile(x):
        return base + amplitude * (1.0 - np.cos(2 * np.pi * (np.asarray(x, float) - 0.5)))

    return profile
