"""Dynamics under a heterogeneous maximal density transported with the flow.

With an upper bound rho_star carried by the fluid, the ratio
r = rho / rho_star obeys the same continuity equation as a plain
density bounded by one, so the whole Lagrangian machinery applies to
the r-measure unchanged: a ratio system is a plain ``ParticleSystem``
that also carries ``rho_star``, and runs through ``run_simulation``.
The maximal density itself is constant along trajectories: each
particle keeps its initial rho_star value forever, and ``reconstruct``
recovers the physical density as r * rho_star on samples.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .density import PiecewiseDensity, Segment
from .dynamics import position_tol
from .transport import ParticleSystem, build_particles


def build_ratio_system(
    rho0: PiecewiseDensity,
    rho_star0: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> ParticleSystem:
    """Discretize the ratio measure (rho0/rho_star0)(x) dx by mass
    quantiles and carry rho_star0 sampled at the particle positions."""
    ratio_segments = []
    for seg in rho0.segments:
        dens = seg.profile
        if isinstance(dens, (int, float)):
            dens = lambda x, h=float(dens): np.full(np.shape(x), h)
        ratio_segments.append(
            Segment(
                seg.lo,
                seg.hi,
                lambda x, f=dens: np.asarray(f(x), float) / np.asarray(rho_star0(x), float),
            )
        )
        # the bound must hold pointwise on the support
        xs = np.linspace(seg.lo, seg.hi, 1025)
        if np.any(np.asarray(dens(xs), float) > np.asarray(rho_star0(xs), float) * (1 + 1e-12)):
            raise ValueError("density exceeds the maximal density rho_star0")
    base = build_particles(PiecewiseDensity(ratio_segments), n)
    ps = ParticleSystem(base.positions, base.masses, rho_star0(base.positions))
    slack = np.diff(ps.positions) - ps.packed.gaps()
    if float(np.min(slack, initial=0.0)) < -position_tol(ps.positions):
        raise ValueError("initial data violates the ratio bound r <= 1")
    return ps


def cosine_bump_rho_star(base: float = 1.0, amplitude: float = 0.2) -> Callable[[np.ndarray], np.ndarray]:
    """Maximal density base + amplitude * (1 - cos(2 pi (x - 1/2)))."""

    def profile(x):
        return base + amplitude * (1.0 - np.cos(2 * np.pi * (np.asarray(x, float) - 0.5)))

    return profile
