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

from .density import PiecewiseDensity
from .transport import ParticleSystem, build_particles


def build_ratio_system(
    ratio: PiecewiseDensity,
    rho_star0: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> ParticleSystem:
    """Discretize the ratio measure r0 = rho0 / rho_star0, given as
    constant pieces at most one, by mass quantiles and carry rho_star0
    sampled at the particle positions."""
    base = build_particles(ratio, n)
    return ParticleSystem(base.positions, base.masses, rho_star0(base.positions))


def cosine_bump_rho_star(base: float = 1.0, amplitude: float = 0.2) -> Callable[[np.ndarray], np.ndarray]:
    """Maximal density base + amplitude * (1 - cos(2 pi (x - 1/2)))."""

    def profile(x):
        return base + amplitude * (1.0 - np.cos(2 * np.pi * (np.asarray(x, float) - 0.5)))

    return profile
