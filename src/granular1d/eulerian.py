"""Eulerian fields reconstructed from the Lagrangian state.

The density on the cell between consecutive particles is the ratio of
the packed gap to the actual gap.  Two half-cells are appended at the
ends so that the cell quadrature carries the full mass.  A cell interior
to a congested block reads the bound as its density and the solver's
adhesion at its mass edge; elsewhere, the half-cells included, the
continuum adhesion is identically zero and is emitted as such, which
makes the exclusion relation hold exactly, by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimState, check_state
from .transport import ParticleSystem


@dataclass(frozen=True)
class EulerianField:
    """Sampled (x, rho, u, gamma, rho_star) records on particle cells.

    ``width`` is the quadrature weight of each sample; sum(rho * width)
    equals the transported mass.  ``rho_star`` is None for runs with the
    homogeneous constraint rho <= 1.
    """

    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    gamma: np.ndarray
    width: np.ndarray
    rho_star: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.x.size

    def total_mass(self) -> float:
        return float((self.rho * self.width).sum())


def reconstruct(state: SimState, ps: ParticleSystem) -> EulerianField:
    """Midpoint-sampled density, velocity and adhesion fields.

    Cell (i, i+1) is sampled at the particle midpoint with density equal
    to the packed-over-actual gap ratio; inside a block, the ratio is 1
    and the adhesion ``state.gamma[i]``, the potential at the mass edge
    between the two particles.  The half-cells, at the ends of the mass
    interval, take their neighbour's ratio and carry adhesion 0.
    With a heterogeneous maximal density ``ps.rho_star``, the ratio is
    multiplied by the carried maximal density, emitted per sample.  A
    state that ``check_state`` refuses raises its InvariantViolation; gaps
    below their packed value within its tolerance are clipped.
    """
    state = check_state(state, ps)
    x = state.x
    m = ps.masses
    gaps = np.diff(x)
    inside = state.blocks.interior_cells
    ratio = np.where(inside, 1.0, np.minimum(ps.packed_gaps / gaps, 1.0))

    xm = (x[:-1] + x[1:]) / 2
    wsum = m[:-1] + m[1:]
    um = (m[:-1] * state.u[:-1] + m[1:] * state.u[1:]) / wsum
    gm = np.where(inside, state.gamma[:-1], 0.0)

    # boundary half-cells so the quadrature carries the full mass
    r_left, r_right = (ratio[0], ratio[-1]) if ps.n > 1 else (1.0, 1.0)
    w_left = (m[0] / 2) / r_left
    w_right = (m[-1] / 2) / r_right

    xs = np.concatenate([[x[0] - w_left / 2], xm, [x[-1] + w_right / 2]])
    rat = np.concatenate([[r_left], ratio, [r_right]])
    widths = np.concatenate([[w_left], gaps, [w_right]])
    us = np.concatenate([[state.u[0]], um, [state.u[-1]]])
    gs = np.concatenate([[0.0], gm, [0.0]])

    if ps.rho_star is None:
        return EulerianField(xs, rat, us, gs, widths, None)
    rs = ps.rho_star
    rs_mid = (rs[:-1] + rs[1:]) / 2
    star = np.concatenate([[rs[0]], rs_mid, [rs[-1]]])
    return EulerianField(xs, rat * star, us, gs, widths, star)


def check_exclusion(field: EulerianField) -> float:
    """Largest violation of the complementarity (bound - rho) * gamma = 0."""
    bound = np.ones_like(field.rho) if field.rho_star is None else field.rho_star
    return float(np.max(np.abs((bound - field.rho) * field.gamma), initial=0.0))
