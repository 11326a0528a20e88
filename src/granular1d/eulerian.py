"""Eulerian fields reconstructed from the Lagrangian state.

The density on the cell between consecutive particles is the ratio of
the packed gap to the actual gap, which keeps the constraint exact on
congested cells.  Two half-cells are appended at the ends so that the
cell quadrature carries the full mass.  Cells interior to a congested
block carry the solver's adhesion at their mass edge; elsewhere, the
half-cells included, the continuum value is identically zero and is
emitted as such, which makes the exclusion relation hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimState
from .errors import InvariantViolation
from .transport import ParticleSystem, position_tol, weighted_norm


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
        return float(np.dot(self.rho, self.width))


def reconstruct(state: SimState, ps: ParticleSystem) -> EulerianField:
    """Midpoint-sampled density, velocity and adhesion fields.

    Cell (i, i+1) is sampled at the particle midpoint with density equal
    to the packed-over-actual gap ratio and, inside a block, adhesion
    ``state.gamma[i]``, the potential at the mass edge between the two
    particles; the half-cells, at the ends of the mass interval, carry 0.
    With a heterogeneous maximal density ``ps.rho_star``, the ratio is
    multiplied by the carried maximal density, emitted per sample.  A gap
    below its packed value by more than ``check_state``'s gap tolerance,
    so every closed or crossed gap, raises ``density_bound`` with the
    first failing gap as ``index``; smaller excesses are clipped.
    """
    x = state.x
    m = ps.masses
    gaps = np.diff(x)
    packed = ps.packed_gaps
    over = packed - gaps
    deficit = float(np.max(over, initial=-np.inf))
    tol = min(position_tol(x), ps.gap_tol_cap)
    if deficit > tol:
        raise InvariantViolation("density_bound", deficit, t=state.t, step=state.step_index,
                                 index=int(np.argmax(over > tol)))
    ratio = np.minimum(packed / gaps, 1.0)

    xm = (x[:-1] + x[1:]) / 2
    wsum = m[:-1] + m[1:]
    um = (m[:-1] * state.u[:-1] + m[1:] * state.u[1:]) / wsum
    gm = np.where(state.blocks.interior_cells(ps.n), state.gamma[:-1], 0.0)

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


def wasserstein2(x1: np.ndarray, x2: np.ndarray, masses: np.ndarray) -> float:
    """Quadratic transport distance between the two pushed-forward
    measures: the mass-weighted L2 distance of their monotone maps."""
    if np.shape(x1) != np.shape(x2) or np.shape(x1) != np.shape(masses):
        raise ValueError("maps and masses must have equal length")
    return weighted_norm(np.subtract(x1, x2), masses)
