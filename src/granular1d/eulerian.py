"""Eulerian fields reconstructed from the Lagrangian state.

The density on the cell between consecutive particles is the ratio of
the packed gap to the actual gap, which keeps the constraint exact on
congested cells.  Two half-cells are appended at the ends so that the
cell quadrature carries the full mass.  The adhesion samples live only
on cells interior to a congested block; elsewhere the continuum value
is identically zero and is emitted as such, which makes the exclusion
relation hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimState, position_tol
from .errors import InvariantViolation
from .transport import ParticleSystem, weighted_norm


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


@dataclass(frozen=True)
class ExclusionReport:
    max_residual: float
    offenders: np.ndarray  # sample indices above tolerance


def reconstruct(state: SimState, ps: ParticleSystem) -> EulerianField:
    """Midpoint-sampled density, velocity and adhesion fields.

    Cell (i, i+1) is sampled at the particle midpoint with density equal
    to the packed-over-actual gap ratio.  With a heterogeneous maximal
    density ``ps.rho_star``, the transported ratio is multiplied by the
    carried maximal density, and rho_star is emitted per sample.  A gap
    below its packed value by more than ``position_tol`` raises
    ``density_bound``; smaller rounding excesses are clipped to the bound.
    """
    x = state.x
    m = ps.masses
    n = ps.n
    if n == 1:
        ratio = np.array([1.0])
        widths = np.array([float(m[0])])
        xs = np.array([float(x[0])])
        us = np.array([float(state.u[0])])
        gs = np.array([0.0])
        star = None if ps.rho_star is None else np.array([ps.rho_star[0]])
        rho = ratio if star is None else ratio * star
        return EulerianField(xs, rho, us, gs, widths, star)

    gaps = np.diff(x)
    packed = ps.packed.gaps()
    if np.any(gaps <= 0):
        raise InvariantViolation("invalid_transport", float(-np.min(gaps)),
                                 "invalid transport: coincident particle positions",
                                 t=state.t, step=state.step_index)
    deficit = float(np.max(packed - gaps))
    if deficit > position_tol(x):
        raise InvariantViolation("density_bound", deficit, t=state.t, step=state.step_index)
    ratio = np.minimum(packed / gaps, 1.0)

    xm = (x[:-1] + x[1:]) / 2
    wsum = m[:-1] + m[1:]
    um = (m[:-1] * state.u[:-1] + m[1:] * state.u[1:]) / wsum
    inside = state.blocks.interior_cells(n)
    gm = np.where(inside, (state.gamma[:-1] + state.gamma[1:]) / 2, 0.0)

    # boundary half-cells so the quadrature carries the full mass
    labels = state.blocks.labels(n)
    r_left = ratio[0]
    r_right = ratio[-1]
    w_left = (m[0] / 2) / r_left
    w_right = (m[-1] / 2) / r_right
    g_left = state.gamma[0] / 2 if labels[0] >= 0 else 0.0
    g_right = state.gamma[-1] / 2 if labels[-1] >= 0 else 0.0

    xs = np.concatenate([[x[0] - w_left / 2], xm, [x[-1] + w_right / 2]])
    rat = np.concatenate([[r_left], ratio, [r_right]])
    widths = np.concatenate([[w_left], gaps, [w_right]])
    us = np.concatenate([[state.u[0]], um, [state.u[-1]]])
    gs = np.concatenate([[g_left], gm, [g_right]])

    if ps.rho_star is None:
        return EulerianField(xs, rat, us, gs, widths, None)
    rs = ps.rho_star
    rs_mid = (rs[:-1] + rs[1:]) / 2
    star = np.concatenate([[rs[0]], rs_mid, [rs[-1]]])
    return EulerianField(xs, rat * star, us, gs, widths, star)


def check_exclusion(field: EulerianField, tol: float) -> ExclusionReport:
    """Largest violation of the complementarity (bound - rho) * gamma = 0."""
    bound = np.ones_like(field.rho) if field.rho_star is None else field.rho_star
    residual = np.abs((bound - field.rho) * field.gamma)
    return ExclusionReport(
        max_residual=float(np.max(residual, initial=0.0)),
        offenders=np.flatnonzero(residual > tol),
    )


def wasserstein2(x1: np.ndarray, x2: np.ndarray, masses: np.ndarray) -> float:
    """Quadratic transport distance between the two pushed-forward
    measures: the mass-weighted L2 distance of their monotone maps."""
    if np.shape(x1) != np.shape(x2) or np.shape(x1) != np.shape(masses):
        raise ValueError("maps and masses must have equal length")
    return weighted_norm(np.subtract(x1, x2), masses)
