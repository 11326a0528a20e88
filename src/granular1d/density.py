"""Piecewise density specifications with exact mass bookkeeping.

A density here is a nonnegative, integrable function given piecewise on
disjoint intervals.  Constant pieces are handled exactly; general pieces
fall back to a dense trapezoidal cumulative table.  The only consumers
are the particle builders, which need the total mass and the inverse of
the cumulative mass function (mass quantiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyMeasureError

# resolution of the cumulative table for non-constant pieces
_TABLE_POINTS = 4097


@dataclass(frozen=True)
class Segment:
    """One piece of a piecewise density on [lo, hi].

    ``profile`` is either a constant value or a callable x -> density.
    """

    lo: float
    hi: float
    profile: float | Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise ValueError(f"invalid segment bounds [{self.lo}, {self.hi}]")
        if isinstance(self.profile, (int, float)):
            if not np.isfinite(self.profile) or self.profile < 0:
                raise ValueError(f"invalid constant density {self.profile}")


class PiecewiseDensity:
    """Nonnegative piecewise density with mass quantile evaluation.

    Segments must be disjoint and are sorted on construction.  For a
    constant segment the cumulative mass is inverted in closed form; for
    a callable segment a trapezoidal cumulative table is built once and
    inverted by monotone interpolation.
    """

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise EmptyMeasureError("empty measure: no segments")
        segs = sorted(segments, key=lambda s: s.lo)
        for a, b in zip(segs, segs[1:]):
            if b.lo < a.hi:
                raise ValueError("segments overlap")
        self.segments = tuple(segs)
        self._tables = []  # per segment: (xs, cumulative mass from segment start)
        masses = []
        for seg in self.segments:
            if isinstance(seg.profile, (int, float)):
                self._tables.append(None)
                masses.append(float(seg.profile) * (seg.hi - seg.lo))
            else:
                xs = np.linspace(seg.lo, seg.hi, _TABLE_POINTS)
                vals = np.asarray(seg.profile(xs), dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise ValueError("density profile returned non-finite values")
                if np.any(vals < 0):
                    raise ValueError("density profile is negative")
                cum = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2 * np.diff(xs))])
                self._tables.append((xs, cum))
                masses.append(float(cum[-1]))
        self._seg_masses = np.asarray(masses)
        self._cum_masses = np.concatenate([[0.0], np.cumsum(self._seg_masses)])
        self.total_mass = float(self._cum_masses[-1])
        if self.total_mass <= 0:
            raise EmptyMeasureError("empty measure: zero total mass")

    def mass_quantiles(self, targets: np.ndarray) -> np.ndarray:
        """Invert the cumulative mass function at ``targets`` in (0, M)."""
        targets = np.asarray(targets, dtype=float)
        if np.any(targets <= 0) or np.any(targets >= self.total_mass):
            raise ValueError("quantile targets must lie strictly inside (0, total_mass)")
        out = np.empty_like(targets)
        # segment k with cum[k] < target <= cum[k + 1]: it exists and has positive mass
        idx = np.searchsorted(self._cum_masses, targets, side="left") - 1
        for k, seg in enumerate(self.segments):
            sel = idx == k
            if not np.any(sel):
                continue
            local = targets[sel] - self._cum_masses[k]
            if self._tables[k] is None:
                out[sel] = seg.lo + local / float(seg.profile)
            else:
                xs, cum = self._tables[k]
                out[sel] = np.interp(local, cum, xs)
        return out


def uniform_blocks(blocks: Sequence[tuple[float, float]], height: float = 1.0) -> PiecewiseDensity:
    """Density made of constant blocks [(lo, hi), ...] of common height."""
    return PiecewiseDensity([Segment(lo, hi, height) for lo, hi in blocks])
