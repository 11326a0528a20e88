"""Piecewise-constant density specifications with exact mass bookkeeping.

A density here is a nonnegative constant on each of a set of disjoint
intervals.  The only consumers are the particle builders, which need
the total mass and the inverse of the cumulative mass function (mass
quantiles), both in closed form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyMeasureError


@dataclass(frozen=True)
class Segment:
    """One constant piece of a density: ``height`` on [lo, hi]."""

    lo: float
    hi: float
    height: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise ValueError(f"invalid segment bounds [{self.lo}, {self.hi}]")
        if not isinstance(self.height, numbers.Real):
            raise TypeError(f"a segment height is a number, not {type(self.height).__name__}")
        if not np.isfinite(self.height) or self.height < 0:
            raise ValueError(f"invalid constant density {self.height}")


class PiecewiseDensity:
    """Nonnegative piecewise-constant density with mass quantile evaluation.

    Segments must be disjoint and are sorted on construction; the
    cumulative mass is inverted in closed form.
    """

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise EmptyMeasureError("empty measure: no segments")
        segs = sorted(segments, key=lambda s: s.lo)
        for a, b in zip(segs, segs[1:]):
            if b.lo < a.hi:
                raise ValueError("segments overlap")
        self.lo = np.array([s.lo for s in segs], dtype=float)
        self.hi = np.array([s.hi for s in segs], dtype=float)
        self.heights = np.array([s.height for s in segs], dtype=float)
        self._cum_masses = np.concatenate([[0.0], np.cumsum(self.heights * (self.hi - self.lo))])
        self.total_mass = float(self._cum_masses[-1])
        if self.total_mass <= 0:
            raise EmptyMeasureError("empty measure: zero total mass")

    def mass_quantiles(self, targets: np.ndarray) -> np.ndarray:
        """Invert the cumulative mass function at ``targets`` in (0, M)."""
        targets = np.asarray(targets, dtype=float)
        if np.any(targets <= 0) or np.any(targets >= self.total_mass):
            raise ValueError("quantile targets must lie strictly inside (0, total_mass)")
        # segment k with cum[k] < target <= cum[k + 1]: it exists and has positive mass
        k = np.searchsorted(self._cum_masses, targets, side="left") - 1
        return self.lo[k] + (targets - self._cum_masses[k]) / self.heights[k]


def uniform_blocks(blocks: Sequence[tuple[float, float]], height: float = 1.0) -> PiecewiseDensity:
    """Density made of constant blocks [(lo, hi), ...] of common height."""
    return PiecewiseDensity([Segment(lo, hi, height) for lo, hi in blocks])
