import numpy as np
import pytest

from granular1d import EmptyMeasureError, PiecewiseDensity, Segment, uniform_blocks


def test_uniform_block_mass_and_quantiles():
    d = uniform_blocks([(0.0, 1.0)])
    assert d.total_mass == pytest.approx(1.0)
    q = d.mass_quantiles(np.array([0.25, 0.5, 0.75]))
    assert q == pytest.approx([0.25, 0.5, 0.75])


def test_two_block_quantiles_skip_the_gap():
    d = uniform_blocks([(-2.0, -1.0), (1.0, 2.0)])
    assert d.total_mass == pytest.approx(2.0)
    q = d.mass_quantiles(np.array([0.5, 1.5]))
    assert q == pytest.approx([-1.5, 1.5])


def test_callable_segment_against_quadrature():
    # mass and quantiles of a smooth profile checked against analytic integrals
    d = PiecewiseDensity([Segment(0.0, 1.0, lambda x: 2.0 * x)])
    assert d.total_mass == pytest.approx(1.0, abs=1e-9)
    # F(x) = x^2, so the quantile of mass q is sqrt(q)
    q = d.mass_quantiles(np.array([0.25, 0.64]))
    assert q == pytest.approx([0.5, 0.8], abs=1e-6)


def test_cosine_profile_mass():
    # 0.8 * (1 + 0.2 (1 - cos 2 pi (x - 1/2))) integrates to 0.8 * 1.2 on [0, 1]
    profile = lambda x: 0.8 * (1 + 0.2 * (1 - np.cos(2 * np.pi * (x - 0.5))))
    d = PiecewiseDensity([Segment(0.0, 1.0, profile)])
    assert d.total_mass == pytest.approx(0.96, abs=1e-9)


def test_invalid_inputs():
    with pytest.raises(EmptyMeasureError):
        PiecewiseDensity([])
    with pytest.raises(ValueError):
        Segment(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Segment(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        PiecewiseDensity([Segment(0.0, 2.0, 1.0), Segment(1.0, 3.0, 1.0)])
    with pytest.raises(ValueError):
        PiecewiseDensity([Segment(0.0, 1.0, lambda x: np.full_like(x, np.nan))])


def test_quantile_targets_must_be_interior():
    d = uniform_blocks([(0.0, 1.0)])
    with pytest.raises(ValueError):
        d.mass_quantiles(np.array([0.0]))
    with pytest.raises(ValueError):
        d.mass_quantiles(np.array([1.0]))
