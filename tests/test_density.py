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


def test_quantiles_never_land_in_a_zero_density_segment():
    # a target on a zero-mass segment's cumulative value belongs to the
    # segment before it; the first quantile is found past a leading one
    d = PiecewiseDensity([Segment(-1.0, 0.0, 0.0), Segment(0.0, 1.0, 1.0),
                          Segment(1.0, 2.0, 0.0), Segment(2.0, 3.0, 0.5)])
    q = d.mass_quantiles(np.array([0.25, 1.0, 1.25]))
    assert q.tolist() == [0.25, 1.0, 2.5]


def test_invalid_inputs():
    with pytest.raises(EmptyMeasureError):
        PiecewiseDensity([])
    with pytest.raises(ValueError):
        Segment(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Segment(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        PiecewiseDensity([Segment(0.0, 2.0, 1.0), Segment(1.0, 3.0, 1.0)])
    # a height is a number: a callable profile is refused
    with pytest.raises(TypeError):
        Segment(0.0, 1.0, lambda x: x)


def test_numpy_scalar_heights():
    # numpy scalars are real numbers too
    assert Segment(0.0, 1.0, np.float32(0.5)).height == 0.5
    assert uniform_blocks([(0.0, 1.0)], np.int64(1)).total_mass == 1.0
    assert uniform_blocks([(0.0, 1.0)], np.float32(0.9)).total_mass == float(np.float32(0.9))


def test_quantile_targets_must_be_interior():
    d = uniform_blocks([(0.0, 1.0)])
    with pytest.raises(ValueError):
        d.mass_quantiles(np.array([0.0]))
    with pytest.raises(ValueError):
        d.mass_quantiles(np.array([1.0]))
