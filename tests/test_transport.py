import numpy as np
import pytest

from granular1d import (
    BlockPartition,
    MonotoneMap,
    OracleLimitError,
    ParticleSystem,
    PiecewiseDensity,
    Segment,
    build_particles,
    congested_transport,
    oracle_qp_projection,
    project_admissible,
    project_monotone,
    uniform_blocks,
    weighted_norm,
)
from conftest import random_projection_instance


# ---------------------------------------------------------------- types


def test_particle_system_validation():
    ps = ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert ps.total_mass == pytest.approx(1.0)
    assert ps.n == 2
    with pytest.raises(ValueError):
        ParticleSystem(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        ParticleSystem(np.array([0.0]), np.array([0.5, 0.5]))


def test_monotone_map_validation():
    MonotoneMap(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        MonotoneMap(np.array([0.0, -1e-15]))
    with pytest.raises(ValueError):
        MonotoneMap(np.array([0.0, np.inf]))


def test_block_partition_validation():
    bp = BlockPartition(((0, 1), (3, 5)))
    assert bp.spans(3, 4) and not bp.spans(2, 3)
    assert list(bp.interior_cells(7)) == [True, False, False, True, True, False]
    assert bp.labels(7).tolist() == [0, 0, -1, 1, 1, 1, -1]
    with pytest.raises(ValueError):
        BlockPartition(((0, 0),))
    with pytest.raises(ValueError):
        BlockPartition(((0, 2), (2, 4)))


# ---------------------------------------------------------------- build_particles


def test_build_particles_uniform_block():
    ps = build_particles(uniform_blocks([(0.0, 1.0)]), 2)
    assert ps.positions == pytest.approx([0.25, 0.75])
    assert ps.masses == pytest.approx([0.5, 0.5])


def test_build_particles_two_blocks_fig_geometry(two_block_params):
    ps = two_block_params.build(2000)
    assert ps.n == 2000
    assert ps.masses == pytest.approx(np.full(2000, 1e-3))
    assert ps.total_mass == pytest.approx(2.0, rel=1e-12)
    # 1000 particles per block, spanning [a + m/2, b - m/2]
    left, right = ps.positions[:1000], ps.positions[1000:]
    assert np.all(left < -0.1024) and np.all(right > 0.1024)
    assert left[0] == pytest.approx(-1.1024 + 5e-4)
    assert left[-1] == pytest.approx(-0.1024 - 5e-4)
    assert right[0] == pytest.approx(0.1024 + 5e-4)
    # gap between blocks consistent with contact time t1 = 0.64 at alpha = 0.5
    gap = 0.1024 - (-0.1024)
    assert np.sqrt(gap / 0.5) == pytest.approx(0.64)


def test_build_particles_smooth_density_against_quadrature():
    profile = lambda x: 0.8 * (1 + 0.2 * (1 - np.cos(2 * np.pi * (x - 0.5))))
    d = PiecewiseDensity([Segment(0.0, 1.0, profile)])
    ps = build_particles(d, 200)
    assert ps.total_mass == pytest.approx(0.96, rel=1e-9)
    # independent check: trapezoid mass between consecutive quantiles equals m
    xs = np.linspace(0, 1, 200001)
    cdf = np.concatenate([[0.0], np.cumsum((profile(xs)[1:] + profile(xs)[:-1]) / 2 * np.diff(xs))])
    mass_at = np.interp(ps.positions, xs, cdf)
    m = ps.total_mass / 200
    assert mass_at == pytest.approx((np.arange(200) + 0.5) * m, abs=5e-7)


def test_build_particles_errors():
    with pytest.raises(ValueError):
        build_particles(uniform_blocks([(0.0, 1.0)]), 0)


# ---------------------------------------------------------------- congested_transport


def test_congested_transport_unit_block_is_fixed_point():
    ps = build_particles(uniform_blocks([(0.0, 1.0)]), 2)
    xt = congested_transport(ps)
    assert xt.values == pytest.approx([0.25, 0.75])


def test_congested_transport_two_far_particles():
    ps = ParticleSystem(np.array([-10.0, 10.0]), np.array([0.5, 0.5]))
    xt = congested_transport(ps)
    assert xt.values == pytest.approx([-0.25, 0.25])


def test_congested_transport_two_block_span(two_block_params):
    ps = two_block_params.build(2000)
    xt = congested_transport(ps)
    lo = xt.values[0] - ps.masses[0] / 2
    hi = xt.values[-1] + ps.masses[-1] / 2
    assert hi - lo == pytest.approx(ps.total_mass, rel=1e-12)
    assert (lo + hi) / 2 == pytest.approx(0.0, abs=1e-12)
    assert np.diff(xt.values) == pytest.approx(np.full(1999, 1e-3))


def test_congested_transport_gaps_and_translation():
    rng = np.random.default_rng(7)
    pos = np.sort(rng.normal(0, 3, 9))
    m = rng.uniform(0.1, 1.0, 9)
    ps = ParticleSystem(pos, m)
    xt = congested_transport(ps)
    assert xt.gaps() == pytest.approx((m[:-1] + m[1:]) / 2, rel=1e-12)
    shifted = congested_transport(ParticleSystem(pos + 5.0, m))
    assert shifted.values == pytest.approx(xt.values + 5.0, rel=1e-12)


# ---------------------------------------------------------------- project_monotone


def test_project_monotone_identity_on_sorted():
    fit, blocks = project_monotone(np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert fit.values == pytest.approx([1.0, 2.0, 3.0])
    assert blocks.is_empty


def test_project_monotone_two_point_pool():
    # brute force: constrained min of (2-a)^2 + (1-b)^2 over a <= b sits at a = b = 1.5
    fit, blocks = project_monotone(np.array([2.0, 1.0]), np.ones(2))
    assert fit.values == pytest.approx([1.5, 1.5])
    assert blocks.blocks == ((0, 1),)


def test_project_monotone_weighted_example():
    # enumeration over monotone partitions gives [5/3, 5/3, 2]
    fit, blocks = project_monotone(np.array([3.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
    assert fit.values == pytest.approx([5 / 3, 5 / 3, 2.0])
    assert blocks.blocks == ((0, 1),)


def test_project_monotone_pools_exact_ties():
    fit, blocks = project_monotone(np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4))
    assert fit.values == pytest.approx([0.0, 0.0, 1.0, 1.0])
    assert blocks.blocks == ((0, 1), (2, 3))


def test_project_monotone_errors():
    with pytest.raises(ValueError):
        project_monotone(np.array([np.nan, 0.0]), np.ones(2))
    with pytest.raises(ValueError):
        project_monotone(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        project_monotone(np.array([1.0, 0.0]), np.ones(3))


def test_project_monotone_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    flat = MonotoneMap(np.zeros(5))  # zero gaps: plain isotonic regression
    for _ in range(50):
        z = rng.normal(0, 1, 5)
        w = rng.uniform(0.1, 2.0, 5)
        fit, _ = project_monotone(z, w)
        ref = oracle_qp_projection(z, flat, w)
        assert fit.values == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------- project_admissible


def test_project_admissible_identity_when_feasible():
    xtil = MonotoneMap(np.array([0.0, 1.0, 2.0]))
    z = np.array([0.0, 1.5, 3.5])  # gaps 1.5 >= 1 everywhere
    x, blocks = project_admissible(z, xtil, np.ones(3))
    assert x.values == pytest.approx(z)
    assert blocks.is_empty


def test_project_admissible_two_particle_hand_check():
    xtil = MonotoneMap(np.array([-0.25, 0.25]))
    w = np.array([0.5, 0.5])
    x, blocks = project_admissible(np.array([0.2, -0.2]), xtil, w)
    # inner isotonic of [0.45, -0.45] pools to [0, 0]
    assert x.values == pytest.approx([-0.25, 0.25])
    assert blocks.blocks == ((0, 1),)


def test_project_admissible_matches_qp_oracle_small():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        ref = oracle_qp_projection(z, xtil, w)
        assert np.max(np.abs(x.values - ref)) < 1e-8


# ---------------------------------------------------------------- oracle


def test_oracle_returns_feasible_point_unchanged():
    xtil = MonotoneMap(np.array([0.0, 0.5, 1.0]))
    z = np.array([0.0, 0.7, 1.9])
    assert oracle_qp_projection(z, xtil, np.ones(3)) == pytest.approx(z)


def test_oracle_two_point_pool():
    flat = MonotoneMap(np.zeros(2))
    assert oracle_qp_projection(np.array([2.0, 1.0]), flat, np.ones(2)) == pytest.approx([1.5, 1.5])


def test_oracle_size_limit():
    with pytest.raises(OracleLimitError):
        oracle_qp_projection(np.zeros(13), MonotoneMap(np.arange(13.0)), np.ones(13))


# ---------------------------------------------------------------- invariants


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        again, blocks = project_admissible(x.values, xtil, w)
        assert again.values == pytest.approx(x.values, abs=1e-13)


def test_projection_contraction():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        z1, xtil, w = random_projection_instance(rng, n)
        z2 = z1 + rng.normal(0, 1.5, n)
        p1, _ = project_admissible(z1, xtil, w)
        p2, _ = project_admissible(z2, xtil, w)
        assert weighted_norm(p1.values - p2.values, w) <= weighted_norm(z1 - z2, w) + 1e-12


def test_block_mean_preservation():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        z = rng.normal(0, 1, n)
        w = rng.uniform(0.1, 2.0, n)
        fit, blocks = project_monotone(z, w)
        for sl in blocks.slices():
            assert np.dot(w[sl], fit.values[sl] - z[sl]) == pytest.approx(0.0, abs=1e-12)


def test_feasibility_of_projection_output():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        scale = max(1.0, np.max(np.abs(x.values)))
        assert np.min(np.diff(x.values) - xtil.gaps()) >= -1e-12 * scale
