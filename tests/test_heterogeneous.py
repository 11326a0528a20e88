import numpy as np
import pytest

from granular1d import (
    StepperConfig,
    build_particles,
    build_ratio_system,
    cosine_bump_rho_star,
    piecewise_constant_force,
    reconstruct,
    run_simulation,
    uniform_blocks,
    zero_force,
)


def section6_density(fill=0.8):
    # the ratio of the density fill * rho_star on [0, 1] to rho_star
    return uniform_blocks([(0.0, 1.0)], fill)


def section6_force():
    return piecewise_constant_force([0.5], [0.5, -0.5])


def test_build_ratio_system_section6():
    star = cosine_bump_rho_star()
    rs = build_ratio_system(section6_density(), star, 1000)
    # the ratio is identically 0.8 on [0, 1]: mass 0.8, particle mass 8e-4
    assert rs.total_mass == pytest.approx(0.8, rel=1e-9)
    assert rs.masses[0] == pytest.approx(8e-4, rel=1e-9)
    assert rs.positions[0] == pytest.approx(0.0005, abs=1e-6)
    assert rs.positions[-1] == pytest.approx(0.9995, abs=1e-6)
    # packed rearrangement of the ratio measure fills [0.1, 0.9]
    assert rs.packed[0] == pytest.approx(0.1 + 8e-4 / 2, abs=1e-6)
    assert rs.packed[-1] == pytest.approx(0.9 - 8e-4 / 2, abs=1e-6)
    assert rs.rho_star == pytest.approx(
        1 + 0.2 * (1 - np.cos(2 * np.pi * (rs.positions - 0.5)))
    )


def test_ratio_positions_are_exact_quantiles():
    # the ratio is the constant 0.8 on [0, 1], so particle i sits at (i + 1/2) / n
    n = 4000
    rs = build_ratio_system(section6_density(), cosine_bump_rho_star(), n)
    assert np.max(np.abs(rs.positions - (np.arange(n) + 0.5) / n)) <= 2.3e-16
    assert abs(rs.total_mass - 0.8) <= 1e-15


def test_fully_congested_start():
    star = cosine_bump_rho_star()
    rs = build_ratio_system(section6_density(fill=1.0), star, 64)
    st = next(iter(run_simulation(rs, np.zeros(64), zero_force(), StepperConfig(dt=0.1, t_end=0.0))))
    field = reconstruct(st, rs)
    ratio = field.rho / field.rho_star
    assert ratio == pytest.approx(np.ones(field.n_samples), abs=1e-9)


@pytest.mark.parametrize("fill", [1.2, np.nextafter(1.0, 2.0)])
def test_bound_violation_rejected(fill):
    star = cosine_bump_rho_star()
    with pytest.raises(ValueError):
        build_ratio_system(section6_density(fill=fill), star, 32)


def test_stationary_without_force():
    star = cosine_bump_rho_star()
    rs = build_ratio_system(section6_density(), star, 128)
    states = list(run_simulation(rs, np.zeros(128), zero_force(), StepperConfig(dt=0.01, t_end=0.5)))
    assert np.array_equal(states[-1].x, states[0].x)
    f0 = reconstruct(states[0], rs)
    f1 = reconstruct(states[-1], rs)
    assert np.array_equal(f0.rho, f1.rho)


def test_section6_congestion_grows_at_center():
    star = cosine_bump_rho_star()
    rs = build_ratio_system(section6_density(), star, 400)
    cfg = StepperConfig(dt=2e-3, t_end=0.8)
    hits = {}
    for st in run_simulation(rs, np.zeros(400), section6_force(), cfg):
        if st.step_index in (250, 400):
            hits[st.step_index] = (st, reconstruct(st, rs))
    for idx, (st, field) in hits.items():
        ratio = field.rho / field.rho_star
        congested = np.abs(ratio - 1.0) < 1e-9
        assert congested.any()
        xs = field.x[congested]
        assert xs.min() < 0.5 < xs.max()
        assert field.gamma[congested].min() < 0
        # physical density stays below the carried maximal density
        assert np.all(field.rho <= field.rho_star + 1e-9)
        # exclusion in ratio form
        assert np.max(np.abs((1 - ratio) * field.gamma)) <= 1e-6


def test_ratio_bound_along_run():
    star = cosine_bump_rho_star()
    rs = build_ratio_system(section6_density(), star, 200)
    cfg = StepperConfig(dt=2e-3, t_end=0.6)
    for st in run_simulation(rs, np.zeros(200), section6_force(), cfg):
        slack = np.diff(st.x) - np.diff(rs.packed)
        assert slack.min() >= -1e-12  # r <= 1 + 1e-12 in gap form


def test_unit_rho_star_matches_homogeneous_bitwise():
    star = lambda x: np.ones_like(np.asarray(x, dtype=float))
    rho0 = section6_density(fill=0.8)
    rs = build_ratio_system(rho0, star, 150)
    ps = build_particles(rho0, 150)
    assert np.array_equal(rs.positions, ps.positions)
    assert np.array_equal(rs.masses, ps.masses)
    cfg = StepperConfig(dt=2e-3, t_end=0.4)
    force = section6_force()
    het = list(run_simulation(rs, np.zeros(150), force, cfg))
    hom = list(run_simulation(ps, np.zeros(150), force, cfg))
    for a, b in zip(het, hom):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.gamma, b.gamma)
        assert a.blocks == b.blocks
