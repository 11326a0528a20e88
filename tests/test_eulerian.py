from dataclasses import replace

import numpy as np
import pytest

from granular1d import (
    EulerianField,
    InvariantViolation,
    ParticleSystem,
    StepperConfig,
    check_exclusion,
    init_state,
    reconstruct,
    run_simulation,
    wasserstein2,
)


def state_for(positions, masses, u0=None):
    ps = ParticleSystem(np.asarray(positions, float), np.asarray(masses, float))
    u0 = np.zeros(ps.n) if u0 is None else np.asarray(u0, float)
    return ps, init_state(ps, u0)


def test_congested_block_has_unit_density():
    ps, st = state_for([0.0, 0.5, 1.0], [0.5, 0.5, 0.5])
    field = reconstruct(st, ps)
    # interior cells sit at the bound; half cells inherit it
    assert field.rho == pytest.approx(np.ones(field.n_samples))
    assert field.total_mass() == pytest.approx(1.5, rel=1e-12)


def test_spread_particles_have_half_density():
    ps, st = state_for([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
    field = reconstruct(st, ps)
    assert field.rho[1:-1] == pytest.approx([0.5, 0.5])
    assert field.total_mass() == pytest.approx(1.5, rel=1e-12)


def test_single_particle_field():
    ps, st = state_for([3.0], [0.25])
    field = reconstruct(st, ps)
    assert field.n_samples == 1
    assert field.rho == pytest.approx([1.0])
    assert field.total_mass() == pytest.approx(0.25)


def test_velocity_and_gamma_carried_from_particles():
    ps, st = state_for([0.0, 0.5, 1.0], [0.5, 0.5, 0.5], u0=[2.0, 1.0, 0.0])
    field = reconstruct(st, ps)
    # u collapsed to the block mean 1.0 everywhere
    assert field.u == pytest.approx(np.ones(field.n_samples))
    # gamma: linear interpolation of [-0.5, -0.5, 0] on interior cells
    assert field.gamma[1:-1] == pytest.approx([-0.5, -0.25])
    assert np.all(field.gamma <= 0)


def test_gamma_zero_on_free_cells():
    # two touching pairs separated by vacuum: adhesion stays on the pairs
    ps, st = state_for(
        [0.0, 0.5, 5.0, 5.5], [0.5, 0.5, 0.5, 0.5], u0=[1.0, -1.0, 1.0, -1.0]
    )
    field = reconstruct(st, ps)
    inside = st.blocks.interior_cells(4)
    assert inside.tolist() == [True, False, True]
    assert field.gamma[2] == 0.0  # straddling the vacuum gap
    assert field.gamma[1] < 0 and field.gamma[3] < 0


def test_two_block_fully_congested_at_tstar(two_block_params, small_two_block):
    ps = small_two_block
    cfg = StepperConfig(dt=2e-3, t_end=1.0)
    for st in run_simulation(ps, np.zeros(ps.n), two_block_params.force(), cfg):
        pass
    field = reconstruct(st, ps)
    # one congested interval of length ~2 around the origin
    congested = field.x[np.abs(field.rho - 1.0) < 1e-9]
    assert congested.min() == pytest.approx(-1.0, abs=0.01)
    assert congested.max() == pytest.approx(1.0, abs=0.01)
    assert np.max(np.abs(field.u)) < 1e-12
    inner = np.abs(field.x) < 0.9
    assert np.all(field.gamma[inner] < 0)
    assert field.total_mass() == pytest.approx(ps.total_mass, rel=1e-9)
    report = check_exclusion(field, 1e-6)
    assert report.offenders.size == 0


def test_push_forward_consistency():
    ps, st = state_for(np.linspace(0, 1, 200), np.full(200, 1 / 250))
    field = reconstruct(st, ps)
    for xi in (np.cos, lambda x: x**2):
        lagr = float(np.dot(ps.masses, xi(st.x)))
        quad = float(np.dot(field.rho * field.width, xi(field.x)))
        assert abs(lagr - quad) < 10.0 / ps.n


def test_reconstruct_rejects_crossed_positions():
    ps, st = state_for([0.0, 0.5, 1.0], [0.5, 0.5, 0.5])
    bad = object.__new__(type(st))
    object.__setattr__(bad, "__dict__", dict(st.__dict__))
    object.__setattr__(bad, "x", st.x)
    # fabricate coincident positions beyond the congestion tolerance
    vals = st.x.copy()
    vals[1] = vals[0]
    vals[2] = vals[0]
    object.__setattr__(bad, "x", vals)
    with pytest.raises(InvariantViolation):
        reconstruct(bad, ps)


def test_exclusion_free_flow_is_exact():
    ps, st = state_for([0.0, 2.0, 4.0], [0.5, 0.5, 0.5], u0=[1.0, 2.0, 3.0])
    field = reconstruct(st, ps)
    report = check_exclusion(field, 1e-12)
    assert report.max_residual == 0.0
    assert report.offenders.size == 0


def test_exclusion_flags_corrupted_field():
    field = EulerianField(
        x=np.array([0.0, 1.0]),
        rho=np.array([0.5, 1.0]),
        u=np.zeros(2),
        gamma=np.array([-0.3, -0.3]),
        width=np.array([1.0, 1.0]),
    )
    report = check_exclusion(field, 1e-6)
    assert report.max_residual == pytest.approx(0.15)
    assert report.offenders.tolist() == [0]


def test_reconstruct_flags_density_bound():
    # gaps of 0.25 against packed gaps of 0.5: density 2 exceeds the bound
    ps, st = state_for([0.0, 0.5, 1.0], [0.5, 0.5, 0.5])
    bad = replace(st, t=0.5, step_index=5, x=np.array([0.0, 0.25, 0.5]))
    with pytest.raises(InvariantViolation) as err:
        reconstruct(bad, ps)
    assert err.value.check == "density_bound"
    assert err.value.value == pytest.approx(0.25)
    assert (err.value.t, err.value.step) == (0.5, 5)


def test_wasserstein_basics():
    m = np.array([0.5, 0.5, 1.0])
    x1 = np.array([0.0, 1.0, 2.0])
    assert wasserstein2(x1, x1, m) == 0.0
    shifted = x1 + 3.0
    assert wasserstein2(x1, shifted, m) == pytest.approx(3.0 * np.sqrt(2.0))
    with pytest.raises(ValueError):
        wasserstein2(x1, np.array([0.0, 1.0]), m)


def test_wasserstein_initial_attainment(two_block_params, small_two_block):
    # W2(rho_t, rho_0) <= t * (||u0|| + alpha t sqrt(M)) along the run
    ps = small_two_block
    cfg = StepperConfig(dt=2e-3, t_end=0.2)
    x0 = None
    root_mass = np.sqrt(ps.total_mass)
    for st in run_simulation(ps, np.zeros(ps.n), two_block_params.force(), cfg):
        if x0 is None:
            x0 = st.x
            continue
        dist = wasserstein2(st.x, x0, ps.masses)
        assert dist <= st.t * (0.0 + 0.5 * st.t * root_mass) + 1e-9
