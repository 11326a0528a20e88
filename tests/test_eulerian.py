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
from test_dynamics import light_packed_state


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
    # n + 1 samples as for every n: two half-cells of width m/2 at x -/+ m/4
    ps, st = state_for([3.0], [0.25])
    field = reconstruct(st, ps)
    assert field.n_samples == 2
    assert field.rho == pytest.approx([1.0, 1.0])
    assert field.total_mass() == pytest.approx(0.25)
    assert field.x.tolist() == [2.9375, 3.0625]
    assert field.width.tolist() == [0.125, 0.125]


def test_velocity_and_gamma_carried_from_particles():
    ps, st = state_for([0.0, 0.5, 1.0], [0.5, 0.5, 0.5], u0=[2.0, 1.0, 0.0])
    field = reconstruct(st, ps)
    # u collapsed to the block mean 1.0 everywhere
    assert field.u == pytest.approx(np.ones(field.n_samples))
    # gamma [-0.5, -0.5, 0] sits at the mass edges: cell (i, i+1) reads
    # gamma_i, and the half-cells at both ends of the mass interval read 0
    assert field.gamma[1:-1] == pytest.approx([-0.5, -0.5])
    assert field.gamma[[0, -1]].tolist() == [0.0, 0.0]


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
    assert check_exclusion(field) <= 1e-6


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
    assert check_exclusion(field) == 0.0


def test_exclusion_flags_corrupted_field():
    field = EulerianField(
        x=np.array([0.0, 1.0]),
        rho=np.array([0.5, 1.0]),
        u=np.zeros(2),
        gamma=np.array([-0.3, -0.3]),
        width=np.array([1.0, 1.0]),
    )
    assert check_exclusion(field) == pytest.approx(0.15)


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


@pytest.mark.parametrize("check, x, index", [
    ("density_bound", [0.0, 0.5, 1.0, 1.5, 1.5, 2.0], 3),
    ("density_bound", [0.0, 0.5, 1.0, 1.25, 2.0, 2.5], 2),
])
def test_reconstruct_names_the_failing_gap(check, x, index):
    # a closed gap is short of its packed value by all of it
    ps, st = state_for(0.5 * np.arange(6.0), np.full(6, 0.5))
    with pytest.raises(InvariantViolation) as err:
        reconstruct(replace(st, x=np.array(x)), ps)
    assert (err.value.check, err.value.index) == (check, index)


@pytest.mark.parametrize("shift, shrink", [(1.0, 0.7), (1.6, 1.0)], ids=["0.3x", "closed"])
def test_reconstruct_shares_the_capped_gap_tolerance(shift, shrink):
    # the states that ``check_state`` refuses at gap 10 (test_dynamics):
    # at 0.3x the density is 3.3 times the bound, not clipped to it
    ps, bad = light_packed_state(shift, shrink)
    with pytest.raises(InvariantViolation) as err:
        reconstruct(bad, ps)
    assert (err.value.check, err.value.index) == ("density_bound", 10)


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("dt", [2e-3, 1e-3])
def test_gamma_sits_at_the_mass_edges(two_block_params, n, dt):
    # glued, the two blocks fill [-1, 1] at the bound, and the closed form
    # -amp * (x + 1) left of 0, amp * (x - 1) right of it holds at the mass
    # edge between particles i and i+1, the cell midpoint: there gamma_i is
    # exact to rounding, and ``reconstruct`` reads it unchanged
    p = two_block_params
    ps = p.build(n)
    times = {round(t / dt): t for t in (0.8, 1.0, 1.5, 1.9)}
    cfg = StepperConfig(dt=dt, t_end=1.9)
    seen = []
    for st in run_simulation(ps, np.zeros(ps.n), p.force(), cfg):
        if st.step_index not in times:
            continue
        t = times[st.step_index]
        amp = p.alpha * min(t, p.t2 - t)
        edge = (st.x[:-1] + st.x[1:]) / 2
        exact = np.where(edge < 0, -amp * (edge + p.width), amp * (edge - p.width))
        gamma = st.gamma[:-1]
        assert np.max(np.abs(gamma - exact)) <= 1e-12 * max(1.0, np.max(np.abs(gamma)))
        assert np.array_equal(reconstruct(st, ps).gamma[1:-1], gamma)
        seen.append(t)
    assert seen == [0.8, 1.0, 1.5, 1.9]
