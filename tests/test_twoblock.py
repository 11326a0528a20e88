import numpy as np
import pytest

from granular1d import (
    BlockPartition,
    ContactTracker,
    StepperConfig,
    TwoBlockParams,
    error_norms,
    init_state,
    run_simulation,
    two_block_exact,
)


def test_params_derived_times(two_block_params):
    assert two_block_params.t1 == pytest.approx(0.64)
    assert two_block_params.t2 == pytest.approx(2.0)
    assert two_block_params.width == pytest.approx(1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        TwoBlockParams(a1=-2.0, b1=-0.5, a2=0.1, b2=1.1)  # asymmetric
    with pytest.raises(ValueError):
        TwoBlockParams(a1=-1.5, b1=0.2, a2=-0.2, b2=1.5)  # overlapping
    with pytest.raises(ValueError):
        TwoBlockParams(b2=1.1024 + 5e-13)  # mirrored only to within 1e-12
    with pytest.raises(ValueError):
        TwoBlockParams(a1=-0.1024, b1=-1.1024, a2=1.1024, b2=0.1024)  # reversed
    with pytest.raises(ValueError):
        TwoBlockParams(alpha=0.5, t_star=0.5)  # contact after reversal


def test_exact_at_zero(two_block_params):
    ps = two_block_params.build(100)
    snap = two_block_exact(two_block_params, ps, 0.0)
    assert snap.x_ex == pytest.approx(ps.positions)
    assert np.all(snap.u_ex == 0.0)
    assert np.all(snap.gamma_ex == 0.0)
    with pytest.raises(ValueError):
        two_block_exact(two_block_params, ps, -0.1)


def test_exact_contact_point_arithmetic(two_block_params):
    # the rightmost left-block particle reaches 0- at t1:
    # -0.1024 + 0.5 * 0.64^2 / 2 = 0 up to its half mass cell
    ps = two_block_params.build(2000)
    snap = two_block_exact(two_block_params, ps, two_block_params.t1)
    m = ps.total_mass / 2000
    assert snap.x_ex[999] == pytest.approx(-m / 2, abs=1e-12)
    assert snap.x_ex[1000] == pytest.approx(m / 2, abs=1e-12)
    # merged block fills [-1, 1]
    assert snap.x_ex[0] == pytest.approx(-1 + m / 2, abs=1e-12)
    assert snap.x_ex[-1] == pytest.approx(1 - m / 2, abs=1e-12)


def test_exact_adhesion_minimum_at_tstar(two_block_params):
    # phase-2 profile dips to -alpha * width * t_star at the contact point
    ps = two_block_params.build(2000)
    snap = two_block_exact(two_block_params, ps, two_block_params.t_star)
    assert snap.gamma_ex.min() == pytest.approx(
        -two_block_params.alpha * two_block_params.width * two_block_params.t_star, abs=1e-3
    )
    assert np.all(snap.u_ex == 0.0)
    # piecewise linear in x with the minimum at the block center
    k = int(np.argmin(snap.gamma_ex))
    assert abs(snap.x_ex[k]) < 2e-3


def test_exact_continuity_at_phase_boundaries(two_block_params):
    ps = two_block_params.build(64)
    eps = 1e-9
    for t_b in (two_block_params.t_star, two_block_params.t2):
        before = two_block_exact(two_block_params, ps, t_b - eps)
        after = two_block_exact(two_block_params, ps, t_b + eps)
        assert before.x_ex == pytest.approx(after.x_ex, abs=1e-8)
        assert before.gamma_ex == pytest.approx(after.gamma_ex, abs=1e-8)
    # positions are continuous across contact as well, while gamma jumps by
    # the collision amplitude alpha * t1 (momentum absorbed at impact)
    t1 = two_block_params.t1
    before = two_block_exact(two_block_params, ps, t1 - eps)
    at = two_block_exact(two_block_params, ps, t1)
    assert before.x_ex == pytest.approx(at.x_ex, abs=1e-8)
    assert np.all(before.gamma_ex == 0.0)
    assert at.gamma_ex.min() == pytest.approx(-two_block_params.alpha * t1, abs=0.02)


def test_exact_free_phases_have_no_adhesion(two_block_params):
    ps = two_block_params.build(64)
    for t in (0.0, 0.3, two_block_params.t1 - 1e-6, two_block_params.t2 + 1e-9, 3.0):
        snap = two_block_exact(two_block_params, ps, t)
        assert np.all(snap.gamma_ex == 0.0)


def test_exact_merged_phase_velocity_zero(two_block_params):
    ps = two_block_params.build(64)
    for t in (two_block_params.t1, 0.8, 1.0, 1.5, two_block_params.t2):
        snap = two_block_exact(two_block_params, ps, t)
        assert np.all(snap.u_ex == 0.0)


def test_exact_phase4_separation_speeds(two_block_params):
    ps = two_block_params.build(64)
    s = 0.7
    snap = two_block_exact(two_block_params, ps, two_block_params.t2 + s)
    alpha = two_block_params.alpha
    left = ps.positions < 0
    assert snap.u_ex[left] == pytest.approx(-alpha * s)
    assert snap.u_ex[~left] == pytest.approx(alpha * s)


def test_error_norms_zero_against_self(two_block_params):
    ps = two_block_params.build(50)
    st = init_state(ps, np.zeros(50))
    snap = two_block_exact(two_block_params, ps, 0.0)
    rep = error_norms(st, snap, ps.masses)
    assert rep["x"] == pytest.approx(0.0, abs=1e-12)
    assert rep["u"] == 0.0
    assert rep["gamma_sup"] == 0.0


def test_error_norms_index_mismatch(two_block_params):
    ps = two_block_params.build(50)
    other = two_block_params.build(40)
    st = init_state(ps, np.zeros(50))
    with pytest.raises(ValueError):
        error_norms(st, two_block_exact(two_block_params, other, 0.0), ps.masses)


def test_contact_tracker_interval():
    tracker = ContactTracker((1, 2))
    seq = [
        (0.0, BlockPartition([], [], 4)),
        (0.1, BlockPartition([0], [3], 4)),
        (0.2, BlockPartition([1], [2], 4)),
        (0.3, BlockPartition([0], [1], 4)),  # no longer spans the interface
    ]
    for t, blocks in seq:
        tracker.observe(t, blocks)
    assert tracker.contact_time == pytest.approx(0.1)
    assert tracker.separation_time == pytest.approx(0.3)


def test_first_order_convergence_in_dt(two_block_params):
    # halving dt roughly halves the position error in the free phase
    ps = two_block_params.build(200)

    def x_error_at_half_second(dt):
        cfg = StepperConfig(dt=dt, t_end=0.5)
        for st in run_simulation(ps, np.zeros(200), two_block_params.force(), cfg):
            pass
        rep = error_norms(st, two_block_exact(two_block_params, ps, st.t), ps.masses)
        return rep["x"]

    coarse, fine = x_error_at_half_second(4e-3), x_error_at_half_second(2e-3)
    assert 1.5 < coarse / fine < 2.5


def test_simulated_contact_times_match_exact(two_block_params, small_two_block):
    ps = small_two_block
    n = ps.n
    cfg = StepperConfig(dt=2e-3, t_end=2.1)
    tracker = ContactTracker((n // 2 - 1, n // 2))
    for st in run_simulation(ps, np.zeros(n), two_block_params.force(), cfg):
        tracker.observe(st.t, st.blocks)
    assert tracker.contact_time == pytest.approx(two_block_params.t1, abs=2 * cfg.dt)
    assert tracker.separation_time == pytest.approx(two_block_params.t2, abs=2 * cfg.dt + 1e-12)
