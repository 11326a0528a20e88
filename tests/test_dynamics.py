from dataclasses import replace

import numpy as np
import pytest

from granular1d import dynamics
from granular1d import (
    BlockPartition,
    ConvergenceError,
    ForceField,
    Granular1dError,
    InvariantViolation,
    ParticleSystem,
    StepperConfig,
    Stretch,
    TwoBlockParams,
    adhesion_potential,
    block_velocity,
    build_particles,
    check_state,
    init_state,
    picard_solve,
    piecewise_constant_force,
    project_admissible,
    project_monotone,
    reconstruct,
    run_simulation,
    step,
    uniform_blocks,
    weighted_norm,
    zero_force,
)
from granular1d.twoblock import two_block_force


def packed_three() -> ParticleSystem:
    # positions equal to the packed rearrangement exactly (dyadic data)
    return ParticleSystem(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5]))


# ---------------------------------------------------------------- block_velocity


def test_block_velocity_empty_partition():
    uf = np.array([3.0, -1.0, 2.0])
    assert block_velocity(uf, BlockPartition([], [], 3), np.ones(3)) == pytest.approx(uf)


def test_block_velocity_full_block_mean():
    u = block_velocity(np.array([1.0, -1.0]), BlockPartition([0], [1], 2), np.ones(2))
    assert u == pytest.approx([0.0, 0.0])


def test_block_velocity_weighted_mean():
    u = block_velocity(
        np.array([4.0, 0.0, 7.0]), BlockPartition([0], [1], 3), np.array([1.0, 3.0, 2.0])
    )
    assert u == pytest.approx([1.0, 1.0, 7.0])


# ---------------------------------------------------------------- adhesion_potential


def test_adhesion_zero_when_free():
    uf = np.array([1.0, 2.0, 3.0])
    gamma = adhesion_potential(uf, uf, np.full(3, 0.5))
    assert gamma == pytest.approx([0.0, 0.0, 0.0])


def test_adhesion_vanishes_at_block_edges():
    # telescoping of the block-mean property; arbitrary hand-picked blocks
    # can produce positive interior values, so only the edges are checked
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 12
        uf = rng.normal(0, 1, n)
        m = rng.uniform(0.1, 1.0, n)
        blocks = BlockPartition([1, 7], [4, 10], n)
        u = block_velocity(uf, blocks, m)
        gamma = adhesion_potential(u, uf, m)
        scale = np.sum(m) * max(1.0, np.max(np.abs(uf)))
        for lo, hi in zip(blocks.lo.tolist(), blocks.hi.tolist()):
            assert abs(gamma[hi]) <= 1e-12 * scale
        outside = blocks.labels < 0
        # outside blocks gamma carries no increment
        inc = m * (u - uf)
        assert np.all(inc[outside] == 0.0)
        assert abs(gamma[-1]) <= 1e-12 * scale


# ---------------------------------------------------------------- check_state


# Each case corrupts one field of a valid packed three-particle state at
# rest (blocks ((0, 2),), u = u_free = gamma = 0) so that exactly the
# named check (the case up to any ":") is the first to fail.
_BAD_STATES = {
    "feasibility": dict(x=np.array([0.0, 0.25, 0.5])),
    "block_velocity_constant": dict(u=np.array([1.0, 0.0, 0.0])),
    "free_velocity_off_blocks": dict(
        blocks=BlockPartition([0], [1], 3), u=np.array([0.0, 0.0, 1.0])
    ),
    "gamma_sign": dict(gamma=np.array([0.5, 0.0, 0.0])),
    "gamma_total": dict(gamma=np.array([0.0, 0.0, -0.5])),
    "gamma_block_edge": dict(
        blocks=BlockPartition([0], [1], 3), gamma=np.array([-0.5, -0.5, 0.0])
    ),
    "momentum_balance": dict(u=np.ones(3)),
}
# a NaN or an infinity in any field fails "finite" before any other check
_BAD_STATES.update(
    (f"finite:{field}={bad}", {field: np.array([0.0, bad, 1.0 if field == "x" else 0.0])})
    for field in ("x", "u", "u_free", "gamma") for bad in (np.nan, np.inf, -np.inf)
)


@pytest.mark.parametrize("check", sorted(_BAD_STATES))
def test_check_state_names_each_violation(check):
    ps = packed_three()
    good = init_state(ps, np.zeros(3))
    assert good.blocks == BlockPartition([0], [2], 3)
    assert check_state(good, ps) is good
    bad = replace(good, t=0.75, step_index=3, **_BAD_STATES[check])
    with pytest.raises(InvariantViolation) as err:
        check_state(bad, ps)
    assert err.value.check == check.partition(":")[0]
    assert (err.value.t, err.value.step) == (0.75, 3)
    assert np.isfinite(err.value.value)  # the exit-3 JSON stays strict


# Each case corrupts a valid packed eight-particle state at rest (one
# block over all, u = u_free = gamma = 0) at a known gap or particle,
# which the named check reports as its index; None where no single
# index fails the check.
_BAD_AT = {
    "finite": (dict(u=np.array([0.0] * 6 + [np.nan, 0.0])), None),
    "feasibility": (dict(x=0.5 * np.array([0.0, 1, 2, 3, 4, 4.5, 6, 7])), 4),
    "block_velocity_constant": (dict(u=np.array([0.0] * 5 + [1.0, 0.0, 0.0])), 5),
    "free_velocity_off_blocks": (
        dict(blocks=BlockPartition([0], [3], 8), u=np.array([0.0] * 6 + [1.0, 0.0])), 6),
    "gamma_sign": (dict(gamma=np.array([0.0] * 3 + [0.5] + [0.0] * 4)), 3),
    "gamma_total": (dict(gamma=np.array([0.0] * 7 + [-0.5])), None),
    "gamma_block_edge": (
        dict(blocks=BlockPartition([0, 4], [2, 6], 8), gamma=np.array([0.0] * 6 + [-0.5, 0.0])), 6),
    "momentum_balance": (dict(u=np.ones(8)), None),
}


@pytest.mark.parametrize("check", sorted(_BAD_AT))
def test_check_state_names_the_failing_index(check):
    ps = ParticleSystem(0.5 * np.arange(8.0), np.full(8, 0.5))
    good = init_state(ps, np.zeros(8))
    assert good.blocks == BlockPartition([0], [7], 8) and check_state(good, ps) is good
    fields, index = _BAD_AT[check]
    # ``reconstruct`` refuses the same state with the same check and index
    for refuse in (check_state, reconstruct):
        with pytest.raises(InvariantViolation) as err:
            refuse(replace(good, **fields), ps)
        assert (err.value.check, err.value.index) == (check, index)


def light_packed_state(shift: float, shrink: float):
    # a system of particles with packed gaps of 2e-12, just past the fence
    # at position_tol(packed) = 1e-12, at rest in its packed configuration
    # moved right by ``shift``, with gap 10 shrunk by ``shrink`` packed gaps
    ps = build_particles(uniform_blocks([(0.0, 1.0)], 2.0e-10), 100)
    x = ps.packed + shift
    x[11:] -= shrink * ps.packed_gaps[10]
    return ps, replace(init_state(ps, np.zeros(ps.n)), x=x)


@pytest.mark.parametrize("shift, shrink", [(1.0, 0.7), (1.6, 1.0)], ids=["0.3x", "closed"])
def test_gap_tolerance_stays_below_the_packed_gaps(shift, shrink):
    # 1e-12 * max|x| (1.5e-12 and 2.1e-12 here) exceeds the packed gap 2e-12
    # at 0.3x, and the whole of it; capped at half the smallest packed gap,
    # the tolerance sees gap 10 shrink or close wherever the run has moved
    ps, bad = light_packed_state(shift, shrink)
    assert ps.gap_tol_cap == 0.5 * ps.packed_gaps.min() < dynamics.position_tol(bad.x)
    with pytest.raises(InvariantViolation) as err:
        check_state(bad, ps)
    assert (err.value.check, err.value.index) == ("feasibility", 10)


def test_gap_tolerance_cap_is_infinite_for_one_particle():
    ps = ParticleSystem(np.array([0.25]), np.array([0.5]))
    assert ps.gap_tol_cap == np.inf
    assert check_state(init_state(ps, np.array([1.0])), ps).slack == np.inf


# Each case corrupts two fields of the packed three-particle state at rest
# so that two checks fail: the first in the documented order is reported,
# with its own magnitude and index.
_TWO_FAILURES = {
    "finite": (dict(x=np.array([0.0, 0.25, 0.5]), u=np.array([0.0, np.nan, 0.0])), 0.0, None),
    "feasibility": (dict(x=np.array([0.0, 0.25, 0.5]), gamma=np.array([0.5, 0.0, 0.0])),
                    0.25, 0),
    "block_velocity_constant": (
        dict(u=np.array([1.0, 0.0, 0.0]), gamma=np.array([0.0, 0.0, -0.5])), 0.0, 1),
    "gamma_sign": (dict(gamma=np.array([0.5, 0.0, 0.0]), u=np.ones(3)), 0.5, 0),
    "gamma_total": (dict(gamma=np.array([0.0, 0.0, -0.5]), u=np.ones(3)), 0.5, None),
}


@pytest.mark.parametrize("check", sorted(_TWO_FAILURES))
def test_check_state_reports_the_first_failing_check(check):
    ps = packed_three()
    fields, value, index = _TWO_FAILURES[check]
    with pytest.raises(InvariantViolation) as err:
        check_state(replace(init_state(ps, np.zeros(3)), **fields), ps)
    assert (err.value.check, err.value.value, err.value.index) == (check, value, index)


def test_checked_state_carries_what_the_gate_measured(two_block_params):
    # every state a run returns carries gamma's maximum as a float with
    # the bits of gamma.max(), passes the gate again as the same object,
    # and a one-state stretch reads its maximum from it
    ps = two_block_params.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=0.8)
    states = list(run_simulation(ps, np.zeros(ps.n), two_block_params.force(), cfg))
    assert any(st.gamma.max() < 0 for st in states)
    for st in states:
        assert type(st.gamma_max) is float
        assert st.gamma_max.hex() == float(st.gamma.max()).hex()
        assert check_state(st, ps) is st
        assert Stretch.of(st).gamma_max.hex() == float(st.gamma.max()).hex()
    fresh = dynamics._states(ps, 0.0, 0, states[0].s, states[0].u_free, states[0].u,
                             states[0].blocks, states[0].force_sum, states[0].u_init)
    assert (fresh.slack, fresh.gamma_max) == (None, None)
    checked = check_state(fresh, ps)
    assert (checked.slack, checked.gamma_max) == (states[0].slack, states[0].gamma_max)


# ---------------------------------------------------------------- init_state


def test_init_two_block_at_rest(two_block_params):
    ps = two_block_params.build(400)
    st = init_state(ps, np.zeros(400))
    assert np.all(st.u == 0.0)
    assert np.all(st.gamma == 0.0)
    assert st.x == pytest.approx(ps.positions, abs=1e-13)
    # no block bridges the vacuum gap between the two physical blocks
    labels = st.blocks.labels
    assert not (labels[199] >= 0 and labels[199] == labels[200])


def test_init_rigid_translation_is_admissible():
    ps = packed_three()
    st = init_state(ps, np.full(3, 2.5))
    assert np.all(st.u == 2.5)
    assert np.all(st.gamma == 0.0)
    assert st.blocks == BlockPartition([0], [2], 3)


def test_init_decreasing_velocity_collapses_to_block_mean():
    ps = packed_three()
    st = init_state(ps, np.array([2.0, 1.0, 0.0]))
    assert st.u == pytest.approx([1.0, 1.0, 1.0])
    assert st.gamma == pytest.approx([-0.5, -0.5, 0.0])
    assert st.gamma.max() <= 0.0
    assert st.blocks == BlockPartition([0], [2], 3)


def test_init_spreading_velocity_is_kept():
    # a congested zone already moving apart carries its velocity and
    # dissolves: no block survives, no adhesion is created
    ps = packed_three()
    st = init_state(ps, np.array([0.0, 1.0, 2.0]))
    assert st.u == pytest.approx([0.0, 1.0, 2.0])
    assert np.all(st.gamma == 0.0)
    assert len(st.blocks) == 0


def test_init_projects_only_zones_with_varying_velocity(two_block_params, monkeypatch):
    # u0 = 0 is constant on every congested zone of the shipped two-block
    # start, so only the positions are projected and every zone survives
    calls = []
    project = dynamics.project_monotone

    def spy(z, w):
        calls.append(len(z))
        return project(z, w)

    ps = two_block_params.build(2000)
    _, zones = project(ps.positions - ps.packed, ps.masses)
    monkeypatch.setattr(dynamics, "project_monotone", spy)
    st = init_state(ps, np.zeros(2000))
    assert calls == [2000]
    assert st.blocks == zones


def test_init_tangent_velocity_matches_per_zone_projection():
    # three packed zones apart from each other: u0 tied on the first,
    # decreasing on the second, spreading on the third
    positions = np.array([0.0, 0.5, 1.0, 3.0, 3.5, 4.0, 7.0, 7.5, 8.0])
    ps = ParticleSystem(positions, np.full(9, 0.5))
    u0 = np.array([2.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 1.0, 2.0])
    _, zones = project_monotone(ps.positions - ps.packed, ps.masses)
    assert zones == BlockPartition([0, 3, 6], [2, 5, 8], 9)
    u = u0.copy()
    survivors_lo, survivors_hi = [], []
    for lo, hi in zip(zones.lo.tolist(), zones.hi.tolist()):
        fit, sub = project_monotone(u0[lo:hi + 1], ps.masses[lo:hi + 1])
        u[lo:hi + 1] = fit
        survivors_lo += (lo + sub.lo).tolist()
        survivors_hi += (lo + sub.hi).tolist()
    st = init_state(ps, u0)
    assert np.array_equal(st.u, u)
    assert st.blocks == BlockPartition(survivors_lo, survivors_hi, 9)
    assert st.blocks == BlockPartition([0, 3], [2, 5], 9)


@pytest.mark.parametrize("seed", range(4))
def test_init_blocks_are_the_groups_of_each_zone_fit(seed):
    # forty packed zones of 1-5 particles, half of them touching their
    # neighbour (a gap just over the packed one), and u0 of three values,
    # so ties fall inside zones, across their ends and on single particles
    rng = np.random.default_rng(seed)
    gaps = np.concatenate([[0.5] * (k - 1) + [0.5 + rng.choice([1e-3, 1.0])]
                           for k in rng.integers(1, 6, 40)])[:-1]
    ps = ParticleSystem(np.concatenate(([0.0], np.cumsum(gaps))), np.full(gaps.size + 1, 0.5))
    u0 = rng.integers(0, 3, ps.n).astype(float)
    _, zones = project_monotone(ps.positions - ps.packed, ps.masses)
    assert len(zones) >= 20
    u, lo, hi = u0.copy(), [], []
    for a, b in zip(zones.lo.tolist(), zones.hi.tolist()):
        u[a:b + 1], sub = project_monotone(u0[a:b + 1], ps.masses[a:b + 1])
        lo += (a + sub.lo).tolist()
        hi += (a + sub.hi).tolist()
    st = init_state(ps, u0)
    assert st.u.tobytes() == u.tobytes()
    assert st.blocks == BlockPartition(lo, hi, ps.n)


def test_init_length_mismatch():
    ps = packed_three()
    with pytest.raises(ValueError):
        init_state(ps, np.zeros(2))


@pytest.mark.parametrize("call, error, match", [
    (lambda: StepperConfig(dt=0.0, t_end=1.0), ValueError, "dt"),
    (lambda: StepperConfig(dt=0.1, t_end=-1.0), ValueError, "t_end"),
    (lambda: StepperConfig(dt=0.1, t_end=np.nan), ValueError, "t_end"),
    (lambda: StepperConfig(dt=1e-3, t_end=1e308), ValueError, "overflows"),
    (lambda: init_state(packed_three(), np.array([0.0, np.inf, 0.0])), ValueError, "non-finite"),
    (lambda: ParticleSystem(np.array([0.0, np.nan]), np.ones(2)), ValueError, "non-finite"),
    (lambda: project_admissible(np.zeros(3), np.zeros(2), np.ones(3)), ValueError, "equal length"),
    (lambda: TwoBlockParams(alpha=0.0), ValueError, "positive"),
    (lambda: TwoBlockParams(t_star=-1.0), ValueError, "positive"),
    (lambda: two_block_force(0.5, 0.0), ValueError, "positive"),
    (lambda: adhesion_potential(np.zeros(3), np.zeros(2), np.ones(3)), ValueError, "equal length"),
    (lambda: Stretch.of(init_state(packed_three(), np.zeros(3))).row(1), IndexError, "not in"),
], ids=["dt", "t_end", "nan-t_end", "step-count", "u0", "position", "projection-lengths", "alpha",
        "t_star", "force-t_star", "adhesion-shapes", "stretch-step"])
def test_library_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


# ---------------------------------------------------------------- step


def test_step_free_flight_no_contact():
    ps = ParticleSystem(np.array([0.0, 5.0, 10.0]), np.ones(3))
    cfg = StepperConfig(dt=0.25, t_end=1.0)
    st = init_state(ps, np.array([1.0, -0.5, 2.0]))
    nxt = step(st, zero_force(), cfg, ps)
    assert nxt.x == pytest.approx(st.x + 0.25 * st.u_free)
    assert len(nxt.blocks) == 0
    assert np.all(nxt.gamma == 0.0)
    assert nxt.t == pytest.approx(0.25)


def test_step_aborts_on_non_finite_force():
    ps = packed_three()
    cfg = StepperConfig(dt=0.1, t_end=1.0)
    st = init_state(ps, np.zeros(3))
    bad = ForceField(lambda t, x: np.full_like(x, np.nan))
    with pytest.raises(Granular1dError):
        step(st, bad, cfg, ps)


def _march(ps, u0, force, cfg):
    return list(run_simulation(ps, u0, force, cfg))


def test_two_block_phase1_free_flight(two_block_params, small_two_block):
    ps = small_two_block
    cfg = StepperConfig(dt=2e-3, t_end=0.5)
    states = _march(ps, np.zeros(ps.n), two_block_params.force(), cfg)
    final = states[-1]
    t = final.t
    # free flight toward the origin: displacement alpha t^2 / 2 up to O(dt)
    expected = ps.positions + np.where(ps.positions < 0, 1, -1) * 0.5 * t**2 / 2
    assert np.max(np.abs(final.x - expected)) < 0.5 * t * cfg.dt
    i, labels = ps.n // 2 - 1, final.blocks.labels
    assert not (labels[i] >= 0 and labels[i] == labels[i + 1])
    # block means of identical free velocities agree to rounding only
    assert np.max(np.abs(final.gamma)) < 1e-15


def test_two_block_contact_and_adhesion(two_block_params, small_two_block):
    ps = small_two_block
    n = ps.n
    cfg = StepperConfig(dt=2e-3, t_end=1.0)
    states = _march(ps, np.zeros(n), two_block_params.force(), cfg)
    i = n // 2 - 1
    merged = [s.t for s in states
              if s.blocks.labels[i] >= 0 and s.blocks.labels[i] == s.blocks.labels[i + 1]]
    assert merged, "blocks never merged"
    assert abs(merged[0] - two_block_params.t1) <= 2 * cfg.dt + 1e-12
    final = states[-1]
    # phase 2 at t = t_star: velocity zero on the merged block, adhesion active
    assert np.max(np.abs(final.u)) < 1e-15
    w = two_block_params.width
    amp = two_block_params.alpha * final.t
    gamma_exact = np.where(
        ps.positions < 0, -amp * (final.x + w), amp * (final.x - w)
    )
    assert np.max(np.abs(final.gamma - gamma_exact)) < 5 * cfg.dt
    assert final.gamma.min() == pytest.approx(-amp, abs=5 * cfg.dt)


def test_invariants_along_two_block_run(two_block_params, small_two_block):
    ps = small_two_block
    cfg = StepperConfig(dt=4e-3, t_end=3.0)  # checks run inside step()
    m = ps.masses
    root_mass = np.sqrt(ps.total_mass)
    prev = None
    for st in run_simulation(ps, np.zeros(ps.n), two_block_params.force(), cfg):
        scale = max(1.0, np.max(np.abs(st.x)))
        assert np.min(np.diff(st.x) - np.diff(ps.packed)) >= -1e-12 * scale
        assert np.max(st.gamma) <= 1e-10
        assert abs(np.dot(m, st.u) - np.dot(m, st.u_free)) <= 1e-12 * ps.total_mass
        if prev is not None:
            rate = weighted_norm(st.x - prev.x, m) / cfg.dt
            bound = 0.0 + st.t * two_block_params.alpha * root_mass
            assert rate <= bound + 1e-9
        prev = st


def test_determinism_bitwise(two_block_params):
    ps = two_block_params.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=1.0)
    a = list(run_simulation(ps, np.zeros(100), two_block_params.force(), cfg))[-1]
    b = list(run_simulation(ps, np.zeros(100), two_block_params.force(), cfg))[-1]
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.gamma, b.gamma)
    assert a.blocks == b.blocks


# ---------------------------------------------------------------- first_root


def test_first_root_is_where_the_polynomial_first_stops_being_positive():
    # a + b t + c t^2: (a, b, c, smallest t >= 0 where it is <= 0)
    cases = [
        (1.0, -1.0, 0.0, 1.0),  # a line reaching zero
        (1.0, 1.0, 0.0, np.inf),  # a rising line
        (1.0, 0.0, 0.0, np.inf),  # a positive constant
        (6.0, -5.0, 1.0, 2.0),  # a dip between the roots 2 and 3
        (1.0, -1.0, 1.0, np.inf),  # a dip that stays positive
        (1.0, -2.0, 1.0, 1.0),  # touching zero at its vertex
        (4.0, 0.0, -1.0, 2.0),  # falling after its top
        (1.0, 1e8, -1.0, 1e8 + 1e-8),  # a far root, no cancellation
        (0.0, -1.0, 5.0, 0.0),  # zero and falling
        (0.0, 1.0, -1.0, 1.0),  # zero, rising, then falling back
        (0.0, 0.0, 1.0, np.inf),  # zero, then rising
        (-1.0, 3.0, 0.0, 0.0),  # not positive at the start
    ]
    a, b, c, want = (np.array(col) for col in zip(*cases))
    got = dynamics.first_root(a, b, c)
    assert got == pytest.approx(want, rel=1e-15)
    assert dynamics.first_root(1.0, -4.0, 0.0) == 0.25  # scalars broadcast


# ---------------------------------------------------------------- picard


@pytest.mark.parametrize(
    "ps, u0, t_end",
    [
        (ParticleSystem(np.array([0.0, 2.0, 5.0]), np.ones(3)), [1.0, 0.0, -1.0], 1.0),
        # a packed zone already spreading apart: valid data, no block at t=0
        (packed_three(), [0.0, 1.0, 2.0], 0.2),
    ],
    ids=["colliding", "packed-spreading"],
)
def test_picard_no_force_matches_marching(ps, u0, t_end):
    cfg = StepperConfig(dt=0.1, t_end=t_end)
    res = picard_solve(ps, np.array(u0), zero_force(), cfg)
    assert res.sweeps <= 2
    march = _march(ps, np.array(u0), zero_force(), cfg)
    assert len(res.states) == len(march)
    for s_p, s_m in zip(res.states, march):
        assert s_p.x == pytest.approx(s_m.x, abs=1e-12)
        assert s_p.u == pytest.approx(s_m.u, abs=1e-12)
        assert s_p.gamma == pytest.approx(s_m.gamma, abs=1e-12)
        assert s_p.blocks == s_m.blocks


def test_picard_agrees_with_marching_precontact(two_block_params, small_two_block):
    ps = small_two_block
    cfg = StepperConfig(dt=2e-3, t_end=0.5)
    res = picard_solve(ps, np.zeros(ps.n), two_block_params.force(), cfg)
    march = _march(ps, np.zeros(ps.n), two_block_params.force(), cfg)
    vel_scale = two_block_params.alpha * two_block_params.t_star
    worst = max(
        weighted_norm(a.x - b.x, ps.masses) for a, b in zip(res.states, march)
    )
    assert worst <= 2 * cfg.dt * vel_scale
    assert all(r <= 0.25 + 0.1 for r in res.residual_ratios)


def test_picard_contraction_factor_smooth_force():
    # Lipschitz force: per-sweep residual ratio in the weighted norm <= 1/4
    ps = build_particles(uniform_blocks([(0.0, 4.0)], height=0.25), 24)
    force = ForceField(lambda t, x: 0.3 * np.cos(x), lipschitz_k=0.3)
    cfg = StepperConfig(dt=0.02, t_end=1.0)
    rng = np.random.default_rng(2)
    res = picard_solve(ps, rng.normal(0, 1, 24), force, cfg, max_iters=60, tol=1e-13)
    meaningful = [
        b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 1e-10
    ]
    assert meaningful, "iteration converged too fast to measure"
    assert max(meaningful) <= 0.25 + 0.1
    # each state's force sum is the running sum, added in step order, of
    # the force sampled at the states before it
    total = np.zeros(24)
    for prev, st in zip(res.states, res.states[1:]):
        total = total + force(prev.t, prev.x)
        assert st.force_sum.tobytes() == total.tobytes(), st.step_index
        # and its free velocity is made of that force sum, as ``step`` makes it
        u_free = st.u_init + cfg.dt * st.force_sum
        assert st.u_free.tobytes() == u_free.tobytes(), st.step_index


def test_picard_nonconvergence_carries_residual():
    ps = build_particles(uniform_blocks([(0.0, 4.0)], height=0.25), 8)
    force = ForceField(lambda t, x: 0.3 * np.cos(x), lipschitz_k=0.3)
    cfg = StepperConfig(dt=0.02, t_end=1.0)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(ps, np.ones(8), force, cfg, max_iters=1, tol=1e-16)
    assert err.value.residual > 0


@pytest.mark.parametrize("max_iters, tol", [(0, 1e-12), (30, 0.0), (30, float("nan"))],
                         ids=["no-sweeps", "zero-tol", "nan-tol"])
def test_picard_rejects_bad_iteration_arguments(max_iters, tol):
    ps = ParticleSystem(np.array([0.0, 2.0, 5.0]), np.ones(3))
    with pytest.raises(ValueError, match="max_iters >= 1 and tol > 0"):
        picard_solve(ps, np.zeros(3), zero_force(), StepperConfig(dt=0.1, t_end=0.2),
                     max_iters=max_iters, tol=tol)


# ---------------------------------------------------------------- force fields


def test_two_block_force_branches():
    # the folded two-block force has the bits of the formula it replaced:
    # compression toward 0 while t < t_star, reversed from t_star on, and
    # -0.0 on the right of the cut, as x < 0.0 puts it
    p = TwoBlockParams(alpha=0.5, t_star=1.0)
    f = p.force()
    x = np.array([-1.0, -0.0, 0.0, 1.0])
    for t in (0.0, np.nextafter(p.t_star, 0.0), p.t_star, 2.0):
        a = p.alpha if t < p.t_star else -p.alpha
        got, want = f(t, x), np.where(x < 0.0, a, -a)
        assert got.tobytes() == want.tobytes(), t
    assert [list(row) for row in f.breakpoints] == [[0.0], [1.0]]


def test_declared_force_takes_the_piece_at_tied_cuts():
    # each call takes, per particle, the value of the time piece that
    # searchsorted(t_cuts, t, side="right") picks and of the x piece that
    # counts the x cuts <= x, across tied x cuts and times at, just below
    # and just above a time cut
    bp, tbp = [-0.5, 0.5, 0.5], [1.0, 1.0 + 2**-20]
    values = [[1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.0], [7.0, 8.0, 9.0, 10.0]]
    f = piecewise_constant_force(bp, values, tbp)
    x = np.array([[-1.0, -0.5, 0.0, 0.5, 0.7], [-0.6, -0.5, 0.49, 0.5, 1.0],
                  [-0.0, 0.0, 0.5, 0.5, 2.0], [-2.0, -0.5, 0.5, 0.5, 0.6]])
    t = [np.nextafter(1.0, 0.0), 1.0, 1.0 + 2**-20, 5.0]
    for tj, xj in zip(t, x):
        got = f(tj, xj)
        row = values[sum(c <= tj for c in tbp)]
        want = np.array([row[sum(c <= xi for c in bp)] for xi in xj])
        assert got.shape == xj.shape and got.tobytes() == want.tobytes(), tj
    assert [f(tj, xj)[3] for tj, xj in zip(t, x)] == [4.0, -4.0, 10.0, 10.0]
    assert f.breakpoints is not None and ForceField(lambda t, x: x).breakpoints is None


def test_declared_force_call_returns_its_evaluation_bits():
    # a declared force skips the finite pass (its values were checked when
    # it was built) and keeps the broadcast: the call returns the bits of
    # the evaluation broadcast to x, as a float array, also for a force
    # with no cut, whose evaluation is one number
    f = piecewise_constant_force([0.0], [[0.1, -0.3], [-0.1, 0.3]], [1.0])
    flat = piecewise_constant_force([], [0.7])
    x = np.array([[-1.0, -0.0, 0.0, 2.5], [-0.2, 0.4, 0.0, -3.0]])
    for force in (f, flat):
        for tt, xx in ((0.5, x[0]), (1.0, x[1])):
            want = np.broadcast_to(np.asarray(force.eval(tt, xx), dtype=float), xx.shape)
            got = force(tt, xx)
            assert got.dtype == np.float64 and got.shape == xx.shape
            assert got.tobytes() == want.tobytes()
    assert flat(0.5, x[0]).tobytes() == np.full(4, 0.7).tobytes()
    # -0.0 is not below the cut 0.0; t = 1.0 takes the reversed piece
    assert f(0.5, x[0]).tobytes() == np.array([0.1, -0.3, -0.3, -0.3]).tobytes()
    assert f(1.0, x[1]).tobytes() == np.array([-0.1, 0.3, 0.3, -0.1]).tobytes()


def test_piecewise_constant_force_tied_breakpoints():
    f = piecewise_constant_force([0.5, 0.5], [1.0, 2.0, 3.0])
    assert list(f(0.0, np.array([0.0, 0.5, 1.0]))) == [1.0, 3.0, 3.0]
    # cuts whose difference overflows are in order too, and their order
    # test raises no overflow warning
    wide = piecewise_constant_force([-1e308, 1e308], [0.0, 1.0, 0.0])
    assert list(wide(0.0, np.array([-np.inf, 0.0, 1e308]))) == [0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "breakpoints, values, t_breakpoints",
    [([0.8, 0.2], [1.0, 0.0, -1.0], ()), ([np.nan], [0.5, -0.5], ()),
     ([np.inf], [0.5, -0.5], ()), ([0.5], [np.inf, -0.5], ()), (0.5, [0.5, -0.5], ()),
     ([0.5], [[0.5], [-0.5]], ()), ([0.5], [0.5], ()),
     ([0.5], [[0.5, -0.5]] * 3, [2.0, 1.0]), ([0.5], [[0.5, -0.5]] * 2, [np.nan]),
     ([0.5], [[0.5, -0.5]] * 3, [1.0]), ([0.5], [0.5, -0.5], [1.0])],
    ids=["unsorted", "nan-cut", "infinite-cut", "infinite-value", "scalar-cut",
         "nested-values", "too-few-values", "unsorted-t-cuts", "nan-t-cut",
         "too-many-value-rows", "flat-values-with-t-cut"],
)
def test_piecewise_constant_force_rejects_unevaluable_cuts(breakpoints, values, t_breakpoints):
    with pytest.raises(ValueError):
        piecewise_constant_force(breakpoints, values, t_breakpoints)


def test_scalar_force_broadcasts_like_a_full_array():
    # a force that returns one number acts on every particle alike
    ps = build_particles(uniform_blocks([(0.0, 1.0), (1.5, 2.5)], 0.5), 20)
    u0 = np.where(ps.positions < 1.2, 1.0, -1.0)
    cfg = StepperConfig(dt=0.05, t_end=1.5)
    scalar = run_simulation(ps, u0, ForceField(lambda t, x: 0.5), cfg)
    full = run_simulation(ps, u0, ForceField(lambda t, x: np.full_like(x, 0.5)), cfg)
    states = list(zip(scalar, full, strict=True))
    assert len(states) == cfg.n_steps + 1
    assert any(len(a.blocks) for a, _ in states)
    for a, b in states:
        for name in ("x", "u", "gamma"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.t, name)
        assert a.blocks == b.blocks
