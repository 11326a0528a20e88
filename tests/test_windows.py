"""Windowed stepping against a stepwise reference built from ``step``.

Between topology events ``run_windows`` advances many steps at once on
a fixed block partition; every row must be the state the PAVA stepper
reaches, up to rounding, with the same partition at every step."""

from dataclasses import replace

import numpy as np
import pytest

from granular1d import (
    ContactTracker,
    ForceField,
    InvariantViolation,
    ParticleSystem,
    PiecewiseDensity,
    Segment,
    StepperConfig,
    TwoBlockParams,
    adhesion_potential,
    build_ratio_system,
    check_state,
    cosine_bump_rho_star,
    init_state,
    picard_solve,
    piecewise_constant_force,
    run_simulation,
    run_windows,
    step,
    zero_force,
)
from granular1d import dynamics
from test_properties import random_force, random_system


def stepwise(ps, u0, force, cfg):
    """The reference run: one ``step`` (one projection) per time step."""
    state = init_state(ps, u0)
    yield state
    for _ in range(cfg.n_steps):
        state = step(state, force, cfg, ps)
        yield state


def assert_matches_stepwise(ps, u0, force, cfg):
    ref = list(stepwise(ps, u0, force, cfg))
    got = list(run_simulation(ps, u0, force, cfg))
    assert len(got) == len(ref)
    interface = (ps.n // 2 - 1, ps.n // 2)
    trackers = ContactTracker(interface), ContactTracker(interface)
    for a, b in zip(ref, got):
        assert (b.t, b.step_index) == (a.t, a.step_index)
        assert b.blocks == a.blocks
        for name, va, vb in [("x", a.x, b.x), ("u", a.u, b.u),
                             ("gamma", a.gamma, b.gamma)]:
            scale = max(1.0, float(np.max(np.abs(va))))
            assert np.max(np.abs(va - vb)) <= 1e-12 * scale, (name, a.step_index)
        trackers[0].observe(a.t, a.blocks)
        trackers[1].observe(b.t, b.blocks)
    assert (trackers[1].contact_time, trackers[1].separation_time) == (
        trackers[0].contact_time, trackers[0].separation_time)


def multi_row(windows):
    return [w for w in windows if len(w) >= 2]


def two_block_run():
    p = TwoBlockParams()
    return p.build(200), p.force(), StepperConfig(dt=2e-3, t_end=2.5)


def heterogeneous_run():
    star = cosine_bump_rho_star()
    density = PiecewiseDensity([Segment(0.0, 1.0, lambda x: 0.8 * star(x))])
    force = piecewise_constant_force([0.5], [0.5, -0.5])
    return build_ratio_system(density, star, 300), force, StepperConfig(dt=2e-3, t_end=0.8)


def test_two_block_matches_stepwise():
    ps, force, cfg = two_block_run()
    assert multi_row(run_windows(ps, np.zeros(ps.n), force, cfg))
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


def test_heterogeneous_matches_stepwise():
    ps, force, cfg = heterogeneous_run()
    assert multi_row(run_windows(ps, np.zeros(ps.n), force, cfg))
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


def test_only_declared_forces_get_windows():
    # a plain callable declares no breakpoints, so every step after t=0
    # is a one-row window with the bits of the stepwise run; the same
    # colliding blocks under a declared force (zero) still get windows
    ps, _, cfg = two_block_run()
    u0 = np.where(ps.positions < 0.0, 0.3, -0.3)
    plain = ForceField(lambda t, x: np.full_like(x, 0.5))
    windows = list(run_windows(ps, u0, plain, cfg))
    assert [len(w) for w in windows] == [1] * (cfg.n_steps + 1)
    for w, ref in zip(windows, stepwise(ps, u0, plain, cfg), strict=True):
        assert w.blocks == ref.blocks
        for name in PER_ROW:
            assert np.array_equal(getattr(w, name)[0], getattr(ref, name)), (name, ref.step_index)
    assert multi_row(run_windows(ps, u0, zero_force(), cfg))
    assert_matches_stepwise(ps, u0, zero_force(), cfg)


@pytest.mark.parametrize("setup", [two_block_run, heterogeneous_run],
                         ids=["two-block", "heterogeneous"])
def test_derived_fields_are_exact(setup):
    # every state and window carries x, gamma and slack derived bit for
    # bit from its offset, its velocities and its own x
    ps, force, cfg = setup()
    u0 = np.zeros(ps.n)

    def assert_derived(st):
        assert np.array_equal(st.x, ps.packed + st.s)
        assert np.array_equal(st.gamma, adhesion_potential(st.u, st.u_free, ps.masses))
        gaps = np.diff(st.x) - np.diff(ps.packed)
        assert np.array_equal(st.slack, gaps.min(axis=-1, initial=np.inf))

    for st in stepwise(ps, u0, force, cfg):  # init_state, then step
        assert_derived(st)
    windows = list(run_windows(ps, u0, force, cfg))
    assert multi_row(windows)
    for w in windows:
        assert_derived(w)
    # the Picard reference holds up to the first release
    picard = picard_solve(ps, u0, force, replace(cfg, t_end=0.8))
    for st in picard.states:
        assert_derived(st)


@pytest.mark.parametrize("seed", range(12))
def test_random_scenarios_match_stepwise(seed):
    # the scenarios of test_properties.test_random_scenarios_keep_all_invariants
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(20, 70))
    ps = random_system(rng, n)
    u0 = rng.normal(0, 1.0, n)
    cfg = StepperConfig(dt=float(rng.uniform(0.005, 0.02)), t_end=2.0)
    assert_matches_stepwise(ps, u0, random_force(rng), cfg)


def test_exact_tie_is_a_contact():
    # dyadic data: two particles meet with exactly tied offsets at step 3,
    # which the projection pools, so a window must not run past it
    ps = ParticleSystem(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    u0 = np.array([1.0, -1.0])
    cfg = StepperConfig(dt=0.25, t_end=1.25)
    assert_matches_stepwise(ps, u0, zero_force(), cfg)
    states = list(run_simulation(ps, u0, zero_force(), cfg))
    assert [len(st.blocks) for st in states] == [0, 0, 0, 1, 1, 1]


def test_windows_stop_at_reversal_and_release(monkeypatch):
    p = TwoBlockParams()
    ps = p.build(200)
    cfg = StepperConfig(dt=2e-3, t_end=2.5)
    stepped = []

    def spy(state, *args):
        out = step(state, *args)
        stepped.append(out.step_index)
        return out

    monkeypatch.setattr(dynamics, "step", spy)
    windows = list(run_windows(ps, np.zeros(ps.n), p.force(), cfg))
    # row k is advanced with the force sampled at step k - 1; the force
    # reverses from the sample at t_star on
    reversal = round(p.t_star / cfg.dt)
    for w in multi_row(windows):
        assert not w.step_index[0] - 1 < reversal <= w.step_index[-1] - 1
    # every change of partition, contact and release included, is a step
    changes = [b.step_index[0] for a, b in zip(windows, windows[1:]) if a.blocks != b.blocks]
    interface = (ps.n // 2 - 1, ps.n // 2)
    release = next(w.step_index[0] for w in windows
                   if w.t[0] > p.t_star and not w.blocks.spans(*interface))
    assert release in changes
    assert set(changes) <= set(stepped)
    assert len(stepped) < cfg.n_steps // 10


def test_corrupted_row_names_its_time_and_step():
    p = TwoBlockParams()
    ps = p.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=0.4)
    win = next(w for w in run_windows(ps, np.zeros(ps.n), p.force(), cfg) if len(w) >= 3)
    gamma = win.gamma.copy()
    gamma[1, 10] = 1.0
    with pytest.raises(InvariantViolation) as err:
        check_state(replace(win, gamma=gamma), ps)
    assert err.value.check == "gamma_sign"
    assert (err.value.t, err.value.step) == (win.t[1], win.step_index[1])
    # the first failing row wins over an earlier check on a later row
    x = win.x.copy()
    x[2, 1] = x[2, 0]
    with pytest.raises(InvariantViolation) as err:
        check_state(replace(win, x=x, gamma=gamma), ps)
    assert (err.value.check, err.value.step) == ("gamma_sign", win.step_index[1])


@pytest.mark.parametrize("step_fails_too", [False, True])
def test_failing_window_row_is_left_to_step(monkeypatch, step_fails_too):
    # a row the gate rejects ends its window; the rows before it are
    # yielded, and ``step`` recomputes the row, whose state the gate
    # then passes or rejects as in a stepwise run
    p = TwoBlockParams()
    ps = p.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=0.4)
    bad = 30
    gate = dynamics.check_state

    def gate_failing_at_bad(state, ps_):
        steps = np.atleast_1d(state.step_index)
        if bad in steps and (step_fails_too or len(steps) > 1):
            raise InvariantViolation("gamma_sign", 1.0, t=bad * cfg.dt, step=bad)
        return gate(state, ps_)

    monkeypatch.setattr(dynamics, "check_state", gate_failing_at_bad)
    seen = []
    run = run_windows(ps, np.zeros(ps.n), p.force(), cfg)
    if step_fails_too:
        with pytest.raises(InvariantViolation) as err:
            for w in run:
                seen.extend(w.step_index.tolist())
        assert err.value.step == bad
        assert seen == list(range(bad))
        return
    windows = list(run)
    assert [k for w in windows for k in w.step_index.tolist()] == list(range(cfg.n_steps + 1))
    assert next(len(w) for w in windows if bad in w.step_index) == 1
    assert any(len(w) > 1 and w.step_index[-1] == bad - 1 for w in windows)


PER_ROW = ("u_free", "x", "u", "gamma", "s", "force_sum")


def assert_same_state(a, b):
    assert (type(a.t), type(a.step_index), type(a.slack)) == (float, int, float)
    assert (a.t, a.step_index, a.slack) == (b.t, b.step_index, b.slack)
    assert a.blocks == b.blocks and a.u_init is b.u_init
    for name in PER_ROW:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("n", [50, 200, 3000])
def test_window_arrays_stay_within_the_cell_cap(n, monkeypatch):
    # also: a window's rows are its states, and the state it hands on to
    # the next window or step is a copy of its last row
    p = TwoBlockParams()
    ps = p.build(n)
    cfg = StepperConfig(dt=2e-3, t_end=1.2)
    handed = [None]  # the last state run_windows handed to a window or step
    for name in ("step", "_window"):
        def spy(state, *args, _f=getattr(dynamics, name)):
            handed[-1] = state
            return _f(state, *args)
        monkeypatch.setattr(dynamics, name, spy)
    prev, multi = None, 0
    for w in run_windows(ps, np.zeros(n), p.force(), cfg):
        for a in (w.u_free, w.x, w.u, w.gamma, w.s, w.force_sum):
            base = a if a.base is None else a.base
            assert base.size <= max(n, dynamics._WINDOW_CELLS)
        if prev is not None:  # run_windows has handed on prev's last row
            assert_same_state(handed[-1], prev.row(-1))
            for name in PER_ROW if len(prev) >= 2 else ():
                assert not np.shares_memory(getattr(handed[-1], name), getattr(prev, name))
        if len(w) >= 2:
            multi += 1
            for j in (0, len(w) // 2, len(w) - 1):
                st = w.row(j)
                assert st.x.shape == (n,) and len(st) == 1
                assert (st.t, st.step_index, st.slack) == (w.t[j], w.step_index[j], w.slack[j])
                for name in PER_ROW:
                    assert np.array_equal(getattr(st, name), getattr(w, name)[j]), name
                one = st.as_window()
                assert one.x.shape == (1, n) and np.shares_memory(one.x, st.x)
                assert_same_state(one.row(0), st)
        prev = w
    assert multi
