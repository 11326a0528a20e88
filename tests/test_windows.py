"""Closed-form stretches against a stepwise reference built from ``step``.

Between topology events ``run_windows`` jumps over many steps at once on
a block partition that changes only where particles join a block; every
row must be the state the PAVA stepper reaches, up to rounding, with the
same partition at every step."""

from dataclasses import replace

import numpy as np
import pytest

from granular1d import (
    BlockPartition,
    ContactTracker,
    ForceField,
    InvariantViolation,
    ParticleSystem,
    PiecewiseDensity,
    Segment,
    StepperConfig,
    Stretch,
    TwoBlockParams,
    adhesion_potential,
    block_velocity,
    build_particles,
    build_ratio_system,
    check_state,
    cosine_bump_rho_star,
    init_state,
    picard_solve,
    piecewise_constant_force,
    project_monotone,
    run_simulation,
    run_windows,
    step,
    uniform_blocks,
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


def multi_row(stretches):
    return [w for w in stretches if len(w.steps) >= 2]


def two_block_run():
    p = TwoBlockParams()
    return p.build(200), p.force(), StepperConfig(dt=2e-3, t_end=2.5)


def heterogeneous_run():
    star = cosine_bump_rho_star()
    density = uniform_blocks([(0.0, 1.0)], 0.8)
    force = piecewise_constant_force([0.5], [0.5, -0.5])
    return build_ratio_system(density, star, 300), force, StepperConfig(dt=2e-3, t_end=0.8)


def partially_filled_run(fill=0.5):
    p = TwoBlockParams()
    ps = build_particles(uniform_blocks([(p.a1, p.b1), (p.a2, p.b2)], fill), 200)
    return ps, p.force(), StepperConfig(dt=2e-3, t_end=2.6)


def growth_front_run():
    # the shipped heterogeneous config at hetero-compress's cut: one block,
    # which particles join at most of its 800 steps
    star = cosine_bump_rho_star()
    density = uniform_blocks([(0.0, 1.0)], 0.8)
    force = piecewise_constant_force([0.534743], [0.5, -0.5])
    return build_ratio_system(density, star, 1000), force, StepperConfig(dt=1e-3, t_end=0.8)


def three_block_run():
    # records-heavy's three density blocks under its compressive force: the
    # middle one, nearly at the maximal density, congests and grows
    density = PiecewiseDensity([Segment(-1.465257, -0.473623, 0.526873),
                                Segment(-0.300456, 0.294949, 0.962753),
                                Segment(0.528872, 1.459386, 0.630319)])
    force = piecewise_constant_force([0.0], [0.5, -0.5])
    return build_particles(density, 600), force, StepperConfig(dt=1e-3, t_end=0.3)


def front_run(seed):
    # up to three clusters, some at the maximal density, under a
    # piecewise-constant force that pushes them together across each cut of
    # even index: blocks form and grow by arrivals at their fronts
    rng = np.random.default_rng(seed)
    n, x, segments = int(rng.integers(50, 401)), float(rng.uniform(-1.5, -0.5)), []
    for _ in range(int(rng.integers(1, 4))):
        width = float(rng.uniform(0.1, 0.8))
        height = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.3, 0.95))
        segments.append(Segment(x, x + width, height))
        x += width + float(rng.uniform(0.02, 0.4))
    ps = build_particles(PiecewiseDensity(segments), n)
    cuts = np.sort(rng.uniform(-1.2, 1.2, int(rng.integers(1, 4))))
    values = [(-1.0) ** k * float(rng.uniform(0.2, 1.0)) for k in range(cuts.size + 1)]
    if rng.random() < 0.3:  # the force halves at a time cut
        force = piecewise_constant_force(cuts, [values, [v / 2 for v in values]],
                                         [float(rng.uniform(0.1, 0.4))])
    else:
        force = piecewise_constant_force(cuts, values)
    u0 = np.zeros(n) if rng.random() < 0.6 else rng.normal(0, 0.05, n)
    dt = float(rng.choice([1e-3, 2e-3, 4e-3]))
    return ps, u0, force, StepperConfig(dt=dt, t_end=round(float(rng.uniform(0.3, 0.8)) / dt) * dt)


def slow_release_run():
    # one saturated block pulled apart by forces far below the gate's gamma
    # sign tolerance 1e-10 * M: only the release test (c) sees it come apart
    ps = build_particles(uniform_blocks([(0.0, 1.0)]), 200)
    force = piecewise_constant_force([0.5], [[1e-9, -1.3e-9], [-1e-9, 1.3e-9]], [0.5])
    return ps, force, StepperConfig(dt=2e-3, t_end=1.5)


def test_two_block_matches_stepwise():
    ps, force, cfg = two_block_run()
    assert multi_row(run_windows(ps, np.zeros(ps.n), force, cfg))
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


def test_heterogeneous_matches_stepwise():
    ps, force, cfg = heterogeneous_run()
    assert multi_row(run_windows(ps, np.zeros(ps.n), force, cfg))
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


@pytest.mark.parametrize("fill", [0.5, 0.8])
def test_partially_filled_two_block_matches_stepwise(fill):
    # the two-block geometry below the maximal density: each particle that
    # reaches the growing central zone is a contact, so events are dense
    ps, force, cfg = partially_filled_run(fill)
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


@pytest.mark.parametrize("setup", [growth_front_run, three_block_run],
                         ids=["heterogeneous-1000", "three-block"])
def test_growth_fronts_match_stepwise(setup):
    # particles join a block at most steps: a stretch takes them in at
    # their rows, and its pieces are the stepwise run's partitions
    ps, force, cfg = setup()
    stretches = list(run_windows(ps, np.zeros(ps.n), force, cfg))
    assert max(len(list(w.pieces())) for w in stretches) >= 50
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


@pytest.mark.parametrize("setup", [growth_front_run, three_block_run],
                         ids=["front", "three-blocks"])
def test_one_row_roots_only_save_solves(setup, monkeypatch):
    # a block that just grew gets one-row roots; solving its roots at once
    # instead gives the same stretches, arrivals and rows bit for bit, with
    # more roots solved
    ps, force, cfg = setup()
    solved = 0
    first_root = dynamics.first_root

    def counting(*args):
        nonlocal solved
        solved += 1
        return first_root(*args)

    def run():
        nonlocal solved
        solved = 0
        stretches = [(w.steps, w.form and w.form.arrivals, list(w.rows(w.steps)))
                     for w in run_windows(ps, np.zeros(ps.n), force, cfg)]
        return stretches, solved

    monkeypatch.setattr(dynamics, "first_root", counting)
    fast, fast_solved = run()
    reroot = dynamics._Stretcher.reroot
    monkeypatch.setattr(dynamics._Stretcher, "reroot",
                        lambda self, b, c, grew: reroot(self, b, c, False))
    slow, slow_solved = run()
    assert [(steps, arrivals) for steps, arrivals, _ in fast] == [
        (steps, arrivals) for steps, arrivals, _ in slow]
    for (_, _, a), (_, _, b) in zip(fast, slow):
        for x, y in zip(a, b, strict=True):
            assert (x.step_index, x.blocks, x.slack, x.gamma_max) == (
                y.step_index, y.blocks, y.slack, y.gamma_max)
            for name in PER_ROW:
                assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), name
    assert sum(len(arrivals or ()) for _, arrivals, _ in fast) >= 100
    assert fast_solved < slow_solved


@pytest.mark.parametrize("setup", [heterogeneous_run, two_block_run, partially_filled_run],
                         ids=["heterogeneous", "two-block", "partial-fill"])
def test_step_is_its_public_layers_bit_for_bit(setup):
    # ``step`` reads the run constants and the labels its projection
    # hands over; every state of a stepwise run has the bits of the state
    # rebuilt from the public layers, the projection checking its
    # arguments and the partition deriving its masks from its bounds
    ps, force, cfg = setup()
    m = ps.masses
    run = stepwise(ps, np.zeros(ps.n), force, cfg)
    prev = next(run)
    for got in run:
        force_sum = prev.force_sum + force(prev.t, prev.x)
        u_free = prev.u_init + cfg.dt * force_sum
        s, fit_blocks = project_monotone(prev.s + cfg.dt * u_free, m)
        blocks = BlockPartition(fit_blocks.lo, fit_blocks.hi, ps.n)
        k = prev.step_index + 1
        want = check_state(dynamics._states(ps, k * cfg.dt, k, s, u_free,
                                            block_velocity(u_free, blocks, m), blocks,
                                            force_sum, prev.u_init), ps)
        assert (got.t, got.step_index, got.blocks) == (want.t, want.step_index, want.blocks)
        assert got.slack.hex() == want.slack.hex(), k
        for name in PER_ROW:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, k)
        prev = got


def test_only_declared_forces_get_windows():
    # a plain callable declares no breakpoints, so every step after t=0
    # is a one-state stretch with the bits of the stepwise run; the same
    # colliding blocks under a declared force (zero) still get stretches
    ps, _, cfg = two_block_run()
    u0 = np.where(ps.positions < 0.0, 0.3, -0.3)
    plain = ForceField(lambda t, x: np.full_like(x, 0.5))
    stretches = list(run_windows(ps, u0, plain, cfg))
    assert [len(w.steps) for w in stretches] == [1] * (cfg.n_steps + 1)
    for w, ref in zip(stretches, stepwise(ps, u0, plain, cfg), strict=True):
        assert w.blocks == ref.blocks and w.row(ref.step_index) is w.last
        for name in PER_ROW:
            assert np.array_equal(getattr(w.last, name), getattr(ref, name)), (name, ref.step_index)
    assert multi_row(run_windows(ps, u0, zero_force(), cfg))
    assert_matches_stepwise(ps, u0, zero_force(), cfg)


@pytest.mark.parametrize("setup", [two_block_run, heterogeneous_run, growth_front_run,
                                   three_block_run],
                         ids=["two-block", "heterogeneous", "front", "three-blocks"])
def test_derived_fields_are_exact(setup):
    # every state, stepped or a stretch's row, carries x, gamma and slack
    # derived bit for bit from its offset, its velocities and its own x;
    # a stretch's row j after ``start`` has force_sum = fs0 + j*f, with
    # u_free and u from it as ``step`` forms them.  Each row's partition is
    # its piece's, so contact trackers fed the pieces (at their first
    # steps) and fed every row report the same times, at interfaces across
    # the run's growing fronts too
    ps, force, cfg = setup()
    u0 = np.zeros(ps.n)
    interfaces = [(i, i + 1) for i in range(0, ps.n - 1, max(1, ps.n // 40))]
    by_piece = [ContactTracker(i) for i in interfaces]
    by_row = [ContactTracker(i) for i in interfaces]

    def assert_derived(st):
        assert np.array_equal(st.x, ps.packed + st.s)
        assert np.array_equal(st.gamma, adhesion_potential(st.u, st.u_free, ps.masses))
        gaps = np.diff(st.x) - np.diff(ps.packed)
        assert st.slack == gaps.min(initial=np.inf)

    for st in stepwise(ps, u0, force, cfg):  # init_state, then step
        assert_derived(st)
    stretches = list(run_windows(ps, u0, force, cfg))
    assert multi_row(stretches)
    for w in stretches:
        assert_derived(w.last)
        pieces = list(w.pieces())
        assert [k for k, _ in pieces] == sorted({k for k, _ in pieces}) and pieces[0][0] == w.steps[0]
        for k, blocks in pieces:
            for tracker in by_piece:
                tracker.observe(k * cfg.dt, blocks)
        for k, st in zip(w.steps, w.rows(w.steps), strict=True):
            assert_derived(st)
            blocks = next(b for first, b in reversed(pieces) if first <= k)  # k's piece
            assert st.blocks == blocks and (st.t, st.step_index) == (k * cfg.dt, k)
            for tracker in by_row:
                tracker.observe(st.t, st.blocks)
            if w.form is None:
                continue
            form, j = w.form, k - w.form.k0
            assert np.array_equal(st.force_sum, form.fs0 + j * form.f)
            assert np.array_equal(st.u_free, form.u_init + cfg.dt * st.force_sum)
            assert np.array_equal(st.u, block_velocity(st.u_free, blocks, ps.masses))
    times = [(t.contact_time, t.separation_time) for t in by_piece]
    assert times == [(t.contact_time, t.separation_time) for t in by_row]
    assert sum(contact is not None for contact, _ in times) >= 10
    if setup in (two_block_run, heterogeneous_run):
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


FRONT_SEEDS = range(20)


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 12: two blocks of a cluster at the maximal density move "
               "together 1 ulp apart; at step 111 step's offsets round to a tie and pool "
               "them, the closed form keeps them 1 ulp apart")) if seed == 15 else seed
    for seed in FRONT_SEEDS])
def test_random_fronts_match_stepwise(seed):
    # the stretches take in the arrivals of random growing fronts with the
    # partitions of the stepwise run at every step, and its fields up to rounding
    assert_matches_stepwise(*front_run(seed))


def test_random_fronts_take_arrivals():
    # the random fronts above are arrivals, not only whole stretches
    assert sum(len(w.form.arrivals) for seed in FRONT_SEEDS
               for w in run_windows(*front_run(seed)) if w.form) >= 300


@pytest.mark.parametrize("setup", [two_block_run, heterogeneous_run, partially_filled_run,
                                   slow_release_run],
                         ids=["two-block", "heterogeneous", "fill-0.5", "slow-release"])
def test_late_roots_leave_rows_to_step(setup, monkeypatch):
    # every root five rows late names an end row past an event, which the
    # stretch's gate refuses: the refused stretch's rows are left to
    # ``step``, so the run still matches the stepwise one
    ps, force, cfg = setup()
    u0 = np.zeros(ps.n)
    stepped = count_steps(monkeypatch)
    list(run_windows(ps, u0, force, cfg))
    on_time = len(stepped)
    root = dynamics.first_root
    monkeypatch.setattr(dynamics, "first_root", lambda a, b, c: root(a, b, c) + 5)
    stepped.clear()
    list(run_windows(ps, u0, force, cfg))
    assert len(stepped) > on_time
    assert_matches_stepwise(ps, u0, force, cfg)


@pytest.mark.parametrize("a, t_star", [
    pytest.param(1e-9, 0.5003, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 12: at step 502 the force sums' rounding residues have "
               "opposite signs; run_simulation splits the block, step keeps it whole")),
    pytest.param(1e-3, 0.5, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 12: at step 500 the force sums' rounding residues have "
               "opposite signs; step splits the block, run_simulation keeps it whole")),
    (0.5, 0.5),
])
def test_cancelled_force_sums_decide_no_tie(a, t_star):
    # one saturated block pulled apart by forces that reverse at t_star:
    # where the force sums cancel, only their rounding is left to decide
    # whether the block splits, and each engine rounds them its own way
    ps = build_particles(uniform_blocks([(0.0, 1.0)]), 200)
    force = piecewise_constant_force([0.5], [[a, -a], [-a, a]], [t_star])
    cfg = StepperConfig(dt=2e-3, t_end=1.5)
    assert_matches_stepwise(ps, np.zeros(ps.n), force, cfg)


def test_exact_tie_is_a_contact():
    # dyadic data: two particles meet with exactly tied offsets at step 3,
    # which the projection pools, so a stretch must not run past it
    ps = ParticleSystem(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    u0 = np.array([1.0, -1.0])
    cfg = StepperConfig(dt=0.25, t_end=1.25)
    assert_matches_stepwise(ps, u0, zero_force(), cfg)
    states = list(run_simulation(ps, u0, zero_force(), cfg))
    assert [len(st.blocks) for st in states] == [0, 0, 0, 1, 1, 1]


def count_steps(monkeypatch):
    stepped = []

    def spy(state, *args):
        out = step(state, *args)
        stepped.append(out.step_index)
        return out

    monkeypatch.setattr(dynamics, "step", spy)
    return stepped


def test_windows_stop_at_reversal_and_release(monkeypatch):
    p = TwoBlockParams()
    ps = p.build(200)
    cfg = StepperConfig(dt=2e-3, t_end=2.5)
    stepped = count_steps(monkeypatch)
    stretches = list(run_windows(ps, np.zeros(ps.n), p.force(), cfg))
    # row k is advanced with the force sampled at step k - 1; the force
    # reverses from the sample at t_star on
    reversal = round(p.t_star / cfg.dt)
    for w in multi_row(stretches):
        assert not w.steps[0] - 1 < reversal <= w.steps[-1] - 1
    # every change of partition, contact and release included, is a step
    changes = [b.steps[0] for a, b in zip(stretches, stretches[1:]) if a.blocks != b.blocks]
    i = ps.n // 2 - 1
    release = next(w.steps[0] for w in stretches if w.steps[0] * cfg.dt > p.t_star
                   and not (w.blocks.labels[i] >= 0 and w.blocks.labels[i] == w.blocks.labels[i + 1]))
    assert release in changes
    assert set(changes) <= set(stepped)
    assert len(stepped) < cfg.n_steps // 10


def test_covering_rows_catch_a_force_change_no_root_predicts(monkeypatch):
    # the two-block force with its reversal time hidden: no root ends a
    # stretch at the reversal, so (a) finds it on a covering row, whose
    # force sample is reversed, and refuses the stretch
    ps, f, cfg = two_block_run()
    t_star = TwoBlockParams().t_star
    sampled, tries, stretch = [], [], dynamics._stretch

    def hidden_eval(t, x):
        sampled.append(t)
        return f.eval(t, x)

    hidden = ForceField(hidden_eval, breakpoints=(f.breakpoints[0], np.array([])))

    def spy(state, *args):
        sampled.clear()
        out = stretch(state, *args)
        tries.append((state.t, max(sampled), out))
        return out

    monkeypatch.setattr(dynamics, "_stretch", spy)
    stretches = list(run_windows(ps, np.zeros(ps.n), hidden, cfg))
    across = [out for t, last, out in tries if t < t_star <= last]
    assert across and all(out is None for out in across)
    reversal = round(t_star / cfg.dt)
    for w in multi_row(stretches):
        assert not w.steps[0] - 1 < reversal <= w.steps[-1] - 1
    assert_matches_stepwise(ps, np.zeros(ps.n), hidden, cfg)


def test_shipped_two_block_run_is_a_few_stretches(monkeypatch):
    # the shipped geometry and grid: free flight, the glued phase before
    # and after the reversal, and the flight after the release are one
    # stretch each, with single steps at contact, reversal and release
    p = TwoBlockParams()
    ps = p.build(2000)
    cfg = StepperConfig(dt=1e-3, t_end=3.0)
    stepped = count_steps(monkeypatch)
    stretches = list(run_windows(ps, np.zeros(ps.n), p.force(), cfg))
    assert [k for w in stretches for k in w.steps] == list(range(cfg.n_steps + 1))
    assert [w.steps for w in multi_row(stretches)] == [
        range(3, 640), range(643, 1001), range(1002, 2000), range(2004, 3001)]
    assert stepped == [1, 2, 640, 641, 642, 1001, 2000, 2001, 2002, 2003]


def test_heterogeneous_run_is_a_few_stretches(monkeypatch):
    # the block forms by step 18 and particles join it at 149 rows until it
    # holds all 300: one stretch takes them all in, up to the end; ``step``
    # runs only at the start and at the block's formation (264 times when
    # every arrival was a step)
    ps, force, cfg = heterogeneous_run()
    stepped = count_steps(monkeypatch)
    stretches = list(run_windows(ps, np.zeros(ps.n), force, cfg))
    assert [k for w in stretches for k in w.steps] == list(range(cfg.n_steps + 1))
    assert stepped == [1, 2, 18, 19, 20]
    assert [(w.steps, len(list(w.pieces()))) for w in multi_row(stretches)] == [
        (range(3, 18), 1), (range(21, 401), 150)]
    assert stretches[-1].blocks == BlockPartition([0], [299], 300)
    # where the roots end the stretches of the growth fronts, and how many
    # arrivals each takes in; single steps fill the rest
    for setup, shape in [
        (growth_front_run, [(3, 20, 0), (23, 635, 434), (636, 675, 20), (676, 708, 0),
                            (709, 740, 0), (741, 770, 0), (771, 800, 0)]),
        (three_block_run, [(3, 15, 0), (18, 218, 103), (219, 301, 0)]),
    ]:
        ps, force, cfg = setup()
        stretches = list(run_windows(ps, np.zeros(ps.n), force, cfg))
        assert [k for w in stretches for k in w.steps] == list(range(cfg.n_steps + 1))
        assert [(w.steps.start, w.steps.stop, len(w.form.arrivals))
                for w in multi_row(stretches)] == shape, setup.__name__


def test_corrupted_row_names_its_time_and_step(monkeypatch):
    p = TwoBlockParams()
    ps = p.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=0.4)
    w = next(w for w in run_windows(ps, np.zeros(ps.n), p.force(), cfg) if len(w.steps) >= 3)
    st = w.row(w.steps[1])
    gamma = st.gamma.copy()
    gamma[10] = 1.0
    with pytest.raises(InvariantViolation) as err:
        check_state(replace(st, gamma=gamma), ps)
    assert err.value.check == "gamma_sign"
    assert (err.value.t, err.value.step) == (st.t, st.step_index)
    # a run whose rows fail gamma_sign from step 20 on and, from step 40
    # on, also feasibility (an earlier check) stops at step 20 with
    # gamma_sign: the first failing row wins over an earlier check on a
    # later row, which a stretch checks before it
    gate = dynamics.check_state

    def corrupting_gate(state, ps_):
        if state.step_index >= 20:
            gamma = state.gamma.copy()
            gamma[10] = 1.0
            state = replace(state, gamma=gamma)
        if state.step_index >= 40:
            x = state.x.copy()
            x[1] = x[0]
            state = replace(state, x=x)
        return gate(state, ps_)

    monkeypatch.setattr(dynamics, "check_state", corrupting_gate)
    seen = []
    with pytest.raises(InvariantViolation) as err:
        for w in run_windows(ps, np.zeros(ps.n), p.force(), cfg):
            seen.extend(w.steps)
    assert (err.value.check, err.value.step, err.value.t) == ("gamma_sign", 20, 20 * cfg.dt)
    assert seen == list(range(20))


def test_failing_run_names_its_particle(monkeypatch):
    # rows that fail gamma_sign at particle 10 from step 20 on: the
    # stretch is refused, ``step`` stops the run at step 20, and the
    # error names the particle
    p = TwoBlockParams()
    ps = p.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=0.4)
    gate = dynamics.check_state

    def corrupting_gate(state, ps_):
        if state.step_index >= 20:
            gamma = state.gamma.copy()
            gamma[10] = 1.0
            state = replace(state, gamma=gamma)
        return gate(state, ps_)

    monkeypatch.setattr(dynamics, "check_state", corrupting_gate)
    with pytest.raises(InvariantViolation) as err:
        for _ in run_windows(ps, np.zeros(ps.n), p.force(), cfg):
            pass
    assert (err.value.check, err.value.step, err.value.index) == ("gamma_sign", 20, 10)


@pytest.mark.parametrize("step_fails_too", [False, True])
def test_failing_window_row_is_left_to_step(monkeypatch, step_fails_too):
    # a stretch with a row the gate rejects is refused whole, and
    # ``step`` recomputes its rows, whose states the gate then passes or
    # rejects as in a stepwise run.  The stand-in gate rejects every
    # closed-form row from step ``bad`` on.  When ``step`` passes, the run
    # goes on past the contact at step 160, so the free flight before it
    # is a stretch that ends before ``bad`` and the glued phase after it
    # is left to ``step``
    p = TwoBlockParams()
    ps = p.build(100)
    cfg = StepperConfig(dt=4e-3, t_end=0.4 if step_fails_too else 0.8)
    bad = 30 if step_fails_too else 170
    gate, stepper = dynamics.check_state, dynamics.step
    stepping, made = [False], []

    def step_spy(*args):
        stepping[0] = True
        try:
            made.append(stepper(*args))
            return made[-1]
        finally:
            stepping[0] = False

    def gate_failing_from_bad(state, ps_):
        k = state.step_index
        if k >= bad and (not stepping[0] or (step_fails_too and k == bad)):
            raise InvariantViolation("gamma_sign", 1.0, t=state.t, step=k)
        return gate(state, ps_)

    monkeypatch.setattr(dynamics, "step", step_spy)
    monkeypatch.setattr(dynamics, "check_state", gate_failing_from_bad)
    seen = []
    run = run_windows(ps, np.zeros(ps.n), p.force(), cfg)
    if step_fails_too:
        with pytest.raises(InvariantViolation) as err:
            for w in run:
                seen.extend(w.steps)
        assert err.value.step == bad
        assert seen == list(range(bad))
        return
    stretches = list(run)
    assert [k for w in stretches for k in w.steps] == list(range(cfg.n_steps + 1))
    late = [w for w in stretches if w.steps[-1] >= bad]
    assert [w.steps for w in late] == [range(k, k + 1) for k in range(bad, cfg.n_steps + 1)]
    assert all(any(w.last is st for st in made) for w in late)
    assert any(len(w.steps) > 1 and w.steps[-1] < bad for w in stretches)


PER_ROW = ("u_free", "x", "u", "gamma", "s", "force_sum")


def assert_same_state(a, b):
    assert (type(a.t), type(a.step_index), type(a.slack), type(a.gamma_max)) == (
        float, int, float, float)
    assert (a.t, a.step_index, a.slack, a.gamma_max) == (
        b.t, b.step_index, b.slack, b.gamma_max)
    assert a.blocks == b.blocks and a.u_init is b.u_init
    for name in PER_ROW:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def held_arrays(obj):
    """The arrays a stretch holds, through its states, closed form and the
    containers they hold."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple, dict)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from held_arrays(value)
    elif isinstance(obj, (Stretch, dynamics._ClosedForm, dynamics.SimState, ParticleSystem)):
        for value in vars(obj).values():
            yield from held_arrays(value)


@pytest.mark.parametrize("n", [50, 200, 3000, "heterogeneous"])
def test_stretch_arrays_stay_within_n(n, monkeypatch):
    # a stretch holds no array larger than one field of n particles,
    # whatever its length and however many arrivals it takes in (each is
    # a few numbers); its rows are its states, and the state it hands on
    # to the next stretch or step is a copy of its last row.  The two-block
    # run has n particles, the heterogeneous fixture 300 and 149 arrivals
    if n == "heterogeneous":
        ps, force, cfg = heterogeneous_run()
        n = ps.n
    else:
        p = TwoBlockParams()
        ps, force, cfg = p.build(n), p.force(), StepperConfig(dt=2e-3, t_end=1.2)
    handed = [None]  # the last state run_windows handed to a stretch or step
    for name in ("step", "_stretch"):
        def spy(state, *args, _f=getattr(dynamics, name)):
            handed[-1] = state
            return _f(state, *args)
        monkeypatch.setattr(dynamics, name, spy)
    prev, multi = None, 0
    for w in run_windows(ps, np.zeros(n), force, cfg):
        arrays = list(held_arrays(w))
        assert len(arrays) >= 6
        for a in arrays:
            assert (a if a.base is None else a.base).size <= n
        if w.form is not None:
            assert all(type(v) in (int, float) for a in w.form.arrivals for v in a)
        if prev is not None:  # run_windows has handed on prev's last row
            assert handed[-1] is prev.last is prev.row(prev.steps[-1])
            if prev.form is not None:  # the closed form evaluated anew gives its bits
                form = prev.form
                again = check_state(form.row(len(prev.steps), form.offsets()), ps)
                assert_same_state(handed[-1], again)
        if len(w.steps) >= 2:
            multi += 1
            for k in (w.steps[0], w.steps[len(w.steps) // 2], w.steps[-1]):
                st = w.row(k)
                assert st.x.shape == (n,)
                assert (st.t, st.step_index) == (k * cfg.dt, k)
                # the covering rows bound every row's gamma and slack, up to rounding
                scale = max(1.0, ps.total_mass * max(1.0, np.abs(st.u_free).max()))
                assert w.gamma_max >= st.gamma.max() - 1e-12 * scale
                assert w.slack_min <= st.slack + dynamics.position_tol(st.x)
                assert_same_state(w.row(k), st)
        prev = w
    assert multi


@pytest.mark.parametrize("setup", [two_block_run, heterogeneous_run],
                         ids=["two-block", "heterogeneous"])
def test_rows_take_ascending_steps(setup):
    # rows evaluates ascending steps in one pass with the bits of row(k)
    # each; a step below the one before it is refused, not evaluated
    ps, force, cfg = setup()
    w = max(run_windows(ps, np.zeros(ps.n), force, cfg), key=lambda w: len(w.steps))
    assert len(w.steps) >= 10 and w.form is not None
    ks = [w.steps[0], w.steps[1], w.steps[1], w.steps[4], w.steps[-2], w.steps[-1]]
    for k, st in zip(ks, w.rows(ks), strict=True):
        assert_same_state(st, w.row(k))
    rows = w.rows([w.steps[4], w.steps[3]])
    assert next(rows).step_index == w.steps[4]
    with pytest.raises(IndexError, match="not in"):
        next(rows)


def test_free_flight_is_a_stretch_on_the_empty_partition():
    # particles that spread apart never touch: after two steps the rest
    # of the run is one stretch on the empty partition, whose release
    # test (c) has no block prefix to look at, with the stepwise bits of
    # the free particles
    ps = ParticleSystem(np.array([0.0, 5.0, 10.0]), np.ones(3))
    u0 = np.array([-1.0, 0.5, 2.0])
    force, cfg = piecewise_constant_force([], [0.25]), StepperConfig(dt=0.25, t_end=5.0)
    stretches = list(run_windows(ps, u0, force, cfg))
    assert [w.steps for w in stretches] == [range(0, 1), range(1, 2), range(2, 3),
                                            range(3, 21)]
    assert all(len(w.blocks) == 0 for w in stretches)
    for a, b in zip(stepwise(ps, u0, force, cfg), run_simulation(ps, u0, force, cfg),
                    strict=True):
        assert (a.t, a.step_index, a.slack, a.gamma_max) == (
            b.t, b.step_index, b.slack, b.gamma_max)
        for name in PER_ROW:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (name, a.step_index)
