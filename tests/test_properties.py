"""Randomized stress runs: the structural invariants must hold at every
step for arbitrary masses, velocities, and forces, not just the curated
scenarios.  step() already raises on any internal check, so these tests
mostly need to drive varied states through it and keep the Eulerian
bounds honest alongside."""

import numpy as np
import pytest

from granular1d import (
    BlockPartition,
    ForceField,
    InvariantViolation,
    ParticleSystem,
    StepperConfig,
    TwoBlockParams,
    check_exclusion,
    piecewise_constant_force,
    picard_solve,
    reconstruct,
    run_simulation,
)


def random_system(rng, n):
    gaps = rng.uniform(0.0, 0.4, n - 1)
    positions = np.concatenate([[rng.normal()], ]) + np.concatenate([[0.0], np.cumsum(gaps)])
    masses = rng.uniform(0.02, 0.3, n)
    return ParticleSystem(positions, masses)


def random_force(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        amp = float(rng.uniform(0.1, 1.0))
        freq = float(rng.uniform(0.5, 2.0))
        return ForceField(
            lambda t, x, a=amp, f=freq: -a * np.sin(f * x),
            lipschitz_k=amp * freq,
        )
    if kind == 1:
        cuts = np.sort(rng.normal(0, 1, 2))
        vals = rng.uniform(-1, 1, 3)
        return piecewise_constant_force(cuts, vals)
    amp = float(rng.uniform(0.1, 0.8))
    return ForceField(
        lambda t, x, a=amp: a * np.cos(t) * np.ones_like(x), lipschitz_k=0.0
    )


def run_and_check(ps, u0, force, cfg):
    for st in run_simulation(ps, u0, force, cfg):
        field = reconstruct(st, ps)
        assert float(np.max(field.rho)) <= 1 + 1e-9
        assert float(np.min(field.rho)) >= 0
        # a cell inside a block reads its bound exactly, so the exclusion
        # relation holds exactly, not to rounding
        inside = st.blocks.interior_cells
        bound = 1.0 if field.rho_star is None else field.rho_star[1:-1][inside]
        assert np.all(field.rho[1:-1][inside] == bound)
        assert check_exclusion(field) == 0.0
        assert field.total_mass() == pytest.approx(ps.total_mass, rel=1e-9)
    return st


@pytest.mark.parametrize("seed", range(12))
def test_random_scenarios_keep_all_invariants(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(20, 70))
    ps = random_system(rng, n)
    u0 = rng.normal(0, 1.0, n)
    cfg = StepperConfig(dt=float(rng.uniform(0.005, 0.02)), t_end=2.0)
    run_and_check(ps, u0, random_force(rng), cfg)  # step() raises on violation


def test_unequal_mass_pileup_conserves_momentum():
    # three clusters with inward velocities collide and stack up
    rng = np.random.default_rng(7)
    positions = np.concatenate([rng.uniform(-4, -3, 10), rng.uniform(-0.5, 0.5, 14),
                                rng.uniform(3, 4, 12)])
    positions.sort()
    masses = rng.uniform(0.05, 0.4, 36)
    ps = ParticleSystem(positions, masses)
    u0 = np.where(ps.positions < -1, 2.0, np.where(ps.positions > 1, -2.0, 0.0))
    cfg = StepperConfig(dt=0.01, t_end=3.0)
    momentum0 = float(np.dot(ps.masses, u0))
    merged_seen = False
    for st in run_simulation(ps, u0, ForceField(lambda t, x: np.zeros_like(x)), cfg):
        merged_seen = merged_seen or len(st.blocks) > 0
        assert float(np.dot(ps.masses, st.u)) == pytest.approx(momentum0, abs=1e-10)
    assert merged_seen
    # with no force the final state is one or more glued clusters moving
    # at their collective momentum-preserving speeds; gamma stays active
    assert st.gamma.min() < 0
    assert float(np.max(st.gamma)) <= 1e-10


def test_unequal_masses_two_body_collision_velocity():
    # masses 1 and 3 at speeds +1 / 0: glued speed is the momentum mean 1/4
    ps = ParticleSystem(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    u0 = np.array([1.0, 0.0])
    cfg = StepperConfig(dt=0.01, t_end=1.0)
    for st in run_simulation(ps, u0, ForceField(lambda t, x: np.zeros_like(x)), cfg):
        pass
    assert st.blocks == BlockPartition([0], [1], 2)
    assert st.u == pytest.approx([0.25, 0.25])
    # gap pinned at the packed value (m1 + m2)/2
    assert np.diff(st.x) == pytest.approx(np.diff(ps.packed))


def test_picard_flags_adhesion_sign_past_release():
    # the global fixed-point formula is only valid up to the first release
    # event: beyond it the accumulated free path keeps the blocks glued and
    # the derived adhesion potential turns positive, which the sign check
    # surfaces rather than silently accepting
    p = TwoBlockParams()
    ps = p.build(60)
    cfg = StepperConfig(dt=5e-3, t_end=2.5)
    with pytest.raises(InvariantViolation) as err:
        picard_solve(ps, np.zeros(60), p.force(), cfg, max_iters=40, tol=1e-10)
    assert err.value.check == "gamma_sign"


def test_picard_valid_through_glued_phase():
    # up to the reversal-relaxation time the global formula and the
    # marching dynamics coincide, including through contact
    p = TwoBlockParams()
    ps = p.build(60)
    cfg = StepperConfig(dt=5e-3, t_end=1.5)
    res = picard_solve(ps, np.zeros(60), p.force(), cfg, max_iters=40, tol=1e-10)
    march = list(run_simulation(ps, np.zeros(60), p.force(), cfg))
    worst = max(
        float(np.max(np.abs(a.x - b.x))) for a, b in zip(res.states, march)
    )
    assert worst <= 2 * cfg.dt * p.alpha * p.t_star
    final = res.states[-1]
    assert final.blocks.labels[29] >= 0 and final.blocks.labels[29] == final.blocks.labels[30]
    assert final.gamma.min() < 0
