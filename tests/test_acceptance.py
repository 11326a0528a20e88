"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on a green run.  The heavy two-block reference run (N=2000,
dt=1e-3, t_end=3) executes once in a session fixture and feeds
criteria 2, 3 and 5.
"""

import time

import numpy as np
import pytest
import yaml

from granular1d import (
    StepperConfig,
    TwoBlockParams,
    build_particles,
    build_ratio_system,
    check_exclusion,
    cosine_bump_rho_star,
    error_norms,
    oracle_qp_projection,
    picard_solve,
    piecewise_constant_force,
    project_admissible,
    reconstruct,
    run_simulation,
    two_block_exact,
    uniform_blocks,
    weighted_norm,
)
from granular1d.cli import EXIT_OK, main as cli_main
from conftest import random_projection_instance

OUTPUT_TIMES = [0.0, 0.64, 1.0, 1.5, 2.0, 3.0]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


# ----------------------------------------------------------------- fixture


def _two_block_run(n: int, dt: float, collect_early_x: bool = False) -> dict:
    params = TwoBlockParams()
    ps = params.build(n)
    xtil = ps.packed
    cfg = StepperConfig(dt=dt, t_end=3.0)
    out_steps = {int(round(t / dt)): t for t in OUTPUT_TIMES}
    interface = (n // 2 - 1, n // 2)

    contact_t = None
    separated_t = None
    merged_gap_times = []  # times in (contact, 2.0] where the span was absent
    inv = {"gamma_max": -np.inf, "slack_min": np.inf, "rho_max": 0.0,
           "excl_max": 0.0, "gamma_edge_max": 0.0}
    errors = []
    w2 = []
    early_x = {}
    x0 = None
    root_mass = np.sqrt(ps.total_mass)

    t_start = time.monotonic()
    for st in run_simulation(ps, np.zeros(n), params.force(), cfg):
        labels = st.blocks.labels
        merged = labels[interface[0]] >= 0 and labels[interface[0]] == labels[interface[1]]
        if merged and contact_t is None:
            contact_t = st.t
        if contact_t is not None and not merged:
            if separated_t is None:
                separated_t = st.t
            if st.t <= 2.0 + 1e-12:
                merged_gap_times.append(st.t)

        x = st.x
        scale = max(1.0, float(np.max(np.abs(x))))
        inv["slack_min"] = min(
            inv["slack_min"], float(np.min(np.diff(x) - np.diff(xtil))) / scale
        )
        inv["gamma_max"] = max(inv["gamma_max"], float(np.max(st.gamma)))
        edge = abs(float(st.gamma[-1]))
        for hi in st.blocks.hi.tolist():
            edge = max(edge, abs(float(st.gamma[hi])))
        inv["gamma_edge_max"] = max(inv["gamma_edge_max"], edge)
        field = reconstruct(st, ps)
        inv["rho_max"] = max(inv["rho_max"], float(np.max(field.rho)))
        inv["excl_max"] = max(inv["excl_max"], check_exclusion(field))

        if x0 is None:
            x0 = st.x
        if st.t <= 0.1 + 1e-12 and st.step_index > 0:
            w2.append((st.t, weighted_norm(x - x0, ps.masses)))
        if collect_early_x and st.t <= 0.5 + 1e-12:
            early_x[st.step_index] = x
        if st.step_index in out_steps:
            exact = two_block_exact(params, ps, st.t)
            rep = error_norms(st, exact, ps.masses)
            errors.append(
                (st.t, rep["x"], rep["gamma_sup"], float(np.max(np.abs(exact.gamma_ex))))
            )
    elapsed = time.monotonic() - t_start
    return {
        "params": params,
        "ps": ps,
        "xtil": xtil,
        "dt": dt,
        "contact_t": contact_t,
        "separated_t": separated_t,
        "merged_gap_times": merged_gap_times,
        "invariants": inv,
        "errors": errors,
        "w2": w2,
        "early_x": early_x,
        "root_mass": root_mass,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def reference_run():
    return _two_block_run(2000, 1e-3, collect_early_x=True)


# ----------------------------------------------------------------- criteria


def test_criterion_1_projection_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    t0 = time.monotonic()
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(2, 9))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        ref = oracle_qp_projection(z, xtil, w)
        worst = max(worst, float(np.max(np.abs(x - ref))))
    elapsed = time.monotonic() - t0
    _report(
        "1 projection-oracle equivalence",
        worst <= 1e-8 and elapsed < 5.0,
        f"max deviation {worst:.2e} over 200 instances in {elapsed:.2f}s",
    )


def test_criterion_2a_contact_time(reference_run):
    r = reference_run
    dt = r["dt"]
    ok = r["contact_t"] is not None and abs(r["contact_t"] - 0.64) <= 2 * dt + 1e-12
    _report("2a contact time", ok, f"first merged step at t={r['contact_t']}")


def test_criterion_2b_persistence_and_split(reference_run):
    r = reference_run
    dt = r["dt"]
    persists = not r["merged_gap_times"]
    splits = r["separated_t"] is not None and r["separated_t"] <= 2.0 + 2 * dt + 1e-12
    _report(
        "2b merged-block persistence/split",
        persists and splits,
        f"no gaps in (t1, 2.0], split at t={r['separated_t']}",
    )


def test_criterion_2c_exact_solution_errors(reference_run):
    r = reference_run
    gamma_ref = max(g for *_, g in r["errors"])
    x_err = max(e for _, e, _, _ in r["errors"])
    g_err = max(e for _, _, e, _ in r["errors"])
    ok = x_err <= 5e-3 and g_err <= 1e-2 * gamma_ref and r["elapsed"] < 60.0

    # convergence study: refining (N, dt) must decrease both errors
    study = [(250, 4e-3), (1000, 2e-3)]
    xs, gs = [], []
    for n, dt in study:
        run = _two_block_run(n, dt)
        xs.append(max(e for _, e, _, _ in run["errors"]))
        gs.append(max(e for _, _, e, _ in run["errors"]))
    xs.append(x_err)
    gs.append(g_err)
    monotone = all(a > b for a, b in zip(xs, xs[1:])) and all(
        a > b for a, b in zip(gs, gs[1:])
    )
    _report(
        "2c exact-solution errors",
        ok and monotone,
        f"x {x_err:.2e}<=5e-3, gamma {g_err:.2e}<={1e-2 * gamma_ref:.1e}, "
        f"study x errors {[f'{v:.1e}' for v in xs]}, run {r['elapsed']:.1f}s",
    )


def test_criterion_3_invariant_suite(reference_run):
    inv = reference_run["invariants"]
    ok = (
        inv["slack_min"] >= -1e-12
        and inv["gamma_max"] <= 1e-10
        and inv["gamma_edge_max"] <= 1e-12 * 2.0  # mass * velocity scale
        and 0.0 <= inv["rho_max"] <= 1 + 1e-9
        and inv["excl_max"] <= 1e-6
    )
    _report(
        "3 invariant suite",
        ok,
        f"slack {inv['slack_min']:.1e}, gamma {inv['gamma_max']:.1e}, "
        f"edges {inv['gamma_edge_max']:.1e}, rho {inv['rho_max']:.12f}, "
        f"exclusion {inv['excl_max']:.1e}",
    )


def test_criterion_4_projection_contraction():
    rng = np.random.default_rng(42)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 40))
        z1, xtil, w = random_projection_instance(rng, n)
        z2 = z1 + rng.normal(0, 2.0, n)
        p1, _ = project_admissible(z1, xtil, w)
        p2, _ = project_admissible(z2, xtil, w)
        worst = max(
            worst,
            weighted_norm(p1 - p2, w) - weighted_norm(z1 - z2, w),
        )
    _report("4 projection contraction", worst <= 1e-12, f"max excess {worst:.2e}")


def test_criterion_5_initial_data_attainment(reference_run):
    r = reference_run
    excess = max(
        dist - (t * (0.0 + 0.5 * t * r["root_mass"]) + 1e-9) for t, dist in r["w2"]
    )
    _report(
        "5 initial-data attainment",
        excess <= 0.0,
        f"max W2 bound excess {excess:.2e} over {len(r['w2'])} early times",
    )


def test_criterion_6_picard_marching_agreement(reference_run):
    r = reference_run
    ps, xtil, params = r["ps"], r["xtil"], r["params"]
    dt = r["dt"]
    cfg = StepperConfig(dt=dt, t_end=0.5)
    t0 = time.monotonic()
    res = picard_solve(ps, np.zeros(ps.n), params.force(), cfg, max_iters=30, tol=1e-12)
    elapsed = time.monotonic() - t0
    worst = max(
        weighted_norm(st.x - r["early_x"][st.step_index], ps.masses)
        for st in res.states
    )
    vel_scale = params.alpha * params.t_star
    ratios = res.residual_ratios
    ok = worst <= 2 * dt * vel_scale and all(rr <= 0.25 + 0.1 for rr in ratios)
    _report(
        "6 picard-marching agreement",
        ok,
        f"sup-t diff {worst:.2e} <= {2 * dt * vel_scale:.1e}, "
        f"ratios {[f'{rr:.2f}' for rr in ratios]}, {res.sweeps} sweeps in {elapsed:.1f}s",
    )


def test_criterion_7_heterogeneous_run():
    star = cosine_bump_rho_star()
    rho0 = uniform_blocks([(0.0, 1.0)], 0.8)
    force = piecewise_constant_force([0.5], [0.5, -0.5])
    n = 1000
    rs = build_ratio_system(rho0, star, n)
    cfg = StepperConfig(dt=1e-3, t_end=0.8)
    t0 = time.monotonic()
    slack_min = np.inf
    rho_over = -np.inf
    centered = {0.5: False, 0.8: False}
    for st in run_simulation(rs, np.zeros(n), force, cfg):
        slack_min = min(slack_min, float(np.min(np.diff(st.x) - np.diff(rs.packed))))
        if st.step_index in (500, 800):
            field = reconstruct(st, rs)
            rho_over = max(rho_over, float(np.max(field.rho - field.rho_star)))
            ratio = field.rho / field.rho_star
            congested = np.abs(ratio - 1.0) < 1e-9
            xs = field.x[congested]
            has_gamma = congested.any() and field.gamma[congested].min() < 0
            centered[round(st.t, 3)] = (
                congested.any() and xs.min() < 0.5 < xs.max() and has_gamma
            )

    # bit-identity against the homogeneous path when rho_star is one
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    flat0 = uniform_blocks([(0.0, 1.0)], 0.8)
    rs1 = build_ratio_system(flat0, ones, n)
    ps1 = build_particles(flat0, n)
    cfg_short = StepperConfig(dt=1e-3, t_end=0.3)
    identical = True
    hom = run_simulation(ps1, np.zeros(n), force, cfg_short)
    for a, b in zip(run_simulation(rs1, np.zeros(n), force, cfg_short), hom):
        if not (
            np.array_equal(a.x, b.x)
            and np.array_equal(a.u, b.u)
            and np.array_equal(a.gamma, b.gamma)
        ):
            identical = False
            break
    elapsed = time.monotonic() - t0
    ok = (
        slack_min >= -1e-12
        and rho_over <= 1e-9
        and centered[0.5]
        and centered[0.8]
        and identical
        and elapsed < 30.0
    )
    _report(
        "7 heterogeneous run",
        ok,
        f"r-slack {slack_min:.1e}, rho-rho* {rho_over:.1e}, congested@0.5/0.8 "
        f"{centered[0.5]}/{centered[0.8]}, unit-rho* bit-identical {identical}, {elapsed:.1f}s",
    )


def test_criterion_8_byte_identical_outputs(tmp_path):
    cfg = {
        "scenario": "two-block",
        "n": 400,
        "dt": 2e-3,
        "t_end": 2.2,
        "output_times": [0.0, 0.64, 1.0, 2.2],
        "force": {"alpha": 0.5, "t_star": 1.0},
        "output": {"path": str(tmp_path / "a" / "run"), "format": "csv"},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert cli_main(["run", str(path)]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").iterdir())}
    cfg["output"]["path"] = str(tmp_path / "b" / "run")
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert cli_main(["run", str(path)]) == EXIT_OK
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "b").iterdir())}
    ok = list(first) == list(second) and all(first[k] == second[k] for k in first)
    _report("8 output determinism", ok, f"{len(first)} files byte-compared")
