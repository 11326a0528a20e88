import ast
import copy
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import granular1d
from granular1d import cli
from granular1d.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, _RecordWriter, main


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "scenario": "two-block",
        "n": 100,
        "dt": 4e-3,
        "t_end": 1.0,
        "output_times": [0.0, 0.64, 1.0],
        "force": {"alpha": 0.5, "t_star": 1.0},
        "output": {"path": str(path.parent / "out" / "run"), "format": "csv"},
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def test_run_writes_all_outputs(tmp_path):
    cfg = write_config(tmp_path / "tb.yaml")
    assert main(["run", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    lag = out / "run.lagrangian.csv"
    eul = out / "run.eulerian.csv"
    summary = json.loads((out / "run.summary.json").read_text())
    lines = lag.read_text().splitlines()
    assert lines[0] == "t,i,x,u,gamma"
    assert len(lines) == 1 + 3 * 100  # three output times
    assert eul.read_text().splitlines()[0] == "t,x,rho,u,gamma,rho_star"
    assert summary["scenario"] == "two-block"
    assert summary["contact_interval"][0] == pytest.approx(0.64, abs=8e-3)
    assert summary["contact_interval"][1] is None  # run stops before separation
    assert summary["error_norms"] is not None
    for rec in summary["error_norms"].values():
        assert rec["x"] < 0.05


def test_csv_floats_round_trip(tmp_path):
    cfg = write_config(tmp_path / "tb.yaml", n=20, t_end=0.2, output_times=[0.2])
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "out" / "run.lagrangian.csv").read_text().splitlines()[1:]
    from granular1d import StepperConfig, TwoBlockParams, run_simulation

    p = TwoBlockParams()
    ps = p.build(20)
    states = list(run_simulation(ps, np.zeros(20), p.force(), StepperConfig(dt=4e-3, t_end=0.2)))
    final = states[-1]
    for i, row in enumerate(rows):
        t, idx, x, u, g = row.split(",")
        assert int(idx) == i
        assert float(x) == final.x[i]  # exact round trip
        assert float(u) == final.u[i]


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path / "tb.yaml")
    assert main(["run", str(cfg)]) == EXIT_OK
    first = {
        p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
    }
    assert main(["run", str(cfg)]) == EXIT_OK
    second = {
        p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
    }
    assert first == second


def test_json_lines_format(tmp_path):
    cfg = write_config(
        tmp_path / "tb.yaml",
        n=10,
        t_end=0.1,
        output_times=[0.1],
        output={"path": str(tmp_path / "out" / "run"), "format": "json-lines"},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "out" / "run.lagrangian.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert set(rec) == {"t", "i", "x", "u", "gamma"}
    erec = json.loads((tmp_path / "out" / "run.eulerian.jsonl").read_text().splitlines()[0])
    assert erec["rho_star"] is None


def _per_row_bytes(columns, rows, fmt):
    """Reference formatting, one row at a time: repr for floats, str for
    ints, an empty cell or null for None, json.dumps for JSON-lines."""
    if fmt == "csv":
        cell = lambda v: "" if v is None else (repr(v) if isinstance(v, float) else str(v))
        lines = [",".join(columns)] + [",".join(cell(v) for v in row) for row in rows]
    else:
        lines = [json.dumps(dict(zip(columns, row))) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_column_writer_matches_per_row_formatting(tmp_path, fmt):
    x = np.array([-0.0, 5e-324, 1e22, 0.1 + 0.2, -1.5, 1 / 3])
    u = np.array([0.0, -5e-324, -1e22, 2.0**-1074, 1e-7, 123456789.125])
    g = np.array([np.nan, np.inf, -np.inf, 1e300, -2.5e-310, 7.0])
    columns = ["t", "i", "x", "u", "gamma", "rho_star"]
    t = 0.1 + 0.2
    with _RecordWriter(tmp_path / "out.rec", columns, fmt) as writer:
        writer.write(x.size, [t, np.arange(x.size), x, u, g, None])
        writer.write(2, [3.0, np.arange(2), x[:2], u[:2], x[2:4], u[2:4]])
    rows = [[t, i, x[i].item(), u[i].item(), g[i].item(), None] for i in range(x.size)]
    rows += [[3.0, i, x[i].item(), u[i].item(), x[2 + i].item(), u[2 + i].item()] for i in range(2)]
    assert (tmp_path / "out.rec").read_bytes() == _per_row_bytes(columns, rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_writer_formats_repeated_values_like_per_cell(tmp_path, fmt):
    # few distinct values, heavily repeated: 0.0 and -0.0 (equal, with
    # different text), NaN of either sign, infinities and subnormals
    pool = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 0.1, 1e22])
    assert np.signbit(pool[3]) and not np.signbit(pool[2])
    rng = np.random.default_rng(3)
    columns = ["t", "i", "a", "b", "k", "none"]
    writes, rows = [], []

    def add(n, t, i, a, b, k):
        writes.append((n, [t, i, a, b, k, None]))
        rows.extend([t, *(np.asarray(c)[j].item() for c in (i, a, b, k)), None] for j in range(n))

    a, b, k = rng.choice(pool, 24)[::2], rng.choice(pool, 12), rng.integers(-2, 3, 12)
    add(12, 0.1 + 0.2, np.arange(12), a, b, k)  # a is a strided view
    add(12, -0.0, np.arange(12), a, b, k)  # the same vectors again
    add(12, np.nan, np.arange(12), a[::-1], b, -k)  # new values at the same positions
    add(12, np.inf, np.arange(12).view(np.float64), a, b, k)  # int bits as subnormal floats
    add(0, 1.0, np.arange(0), np.empty(0), np.empty(0), np.arange(0))
    add(5, 2.0, np.arange(5), a[:5], pool[[0, 1, 6, 7, 8]].astype(np.float32), k[:5])  # ±0.0 twice
    add(12, 3.0, np.arange(12), a, rng.choice(pool, 12), k)
    with _RecordWriter(tmp_path / "out.rec", columns, fmt) as writer:
        for n, values in writes:
            writer.write(n, values)
    assert (tmp_path / "out.rec").read_bytes() == _per_row_bytes(columns, rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_run_records_match_per_row_formatting(tmp_path, fmt):
    # an output at every step: the writers see many writes of the same
    # index column and of congested blocks sharing one velocity
    from granular1d import run_simulation
    from granular1d.eulerian import reconstruct

    cfg = write_config(
        tmp_path / "cust.yaml", scenario="custom", n=50, dt=0.02, t_end=1.2,
        output_times=[round(0.02 * k, 12) for k in range(61)],
        density={"blocks": [[-1.0, -0.2, 0.6], [0.2, 1.0, 0.6]]}, u0=0.0,
        force={"breakpoints": [0.0], "values": [0.5, -0.5]},
        output={"path": str(tmp_path / "out" / "run"), "format": fmt},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    setup = cli.build_setup(cli.load_config(cfg), cfg)
    lag, eul = [], []
    for st in run_simulation(setup.ps, setup.u0, setup.force, setup.stepper):
        lag += [[st.t, i, *c] for i, c in enumerate(zip(*(a.tolist() for a in (st.x, st.u, st.gamma))))]
        f = reconstruct(st, setup.ps)
        eul += [[st.t, *c, None] for c in zip(*(a.tolist() for a in (f.x, f.rho, f.u, f.gamma)))]
    assert len({row[3] for row in lag[-50:]}) < 50  # some particles share one velocity
    ext = "csv" if fmt == "csv" else "jsonl"
    assert (tmp_path / "out" / f"run.lagrangian.{ext}").read_bytes() == _per_row_bytes(
        ["t", "i", "x", "u", "gamma"], lag, fmt)
    assert (tmp_path / "out" / f"run.eulerian.{ext}").read_bytes() == _per_row_bytes(
        ["t", "x", "rho", "u", "gamma", "rho_star"], eul, fmt)


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs far more start-up time and memory than a run's set-up
    code = "import sys, granular1d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(granular1d.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.strip() == "[]"


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path / "tb.yaml")
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert "ok:" in capsys.readouterr().out


def test_oracle_two_block(tmp_path):
    cfg = write_config(tmp_path / "tb.yaml", n=10, output_times=[0.0, 1.0])
    assert main(["oracle", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "out" / "run.oracle.csv").read_text().splitlines()
    assert lines[0] == "t,i,x,u,gamma"
    assert len(lines) == 1 + 2 * 10


def test_oracle_labels_steps_like_run(tmp_path):
    # output time 0.3 is step 3, whose time 3 * 0.1 is 0.30000000000000004
    cfg = write_config(tmp_path / "tb.yaml", n=10, dt=0.1, t_end=3.0,
                       output_times=[0.3, 0.7, 2.1])
    assert main(["run", str(cfg)]) == EXIT_OK
    assert main(["oracle", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    oracle = [r.split(",") for r in (out / "run.oracle.csv").read_text().splitlines()[1:]]
    lag = [r.split(",") for r in (out / "run.lagrangian.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in oracle] == [r[0] for r in lag]
    times = [k * 0.1 for k in (3, 7, 21)]
    summary = json.loads((out / "run.summary.json").read_text())
    assert sorted(summary["error_norms"]) == sorted(map(repr, times))
    setup = cli.build_setup(cli.load_config(cfg), cfg)
    for j, t in enumerate(times):
        rows = oracle[10 * j:10 * (j + 1)]
        assert {r[0] for r in rows} == {repr(t)}
        exact = granular1d.two_block_exact(setup.two_block, setup.ps, t)
        assert [float(r[2]) for r in rows] == exact.x_ex.tolist()


def test_oracle_rejected_for_heterogeneous(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "het.yaml",
        scenario="heterogeneous",
        n=50,
        t_end=0.1,
        output_times=[0.0, 0.1],
        force={"breakpoints": [0.5], "values": [0.5, -0.5]},
    )
    assert main(["oracle", str(cfg)]) == EXIT_CONFIG
    assert "config" in capsys.readouterr().err


def test_heterogeneous_run(tmp_path):
    cfg = write_config(
        tmp_path / "het.yaml",
        scenario="heterogeneous",
        n=80,
        dt=2e-3,
        t_end=0.5,
        output_times=[0.0, 0.5],
        force={"breakpoints": [0.5], "values": [0.5, -0.5]},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    eul = (tmp_path / "out" / "run.eulerian.csv").read_text().splitlines()
    # rho_star column populated
    last = eul[-1].split(",")
    assert float(last[5]) > 1.0


def test_growth_run_tracks_every_partition(tmp_path):
    # hetero-compress's seed-1 config: one block, which particles join at
    # most steps inside stretches; the middle interface joins it that way at
    # t = 0.167.  The summary's contact interval and first congested time are
    # a ``step`` loop's, tracked at every state
    cfg = {"scenario": "heterogeneous", "n": 4000, "dt": 1e-3, "t_end": 0.8,
           "output_times": [0.0, 0.8], "fill": 0.8,
           "constraint": {"base": 1.0, "amplitude": 0.163436},
           "force": {"breakpoints": [0.534743], "values": [0.5, -0.5]},
           "output": {"path": str(tmp_path / "out" / "growth"), "format": "json-lines"}}
    path = tmp_path / "growth.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "growth.summary.json").read_text())
    setup = cli.build_setup(cfg, path)
    tracker = granular1d.ContactTracker((setup.ps.n // 2 - 1, setup.ps.n // 2))
    state, first = granular1d.init_state(setup.ps, setup.u0), None
    for k in range(setup.stepper.n_steps + 1):
        if k:
            state = granular1d.step(state, setup.force, setup.stepper, setup.ps)
        tracker.observe(state.t, state.blocks)
        if first is None and len(state.blocks):
            first = state.t
    assert summary["contact_interval"] == [tracker.contact_time, tracker.separation_time]
    assert summary["contact_interval"] == [0.167, None]
    assert summary["first_congested_time"] == first == 0.01


def test_custom_scenario(tmp_path):
    cfg = write_config(
        tmp_path / "cust.yaml",
        scenario="custom",
        n=40,
        dt=1e-2,
        t_end=0.5,
        output_times=[0.5],
        density={"blocks": [[0.0, 1.0, 0.5]]},
        u0=0.0,
        force={"breakpoints": [0.5], "values": [0.3, -0.3]},
    )
    assert main(["run", str(cfg)]) == EXIT_OK


def test_single_particle_run(tmp_path):
    # one particle writes n + 1 = 2 Eulerian rows per output time: two
    # half-cells of width m/2 at x -/+ m/4
    cfg = write_config(
        tmp_path / "one.yaml", scenario="custom", n=1, dt=0.1, t_end=0.2,
        output_times=[0.0, 0.2], density={"blocks": [[0, 1]]},
        force={"breakpoints": [0.5], "values": [0.3, -0.3]},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "out" / "run.eulerian.csv").read_text().splitlines()[1:]
    cells = [[float(c) for c in r.split(",")[:4]] for r in rows]
    assert [c[0] for c in cells] == [0.0, 0.0, 0.2, 0.2]
    assert [c[2] for c in cells] == [1.0] * 4
    assert [c[1] for c in cells[:2]] == [0.25, 0.75]  # x of the particle at 0.5, m = 1
    # one particle forms no block: no contact and no congestion
    summary = json.loads((tmp_path / "out" / "run.summary.json").read_text())
    assert summary["contact_interval"] is None
    assert summary["first_congested_time"] is None


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("scenario", [
    {"scenario": "two-block"},
    {"scenario": "heterogeneous"},
    {"scenario": "custom", "density": {"blocks": [[0, 1]]},
     "force": {"breakpoints": [0.5], "values": [0.3, -0.3]}},
], ids=["two-block", "heterogeneous", "custom"])
@pytest.mark.parametrize("n", [10**18, 10**300], ids=["1e18", "1e300"])
def test_particle_count_beyond_memory_exits_2(tmp_path, capsys, command, scenario, n):
    # counts that fit a float but fail before anything is allocated
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(yaml.safe_dump(dict(
        scenario, n=n, dt=0.01, t_end=0.1, output={"path": str(tmp_path / "out" / "run")})))
    assert main([command, str(cfg)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "n = " in err["detail"]
    assert not (tmp_path / "out").exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [unclosed", encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_missing_keys_exit_2(tmp_path):
    cfg = tmp_path / "partial.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": "two-block"}), encoding="utf-8")
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_output_time_off_grid_exit_2(tmp_path):
    cfg = write_config(tmp_path / "tb.yaml", output_times=[0.0015])
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_output_time_on_the_last_step_within_grid_tolerance(tmp_path):
    # 3.0000000005 names step 3000, as t_end 3.0 does: the grid rule
    # alone decides, and the row is labelled with the step's time
    cfg = write_config(tmp_path / "tb.yaml", n=10, dt=1e-3, t_end=3.0,
                       output_times=[0.0, 3.0000000005])
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "out" / "run.lagrangian.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.0"] * 10 + ["3.0"] * 10


_CUSTOM = dict(scenario="custom", force={"breakpoints": [0.5], "values": [0.3, -0.3]})
_CUSTOM_UNIT = dict(_CUSTOM, density={"blocks": [[0.0, 1.0, 0.5]]})


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scenario="heterogeneous", constraint={"amplitude": -1.0}),
        dict(_CUSTOM, density={"blocks": [[0.0, 1.0, -1.0]]}),
        dict(_CUSTOM, density={"blocks": [[1.0, 0.0, 0.5]]}),
        dict(_CUSTOM, density={"blocks": [[0.0, 1.0, 0.5]]}, u0="fast"),
        dict(integrator={"picard": {"max_iters": 0}}),
        dict(blocks={"a1": -1.5, "b1": -0.1024, "a2": 0.1024, "b2": 1.1024}),
        dict(dt=1e-3, t_end=0.0106, output_times=[0.0]),
        dict(output="out/x"),
        dict(force=5),
        dict(blocks=5),
        dict(scenario="heterogeneous", constraint=5),
        dict(t_end=float("inf"), output_times=[0.0]),
        dict(tolerances={"exclusion": 1e-6}),
        dict(t_star=1.0),
        dict(force={"alpha": 0.5, "t_sta": 2.0}),
        dict(output={"path": "out/x", "fromat": "json-lines"}),
        dict(u0=5.0),
        dict(fill=0.8),
        dict(density={"blocks": [[0.0, 1.0, 0.5]]}),
        dict(constraint={"base": 1.0}),
        dict(force={"breakpoints": [0.5], "values": [0.5, -0.5]}),
        dict(scenario="heterogeneous", n=200, u0=[1, 2]),
        dict(scenario="heterogeneous", blocks={"a1": -1.0}),
        dict(n=True),
        dict(dt=True, output_times=[0.0, 1.0]),
        dict(t_end=True, output_times=[0.0]),
        dict(force={"alpha": 0.5, "t_star": True}),
        dict(scenario="heterogeneous", fill=True),
        dict(scenario="heterogeneous", fill="0.5"),
        dict(scenario="heterogeneous", constraint={"amplitude": True}),
        dict(_CUSTOM_UNIT, u0=True),
        dict(_CUSTOM, density={"blocks": [[0.0, 1.0, True]]}),
        dict(blocks={"a1": "-1.1024"}),
        dict(_CUSTOM_UNIT, force={"breakpoints": [0.5], "values": ["1", -0.5]}),
        dict(output_times=[True]),
        dict(_CUSTOM_UNIT, force={"breakpoints": [0.8, 0.2], "values": [1, 0, -1]}),
        dict(_CUSTOM_UNIT, u0=float("nan")),
        dict(_CUSTOM, density={"blocks": []}),
        dict(_CUSTOM, density={"blocks": [[0, 1, 0.0]]}),
        dict(_CUSTOM, n=3, density={"blocks": [[0, 1, 1.0e-300]]}),
        dict(_CUSTOM, n=100, density={"blocks": [[0, 1, 1.0e-11]]}),
        dict(_CUSTOM_UNIT, force={"breakpoints": 0.5, "values": [0.5, -0.5]}),
        dict(output={"path": ""}),
        dict(output={"path": "."}),
        dict(output={"path": "/"}),
        dict(scenario="three-block"),
        dict(n=0),
        dict(t_end=-1.0),
        dict(output_times=[]),
        dict(output_times=[0.0, 2.0]),
        dict(output_times=[-0.004]),
        dict(output={"path": "out/x", "format": "xml"}),
        dict(scenario="heterogeneous", fill=0.0),
        dict(scenario="heterogeneous", fill=1.5),
        dict(_CUSTOM_UNIT, n=4, u0=[0.1, 0.2]),
        dict(_CUSTOM_UNIT, force={}),
        dict(_CUSTOM_UNIT, force={"alpha": 0.5, "t_star": 1.0, "breakpoints": [0.3],
                                  "values": [1.0, 2.0]}),
        dict(_CUSTOM, n=10, density={"blocks": [[0, 1, 2.0]]}),
        dict(blocks={"a1": -1.1024, "b1": -0.1024, "a2": 0.1024, "b2": 1.1024 + 5e-13}),
        dict(dt=0.0),
        dict(dt=1.0e-3, t_end=1.0e308, output_times=[0.0]),
        dict(output_times=[0.0, 1.0e308]),
        dict(_CUSTOM, density={"blocks": [[0.0, 1.0e308]]}),
        dict(force={"alpha": 0.0, "t_star": 1.0}),
        dict(_CUSTOM_UNIT, force={"alpha": -0.5, "t_star": 1.0}),
        dict(_CUSTOM_UNIT, force={"alpha": 0.5, "t_star": 0.0}),
        dict(scenario="heterogeneous", force={"alpha": 0.0, "t_star": 1.0}),
        dict(scenario="heterogeneous", force={"alpha": 0.5, "t_star": -1.0}),
        # half a step off the grid at a dt below the grid rule's 1e-9 floor
        dict(_CUSTOM_UNIT, dt=1.0e-12, t_end=2.5e-12, output_times=[0.0, 1.5e-12, 2.5e-12]),
        dict(_CUSTOM_UNIT, dt=1.0e-12, t_end=2.0e-12, output_times=[0.0, 1.5e-12]),
        # light and far out: each m_i x_i is finite, their sum is not, so the
        # center of mass and the packed map are not finite
        dict(_CUSTOM, n=10, density={"blocks": [[1.0e308, 1.1e308, 1.0e-306]]}),
    ],
    ids=["negative-amplitude", "negative-height", "reversed-segment", "u0-string",
         "zero-picard-iters", "unequal-widths", "off-grid-t-end", "output-string",
         "force-scalar", "blocks-scalar", "constraint-scalar", "infinite-t-end",
         "unknown-key-tolerances", "unknown-key-t-star", "unknown-key-in-force",
         "unknown-key-in-output", "two-block-u0", "two-block-fill", "two-block-density",
         "two-block-constraint", "two-block-piecewise-force", "heterogeneous-u0",
         "heterogeneous-blocks", "bool-n", "bool-dt", "bool-t-end", "bool-t-star",
         "bool-fill", "string-fill", "bool-amplitude", "bool-u0", "bool-height",
         "string-block-edge", "string-force-value", "bool-output-time",
         "unsorted-breakpoints", "nan-u0", "empty-density", "zero-mass-density",
         "vanishing-packed-gaps", "packed-gaps-within-tolerance",
         "scalar-breakpoints", "empty-output-path", "dot-output-path", "root-output-path",
         "unknown-scenario", "zero-n", "negative-t-end", "empty-output-times",
         "output-time-past-end", "negative-output-time", "unknown-format", "zero-fill",
         "fill-above-one", "short-u0-list", "force-neither-form", "mixed-force-forms",
         "height-above-bound",
         "near-mirror-blocks", "zero-dt", "t-end-steps-overflow", "output-time-steps-overflow",
         "non-finite-packed-map", "two-block-zero-alpha", "custom-negative-alpha",
         "custom-zero-t-star", "heterogeneous-zero-alpha", "heterogeneous-negative-t-star",
         "tiny-dt-off-grid", "tiny-dt-off-grid-output-time", "far-light-density"],
)
def test_rejected_config_values_exit_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "bad.yaml", **overrides)
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
    assert not (tmp_path / "out").exists()


def test_config_root_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- scenario: two-block\n- n: 10\n", encoding="utf-8")
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "detail": "config root must be a mapping"
    }


@pytest.mark.parametrize(
    "overrides", [dict(scenario="heterogeneous"), _CUSTOM_UNIT], ids=["heterogeneous", "custom"]
)
def test_alpha_t_star_force_outside_two_block(tmp_path, overrides):
    # either force form is accepted by every scenario that takes a force
    cfg = write_config(
        tmp_path / "f.yaml", n=20, dt=1e-2, t_end=1.0, output_times=[0.0, 1.0],
        **dict(overrides, force={"alpha": 0.5, "t_star": 0.5}),
    )
    setup = cli.build_setup(cli.load_config(cfg), cfg)
    x = np.array([-0.7, -0.1, 0.0, 0.1, 0.7])
    for t, a in ((0.25, 0.5), (0.75, -0.5)):  # before and after t_star
        assert np.array_equal(setup.force(t, x), np.where(x < 0.0, a, -a))
    assert main(["run", str(cfg)]) == EXIT_OK


def _unwritable_run(command, cfg, capsys):
    """Run a command whose output cannot be written: exit 2, one JSON
    config line on stderr, and no output file left open; return its detail."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(cfg)]) == EXIT_CONFIG
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "config"
    assert record["detail"].startswith("cannot write output ")
    return record["detail"]


def _tree(root: Path) -> set[Path]:
    return set(root.rglob("*"))


@pytest.mark.parametrize("command", ["run", "validate", "oracle"])
def test_output_under_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("GRANULAR1D_OUTDIR", raising=False)
    (tmp_path / "afile").touch()
    cfg = write_config(
        tmp_path / "tb.yaml", n=10, t_end=0.1, output_times=[0.1],
        output={"path": str(tmp_path / "afile" / "run")},
    )
    before = _tree(tmp_path)
    detail = _unwritable_run(command, cfg, capsys)
    assert detail.startswith(f"cannot write output {tmp_path / 'afile' / 'run'}.")
    assert _tree(tmp_path) == before


def _eulerian_in_the_way(tmp_path, capsys, monkeypatch, command) -> None:
    """Run a command whose Eulerian output file is a directory; the
    config error names that file."""
    monkeypatch.delenv("GRANULAR1D_OUTDIR", raising=False)
    cfg = write_config(tmp_path / "tb.yaml", n=10, t_end=0.1, output_times=[0.1])
    (tmp_path / "out" / "run.eulerian.csv").mkdir(parents=True)
    detail = _unwritable_run(command, cfg, capsys)
    assert detail.startswith(f"cannot write output {tmp_path / 'out' / 'run.eulerian.csv'}:")


def test_validate_without_write_permission_exits_2(tmp_path, capsys, monkeypatch):
    # root is granted every access, so the denial is simulated
    monkeypatch.delenv("GRANULAR1D_OUTDIR", raising=False)
    cfg = write_config(tmp_path / "tb.yaml", n=10, t_end=0.1, output_times=[0.1])
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    before = _tree(tmp_path)
    detail = _unwritable_run("validate", cfg, capsys)
    lag = tmp_path / "out" / "run.lagrangian.csv"
    assert detail.startswith(f"cannot write output {lag}: ")
    assert "Permission denied" in detail
    assert _tree(tmp_path) == before


def test_eulerian_output_in_the_way_exits_2(tmp_path, capsys, monkeypatch):
    # the Lagrangian file opens, the Eulerian one cannot: the first is closed
    _eulerian_in_the_way(tmp_path, capsys, monkeypatch, "run")
    assert (tmp_path / "out" / "run.lagrangian.csv").read_text() == "t,i,x,u,gamma\n"


def test_validate_with_eulerian_output_in_the_way_exits_2(tmp_path, capsys, monkeypatch):
    # validate names the file that run cannot open, and creates nothing
    _eulerian_in_the_way(tmp_path, capsys, monkeypatch, "validate")
    assert _tree(tmp_path) == {tmp_path / "tb.yaml", tmp_path / "out",
                               tmp_path / "out" / "run.eulerian.csv"}


def _numeric_leaves(node, path=()):
    """The key path of every number in a config, list entries included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, val in items for leaf in _numeric_leaves(val, path + (key,))]


def _leaf_configs():
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("twoblock.yaml", "heterogeneous.yaml"):
        yield name, yaml.safe_load((configs / name).read_text(encoding="utf-8"))
    base = dict(n=4, dt=0.01, t_end=0.1, output_times=[0.0, 0.1], output={"path": "out/leaf"})
    yield "two-block-blocks", dict(
        base, scenario="two-block", force={"alpha": 0.5, "t_star": 1.0},
        blocks={"a1": -1.1, "b1": -0.1, "a2": 0.1, "b2": 1.1},
    )
    yield "custom-list-u0", dict(
        base, scenario="custom", density={"blocks": [[0.0, 1.0, 0.5], [1.5, 2]]},
        u0=[0.1, 0, -0.1, 0.2], force={"breakpoints": [0.5, 1], "values": [0.3, 0, -0.3]},
    )


_LEAVES = [(name, cfg, path) for name, cfg in _leaf_configs() for path in _numeric_leaves(cfg)]


@pytest.mark.parametrize(
    "cfg, path", [(cfg, path) for _, cfg, path in _LEAVES],
    ids=[f"{name}:{'.'.join(map(str, path))}" for name, _, path in _LEAVES],
)
def test_every_numeric_config_value_is_checked(tmp_path, capsys, cfg, path):
    # each number, in turn, replaced by a value that is not a finite
    # number (an integer too large for a float among them), or by a list
    # where a number belongs, is a config error
    config = tmp_path / "leaf.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", str(config)]) == EXIT_OK
    for bad in (True, "1", float("nan"), float("inf"), 10**400, [1.0]):
        config.write_text(yaml.safe_dump(_replace_leaf(cfg, path, bad)), encoding="utf-8")
        assert main(["validate", str(config)]) == EXIT_CONFIG, bad
        assert json.loads(capsys.readouterr().err)["error"] == "config"


def _replace_leaf(cfg: dict, path: tuple, value) -> dict:
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("name", ["twoblock.yaml", "heterogeneous.yaml"])
def test_shipped_configs_validate(name):
    config = Path(__file__).resolve().parents[1] / "configs" / name
    assert main(["validate", str(config)]) == EXIT_OK


def test_readme_library_example_runs():
    # the documented library example runs against the public API as it is
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(code, "README.md#library", "exec"), scope)
    assert scope["field"].n_samples == scope["ps"].n + 1


def test_boosted_collision_exits_0(tmp_path, capsys):
    # the two-block collision seen from a frame moving at 1e9: x reaches
    # 5e8, whose rounding dwarfs a packed gap of 1e-3 in the gap ratio;
    # a glued cell reads the bound itself, so the exclusion residual is 0
    n, boost = 2000, 1e9
    cfg = write_config(
        tmp_path / "boost.yaml", scenario="custom", n=n, dt=1e-3, t_end=1.0,
        output_times=[0.0, 0.5, 1.0], density={"blocks": [[-1.1024, -0.1024], [0.1024, 1.1024]]},
        u0=[boost + 1.0] * (n // 2) + [boost - 1.0] * (n // 2),
        force={"breakpoints": [], "values": [0.0]},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    summary = json.loads((out / "run.summary.json").read_text())
    assert summary["invariant_maxima"]["exclusion_residual_max"] == 0.0
    rows = [line.split(",") for line in (out / "run.eulerian.csv").read_text().splitlines()[1:]]
    glued = [rho for _, _, rho, _, gamma, _ in rows if float(gamma) != 0.0]
    assert glued and set(glued) == {"1.0"}


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _overflowing_run(tmp_path, capsys, recwarn, n, dt, t_end):
    # forces of +-1e308 on either side of 0.5: the line names the failing
    # check, time, step and index; numpy's overflow warnings stay off
    # stderr, which holds the one JSON line
    cfg = write_config(
        tmp_path / "big.yaml", scenario="custom", n=n, dt=dt, t_end=t_end, output_times=[0.0],
        density={"blocks": [[0, 1]]}, force={"breakpoints": [0.5], "values": [1.0e308, -1.0e308]},
    )
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    err = json.loads(capsys.readouterr().err, parse_constant=_reject_constant)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert err["error"] == "invariant"
    return err["check"], err["t"], err["step"], err["i"]


def test_overflowing_run_exits_3(tmp_path, capsys, recwarn):
    # with twenty particles the first step pools the block, whose mean
    # velocity is a rounding residue of the +-1e308 sums: it lands at
    # x = -7.5e291, where every gap rounds to 0.0 and 1e-12 * max|x| dwarfs
    # the packed gap 0.05; the tolerance, capped at half of it, sees gap 0
    assert _overflowing_run(tmp_path, capsys, recwarn, 20, 0.5, 5.0) == (
        "feasibility", 0.5, 1, 0)


def test_overflowing_force_sums_fail_finite(tmp_path, capsys, recwarn):
    # with four particles and dt = 1 the force sums overflow at step 2,
    # and the free path is then infinite: no one particle fails "finite"
    assert _overflowing_run(tmp_path, capsys, recwarn, 4, 1.0, 3.0) == ("finite", 2.0, 2, None)


def test_runtime_error_exits_3(tmp_path, capsys, monkeypatch):
    # a library error that is neither a config error nor an invariant
    # breach: exit 3 with one strict-JSON "runtime" line
    def failing_run(*args):
        raise granular1d.Granular1dError("solver failed")
        yield

    monkeypatch.setattr(cli, "run_windows", failing_run)
    cfg = write_config(tmp_path / "tb.yaml", n=10, t_end=0.1, output_times=[0.1])
    assert main(["run", str(cfg)]) == EXIT_INVARIANT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0], parse_constant=_reject_constant) == {
        "error": "runtime", "detail": "solver failed"
    }


def test_force_reversal_past_the_run_is_never_reached(tmp_path):
    # a reversal at t_star = 1e308 lies past every step, and so cannot end
    # a stretch (its step number, 1e311, fits no int): the run is the one
    # whose reversal at 1e300 is never reached either
    outputs = []
    for t_star in (1.0e300, 1.0e308):
        cfg = write_config(tmp_path / f"{t_star:g}.yaml", n=200, dt=1e-3, t_end=0.5,
                           output_times=[0.0, 0.5], force={"alpha": 0.5, "t_star": t_star},
                           output={"path": str(tmp_path / f"{t_star:g}" / "run"), "format": "csv"})
        assert main(["run", str(cfg)]) == EXIT_OK
        outputs.append([(tmp_path / f"{t_star:g}" / f"run.{kind}.csv").read_bytes()
                        for kind in ("lagrangian", "eulerian")])
    assert outputs[0] == outputs[1]


def test_output_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """A custom block pushed together by opposing forces, and the partially
    filled two-block collision, whose growing fronts stretches take in as
    arrivals, write the same bytes under OpenBLAS's Prescott and Haswell
    kernels, which OPENBLAS_CORETYPE selects in each child process.  The
    center of mass, the error norms and an arrival's block sums are
    kernel-independent sums, so no kernel can change them.  On a numpy
    without a dynamic-arch OpenBLAS, or off x86, the variable does nothing
    and the test passes trivially."""
    cpuinfo = Path("/proc/cpuinfo")
    if not (cpuinfo.exists() and "avx2" in cpuinfo.read_text()):
        pytest.skip("the Haswell kernel needs AVX2, which this CPU does not report")
    configs = [
        write_config(tmp_path / "blas.yaml", scenario="custom", n=1000, dt=1e-3, t_end=0.01,
                     output_times=[0.0, 0.01], u0=0.0, density={"blocks": [[-1.0, -0.3, 0.8]]},
                     force={"breakpoints": [-0.6], "values": [0.5, -0.5]}),
        write_config(tmp_path / "partial-fill.yaml", scenario="custom", n=200, dt=2e-3, t_end=2.6,
                     output_times=[0.0, 0.9, 1.6, 2.6],
                     density={"blocks": [[-1.1024, -0.1024, 0.5], [0.1024, 1.1024, 0.5]]},
                     force={"alpha": 0.5, "t_star": 1.0}),
    ]
    src = str(Path(granular1d.__file__).resolve().parents[1])
    for cfg in configs:
        outputs = []
        for kernel in ("Prescott", "Haswell"):
            outdir = tmp_path / cfg.stem / kernel
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel,
                       GRANULAR1D_OUTDIR=str(outdir))
            subprocess.run([sys.executable, "-m", "granular1d.cli", "run", str(cfg)], env=env,
                           check=True, capture_output=True)
            outputs.append({f.name: f.read_bytes() for f in sorted(outdir.iterdir())})
        assert len(outputs[0]) == 3 and outputs[0] == outputs[1], cfg.stem


def test_no_blas_reduction_reaches_the_outputs():
    """The source makes no BLAS reduction (``@``, ``dot``, ``inner``,
    ``matmul``, ``vdot``), whose bits depend on the kernel OpenBLAS picks,
    except the momentum drift in ``check_state``, which only decides pass
    or fail.  This holds on CPUs where the runtime test above skips."""
    found = []
    for path in sorted(Path(granular1d.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            blas = (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dot", "inner", "matmul", "vdot"))
            if blas:
                found.append((path.name, func, ast.get_source_segment(source, node)))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(source), None)
    assert found == [("dynamics.py", "check_state", "u @ ps.masses"),
                     ("dynamics.py", "check_state", "u_free @ ps.masses")]


def test_zero_duration_emits_initial_state_only(tmp_path):
    cfg = write_config(tmp_path / "tb.yaml", n=10, t_end=0.0, output_times=[0.0])
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "out" / "run.lagrangian.csv").read_text().splitlines()
    assert len(lines) == 1 + 10
    assert lines[1].startswith("0.0,0,")


def test_picard_integrator_via_cli(tmp_path, capsys):
    # the CLI runs the marching stepper only; a Picard request is a config
    # error that points to the library's picard_solve and writes nothing
    cfg = write_config(
        tmp_path / "tb.yaml",
        n=50,
        dt=5e-3,
        t_end=0.5,
        output_times=[0.5],
        integrator={"picard": {"max_iters": 20, "tol": 1e-12}},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "picard_solve" in err["detail"]
    assert not (tmp_path / "out").exists()


def test_outdir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "tb.yaml", n=10, t_end=0.1, output_times=[0.1])
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("GRANULAR1D_OUTDIR", str(override))
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (override / "run.lagrangian.csv").exists()
