import copy
import json
import os
import subprocess
import sys
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
    writer = _RecordWriter(tmp_path / "out.rec", columns, fmt)
    writer.write(x.size, [t, np.arange(x.size), x, u, g, None])
    writer.write(2, [3.0, np.arange(2), x[:2], u[:2], x[2:4], u[2:4]])
    writer.close()
    rows = [[t, i, x[i].item(), u[i].item(), g[i].item(), None] for i in range(x.size)]
    rows += [[3.0, i, x[i].item(), u[i].item(), x[2 + i].item(), u[2 + i].item()] for i in range(2)]
    assert (tmp_path / "out.rec").read_bytes() == _per_row_bytes(columns, rows, fmt)


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
        dict(_CUSTOM_UNIT, force={"breakpoints": 0.5, "values": [0.5, -0.5]}),
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
         "scalar-breakpoints"],
)
def test_rejected_config_values_exit_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "bad.yaml", **overrides)
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


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
    # number, or by a list where a number belongs, is a config error
    config = tmp_path / "leaf.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", str(config)]) == EXIT_OK
    for bad in (True, "1", float("nan"), float("inf"), [1.0]):
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


def test_invariant_breach_exits_3(tmp_path, capsys, monkeypatch):
    # an unsatisfiable exclusion gate makes every sample an offender,
    # driving the invariant-breach exit path
    monkeypatch.setattr(cli, "_EXCLUSION_TOL", -1.0)
    cfg = write_config(tmp_path / "tb.yaml", t_end=1.0, output_times=[1.0])
    code = main(["run", str(cfg)])
    assert code == EXIT_INVARIANT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invariant"
    assert err["check"] == "exclusion"
    assert err["t"] == 1.0
    assert err["step"] == 250


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
