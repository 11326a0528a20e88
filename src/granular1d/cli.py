"""Command-line front end: configure a scenario, run it, and write
Lagrangian/Eulerian records plus a summary for external plotting.

Config files are YAML (see README for the schema).  Exit codes:
0 success, 2 malformed config, 3 invariant violation beyond tolerance.
Outputs are plain CSV or JSON-lines with shortest round-trip float
formatting, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
import yaml

from .density import PiecewiseDensity, Segment, uniform_blocks
from .dynamics import (
    ForceField,
    SimState,
    StepperConfig,
    init_state,
    piecewise_constant_force,
    run_windows,
)
from .errors import EmptyMeasureError, Granular1dError, InvariantViolation
from .eulerian import check_exclusion, reconstruct
from .heterogeneous import build_ratio_system, cosine_bump_rho_star
from .transport import ParticleSystem, build_particles
from .twoblock import ContactTracker, TwoBlockParams, error_norms, two_block_exact, two_block_force

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

_ENV_OUTDIR = "GRANULAR1D_OUTDIR"
_COMMON_KEYS = frozenset("scenario n dt t_end output_times force integrator output".split())


class ConfigError(Granular1dError):
    pass


@dataclass
class RunSetup:
    scenario: str
    ps: ParticleSystem
    u0: np.ndarray
    force: ForceField
    stepper: StepperConfig
    output_steps: set[int]
    out_prefix: Path
    out_format: str
    two_block: TwoBlockParams | None = None


def _require(cfg: dict, key: str, typ=None):
    if key not in cfg:
        raise ConfigError(f"missing config key '{key}'")
    val = cfg[key]
    if typ is not None and (not isinstance(val, typ) or isinstance(val, bool)):
        raise ConfigError(f"config key '{key}' has wrong type {type(val).__name__}")
    return val


def _section(cfg: dict, key: str, allowed, default=None, required=False) -> dict:
    """A mapping-valued config key holding only the keys ``allowed``; if
    absent, ``default`` (empty), or an error when required."""
    if required:
        _require(cfg, key)
    val = cfg.get(key, {} if default is None else default)
    if not isinstance(val, dict):
        raise ConfigError(f"config key '{key}' must be a mapping")
    unknown = set(val) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{key}': {', '.join(sorted(map(str, unknown)))}")
    return val


def _number(val, key: str) -> float:
    """The one reader of numeric config values: a finite YAML number."""
    ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
          and abs(val) <= sys.float_info.max)
    if not ok:
        raise ConfigError(f"config key '{key}' must be a finite number")
    return float(val)


def _numbers(val, key: str) -> list[float]:
    if not isinstance(val, list):
        raise ConfigError(f"config key '{key}' must be a list of numbers")
    return [_number(v, key) for v in val]


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _output_steps(cfg: dict, stepper: StepperConfig) -> set[int]:
    times = _numbers(cfg.get("output_times", [0.0, stepper.t_end]), "output_times")
    if not times:
        raise ConfigError("output_times must be a nonempty list")
    steps = {t: _grid_step(t, stepper.dt, "output time") for t in times}
    for t, k in steps.items():
        if not 0 <= k <= stepper.n_steps:
            raise ConfigError(f"output time {t} outside [0, t_end]")
    return set(steps.values())


def _grid_step(t: float, dt: float, what: str) -> int:
    """Index of the step that lands on time t; t must lie on the grid,
    within 1e-9 * max(1, t) and a quarter step."""
    if not abs(t / dt) <= sys.float_info.max:
        raise ConfigError(f"{what} {t} is too many steps of dt={dt} to count")
    idx = int(round(t / dt))
    if abs(idx * dt - t) > min(1e-9 * max(1.0, t), dt / 4):
        raise ConfigError(f"{what} {t} is not on the step grid (dt={dt})")
    return idx


def _force(cfg: dict, default: dict | None) -> ForceField:
    """Either force form, from the ``force`` section or else ``default`` (required if None)."""
    spec = _section(cfg, "force", ("alpha", "t_star", "breakpoints", "values"), default,
                    required=default is None)
    two_block = {"alpha", "t_star"} & spec.keys()
    if bool(two_block) == bool({"breakpoints", "values"} & spec.keys()):
        raise ConfigError("force takes one form: alpha/t_star or breakpoints/values")
    if two_block:
        return two_block_force(*(_number(_require(spec, k), k) for k in ("alpha", "t_star")))
    values = _numbers(_require(spec, "values"), "values")
    return piecewise_constant_force(_numbers(_require(spec, "breakpoints"), "breakpoints"), values)


# Each builder maps (cfg, n) to (particles, u0, force, two-block params or None).
def _two_block(cfg: dict, n: int):
    geom = _section(cfg, "blocks", ("a1", "b1", "a2", "b2"))
    fspec = _section(cfg, "force", ("alpha", "t_star"))
    params = TwoBlockParams(**{k: _number(v, k) for k, v in {**geom, **fspec}.items()})
    return params.build(n), np.zeros(n), params.force(), params


def _heterogeneous(cfg: dict, n: int):
    cspec = _section(cfg, "constraint", ("base", "amplitude"))
    star = cosine_bump_rho_star(**{k: _number(v, k) for k, v in cspec.items()})
    fill = _number(cfg.get("fill", 0.8), "fill")
    # density = fill * rho_star on [0, 1], so the ratio is fill there
    force = _force(cfg, {"breakpoints": [0.5], "values": [0.5, -0.5]})
    return build_ratio_system(uniform_blocks([(0.0, 1.0)], fill), star, n), np.zeros(n), force, None


def _custom(cfg: dict, n: int):
    dspec = _section(cfg, "density", ("blocks",), required=True)
    blocks = [_numbers(b, "density.blocks") for b in _require(dspec, "blocks", list)]
    # [lo, hi, height] or [lo, hi] at height 1; any other length is a TypeError
    segs = [Segment(*(b if len(b) == 3 else b + [1.0])) for b in blocks]
    ps = build_particles(PiecewiseDensity(segs), n)
    u0 = cfg.get("u0", 0.0)
    u0 = np.asarray(_numbers(u0, "u0")) if isinstance(u0, list) else np.full(n, _number(u0, "u0"))
    if u0.size != n:
        raise ConfigError("u0 list must have length n")
    return ps, u0, _force(cfg, None), None


_SCENARIOS = {  # each scenario's own top-level keys and its builder
    "two-block": (("blocks",), _two_block),
    "heterogeneous": (("fill", "constraint"), _heterogeneous),
    "custom": (("density", "u0"), _custom),
}


def build_setup(cfg: dict, config_path: str | Path) -> RunSetup:
    """Parse a config into a runnable setup.  Values that the library
    rejects (ValueError, TypeError, an empty measure) surface as ConfigError."""
    try:
        return _build_setup(cfg, config_path)
    except (ValueError, TypeError, EmptyMeasureError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _build_setup(cfg: dict, config_path: str | Path) -> RunSetup:
    scenario = _require(cfg, "scenario", str)
    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario '{scenario}'")
    own_keys, builder = _SCENARIOS[scenario]
    unknown = set(cfg) - _COMMON_KEYS - set(own_keys)
    if unknown:
        raise ConfigError(f"unknown keys for '{scenario}': {', '.join(sorted(map(str, unknown)))}")
    n = _require(cfg, "n", int)
    _number(n, "n")  # finite: the library divides by n as a float
    stepper = StepperConfig(*(_number(_require(cfg, k), k) for k in ("dt", "t_end")))
    _grid_step(stepper.t_end, stepper.dt, "t_end")  # t_end lies on the grid
    if cfg.get("integrator", "marching") != "marching":
        raise ConfigError(
            "integrator must be 'marching'; the Picard fixed point is library-only "
            "(granular1d.picard_solve), valid up to the first release"
        )

    out_cfg = _section(cfg, "output", ("path", "format"))
    prefix = Path(out_cfg.get("path", Path(config_path).stem))
    if not prefix.name:  # "", "." or "/": nothing to add the record suffixes to
        raise ConfigError("output.path must name a file")
    outdir = os.environ.get(_ENV_OUTDIR)
    if outdir:
        prefix = Path(outdir) / prefix.name
    out_format = out_cfg.get("format", "csv")
    if out_format not in ("csv", "json-lines"):
        raise ConfigError("output.format must be 'csv' or 'json-lines'")

    ps, u0, force, two_block = builder(cfg, n)
    return RunSetup(
        scenario=scenario,
        ps=ps,
        u0=u0,
        force=force,
        stepper=stepper,
        output_steps=_output_steps(cfg, stepper),
        out_prefix=prefix,
        out_format=out_format,
        two_block=two_block,
    )


def _open_output(path: Path):
    """Open an output file for writing, creating its directory; a
    location that cannot be written is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _check_output(path: Path) -> None:
    """Raise a config error, as ``_open_output`` would, unless path can
    be written, creating nothing: its nearest existing ancestor must be a
    directory, and the file (if it exists, else that ancestor) writable."""
    ancestor = path.parent
    while not ancestor.exists():
        ancestor = ancestor.parent
    if path.is_dir():
        code, where = errno.EISDIR, path
    elif not ancestor.is_dir():
        code, where = errno.ENOTDIR, ancestor
    elif not os.access(path if path.exists() else ancestor, os.W_OK):
        code, where = errno.EACCES, path
    else:
        return
    raise ConfigError(f"cannot write output {path}: {OSError(code, os.strerror(code), str(where))}")


class _RecordWriter:
    """Fixed-schema record emitter, CSV or JSON-lines, and the context
    manager that closes its file.

    Each cell is the shortest round-trip ``repr`` of its value, which is
    what ``json.dumps`` emits for finite floats and ints.  Each distinct
    value of a column (by bits: -0.0 keeps its text) is formatted once per
    write, with its share of the row's text; rows are joined and streamed.
    """

    def __init__(self, path: Path, columns: list[str], fmt: str):
        self.fmt = fmt
        self.fh = _open_output(path)
        if fmt == "csv":
            self.fh.write(",".join(columns) + "\n")
            self._sep, self._null, end = ",", "", "\n"
            self._prefix = [""] * len(columns)
        else:
            self._sep, self._null, end = ", ", "null", "}\n"
            self._prefix = [f"{json.dumps(c)}: " for c in columns]
            self._prefix[0] = "{" + self._prefix[0]
        self._suffix = [""] * (len(columns) - 1) + [end]

    def write(self, n: int, values: list) -> None:
        """Write n rows.  ``values`` holds one entry per column: a vector
        of n numbers, a number repeated on every row, or None (an empty
        CSV cell, a JSON null)."""
        if len(values) != len(self._prefix):
            raise ValueError("one value per column expected")
        cells = [self._cells(*c, n) for c in zip(values, self._prefix, self._suffix)]
        self.fh.writelines(map(self._sep.join, zip(*cells)))

    def _cells(self, value, prefix: str, suffix: str, n: int):
        if value is None:
            return repeat(prefix + self._null + suffix, n)
        arr = np.asarray(value)
        cell = repr
        if self.fmt != "csv" and not np.all(np.isfinite(arr)):
            cell = json.dumps  # NaN and Infinity, as json.dumps spells them
        if arr.ndim == 0:
            return repeat(prefix + cell(arr.item()) + suffix, n)
        if arr.shape != (n,):
            raise ValueError(f"column of shape {arr.shape}, expected ({n},)")
        bits = arr.astype(np.float64, copy=False).view(np.int64) if arr.dtype.kind == "f" else arr
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        texts = np.array([prefix + cell(v) + suffix for v in arr[first].tolist()], dtype=object)
        return texts[inverse].tolist()

    def __enter__(self) -> _RecordWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


def _emit_state(setup: RunSetup, state: SimState, lag: _RecordWriter, eul: _RecordWriter,
                errors: dict[str, dict[str, float]]) -> float:
    """Write an output state, record its error norms against the exact
    solution where there is one, and return its exclusion residual."""
    t = state.t
    lag.write(state.n, [t, np.arange(state.n), state.x, state.u, state.gamma])
    field = reconstruct(state, setup.ps)
    eul.write(field.n_samples, [t, field.x, field.rho, field.u, field.gamma, field.rho_star])
    if setup.two_block is not None:
        exact = two_block_exact(setup.two_block, setup.ps, t)
        errors[repr(float(t))] = error_norms(state, exact, setup.ps.masses)
    return check_exclusion(field)


def _record_path(setup: RunSetup, kind: str) -> Path:
    """The file of one kind of output: records in the run's format, the summary in JSON."""
    ext = "json" if kind == "summary" else "csv" if setup.out_format == "csv" else "jsonl"
    return setup.out_prefix.with_suffix(f".{kind}.{ext}")


def _writer(setup: RunSetup, kind: str, columns: list[str]) -> _RecordWriter:
    return _RecordWriter(_record_path(setup, kind), columns, setup.out_format)


def run_command(config_path: str) -> int:
    setup = build_setup(load_config(config_path), config_path)
    n = setup.ps.n
    tracker = ContactTracker((n // 2 - 1, n // 2))  # n = 1: no block, no contact
    max_gamma = -np.inf
    min_slack = np.inf
    max_exclusion = 0.0
    first_congested: float | None = None
    errors: dict[str, dict[str, float]] = {}
    # if the Eulerian writer cannot be opened, the Lagrangian one is closed
    with _writer(setup, "lagrangian", ["t", "i", "x", "u", "gamma"]) as lag, \
            _writer(setup, "eulerian", ["t", "x", "rho", "u", "gamma", "rho_star"]) as eul:
        # the partition's consumers look at each piece of a stretch (its steps
        # on one partition) once, at its first time; only output states are
        # evaluated
        for stretch in run_windows(setup.ps, setup.u0, setup.force, setup.stepper):
            for k, blocks in stretch.pieces():
                t0 = k * setup.stepper.dt  # the time ``step`` gives that step
                tracker.observe(t0, blocks)
                if first_congested is None and len(blocks):
                    first_congested = t0
            max_gamma = max(max_gamma, stretch.gamma_max)
            min_slack = min(min_slack, stretch.slack_min)
            for state in stretch.rows(k for k in stretch.steps if k in setup.output_steps):
                max_exclusion = max(max_exclusion, _emit_state(setup, state, lag, eul, errors))
                del state
            del stretch  # one stretch in memory at a time

    summary = {
        "scenario": setup.scenario,
        "n": n,
        "dt": setup.stepper.dt,
        "t_end": setup.stepper.t_end,
        "integrator": "marching",
        "first_congested_time": first_congested,
        "contact_interval": None
        if tracker.contact_time is None
        else [tracker.contact_time, tracker.separation_time],
        "invariant_maxima": {
            "gamma_max": max_gamma,
            "feasibility_slack_min": None if not np.isfinite(min_slack) else min_slack,
            "exclusion_residual_max": max_exclusion,
        },
        "error_norms": errors or None,
    }
    with _open_output(_record_path(setup, "summary")) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def validate_command(config_path: str) -> int:
    setup = build_setup(load_config(config_path), config_path)
    # the files ``run`` writes, in the order it opens them, before its first state
    for kind in ("lagrangian", "eulerian", "summary"):
        _check_output(_record_path(setup, kind))
    init_state(setup.ps, setup.u0)  # raises where the initial state fails check_state
    print(
        f"ok: scenario={setup.scenario} n={setup.ps.n} mass={float(setup.ps.total_mass)!r} "
        f"steps={setup.stepper.n_steps} outputs={len(setup.output_steps)}"
    )
    return EXIT_OK


def oracle_command(config_path: str) -> int:
    setup = build_setup(load_config(config_path), config_path)
    if setup.two_block is None:
        raise ConfigError("oracle output exists only for the two-block scenario")
    with _writer(setup, "oracle", ["t", "i", "x", "u", "gamma"]) as out:
        for k in sorted(setup.output_steps):
            t = k * setup.stepper.dt  # the step's time, as ``run`` labels it
            snap = two_block_exact(setup.two_block, setup.ps, t)
            out.write(setup.ps.n, [t, np.arange(setup.ps.n), snap.x_ex, snap.u_ex, snap.gamma_ex])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="granular1d",
        description="1D constrained granular flow simulator (Lagrangian cone projection)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("run", "run a scenario and write Lagrangian/Eulerian records"),
        ("validate", "parse a config, check its output location, dry-run the initial data"),
        ("oracle", "emit the closed-form reference solution only"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the YAML config file")
    args = parser.parse_args(argv)
    handlers = {"run": run_command, "validate": validate_command, "oracle": oracle_command}
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the gate names non-finite states
            return handlers[args.command](args.config)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(
            json.dumps(
                {"error": "invariant", "check": exc.check, "value": exc.value,
                 "t": exc.t, "step": exc.step, "i": exc.index}
            ),
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    except Granular1dError as exc:
        print(json.dumps({"error": "runtime", "detail": str(exc)}), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
