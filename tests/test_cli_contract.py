"""A seeded fuzzer for the CLI's exit-code contract.

Each case sets one to three leaves of a small base config (the two
shipped configs with few particles and steps, and a small custom one)
to values from a fixed atom table, then calls ``validate`` and ``run``
in-process.  The contract it checks:

- every call exits 0, 2 or 3;
- a failure writes exactly one strict-JSON line on stderr, a success none;
- ``validate`` exits 0 only for a config that ``run`` accepts (does not
  refuse with exit 2);
- no failure names the check ``exclusion``, which holds by construction.

A case whose particle-steps exceed ``BUDGET`` goes through ``validate``
only; how many did is pinned per seed, so that a change to the atoms or
the bases that stops running cases shows.
"""

import copy
import json
import math
import random
from pathlib import Path

import pytest
import yaml

from granular1d.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMALL = {"twoblock": {"n": 20, "dt": 0.02}, "heterogeneous": {"n": 20, "dt": 0.1}}
CUSTOM = {
    "scenario": "custom", "n": 10, "dt": 0.1, "t_end": 0.5, "output_times": [0.0, 0.5],
    "density": {"blocks": [[0.0, 1.0], [1.5, 2.5, 0.5]]}, "u0": 0.5,
    "force": {"breakpoints": [1.2], "values": [0.5, -0.5]},
    "output": {"path": "out/custom", "format": "json-lines"},
}
ATOMS = [
    0, 1, -1, 0.0, 1.0, -1.0, 1e-300, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
    10**400, True, False, None, "", "x", "csv", "json-lines", "marching", "custom",
    [], [0.0], [0.5, -0.5], [[0.0, 1.0]], {}, {"a": 1}, {"blocks": [[0.0, 1.0]]},
]
BUDGET = 4000  # particle-steps for a case to be run as well as validated
CASES = 100
SEEDS = {0: 8, 1: 5, 2: 8, 3: 6}  # seed: cases over the budget, validated only


def bases():
    out = []
    for name, small in SMALL.items():
        cfg = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8"))
        out.append({**cfg, **small})
    return out + [CUSTOM]


def leaves(node, path=()):
    """The paths of the scalars in a config, and of its empty containers."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        if isinstance(val, (dict, list)) and val:
            yield from leaves(val, path + (key,))
        else:
            yield path + (key,)


def mutate(rng, cfg):
    cfg = copy.deepcopy(cfg)
    for path in rng.sample(list(leaves(cfg)), rng.randint(1, 3)):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(rng.choice(ATOMS))
    return cfg


def particle_steps(cfg):
    """n times the step count; 0 where n, dt or t_end is no number a float
    can hold, which ``run`` refuses before its first step."""
    try:
        n, dt, t_end = (float(cfg[k]) for k in ("n", "dt", "t_end"))
    except (KeyError, TypeError, ValueError, OverflowError):
        return 0
    work = max(n, 1.0) * t_end / dt if dt > 0 else math.inf
    return math.inf if math.isnan(work) else work


def call(capsys, command, path):
    """Exit status of one in-process call, checked against the contract."""
    status = main([command, str(path)])
    err = capsys.readouterr().err
    what = f"{command} exited {status}, stderr {err!r}"
    assert status in (0, 2, 3), what
    if status == 0:
        assert err == "", what
        return status
    assert err.endswith("\n") and err.count("\n") == 1, what
    line = json.loads(err, parse_constant=lambda c: pytest.fail(f"not strict JSON: {what}"))
    assert line["error"] in (("config",) if status == 2 else ("invariant", "runtime")), what
    assert line.get("check") != "exclusion", what
    return status


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_cli_exit_contract(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRANULAR1D_OUTDIR", str(tmp_path / "out"))
    rng = random.Random(seed)
    base = bases()
    validated_only = 0
    for case in range(CASES):
        cfg = mutate(rng, rng.choice(base))
        path = tmp_path / f"case{case}.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        valid = call(capsys, "validate", path)
        if particle_steps(cfg) > BUDGET:
            validated_only += 1
            continue
        ran = call(capsys, "run", path)
        assert valid != 0 or ran != 2, f"case {case}: validate accepts what run refuses: {cfg}"
    assert validated_only == SEEDS[seed]
