"""Seeded workload configs for the granular1d benchmark.

Each workload is a YAML config for ``granular1d run`` plus the scales
the correctness gate needs to evaluate the solver's own tolerances from
outside the process: an upper bound on total mass, on |velocity| and on
|position| over the run.  The same seed always gives the same config.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# closed-form event times of the two-block reference: contact at
# sqrt(gap / alpha), separation at 2 t_star (see granular1d.twoblock)
TWOBLOCK_CONTACT = math.sqrt(0.2048 / 0.5)
TWOBLOCK_SEPARATION = 2.0 * 1.0


@dataclass(frozen=True)
class Workload:
    config: dict
    mass_bound: float
    speed_bound: float
    position_bound: float

    @property
    def n(self) -> int:
        return int(self.config["n"])

    @property
    def outputs(self) -> int:
        return len(self.config["output_times"])

    @property
    def ext(self) -> str:
        return "csv" if self.config["output"]["format"] == "csv" else "jsonl"

    @property
    def stem(self) -> str:
        return self.config["output"]["path"].rsplit("/", 1)[-1]


def twoblock(seed: int) -> Workload:
    """``configs/twoblock.yaml`` as shipped: the paper's validation case
    and the only one with a closed-form reference.  The seed is unused."""
    cfg = {
        "scenario": "two-block",
        "n": 2000,
        "dt": 1.0e-3,
        "t_end": 3.0,
        "output_times": [0.0, 0.64, 1.0, 1.5, 2.0, 3.0],
        "force": {"alpha": 0.5, "t_star": 1.0},
        "integrator": "marching",
        "output": {"path": "out/twoblock", "format": "csv"},
    }
    # blocks [-1.1024, -0.1024] and [0.1024, 1.1024], |f| = 0.5 for 3 s
    return Workload(cfg, mass_bound=2.0, speed_bound=1.5, position_bound=1.1024 + 1.5 * 3.0)


def hetero_compress(seed: int) -> Workload:
    """Heterogeneous bound under compression: long runs of PAVA merges,
    one or two blocks, json-lines output."""
    rng = random.Random(seed)
    amplitude = round(rng.uniform(0.15, 0.25), 6)
    bp = round(rng.uniform(0.45, 0.55), 6)
    cfg = {
        "scenario": "heterogeneous",
        "n": 4000,
        "dt": 1.0e-3,
        "t_end": 0.8,
        "output_times": [0.0, 0.1, 0.5, 0.8],
        "fill": 0.8,
        "constraint": {"base": 1.0, "amplitude": amplitude},
        "force": {"breakpoints": [bp], "values": [0.5, -0.5]},
        "integrator": "marching",
        "output": {"path": "out/hetero", "format": "json-lines"},
    }
    # the ratio density fill * rho_star / rho_star carries mass 0.8 on [0, 1]
    return Workload(cfg, mass_bound=1.0, speed_bound=0.5 * 0.8, position_bound=1.0 + 0.4 * 0.8)


def records_heavy(seed: int) -> Workload:
    """Three density blocks written every second step: record formatting
    and writing dominate, the solver is a small share."""
    rng = random.Random(seed)
    base = [[-1.5, -0.5, 0.6], [-0.3, 0.3, 1.0], [0.5, 1.5, 0.6]]
    blocks = []
    for k, (lo, hi, h) in enumerate(base):
        height = rng.uniform(0.95, 1.0) if k == 1 else rng.uniform(0.5, 0.7)
        blocks.append(
            [round(lo + rng.uniform(-0.05, 0.05), 6), round(hi + rng.uniform(-0.05, 0.05), 6),
             round(height, 6)]
        )
    steps, every, dt = 200, 2, 1.0e-3
    cfg = {
        "scenario": "custom",
        "n": 2000,
        "dt": dt,
        "t_end": round(steps * dt, 12),
        "output_times": [round(k * every * dt, 12) for k in range(steps // every + 1)],
        "density": {"blocks": blocks},
        "u0": 0.0,
        "force": {"breakpoints": [0.0], "values": [0.5, -0.5]},
        "integrator": "marching",
        "output": {"path": "out/records", "format": "csv"},
    }
    mass = sum((hi - lo) * h for lo, hi, h in blocks)
    return Workload(cfg, mass_bound=mass, speed_bound=0.5 * 0.2, position_bound=1.6 + 0.1 * 0.2)


WORKLOADS = {
    "twoblock": twoblock,
    "hetero-compress": hetero_compress,
    "records-heavy": records_heavy,
}

# The seed's times per workload (medians of ten invocations, seeds
# 401-410, on a 2-vCPU Xeon VM; see README.md).  End-to-end times are
# reported as the ratio to the frozen seed copy run alongside,
# times these, i.e. in seconds of that baseline.
BASELINE_S = {
    "twoblock": {"run_wall_s": 3.815, "run_cpu_s": 3.814, "setup_s": 0.189},
    "hetero-compress": {"run_wall_s": 1.624, "run_cpu_s": 1.619, "setup_s": 0.166},
    "records-heavy": {"run_wall_s": 1.553, "run_cpu_s": 1.552, "setup_s": 0.145},
}
