"""Child-side tracing for the granular1d benchmark.

Run with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/tracer.py run CONFIG SPANS_OUT RUN_ID  # traced `granular1d run`
    python3 perfbench/tracer.py probe SEED PROBE_OUT          # direct PAVA timings

``run`` imports ``granular1d.cli``, replaces each traced function at
every binding its callers use (``dynamics.project_monotone`` as well as
``transport.project_monotone``, ``cli.reconstruct`` as well as
``heterogeneous.reconstruct``, ...), runs ``cli.main(["run", CONFIG])``
and writes the spans it kept in memory to SPANS_OUT.  A span is
``[name, start_ns, end_ns, parent_index, run_id]``; counters taken from a call's
inputs and outputs are timed as their own ``trace.counters`` spans so
that they are not charged to the caller's self time.  The process exits
with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_ns = time.perf_counter_ns


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _ns(), 0, self.stack[-1] if self.stack else -1, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _ns()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                cidx = tracer.open("trace.counters")
                try:
                    tracer.counters.setdefault(name, []).append(count(args, result))
                finally:
                    tracer.close(cidx)
            return result

        return traced


def _pava_counts(args, result):
    """(n, runs_in, groups_out, blocks, pooled) of one projection.

    Runs are maximal stretches of exactly equal input values, the unit
    the pool-adjacent-violators scan works on; groups are the pooled
    groups of the fit, whose values strictly increase, so they are the
    runs of equal fitted values.  Blocks are groups of two or more.
    """
    import numpy as np

    z = np.asarray(args[0], dtype=float)
    fit = result[0]
    fitted = np.asarray(getattr(fit, "values", fit), dtype=float)
    n = int(z.size)
    runs_in = 1 + int(np.count_nonzero(np.diff(z))) if n else 0
    starts = np.flatnonzero(np.diff(fitted)) + 1
    lengths = np.diff(np.concatenate([[0], starts, [n]]))
    big = lengths >= 2
    return [n, runs_in, int(lengths.size), int(np.count_nonzero(big)), int(lengths[big].sum())]


def _samples(args, result):
    import numpy as np

    return [int(np.size(result.x))]


# (span name, home module, attribute path, counter) of every traced
# callable; two functions may share a span name when they form one layer.
TARGETS = [
    ("transport.project_monotone", "granular1d.transport", "project_monotone", _pava_counts),
    ("dynamics.step", "granular1d.dynamics", "step", None),
    ("dynamics.init_state", "granular1d.dynamics", "init_state", None),
    ("dynamics.block_velocity", "granular1d.dynamics", "block_velocity", None),
    ("dynamics.adhesion_potential", "granular1d.dynamics", "adhesion_potential", None),
    ("dynamics.check_state", "granular1d.dynamics", "check_state", None),
    ("dynamics.ForceField.call", "granular1d.dynamics", "ForceField.__call__", None),
    ("twoblock.ContactTracker.observe", "granular1d.twoblock", "ContactTracker.observe", None),
    ("twoblock.exact_and_errors", "granular1d.twoblock", "two_block_exact", None),
    ("twoblock.exact_and_errors", "granular1d.twoblock", "error_norms", None),
    ("eulerian.reconstruct", "granular1d.eulerian", "reconstruct", _samples),
    ("eulerian.check_exclusion", "granular1d.eulerian", "check_exclusion", None),
    ("density.mass_quantiles", "granular1d.density", "PiecewiseDensity.mass_quantiles", None),
    ("heterogeneous.build_ratio_system", "granular1d.heterogeneous", "build_ratio_system", None),
    ("cli.build_setup", "granular1d.cli", "build_setup", None),
    ("cli.emit", "granular1d.cli", "_emit_state", None),
    ("cli.run_command", "granular1d.cli", "run_command", None),
]


def install(tracer: Tracer) -> None:
    """Replace every traced callable at each binding that refers to it.

    A function is looked up in its home module and then replaced in
    every loaded ``granular1d`` module whose namespace holds the same
    object, so calls through ``from .x import f`` names are seen too.
    A method is replaced on its class.  Targets a version of the
    package does not define are listed in ``tracer.missing``.
    """
    modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "granular1d"]
    for name, home, path, count in TARGETS:
        try:
            owner = importlib.import_module(home)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{home}.{path}")
            continue
        wrapped = tracer.wrap(name, orig, count)
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)


def traced_run(config: str, spans_out: str, run_id: int) -> int:
    tracer = Tracer(run_id)
    idx = tracer.open("cli.import")
    import granular1d.cli as cli

    tracer.close(idx)
    install(tracer)
    code = cli.main(["run", config])
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(
            {"spans": tracer.spans, "counters": tracer.counters, "missing": tracer.missing}, fh
        )
    return code


def probe(seed: int, out: str) -> int:
    """Median microseconds per direct ``project_monotone`` call on seeded
    random inputs of three sizes and on a strictly decreasing input,
    where every element pools into one group."""
    import numpy as np

    from granular1d.transport import project_monotone

    rng = np.random.default_rng(seed)
    cases = {}
    for label, n, decreasing in [
        ("us_n1e3_random", 1_000, False),
        ("us_n1e4_random", 10_000, False),
        ("us_n1e5_random", 100_000, False),
        ("us_n1e5_decreasing", 100_000, True),
    ]:
        z = rng.normal(0.0, 1.0, n)
        if decreasing:
            z = -np.sort(z)
        w = rng.uniform(0.5, 1.5, n)
        times = []
        spent = 0
        while len(times) < 5 or (spent < 200_000_000 and len(times) < 1000):
            t0 = _ns()
            project_monotone(z, w)
            dt = _ns() - t0
            times.append(dt)
            spent += dt
        times.sort()
        cases[label] = times[len(times) // 2] / 1e3
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(cases, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["run"] and len(argv) == 4:
        return traced_run(argv[1], argv[2], int(argv[3]))
    if argv[:1] == ["probe"] and len(argv) == 3:
        return probe(int(argv[1]), argv[2])
    print("usage: tracer.py run CONFIG SPANS_OUT RUN_ID | tracer.py probe SEED OUT", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
