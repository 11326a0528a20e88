"""End-to-end and per-layer benchmark of the granular1d CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout's own code is measured: every child runs
``python -m granular1d.cli`` (or ``perfbench/tracer.py``) with
PYTHONPATH set to the checkout's ``src`` only, one running at a time
(closed loop: a child starts after the previous one exited, except that
the two children of a timed pair take turns).  Outputs go
to a fresh directory under ``.perfbench_runs/`` named by
GRANULAR1D_OUTDIR in the child's environment only.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of separate traced runs.  The end-to-end times
are relative: each timed child is paired with the same command run on
a frozen copy of the seed package (``perfbench/seedref``), the two
``run`` children taking turns of TURN_S, and a time metric is the ratio
of the two sides (of their totals for ``run``, the median of the pairs
for ``validate``) times the seed's time in the recorded baseline
(``BASELINE_S``), so a shared machine's drifting speed cancels out.  Every ``run`` child is
checked (exit code, invariant maxima against the solver's tolerances,
row counts, identical output bytes across runs) and counted in
``attempted``/``failed``.  Human-readable lines come first; the last
line of standard output is the JSON result.  A fuller record (every
sample, output hashes, versions) is written to
``.perfbench_runs/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from workloads import (
    BASELINE_S, TWOBLOCK_CONTACT, TWOBLOCK_SEPARATION, WORKLOADS, Workload, twoblock,
)

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_runs"
PROGRAM = ROOT / "src"
SEEDREF = BENCH / "seedref"  # frozen copy of the seed's src/, the timing reference

SETUP_PAIRS = 9        # at least this many `validate` pairs; setup_s is their median ratio
MIN_TIMED_PAIRS = 3    # timed `run` pairs, even if --seconds is already used up
MIN_TRACE_PAIRS = 2    # untraced/traced pairs in a --trace 1 invocation
DEADLINE_S = 170.0     # start no child that could end after this
TURN_S = 0.1           # turn length of the two children of a timed pair
_DEFAULT_EXCLUSION_TOL = 1e-6


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


@dataclass
class RunCheck:
    ok: bool
    reasons: list[str] = field(default_factory=list)
    digest: str = ""
    files: dict[str, str] = field(default_factory=dict)
    rows: int = 0
    bytes: int = 0
    summary: dict | None = None


def child_env(outdir: Path | None, src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GRANULAR1D_OUTDIR")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if outdir is not None:
        env["GRANULAR1D_OUTDIR"] = str(outdir)
    return env


class Runner:
    """Launches children, one running at a time, and times them."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def launch(self, argv: list[str], outdir: Path | None = None, src: Path = PROGRAM) -> Proc:
        self.count += 1
        log = self.tmp / f"child{self.count}.err"
        timeout = max(1.0, self.remaining())
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=child_env(outdir, src),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stderr=log.read_text(errors="replace"),
        )

    def launch_pair(self, jobs: list[tuple[list[str], Path, Path]]) -> list[Proc]:
        """Runs two children (argv, outdir, src) in alternating turns of
        TURN_S, the other one stopped with SIGSTOP, so that both see the
        same phases of a shared machine's speed while never running at
        the same time.  A child starts on its first turn; its wall time
        is the sum of its turns.  Past the deadline both are killed."""
        logs, children, fds = [], [], []
        walls = [0.0] * len(jobs)
        ended: dict[int, tuple[int, object]] = {}
        try:
            while len(ended) < len(jobs):
                for k, (argv, outdir, src) in enumerate(jobs):
                    if k in ended:
                        continue
                    t_on = time.perf_counter()
                    if k == len(children):
                        self.count += 1
                        logs.append(self.tmp / f"child{self.count}.err")
                        with open(logs[k], "wb") as err:
                            children.append(subprocess.Popen(
                                [sys.executable, *argv], cwd=ROOT, env=child_env(outdir, src),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                            ))
                        fds.append(os.pidfd_open(children[k].pid))
                    else:
                        os.kill(children[k].pid, signal.SIGCONT)
                    turn = min(TURN_S, max(0.0, self.remaining()))
                    if not select.select([fds[k]], [], [], turn)[0]:
                        # os.kill, not send_signal: that polls, and could reap the child
                        os.kill(children[k].pid,
                                signal.SIGKILL if self.remaining() <= 0 else signal.SIGSTOP)
                    _, status, usage = os.wait4(children[k].pid, os.WUNTRACED)
                    walls[k] += time.perf_counter() - t_on
                    if not os.WIFSTOPPED(status):
                        ended[k] = (status, usage)
                        children[k].returncode = os.waitstatus_to_exitcode(status)
        finally:
            for k, child in enumerate(children):
                if k not in ended:
                    os.kill(child.pid, signal.SIGKILL)
                    os.kill(child.pid, signal.SIGCONT)
                    ended[k] = os.wait4(child.pid, 0)[1:]
                    child.returncode = os.waitstatus_to_exitcode(ended[k][0])
            for fd in fds:
                os.close(fd)
        procs = []
        for k in range(len(jobs)):
            status, usage = ended[k]
            procs.append(Proc(
                code=os.waitstatus_to_exitcode(status),
                wall_s=walls[k],
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                stderr=logs[k].read_text(errors="replace"),
            ))
        return procs


def check_run(wl: Workload, proc: Proc, outdir: Path) -> RunCheck:
    """Correctness gate of one `run` child."""
    chk = RunCheck(ok=True)
    if proc.code != 0:
        chk.reasons.append(f"exit code {proc.code}: {proc.stderr.strip()[-300:]}")
    names = {
        "lagrangian": f"{wl.stem}.lagrangian.{wl.ext}",
        "eulerian": f"{wl.stem}.eulerian.{wl.ext}",
        "summary": f"{wl.stem}.summary.json",
    }
    digest = hashlib.sha256()
    lines = {}
    for kind, name in names.items():
        path = outdir / name
        if not path.is_file():
            chk.reasons.append(f"missing output {name}")
            continue
        h = hashlib.sha256()
        count = 0
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                count += chunk.count(b"\n")
        chk.files[name] = h.hexdigest()
        digest.update(name.encode() + b"\0" + h.digest())
        lines[kind] = count
        if kind != "summary":
            chk.bytes += path.stat().st_size
    chk.digest = digest.hexdigest()

    header = 1 if wl.ext == "csv" else 0
    expect = {"lagrangian": wl.outputs * wl.n, "eulerian": wl.outputs * (wl.n + 1)}
    for kind, want in expect.items():
        if kind in lines:
            got = lines[kind] - header
            chk.rows += got
            if got != want:
                chk.reasons.append(f"{kind} rows {got} != {want}")

    if "summary" in lines:
        try:
            chk.summary = json.loads((outdir / names["summary"]).read_text())
            inv = chk.summary["invariant_maxima"]
            # the solver's own scales (dynamics.check_state), with bounds in place of run maxima
            vel_scale = max(1.0, wl.mass_bound * max(1.0, wl.speed_bound))
            pos_scale = max(1.0, wl.position_bound)
            excl_tol = float(wl.config.get("tolerances", {}).get("exclusion", _DEFAULT_EXCLUSION_TOL))
            if not inv["gamma_max"] <= 1e-10 * vel_scale:
                chk.reasons.append(f"gamma_max {inv['gamma_max']}")
            slack = inv["feasibility_slack_min"]
            if slack is not None and not slack >= -1e-12 * pos_scale:
                chk.reasons.append(f"feasibility_slack_min {slack}")
            if not inv["exclusion_residual_max"] <= excl_tol:
                chk.reasons.append(f"exclusion_residual_max {inv['exclusion_residual_max']}")
        except (ValueError, KeyError, TypeError) as exc:
            chk.reasons.append(f"unreadable summary: {exc!r}")
    chk.ok = not chk.reasons
    return chk


def accuracy(summary: dict) -> dict[str, float] | None:
    """Errors of a two-block run against the closed-form solution, or
    None if the summary lacks the error norms or the contact interval."""
    try:
        norms = summary["error_norms"]
        final = max(norms, key=float)
        contact, separation = summary["contact_interval"]
        return {
            "x_err_final": norms[final]["x"],
            "gamma_err_max": max(e["gamma_sup"] for e in norms.values()),
            "contact_err": abs(contact - TWOBLOCK_CONTACT) + abs(separation - TWOBLOCK_SEPARATION),
        }
    except (KeyError, TypeError, ValueError):
        return None


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, tmp: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.runner = Runner(tmp, time.perf_counter() + DEADLINE_S)
        self.wl = WORKLOADS[name](seed)
        self.config = self.write_config(self.wl, name)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warnings: list[str] = []
        self.digests: dict[str, dict] = {}
        self.samples: dict = {}

    def write_config(self, wl: Workload, label: str) -> Path:
        path = self.tmp / f"{label}.yaml"
        path.write_text(yaml.safe_dump(wl.config, sort_keys=False))
        return path

    def validate(self, src: Path = PROGRAM) -> float:
        proc = self.runner.launch(["-m", "granular1d.cli", "validate", str(self.config)], src=src)
        if proc.code != 0:
            self.errors.append(f"validate of {src.name} failed ({proc.code}): "
                               + proc.stderr.strip()[-300:])
        return proc.wall_s

    def gated_run(self, wl: Workload, config: Path, argv_prefix: list[str], extra: tuple = ()):
        """One `run` child of the program with a fresh output directory, through the gate."""
        outdir = Path(tempfile.mkdtemp(prefix="out-", dir=self.tmp))
        proc = self.runner.launch([*argv_prefix, "run", str(config), *extra], outdir)
        return proc, self.gate(wl, config, PROGRAM, proc, outdir)

    def gate(self, wl: Workload, config: Path, src: Path, proc: Proc, outdir: Path) -> RunCheck:
        """Checks a finished `run` child and removes its outputs.  Runs
        of the program count in attempted/failed; a failed run of the
        seed reference is an error of the benchmark itself."""
        chk = check_run(wl, proc, outdir)
        shutil.rmtree(outdir)
        key = f"{src.name}:{config}"
        if chk.ok:
            first = self.digests.setdefault(key, {"digest": chk.digest, "files": chk.files})
            if chk.digest != first["digest"]:
                chk.ok = False
                chk.reasons.append("output bytes differ from the first run of the same inputs")
        if src != PROGRAM:
            if not chk.ok:
                self.errors.append("seed reference run failed: " + "; ".join(chk.reasons))
            return chk
        self.attempted += 1
        if not chk.ok:
            self.failed += 1
            self.errors.append(f"run {self.attempted} failed: " + "; ".join(chk.reasons))
        return chk

    def window_open(self, t0: float, done: int, minimum: int, last: float) -> bool:
        """Whether to start another run (or pair), ``last`` being the
        duration of the previous one: while fewer than ``minimum`` are
        done or one more would end about when the window does, and
        while one more still fits before the deadline."""
        if self.runner.remaining() < 1.5 * last + 1.0:
            return False
        return done < minimum or time.perf_counter() - t0 + last / 2 < self.seconds

    def end_to_end(self) -> dict:
        cli = ["-m", "granular1d.cli"]
        sides = (PROGRAM, SEEDREF)
        for src in sides:
            self.validate(src)  # warm-up: bytecode caches and file cache
        setup: list[tuple[float, float]] = []
        pairs: list[tuple[Proc, Proc]] = []
        acc = None
        t0 = time.perf_counter()
        done, last = 0, 0.0
        while self.window_open(t0, done, MIN_TIMED_PAIRS, last):
            # set-up is sampled across the window, so its median sees the
            # same phases of the machine as the runs; the side that goes
            # first alternates
            order = sides if done % 2 == 0 else sides[::-1]
            begin = time.perf_counter()
            walls = {src: self.validate(src) for src in order}
            setup.append((walls[PROGRAM], walls[SEEDREF]))
            jobs = [([*cli, "run", str(self.config)],
                     Path(tempfile.mkdtemp(prefix="out-", dir=self.tmp)), src) for src in order]
            procs, ok = {}, True
            for (_, outdir, src), proc in zip(jobs, self.runner.launch_pair(jobs)):
                procs[src] = proc
                chk = self.gate(self.wl, self.config, src, proc, outdir)
                ok = ok and chk.ok
                if (src == PROGRAM and chk.ok and acc is None
                        and self.wl.config["scenario"] == "two-block"):
                    acc = accuracy(chk.summary)
            if ok:
                pairs.append((procs[PROGRAM], procs[SEEDREF]))
            done, last = done + 1, time.perf_counter() - begin
        while len(setup) < SETUP_PAIRS:
            walls = {src: self.validate(src) for src in sides}
            setup.append((walls[PROGRAM], walls[SEEDREF]))
        if acc is None:
            # only the two-block case has a closed-form reference: run it as shipped, untimed
            ref = twoblock(self.seed)
            proc, chk = self.gated_run(ref, self.write_config(ref, "reference"), cli)
            if chk.ok:
                acc = accuracy(chk.summary)
        if acc is None:
            self.errors.append("no two-block error norms or contact interval in any summary")
        if not pairs or acc is None:
            return {}
        med = statistics.median
        base = BASELINE_S[self.name]
        # a run's ratio is that of the totals over the pairs, which
        # averages the few pairs of a window better than their median;
        # the many short set-up pairs take the median, robust to a stall
        wall_ratio = sum(p.wall_s for p, _ in pairs) / sum(r.wall_s for _, r in pairs)
        cpu_ratio = sum(p.cpu_s for p, _ in pairs) / sum(r.cpu_s for _, r in pairs)
        setup_ratio = [p / r for p, r in setup]
        metrics = {
            "run_wall_s": (wall_ratio * base["run_wall_s"], "s"),
            "run_cpu_s": (cpu_ratio * base["run_cpu_s"], "s"),
            "setup_s": (med(setup_ratio) * base["setup_s"], "s"),
            "peak_rss_mb": (med(p.rss_mb for p, _ in pairs), "MB"),
            "x_err_final": (acc["x_err_final"], "len"),
            "gamma_err_max": (acc["gamma_err_max"], "len2/sim_s"),
            "contact_err": (acc["contact_err"], "sim_s"),
        }
        self.samples = {
            "run_wall_s": [p.wall_s for p, _ in pairs],
            "run_cpu_s": [p.cpu_s for p, _ in pairs],
            "peak_rss_mb": [p.rss_mb for p, _ in pairs],
            "setup_s": [p for p, _ in setup],
            "seedref_run_wall_s": [r.wall_s for _, r in pairs],
            "seedref_run_cpu_s": [r.cpu_s for _, r in pairs],
            "seedref_setup_s": [r for _, r in setup],
            "run_wall_ratio": [p.wall_s / r.wall_s for p, r in pairs],
            "setup_ratio": setup_ratio,
        }
        return metrics

    def per_layer(self) -> dict:
        self.validate()  # warm-up
        probe_out = self.tmp / "probe.json"
        proc = self.runner.launch([str(BENCH / "tracer.py"), "probe", str(self.seed), str(probe_out)])
        if proc.code != 0:
            self.errors.append(f"probe failed ({proc.code}): {proc.stderr.strip()[-300:]}")
            return {}
        probe = json.loads(probe_out.read_text())
        cli = ["-m", "granular1d.cli"]
        plain, traced = [], []
        t0 = time.perf_counter()
        pairs, last = 0, 0.0
        while self.window_open(t0, pairs, MIN_TRACE_PAIRS, last):
            p_plain, c_plain = self.gated_run(self.wl, self.config, cli)
            spans_out = self.tmp / f"spans{pairs}.json"
            p_tr, c_tr = self.gated_run(
                self.wl, self.config, [str(BENCH / "tracer.py")], (str(spans_out), str(pairs))
            )
            pairs, last = pairs + 1, p_plain.wall_s + p_tr.wall_s
            if c_plain.ok:
                plain.append(p_plain.wall_s)
            if c_tr.ok:
                doc = json.loads(spans_out.read_text())
                if doc["missing"]:
                    self.warnings.append("traced functions not found: " + ", ".join(doc["missing"]))
                traced.append(layer_metrics(doc, p_tr.wall_s, c_tr, self.wl.n))
            spans_out.unlink(missing_ok=True)
        if not plain or not traced:
            return {}
        # the traced run of median wall time is reported whole, so its
        # self times and remainder add up to its wall time
        metrics = dict(sorted(traced, key=lambda t: t["trace.wall_s"][0])[(len(traced) - 1) // 2])
        for label, us in probe.items():
            metrics[f"transport.project_monotone.{label}"] = (us, "us")
        metrics["trace.overhead_s"] = (
            metrics["trace.wall_s"][0] - statistics.median(plain), "s")
        for t in traced:
            if t["trace.unattributed_s"][0] < 0:
                self.warnings.append("span self times exceed the traced wall time")
        self.samples = {"untraced_wall_s": plain, "traced": traced}
        return metrics


def layer_metrics(doc: dict, wall: float, chk: RunCheck, n_particles: int) -> dict:
    """Per-layer metrics of one traced run from its spans and counters."""
    spans = doc["spans"]
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), cov in zip(spans, covered):
        self_ns[name] = self_ns.get(name, 0) + (end - start - cov)
        incl_ns[name] = incl_ns.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def self_s(name):
        return self_ns.get(name, 0) / 1e9

    def incl_s(name):
        return incl_ns.get(name, 0) / 1e9

    def per_call_us(name):
        return self_s(name) / calls[name] * 1e6 if calls.get(name) else 0.0

    pava = doc["counters"].get("transport.project_monotone", [])
    full = [c for c in pava if c[0] == n_particles]  # whole-vector calls: one per step plus t=0
    runs_in = sum(c[1] for c in pava)
    samples = sum(c[0] for c in doc["counters"].get("eulerian.reconstruct", []))
    total_self = sum(self_ns.values()) / 1e9
    pm = "transport.project_monotone"
    m = {
        f"{pm}.calls": (calls.get(pm, 0), "count"),
        f"{pm}.self_s": (self_s(pm), "s"),
        f"{pm}.us_per_call": (per_call_us(pm), "us"),
        f"{pm}.runs_in": (runs_in, "count"),
        f"{pm}.merges": (runs_in - sum(c[2] for c in pava), "count"),
        f"{pm}.blocks_mean": (sum(c[3] for c in full) / len(full) if full else 0.0, "count"),
        f"{pm}.pooled_frac": (
            sum(c[4] for c in full) / sum(c[0] for c in full) if full else 0.0, "ratio"),
        "dynamics.block_velocity.self_s": (self_s("dynamics.block_velocity"), "s"),
        "dynamics.block_velocity.us_per_call": (per_call_us("dynamics.block_velocity"), "us"),
        "dynamics.check_state.self_s": (self_s("dynamics.check_state"), "s"),
        "dynamics.check_state.us_per_call": (per_call_us("dynamics.check_state"), "us"),
        "twoblock.ContactTracker.observe.self_s": (self_s("twoblock.ContactTracker.observe"), "s"),
        "dynamics.step.calls": (calls.get("dynamics.step", 0), "count"),
        "dynamics.step.self_s": (self_s("dynamics.step"), "s"),
        "dynamics.ForceField.call.self_s": (self_s("dynamics.ForceField.call"), "s"),
        "dynamics.adhesion_potential.self_s": (self_s("dynamics.adhesion_potential"), "s"),
        "cli.run_command.self_s": (self_s("cli.run_command"), "s"),
        "cli.emit.self_s": (self_s("cli.emit"), "s"),
        "cli.emit.rows": (chk.rows, "count"),
        "cli.emit.bytes": (chk.bytes, "bytes"),
        "cli.emit.rows_per_s": (chk.rows / self_s("cli.emit") if self_s("cli.emit") else 0.0, "1/s"),
        "eulerian.reconstruct.self_s": (self_s("eulerian.reconstruct"), "s"),
        "eulerian.reconstruct.samples": (samples, "count"),
        "eulerian.check_exclusion.self_s": (self_s("eulerian.check_exclusion"), "s"),
        "cli.import_s": (incl_s("cli.import"), "s"),
        "cli.build_setup.s": (incl_s("cli.build_setup"), "s"),
        "density.mass_quantiles.s": (incl_s("density.mass_quantiles"), "s"),
        "heterogeneous.build_ratio_system.s": (incl_s("heterogeneous.build_ratio_system"), "s"),
        "dynamics.init_state.s": (incl_s("dynamics.init_state"), "s"),
        "twoblock.exact_and_errors.self_s": (self_s("twoblock.exact_and_errors"), "s"),
        "trace.counters_s": (self_s("trace.counters"), "s"),
        "trace.self_sum_s": (total_self, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - total_self, "s"),
    }
    return m


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if res.returncode == 0:
                commit = res.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "granular1d" / "cli.py").is_file():
        print(f"perfbench: no granular1d sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, tmp)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        env = environment()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for msg in bench.errors + sorted(set(bench.warnings)):
        print(f"perfbench: {msg}", file=sys.stderr)
    if not metrics:
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1

    failed_frac = bench.failed / bench.attempted
    outputs = bench.digests.get(f"{PROGRAM.name}:{bench.config}", {})
    seed_outputs = bench.digests.get(f"{SEEDREF.name}:{bench.config}", {})
    same_as_seed = outputs.get("digest") == seed_outputs["digest"] if seed_outputs else None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "config": bench.wl.config,
        "attempted": bench.attempted, "failed": bench.failed, "failed_frac": failed_frac,
        "outputs_sha256": outputs.get("digest"), "output_files_sha256": outputs.get("files"),
        "outputs_same_as_seed": same_as_seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": bench.samples, "errors": bench.errors, "warnings": bench.warnings,
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    print(f"  {'failed_frac':<{width}}  {failed_frac:.6g} ({bench.failed}/{bench.attempted})")
    print(f"  {'outputs_sha256':<{width}}  {outputs.get('digest')}")
    if same_as_seed is not None:
        print(f"  {'outputs_same_as_seed':<{width}}  {str(same_as_seed).lower()}")
    for key in ("run_wall_s", "run_cpu_s", "setup_s"):
        if f"seedref_{key}" in bench.samples:
            prog = statistics.median(bench.samples[key])
            ref = statistics.median(bench.samples[f"seedref_{key}"])
            print(f"  {'raw ' + key:<{width}}  {prog:.6g} s (seed reference {ref:.6g} s)")
    result = {
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
