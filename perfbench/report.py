"""Run every workload of the benchmark and print its metrics by name.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as ``perfbench/run.py`` in turn, with its
correctness checks; this prints one line per metric (workload, name,
value, unit) plus ``failed_frac`` and the output hash, and exits with 1
if any workload failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ok = True
    rows = []
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"{name}: benchmark exited with {res.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        sha = next((ln.split()[-1] for ln in lines if ln.strip().startswith("outputs_sha256")), "")
        ok = ok and result["correct"]
        for key, m in result["metrics"].items():
            rows.append((name, key, f"{m['value']:.6g}", m["unit"]))
        rows.append((name, "failed_frac", f"{result['failed'] / result['attempted']:.6g}",
                     f"({result['failed']}/{result['attempted']})"))
        rows.append((name, "correct", str(result["correct"]).lower(), ""))
        rows.append((name, "outputs_sha256", sha, ""))

    metric_rows = [r for r in rows if r[1] != "outputs_sha256"] or [("", "", "", "")]
    widths = [max(len(r[i]) for r in metric_rows) for i in range(3)]
    for r in rows:
        print(f"{r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  {r[2]:>{widths[2]}} {r[3]}".rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
