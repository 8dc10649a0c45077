"""Run every workload in both modes and print every metric with its unit.

    python3 perfbench/report.py --seeds 1,2,3

Each (workload, trace, seed) is one ``run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``, run one after another.  For each
metric the table shows the median over the seeds and, with three or more
seeds, the spread: the distance between the first and third quartile as a
share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            results = []
            for seed in seeds:
                done = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                )
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return done.returncode
                results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            ok = ok and failed == 0
            print(f"{workload}  trace={trace}  seeds={seeds}  failed {failed} of {attempted}")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                line = f"  {name:<40} {median:>14.6g} {first['unit']:<6}"
                if len(values) >= 3 and median:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    line += f" spread {(q3 - q1) / abs(median):.3f}"
                    if bounds.get(name) is not None:
                        line += f" (bound {bounds[name]})"
                print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
