"""Run workloads over several seeds and print each metric's median and quartiles.

    python3 bench/report.py                       # all four workloads, seeds 1-5
    python3 bench/report.py --workloads contour --seeds 1 2 3 --trace 1

Each run is its own process (``bench/run.py``), run one after another.
For every workload and metric the report gives the median, the first and
third quartiles, their distance as a share of the median, and the run
count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> list[str]:
    lines = []
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    lines.append(f"  runs {len(results)}, correct {correct}, fail_frac {failed}/{attempted}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / median if median else float("nan")
        lines.append(f"  {name:44s} median {median:12.6g} {first['unit']:6s} "
                     f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=int,
                        default=json.loads((RUN.parent.parent / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        print(f"{workload}:")
        print("\n".join(summarize(results)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
