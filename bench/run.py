"""decaylab benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload contour --seed 1 --seconds 12 --trace 0

One process runs one workload as a closed loop: a single caller runs the
workload's cases back to back, waits for each result and checks it
against an independent route of the library.  A round is one pass over
the cases; rounds repeat until ``--seconds`` have passed, so a run
measures at least ``--seconds`` and at most one round more.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics:

* ``setup_s``: time from the start of ``main``, before numpy is
  imported, to the start of the first timed case: importing decaylab,
  making the cases and running the untimed warm-up cases;
* ``wall_s``: median time of a round, the time to a checked result;
* ``peak_rss_mb``: the process's peak resident memory.

With ``--trace 1`` the rounds run once untraced and then as many times
again with spans around every call into a decaylab layer, and the JSON
holds the per-layer metrics, per round.  ``failed`` counts the cases that
raised or missed their check; ``correct`` is false when one of them is
not a known miss within its ceiling in ``cases.py``.

Scratch files (the CLI cases' output dirs, the span dump) go to
``.bench_out/`` at the repository root, since a run reads and writes only
inside its checkout.  The CLI output dirs are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("contour", "polecut", "oracle", "wavepacket")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _calls_self(name: str) -> dict[str, str]:
    return {f"{name}.calls": "count", f"{name}.self_s": "s"}


PER_LAYER = {
    **_calls_self("selfenergy.sigma_upper_grid"),
    "selfenergy.sigma_upper_grid.points": "count",
    **_calls_self("amplitude.survival_numeric"),
    "amplitude.transform_terms": "count",
    **_calls_self("selfenergy.sigma_physical"),
    **_calls_self("selfenergy.sigma_upper"),
    **_calls_self("selfenergy.sigma_continued"),
    **_calls_self("selfenergy.sigma_panel_rule"),
    **_calls_self("selfenergy.cut_discontinuity"),
    **_calls_self("selfenergy.renormalize_below_threshold"),
    "selfenergy.quad.calls": "count",
    **_calls_self("poles.find_pole"),
    "poles.newton_iterations": "count",
    **_calls_self("amplitude.cut_integral"),
    **_calls_self("amplitude.survival_pole_cut"),
    "spectral.density.calls": "count",
    "spectral.density.points": "count",
    "spectral.density_complex.calls": "count",
    **_calls_self("discrete_oracle.survival_exact_discrete"),
    "discrete_oracle.bins": "count",
    "discrete_oracle.eig_flops": "flop",
    **_calls_self("discrete_oracle.resolvent_direct"),
    **_calls_self("discrete_oracle.resolvent_partitioned"),
    **_calls_self("twosurface.step"),
    "twosurface.step.us": "us",
    **_calls_self("twosurface.run"),
    **_calls_self("continuum.synthesize_packet"),
    **_calls_self("continuum.packet_coefficients"),
    "continuum.basis_points": "count",
    **_calls_self("cli.main"),
    "cli.bytes_written": "byte",
    **_calls_self("config.load_config"),
    "bench.case.self_s": "s",
    "trace.overhead_s": "s",
}

# Span groups whose share of the traced wall time is printed: each workload
# is meant to spend most of its time in one of them.
COVERAGE = {
    "selfenergy": ("selfenergy.",),
    "amplitude": ("amplitude.",),
    "poles": ("poles.",),
    "scalar selfenergy+poles+cut_integral": (
        "selfenergy.sigma_physical", "selfenergy.sigma_upper.", "selfenergy.sigma_continued",
        "selfenergy.sigma_panel_rule", "selfenergy.cut_discontinuity",
        "selfenergy.renormalize_below_threshold", "poles.", "amplitude.cut_integral"),
    "discrete_oracle": ("discrete_oracle.",),
    "discrete_oracle.survival_exact_discrete": ("discrete_oracle.survival_exact_discrete",),
    "twosurface.step+continuum.synthesize_packet": (
        "twosurface.step", "continuum.synthesize_packet"),
    "cli": ("cli.",),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small case sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _set_threads() -> int:
    """Give BLAS one thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def _machine(threads: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"threads": threads, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


class Loop:
    """Runs rounds of cases back to back and tallies the outcomes."""

    def __init__(self, cases_module, cases, tracer=None):
        self.module = cases_module
        self.cases = cases
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[tuple[str, bool, str]] = []  # case, known miss, message
        self.unexpected = 0

    def run_case(self, case, case_id: str) -> None:
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.case = case_id
            index = tracer.begin("bench.case")
        try:
            case.run()
        except self.module.KnownMiss as exc:
            self.failures.append((case.name, True, str(exc)))
        except self.module.CheckFailed as exc:
            self._fail(case, str(exc))
        except Exception as exc:  # a raising case is a failed case; keep going
            self._fail(case, f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.end(index)

    def _fail(self, case, message: str) -> None:
        self.failures.append((case.name, False, message))
        self.unexpected += 1

    def rounds(self, seconds: float, count: int | None = None) -> list[float]:
        """Round times: ``count`` rounds, or rounds until ``seconds`` have passed."""
        times: list[float] = []
        start = time.perf_counter()
        while not times or (len(times) < count if count is not None
                            else time.perf_counter() - start < seconds):
            t0 = time.perf_counter()
            for i, case in enumerate(self.cases):
                self.run_case(case, f"{len(times)}:{i}:{case.name}")
            times.append(time.perf_counter() - t0)
        return times


def _per_layer(tracer, rounds: int, overhead: float) -> dict[str, float]:
    from spans import self_times
    totals = self_times(tracer.spans)
    values = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in tracer.counts:
            value = tracer.counts[name]
        elif field in ("calls", "self_s"):
            calls, own = totals.get(span, (0, 0.0))
            value = calls if field == "calls" else own
        else:
            value = 0.0
        values[name] = value / rounds
    steps, step_s = totals.get("twosurface.step", (0, 0.0))
    values["twosurface.step.us"] = 1e6 * step_s / steps if steps else 0.0
    values["trace.overhead_s"] = overhead
    return values


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "decaylab" / "__init__.py").is_file():
        print(f"error: decaylab sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = _set_threads()
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        import cases as module
        cases = module.make_cases(args.workload, args.seed, workdir, args.tiny)
        Loop(module, module.warmup(args.workload, workdir)).rounds(0.0, count=1)
        setup_s = time.perf_counter() - start

        loop = Loop(module, cases)
        walls = loop.rounds(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s,
                   "wall_s": statistics.median(walls),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        traced_walls: list[float] = []
        if args.trace:
            from spans import Tracer, coverage
            tracer = Tracer()
            tracer.install()
            try:
                loop.tracer = tracer
                traced_walls = loop.rounds(args.seconds, count=len(walls))
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced_walls) - metrics["wall_s"]
            metrics = _per_layer(tracer, len(traced_walls), overhead)
            units = PER_LAYER
            span_dump = OUT / f"spans-{args.workload}.csv"
            tracer.write(span_dump)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    print(f"# machine: {json.dumps(_machine(threads), sort_keys=True)}")
    print(f"# {args.workload}: seed {args.seed}, {len(cases)} cases a round, "
          f"{len(walls)} rounds")
    for name, known, message in loop.failures:
        print(f"# failed {name}{' (known miss)' if known else ''}: {message}")
    print(f"# {args.workload}: setup_s {setup_s:.4f} s, "
          f"wall_s {statistics.median(walls):.4f} s, fail_frac {failed}/{loop.attempted}, "
          f"peak_rss_mb {peak_rss_mb:.1f} MB")
    if args.trace:
        wall = sum(traced_walls)
        print(f"# traced wall {statistics.median(traced_walls):.4f} s a round, "
              f"trace.overhead_s {metrics['trace.overhead_s']:.4f} s; spans in {span_dump}")
        for group, prefixes in COVERAGE.items():
            print(f"# share of traced wall in {group}: "
                  f"{coverage(tracer.spans, prefixes) / wall:.3f}")
        for name, value in metrics.items():
            print(f"# {name:48s} {value:14.6g} {PER_LAYER[name]}")
    result = {"correct": loop.unexpected == 0, "attempted": loop.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
