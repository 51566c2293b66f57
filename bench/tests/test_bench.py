"""Tests of the benchmark itself: span arithmetic, failure counting, smoke runs.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import decaylab
import decaylab.cli
import run
import spans

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=-1):
    return (name, start, end, parent, "case")


class TestSelfTime:
    def test_union_merges_overlaps_and_clips(self):
        assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert spans.union_length([(0, 2), (1, 3), (5, 6)], lo=1.5, hi=5.5) == 2.0
        assert spans.union_length([(2, 1)]) == 0

    def test_nested_spans(self):
        # outer [0, 10] holds a [1, 4] which holds b [2, 3]
        times = spans.self_times([_span("outer", 0, 10), _span("a", 1, 4, 0),
                                  _span("b", 2, 3, 1)])
        assert times == {"outer": (1, 7), "a": (1, 2), "b": (1, 1)}

    def test_overlapping_children_count_once(self):
        # children overlap on [3, 4] and the second runs past the parent's end
        times = spans.self_times([_span("p", 0, 10), _span("c", 2, 4, 0),
                                  _span("c", 3, 12, 0)])
        assert times["p"] == (1, 2)
        assert times["c"] == (2, 11)

    def test_same_name_sums_over_calls(self):
        times = spans.self_times([_span("f", 0, 1), _span("f", 2, 4)])
        assert times["f"] == (2, 3)

    def test_coverage_by_prefix(self):
        recorded = [_span("selfenergy.x", 0, 2), _span("selfenergy.y", 1, 3),
                    _span("poles.z", 5, 6)]
        assert spans.coverage(recorded, ("selfenergy.",)) == 3
        assert spans.coverage(recorded, ("selfenergy.", "poles.")) == 4


class TestFailures:
    def _loop(self, *cases):
        import cases as bench_cases
        return run.Loop(bench_cases, list(cases))

    def test_raising_case_counts_as_failed(self):
        import cases as bench_cases

        def boom():
            raise ZeroDivisionError("boom")

        def ok():
            return "fine"

        def known_miss():
            bench_cases.check_bound(2e-3, 1e-4, 3e-3, "deviation")

        loop = self._loop(bench_cases.Case("boom", boom), bench_cases.Case("ok", ok),
                          bench_cases.Case("miss", known_miss))
        loop.rounds(seconds=0.0, count=2)
        assert loop.attempted == 6
        assert len(loop.failures) == 4
        assert loop.unexpected == 2
        assert loop.failures[0][2].startswith("raised ZeroDivisionError")

    def test_known_miss_keeps_the_run_correct(self):
        import cases as bench_cases

        loop = self._loop(bench_cases.Case(
            "miss", lambda: bench_cases.check_bound(2e-3, 1e-4, 3e-3, "deviation")))
        loop.rounds(seconds=0.0, count=1)
        assert loop.failures and loop.unexpected == 0

    @pytest.mark.parametrize("deviation", [4e-3, float("nan"), float("inf")])
    def test_miss_past_the_ceiling_is_unexpected(self, deviation):
        import cases as bench_cases

        loop = self._loop(bench_cases.Case(
            "miss", lambda: bench_cases.check_bound(deviation, 1e-4, 3e-3, "deviation")))
        loop.rounds(seconds=0.0, count=1)
        assert loop.unexpected == 1
        assert "above the known ceiling" in loop.failures[0][2]

    def test_within_bound_passes(self):
        import cases as bench_cases

        bench_cases.check_bound(5e-5, 1e-4, 3e-3, "deviation")


class TestTracer:
    def test_wraps_every_name_and_restores(self):
        tracer = spans.Tracer()
        originals = (decaylab.amplitude.find_pole, decaylab.cli.survival_numeric,
                     decaylab.SelfEnergy.sigma_upper)
        tracer.install()
        try:
            assert decaylab.amplitude.find_pole is decaylab.poles.find_pole
            assert decaylab.amplitude.find_pole is not originals[0]
            assert decaylab.cli.survival_numeric is decaylab.survival_numeric
            assert decaylab.cli.survival_numeric is not originals[1]
            se = decaylab.SelfEnergy(decaylab.Lorentzian(0.1))
            decaylab.find_pole(se, 0.0)
        finally:
            tracer.uninstall()
        assert (decaylab.amplitude.find_pole, decaylab.cli.survival_numeric,
                decaylab.SelfEnergy.sigma_upper) == originals
        times = spans.self_times(tracer.spans)
        assert times["poles.find_pole"][0] == 1
        assert times["selfenergy.sigma_continued"][0] > 0
        assert tracer.counts["poles.newton_iterations"] >= 1


def test_benchmark_json_matches_the_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["correct"] is True
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "polecut", "--seed", "3", "--seconds", "0.1",
                "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert result["metrics"]["poles.find_pole.calls"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "contour", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
