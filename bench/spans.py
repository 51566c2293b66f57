"""Spans and counters recorded around the calls into each decaylab layer.

``install`` replaces each traced function at every module attribute that
refers to it (``decaylab.amplitude.find_pole`` as well as
``decaylab.poles.find_pole``), and each traced method on its class, with
a wrapper that records a span or bumps a counter.  ``uninstall`` puts the
originals back.  Spans are kept in memory as (name, start, end, parent,
case) tuples and aggregated, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Standard count for a symmetric eigendecomposition with eigenvectors.
EIGH_FLOPS_PER_N3 = 9.0


# Counter hooks, run on (counts, args, kwargs, result) after a traced call.

def _transform_terms(counts, args, kwargs, result):
    counts["amplitude.transform_terms"] += result.info["n_points"] * result.times.size


def _newton_iterations(counts, args, kwargs, result):
    counts["poles.newton_iterations"] += result.iterations


def _oracle_work(counts, args, kwargs, result):
    bins = args[0].size
    counts["discrete_oracle.bins"] += bins
    counts["discrete_oracle.eig_flops"] += EIGH_FLOPS_PER_N3 * float(bins + 1) ** 3


def _basis_points(counts, args, kwargs, result):
    counts["continuum.basis_points"] += np.size(args[0]) * np.size(args[2])


def _grid_points(counts, args, kwargs, result):
    counts["selfenergy.sigma_upper_grid.points"] += np.size(args[1])


# Traced functions by module, each with its counter hook or None.
FUNCTIONS = {
    "amplitude": {"survival_numeric": _transform_terms, "survival_pole_cut": None,
                  "cut_integral": None, "survival_lorentzian": None},
    "poles": {"find_pole": _newton_iterations, "weisskopf_wigner_rate": None},
    "discrete_oracle": {"build_discrete": None, "survival_exact_discrete": _oracle_work,
                        "resolvent_direct": None, "resolvent_partitioned": None},
    "continuum": {"evolve_packet": None, "packet_coefficients": None,
                  "synthesize_packet": _basis_points},
    "twosurface": {"run": None, "step": None, "golden_rule_rate": None},
    "cli": {"main": None},
    "config": {"load_config": None},
}

SELFENERGY_METHODS = {
    "sigma_physical": None,
    "sigma_upper": None,
    "sigma_continued": None,
    "sigma_panel_rule": None,
    "cut_discontinuity": None,
    "renormalize_below_threshold": None,
    "sigma_upper_grid": _grid_points,
}


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.case: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.case))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, case = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, case)
        self._stack.pop()

    def span_wrapper(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    def count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook(self.counts, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced name in the loaded decaylab modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "decaylab" or name.startswith("decaylab."))]
        for module_name, functions in FUNCTIONS.items():
            home = sys.modules[f"decaylab.{module_name}"]
            for fn_name, hook in functions.items():
                original = getattr(home, fn_name)
                wrapped = self.span_wrapper(f"{module_name}.{fn_name}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

        selfenergy = sys.modules["decaylab.selfenergy"]
        cls = selfenergy.SelfEnergy
        for method, hook in SELFENERGY_METHODS.items():
            self._patch(cls, method, self.span_wrapper(
                f"selfenergy.{method}", getattr(cls, method), hook))

        def count_quad(c, a, k):
            c["selfenergy.quad.calls"] += 1
        integrate = selfenergy.integrate
        self._patch(selfenergy, "integrate", _ModuleProxy(
            integrate, quad=self.count_wrapper(integrate.quad, count_quad)))

        def count_density(c, a, k):
            c["spectral.density.calls"] += 1
            c["spectral.density.points"] += np.size(a[1])

        def count_density_complex(c, a, k):
            c["spectral.density_complex.calls"] += 1

        spectral = sys.modules["decaylab.spectral"]
        for cls in (spectral.Lorentzian, spectral.Box, spectral.AsymmetricBox,
                    spectral.ThresholdPower, spectral.Tabulated):
            self._patch(cls, "density", self.count_wrapper(cls.density, count_density))
            if "density_complex" in vars(cls):
                self._patch(cls, "density_complex", self.count_wrapper(
                    cls.density_complex, count_density_complex))

        def count_bytes(c, a, k):
            c["cli.bytes_written"] += len(a[1].encode())
        cli = sys.modules["decaylab.cli"]
        self._patch(cli, "_atomic_write", self.count_wrapper(cli._atomic_write, count_bytes))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as CSV: name, start, end, parent index, case."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("index,name,start,end,parent,case\n")
            for i, (name, start, end, parent, case) in enumerate(self.spans):
                out.write(f"{i},{name},{start!r},{end!r},{parent},{case}\n")


def union_length(intervals, lo: float = -np.inf, hi: float = np.inf) -> float:
    """Total length covered by intervals, clipped to [lo, hi]."""
    total, reach = 0.0, -np.inf
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - union_length(children.get(i, ()), start, end)
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + own)
    return out


def coverage(spans, prefixes) -> float:
    """Length of time covered by spans whose name starts with any prefix."""
    return union_length((start, end) for name, start, end, _, _ in spans
                        if name.startswith(tuple(prefixes)))
