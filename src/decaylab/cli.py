"""Batch command line front end.

Every subcommand runs one pipeline: read a flat-key config file, check
each of its sections against the declared schema (unknown sections and
keys and mistyped values are errors), fill in the defaults of the
sections the subcommand reads, compute, and write CSV artifacts plus a
run manifest that records the fully resolved parameter set, derived
values included.  Identical configs produce byte-identical outputs;
files are written atomically (write, then rename).

Exit codes: 0 success, 2 validation/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .amplitude import (SurvivalSeries, survival_lorentzian, survival_numeric,
                        survival_pole_cut)
from .config import Count, did_you_mean, load_config, resolve_section
from .continuum import default_energy_grid, evolve_packet
from .discrete_oracle import (build_discrete, resolvent_direct,
                              resolvent_partitioned, survival_exact_discrete,
                              DiscreteModel)
from .errors import DomainError, NumericalError, ValidationError
from .poles import find_pole, weisskopf_wigner_rate
from .selfenergy import SelfEnergy
from .spectral import Lorentzian, model_from_config, model_keys
from .twosurface import TwoSurfaceConfig, run as run_twosurface

__all__ = ["main"]


# ---------------------------------------------------------------- schema ----

# section -> key -> (type, default).  A default of None is worked out by the
# run, or marks an optional input; the manifest records the value used.
SCHEMA = {
    "output": {"dir": (str, "out")},
    "model": model_keys,
    "system": {"omega0": (float, 0.0)},
    "spectral": {"eps_min": (float, None), "eps_max": (float, None), "n": (Count, 401)},
    "survival": {"method": (str, "numeric"), "tmax": (float, 10.0), "nt": (Count, 201),
                 "n_bins": (Count, 1000), "window_lo": (float, None), "window_hi": (float, None)},
    "verify": {"n": (Count, 100), "n_omega": (Count, 20), "seed": (int, 12345)},
    "packet": {"span": (float, 40.0), "n_eps": (Count, 2001),
               "tmax": (float, None), "nt": (Count, 5), "basis": (str, None),
               "x_min": (float, -100.0), "x_max": (float, 300.0), "n_x": (Count, 2048),
               "beta_slope": (float, None)},
    "twosurface": {f.name: (type(f.default), f.default) for f in fields(TwoSurfaceConfig)},
}


def _resolve(raw: dict, sections) -> dict:
    """Check every section of the file; return those the subcommand reads."""
    resolved = {}
    for name in dict.fromkeys([*raw, *sections]):
        if name not in SCHEMA:
            raise ValidationError(did_you_mean("config section", name, SCHEMA))
        keys, block = SCHEMA[name], raw.get(name, {})
        resolved[name] = resolve_section(name, block, keys(block) if callable(keys) else keys)
    return {name: resolved[name] for name in sections}


# ---------------------------------------------------------------- output ----

def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under a header, one % operation a row.

    Integer columns print whole, string columns as they are, and the rest
    as "%.17g" % x, which is format(x, ".17g"): the bytes of formatting
    each cell on its own.
    """
    columns = [np.asarray(column) for column in columns]
    row = ",".join("%d" if column.dtype.kind in "biu" else "%s" if column.dtype.kind in "SU"
                   else "%.17g" for column in columns) + "\n"
    lines = [",".join(header) + "\n"]
    lines.extend(row % values for values in zip(*(column.tolist() for column in columns)))
    _atomic_write(path, "".join(lines))


def _abs2(z) -> np.ndarray:
    """|z|^2 by the operations of abs(z) ** 2 on each element: hypot, then pow.

    np.abs on a complex array and x * x each differ from those in the last bit
    of about one element in 3 and in 1000, which would change the CSV bytes.
    """
    z = np.asarray(z)
    return np.float_power(np.hypot(z.real, z.imag), 2)


def _single_row(*values) -> list[list]:
    return [[value] for value in values]


def _grid_columns(times, axis, values):
    """t, the axis and the values of a (len(times), len(axis)) array, row by row."""
    return [np.repeat(times, len(axis)), np.tile(axis, len(times)), np.ravel(values)]


def _survival_table(series: SurvivalSeries):
    a = series.amplitude
    zero = np.zeros_like(a)
    pole = series.pole_term if series.pole_term is not None else zero
    cut = series.cut_term if series.cut_term is not None else zero
    return (["t", "re_A", "im_A", "abs2_A", "re_pole", "im_pole", "re_cut", "im_cut"],
            [series.times, a.real, a.imag, _abs2(a), pole.real, pole.imag,
             cut.real, cut.imag])


def _check_order(section: str, block: dict, lo: str, hi: str) -> None:
    """Refuse a range whose lower end is not below its upper end."""
    if not block[lo] < block[hi]:
        raise DomainError(f"{section}.{lo} = {block[lo]!r} must be below "
                          f"{section}.{hi} = {block[hi]!r}")


# ------------------------------------------------------------ subcommands ----
#
# A body takes the resolved config, fills in each value left to it (a None
# default) and any other value it works out, so that the manifest records
# them, and returns its CSV tables, {file name: (header, columns)}, and its
# results block.

def _spectral(cfg):
    model = model_from_config(cfg["model"])
    block = cfg["spectral"]
    lo, hi = model.support()
    block["support"] = [lo, hi]
    width = model.char_width()
    if block["eps_min"] is None:
        block["eps_min"] = lo - 0.1 * width if np.isfinite(lo) else -5 * width
    if block["eps_max"] is None:
        block["eps_max"] = hi + 0.1 * width if np.isfinite(hi) else 5 * width
    _check_order("spectral", block, "eps_min", "eps_max")
    eps = np.linspace(block["eps_min"], block["eps_max"], block["n"])
    # boundary values from above; infinite at a band edge where D is not zero
    sigma = model.cauchy(eps)
    sigma = np.where(np.isfinite(sigma), sigma, complex(np.nan, np.nan))
    return {"spectral.csv": (["epsilon", "D", "re_sigma", "im_sigma"],
                             [eps, model.density(eps), sigma.real, sigma.imag])}, None


def _poles(cfg):
    result = find_pole(SelfEnergy(model_from_config(cfg["model"])), cfg["system"]["omega0"])
    print(f"pole: {result.omega_prime:.12g} - {result.omega_dprime:.12g}i "
          f"({result.iterations} iterations)")
    return {"poles.csv": (["omega_prime", "omega_dprime", "residue_re", "residue_im",
                           "iterations", "residual"],
                          _single_row(result.omega_prime, result.omega_dprime,
                                      result.residue.real, result.residue.imag,
                                      result.iterations, result.final_residual))}, None


# A survival route takes the model, omega0, the times and the survival block,
# which it extends with the values it derives, and returns the series and its
# results block.  A route refuses a model it does not serve.

def _numeric_route(model, omega0, times, block):
    series = survival_numeric(SelfEnergy(model), omega0, times)
    block.update({key: series.info[key] for key in ("contour_offset", "omega_max", "n_points")})
    results = {key: series.info[key]
               for key in ("transform", "alias_bound", "tail_estimate", "expansion_terms")}
    z0 = series.info["expansion_point"]
    results["expansion_point"] = [z0.real, z0.imag]
    return series, results


def _pole_cut_route(model, omega0, times, block):
    series = survival_pole_cut(SelfEnergy(model), omega0, times)
    pole = series.info["pole"]
    return series, {"pole": [pole.omega_prime, pole.omega_dprime],
                    "residue": [pole.residue.real, pole.residue.imag],
                    "iterations": pole.iterations, "residual": pole.final_residual}


def _closed_route(model, omega0, times, block):
    if not isinstance(model, Lorentzian):
        raise DomainError("closed-form survival exists only for the lorentzian model; "
                          "use --method numeric or --method pole-cut")
    return survival_lorentzian(model, omega0, times), None


def _oracle_route(model, omega0, times, block):
    lo, hi = block["window_lo"], block["window_hi"]
    if (lo is None) != (hi is None):
        raise DomainError("survival.window_lo and survival.window_hi must be given together")
    if lo is not None:
        _check_order("survival", block, "window_lo", "window_hi")
    discrete = build_discrete(model, omega0, block["n_bins"],
                              window=None if lo is None else (lo, hi))
    recurrence = discrete.recurrence_time()
    if block["tmax"] >= recurrence:
        raise DomainError(f"survival.tmax = {block['tmax']!r} reaches the oracle's "
                          f"recurrence time {recurrence:.6g} = 2pi/(bin spacing) at "
                          f"survival.n_bins = {block['n_bins']}: raise survival.n_bins "
                          "or lower survival.tmax")
    block["recurrence_time"] = recurrence
    series, _ = survival_exact_discrete(discrete, times)
    return series, {key: series.info[key] for key in
                    ("secular_sweeps", "weight_defect", "phase_stride", "tree_levels")}


# survival.method -> route; also the choices of `survival --method`
SURVIVAL_ROUTES = {"numeric": _numeric_route, "pole-cut": _pole_cut_route,
                   "closed": _closed_route, "oracle": _oracle_route}


def _survival(cfg):
    model = model_from_config(cfg["model"])
    block = cfg["survival"]
    route = SURVIVAL_ROUTES.get(block["method"])
    if route is None:
        raise DomainError(did_you_mean("survival method", block["method"], SURVIVAL_ROUTES))
    times = np.linspace(0.0, block["tmax"], block["nt"])
    series, results = route(model, cfg["system"]["omega0"], times, block)
    print(f"survival by {series.method}")
    return {"survival.csv": _survival_table(series)}, results


def _verify_partition(cfg):
    block = cfg["verify"]
    n = block["n"]
    rng = np.random.default_rng(block["seed"])
    energies = np.sort(rng.uniform(-1.0, 1.0, n))
    couplings = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    model = DiscreteModel(omega0=float(rng.normal()), energies=energies,
                          couplings=couplings, widths=np.full(n, 2.0 / n))
    dev_p = dev_qp = dev_q = 0.0
    for _ in range(block["n_omega"]):
        omega = complex(rng.normal(scale=2.0),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
        direct = resolvent_direct(model, omega)
        part = resolvent_partitioned(model, omega)
        dev_p = max(dev_p, abs(direct[0, 0] - part.g_p))
        dev_qp = max(dev_qp, float(np.max(np.abs(direct[1:, 0] - part.g_qp))))
        dev_q = max(dev_q, float(np.max(np.abs(direct[1:, 1:] - part.g_q))))
    deviations = {"g_p": dev_p, "g_qp": dev_qp, "g_q": dev_q}
    for name, dev in deviations.items():
        print(f"{name:<5} max deviation: {dev:.3e}")
    return ({"verify_partition.csv": (["block", "max_deviation"],
                                      [list(deviations), list(deviations.values())])},
            deviations)


def _packet(cfg):
    model = model_from_config(cfg["model"])
    omega0 = cfg["system"]["omega0"]
    block = cfg["packet"]
    gamma, _ = weisskopf_wigner_rate(SelfEnergy(model), omega0)
    if gamma == 0.0:
        raise DomainError(f"D vanishes at system.omega0 = {omega0!r}, so the golden-rule "
                          "rate 2*pi*D(omega0) that sizes the packet's window is 0")
    block["gamma"] = gamma
    eps = default_energy_grid(omega0, gamma, n=block["n_eps"], span=block["span"])
    if block["tmax"] is None:
        block["tmax"] = 3.0 / gamma
    times = np.linspace(0.0, block["tmax"], block["nt"])
    basis = block["basis"]
    if basis is None and block["beta_slope"] is not None:
        raise DomainError("packet.beta_slope needs packet.basis")
    _check_order("packet", block, "x_min", "x_max")
    x = np.linspace(block["x_min"], block["x_max"], block["n_x"]) if basis else None
    packet = evolve_packet(lambda e: np.sqrt(model.density(e)), omega0, gamma,
                           eps, times, x=x, basis=basis or "plane_wave",
                           beta_slope=block["beta_slope"])
    block["window"] = packet.info["window"]
    tables = {"packet_coeff.csv": (["t", "epsilon", "abs2_c"],
                                   _grid_columns(times, eps, _abs2(packet.coeffs)))}
    if packet.psi is not None:
        psi = packet.psi.ravel()
        tables["packet_psi.csv"] = (["t", "x", "re_psi", "im_psi", "abs2_psi"],
                                    [*_grid_columns(times, x, psi.real), psi.imag, _abs2(psi)])
    return tables, None


def _twosurface(cfg):
    block = cfg["twosurface"]
    result = run_twosurface(TwoSurfaceConfig(**block))
    print(f"fitted rate {result.fitted_rate:.6g}, golden rule {result.golden.rate:.6g}, "
          f"trapped {result.trapped_fraction:.4f}")
    return ({"p1.csv": (["t", "P1"], [result.times, result.p1]),
             "psi2_snapshots.csv": (["t", "x", "abs2"],
                                    _grid_columns(result.snapshot_times, result.x,
                                                  result.snapshots_abs2)),
             "summary.csv": (["fitted_rate", "golden_rule_rate", "trapped_fraction",
                              "absorbed_total"],
                             _single_row(result.fitted_rate, result.golden.rate,
                                         result.trapped_fraction, result.absorbed[-1]))},
            {"fitted_rate": result.fitted_rate,
             "golden_rule_rate": result.golden.rate,
             "perturbative_ratio": result.golden.perturbative_ratio,
             "fit_window": result.fit_window,
             "r_squared": result.r_squared,
             "trapped_fraction": result.trapped_fraction,
             "norm_deviation_max": result.norm_deviation_max})


class Command(NamedTuple):
    body: Callable[[dict], tuple[dict, dict | None]]
    sections: tuple[str, ...]       # the config sections the body reads
    seeded: bool = False            # draws random numbers (from a recorded seed)


COMMANDS = {
    "spectral": Command(_spectral, ("model", "spectral")),
    "poles": Command(_poles, ("model", "system")),
    "survival": Command(_survival, ("model", "system", "survival")),
    "verify-partition": Command(_verify_partition, ("verify",), seeded=True),
    "packet": Command(_packet, ("model", "system", "packet")),
    "twosurface": Command(_twosurface, ("twosurface",)),
}


def _run(args) -> int:
    """Load, resolve, compute, then write the tables and the manifest."""
    command = COMMANDS[args.command]
    raw = load_config(args.config) if args.config else {}
    for dest, value in vars(args).items():   # `section.key` flags override the file
        if "." in dest and value is not None:
            section, key = dest.split(".")
            raw.setdefault(section, {})[key] = value
    cfg = _resolve(raw, ("output",) + command.sections)
    tables, results = command.body(cfg)
    # the output directory stays out of the manifest, so that reruns into
    # different directories are byte-identical
    outdir = Path(cfg.pop("output")["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(outdir / name, header, columns)
    manifest = {"tool": "decaylab", "version": __version__, "subcommand": args.command,
                "config": cfg, "outputs": sorted(tables),
                "seed_free_determinism": not command.seeded}
    if results:
        manifest["results"] = results
    _atomic_write(outdir / "run_manifest.json",
                  json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n")
    print(f"wrote {', '.join(str(outdir / name) for name in tables)}")
    return 0


def _read_survival_csv(path: str):
    """t and A(t) from a CSV with t, re_A and im_A columns and one or more finite rows."""
    try:
        lines = Path(path).read_text().splitlines()
        header = lines[0].split(",") if lines else []
        if not {"t", "re_A", "im_A"} <= set(header):
            raise DomainError(f"{path} is not a survival CSV: it needs t, re_A and im_A columns")
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if lines[1:] else None
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    if data is None or data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise DomainError(f"{path} needs at least one row of {len(header)} finite numbers")
    t, re_a, im_a = (data[:, header.index(name)] for name in ("t", "re_A", "im_A"))
    return t, re_a + 1j * im_a


def _compare(args) -> int:
    t1, a1 = _read_survival_csv(args.first)
    t2, a2 = _read_survival_csv(args.second)
    if t1.size != t2.size or np.max(np.abs(t1 - t2)) > 1e-12:
        raise DomainError("survival CSVs are on different time grids")
    dev = np.abs(a1 - a2)
    rms = float(np.sqrt(np.mean(dev**2)))
    print(f"rms_deviation = {rms:.17g}")
    print(f"max_deviation = {float(dev.max()):.17g}")
    return 0


# ------------------------------------------------------------------ parser ----

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description="Decay of a discrete quantum state into a continuum: "
                    "self-energies, resonance poles, survival amplitudes, "
                    "continuum packets, and a two-surface wave-packet simulation.")
    parser.add_argument("--version", action="version", version=f"decaylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=(name != "verify-partition"),
                       help="flat key-path config file")
        p.add_argument("--out", dest="output.dir", metavar="DIR",
                       help="output directory (overrides output.dir)")
        if name == "survival":
            p.add_argument("--method", dest="survival.method",
                           choices=list(SURVIVAL_ROUTES))
            p.add_argument("--tmax", dest="survival.tmax", metavar="TMAX", type=float)
            p.add_argument("--nt", dest="survival.nt", metavar="NT", type=int)
        p.set_defaults(func=_run)
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("first")
    p_compare.add_argument("second")
    p_compare.set_defaults(func=_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
