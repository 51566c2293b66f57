import json
import warnings

import numpy as np
import pytest
from scipy import integrate

import decaylab as dl
from decaylab import cli
from decaylab.errors import NumericalError


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259 parsers do."""
    def refuse(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture(autouse=True)
def strict_manifests(monkeypatch):
    """Every run_manifest.json a test writes through the CLI parses as strict JSON."""
    write = cli._atomic_write

    def checked(path, text):
        if path.name == "run_manifest.json":
            strict_json(text)
        write(path, text)

    monkeypatch.setattr(cli, "_atomic_write", checked)


@pytest.fixture(scope="session")
def lorentzian_se():
    return dl.SelfEnergy(dl.Lorentzian(amplitude_sq=0.1, center=0.0, width=1.0))


@pytest.fixture(scope="session")
def box_se():
    return dl.SelfEnergy(dl.Box(amplitude_sq=0.05, half_width=100.0))


@pytest.fixture(scope="session")
def threshold_se():
    return dl.SelfEnergy(dl.ThresholdPower(beta=0.01, exponent=0.5,
                                           threshold=0.0, cutoff=20.0))


def circle_derivative(f, omega, radius, n=128):
    """Derivative of an analytic f at omega by Cauchy's formula on a circle.

    The n-point mean over the circle of the given radius errs by about
    (radius / d)^n, d being the distance from omega to f's nearest
    singularity or cut.
    """
    phase = np.exp(2j * np.pi * np.arange(n) / n)
    return complex(np.mean(f(omega + radius * phase) / phase)) / radius


def sigma_quadrature(model, omega):
    """Adaptive quadrature of ``model.cauchy(omega)``, with its conventions.

    Takes either half-plane, and the boundary value from above on the axis.
    An independent reference for the closed forms: no result of the package
    is computed through it.
    """
    omega = complex(omega)
    lo, hi = model.support()
    dens, x, width = model.density, omega.real, model.char_width()

    def quad(f, a, b, points=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-9, limit=10_000,
                                      points=points, complex_func=True)
        if not np.isfinite(val) or abs(err) > max(1e-6, 1e-7 * max(1.0, abs(val))):
            raise NumericalError(f"integral over ({a}, {b}) is {val} +- {abs(err):.3e}")
        return complex(val)

    if not lo < x < hi:
        inner = [p for p in model.breakpoints() if lo < p < hi]
        return quad(lambda e: dens(e) / (omega - e), lo, hi,
                    inner if inner and np.isfinite(lo) and np.isfinite(hi) else None)
    # On a window around x, narrower than the support, the pole's spike can
    # slip between quadrature nodes when it sits near or on the axis.  There
    # subtract the flat density D(x), whose integral is the exact band
    # logarithm, and integrate the bounded remainder.
    a, b = max(lo, x - width / 4), min(hi, x + width / 4)
    d0 = float(dens(x)) if abs(omega.imag) < 0.01 * width else 0.0
    if omega.imag == 0:  # the boundary value from above
        total = d0 * (np.log((x - a) / (b - x)) - 1j * np.pi)
    else:
        total = d0 * np.log((omega - a) / (omega - b))
    # Every finite edge splits the range, so that the pole and the
    # density's structure lie in finite pieces, not in an infinite tail.
    edges = sorted({lo, hi, a, b, x, *model.breakpoints()})
    for start, stop in zip(edges[:-1], edges[1:]):
        flat = d0 if a <= start and stop <= b else 0.0
        total += quad(lambda e: (dens(e) - flat) / (omega - e), start, stop)
    return total


def linear_fit_r2(x, y):
    """Least-squares slope, intercept and R^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return slope, intercept, r2
