import numpy as np
import pytest

import decaylab as dl


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


def linear_fit_r2(x, y):
    """Least-squares slope, intercept and R^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return slope, intercept, r2
