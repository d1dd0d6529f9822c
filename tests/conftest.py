import numpy as np
import pytest

from xdwell import (
    ConfigError,
    DwellBreakdown,
    MediumSpec,
    PulseSpec,
    bin_and_average,
    min_coherent_model,
)

TAU_SP = 26.5e-9
GAMMA = 1.0 / TAU_SP


@pytest.fixture
def medium_od4():
    return MediumSpec.from_lifetime(4.0, TAU_SP)


@pytest.fixture
def pulse_10ns():
    return PulseSpec(intensity_rms=10e-9)


@pytest.fixture
def pulse_50ns():
    return PulseSpec(intensity_rms=50e-9)


def dense_spectral_oracle(pulse, medium, f, n=200001, span=12.0):
    """Independent dense trapezoid average of f(a(delta)) over the pulse's
    spectral intensity density, used to cross-check the package's rule."""
    sw = 1.0 / (2.0 * pulse.intensity_rms)
    x = np.linspace(-span, span, n)
    d = pulse.carrier_detuning + sw * x
    a = medium.peak_od / (1.0 + (2.0 * d / medium.gamma) ** 2)
    rho = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return float(np.trapezoid(rho * f(a), x))


def dense_transmission_oracle(pulse, medium, n=200001, span=12.0):
    """Dense-trapezoid spectrally averaged transmission."""
    return dense_spectral_oracle(pulse, medium, lambda a: np.exp(-a), n, span)


# pulse widths and carrier detunings (rad/s) for the spectral-rule checks
SPECTRAL_PULSES = [(s, c) for s in (1e-9, 10e-9, 50e-9, 1e-6)
                   for c in (0.0, 2e7)]
SPECTRAL_ODS = [0.01, 0.5, 4.0, 20.0]


def min_coherent_point(pulse, medium, **kwargs):
    """The min-coherent breakdown at `medium.peak_od` alone; raises the
    error that OD failed with."""
    [b] = min_coherent_model(pulse, medium, **kwargs)
    if isinstance(b, Exception):
        raise b
    return b


def egalitarian_monochromatic(od: float) -> DwellBreakdown:
    """Closed-form egalitarian breakdown for a single spectral component.

    Derived from uniform dwell accrual while the photon survives,
    exponential survival exp(-a z/L), and the normalization P_L = Gamma tau0.
    """
    if od < 0:
        raise ConfigError("od must be >= 0")
    if od == 0:
        return DwellBreakdown(tau0=0.0, tauL=0.0, tauT=0.0, p_loss=0.0)
    p_loss = -np.expm1(-od)
    tau_t = od
    tau_l = 1.0 - od * np.exp(-od) / p_loss
    return DwellBreakdown(tau0=float(p_loss), tauL=float(tau_l),
                          tauT=float(tau_t), p_loss=float(p_loss))


def click_excess(batches):
    """The truth's (n_T, n - n_T) pairs of `shots.iter_batches` batches
    (a shot file holds no truth) binned by click: `delta_phi` and
    `se_delta` hold E[n_T | click] - E[n_T | no click] and the lost-photon
    analogue, with their Monte Carlo errors."""
    return bin_and_average(
        (np.column_stack([truth[:, 1], truth[:, 0] - truth[:, 1]]), clicks)
        for _, clicks, truth in batches)
