"""Dwell-time breakdowns (tau0, tauL, tauT) for both attribution models.

Everything is reported in units of the spontaneous lifetime tau_sp.  Two
model families are implemented: the "egalitarian" rule, where a photon
deposits dwell uniformly along its path until scattered or transmitted,
and the minimum-coherent-emission rule, where dwell is attributed by the
eventual fate of the excitation under the semiclassical field evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .bloch import (
    BlochConfig,
    _check_weak,
    _fate_fractions_many,
    _net_flow,
    _weak_amplitudes,
)
from .errors import ConfigError, ConvergenceError
from .medium import (
    MediumSpec,
    PulseSpec,
    _detunings,
    _spectral_sigma,
    field_transfer,
    gaussian_envelope,
    transmission_probability,
)

__all__ = [
    "DwellBreakdown",
    "MODEL_EGALITARIAN",
    "MODEL_MIN_COHERENT",
    "egalitarian_monochromatic",
    "egalitarian_broadband",
    "min_coherent_model",
    "default_bloch_config",
]

MODEL_EGALITARIAN = "egalitarian"
MODEL_MIN_COHERENT = "min-coherent"

_IDENTITY_TOL = 1e-3


@dataclass(frozen=True)
class DwellBreakdown:
    """Dwell per incident/lost/transmitted photon (tau_sp units) and P_L."""

    tau0: float
    tauL: float
    tauT: float
    p_loss: float

    def __post_init__(self):
        for name in ("tau0", "tauL", "tauT"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.p_loss <= 1.0:
            raise ConfigError("p_loss must be in [0, 1]")

    def check_identities(self, tol: float = _IDENTITY_TOL):
        """P_L = tau0/tau_sp and the loss/transmission decomposition of tau0;
        a NaN residual fails too."""
        if not abs(self.tau0 - self.p_loss) <= tol:
            raise ConvergenceError(
                f"|tau0 - p_loss| = {abs(self.tau0 - self.p_loss):.2e} > {tol:g}")
        mix = self.p_loss * self.tauL + (1.0 - self.p_loss) * self.tauT
        if not abs(mix - self.tau0) <= tol:
            raise ConvergenceError(
                f"|P_L tauL + P_T tauT - tau0| = {abs(mix - self.tau0):.2e} > {tol:g}")


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


_BROADBAND_QUAD_TOL = 1e-4


def egalitarian_broadband(pulse: PulseSpec, medium: MediumSpec) -> DwellBreakdown:
    """Frequency-resolved egalitarian aggregation over the pulse spectrum.

    Each spectral component gets the monochromatic breakdown at its local
    depth a(delta); tau0 and P_L average with the spectral weight, tauT and
    tauL with the transmitted / lost weight respectively.
    """
    if medium.peak_od == 0:
        return DwellBreakdown(tau0=0.0, tauL=0.0, tauT=0.0, p_loss=0.0)
    sw = _spectral_sigma(pulse)
    gamma = medium.gamma
    a0 = medium.peak_od

    def weighted(f):
        def integrand(x):
            d = pulse.carrier_detuning + sw * x
            a = a0 / (1.0 + (2.0 * d / gamma) ** 2)
            return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * f(a)

        value, abserr = quad(integrand, -np.inf, np.inf, limit=200)
        if abserr > _BROADBAND_QUAD_TOL:
            raise ConvergenceError(
                f"broadband aggregation quadrature error {abserr:.2e} > "
                f"{_BROADBAND_QUAD_TOL:g}", achieved=abserr)
        return value

    p_loss = weighted(lambda a: -np.expm1(-a))
    pt_taut = weighted(lambda a: a * np.exp(-a))  # sum of P_T(d) tauT(d)
    pl_taul = weighted(lambda a: -np.expm1(-a) - a * np.exp(-a))
    tau_t = pt_taut / (1.0 - p_loss) if p_loss < 1.0 else 0.0
    tau_l = pl_taul / p_loss if p_loss > 0.0 else 0.0
    return DwellBreakdown(tau0=float(p_loss), tauL=float(tau_l),
                          tauT=float(tau_t), p_loss=float(p_loss))


def default_bloch_config(pulse: PulseSpec, medium: MediumSpec,
                         area: float = 0.02) -> BlochConfig:
    """Drive scale giving a small fixed pulse area; normalized results are
    independent of this choice in the weak regime."""
    s = pulse.intensity_rms
    # unit-photon Gaussian peak amplitude and analytic area integral
    peak_amp = np.sqrt(pulse.mean_photons / (s * np.sqrt(2.0 * np.pi)))
    area_integral = peak_amp * 2.0 * s * np.sqrt(np.pi)
    return BlochConfig(gamma=medium.gamma,
                       rabi_per_amplitude=area / area_integral,
                       detuning=-pulse.carrier_detuning)


_ENERGY_CONSISTENCY_TOL = 2e-2
_DECAY_TAIL_LIFETIMES = 10.0


def _min_coherent_once(pulse: PulseSpec, medium: MediumSpec, slices: int,
                       bloch: BlochConfig, n_samples: int) -> DwellBreakdown:
    env = gaussian_envelope(pulse, n_samples=n_samples,
                            tail=_DECAY_TAIL_LIFETIMES / medium.gamma)
    n_photons = env.photon_number
    h = env.dt
    # Gauss-Legendre nodes and weights on depth fraction [0, 1]
    x, w = np.polynomial.legendre.leggauss(slices)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    # node spectra (slices, N), turned into amplitudes in place; one name
    # only, so `del c` frees them
    c = field_transfer(_detunings(env), medium, x[:, None])
    c *= np.fft.fft(env.samples)
    c = _weak_amplitudes(c, h, bloch)
    # |c|^2 written time-major, (N, slices), with no transpose copy
    pe = np.square(c.real.T, out=np.empty(c.shape[::-1]))
    pe += np.square(c.imag, out=c.imag).T
    del c
    _check_weak(pe)
    net = _net_flow(pe, h, medium.gamma)
    coh_down = np.maximum(np.negative(net, out=net), 0.0, out=net)
    f_coh = _fate_fractions_many(pe, coh_down, h, medium.gamma)

    int_pe = np.trapezoid(pe @ w, dx=h)
    int_coh = np.trapezoid(np.einsum("ts,ts,s->t", pe, f_coh, w), dx=h)
    # atom weight making gross scattering match Beer-Lambert loss
    weight = medium.peak_od * medium.gamma / (
        bloch.rabi_per_amplitude ** 2 * n_photons)
    p_loss = float(medium.gamma * int_pe * weight)
    d_coh = float(int_coh * weight)
    d_sp = float((int_pe - int_coh) * weight)
    tau_sp = 1.0 / medium.gamma
    tau0 = (d_coh + d_sp) / tau_sp
    tau_t = d_coh / ((1.0 - p_loss) * tau_sp) if p_loss < 1.0 else 0.0
    tau_l = d_sp / (p_loss * tau_sp) if p_loss > 0.0 else 0.0
    return DwellBreakdown(tau0=tau0, tauL=tau_l, tauT=tau_t, p_loss=p_loss)


def min_coherent_model(pulse: PulseSpec, medium: MediumSpec, slices: int = 32,
                       bloch: BlochConfig | None = None,
                       n_samples: int = 4096) -> DwellBreakdown:
    """Dwell breakdown under the minimum-coherent-emission attribution.

    Carries the envelope spectrum to `slices` Gauss-Legendre depth nodes,
    solves the weak Bloch response at each on the envelope's FFT grid,
    splits the dwell by the coherent/spontaneous fate of the excitation,
    and integrates over depth with the node weights, normalized per
    incident photon.
    """
    if slices < 32:
        raise ConfigError(f"slices must be >= 32, got {slices}")
    if bloch is None:
        bloch = default_bloch_config(pulse, medium)
    result = _min_coherent_once(pulse, medium, slices, bloch, n_samples)

    if medium.peak_od > 0:
        p_loss_spectral = 1.0 - transmission_probability(pulse, medium)
        gap = abs(result.p_loss - p_loss_spectral)
        if gap > _ENERGY_CONSISTENCY_TOL:
            raise ConvergenceError(
                f"min-coherent P_L={result.p_loss:.4f} disagrees with spectral "
                f"transmission P_L={p_loss_spectral:.4f} by {gap:.2e} "
                f"(limit {_ENERGY_CONSISTENCY_TOL:g})", achieved=gap)
    return result
