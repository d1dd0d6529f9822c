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

from .bloch import BlochConfig, _fate_fractions_many, _net_flow, _weak_pe
from .errors import ConfigError, ConvergenceError
from .medium import (
    MediumSpec,
    PulseSpec,
    _detunings,
    _spectral_average,
    field_transfer,
    gaussian_envelope,
    od_grid_array,
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


_BROADBAND_TOL = 1e-4


def _egalitarian_terms(a):
    """P_L, P_T tauT and P_L tauL of one spectral component at local OD a."""
    p_loss = -np.expm1(-a)
    pt_taut = a * np.exp(-a)
    return np.stack([p_loss, pt_taut, p_loss - pt_taut])


def egalitarian_broadband(pulse: PulseSpec, medium: MediumSpec,
                          od_grid=None) -> list:
    """Frequency-resolved egalitarian aggregation over the pulse spectrum,
    one entry per peak OD of `od_grid` (default: `medium.peak_od` alone).

    Each spectral component gets the monochromatic breakdown at its local
    depth a(delta); tau0 and P_L average with the spectral weight, tauT and
    tauL with the transmitted / lost weight respectively.  Each entry is a
    DwellBreakdown, or the ConvergenceError of an OD whose spectral
    averages miss their tolerance; the other ODs stand.  At OD 0 every
    average is exactly 0, and so is the breakdown.
    """
    ods = od_grid_array(medium, od_grid)
    (p_losses, pt_tauts, pl_tauls), errors = _spectral_average(
        pulse, medium, ods, _egalitarian_terms)
    results = []
    for p_loss, pt_taut, pl_taul, err in zip(p_losses, pt_tauts, pl_tauls,
                                             errors.max(axis=0)):
        if err > _BROADBAND_TOL:
            results.append(ConvergenceError(
                f"broadband aggregation error {err:.2e} > "
                f"{_BROADBAND_TOL:g}", achieved=float(err)))
        else:
            tau_t = pt_taut / (1.0 - p_loss) if p_loss < 1.0 else 0.0
            tau_l = pl_taul / p_loss if p_loss > 0.0 else 0.0
            results.append(DwellBreakdown(
                tau0=float(p_loss), tauL=float(tau_l), tauT=float(tau_t),
                p_loss=float(p_loss)))
    return results


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
_MIN_SLICES = 8
_PANEL_MAX_OD = 1.0
_BLOCK_NODES = 32


def _depth_nodes(od_grid: np.ndarray, slices: int):
    """Gauss-Legendre nodes and weights in absolute depth (OD units) for
    the panels between consecutive grid ODs, starting at 0, and the number
    of nodes at or below each OD.  A panel wider than _PANEL_MAX_OD is split
    into equal sub-panels; a zero-width panel gets no nodes."""
    x, w = np.polynomial.legendre.leggauss(slices)
    edges = [0.0]
    ends = []
    for lo, hi in zip(np.concatenate([[0.0], od_grid]), od_grid):
        parts = int(np.ceil((hi - lo) / _PANEL_MAX_OD))
        edges.extend(np.linspace(lo, hi, parts + 1)[1:])
        ends.append((len(edges) - 1) * slices)
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (x + 1.0)
    return nodes.ravel(), (half * w).ravel(), np.asarray(ends, dtype=int)


def _node_integrals(depths: np.ndarray, spectrum: np.ndarray,
                    detunings: np.ndarray, h: float, medium: MediumSpec,
                    bloch: BlochConfig):
    """Time integrals of P_e and of P_e f_coh at each of `depths` (OD
    units, at most _BLOCK_NODES of them); the block's arrays die on
    return."""
    # node spectra (nodes, N), turned into amplitudes in place; one name
    # only, so `del spectra` frees them before the flows are allocated
    spectra = field_transfer(detunings, medium, depths[:, None])
    spectra *= spectrum
    pe = _weak_pe(spectra, h, bloch)
    del spectra
    net = _net_flow(pe, h, bloch.gamma)
    coh_down = np.maximum(np.negative(net, out=net), 0.0, out=net)
    f_coh = _fate_fractions_many(pe, coh_down, h, bloch.gamma)
    del net, coh_down
    int_pe = np.trapezoid(pe, dx=h, axis=0)
    int_coh = np.trapezoid(np.multiply(f_coh, pe, out=f_coh), dx=h, axis=0)
    return int_pe, int_coh


def min_coherent_model(pulse: PulseSpec, medium: MediumSpec, od_grid=None,
                       slices: int = _MIN_SLICES,
                       n_samples: int = 4096) -> list:
    """Dwell breakdowns under the minimum-coherent-emission attribution,
    one per peak OD of `od_grid` (default: `medium.peak_od` alone).

    `medium` gives the line's decay rate.  Depth is integrated on
    `slices` Gauss-Legendre nodes per panel between consecutive grid ODs
    (panels of at most 1 OD), so every OD reuses the nodes below it: the
    per-depth dwell depends only on the absolute depth.  At each node the
    envelope spectrum is carried to that depth, the weak Bloch response
    under `default_bloch_config(pulse, medium)` is solved on the
    envelope's FFT grid, and the dwell is split by the
    coherent/spontaneous fate of the excitation, per incident photon.

    Each entry is a DwellBreakdown, or the ConvergenceError of an OD whose
    P_L disagrees with the spectral transmission; the other ODs stand.
    """
    if slices < _MIN_SLICES:
        raise ConfigError(f"slices must be >= {_MIN_SLICES}, got {slices}")
    ods = od_grid_array(medium, od_grid)
    bloch = default_bloch_config(pulse, medium)
    unit = medium.with_od(1.0)
    env = gaussian_envelope(pulse, n_samples=n_samples,
                            tail=_DECAY_TAIL_LIFETIMES / medium.gamma)
    spectrum = np.fft.fft(env.samples)
    detunings = _detunings(env)
    depths, weights, ends = _depth_nodes(ods, slices)
    int_pe = np.empty(depths.size)
    int_coh = np.empty(depths.size)
    for i in range(0, depths.size, _BLOCK_NODES):
        block = slice(i, i + _BLOCK_NODES)
        int_pe[block], int_coh[block] = _node_integrals(
            depths[block], spectrum, detunings, env.dt, unit, bloch)
    # each OD sums the node integrals below its panel edge; the atom
    # weight makes gross scattering match Beer-Lambert loss, and the
    # dwell is in tau_sp units
    scale = bloch.gamma ** 2 / (bloch.rabi_per_amplitude ** 2
                                * env.photon_number)
    tau0 = np.concatenate([[0.0], np.cumsum(weights * int_pe)])[ends] * scale
    coh = np.concatenate([[0.0], np.cumsum(weights * int_coh)])[ends] * scale
    p_loss_spectral = 1.0 - transmission_probability(pulse, unit, ods)
    return [_breakdown(float(t), float(c), float(p))
            for t, c, p in zip(tau0, coh, p_loss_spectral)]


def _breakdown(tau0: float, coh: float, p_loss_spectral: float):
    """The breakdown at one OD from its dwell, coherent-fate dwell and
    spectral P_L, or the ConvergenceError of a failed P_L consistency
    check."""
    p_loss = tau0  # P_L = tau0 / tau_sp
    gap = abs(p_loss - p_loss_spectral)
    if gap > _ENERGY_CONSISTENCY_TOL:
        return ConvergenceError(
            f"min-coherent P_L={p_loss:.4f} disagrees with spectral "
            f"transmission P_L={p_loss_spectral:.4f} by {gap:.2e} "
            f"(limit {_ENERGY_CONSISTENCY_TOL:g})", achieved=gap)
    tau_t = coh / (1.0 - p_loss) if p_loss < 1.0 else 0.0
    tau_l = (tau0 - coh) / p_loss if p_loss > 0.0 else 0.0
    return DwellBreakdown(tau0=tau0, tauL=tau_l, tauT=tau_t, p_loss=p_loss)
