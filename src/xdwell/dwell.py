"""Dwell-time breakdowns (tau0, tauL, tauT) for both attribution models.

Everything is reported in units of the spontaneous lifetime tau_sp.  Two
model families are implemented: the "egalitarian" rule, where a photon
deposits dwell uniformly along its path until scattered or transmitted,
and the minimum-coherent-emission rule, where dwell is attributed by the
eventual fate of the excitation under the semiclassical field evolution.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .bloch import BlochConfig, _exact_net, _g_form, _weak_pe
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
        if not err <= _BROADBAND_TOL:  # a NaN error fails too
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
# the node spectra are filled only on the FFT bins where the envelope
# spectrum reaches this fraction of its peak (33% of the bins at sigma_t
# 10 ns, 19% at 50 ns, on their 512-sample grids); what the others carry
# is below a float64 sum's rounding
_SPECTRUM_FLOOR = 1e-16
# the time grid is the smallest power of two of at least _MIN_SAMPLES
# samples whose step is at most tau_sp / _STEPS_PER_LIFETIME: 512 at sigma_t
# 10 and 50 ns, 1,024 at 200 ns, where 512 samples make the step 0.49 tau_sp
# and the coherent part at OD 20 errs by 4.2e-4.  Above _MAX_SAMPLES the
# rule gives up (sigma_t beyond about 256 tau_sp)
_MIN_SAMPLES = 512
_STEPS_PER_LIFETIME = 4
_MAX_SAMPLES = 1 << 15
# a node block's workspace holds, per sample and node, 6 floats: P_e, the
# net flow and the complex spectra and field; once the net flow is out, the
# g-form's arrays and the scan's copy reuse the last four.  A thread keeps
# its workspace across blocks, curves and calls on grids of up to
# _RETAINED_SAMPLES samples (0.75 MiB at 512, 1.5 MiB at 1,024); a larger
# grid's workspace dies with its call
_WORK_PER_CELL = 6
_RETAINED_SAMPLES = 1024
_workspace = threading.local()


def _grid_samples(pulse: PulseSpec, medium: MediumSpec,
                  n_samples: int | None = None) -> int:
    """The time grid's sample count: `n_samples`, which must be at least
    _MIN_SAMPLES and step at most tau_sp / _STEPS_PER_LIFETIME over the
    grid's span (32 sigma_t and the decay tail), or by default the smallest
    power of two that does, up to _MAX_SAMPLES."""
    span = 32.0 * pulse.intensity_rms + _DECAY_TAIL_LIFETIMES / medium.gamma
    need = max(_MIN_SAMPLES,
               math.ceil(span * medium.gamma * _STEPS_PER_LIFETIME))
    if n_samples is not None:
        if n_samples < need:
            raise ConfigError(
                f"n_samples must be >= {need} (a step of at most "
                f"tau_sp/{_STEPS_PER_LIFETIME}), got {n_samples}")
        return n_samples
    n_samples = 1 << (need - 1).bit_length()
    if n_samples > _MAX_SAMPLES:
        raise ConvergenceError(
            f"sigma_t={pulse.intensity_rms:g} s needs {n_samples} time "
            f"samples (limit {_MAX_SAMPLES})", achieved=n_samples)
    return n_samples


@functools.lru_cache(maxsize=64)
def _depth_nodes(od_grid: tuple, slices: int):
    """Gauss-Legendre nodes and weights in absolute depth (OD units) for
    the panels between consecutive grid ODs, starting at 0, and the number
    of nodes at or below each OD.  A panel wider than _PANEL_MAX_OD is split
    into equal sub-panels; a zero-width panel gets no nodes.  Computed once
    per (OD grid, `slices`) and read-only, since every curve shares them."""
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
    arrays = nodes.ravel(), (half * w).ravel(), np.asarray(ends, dtype=int)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _node_workspace(n_samples: int) -> np.ndarray:
    """A flat float workspace for node blocks on an `n_samples` grid: this
    thread's, grown as needed, up to _RETAINED_SAMPLES; a fresh one past
    that."""
    size = _WORK_PER_CELL * _BLOCK_NODES * n_samples
    if n_samples > _RETAINED_SAMPLES:
        return np.empty(size)
    work = getattr(_workspace, "work", None)
    if work is None or work.size < size:
        work = _workspace.work = np.empty(size)
    return work


def _node_integrals(depths: np.ndarray, spectrum: np.ndarray,
                    band: np.ndarray, detunings: np.ndarray, h: float,
                    medium: MediumSpec, bloch: BlochConfig,
                    work: np.ndarray) -> np.ndarray:
    """Time integrals of P_e and of g = P_e f_coh at each of `depths` (OD
    units, at most _BLOCK_NODES of them), shape (2, depths), on the
    envelope's grid (step h): the trapezoid rule plus the cubic Hermite end
    correction h^2 / 12 (y'(start) - y'(end)), from the exact slopes.  Only
    the bins of `band` carry the envelope spectrum; the others stay zero.
    Every block-sized array is a view of `work` (`_node_workspace`), which
    the next block overwrites; only the returned integrals are fresh."""
    cells = depths.size * spectrum.size
    pe, net = work[:2 * cells].reshape(2, spectrum.size, depths.size)
    spectra, field = work[2 * cells:6 * cells].view(complex).reshape(
        2, depths.size, spectrum.size)
    spectra.fill(0)
    transfer = field_transfer(detunings[band], medium, depths[:, None])
    spectra[:, band] = np.multiply(transfer, spectrum[band], out=transfer)
    np.fft.ifft(spectra, axis=-1, out=field)
    # the net flow is not out yet, so it takes _weak_pe's temporary
    _weak_pe(spectra, h, bloch, out=pe, work=net)
    # _weak_pe leaves the amplitudes in `spectra`; the field's imaginary
    # part is spent once it enters the net flow, so it takes the product
    _exact_net(spectra, field, bloch.rabi_per_amplitude, out=net,
               work=field.imag.T)
    # the spectra and field are spent
    g, slope = _g_form(pe, net, h, bloch.gamma, work=work[2 * cells:])
    # g' is net where net < 0 and (net / P_e) g elsewhere, which is 0 at
    # both ends: g ends at 0, and c starts at 0
    dg = np.minimum(net[[0, -1]], 0.0)
    w = np.full(pe.shape[0], h)  # the trapezoid rule's weights
    w[[0, -1]] *= 0.5
    return np.stack([w @ pe + h * h / 12.0 * (slope[0] - slope[-1]),
                     w @ g + h * h / 12.0 * (dg[0] - dg[1])])


def min_coherent_model(pulse: PulseSpec, medium: MediumSpec, od_grid=None,
                       slices: int = _MIN_SLICES,
                       n_samples: int | None = None) -> list:
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

    The coherent part integrates g = P_e f_coh, which `bloch._g_form`
    solves backward from the exact net flow on the one grid.  The grid
    spans 32 sigma_t plus 10 lifetimes in `n_samples` samples
    (`_grid_samples`): by default the smallest power of two of at least
    _MIN_SAMPLES whose step is at most tau_sp / _STEPS_PER_LIFETIME; an
    explicit count must meet the same floor and step.

    Each entry is a DwellBreakdown, or the ConvergenceError of an OD whose
    P_L disagrees with the spectral transmission; the other ODs stand.
    Raises ConvergenceError if the default grid would pass _MAX_SAMPLES.
    """
    if slices < _MIN_SLICES:
        raise ConfigError(f"slices must be >= {_MIN_SLICES}, got {slices}")
    n_samples = _grid_samples(pulse, medium, n_samples)
    ods = od_grid_array(medium, od_grid)
    bloch = default_bloch_config(pulse, medium)
    unit = medium.with_od(1.0)
    env = gaussian_envelope(pulse, n_samples=n_samples,
                            tail=_DECAY_TAIL_LIFETIMES / medium.gamma)
    spectrum = np.fft.fft(env.samples)
    magnitude = np.abs(spectrum)
    band = np.flatnonzero(magnitude >= _SPECTRUM_FLOOR * magnitude.max())
    detunings = _detunings(env)
    depths, weights, ends = _depth_nodes(tuple(ods.tolist()), slices)
    integrals = np.empty((2, depths.size))
    work = _node_workspace(n_samples)
    for i in range(0, depths.size, _BLOCK_NODES):
        block = slice(i, i + _BLOCK_NODES)
        integrals[:, block] = _node_integrals(
            depths[block], spectrum, band, detunings, env.dt, unit, bloch,
            work)
    # each OD sums the node integrals below its panel edge; the atom
    # weight makes gross scattering match Beer-Lambert loss, and the
    # dwell is in tau_sp units
    scale = bloch.gamma ** 2 / (bloch.rabi_per_amplitude ** 2
                                * env.photon_number)
    sums = np.cumsum(weights * integrals, axis=1)
    tau0, coh = np.pad(sums, ((0, 0), (1, 0)))[:, ends] * scale
    # the dwell lies in [0, 1] (tau0 = P_L) and its coherent part in
    # [0, tau0] (0 <= f_coh <= 1); rounding can put them past a bound where
    # the truth sits at it (at sigma_t 200 ns, tau0 at OD 40)
    tau0 = np.clip(tau0, 0.0, 1.0)
    coh = np.clip(coh, 0.0, tau0)
    p_loss_spectral = 1.0 - transmission_probability(pulse, unit, ods)
    return [_breakdown(float(t), float(c), float(p))
            for t, c, p in zip(tau0, coh, p_loss_spectral)]


def _breakdown(tau0: float, coh: float, p_loss_spectral: float):
    """The breakdown at one OD from its dwell, coherent-fate dwell and
    spectral P_L, or the ConvergenceError of a failed P_L consistency
    check, which a NaN on either side fails too."""
    p_loss = tau0  # P_L = tau0 / tau_sp
    gap = abs(p_loss - p_loss_spectral)
    if not gap <= _ENERGY_CONSISTENCY_TOL:
        return ConvergenceError(
            f"min-coherent P_L={p_loss:.4f} disagrees with spectral "
            f"transmission P_L={p_loss_spectral:.4f} by {gap:.2e} "
            f"(limit {_ENERGY_CONSISTENCY_TOL:g})", achieved=gap)
    tau_t = coh / (1.0 - p_loss) if p_loss < 1.0 else 0.0
    tau_l = (tau0 - coh) / p_loss if p_loss > 0.0 else 0.0
    return DwellBreakdown(tau0=tau0, tauL=tau_l, tauT=tau_t, p_loss=p_loss)
