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

from .bloch import (BlochConfig, _backward_scan, _fate_solve, _fate_steps,
                    _net_flow, _weak_pe)
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
# the node spectra are filled only on the FFT bins where the envelope
# spectrum reaches this fraction of its peak (15% of the bins at sigma_t
# 10 ns, 9% at 50 ns); what the others carry is below a float64 sum's
# rounding
_SPECTRUM_FLOOR = 1e-16
# the smallest power of two whose Richardson pair keeps every default-grid
# value within the frozen values' 1e-3 of converged (5.9e-4 at sigma_t
# 50 ns; 128 samples err by 5.1e-3)
_MIN_SAMPLES = 256
# a step whose removal hazard times h passes _SPLIT_HAZARD at either end
# (the spike where P_e nearly vanishes at the 0-pi flip) is integrated on
# _SUB_STEPS sub-steps, with the amplitude c interpolated by a polynomial
# through _STENCIL samples
_SPLIT_HAZARD = 1.0
_SUB_STEPS = 16
_STENCIL = 6


def _stencil_weights():
    """Weights that take the _STENCIL samples of c around a step to c and
    then to dc/dt (per unit of the step) at the sub-step times: one
    (2 (_SUB_STEPS + 1), _STENCIL) matrix per position of the step in its
    stencil (off centre at the ends of the grid)."""
    powers = np.arange(_STENCIL)
    s = np.vander(np.linspace(0.0, 1.0, _SUB_STEPS + 1), _STENCIL,
                  increasing=True)
    inv = [np.linalg.inv(np.vander(powers - shift, increasing=True))
           for shift in powers]
    return np.stack([np.concatenate([s @ m, (s[:, :-1] * powers[1:]) @ m[1:]])
                     for m in inv])


_STENCIL_WEIGHTS = _stencil_weights()


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
                    band: np.ndarray, detunings: np.ndarray, h: float,
                    medium: MediumSpec, bloch: BlochConfig) -> np.ndarray:
    """Time integrals of P_e and of P_e f_coh at each of `depths` (OD
    units, at most _BLOCK_NODES of them), shape (2, depths): the Richardson
    extrapolation (4 fine - coarse) / 3 of the envelope's grid (step h)
    and of its every second sample (step 2h).  Only the bins of `band`
    carry the envelope spectrum; the others stay zero.  The block's arrays
    die on return."""
    spectra = np.zeros((depths.size, spectrum.size), complex)
    transfer = field_transfer(detunings[band], medium, depths[:, None])
    spectra[:, band] = np.multiply(transfer, spectrum[band], out=transfer)
    pe = _weak_pe(spectra, h, bloch)
    c = spectra.T  # _weak_pe leaves the amplitudes in `spectra`
    # P_e is spectrally exact, so every second sample is the response on
    # the half grid of the same span; only the fate steps see the step size
    net = _net_flow(pe, h, bloch.gamma)
    # both grids split the same time intervals: each coarse step holding a
    # fine step to split, and its two fine steps
    hard = _hard_steps(pe, net, h)
    split = hard[0:-1:2] | hard[1::2]
    hard[:-1] = np.repeat(split, 2, axis=0)
    hard[-1] = False
    fine = _fate_integrals(pe, c, net, h, bloch.gamma, hard)
    coarse = _fate_integrals(pe[::2], c[::2],
                             _net_flow(pe[::2], 2 * h, bloch.gamma), 2 * h,
                             bloch.gamma, split)
    return (4.0 * fine - coarse) / 3.0


def _hard_steps(pe: np.ndarray, net: np.ndarray, h: float) -> np.ndarray:
    """The steps, (rows - 1, columns), whose removal hazard
    max(-net, 0) / P_e times h passes _SPLIT_HAZARD at either end; P_e is
    floored as in the fate steps."""
    # -net / P_e times h, in one buffer: it can pass _SPLIT_HAZARD only
    # where -net > 0
    hz = np.maximum(pe, pe.max(axis=0) * 1e-12)
    np.divide(net, hz, out=hz)
    hz *= -h
    hard = hz > _SPLIT_HAZARD
    return hard[:-1] | hard[1:]


def _fate_integrals(pe: np.ndarray, c: np.ndarray, net: np.ndarray,
                    h: float, gamma: float, split: np.ndarray) -> np.ndarray:
    """Integrals of P_e and of P_e f_coh over axis 0 of `pe`, sampled at
    step h with amplitudes `c` and net flow `net` (consumed): shape
    (2, columns).  Steps where `split` is set are integrated by
    `_split_steps`, the others by the trapezoid rule.  The error is
    O(h^2), and its part that is smooth in h is what two grids
    extrapolate away."""
    # signed: the fate recurrence also needs where the removal starts and
    # stops between two samples
    f, b = _fate_steps(pe, np.negative(net, out=net), h, gamma)
    # np.nonzero of a 2-d mask costs ten times this
    steps = divmod(np.flatnonzero(split), split.shape[1])
    a_s, b_s, p_s, q_s = _split_steps(c, steps, h, gamma)
    f[:-1][steps] = a_s
    b[steps] = b_s
    f = _fate_solve(f, b)
    rows, cols = steps
    split_coh = p_s + q_s * f[rows + 1, cols]
    coh = np.multiply(f, pe, out=f)
    trapezoid = _trapezoid_weights(pe.shape[0], h)
    int_coh = trapezoid @ coh
    # a split step's integral replaces its trapezoid term
    np.add.at(int_coh, cols, split_coh
              - 0.5 * h * (coh[rows, cols] + coh[rows + 1, cols]))
    return np.stack([trapezoid @ pe, int_coh])


def _split_steps(c: np.ndarray, steps, h: float, gamma: float):
    """(a, b, p, q) of each step (rows, columns) of `c`: the step's fate
    recurrence f_n = a + b f_{n+1} and its integral p + q f_{n+1} of
    P_e f_coh, composed from _SUB_STEPS sub-steps.  On them c is the
    polynomial through the _STENCIL samples around the step, and the
    removal is -(P_e' + gamma P_e) from that polynomial."""
    rows, cols = steps
    lo = np.clip(rows - _STENCIL // 2 + 1, 0, c.shape[0] - _STENCIL)
    stencil = c[lo[:, None] + np.arange(_STENCIL), cols[:, None]].T
    # c and dc/dt at the sub-step times; only steps near the ends of the
    # grid sit off centre in their stencil
    both = np.empty((2 * (_SUB_STEPS + 1), rows.size), complex)
    shift = rows - lo
    for k in np.unique(shift):
        at = shift == k
        both[:, at] = _STENCIL_WEIGHTS[k] @ stencil[:, at]
    cs, dcs = both[:_SUB_STEPS + 1], both[_SUB_STEPS + 1:]
    dcs /= h
    pe = np.square(np.abs(cs))
    removal = -(2.0 * (cs.real * dcs.real + cs.imag * dcs.imag) + gamma * pe)
    alpha, beta = _fate_steps(pe, removal, h / _SUB_STEPS, gamma)
    # beta_j: the product of b from sub-step j to the end
    after = np.ones_like(alpha)
    after[:-1] = np.cumprod(beta[::-1], axis=0)[::-1]
    _backward_scan(alpha, beta)
    w = _trapezoid_weights(_SUB_STEPS + 1, h / _SUB_STEPS)
    return alpha[0], after[0], w @ (pe * alpha), w @ (pe * after)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Weights of the trapezoid rule on n samples at step h, so that the
    integral of y over axis 0 is `weights @ y`."""
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    return w


def min_coherent_model(pulse: PulseSpec, medium: MediumSpec, od_grid=None,
                       slices: int = _MIN_SLICES,
                       n_samples: int = 1024) -> list:
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

    Time is integrated on a Richardson pair of grids over the same span:
    `n_samples`, an even count of at least _MIN_SAMPLES, is the finer grid,
    and the coarser is its every second sample, the `n_samples // 2` grid.
    The node integrals err by O(h^2) on each, and (4 fine - coarse) / 3
    cancels that term.  For the error to be smooth in h, the steps across
    the hazard spike of the 0-pi flip are integrated on sub-steps
    (`_split_steps`), the same time intervals on both grids.

    Each entry is a DwellBreakdown, or the ConvergenceError of an OD whose
    P_L disagrees with the spectral transmission; the other ODs stand.
    """
    if slices < _MIN_SLICES:
        raise ConfigError(f"slices must be >= {_MIN_SLICES}, got {slices}")
    if n_samples % 2 or n_samples < _MIN_SAMPLES:
        raise ConfigError(f"n_samples must be even and >= {_MIN_SAMPLES}, "
                          f"got {n_samples}")
    ods = od_grid_array(medium, od_grid)
    bloch = default_bloch_config(pulse, medium)
    unit = medium.with_od(1.0)
    env = gaussian_envelope(pulse, n_samples=n_samples,
                            tail=_DECAY_TAIL_LIFETIMES / medium.gamma)
    spectrum = np.fft.fft(env.samples)
    magnitude = np.abs(spectrum)
    band = np.flatnonzero(magnitude >= _SPECTRUM_FLOOR * magnitude.max())
    detunings = _detunings(env)
    depths, weights, ends = _depth_nodes(ods, slices)
    integrals = np.empty((2, depths.size))
    for i in range(0, depths.size, _BLOCK_NODES):
        block = slice(i, i + _BLOCK_NODES)
        integrals[:, block] = _node_integrals(
            depths[block], spectrum, band, detunings, env.dt, unit, bloch)
    # each OD sums the node integrals below its panel edge; the atom
    # weight makes gross scattering match Beer-Lambert loss, and the
    # dwell is in tau_sp units
    scale = bloch.gamma ** 2 / (bloch.rabi_per_amplitude ** 2
                                * env.photon_number)
    sums = np.cumsum(weights * integrals, axis=1)
    tau0, coh = np.pad(sums, ((0, 0), (1, 0)))[:, ends] * scale
    # a grid's dwell lies in [0, 1] (tau0 = P_L) and its coherent part in
    # [0, tau0] (0 <= f_coh <= 1); the extrapolated ones can overshoot by
    # their own error where the truth sits at a bound (at sigma_t 200 ns,
    # coh rounds to below 0 at OD 0.01 and tau0 to above 1 at OD 40)
    tau0 = np.clip(tau0, 0.0, 1.0)
    coh = np.clip(coh, 0.0, tau0)
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
