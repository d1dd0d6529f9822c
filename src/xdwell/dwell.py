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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import (
    BlochConfig,
    _exact_net,
    _g_form,
    _response,
    _weak_amplitudes,
    _weak_pe,
)
from .errors import ConfigError, ConvergenceError
from .medium import (
    MediumSpec,
    PulseSpec,
    _detunings,
    _spectral_average,
    _transfer,
    _transfer_exponent,
    gaussian_envelope,
    od_grid_array,
    transmission_probability,
)

__all__ = [
    "DwellBreakdown",
    "MODEL_EGALITARIAN",
    "MODEL_MIN_COHERENT",
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

    def check_identities(self):
        """P_L = tau0/tau_sp and the loss/transmission decomposition of tau0,
        each to _IDENTITY_TOL; a NaN residual fails too."""
        mix = self.p_loss * self.tauL + (1.0 - self.p_loss) * self.tauT
        for name, residual in (
                ("tau0 - p_loss", self.tau0 - self.p_loss),
                ("P_L tauL + P_T tauT - tau0", mix - self.tau0)):
            if not abs(residual) <= _IDENTITY_TOL:
                raise ConvergenceError(f"|{name}| = {abs(residual):.2e} > "
                                       f"{_IDENTITY_TOL:g}")


_BROADBAND_TOL = 1e-4


def _egalitarian_terms(a):
    """P_L, P_T tauT and P_L tauL of one spectral component at local OD a,
    stacked on a new first axis in one array."""
    terms = np.empty((3, *a.shape))
    p_loss, pt_taut, pl_taul = terms
    minus_a = np.negative(a, out=pl_taul)
    np.multiply(np.exp(minus_a, out=pt_taut), a, out=pt_taut)
    np.negative(np.expm1(minus_a, out=p_loss), out=p_loss)
    np.subtract(p_loss, pt_taut, out=pl_taul)
    return terms


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
    return [_breakdown(*terms) if err <= _BROADBAND_TOL  # a NaN fails
            else ConvergenceError(f"broadband aggregation error {err:.2e} "
                                  f"> {_BROADBAND_TOL:g}")
            for *terms, err in zip(p_losses, pt_tauts, pl_tauls,
                                   errors.max(axis=0))]


def _breakdown(p_loss, transmitted, lost) -> DwellBreakdown:
    """The breakdown from P_L (= tau0 / tau_sp) and the dwell per incident
    photon of the transmitted and of the lost photons; tauT and tauL are 0
    where P_T or P_L is."""
    tau_t = transmitted / (1.0 - p_loss) if p_loss < 1.0 else 0.0
    tau_l = lost / p_loss if p_loss > 0.0 else 0.0
    return DwellBreakdown(tau0=float(p_loss), tauL=float(tau_l),
                          tauT=float(tau_t), p_loss=float(p_loss))


_PROBE_AREA = 0.02  # weak, so normalized results do not depend on it


def default_bloch_config(pulse: PulseSpec, medium: MediumSpec) -> BlochConfig:
    """Drive scale giving the pulse area `_PROBE_AREA`."""
    s = pulse.intensity_rms
    # the one-photon Gaussian's peak amplitude and analytic area integral
    peak_amp = np.sqrt(1.0 / (s * np.sqrt(2.0 * np.pi)))
    area_integral = peak_amp * 2.0 * s * np.sqrt(np.pi)
    return BlochConfig(gamma=medium.gamma,
                       rabi_per_amplitude=_PROBE_AREA / area_integral,
                       detuning=-pulse.carrier_detuning)


_ENERGY_CONSISTENCY_TOL = 2e-2
_DECAY_TAIL_LIFETIMES = 10.0
_MIN_SLICES = 8
_PANEL_MAX_OD = 1.0
# a node block takes as many depth nodes as fit _BLOCK_CELLS (nodes x
# samples), in steps of _NODE_STEP and at least _MIN_BLOCK_NODES: 64 on the
# default 512-sample grid, 32 on 1,024 samples and more.  Blocks whose
# widths are multiples of 8 give the same bits (the tests check 8 to 64);
# other widths, such as 1, 3, 7, 17 or 33, change the last bits, since the
# BLAS sums over time of the node integrals (w @ pe, w @ g) group their
# terms by the column count
_BLOCK_CELLS = 32 * 1024
_MIN_BLOCK_NODES = 32
_NODE_STEP = 8
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
# a node block's workspace holds, per sample and node, 4 floats: each
# half block's P_e and net flow, time-major and side by side, then 2 floats
# of scratch.  The response fills the block one half at a time: the half's
# complex spectra and field take the scratch, and its homogeneous term the
# half's P_e and net flow before they are out.  The g-form's g and b then
# take the scratch, and the scan's copies the spent P_e and net flows.  A
# curve's blocks share one workspace (1 MiB at 512 and at 1,024 samples),
# which lives for one `min_coherent_model` call
_WORK_PER_CELL = 4


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
            f"samples (limit {_MAX_SAMPLES})")
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


def _block_nodes(n_samples: int) -> int:
    """Depth nodes per block on an `n_samples` grid (see _BLOCK_CELLS)."""
    return max(_MIN_BLOCK_NODES,
               _BLOCK_CELLS // n_samples // _NODE_STEP * _NODE_STEP)


class _Grid(NamedTuple):
    """What the node blocks of a curve share: the time step, the envelope
    spectrum and the unit-OD transfer exponent (`medium._transfer_exponent`)
    on the bins that carry the spectrum, where those bins sit in a half
    block's flattened spectra, the trapezoid rule's weights, and the weak
    response's kernels (`bloch._response`) under `bloch`."""

    h: float
    spectrum: np.ndarray
    exponent: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    response: tuple
    bloch: BlochConfig


def _node_integrals(depths: np.ndarray, grid: _Grid,
                    work: np.ndarray) -> np.ndarray:
    """Time integrals of P_e and of g = P_e f_coh at each of `depths` (OD
    units, at most a block of them, `_block_nodes`), shape (2, depths), on
    the curve's `grid`: the trapezoid rule plus the cubic Hermite end
    correction h^2 / 12 (y'(start) - y'(end)), from the exact slopes.  The
    bins that carry no envelope spectrum stay zero.  Every block-sized
    array is a view of `work`, the call's workspace of _WORK_PER_CELL
    floats per cell, which the next block overwrites; only the returned
    integrals are fresh."""
    n, h, bloch = grid.weights.size, grid.h, grid.bloch
    rows = -(-depths.size // 2)
    # the block goes through in two halves of `rows` nodes; an odd block
    # repeats its first node to fill the second
    halves = np.resize(depths, (2, rows))
    cells = halves.size * n
    # each half's P_e and net flow, time-major and side by side
    flows = work[:2 * cells].reshape(2, 2, n, rows)
    pe, net = flows[:, 0], flows[:, 1]
    spectra, field = work[2 * cells:4 * cells].view(complex).reshape(
        2, rows, n)
    targets = grid.targets[:rows * grid.spectrum.size]
    for half, flow in zip(halves, flows):
        # the transfers go to the field's storage, which the ifft then fills
        transfer = _transfer(grid.exponent, half[:, None],
                             out=field.reshape(-1)[:targets.size].reshape(
                                 rows, -1))
        transfer *= grid.spectrum
        spectra.fill(0)
        spectra.reshape(-1)[targets] = transfer.reshape(-1)
        np.fft.ifft(spectra, axis=-1, out=field)
        # the half's P_e and net flow are not out yet, so their storage
        # takes the homogeneous term
        c = _weak_amplitudes(spectra, grid.response,
                             work=flow.reshape(-1).view(complex).reshape(
                                 rows, n))
        # the net flow is not out yet either, so it takes _weak_pe's
        # temporary
        _weak_pe(c, out=flow[0], work=flow[1])
        # the field's imaginary part is spent once it enters the net flow,
        # so it takes the product
        _exact_net(c, field, bloch.rabi_per_amplitude, out=flow[1],
                   work=field.imag.T)
    # g' is net where net < 0 and (net / P_e) g elsewhere, which is 0 at
    # both ends: g ends at 0, and c starts at 0.  Both are taken before the
    # g-form, whose scan then overwrites P_e and the net flow
    pe_sum = grid.weights @ pe
    dg = np.minimum(net[:, [0, -1]], 0.0)
    g, slope = _g_form(pe, net, h, bloch.gamma, work=work[:4 * cells])
    return np.stack([pe_sum + h * h / 12.0 * (slope[:, 0] - slope[:, 1]),
                     grid.weights @ g + h * h / 12.0 * (dg[:, 0] - dg[:, 1])]
                    ).reshape(2, -1)[:, :depths.size]


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
    # before the blocks, so that its transients and theirs do not meet
    p_loss_spectral = 1.0 - transmission_probability(pulse, unit, ods)
    env = gaussian_envelope(pulse, n_samples=n_samples,
                            tail=_DECAY_TAIL_LIFETIMES / medium.gamma)
    spectrum = np.fft.fft(env.samples)
    magnitude = np.abs(spectrum)
    band = np.flatnonzero(magnitude >= _SPECTRUM_FLOOR * magnitude.max())
    width = _block_nodes(n_samples)
    weights = np.full(n_samples, env.dt)  # the trapezoid rule's
    weights[[0, -1]] *= 0.5
    grid = _Grid(
        h=env.dt, spectrum=spectrum[band],
        exponent=_transfer_exponent(_detunings(env)[band], unit),
        # one flat scatter costs a third of indexing the band on the last
        # axis
        targets=(n_samples * np.arange(-(-width // 2))[:, None]
                 + band).reshape(-1),
        weights=weights, response=_response(n_samples, env.dt, bloch),
        bloch=bloch)
    depths, node_weights, ends = _depth_nodes(tuple(ods.tolist()), slices)
    integrals = np.empty((2, depths.size))
    work = np.empty(_WORK_PER_CELL * width * n_samples)
    for i in range(0, depths.size, width):
        block = slice(i, i + width)
        integrals[:, block] = _node_integrals(depths[block], grid, work)
    # each OD sums the node integrals below its panel edge; the atom
    # weight makes gross scattering match Beer-Lambert loss, and the
    # dwell is in tau_sp units
    scale = bloch.gamma ** 2 / (bloch.rabi_per_amplitude ** 2
                                * env.photon_number)
    sums = np.cumsum(node_weights * integrals, axis=1)
    tau0, coh = np.pad(sums, ((0, 0), (1, 0)))[:, ends] * scale
    # the dwell lies in [0, 1] (tau0 = P_L) and its coherent part in
    # [0, tau0] (0 <= f_coh <= 1); rounding can put them past a bound where
    # the truth sits at it (at sigma_t 200 ns, tau0 at OD 40)
    tau0 = np.clip(tau0, 0.0, 1.0)
    coh = np.clip(coh, 0.0, tau0)
    # P_L = tau0 / tau_sp must match the spectral P_L (a NaN on either side
    # fails), and the coherent fate is transmission
    gaps = np.abs(tau0 - p_loss_spectral)
    return [_breakdown(t, c, t - c) if gap <= _ENERGY_CONSISTENCY_TOL
            else ConvergenceError(
                f"min-coherent P_L={t:.4f} disagrees with spectral "
                f"transmission P_L={p:.4f} by {gap:.2e} "
                f"(limit {_ENERGY_CONSISTENCY_TOL:g})")
            for t, c, p, gap in zip(tau0.tolist(), coh.tolist(),
                                    p_loss_spectral.tolist(), gaps.tolist())]
