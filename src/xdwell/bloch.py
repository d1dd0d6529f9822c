"""Weak-excitation two-level dynamics driven by a sampled envelope.

Solves the amplitude equation dc/dt = (i*Delta - Gamma/2) c + i*Omega(t)/2
on the envelope's FFT grid, derives excitation/de-excitation flows from
P_e = |c|^2, and attributes the eventual fate (coherent forward return vs
spontaneous scattering) of excitation present at each instant.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, WeakExcitationError
from .medium import SampledEnvelope

__all__ = [
    "BlochConfig",
    "ExcitationRecord",
    "integrate_weak_bloch",
    "pulse_area",
    "detect_phase_flip",
    "fate_fractions",
]

_WEAK_PE_LIMIT = 1e-2


@dataclass(frozen=True)
class BlochConfig:
    """Decay rate, drive scale and atom-vs-carrier detuning."""

    gamma: float  # rad/s
    rabi_per_amplitude: float  # rad/s per unit envelope amplitude
    detuning: float = 0.0  # rad/s

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError("gamma must be > 0")
        if self.rabi_per_amplitude <= 0:
            raise ConfigError("rabi_per_amplitude must be > 0")


@dataclass(frozen=True)
class ExcitationRecord:
    """P_e(t) with rectified excitation/de-excitation flows on a uniform grid."""

    t0: float
    dt: float
    gamma: float
    pe: np.ndarray
    up_flow: np.ndarray
    coh_down_flow: np.ndarray
    spont_flow: np.ndarray


def _check_weak(pe: np.ndarray):
    peak = float(pe.max())
    if peak >= _WEAK_PE_LIMIT:
        raise WeakExcitationError(
            f"peak excitation probability {peak:.3e} >= {_WEAK_PE_LIMIT:g}; "
            "reduce rabi_per_amplitude", peak)


def _weak_amplitudes(spectra: np.ndarray, dt: float,
                     cfg: BlochConfig) -> np.ndarray:
    """Solve dc/dt = lam c + i Omega(t)/2 with c(t0) = 0 on the FFT grid.

    `spectra` holds envelope FFTs along the last axis; Omega is
    cfg.rabi_per_amplitude times the envelope.  Each bin is solved by
    C(w) = (i Omega(w)/2)/(i w - lam), which is the periodic solution;
    subtracting the homogeneous term c(t0) exp(lam (t - t0)) makes it the
    causal one.  Works in place: returns `spectra` holding c(t).
    """
    n = spectra.shape[-1]
    lam = 1j * cfg.detuning - 0.5 * cfg.gamma
    w = 2.0 * np.pi * np.fft.fftfreq(n, dt)
    spectra *= (0.5j * cfg.rabi_per_amplitude) / (1j * w - lam)
    c = np.fft.ifft(spectra, axis=-1, out=spectra)
    decay = np.exp(lam * dt * np.arange(n))
    homogeneous = np.empty_like(decay)
    for row in np.atleast_2d(c):  # one row at a time: no (rows, n) temporary
        row -= np.multiply(row[:1], decay, out=homogeneous)
    return c


def _weak_pe(spectra: np.ndarray, dt: float, cfg: BlochConfig) -> np.ndarray:
    """P_e = |c|^2 of the weak response to each row of `spectra` (consumed:
    it ends up holding c), time-major: (N, rows) for (rows, N) spectra.
    Raises WeakExcitationError past the weak-drive limit."""
    c = _weak_amplitudes(spectra, dt, cfg)
    # |c|^2 written time-major, with no transpose copy
    pe = np.square(c.real.T, out=np.empty(c.shape[::-1]))
    pe += np.square(c.imag.T)
    _check_weak(pe)
    return pe


def _net_flow(pe: np.ndarray, h: float, gamma: float) -> np.ndarray:
    """dP_e/dt + gamma P_e along axis 0: excitation gained where positive,
    coherently returned where negative.  Centred differences, one-sided at
    the ends: `np.gradient(pe, h, axis=0)`, written into one array."""
    net = np.empty_like(pe)
    np.subtract(pe[2:], pe[:-2], out=net[1:-1])
    net[1:-1] /= 2.0 * h
    np.subtract(pe[1:2], pe[:1], out=net[:1])
    np.subtract(pe[-1:], pe[-2:-1], out=net[-1:])
    net[[0, -1]] /= h
    net += gamma * pe
    return net


def integrate_weak_bloch(env: SampledEnvelope, cfg: BlochConfig) -> ExcitationRecord:
    """Weak-drive excitation of one envelope, on the envelope's own grid."""
    pe = _weak_pe(np.fft.fft(env.samples), env.dt, cfg)
    net = _net_flow(pe, env.dt, cfg.gamma)
    return ExcitationRecord(t0=env.t0, dt=env.dt, gamma=cfg.gamma, pe=pe,
                            up_flow=np.maximum(net, 0.0),
                            coh_down_flow=np.maximum(-net, 0.0),
                            spont_flow=cfg.gamma * pe)


def pulse_area(env: SampledEnvelope, cfg: BlochConfig) -> float:
    """Pulse area along the initial phase axis; flipped portions count negative."""
    samples = env.samples
    ref = samples[np.argmax(np.abs(samples))]
    if ref == 0:
        return 0.0
    phase = ref / abs(ref)
    proj = (samples * np.conj(phase)).real
    return float(cfg.rabi_per_amplitude * np.trapezoid(proj, dx=env.dt))


_FLIP_MIN_RUN = 3


def detect_phase_flip(env: SampledEnvelope):
    """Earliest time where the envelope's initial-phase projection goes and
    stays negative for at least _FLIP_MIN_RUN samples; None if it never
    does."""
    samples = env.samples
    peak_idx = int(np.argmax(np.abs(samples)))
    ref = samples[peak_idx]
    if ref == 0:
        return None
    proj = (samples * np.conj(ref / abs(ref))).real
    # a thin medium's trailing scattered wave is negative but negligible; a
    # flip only counts when the flipped field is a meaningful pulse fraction
    floor = -5e-3 * np.abs(proj).max()
    # only the trailing side counts; leading-edge ringing is grid artifact
    neg = proj < floor
    neg[:peak_idx] = False
    starts = np.flatnonzero(np.lib.stride_tricks.sliding_window_view(
        neg, _FLIP_MIN_RUN).all(axis=1))
    return float(env.t0 + env.dt * int(starts[0])) if starts.size else None


_CLAMP_REPORT = 1e-6


@functools.lru_cache(maxsize=64)  # a model block scans the same few sizes
def _chunk_rows(m: int) -> int:
    """The chunk length C with which the two-level scan of `_backward_scan`
    solves m rows in the fewest Python steps, (C - 1) + m // C + m % C
    (31 for 1,023 rows, 17 for 511, 4 for 16).  At C = isqrt(m) + 1 each
    term is at most isqrt(m), so no C above 3 isqrt(m) + 1 can do
    better."""
    if m < 2:
        return 1
    c = np.arange(1, min(m, 3 * math.isqrt(m) + 1) + 1)
    return int(c[np.argmin(c - 1 + m // c + m % c)])


def _chunks(x: np.ndarray, start: int, size: int) -> np.ndarray:
    """Rows `start:` of `x` as a (chunks, size, ...) view; splitting an
    axis never copies, so writes to it land in `x`."""
    k = (x.shape[0] - start) // size
    return x[start:].reshape(k, size, *x.shape[1:])


def _backward_scan(f: np.ndarray, b: np.ndarray):
    """Solve f_n = a_n + b_n f_{n+1} backward, in place: `f` holds a_n in
    rows :-1 and the end value in its last row; `b` has one row fewer and
    is consumed.

    A two-level scan.  The rows after the first m % C fall into chunks of
    C = `_chunk_rows(m)` rows, all solved at once from a zero end value
    on chunk-major copies of f and b; that leaves each row of the b copy
    holding its product of b to its chunk's end.  A loop over one row per
    chunk carries the true value after each chunk back from the end, one
    pass adds b * carry to every chunk row and the copy of f goes back into
    f, and the leading rows take plain steps from the first chunk's start.
    """
    size = _chunk_rows(b.shape[0])
    head = b.shape[0] % size
    fc, bc = _chunks(f[:-1], head, size), _chunks(b, head, size)
    # within chunks, row j of every chunk at once, on copies that hold
    # those rows side by side: on rows a chunk apart each ufunc call
    # iterates row by row and costs several times as much.  Once copied,
    # the chunk rows of b are spent and hold the copy of f
    b_rows = bc.swapaxes(0, 1).copy()
    f_rows = b[head:].reshape(b_rows.shape)
    f_rows[...] = fc.swapaxes(0, 1)
    step = np.empty(f_rows.shape[1:])
    for f_j, f_next, b_j, b_next in zip(f_rows[-2::-1], f_rows[::-1],
                                        b_rows[-2::-1], b_rows[::-1]):
        f_j += np.multiply(b_j, f_next, out=step)
        b_j *= b_next
    # carry[c]: the true value at chunk c's first row, carry[-1] the end
    # value; chunk c's rows then add b * carry[c + 1]
    carry = np.empty((fc.shape[0] + 1,) + fc.shape[2:])
    carry[-1] = f[-1]
    for start, prod, here, after in zip(f_rows[0, ::-1], b_rows[0, ::-1],
                                        carry[-2::-1], carry[::-1]):
        np.add(start, np.multiply(prod, after, out=here), out=here)
    f_rows += np.multiply(b_rows, carry[1:], out=b_rows)
    fc[...] = f_rows.swapaxes(0, 1)
    row = carry[0]  # spent: scratch for the leading rows
    for b_n, f_n, f_next in zip(b[:head][::-1], f[:head][::-1],
                                f[1:head + 1][::-1]):
        f_n += np.multiply(b_n, f_next, out=row)


def _fate_steps(pe: np.ndarray, coh_down: np.ndarray, h: float,
                gamma: float):
    """Steps of the backward integration of the coherent-fate fraction;
    time on axis 0.

    With hazard hz = coh_down/pe the fraction obeys
    f' = -hz + (gamma + hz) f, integrated backward from f(end) = 0 with a
    piecewise-constant-hazard exponential step: f_n = a_n + b_n f_{n+1},
    where b_n = exp(-lam_n h), a_n = (hm_n/lam_n)(1 - b_n), hm_n is the
    step's mean hazard and lam_n = gamma + hm_n.  `coh_down` may be signed,
    negative where excitation is gained: that counts as no removal, but on
    a step where the sign changes hm_n is the mean of the positive part of
    the linearly interpolated hazard, so the step's error does not depend
    on where between two samples the removal starts or stops.  After the
    last coherent removal the hazard is zero, so a_n = 0 and f stays at its
    final 0: that excitation can only decay spontaneously.  The recurrence
    is solved by `_backward_scan`, a chunked scan whose every operation is
    row-wise, so a column's result does not depend on the columns beside
    it.

    Returns (f, b): f holds a_n in its rows :-1 and the end value 0 in its
    last row, and b, a view into `coh_down`, holds b_n; `_fate_solve`
    solves them.  Consumes `coh_down`: it is overwritten in turn by the
    hazard, lam and b, and a_n is kept in f, so the whole recurrence needs
    no float buffer beyond f, one row block, the sign-change steps, the
    scan's copy of the chunk rows of b and two buffers of one row per
    chunk.
    """
    # where P_e touches zero under active coherent removal (a 0-pi flip
    # emptying the state) the hazard diverges; flooring P_e saturates the
    # fate fraction at 1 there, and pe * f keeps those points weightless.
    # The floor is per column, so a column's result does not depend on
    # the columns beside it; a column without excitation has no removal,
    # and any positive floor leaves its fraction at 0
    peak = pe.max(axis=0)
    f = np.maximum(pe, np.where(peak > 0, peak * 1e-12, 1.0))
    hz = np.divide(coh_down, f, out=coh_down)
    # steps where the removal starts or stops keep the share of the step,
    # max(lo, hi) / |hi - lo|, on which the interpolated hazard is positive
    cross = np.flatnonzero(np.signbit(hz[:-1]) ^ np.signbit(hz[1:]))
    lo, hi = hz[:-1].ravel()[cross], hz[1:].ravel()[cross]
    share = np.divide(np.maximum(lo, hi), np.abs(hi - lo),
                      out=np.ones_like(lo), where=hi != lo)
    np.maximum(hz, 0.0, out=hz)
    hm = np.add(hz[:-1], hz[1:], out=f[:-1])
    hm *= 0.5
    hm.ravel()[cross] *= share  # f is contiguous: ravel is a view
    f[-1] = 0.0
    lam = np.add(hm, gamma, out=coh_down[:-1])
    a = np.divide(hm, lam, out=hm)
    b = np.exp(np.multiply(lam, -h, out=lam), out=lam)
    rows = max(1, (1 << 16) // max(pe.shape[1], 1))
    for i in range(0, b.shape[0], rows):
        a[i:i + rows] *= np.subtract(1.0, b[i:i + rows])
    return f, b


def _fate_solve(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the recurrence of `_fate_steps` in place and clip f to [0, 1],
    warning past _CLAMP_REPORT; consumes `b`."""
    _backward_scan(f, b)
    over = max(f.max() - 1.0, -f.min(), 0.0)
    if over > _CLAMP_REPORT:
        warnings.warn(f"f_coh clamped by {over:.2e} (> {_CLAMP_REPORT:g})")
    return np.clip(f, 0.0, 1.0, out=f)


def _fate_fractions_many(pe: np.ndarray, coh_down: np.ndarray, h: float,
                         gamma: float) -> np.ndarray:
    """Coherent-fate fraction at each sample of `pe` (time on axis 0), from
    the steps of `_fate_steps`; consumes `coh_down`."""
    return _fate_solve(*_fate_steps(pe, coh_down, h, gamma))


def fate_fractions(rec: ExcitationRecord) -> np.ndarray:
    """f_coh(t): probability that excitation present at each of the record's
    times ends in coherent return."""
    # the recurrence consumes its coh_down argument: hand it a copy
    f = _fate_fractions_many(rec.pe[:, None],
                             rec.coh_down_flow[:, None].copy(),
                             rec.dt, rec.gamma)
    return f[:, 0]
