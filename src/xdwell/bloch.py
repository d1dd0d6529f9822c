"""Weak-excitation two-level dynamics driven by a sampled envelope.

Solves the amplitude equation dc/dt = (i*Delta - Gamma/2) c + i*Omega(t)/2
on the envelope's FFT grid.  The net flow dP_e/dt + Gamma P_e = Im(c conj
Omega) is then exact at every sample: excitation is gained where it is
positive and returned coherently where it is negative.  The excitation
present at each instant that will leave by coherent forward return,
g = P_e f_coh, is integrated backward from that flow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
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
    """P_e(t) with rectified excitation/de-excitation flows on a uniform grid:
    up_flow - coh_down_flow is the exact net flow, and gamma P_e the
    spontaneous one."""

    t0: float
    dt: float
    gamma: float
    pe: np.ndarray
    up_flow: np.ndarray
    coh_down_flow: np.ndarray


def _check_weak(pe: np.ndarray):
    peak = float(pe.max())
    if peak >= _WEAK_PE_LIMIT:
        raise ConvergenceError(
            f"peak excitation probability {peak:.3e} >= {_WEAK_PE_LIMIT:g}; "
            "reduce rabi_per_amplitude")


def _response(n: int, dt: float, cfg: BlochConfig):
    """The kernels of `_weak_amplitudes` on an n-sample grid of step dt:
    each FFT bin's response (i cfg.rabi_per_amplitude / 2)/(i w - lam) and
    the homogeneous decay exp(lam (t - t0)) at each sample, with
    lam = i Delta - Gamma/2."""
    lam = 1j * cfg.detuning - 0.5 * cfg.gamma
    w = 2.0 * np.pi * np.fft.fftfreq(n, dt)
    return ((0.5j * cfg.rabi_per_amplitude) / (1j * w - lam),
            np.exp(lam * dt * np.arange(n)))


def _weak_amplitudes(spectra: np.ndarray, response,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Solve dc/dt = lam c + i Omega(t)/2 with c(t0) = 0 on the FFT grid.

    `spectra` holds envelope FFTs along the last axis; Omega is
    cfg.rabi_per_amplitude times the envelope, and `response` is
    `_response` of the grid and cfg.  Each bin is solved by
    C(w) = (i Omega(w)/2)/(i w - lam), which is the periodic solution;
    subtracting the homogeneous term c(t0) exp(lam (t - t0)) makes it the
    causal one.  Works in place: returns `spectra` holding c(t).  The
    homogeneous term of every row is written into `work`, a complex array
    shaped like `spectra` (fresh by default).
    """
    bins, decay = response
    spectra *= bins
    c = np.fft.ifft(spectra, axis=-1, out=spectra)
    # c(t0) spread over each row first, then times the decay: a product of
    # two broadcast operands would cost numpy's buffers for both
    homogeneous = np.empty_like(c) if work is None else work
    homogeneous[...] = c[..., :1]
    homogeneous *= decay
    c -= homogeneous
    return c


def _weak_pe(c: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """P_e = |c|^2 of the amplitudes `c` (`_weak_amplitudes`), time-major:
    (N, rows) for (rows, N) amplitudes, written into `out` and with `work`
    as the temporary (both (N, rows); fresh by default).  Raises
    ConvergenceError past the weak-drive limit."""
    # |c|^2 written time-major, with no transpose copy
    pe = np.square(c.real.T,
                   out=np.empty(c.shape[::-1]) if out is None else out)
    pe += np.square(c.imag.T, out=work)
    _check_weak(pe)
    return pe


def _exact_net(c: np.ndarray, field: np.ndarray, rabi: float,
               out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """dP_e/dt + gamma P_e = Im(c conj(Omega)), Omega = rabi * field, at each
    sample of the amplitudes `c` (rows along the last axis, like `field`),
    time-major like `_weak_pe`, with its `out` and `work`.  Exact: c solves
    dc/dt = lam c + i Omega/2 at the samples."""
    net = np.multiply(c.imag.T, field.real.T,
                      out=np.empty(c.shape[::-1]) if out is None else out)
    net -= np.multiply(c.real.T, field.imag.T, out=work)
    net *= rabi
    return net


def integrate_weak_bloch(env: SampledEnvelope, cfg: BlochConfig) -> ExcitationRecord:
    """Weak-drive excitation of one envelope, on the envelope's own grid."""
    c = _weak_amplitudes(np.fft.fft(env.samples),
                         _response(env.samples.size, env.dt, cfg))
    pe = _weak_pe(c)
    net = _exact_net(c, env.samples, cfg.rabi_per_amplitude)
    return ExcitationRecord(t0=env.t0, dt=env.dt, gamma=cfg.gamma, pe=pe,
                            up_flow=np.maximum(net, 0.0),
                            coh_down_flow=np.maximum(-net, 0.0))


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


@functools.lru_cache(maxsize=64)  # a model block scans the same few sizes
def _chunk_rows(m: int) -> int:
    """The chunk length C with which the two-level scan of `_backward_scan`
    solves m rows in the fewest Python steps, (C - 1) + m // C + m % C
    (31 for 1,023 rows, 17 for 511, 4 for 16).  At C = isqrt(m) + 1 each
    term is at most isqrt(m), so no C above 3 isqrt(m) + 1 can do
    better."""
    c = np.arange(1, min(m, 3 * math.isqrt(m) + 1) + 1)
    return int(c[np.argmin(c - 1 + m // c + m % c)])


def _chunks(x: np.ndarray, start: int, size: int) -> np.ndarray:
    """Samples `start:` of `x` (time on axis -2) as a (..., chunks, size,
    columns) view; splitting an axis never copies, so writes to it land in
    `x`."""
    k = (x.shape[-2] - start) // size
    return x[..., start:, :].reshape(*x.shape[:-2], k, size, x.shape[-1])


def _chunk_major(x: np.ndarray) -> np.ndarray:
    """The (..., chunks, size, columns) view `x` as (size, chunks, ...,
    columns), a view too."""
    return x.transpose(x.ndim - 2, x.ndim - 3, *range(x.ndim - 3),
                       x.ndim - 1)


def _backward_scan(f: np.ndarray, b: np.ndarray,
                   work: np.ndarray | None = None):
    """Solve f_n = a_n + b_n f_{n+1} backward along axis -2, in place: `f`
    holds a_n in samples :-1 and the end value in its last sample; `b` has
    one sample fewer and is left as it was.  The chunk-major copies of b
    and f go to the front of `work`, a flat float array of at least
    2 b.size (fresh by default).

    A two-level scan.  The samples after the first m % C fall into chunks
    of C = `_chunk_rows(m)`, all solved at once from a zero end value on
    the chunk-major copies; that leaves each row of the b copy holding its
    product of b to its chunk's end.  A loop over one row per chunk
    carries the true value after each chunk back from the end, one pass
    adds b * carry to every chunk row and the copy of f goes back into f,
    and the leading samples take plain steps from the first chunk's start.
    """
    size = _chunk_rows(b.shape[-2])
    head = b.shape[-2] % size
    fc, bc = _chunks(f[..., :-1, :], head, size), _chunks(b, head, size)
    # within chunks, row j of every chunk at once, on copies that hold
    # those rows side by side: on rows a chunk apart each ufunc call
    # iterates row by row and costs several times as much
    rows = _chunk_major(bc)
    if work is None:
        work = np.empty(2 * rows.size)
    b_rows, f_rows = work[:2 * rows.size].reshape(2, *rows.shape)
    b_rows[...] = rows
    f_rows[...] = _chunk_major(fc)
    step = np.empty(f_rows.shape[1:])
    for f_j, f_next, b_j, b_next in zip(f_rows[-2::-1], f_rows[::-1],
                                        b_rows[-2::-1], b_rows[::-1]):
        f_j += np.multiply(b_j, f_next, out=step)
        b_j *= b_next
    # carry[c]: the true value at chunk c's first row, carry[-1] the end
    # value; chunk c's rows then add b * carry[c + 1]
    carry = np.empty((f_rows.shape[1] + 1, *f_rows.shape[2:]))
    carry[-1] = f[..., -1, :]
    for start, prod, here, after in zip(f_rows[0, ::-1], b_rows[0, ::-1],
                                        carry[-2::-1], carry[::-1]):
        np.add(start, np.multiply(prod, after, out=here), out=here)
    f_rows += np.multiply(b_rows, carry[1:], out=b_rows)
    _chunk_major(fc)[...] = f_rows
    row = carry[0]  # spent: scratch for the leading samples
    for n in range(head - 1, -1, -1):
        f[..., n, :] += np.multiply(b[..., n, :], f[..., n + 1, :], out=row)


# a gain step divides by P_e, floored per column at this fraction of the
# column's peak: P_e near rounding level would blow g up
_GAIN_FLOOR = 1e-12
# the other two samples of the cubic through net at a crossing step, from
# the step's start, for a step first, inside or last in its 4 samples
_CUBIC_NODES = np.array([[2, 3], [-1, 2], [-2, -1]])
_ROOT_TOL = 1e-15
_ROOT_ITERATIONS = 100  # bisection alone gets there in 50


def _cubic_root(y0, y1, alpha, beta):
    """The root in [0, 1] of q(s) = y0 (1 - s) + y1 s + s (s - 1)(alpha +
    beta s), where y1 >= 0 > y0 or y0 >= 0 > y1: Newton from the secant
    root, bisecting the bracket whenever a step leaves it, until a step is
    below _ROOT_TOL.  A root stops moving once it has converged, so it does
    not depend on the others."""
    sign = np.where(y1 >= 0.0, 1.0, -1.0)  # q rises across the root
    y0, y1, alpha, beta = y0 * sign, y1 * sign, alpha * sign, beta * sign
    s = y0 / (y0 - y1)
    lo, hi = np.zeros_like(s), np.ones_like(s)
    active = np.ones(s.shape, bool)
    for _ in range(_ROOT_ITERATIONS):
        if not active.any():
            break
        k, m = alpha + beta * s, s * s - s
        w = y0 * (1.0 - s) + y1 * s + m * k  # exact at both ends
        dw = y1 - y0 + (2.0 * s - 1.0) * k + m * beta
        below = w < 0.0
        np.copyto(lo, s, where=below)
        np.copyto(hi, s, where=~below)
        step = np.divide(w, dw, out=np.full_like(w, np.inf), where=dw != 0.0)
        done = np.abs(step) <= _ROOT_TOL
        new = s - step
        # a converged step may land on the bracket end that s just became
        np.copyto(new, 0.5 * (lo + hi),
                  where=~(done | ((new > lo) & (new < hi))))
        np.copyto(s, new, where=active)
        active &= ~done & (hi - lo > _ROOT_TOL)
    return s


def _crossing_steps(pe, slope, net, area, floor, steps, h, gamma):
    """(a, b) of the steps on which net changes sign, indexed by `steps`
    (leading indices, step rows, columns): net crosses zero at the root of
    the cubic through it at the step's ends and two samples beside them,
    P_e there is the cubic Hermite value, and the gain and removal parts on
    either side of the root compose into one step.  `slope` holds P_e' at
    each step's two ends and `area` each step's Hermite integral of P_e,
    both gathered per step."""
    *lead, rows, cols = steps
    after = (*lead, rows + 1, cols)
    y0, y1 = net[steps], net[after]
    e = _CUBIC_NODES[rows - np.clip(rows - 1, 0, net.shape[-2] - 4)]
    # alpha + beta e at the two other samples, from q(e) there
    d = net[(*(i[:, None] for i in lead), rows[:, None] + e, cols[:, None])]
    d -= y0[:, None] * (1 - e) + y1[:, None] * e
    d /= e * (e - 1)
    beta = (d[:, 1] - d[:, 0]) / (e[:, 1] - e[:, 0])
    s = _cubic_root(y0, y1, d[:, 0] - beta * e[:, 0], beta)
    # the Hermite cubic's value at the root and its integral up to it, from
    # P_n, h P'_n, P_{n+1} and h P'_{n+1}
    ends = (pe[steps], h * slope[0], pe[after], h * slope[1])
    s2, s3, s4 = s * s, s ** 3, s ** 4
    at_root = sum(w * y for w, y in zip(
        (2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, 3 * s2 - 2 * s3, s3 - s2),
        ends))
    before = h * sum(w * y for w, y in zip(
        (s - s3 + s4 / 2, s2 / 2 - 2 * s3 / 3 + s4 / 4, s3 - s4 / 2,
         s4 / 4 - s3 / 3), ends))
    # removal, then gain after the root (y1 >= 0), or gain, then removal
    into = y1 >= 0.0
    # P_e falls across the removal part, so at the root it lies in
    # [0, P_n] when the removal comes first and at or above P_{n+1} when it
    # comes last; the cubic can break this where P_e nearly vanishes (the
    # 0-pi flip) or changes by 1e3 in a step, and g would leave [0, P_e]
    np.clip(at_root, np.where(into, 0.0, ends[2]),
            np.where(into, ends[0], np.inf), out=at_root)
    b = (np.where(into, at_root, ends[0])
         / np.maximum(np.where(into, ends[2], at_root), floor[(*lead, cols)])
         * np.exp(-gamma * h * np.where(into, 1.0 - s, s)))
    # the removal part: P_e's fall less its decay
    removal = np.where(into, ends[0] - at_root - gamma * before,
                       at_root - ends[2] - gamma * (area - before))
    return np.where(into, removal, b * removal), b


# a step's earlier and later samples along the time axis of `_g_form`
_EARLIER = np.s_[..., :-1, :]
_LATER = np.s_[..., 1:, :]


def _g_form(pe: np.ndarray, net: np.ndarray, h: float, gamma: float,
            work: np.ndarray | None = None):
    """g = P_e f_coh at each sample (time on axis -2, columns on the last
    axis, any leading axes holding more columns): the excitation present
    then that will leave by coherent return; returns (g, slope), slope
    holding the exact P_e' = net - gamma P_e at the first and last samples.
    g and the recurrence's b are views of the last 2 pe.size of `work`, a
    flat float array of at least 4 pe.size (fresh by default); the scan's
    copies go to its front once pe and net are spent, so they may live
    there.

    g obeys g' = net where net < 0 (coherent removal) and
    g' = (net / P_e) g where net >= 0 (gain, where f_coh decays backward at
    gamma), from g(end) = 0: the recurrence g_n = a_n + b_n g_{n+1},
    solved by `_backward_scan`.  A removal step has
    a = -(P_{n+1} - P_n) - gamma int P_e, by the cubic Hermite rule on P_e
    and its exact slope, and b = 1; a gain step has a = 0 and
    b = (P_n / P_{n+1}) exp(-gamma h), exactly; a step on which net
    changes sign is split at its root (`_crossing_steps`).  The slope and
    the Hermite integrals live in g's and b's storage until the end and
    crossing samples have been gathered from them.  Every operation is per
    column, and so is the floor of the gain divisor.
    """
    size, shape = pe.size, pe[_EARLIER].shape  # the samples', the steps'
    if work is None:
        work = np.empty(4 * size)
    g = work[-2 * size:-size].reshape(pe.shape)
    b = work[-size:][:math.prod(shape)].reshape(shape)
    gain = net >= 0.0
    # np.nonzero of a mask costs ten times this
    steps = np.unravel_index(
        np.flatnonzero(gain[_EARLIER] != gain[_LATER]), shape)
    *lead, rows, cols = steps
    slope = np.multiply(pe, -gamma, out=g)
    slope += net
    crossing_slope = slope[steps], slope[(*lead, rows + 1, cols)]
    end_slope = slope[..., [0, -1], :]
    # the Hermite integral of each step, (P_n + P_{n+1}) h / 2 plus
    # (P'_n - P'_{n+1}) h^2 / 12, in b
    area = np.subtract(slope[_EARLIER], slope[_LATER], out=b)
    area *= h * h / 12.0
    # the slope is spent but for its gathered samples
    trapezoid = np.add(pe[_EARLIER], pe[_LATER], out=g[_EARLIER])
    trapezoid *= 0.5 * h
    area += trapezoid
    crossing_area = area[steps]
    a = np.subtract(pe[_EARLIER], pe[_LATER], out=g[_EARLIER])
    a -= np.multiply(area, gamma, out=area)
    g[..., -1, :] = 0.0
    peak = pe.max(axis=-2)
    floor = np.where(peak > 0.0, _GAIN_FLOOR * peak, 1.0)
    np.maximum(pe[_LATER], floor[..., None, :], out=b)
    np.divide(pe[_EARLIER], b, out=b)
    b *= math.exp(-gamma * h)
    np.copyto(a, 0.0, where=gain[_LATER])
    np.copyto(b, 1.0, where=~gain[_LATER])
    a[steps], b[steps] = _crossing_steps(pe, crossing_slope, net,
                                         crossing_area, floor, steps, h,
                                         gamma)
    _backward_scan(g, b, work)
    return g, end_slope


def fate_fractions(rec: ExcitationRecord) -> np.ndarray:
    """f_coh(t): probability that excitation present at each of the record's
    times ends in coherent return, g / P_e (0 where P_e is 0) held in
    [0, 1].  The record needs at least 4 samples."""
    if rec.pe.size < 4:
        raise ConfigError(
            f"fate_fractions needs >= 4 samples, got {rec.pe.size}")
    net = rec.up_flow - rec.coh_down_flow
    g = _g_form(rec.pe[:, None], net[:, None], rec.dt, rec.gamma)[0][:, 0]
    f = np.divide(g, rec.pe, out=np.zeros_like(g), where=rec.pe > 0.0)
    return np.clip(f, 0.0, 1.0, out=f)
