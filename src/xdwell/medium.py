"""Two-level absorbing medium and linear spectral-domain pulse propagation.

The medium is a homogeneous Lorentzian line of peak (intensity) optical
depth a0 and decay rate Gamma.  Envelope samples use the convention that a
spectral component exp(+i*w*t) of the envelope sits at detuning
carrier_detuning + w from line centre; the causal field transfer for that
component over a depth fraction d is exp(-d*(a/2 + i*phi)).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

__all__ = [
    "MediumSpec",
    "PulseSpec",
    "SampledEnvelope",
    "gaussian_envelope",
    "lorentzian_od",
    "dispersion_phase",
    "field_transfer",
    "propagate_spectral",
    "od_grid_array",
    "transmission_probability",
]


@dataclass(frozen=True)
class MediumSpec:
    """Absorbing line: peak resonant OD and decay rate."""

    peak_od: float
    gamma: float  # rad/s

    def __post_init__(self):
        if self.peak_od < 0:
            raise ConfigError(f"peak_od must be >= 0, got {self.peak_od}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")

    @property
    def tau_sp(self) -> float:
        """Spontaneous lifetime in seconds (exactly 1/gamma)."""
        return 1.0 / self.gamma

    @classmethod
    def from_lifetime(cls, peak_od, tau_sp):
        if not tau_sp > 0:
            raise ConfigError(f"tau_sp must be > 0, got {tau_sp}")
        return cls(peak_od=peak_od, gamma=1.0 / tau_sp)

    def with_od(self, peak_od) -> "MediumSpec":
        return dataclasses.replace(self, peak_od=peak_od)


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian signal pulse; intensity_rms is the rms of the intensity profile."""

    intensity_rms: float  # seconds
    carrier_detuning: float = 0.0  # rad/s from line centre
    mean_photons: float = 1.0

    def __post_init__(self):
        if self.intensity_rms <= 0:
            raise ConfigError("intensity_rms must be > 0")
        if self.mean_photons <= 0:
            raise ConfigError(f"mean_photons must be > 0, got {self.mean_photons}")


_EDGE = 0.05  # share of a grid, both ends together, read for leakage
_SPAN_SIGMAS = 16.0  # gaussian_envelope's half-width before its tail


@dataclass(frozen=True)
class SampledEnvelope:
    """Complex field envelope on a uniform time grid.

    Samples carry square-root photon-flux units, so
    dt * sum(|samples|^2) is the pulse mean photon number.
    """

    t0: float
    dt: float
    samples: np.ndarray
    carrier_detuning: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size < 2:
            raise ConfigError("samples must be a 1-d array with >= 2 entries")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def photon_number(self) -> float:
        return float(self.dt * np.sum(np.abs(self.samples) ** 2))

    def edge_energy_fraction(self) -> float:
        """Fraction of |samples|^2 energy in the grid's outermost _EDGE."""
        p = np.abs(self.samples) ** 2
        total = p.sum()
        if total == 0:
            return 0.0
        k = max(1, int(round(_EDGE * p.size / 2.0)))
        return float((p[:k].sum() + p[-k:].sum()) / total)


def gaussian_envelope(
    pulse: PulseSpec,
    n_samples: int = 2048,
    tail: float = 0.0,
) -> SampledEnvelope:
    """Sample the Gaussian field envelope exp(-t^2/(4 sigma_t^2)).

    The grid spans [-16 sigma_t, +16 sigma_t + tail] (`_SPAN_SIGMAS`);
    `tail` buys extra room after the pulse, e.g. for lifetime decay.
    """
    s = pulse.intensity_rms
    lo, hi = -_SPAN_SIGMAS * s, _SPAN_SIGMAS * s + tail
    dt = (hi - lo) / n_samples
    t = lo + dt * np.arange(n_samples)
    amp = np.sqrt(pulse.mean_photons / (s * np.sqrt(2.0 * np.pi)))
    samples = amp * np.exp(-(t**2) / (4.0 * s**2)) + 0.0j
    return SampledEnvelope(t0=lo, dt=dt, samples=samples,
                           carrier_detuning=pulse.carrier_detuning)


def lorentzian_od(delta, medium: MediumSpec):
    """Intensity optical depth a(delta) = a0 / (1 + (2 delta/Gamma)^2)."""
    x = 2.0 * np.asarray(delta, dtype=float) / medium.gamma
    return medium.peak_od / (1.0 + x * x)


def dispersion_phase(delta, medium: MediumSpec):
    """Kramers-Kronig phase -(a0/2)(2 delta/Gamma)/(1 + (2 delta/Gamma)^2)."""
    x = 2.0 * np.asarray(delta, dtype=float) / medium.gamma
    return -(medium.peak_od / 2.0) * x / (1.0 + x * x)


def _transfer_exponent(delta, medium: MediumSpec):
    """a/2 + i phi at each detuning of `delta`: the field transfer over a
    depth fraction d is exp(-d (a/2 + i phi)) (`_transfer`)."""
    return (0.5 * lorentzian_od(delta, medium)
            + 1.0j * dispersion_phase(delta, medium))


def _transfer(exponent, depth_fraction, out: np.ndarray | None = None):
    """exp(-depth_fraction * exponent), broadcast, written into the complex
    array `out` (fresh by default)."""
    if out is None:
        out = np.empty(np.broadcast(depth_fraction, exponent).shape, complex)
    # the depths spread over the array first, then times the exponent and
    # exp in place: a product of two broadcast operands would cost numpy's
    # buffers for both
    out[...] = -np.asarray(depth_fraction)
    out *= exponent
    return np.exp(out, out=out)


def field_transfer(delta, medium: MediumSpec, depth_fraction: float = 1.0):
    """Complex field amplitude transfer over `depth_fraction` of the medium.

    `delta` and `depth_fraction` broadcast: a column of depth fractions
    against a row of detunings gives one row of transfers per depth;
    scalars give a scalar.
    """
    return _transfer(_transfer_exponent(delta, medium), depth_fraction)[()]


_INPUT_LEAK_TOL = 1e-6
_OUTPUT_LEAK_TOL = 1e-4


def _detunings(env: SampledEnvelope) -> np.ndarray:
    """Detuning from line centre of each FFT bin of the envelope, in rad/s."""
    w = 2.0 * np.pi * np.fft.fftfreq(env.samples.size, env.dt)
    return env.carrier_detuning + w


def propagate_spectral(env: SampledEnvelope, medium: MediumSpec,
                       depth_fraction: float = 1.0) -> SampledEnvelope:
    """Propagate an envelope through `depth_fraction` of the medium.

    FFT to the spectral domain, apply the causal Lorentzian transfer
    (absorption and dispersion both scaled by depth), and transform back.
    """
    if not 0.0 <= depth_fraction <= 1.0:
        raise ConfigError(f"depth_fraction must be in [0, 1], got {depth_fraction}")
    leak_in = env.edge_energy_fraction()
    if leak_in > _INPUT_LEAK_TOL:
        raise ConvergenceError(
            f"input envelope carries {leak_in:.2e} of its energy in the outermost "
            f"5% of the grid (limit {_INPUT_LEAK_TOL:g}); widen the window",
            achieved=leak_in,
        )
    out = np.fft.ifft(field_transfer(_detunings(env), medium, depth_fraction)
                      * np.fft.fft(env.samples))
    result = SampledEnvelope(t0=env.t0, dt=env.dt, samples=out,
                             carrier_detuning=env.carrier_detuning)
    leak_out = result.edge_energy_fraction()
    if leak_out > _OUTPUT_LEAK_TOL:
        raise ConvergenceError(
            f"propagated envelope carries {leak_out:.2e} of its energy in the "
            f"outermost 5% of the grid (limit {_OUTPUT_LEAK_TOL:g})",
            achieved=leak_out,
        )
    return result


def _spectral_sigma(pulse: PulseSpec) -> float:
    # rms of the spectral intensity density, in rad/s
    return 1.0 / (2.0 * pulse.intensity_rms)


# the rule spans +-9 spectral sigmas, where the density is 2.6e-18 of its
# peak; the node cap bounds memory (it is reached below sigma_t = 0.0022/gamma,
# 58 ps at tau_sp 26.5 ns)
_SPECTRAL_SPAN = 9.0
_SPECTRAL_MAX_NODES = 1 << 17
_SPECTRAL_TOL = 1e-6


def _spectral_average(pulse: PulseSpec, medium: MediumSpec, ods, f):
    """Average of f(a(delta)) over the pulse's Gaussian spectral intensity
    density, for the line `medium` at each peak OD of `ods`, in one array
    pass.

    `f` maps an (ods, nodes) array of local ODs a(delta), which it may
    overwrite, to an array of shape (..., ods, nodes), which is then
    weighted in place.  The rule is the uniform trapezoid rule in
    x = (delta - carrier)/sigma_w on [-9, 9], with step
    h <= min(1/8, gamma sigma_t/16): gamma sigma_t is the Lorentzian
    half-width in x units, so the step stays fine against the line at any
    bandwidth.  Returns (values, errors), both of shape (..., ods); an
    error is |T_h - T_2h|, with T_2h the same rule on every second node.
    """
    half = int(np.ceil(_SPECTRAL_SPAN / min(
        0.125, medium.gamma * pulse.intensity_rms / 16.0)))
    if 2 * half + 1 > _SPECTRAL_MAX_NODES:
        raise ConvergenceError(
            f"sigma_t={pulse.intensity_rms:g} s is too short against the "
            f"line: the spectral rule needs {2 * half + 1} nodes "
            f"(limit {_SPECTRAL_MAX_NODES})", achieved=2 * half + 1)
    x = np.linspace(-_SPECTRAL_SPAN, _SPECTRAL_SPAN, 2 * half + 1)
    line = lorentzian_od(pulse.carrier_detuning + _spectral_sigma(pulse) * x,
                         medium.with_od(1.0))
    # T_h weights: the density times h, halved at the two end nodes; twice
    # every second one are the T_2h weights, ends halved as well
    w = np.exp(-0.5 * x * x) * (_SPECTRAL_SPAN / half / np.sqrt(2.0 * np.pi))
    w[[0, -1]] *= 0.5
    # the local depths: the line filled into the rows, then scaled by the
    # OD column (an outer product costs numpy a buffer per broadcast
    # operand); the name is rebound to f's result so that they are freed
    values = np.empty((len(ods), line.size))
    values[:] = line
    values *= np.asarray(ods, dtype=float)[:, None]
    values = f(values)
    # the coarse sums first, one (ods, nodes) slab at a time: a product of
    # the strided, broadcast operands costs numpy's buffers as well; then
    # the fine weights go in place
    coarse = np.stack([(slab[:, ::2] * (2.0 * w[::2])).sum(axis=-1)
                       for slab in values.reshape(-1, *values.shape[-2:])])
    values *= w
    fine = values.sum(axis=-1)
    return fine, np.abs(fine - coarse.reshape(fine.shape))


def od_grid_array(medium: MediumSpec, od_grid=None) -> np.ndarray:
    """The peak ODs of `od_grid` (default: `medium.peak_od` alone) as an
    array; ConfigError unless they are non-empty, finite, >= 0 and strictly
    increasing."""
    ods = np.asarray([medium.peak_od] if od_grid is None else od_grid,
                     dtype=float)
    if (ods.ndim != 1 or ods.size == 0 or not np.all(np.isfinite(ods))
            or np.any(ods < 0) or np.any(np.diff(ods) <= 0)):
        raise ConfigError("od_grid must be non-empty, finite, >= 0 and "
                          f"strictly increasing, got {list(ods)}")
    return ods


def transmission_probability(pulse: PulseSpec, medium: MediumSpec,
                             od_grid=None):
    """Spectrally averaged transmission: integral of rho(delta) exp(-a(delta)).

    Computed by `_spectral_average` over the pulse's Gaussian spectral
    intensity density, independently of the time-domain propagation path.
    Returns a float at `medium.peak_od`, or one value per peak OD of
    `od_grid`, which `od_grid_array` checks; OD 0 gives exactly 1.
    """
    ods = od_grid_array(medium, od_grid)
    values, errors = _spectral_average(
        pulse, medium, ods, lambda a: np.exp(np.negative(a, out=a), out=a))
    if np.any(errors > _SPECTRAL_TOL):
        worst = float(errors.max())
        raise ConvergenceError(
            f"transmission rule reached abs error {worst:.2e} "
            f"(target {_SPECTRAL_TOL:g})",
            achieved=worst,
        )
    values[ods == 0] = 1.0
    return float(values[0]) if od_grid is None else values
