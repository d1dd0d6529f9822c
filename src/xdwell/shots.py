"""Synthetic shot generator: phase traces with click flags and photon counts.

Each 576-ns shot holds 36 probe-phase samples.  The generator embeds the
true per-photon dwell contributions (via the cross-phase-shift template),
Poisson photon statistics with binomial transmission/detection thinning,
dark counts, cubic background drift, a damped-oscillation spurious
correlation, shared proportional noise, and white phase noise.

Campaigns are deterministic and order independent: shots are produced in
fixed-size batches, each drawn from its own SFC64 stream keyed by
(seed, campaign, batch index) through a `SeedSequence`, so any parallelism
width yields identical output and no two keys share a stream.
"""

from __future__ import annotations

import dataclasses
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import shotfile
from .errors import ConfigError

__all__ = [
    "ExperimentConfig",
    "XpsTemplate",
    "CampaignSummary",
    "xps_template",
    "xps_template_curve",
    "iter_batches",
    "run_campaign",
    "anchored_phi_atom",
    "tau0_per_photon",
    "expected_click_rate",
    "BATCH_SIZE",
]

# One batch size for the whole campaign: shots are generated and written
# here, and read back by `shotfile.iter_shot_batches`, in batches of 4,096
# (1.2 MB of phases); the L2 and thread-scaling reasons are at
# `shotfile.BATCH_SIZE`.
BATCH_SIZE = shotfile.BATCH_SIZE

# numpy's largest Poisson mean (`Generator.poisson` raises above it)
_POISSON_LAM_MAX = (np.iinfo(np.int64).max
                    - 10.0 * np.sqrt(np.iinfo(np.int64).max))

# phi_0 anchor: -20.0 urad per photon at a probe detuning of -2*pi*5.6 MHz
_ANCHOR_PHI0 = -20.0e-6
_ANCHOR_DETUNING = -2.0 * np.pi * 5.6e6


@dataclass
class ExperimentConfig:
    """Everything needed to synthesize one campaign of shots."""

    mean_photons: float = 34.0
    p_transmit: float = 0.4019
    eta_detect: float = 0.0212
    dark_prob: float = 0.01
    phi_atom: float | None = None  # rad per excited atom; anchored if None
    probe_detuning: float = _ANCHOR_DETUNING  # rad/s
    tau_sp: float = 26.5e-9
    sigma_t: float = 10e-9  # signal pulse intensity rms
    shot_len: float = 576e-9
    n_samples: int = 36
    sample_dt: float = 16e-9
    arrival_index: int = 11  # pulse enters at ~175 ns
    meas_bandwidth: float = 25e6  # Hz, single pole
    phase_noise_rms: float = 0.15  # rad per sample
    drift: tuple = (3e-3, 3e-3, 2e-3, 2e-3)  # cubic coefficient RMS, rad
    # damped-cosine spurious background correlated with the shared noise
    osc_amplitude: float = 0.0  # rad
    osc_period: float = 500e-9  # s
    osc_damping: float = 400e-9  # s (1/e time)
    osc_eps_coupling: float = 1.0  # weight of the shared fluctuation
    prop_noise_s: float = 0.0
    od_coupling: float = 0.0  # exponent coupling of the shared noise into P_T
    tauT_frac: float = 0.77  # injected tau_T / tau_0
    tauL_frac: float = 0.9  # injected tau_L / tau_sp

    def __post_init__(self):
        self.validate()
        if self.phi_atom is None:
            self.phi_atom = anchored_phi_atom(self)

    def validate(self):
        numbers = [(f.name, getattr(self, f.name))
                   for f in dataclasses.fields(self)
                   if f.name != "drift"]
        numbers += [(f"drift[{i}]", v) for i, v in enumerate(self.drift)]
        for name, v in numbers:
            if v is not None and not np.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        for name in ("p_transmit", "eta_detect", "dark_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.mean_photons < 0:
            raise ConfigError("mean_photons must be >= 0")
        for name in ("tau_sp", "sigma_t", "sample_dt", "meas_bandwidth",
                     "osc_period", "osc_damping"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.n_samples * self.sample_dt > self.shot_len * (1.0 + 1e-12):
            raise ConfigError("n_samples * sample_dt must not exceed shot_len")
        if not 0 <= self.arrival_index < self.n_samples:
            raise ConfigError("arrival_index out of range")
        if not 0.05 <= self.phase_noise_rms <= 0.5:
            raise ConfigError(
                f"phase_noise_rms must be in [0.05, 0.5] rad, got "
                f"{self.phase_noise_rms}")
        if len(self.drift) != 4:
            raise ConfigError("drift must hold 4 coefficient scales")
        if self.prop_noise_s < 0:
            raise ConfigError("prop_noise_s must be >= 0")
        # a shot's Poisson mean is mean_photons * (1 + eps), with eps the
        # shared fluctuation of rms prop_noise_s; 10 rms never occurs
        peak = self.mean_photons * (1.0 + 10.0 * self.prop_noise_s)
        if peak > _POISSON_LAM_MAX:
            raise ConfigError(
                f"mean_photons * (1 + 10 * prop_noise_s) must be at most "
                f"{_POISSON_LAM_MAX:.6g}, numpy's largest Poisson mean; "
                f"mean_photons = {self.mean_photons:g} gives {peak:.6g}")
        if not 0.0 <= self.tauT_frac * self.p_transmit < 1.0:
            raise ConfigError("tauT_frac * p_transmit must be in [0, 1)")
        if self.tauL_frac < 0:
            raise ConfigError("tauL_frac must be >= 0")
        if self.mean_photons > 0:
            rate = expected_click_rate(self)
            if not 0.05 <= rate <= 0.6:
                warnings.warn(
                    f"expected click rate {rate:.3f} is far from the "
                    "documented 0.1-0.5 operating range")

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class XpsTemplate:
    """Peak-normalized cross-phase-shift shape on the 36 sample points."""

    samples: np.ndarray
    area: float  # seconds; sum(samples) * sample_dt, the dwell normalization
    arrival_index: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if abs(s.max() - 1.0) > 1e-12:
            raise ConfigError("template must be peak-normalized to 1")
        if np.any(s[: self.arrival_index] != 0.0):
            raise ConfigError("template must be zero before pulse arrival")
        if s[-1] > 0.05:
            raise ConfigError("template must decay below 0.05 by the last sample")


@dataclass(frozen=True)
class CampaignSummary:
    n_shots: int
    click_rate: float
    mean_dwell: float | None
    mean_transmitted: float | None
    digest: str
    path: str


def expected_click_rate(cfg: ExperimentConfig) -> float:
    """Thinned-Poisson click probability including dark counts."""
    p_signal = -np.expm1(-cfg.eta_detect * cfg.p_transmit * cfg.mean_photons)
    return float(1.0 - (1.0 - p_signal) * (1.0 - cfg.dark_prob))


def tau0_per_photon(cfg: ExperimentConfig) -> float:
    """Mean dwell (seconds) caused by one incident photon, from the injected
    per-photon fractions; solves the self-consistent decomposition
    tau0 = P_L * tauL_frac * tau_sp + P_T * tauT_frac * tau0."""
    return _tau0(cfg, cfg.tauT_frac, cfg.tauL_frac)


def _tau0(cfg: ExperimentConfig, tauT_frac: float, tauL_frac: float) -> float:
    p_l = 1.0 - cfg.p_transmit
    return p_l * tauL_frac * cfg.tau_sp / (1.0 - cfg.p_transmit * tauT_frac)


_TEMPLATE_DT = 0.25e-9


def xps_template_curve(cfg: ExperimentConfig):
    """Un-normalized template on a `_TEMPLATE_DT` grid: unit-area Gaussian
    pulse intensity convolved with the lifetime decay (DC gain tau_sp), then
    low-passed at the measurement bandwidth (DC gain 1)."""
    n = int(round(cfg.shot_len / _TEMPLATE_DT))
    t = _TEMPLATE_DT * np.arange(n)
    center = cfg.arrival_index * cfg.sample_dt + 1.5 * cfg.sigma_t
    intensity = np.exp(-0.5 * ((t - center) / cfg.sigma_t) ** 2)
    intensity /= intensity.sum() * _TEMPLATE_DT
    b_life = np.exp(-_TEMPLATE_DT / cfg.tau_sp)
    curve = _first_order_filter(cfg.tau_sp * (1.0 - b_life), b_life, intensity)
    b_lp = np.exp(-2.0 * np.pi * cfg.meas_bandwidth * _TEMPLATE_DT)
    curve = _first_order_filter(1.0 - b_lp, b_lp, curve)
    return t, curve


def _first_order_filter(b0: float, a: float, x: np.ndarray) -> np.ndarray:
    """y[n] = b0 x[n] + a y[n-1] from rest: scipy.signal.lfilter([b0],
    [1, -a], x) in its operation order, so the two agree bit for bit."""
    b0, a = float(b0), float(a)
    y, prev = [], 0.0
    for xn in x.tolist():
        prev = b0 * xn + a * prev
        y.append(prev)
    return np.array(y)


def xps_template(cfg: ExperimentConfig) -> XpsTemplate:
    """Template sampled at the 36 shot sample points, peak-normalized, gated
    to zero before the pulse-arrival sample."""
    t_fine, curve = xps_template_curve(cfg)
    t_samp = cfg.sample_dt * np.arange(cfg.n_samples)
    values = np.interp(t_samp, t_fine, curve)
    values[: cfg.arrival_index] = 0.0
    values /= values.max()
    area = float(values.sum() * cfg.sample_dt)
    return XpsTemplate(samples=values, area=area, arrival_index=cfg.arrival_index)


def _drift_basis(cfg: ExperimentConfig) -> np.ndarray:
    t = cfg.sample_dt * np.arange(cfg.n_samples)
    x = 2.0 * t / t[-1] - 1.0
    return np.stack([np.ones_like(x), x, x**2, x**3])


def _osc_shape(cfg: ExperimentConfig) -> np.ndarray:
    t = cfg.sample_dt * np.arange(cfg.n_samples)
    return np.cos(2.0 * np.pi * t / cfg.osc_period) * np.exp(-t / cfg.osc_damping)


def anchored_phi_atom(cfg: ExperimentConfig) -> float:
    """Default probe phase per excited atom.

    Anchored so that the per-photon peak phase equals -20.0 urad at a probe
    detuning of -5.6 MHz, with the odd dispersive dependence x/(1+x^2) on
    the probe detuning.
    """
    template = xps_template(cfg)  # reads no phi_atom, which may be None
    tau0 = tau0_per_photon(cfg)
    gamma = 1.0 / cfg.tau_sp

    def shape(detuning):
        x = 2.0 * detuning / gamma
        return x / (1.0 + x * x)

    scale = _ANCHOR_PHI0 / shape(_ANCHOR_DETUNING)
    phi0_target = scale * shape(cfg.probe_detuning)
    if tau0 == 0.0:
        # null campaign: keep the conversion of the default fractions
        tau0 = _tau0(cfg, 0.77, 0.9)
    if tau0 == 0.0:
        raise ConfigError("p_transmit = 1 leaves phi_atom without an anchor "
                          "(no photon is lost); set phi_atom")
    return float(phi0_target * template.area / tau0)


def _basis(cfg: ExperimentConfig, template: XpsTemplate) -> np.ndarray:
    """The (k, n_samples) shapes whose sum, weighted by a shot's k
    coefficients from `_noise_free_coefficients`, is its noise-free phase
    trace: the 4 cubic drift rows, the oscillation row when
    `osc_amplitude` is not 0, and the template row."""
    rows = [_drift_basis(cfg)]
    if cfg.osc_amplitude != 0.0:
        rows.append(_osc_shape(cfg)[None])
    rows.append(template.samples[None])
    return np.concatenate(rows)


def _calibration_basis(cfg: ExperimentConfig,
                       template: XpsTemplate) -> np.ndarray:
    """The rows of a calibration batch's sums (`_calibration_coefficients`):
    first the shapes of its q iid standard normal coefficients, scaled by
    their rms (the 4 cubic drift rows, and the oscillation row for its own
    g when `osc_amplitude` is not 0), then the shapes of its known
    columns (the oscillation row for its part A * kappa * eps, and the
    template row)."""
    basis = _basis(cfg, template)
    scales = np.append(cfg.drift, cfg.osc_amplitude)[:len(basis) - 1]
    return np.concatenate([basis[:-1] * scales[:, None], basis[4:]])


# per-thread (BATCH_SIZE, n_samples) buffer for the full-size terms that
# `_noise_free_batch` and `_generate_batch` add into a shot campaign's
# phases (a calibration batch forms no rows, so only the shot path uses
# it); one reused buffer instead of fresh temporaries, which the allocator
# hands back to the OS and faults in again on every batch: fresh
# temporaries made a one-worker `run_campaign` of 500,000 default shots
# take 57,386 minor page faults against 1,033
_scratch = threading.local()


def _scratch_rows(m: int, n_samples: int) -> np.ndarray:
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape[1] != n_samples:
        buf = _scratch.buf = np.empty((BATCH_SIZE, n_samples))
    return buf[:m]


def _fluctuated(cfg: ExperimentConfig, eps: np.ndarray):
    """(lam, p_t): each shot's mean photon number and transmission
    probability under its shared fluctuation eps."""
    lam = np.clip(cfg.mean_photons * (1.0 + eps), 0.0, None)
    p_t = np.clip(cfg.p_transmit ** (1.0 + cfg.od_coupling * eps), 0.0, 1.0)
    return lam, p_t


def _dwell(cfg: ExperimentConfig, n_lost, n_t):
    """Injected dwell (s) of shots with these lost and transmitted photon
    counts."""
    return (n_lost * (cfg.tauL_frac * cfg.tau_sp)
            + n_t * (cfg.tauT_frac * tau0_per_photon(cfg)))


def _noise_free_coefficients(cfg: ExperimentConfig, template: XpsTemplate,
                             rng: np.random.Generator, m: int):
    """m shots without their white phase noise, as the coefficients of
    their rows on `_basis`: every draw of `_generate_batch` that comes
    before that noise, in the same order.

    Returns (coeffs, clicks, counts): coeffs is (m, k), the 4 drift
    coefficients, the oscillation amplitude when there is one, and
    phi_atom * dwell / area; counts is (n, n_t, n_det, dwell)."""
    eps = cfg.prop_noise_s * rng.standard_normal(m)
    lam, p_t = _fluctuated(cfg, eps)
    n = rng.poisson(lam)
    n_t = rng.binomial(n, p_t)
    n_det = rng.binomial(n_t, cfg.eta_detect)
    dark = rng.random(m) < cfg.dark_prob
    clicks = (n_det > 0) | dark
    dwell = _dwell(cfg, n - n_t, n_t)

    k = 6 if cfg.osc_amplitude != 0.0 else 5
    coeffs = np.empty((m, k))
    np.multiply(rng.standard_normal((m, 4)), np.asarray(cfg.drift),
                out=coeffs[:, :4])
    if cfg.osc_amplitude != 0.0:
        g = rng.standard_normal(m)
        coeffs[:, 4] = cfg.osc_amplitude * (g + cfg.osc_eps_coupling * eps)
    coeffs[:, -1] = cfg.phi_atom * dwell / template.area
    return coeffs, clicks, (n, n_t, n_det, dwell)


def _calibration_coefficients(cfg: ExperimentConfig, template: XpsTemplate,
                              rng: np.random.Generator, m: int):
    """m calibration shots as their clicks and the known columns of their
    coefficients on `_calibration_basis`; the normal columns (the drift
    and the oscillation's own g) are left to exact per-bin sums.

    Given eps, the lost, transmitted-undetected and detected photons are
    independent Poissons of means lam (1 - p_t), lam p_t (1 - eta) and
    lam p_t eta: the law of `_noise_free_coefficients`' Poisson and two
    binomials, drawn without the binomials.

    Returns (known, clicks): known is (m, p), the oscillation's
    A * kappa * eps when `osc_amplitude` is not 0, then phi_atom * dwell
    / area."""
    eps = cfg.prop_noise_s * rng.standard_normal(m)
    lam, p_t = _fluctuated(cfg, eps)
    # the means are scaled in place, so a batch holds few m-long arrays
    mean = np.subtract(1.0, p_t)
    n_lost = rng.poisson(np.multiply(mean, lam, out=mean))
    lam *= p_t
    del p_t
    n_det = rng.poisson(np.multiply(lam, cfg.eta_detect, out=mean))
    del mean
    n_t = rng.poisson(np.multiply(lam, 1.0 - cfg.eta_detect, out=lam))
    del lam
    clicks = (n_det > 0) | (rng.random(m) < cfg.dark_prob)
    n_t += n_det
    del n_det
    known = np.empty((m, 2 if cfg.osc_amplitude != 0.0 else 1))
    if cfg.osc_amplitude != 0.0:
        np.multiply(eps, cfg.osc_amplitude * cfg.osc_eps_coupling,
                    out=known[:, 0])
    del eps
    known[:, -1] = _dwell(cfg, n_lost, n_t)
    known[:, -1] *= cfg.phi_atom / template.area
    return known, clicks


def _noise_free_batch(cfg: ExperimentConfig, template: XpsTemplate,
                      basis: np.ndarray, rng: np.random.Generator, m: int):
    """m shots without their white phase noise, built from their
    coefficients on `basis`; returns (phases, clicks, counts), with the
    counts (n, n_t, n_det, dwell) of `_noise_free_coefficients`.

    The drift rows come from one matmul and the other terms are added one
    at a time, the order that fixes the shot-file bytes.  The phases are a
    fresh array; the terms added into them pass through this thread's
    scratch buffer."""
    coeffs, clicks, counts = _noise_free_coefficients(cfg, template, rng, m)
    phases = coeffs[:, :4] @ basis[:4]
    term = _scratch_rows(m, cfg.n_samples)
    for j in range(4, len(basis)):
        phases += np.multiply.outer(coeffs[:, j], basis[j], out=term)
    return phases, clicks, counts


def _generate_batch(cfg: ExperimentConfig, template: XpsTemplate,
                    basis: np.ndarray, rng: np.random.Generator, m: int):
    """Vectorized generation of m shots; returns (phases, clicks, counts).

    The noise-free shots of `_noise_free_batch`, then white phase noise
    drawn from the same stream into this thread's scratch buffer and added:
    the draw order and addition order that fix the shot-file bytes."""
    phases, clicks, counts = _noise_free_batch(cfg, template, basis, rng, m)
    term = _scratch_rows(m, cfg.n_samples)
    rng.standard_normal(out=term)
    term *= cfg.phase_noise_rms
    phases += term
    return phases, clicks, counts


def _batch_rng(seed: int, campaign: int, batch: int) -> np.random.Generator:
    # spawn_key pads the seed to 128 bits before the key words, so a seed
    # above 2**32 cannot spell another seed's (campaign, batch) key, as a
    # flat SeedSequence([seed, campaign, batch]) would
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(campaign, batch))))


def _check_campaign(n_shots: int, seed: int):
    if not 1 <= n_shots < 2**64:  # the shot file's u64 count
        raise ConfigError(f"n_shots must be in [1, 2**64), got {n_shots}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


def _campaign_jobs(cfg: ExperimentConfig, template: XpsTemplate,
                   basis: np.ndarray, n_shots: int, seed: int, campaign: int,
                   batch_size: int = BATCH_SIZE):
    """The arguments (cfg, template, basis, rng, m) of `_generate_batch`
    and `estimator._binned_batch` for each batch of `batch_size` shots of
    a campaign, made as they are asked for, so that a long campaign holds
    no list of streams; every batch shares the one `basis`."""
    for b, start in enumerate(range(0, n_shots, batch_size)):
        yield (cfg, template, basis, _batch_rng(seed, campaign, b),
               min(batch_size, n_shots - start))


def _ordered_map(fn, jobs, workers: int):
    """Yield fn(*job) for each of `jobs`, in job order.

    At one worker every job runs in the calling thread.  Above one, the
    jobs run on a pool of that many threads (numpy releases the GIL in the
    RNG fills and the array arithmetic) with at most 2 * workers submitted
    and not yet yielded, so memory does not grow with the number of jobs.
    """
    if workers <= 1:
        for job in jobs:
            yield fn(*job)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for job in jobs:
            pending.append(pool.submit(fn, *job))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def iter_batches(cfg: ExperimentConfig, n_shots: int, seed: int,
                 workers: int = 1):
    """Yield (phases, clicks, counts) batches for a deterministic campaign;
    counts are the shots' (n, n_t, n_det, dwell) arrays: integer photon
    counts, and the injected dwell in seconds.

    Batch b of `BATCH_SIZE` shots draws from its own SFC64 stream keyed by
    (seed, 0, b), campaign 0 of `_campaign_jobs`, so no two seeds share a
    stream.  The batches come through `_ordered_map`: generated on
    `workers` threads, at most 2 * workers in flight, and yielded in batch
    order, so the output is the same at any worker count.
    """
    _check_campaign(n_shots, seed)
    template = xps_template(cfg)
    yield from _ordered_map(_generate_batch, _campaign_jobs(
        cfg, template, _basis(cfg, template), n_shots, seed, campaign=0),
        workers)


def run_campaign(cfg: ExperimentConfig, n_shots: int, seed: int, out_path,
                 with_truth: bool = True, workers: int = 1) -> CampaignSummary:
    """Generate a campaign into the shot-record file `out_path`.

    Deterministic for fixed (cfg, seed): identical inputs yield byte-identical
    files at any worker count, because every batch has its own keyed substream.
    An interrupted run leaves no file and keeps any earlier one.  The file
    holds no truth; `with_truth` adds the truth's means to the summary.
    """
    _check_campaign(n_shots, seed)  # before the file exists
    digest = shotfile.experiment_digest(cfg)
    n_click = n_transmitted = 0
    dwell_sum = 0.0
    with shotfile.ShotFileWriter(out_path, n_samples=cfg.n_samples,
                                 n_shots=n_shots, digest=digest) as writer:
        for phases, clicks, (_, n_t, _, dwell) in iter_batches(
                cfg, n_shots, seed, workers):
            n_click += int(clicks.sum())
            n_transmitted += int(n_t.sum())
            dwell_sum += float(dwell.sum())
            writer.append(phases, clicks)
    return CampaignSummary(
        n_shots=n_shots,
        click_rate=n_click / n_shots,
        mean_dwell=(dwell_sum / n_shots) if with_truth else None,
        mean_transmitted=(n_transmitted / n_shots) if with_truth else None,
        digest=digest.hex(),
        path=str(out_path),
    )
