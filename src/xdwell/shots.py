"""Synthetic shot generator: phase traces with click flags and truth metadata.

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


# per-thread (BATCH_SIZE, n_samples) buffer for the full-size terms that
# `_noise_free_batch` and `_generate_batch` add into the phases; one reused
# buffer instead of fresh temporaries, which the allocator hands back to
# the OS and faults in again on every batch: a buffer per batch made a
# 2-worker calibration of 4 x 200,000 shots about 40% slower, with 40
# times the minor page faults
_scratch = threading.local()


def _scratch_rows(m: int, n_samples: int) -> np.ndarray:
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape[1] != n_samples:
        buf = _scratch.buf = np.empty((BATCH_SIZE, n_samples))
    return buf[:m]


def _noise_free_batch(cfg: ExperimentConfig, template: XpsTemplate,
                      rng: np.random.Generator, m: int):
    """m shots without their white phase noise: every draw of
    `_generate_batch` that comes before that noise, in the same order;
    returns (phases, clicks, truth).

    The phases are a fresh array; the full-size terms added into them pass
    through this thread's scratch buffer."""
    eps = cfg.prop_noise_s * rng.standard_normal(m)
    lam = np.clip(cfg.mean_photons * (1.0 + eps), 0.0, None)
    n = rng.poisson(lam)
    p_t = np.clip(cfg.p_transmit ** (1.0 + cfg.od_coupling * eps), 0.0, 1.0)
    n_t = rng.binomial(n, p_t)
    n_det = rng.binomial(n_t, cfg.eta_detect)
    dark = rng.random(m) < cfg.dark_prob
    clicks = (n_det > 0) | dark

    tau0 = tau0_per_photon(cfg)
    dwell = (n - n_t) * (cfg.tauL_frac * cfg.tau_sp) + n_t * (cfg.tauT_frac * tau0)

    coeffs = rng.standard_normal((m, 4)) * np.asarray(cfg.drift)
    phases = coeffs @ _drift_basis(cfg)
    term = _scratch_rows(m, cfg.n_samples)
    if cfg.osc_amplitude != 0.0:
        g = rng.standard_normal(m)
        amp = cfg.osc_amplitude * (g + cfg.osc_eps_coupling * eps)
        phases += np.multiply.outer(amp, _osc_shape(cfg), out=term)
    phases += np.multiply.outer(cfg.phi_atom * dwell / template.area,
                                template.samples, out=term)
    truth = np.column_stack([n, n_t, n_det, dwell]).astype(np.float64)
    return phases, clicks, truth


def _generate_batch(cfg: ExperimentConfig, template: XpsTemplate,
                    rng: np.random.Generator, m: int):
    """Vectorized generation of m shots; returns (phases, clicks, truth).

    The noise-free shots of `_noise_free_batch`, then white phase noise
    drawn from the same stream into this thread's scratch buffer and added:
    the draw order and addition order that fix the shot-file bytes."""
    phases, clicks, truth = _noise_free_batch(cfg, template, rng, m)
    term = _scratch_rows(m, cfg.n_samples)
    rng.standard_normal(out=term)
    term *= cfg.phase_noise_rms
    phases += term
    return phases, clicks, truth


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
                   n_shots: int, seed: int, campaign: int):
    """The arguments (cfg, template, rng, m) of `_generate_batch` and
    `estimator._binned_batch` for each batch of a campaign, made as they
    are asked for, so that a long campaign holds no list of streams."""
    for b, start in enumerate(range(0, n_shots, BATCH_SIZE)):
        yield (cfg, template, _batch_rng(seed, campaign, b),
               min(BATCH_SIZE, n_shots - start))


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
    """Yield (phases, clicks, truth) batches for a deterministic campaign.

    Batch b of `BATCH_SIZE` shots draws from its own SFC64 stream keyed by
    (seed, 0, b), campaign 0 of `_campaign_jobs`, so no two seeds share a
    stream.  The batches come through `_ordered_map`: generated on
    `workers` threads, at most 2 * workers in flight, and yielded in batch
    order, so the output is the same at any worker count.
    """
    _check_campaign(n_shots, seed)
    yield from _ordered_map(_generate_batch, _campaign_jobs(
        cfg, xps_template(cfg), n_shots, seed, campaign=0), workers)


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
    n_click = 0
    dwell_sum = 0.0
    transmitted_sum = 0.0
    with shotfile.ShotFileWriter(out_path, n_samples=cfg.n_samples,
                                 n_shots=n_shots, digest=digest) as writer:
        for phases, clicks, truth in iter_batches(cfg, n_shots, seed, workers):
            n_click += int(clicks.sum())
            dwell_sum += float(truth[:, 3].sum())
            transmitted_sum += float(truth[:, 1].sum())
            writer.append(phases, clicks)
    return CampaignSummary(
        n_shots=n_shots,
        click_rate=n_click / n_shots,
        mean_dwell=(dwell_sum / n_shots) if with_truth else None,
        mean_transmitted=(transmitted_sum / n_shots) if with_truth else None,
        digest=digest.hex(),
        path=str(out_path),
    )
