"""Post-selection estimator: binning, template fits, noise correction.

Shots are split into click / no-click bins; the per-sample difference
trace isolates the effect of a single transmitted photon.  Amplitudes are
extracted by weighted linear least squares against a cubic background
plus the cross-phase-shift template, mirroring the fit used on the
measured traces.  `analyze_file` and `run_calibration` run that chain
over a shot file and over bright calibration campaigns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import shotfile, shots
from .errors import ConfigError, ConvergenceError, DataFormatError
from .shots import ExperimentConfig, XpsTemplate

__all__ = [
    "RunningMoments",
    "BinnedTraces",
    "FitResult",
    "CombinedEstimate",
    "NoiseCalibration",
    "bin_and_average",
    "fit_phi0",
    "fit_transmitted",
    "calibrate_proportional_noise",
    "correct_phi_T",
    "combine_detunings",
    "analyze_file",
    "run_calibration",
]

MIN_BIN_POPULATION = 100


class RunningMoments:
    """Per-sample sums about a shift over all rows and over the click rows:
    one accumulator for a whole binning pass.

    `s1[0]` and `s2[0]` sum x - shift and (x - shift)**2 over all rows,
    `s1[1]` and `s2[1]` over the click rows; the no-click sums are their
    difference.  Unless set before, the shift is the first non-empty
    batch's mean, so the sums stay small and S2 - S1**2/n loses no
    precision to an offset.  `add_white_noise` adds to the sums what iid
    Gaussian noise on every row and sample would, without the rows, and
    `merge` adds sums made about another shift.
    """

    def __init__(self, width: int):
        self.count = 0
        self.n_click = 0
        self.shift = None
        self.s1 = np.zeros((2, width))
        self.s2 = np.zeros((2, width))

    def add_batch(self, x: np.ndarray, clicks):
        m = x.shape[0]
        if m == 0:
            return
        if self.shift is None:
            self.shift = x.mean(axis=0)
        weights = np.ones((2, m))
        weights[1] = np.asarray(clicks, dtype=bool)
        d = x - self.shift
        self.s1 += weights @ d
        self.s2 += weights @ np.square(d, out=d)
        self.count += m
        self.n_click += int(np.count_nonzero(weights[1]))

    def add_white_noise(self, sigma: float, rng: np.random.Generator):
        """Add iid N(0, sigma**2) noise on every summed row and sample to
        the sums, drawn exactly in distribution from `rng`: 3 draws per
        bin and sample instead of one per row and sample.

        Per bin (click, no-click) and sample, with k rows d about the shift
        and S1, S2 their sums, the noise w adds sigma*Sum(w) to S1 and
        2*sigma*Sum(d w) + sigma**2*Sum(w**2) to S2.  In the orthonormal
        basis {1/sqrt(k), (d - mean)/|d - mean|} of the rows those are
        A = sqrt(k) z1, B = (S1/sqrt(k)) z1 + sqrt(S2 - S1**2/k) z2 and
        C = z1**2 + z2**2 + chi2(k - 2), with z1, z2 standard normal.  A
        bin of one row has no second direction (B = S1 z1, C = z1**2), one
        of none gets nothing, and rounding below 0 of the conditional
        spread S2 - S1**2/k is taken as 0."""
        k = np.array([self.n_click, self.count - self.n_click])[:, None]
        s1 = np.stack([self.s1[1], self.s1[0] - self.s1[1]])
        s2 = np.stack([self.s2[1], self.s2[0] - self.s2[1]])
        z1, z2 = rng.standard_normal((2, *s1.shape))
        chi2 = rng.gamma(np.maximum(k - 2, 0) / 2.0, 2.0, size=s1.shape)
        n = np.maximum(k, 1)  # an empty bin's S1 is 0
        spread = np.sqrt(np.maximum(s2 - s1 * s1 / n, 0.0))
        a = np.sqrt(k) * z1
        b = s1 / np.sqrt(n) * z1 + (k >= 2) * spread * z2
        c = (k >= 1) * z1 * z1 + (k >= 2) * z2 * z2 + chi2
        d1, d2 = sigma * a, (2.0 * sigma) * b + sigma * sigma * c
        # rows: all = click + no-click, then click
        self.s1 += np.stack([d1[0] + d1[1], d1[0]])
        self.s2 += np.stack([d2[0] + d2[1], d2[0]])

    def merge(self, other: "RunningMoments"):
        """Add `other`'s sums into these, re-centred exactly from its shift
        onto this one: with d = other.shift - self.shift, its S1 and S2
        over n rows add S1 + n d and S2 + d (2 S1 + n d).  An empty
        `other` adds nothing, and an empty self takes `other`'s shift."""
        if other.shift is None:
            return
        if self.shift is None:
            self.shift = other.shift
        d = other.shift - self.shift
        n = np.array([other.count, other.n_click])[:, None]
        self.s1 += other.s1 + n * d
        self.s2 += other.s2 + d * (2.0 * other.s1 + n * d)
        self.count += other.count
        self.n_click += other.n_click


@dataclass(frozen=True)
class BinnedTraces:
    """Per-sample click minus no-click means and all-shot means, with their
    errors."""

    delta_phi: np.ndarray
    se_delta: np.ndarray
    n_click: int
    phi_all: np.ndarray
    se_all: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """Fitted template amplitude, its error and the fit's chi^2 per dof."""

    amplitude: float
    amplitude_se: float
    chi2_per_dof: float


@dataclass(frozen=True)
class CombinedEstimate:
    ratio: float
    se: float


@dataclass(frozen=True)
class NoiseCalibration:
    s2: float
    s2_se: float
    upper_bound: bool  # fitted s2 was negative; value is consistent with 0


def _bin(n: int, s1: np.ndarray, s2: np.ndarray):
    """A bin's mean about the shift and its squared standard error; a
    constant sample can round S2 - S1**2/n to just below 0."""
    return s1 / n, np.maximum(s2 - s1 * s1 / n, 0.0) / ((n - 1) * n)


def bin_and_average(batches) -> BinnedTraces:
    """Per-sample means and errors of each bin, in one streaming pass.

    `batches` is an iterable of (phases, clicks, ...) batches, summed by
    one `RunningMoments`; the no-click sums are all minus click.
    """
    stats = None
    for batch in batches:
        if stats is None:
            stats = RunningMoments(batch[0].shape[1])
        # an infinite phase makes inf - inf here; `_finish` rejects the sums
        with np.errstate(invalid="ignore", over="ignore"):
            stats.add_batch(batch[0], batch[1])
    return _finish(stats)


def _finish(stats: RunningMoments | None) -> BinnedTraces:
    """The bins' means and errors from one pass's sums (None: no rows)."""
    n_click = 0 if stats is None else stats.n_click
    n_noclick = 0 if stats is None else stats.count - n_click
    for name, n in (("click", n_click), ("no-click", n_noclick)):
        if n < MIN_BIN_POPULATION:
            raise DataFormatError(f"bin '{name}' has {n} shots, need at "
                                  f"least {MIN_BIN_POPULATION}")
    if not np.isfinite(stats.s2).all():
        raise DataFormatError("a per-sample phase sum is not finite: the "
                              "shots hold a NaN or infinite phase")
    (s1, s1_click), (s2, s2_click) = stats.s1, stats.s2
    mean_click, var_click = _bin(n_click, s1_click, s2_click)
    mean_noclick, var_noclick = _bin(n_noclick, s1 - s1_click, s2 - s2_click)
    mean_all, var_all = _bin(stats.count, s1, s2)
    return BinnedTraces(
        delta_phi=mean_click - mean_noclick,
        se_delta=np.sqrt(var_click + var_noclick),
        n_click=n_click,
        phi_all=stats.shift + mean_all,
        se_all=np.sqrt(var_all),
    )


_CONDITION_LIMIT = 1e10


def _design_matrix(n_samples: int, template: XpsTemplate) -> np.ndarray:
    x = np.linspace(-1.0, 1.0, n_samples)
    return np.column_stack([np.ones_like(x), x, x**2, x**3, template.samples])


def _weighted_fit(y: np.ndarray, sigma, template: XpsTemplate,
                  scale: float = 1.0) -> FitResult:
    """Template amplitude over a cubic background, divided by `scale`."""
    n = y.size
    design = _design_matrix(n, template)
    if sigma is None:
        w = np.ones(n)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ConfigError("per-sample errors must be positive and finite")
        w = 1.0 / sigma
    aw = design * w[:, None]
    yw = y * w
    q, r = np.linalg.qr(aw)
    diag = np.abs(np.diag(r))
    condition = diag.max() / diag.min() if diag.min() > 0 else np.inf
    if condition > _CONDITION_LIMIT:
        raise ConvergenceError(
            f"fit design matrix ill conditioned (estimate {condition:.2e}); "
            "template may be collinear with the cubic background")
    coeffs = np.linalg.solve(r, q.T @ yw)
    resid = yw - aw @ coeffs
    dof = n - design.shape[1]
    chi2_per_dof = float(resid @ resid / dof)
    # (R^-1 R^-T)[4, 4]: row 4 of the triangular R's inverse is 1/r[4, 4]
    var = (1.0 / r[4, 4]) ** 2
    if sigma is None:
        # unweighted fit: scale errors by the residual variance estimate
        var = var * chi2_per_dof
    return FitResult(
        amplitude=float(coeffs[4] / scale),
        amplitude_se=float(np.sqrt(var) / scale),
        chi2_per_dof=chi2_per_dof,
    )


def fit_phi0(mean_trace: np.ndarray, mean_photons: float,
             template: XpsTemplate, sigma=None) -> FitResult:
    """Per-photon peak phase: template amplitude over cubic background,
    divided by the mean photon number."""
    if mean_photons <= 0:
        raise ConfigError("mean_photons must be > 0 for a phi_0 fit")
    return _weighted_fit(np.asarray(mean_trace, float), sigma, template,
                         scale=mean_photons)


def fit_transmitted(delta: BinnedTraces, template: XpsTemplate) -> FitResult:
    """Single-transmitted-photon amplitude phi_T from the difference trace,
    inverse-variance weighted per sample."""
    return _weighted_fit(delta.delta_phi, delta.se_delta, template)


def calibrate_proportional_noise(points) -> NoiseCalibration:
    """Fit the click-excess model e(mu) = 1 + s^2 mu over bright campaigns.

    `points` is a sequence of (mean_photons, excess, excess_se).  A negative
    fitted slope is reported as an upper bound consistent with zero.
    """
    points = list(points)
    if len(points) < 4:
        raise ConfigError("need at least 4 photon-number points")
    mu = np.array([p[0] for p in points], dtype=float)
    e = np.array([p[1] for p in points], dtype=float)
    se = np.array([p[2] for p in points], dtype=float)
    if np.any(se <= 0):
        raise ConfigError("excess errors must be > 0")
    w = 1.0 / se**2
    denom = float(np.sum(w * mu * mu))
    s2 = float(np.sum(w * mu * (e - 1.0)) / denom)
    s2_se = float(1.0 / np.sqrt(denom))
    return NoiseCalibration(s2=max(s2, 0.0), s2_se=s2_se, upper_bound=s2 < 0)


def correct_phi_T(raw: FitResult, s2: float, mean_photons: float,
                  phi0: FitResult, s2_se: float = 0.0) -> FitResult:
    """Remove the proportional-noise contribution phi_0 * s^2 * mu from the
    fitted single-photon amplitude; errors combined in quadrature."""
    shift = phi0.amplitude * s2 * mean_photons
    se = np.sqrt(raw.amplitude_se**2
                 + (phi0.amplitude * mean_photons * s2_se) ** 2
                 + (s2 * mean_photons * phi0.amplitude_se) ** 2)
    return dataclasses.replace(raw, amplitude=raw.amplitude - shift,
                               amplitude_se=float(se))


_PHI0_SIGNIFICANCE = 5.0


def _require_phi0(phi_0: FitResult, where: str):
    """A phi_0 under 5 sigma means the data are too few to divide by it."""
    if abs(phi_0.amplitude) < _PHI0_SIGNIFICANCE * phi_0.amplitude_se:
        raise DataFormatError(
            f"phi_0 at {where} is not significant at "
            f"{_PHI0_SIGNIFICANCE:g} sigma; cannot form the ratio")


def _ratio(phi_t: FitResult, phi_0: FitResult):
    """phi_T/phi_0 and its first-order variance (never divides by phi_T)."""
    var = (phi_t.amplitude_se / phi_0.amplitude) ** 2 \
        + (phi_t.amplitude * phi_0.amplitude_se / phi_0.amplitude**2) ** 2
    return phi_t.amplitude / phi_0.amplitude, var


def combine_detunings(entries) -> CombinedEstimate:
    """Inverse-variance weighted mean of per-detuning phi_T/phi_0 ratios.

    `entries` is a sequence of (detuning, phi_T FitResult, phi_0 FitResult).
    A phi_0 under 5 sigma means the data are too few to form the ratio, so
    it raises DataFormatError.
    """
    entries = list(entries)
    if not entries:
        raise ConfigError("need at least one (phi_T, phi_0) entry")
    ratios = []
    variances = []
    for detuning, phi_t, phi_0 in entries:
        _require_phi0(phi_0, f"detuning {detuning:g}")
        r, var = _ratio(phi_t, phi_0)
        ratios.append(r)
        variances.append(var)
    w = 1.0 / np.asarray(variances)
    ratio = float(np.sum(w * np.asarray(ratios)) / np.sum(w))
    se = float(1.0 / np.sqrt(np.sum(w)))
    return CombinedEstimate(ratio=ratio, se=se)


def _fit_chain(cfg: ExperimentConfig, template: XpsTemplate,
               binned: BinnedTraces):
    """phi_0 fitted on the all-shot mean and raw phi_T on the difference
    trace: (phi_0, phi_T).  White phase noise spreads every real sample."""
    constant = np.flatnonzero(np.minimum(binned.se_delta, binned.se_all) == 0)
    if constant.size:
        raise DataFormatError(f"phase sample {constant[0]} has zero variance")
    phi0 = fit_phi0(binned.phi_all, cfg.mean_photons, template,
                    sigma=binned.se_all)
    return phi0, fit_transmitted(binned, template)


def analyze_file(path, cfg: ExperimentConfig, s2: float = 0.0,
                 s2_se: float = 0.0, force_digest: bool = False):
    """Full estimator chain over one shot file.

    Returns (report dict, BinnedTraces)."""
    for key, value in (("s2", s2), ("s2_se", s2_se)):
        if not value >= 0.0:
            raise ConfigError(f"{key!r} must be >= 0, got {value!r}")
    header = shotfile.read_header(path)
    expected = shotfile.experiment_digest(cfg)
    if header.digest != expected and not force_digest:
        raise DataFormatError(
            f"{path}: config digest {header.digest.hex()[:16]}... does not "
            f"match the analysis config ({expected.hex()[:16]}...); rerun "
            "with --force-digest to analyze anyway")
    if header.n_samples != cfg.n_samples:
        raise DataFormatError(
            f"{path}: file has {header.n_samples} samples per shot, config "
            f"says {cfg.n_samples}")

    binned = bin_and_average(shotfile.iter_shot_batches(path))
    phi0, phi_t = _fit_chain(cfg, shots.xps_template(cfg), binned)
    # an upper-bound calibration reads s2 = 0 and still carries its s2_se
    if s2 != 0.0 or s2_se != 0.0:
        phi_t = correct_phi_T(phi_t, s2, cfg.mean_photons, phi0, s2_se=s2_se)
    combined = combine_detunings([(cfg.probe_detuning, phi_t, phi0)])

    report = {
        "phi0": phi0.amplitude,
        "phi0_se": phi0.amplitude_se,
        "phiT": phi_t.amplitude,
        "phiT_se": phi_t.amplitude_se,
        "ratio": combined.ratio,
        "ratio_se": combined.se,
        "s2": s2,
        "chi2_per_dof": phi_t.chi2_per_dof,
        "n_shots": header.n_shots,
        "click_rate": binned.n_click / header.n_shots,
    }
    return report, binned


def _calibration_eta(cfg: ExperimentConfig, mu: float,
                     target_click: float) -> float:
    """Detection efficiency giving the target click rate at mu photons."""
    if not mu > 0:
        raise ConfigError(f"photon_numbers must be > 0, got {mu:g}")
    if cfg.p_transmit == 0:
        raise ConfigError("p_transmit must be > 0 to calibrate")
    # a dark count on every shot leaves no signal rate to reach
    p_signal = ((target_click - cfg.dark_prob) / (1.0 - cfg.dark_prob)
                if cfg.dark_prob < 1.0 else 0.0)
    if not 0.0 < p_signal < 1.0:
        raise ConfigError(
            f"target_click_rate {target_click:g} unreachable with "
            f"dark_prob {cfg.dark_prob:g}")
    eta = float(-np.log1p(-p_signal) / (cfg.p_transmit * mu))
    if eta > 1.0:
        raise ConfigError(
            f"photon_numbers {mu:g} is too few to reach target_click_rate "
            f"{target_click:g}: it needs a detection efficiency of {eta:g}")
    return eta


def _binned_batch(cfg: ExperimentConfig, template: XpsTemplate,
                  rng: np.random.Generator, m: int) -> RunningMoments:
    """Generate one calibration batch and sum it, both on the thread that
    runs this; only the sums leave it.

    The rows are the batch's noise-free shots, summed about the batch's own
    first row; their white phase noise enters the sums through
    `RunningMoments.add_white_noise`, drawn from the batch's stream after
    the rows."""
    phases, clicks, _ = shots._noise_free_batch(cfg, template, rng, m)
    stats = RunningMoments(phases.shape[1])
    stats.shift = phases[0].copy()
    stats.add_batch(phases, clicks)
    stats.add_white_noise(cfg.phase_noise_rms, rng)
    return stats


def run_calibration(cfg: ExperimentConfig, photon_numbers, n_shots: int,
                    seed: int, target_click: float = 0.10,
                    workers: int = 1) -> dict:
    """Bright campaigns at each photon number; fits e(mu) = 1 + s^2 mu.

    Point i is campaign i of `seed`, `n_shots` shots in batches keyed as
    `shots.iter_batches` keys them.  Each batch's noise-free shots are
    summed by `RunningMoments.add_batch`, and their white phase noise
    enters through exact per-bin sums (`RunningMoments.add_white_noise`),
    so no batch draws 36 normals per shot.  All points' batches go through
    one pool (`shots._ordered_map`), point after point: each batch is
    generated and summed about its own first row on one thread, and the
    calling thread merges the sums in batch order with an exact re-centring
    (`RunningMoments.merge`) and fits each point as its last batch comes
    in, so the result is the same at any worker count.

    A point whose phi_0 is under 5 sigma raises DataFormatError."""
    # every point's config first, so a bad point fails before any campaign
    if len(photon_numbers) < 4:
        raise ConfigError("photon_numbers needs at least 4 entries")
    cal_cfgs = [cfg.replace(mean_photons=mu, phi_atom=cfg.phi_atom,
                            eta_detect=_calibration_eta(cfg, mu, target_click))
                for mu in photon_numbers]
    shots._check_campaign(n_shots, seed)
    templates = [shots.xps_template(c) for c in cal_cfgs]

    jobs = itertools.chain.from_iterable(
        shots._campaign_jobs(cal_cfg, template, n_shots, seed, campaign=i)
        for i, (cal_cfg, template) in enumerate(zip(cal_cfgs, templates)))
    n_batches = len(range(0, n_shots, shots.BATCH_SIZE))
    points = []
    with contextlib.closing(
            shots._ordered_map(_binned_batch, jobs, workers)) as sums:
        for mu, cal_cfg, template in zip(photon_numbers, cal_cfgs, templates):
            total = RunningMoments(cal_cfg.n_samples)
            for stats in itertools.islice(sums, n_batches):
                total.merge(stats)
            phi0, phi_t = _fit_chain(cal_cfg, template, _finish(total))
            _require_phi0(phi0, f"{mu:g} photons")
            excess, var = _ratio(phi_t, phi0)
            points.append((mu, excess, float(np.sqrt(var))))
    cal = calibrate_proportional_noise(points)
    return {
        "s2": cal.s2,
        "s2_se": cal.s2_se,
        "upper_bound": cal.upper_bound,
        "points": [{"mean_photons": mu, "excess": e, "excess_se": se}
                   for mu, e, se in points],
    }
