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


def _cholesky(gram: np.ndarray):
    """(R, nonzero): an upper-triangular R with R'R = gram for a stack of
    positive semi-definite (..., c, c) matrices, and which rows of R are
    not zero.  A pivot of at most 1e-10 of its diagonal entry, which
    rounding leaves of a zero one, makes its row zero."""
    r = np.zeros_like(gram)
    nonzero = np.zeros(gram.shape[:-1], dtype=bool)
    for i in range(gram.shape[-1]):
        row = gram[..., i, i:] - (r[..., :i, i, None]
                                  * r[..., :i, i:]).sum(axis=-2)
        nonzero[..., i] = row[..., 0] > 1e-10 * gram[..., i, i]
        pivot = np.where(nonzero[..., i], row[..., 0], np.inf)
        r[..., i, i:] = row / np.sqrt(pivot)[..., None]
    return r, nonzero


def _gaussian_sums(gram: np.ndarray, k: np.ndarray, q: int,
                   rng: np.random.Generator):
    """(Z'X, Z'Z) drawn exactly in distribution, for Z a (k, q) block of
    iid standard normals and X the k rows whose Gram matrix X'X is `gram`,
    without drawing Z: a stack of (..., c, c) Gram matrices and row
    counts k (...).

    The q rows of Z'X are independent normal vectors of covariance X'X,
    so Z'X = H R, for R'R = X'X and H a (q, c) standard normal block.
    Given Z'X, Z'Z is its part in the span of X, H_r H_r' with H_r the
    columns of H on the r nonzero rows of R, plus an independent
    Wishart_q(k - r):
    Bartlett's lower factor, keeping only its first k - r columns when
    k - r < q.  A bin of 0 rows gets 0, and one of fewer rows than X has
    columns gets what its rank allows."""
    r, nonzero = _cholesky(gram)
    h = rng.standard_normal((*k.shape, q, gram.shape[-1]))
    zx = h @ r
    h *= nonzero[..., None, :]
    df = k - nonzero.sum(axis=-1)
    i = np.arange(q)
    bartlett = rng.standard_normal((*k.shape, q, q))
    bartlett *= (i[:, None] > i) & (i < df[..., None, None])
    bartlett[..., i, i] = np.sqrt(rng.gamma(
        np.maximum(df[..., None] - i, 0) / 2.0, 2.0))
    zz = h @ h.swapaxes(-1, -2) + bartlett @ bartlett.swapaxes(-1, -2)
    return zx, zz


class RunningMoments:
    """Per-sample sums about a shift over all rows and over the click rows:
    one accumulator for a whole binning pass.

    `s1[0]` and `s2[0]` sum x - shift and (x - shift)**2 over all rows,
    `s1[1]` and `s2[1]` over the click rows; the no-click sums are their
    difference.  Unless set before, the shift is the first non-empty
    batch's mean (the known part of its first row, for a batch of
    coefficients), so the sums stay small and S2 - S1**2/n loses no
    precision to an offset.  `add_white_noise` adds to the sums what iid
    Gaussian noise on every row and sample would, without the rows, and
    `merge` adds sums made about another shift.  All of them add through
    `_add`, the one writer of `count`, `n_click`, `s1` and `s2`.
    """

    def __init__(self, width: int):
        self.count = 0
        self.n_click = 0
        self.shift = None
        self.s1 = np.zeros((2, width))
        self.s2 = np.zeros((2, width))

    def add_batch(self, x: np.ndarray, clicks,
                  basis: np.ndarray | None = None,
                  rng: np.random.Generator | None = None):
        """Add m rows to the sums: the rows of `x`, or with a (q + p,
        width) `basis` the rows z @ basis[:q] + x @ basis[q:] of the (m, p)
        known coefficients `x` and q iid standard normal coefficients z per
        row, which are never formed: their per-bin sums are drawn exactly
        from `rng` (`_gaussian_sums`).

        The known coefficients are summed about their first row x0: with
        y = x - x0, each bin (click, no-click) has the Gram matrix G of
        [1, y], and Z'[1, y] and Z'Z drawn from it give the bin's Gram
        matrix C of its coefficients [z, y] and their sums.  Its S1 is then
        (Sum [z, y]) @ basis and its S2 at sample j is b_j' C b_j for
        column b_j of the basis.  An unset shift becomes x0 @ basis[q:];
        otherwise the sums are re-centred onto the shift as `merge`
        re-centres them."""
        m = x.shape[0]
        if m == 0:
            return
        clicks = np.asarray(clicks, dtype=bool)
        n = np.array([[m], [np.count_nonzero(clicks)]])
        if basis is not None:
            q, p = len(basis) - x.shape[1], x.shape[1]
            row0 = x[0] @ basis[q:]
            if self.shift is None:
                self.shift = row0
            # G of [1, y] over the click rows, then all rows, from y as
            # contiguous (p, m) rows: no BLAS call on an m-long operand,
            # whose threads would take the CPU from the other workers
            y = np.subtract(x.T, x[0][:, None], order="C")
            gram = np.empty((2, p + 1, p + 1))
            for b, rows in enumerate((np.compress(clicks, y, axis=1), y)):
                gram[b, 0, 0] = rows.shape[1]
                gram[b, 0, 1:] = gram[b, 1:, 0] = rows.sum(axis=1)
                gram[b, 1:, 1:] = np.einsum("jm,km->jk", rows, rows)
            gram[1] -= gram[0]  # all rows to the no-click bin
            zx, zz = _gaussian_sums(gram, gram[:, 0, 0], q, rng)
            sums = np.concatenate([zx[:, :, 0], gram[:, 0, 1:]], axis=1)
            coeff_gram = np.block([[zz, zx[:, :, 1:]],
                                   [zx[:, :, 1:].swapaxes(1, 2),
                                    gram[:, 1:, 1:]]])
            # bins (click, no-click) to the sums' (all, click)
            sums = np.stack([sums[0] + sums[1], sums[0]])
            coeff_gram = np.stack([coeff_gram[0] + coeff_gram[1],
                                   coeff_gram[0]])
            self._add(n, sums @ basis,
                      ((coeff_gram @ basis) * basis).sum(axis=1),
                      row0 - self.shift)
            return
        weights = np.ones((2, m))
        weights[1] = clicks
        if self.shift is None:
            self.shift = x.mean(axis=0)
        d = x - self.shift
        # the arguments are made in order: d is squared after its sums
        self._add(n, weights @ d, weights @ np.square(d, out=d), 0.0)

    def add_white_noise(self, sigma: float, rng: np.random.Generator):
        """Add iid N(0, sigma**2) noise on every summed row and sample to
        the sums, drawn exactly in distribution from `rng`: a few draws per
        bin and sample instead of one per row and sample.

        Per bin (click, no-click) and sample, with k rows d about the shift
        and S1, S2 their sums, the noise w adds sigma*Sum(w) to S1 and
        2*sigma*Sum(d w) + sigma**2*Sum(w**2) to S2.  Those are Z'[1, d]
        and Z'Z of `_gaussian_sums` for one normal column (q = 1) and the
        Gram matrix [[k, S1], [S1, S2]] of [1, d]."""
        k = np.array([self.n_click, self.count - self.n_click])
        s1 = np.stack([self.s1[1], self.s1[0] - self.s1[1]])
        gram = np.empty((*s1.shape, 2, 2))
        gram[..., 0, 0] = k[:, None]
        gram[..., 0, 1] = gram[..., 1, 0] = s1
        gram[..., 1, 1] = np.stack([self.s2[1], self.s2[0] - self.s2[1]])
        zx, zz = _gaussian_sums(gram, gram[..., 0, 0], 1, rng)
        d1 = sigma * zx[..., 0, 0]
        d2 = (2.0 * sigma) * zx[..., 0, 1] + (sigma * sigma) * zz[..., 0, 0]
        # rows: all = click + no-click, then click; the noise adds no row
        self._add(np.zeros((2, 1), dtype=int),
                  np.stack([d1[0] + d1[1], d1[0]]),
                  np.stack([d2[0] + d2[1], d2[0]]), 0.0)

    def merge(self, other: "RunningMoments"):
        """Add `other`'s sums into these, re-centred exactly from its shift
        onto this one.  An empty `other` adds nothing, and an empty self
        takes `other`'s shift."""
        if other.shift is None:
            return
        if self.shift is None:
            self.shift = other.shift
        self._add(np.array([other.count, other.n_click])[:, None],
                  other.s1, other.s2, other.shift - self.shift)

    def _add(self, n, s1, s2, d):
        """Add the (all, click) sums s1 and s2 of n rows made about
        shift + d: about the shift they are S1 + n d and
        S2 + d (2 S1 + n d), which a d of 0 leaves as they are."""
        self.s1 += s1 + n * d
        self.s2 += s2 + d * (2.0 * s1 + n * d)
        self.count += int(n[0, 0])
        self.n_click += int(n[1, 0])


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


# shots per calibration batch, 4 x the shot path's `shots.BATCH_SIZE`: a
# batch's per-bin draws and sums are a fixed cost of small numpy calls that
# hold the GIL, which at 4,096 shots kept two workers from gaining
CALIBRATION_BATCH = 4 * shots.BATCH_SIZE


def _binned_batch(cfg: ExperimentConfig, template: XpsTemplate,
                  basis: np.ndarray, rng: np.random.Generator,
                  m: int) -> RunningMoments:
    """Generate one calibration batch and sum it, both on the thread that
    runs this; only the sums leave it.

    The batch draws each shot's clicks and known coefficients
    (`shots._calibration_coefficients`) and sums them on `basis`
    (`shots._calibration_basis`) about its own first shot, with the drift
    and the oscillation's own g drawn as exact per-bin sums, so no row is
    formed; the white phase noise enters the sums through
    `RunningMoments.add_white_noise`.  All of it is drawn from the batch's
    stream, in that order."""
    known, clicks = shots._calibration_coefficients(cfg, template, rng, m)
    stats = RunningMoments(basis.shape[1])
    stats.add_batch(known, clicks, basis, rng)
    stats.add_white_noise(cfg.phase_noise_rms, rng)
    return stats


def run_calibration(cfg: ExperimentConfig, photon_numbers, n_shots: int,
                    seed: int, target_click: float = 0.10,
                    workers: int = 1) -> dict:
    """Bright campaigns at each photon number; fits e(mu) = 1 + s^2 mu.

    Point i is campaign i of `seed`, `n_shots` shots in batches of
    `CALIBRATION_BATCH`, each batch keyed by (seed, i, batch index) as
    `shots.iter_batches` keys its own.  Each batch is generated and summed
    by `_binned_batch`, which forms no row of 36 samples per shot and
    draws no 36 normals per shot.  The points differ only in
    `mean_photons` and `eta_detect`, so they share one template and one
    basis.  All points' batches go through one pool
    (`shots._ordered_map`), point after point: each batch is generated
    and summed about its own first row on one thread, and the calling
    thread merges the sums in batch order with an exact re-centring
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
    template = shots.xps_template(cfg)
    basis = shots._calibration_basis(cfg, template)

    jobs = itertools.chain.from_iterable(
        shots._campaign_jobs(cal_cfg, template, basis, n_shots, seed,
                             campaign=i, batch_size=CALIBRATION_BATCH)
        for i, cal_cfg in enumerate(cal_cfgs))
    n_batches = len(range(0, n_shots, CALIBRATION_BATCH))
    points = []
    with contextlib.closing(
            shots._ordered_map(_binned_batch, jobs, workers)) as sums:
        for mu, cal_cfg in zip(photon_numbers, cal_cfgs):
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
