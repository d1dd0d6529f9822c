import itertools
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from xdwell import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    ExperimentConfig,
    analyze_file,
    bin_and_average,
    calibrate_proportional_noise,
    combine_detunings,
    correct_phi_T,
    fit_phi0,
    fit_transmitted,
    iter_batches,
    run_campaign,
    xps_template,
)
from xdwell import shotfile, shots
from xdwell.estimator import (
    CALIBRATION_BATCH,
    FitResult,
    RunningMoments,
    _binned_batch,
    _calibration_eta,
    _finish,
    _ratio,
    run_calibration,
)

from conftest import click_excess

CFG = ExperimentConfig()
TEMPLATE = xps_template(CFG)
N = CFG.n_samples
T_NORM = np.linspace(-1.0, 1.0, N)


def exact_click_excess(mu, p_t, eta, dark, n_max=400):
    """Conditional transmitted-photon excess by exact summation over n_T."""
    k = np.arange(n_max)
    pmf = stats.poisson.pmf(k, mu * p_t)
    p_click = 1.0 - (1.0 - dark) * (1.0 - eta) ** k
    pc = np.sum(pmf * p_click)
    mean_click = np.sum(pmf * p_click * k) / pc
    mean_noclick = np.sum(pmf * (1 - p_click) * k) / (1.0 - pc)
    return mean_click - mean_noclick


def make_batch(n_shots, rng, click_frac=0.5, offset=None, noise=0.0):
    clicks = rng.random(n_shots) < click_frac
    phases = noise * rng.standard_normal((n_shots, N))
    if offset is not None:
        phases[clicks] += offset
    return phases, clicks


# seven uneven batches; the first is large enough to hold a useful shift
SPLITS = [700, 737, 1200, 2000, 2999, 4000]


def accumulate(x, clicks, splits=SPLITS):
    stats = RunningMoments(x.shape[1])
    for xb, cb in zip(np.split(x, splits), np.split(clicks, splits)):
        stats.add_batch(xb, cb)
    return stats


def moments(stats, row, n):
    """Mean and sample variance of the rows that `stats.s1[row]` sums."""
    s1, s2 = stats.s1[row], stats.s2[row]
    return stats.shift + s1 / n, (s2 - s1**2 / n) / (n - 1)


class TestRunningMoments:
    def check_two_pass(self, x, clicks):
        self.check_moments(accumulate(x, clicks), x, clicks)

    def check_moments(self, stats, x, clicks):
        assert type(stats.count) is int and type(stats.n_click) is int
        assert (stats.count, stats.n_click) == (len(x), clicks.sum())
        for row, rows in ((0, x), (1, x[clicks])):
            mean, var = moments(stats, row, len(rows))
            # a mean near 0 is held to 1e-15 of the unit spread; numpy's
            # own mean errs by about 1e-16 there
            np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=1e-12,
                                       atol=1e-15)
            np.testing.assert_allclose(var, rows.var(axis=0, ddof=1),
                                       rtol=1e-12)

    def test_matches_two_pass(self):
        rng = np.random.default_rng(0)
        self.check_two_pass(rng.standard_normal((5000, N)),
                            rng.random(5000) < 0.3)

    def test_offset_data_matches_two_pass(self):
        # sums about zero would lose eight digits of the variance to the
        # 1e4 offset
        rng = np.random.default_rng(1)
        self.check_two_pass(1e4 + rng.standard_normal((5000, N)),
                            rng.random(5000) < 0.3)

    def test_merge_recentres(self):
        # per-batch sums, each about its own first row, merged in order
        rng = np.random.default_rng(1)
        x = 1e4 + rng.standard_normal((5000, N))
        clicks = rng.random(5000) < 0.3
        merged = RunningMoments(N)
        for xb, cb in zip(np.split(x, SPLITS), np.split(clicks, SPLITS)):
            stats = RunningMoments(N)
            stats.shift = xb[0].copy()
            stats.add_batch(xb, cb)
            merged.merge(stats)
        self.check_moments(merged, x, clicks)
        # an empty side adds nothing and keeps the full side's shift
        for target, other in ((merged, RunningMoments(N)),
                              (RunningMoments(N), merged)):
            target.merge(other)
            np.testing.assert_array_equal(target.shift, x[0])
            self.check_moments(target, x, clicks)

    def test_empty_first_batch_changes_nothing(self):
        rng = np.random.default_rng(2)
        phases, clicks = make_batch(3000, rng, noise=0.2)
        batches = [(phases[:1000], clicks[:1000]),
                   (phases[1000:], clicks[1000:])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = bin_and_average(batches)
            padded = bin_and_average([(phases[:0], clicks[:0])] + batches)
        for key, value in plain.__dict__.items():
            np.testing.assert_array_equal(padded.__dict__[key], value)


class TestBinning:
    def test_identical_shots_zero_delta(self):
        phases = np.tile(np.sin(T_NORM), (400, 1))
        clicks = np.arange(400) % 2 == 0
        binned = bin_and_average([(phases, clicks)])
        np.testing.assert_allclose(binned.delta_phi, 0.0, atol=1e-15)

    def test_recovers_injected_offset(self):
        rng = np.random.default_rng(3)
        offset = np.zeros(N)
        offset[13] = 5e-3
        phases, clicks = make_batch(40000, rng, offset=offset, noise=0.1)
        binned = bin_and_average([(phases, clicks)])
        assert abs(binned.delta_phi[13] - 5e-3) < 3 * binned.se_delta[13]

    def test_streaming_equals_two_pass(self):
        rng = np.random.default_rng(4)
        phases, clicks = make_batch(5000, rng, noise=0.2)
        batches = [(phases[:2000], clicks[:2000]),
                   (phases[2000:], clicks[2000:])]
        streamed = bin_and_average(batches)
        direct = phases[clicks].mean(axis=0) - phases[~clicks].mean(axis=0)
        np.testing.assert_allclose(streamed.delta_phi, direct, rtol=1e-12,
                                   atol=1e-18)
        np.testing.assert_allclose(streamed.phi_all, phases.mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            streamed.se_all,
            phases.std(axis=0, ddof=1) / np.sqrt(phases.shape[0]),
            rtol=1e-12)
        se2 = [phases[b].var(axis=0, ddof=1) / b.sum()
               for b in (clicks, ~clicks)]
        np.testing.assert_allclose(streamed.se_delta, np.sqrt(sum(se2)),
                                   rtol=1e-12)

    def test_underpopulated_bin_named(self):
        phases = np.zeros((150, N))
        clicks = np.zeros(150, dtype=bool)
        clicks[:10] = True
        with pytest.raises(DataFormatError, match="bin 'click'"):
            bin_and_average([(phases, clicks)])


class TestFits:
    def test_pure_cubic_gives_zero_amplitude(self):
        trace = 0.3 - 0.2 * T_NORM + 0.05 * T_NORM**2 + 0.7 * T_NORM**3
        fit = fit_phi0(trace, 34.0, TEMPLATE)
        assert abs(fit.amplitude) < 1e-12

    def test_noise_free_template_amplitude(self):
        trace = 0.7e-3 * TEMPLATE.samples
        fit = fit_phi0(trace, 34.0, TEMPLATE)
        assert fit.amplitude == pytest.approx(0.7e-3 / 34.0, rel=1e-12)

    def test_zero_delta_gives_zero(self):
        phases = np.tile(1e-3 * TEMPLATE.samples, (400, 1))
        clicks = np.arange(400) % 2 == 0
        binned = bin_and_average([(phases, clicks)])
        se = np.full(N, 1.0)
        binned = binned.__class__(**{**binned.__dict__,
                                     "se_delta": se})
        fit = fit_transmitted(binned, TEMPLATE)
        assert abs(fit.amplitude) < 1e-12

    def test_weighted_fit_recovers_known_mix(self):
        rng = np.random.default_rng(6)
        true = (2e-4 - 1e-4 * T_NORM + 3e-4 * T_NORM**3
                + 5e-4 * TEMPLATE.samples)
        phases = true + 1e-3 * rng.standard_normal((200000, N))
        clicks = rng.random(200000) < 0.5
        binned = bin_and_average([(phases, clicks)])
        fit = fit_phi0(phases.mean(axis=0), 1.0, TEMPLATE,
                       sigma=phases.std(axis=0) / np.sqrt(phases.shape[0]))
        assert fit.amplitude == pytest.approx(5e-4, abs=3 * fit.amplitude_se)
        assert fit.amplitude_se < 1e-5

    def test_rank_deficiency_reported(self):
        from types import SimpleNamespace
        cubic_template = SimpleNamespace(samples=0.1 + 0.2 * T_NORM**2)
        with pytest.raises(ConvergenceError,
                           match="fit design matrix ill conditioned"):
            fit_phi0(np.zeros(N), 1.0, cubic_template)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            fit_phi0(np.zeros(N), 1.0, TEMPLATE, sigma=np.zeros(N))

    @given(st.floats(min_value=-50, max_value=50).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, c):
        rng = np.random.default_rng(7)
        trace = 1e-4 * TEMPLATE.samples + 1e-5 * rng.standard_normal(N)
        base = fit_phi0(trace, 1.0, TEMPLATE)
        scaled = fit_phi0(c * trace, 1.0, TEMPLATE)
        assert scaled.amplitude == pytest.approx(c * base.amplitude, rel=1e-9)

    @given(st.tuples(*[st.floats(min_value=-10, max_value=10)] * 4))
    @settings(max_examples=25, deadline=None)
    def test_background_immunity(self, coeffs):
        rng = np.random.default_rng(8)
        trace = 1e-4 * TEMPLATE.samples + 1e-5 * rng.standard_normal(N)
        cubic = (coeffs[0] + coeffs[1] * T_NORM + coeffs[2] * T_NORM**2
                 + coeffs[3] * T_NORM**3)
        base = fit_phi0(trace, 1.0, TEMPLATE)
        shifted = fit_phi0(trace + cubic, 1.0, TEMPLATE)
        assert abs(shifted.amplitude - base.amplitude) < 1e-12


class TestCalibration:
    def test_exact_linear_points(self):
        s2 = 9e-4
        points = [(mu, 1.0 + s2 * mu, 0.01)
                  for mu in (588, 898, 1527, 3040)]
        cal = calibrate_proportional_noise(points)
        assert cal.s2 == pytest.approx(s2, rel=1e-9)
        assert not cal.upper_bound

    def test_null_consistent_with_zero(self):
        rng = np.random.default_rng(9)
        points = [(mu, 1.0 + 0.05 * rng.standard_normal(), 0.05)
                  for mu in (588, 898, 1527, 3040)]
        cal = calibrate_proportional_noise(points)
        assert abs(cal.s2) < 3 * cal.s2_se

    def test_negative_slope_is_upper_bound(self):
        points = [(mu, 1.0 - 1e-4 * mu, 0.01)
                  for mu in (588, 898, 1527, 3040)]
        cal = calibrate_proportional_noise(points)
        assert cal.upper_bound
        assert cal.s2 == 0.0

    def test_slope_identity(self):
        s2 = 9e-4
        points = [(mu, 1.0 + s2 * mu, 0.01)
                  for mu in (588, 898, 1527, 3040)]
        cal = calibrate_proportional_noise(points)
        assert (points[3][1] - points[0][1]) == pytest.approx(
            cal.s2 * (3040 - 588), rel=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            calibrate_proportional_noise([(588, 1.0, 0.01)] * 3)


# the calibration photon numbers, and the x50 phi_atom of the boosted
# acceptance campaign, which resolves phi_0 at a few thousand shots
CAL_PHOTONS = [588, 898, 1527, 3040]
BOOSTED = CFG.replace(phi_atom=50 * CFG.phi_atom)


def point_sums(cal_cfg, n_shots, seed, campaign):
    """One calibration point's sums as a serial chain of `_binned_batch`
    sums, one per batch of `CALIBRATION_BATCH` shots, with the point's own
    template and basis."""
    template = xps_template(cal_cfg)
    basis = shots._calibration_basis(cal_cfg, template)
    total = RunningMoments(N)
    for b, start in enumerate(range(0, n_shots, CALIBRATION_BATCH)):
        total.merge(_binned_batch(cal_cfg, template, basis,
                                  shots._batch_rng(seed, campaign, b),
                                  min(CALIBRATION_BATCH, n_shots - start)))
    return total


def per_point_calibration(cfg, n_shots, seed):
    """`run_calibration` as one serial campaign, binning and fit per point."""
    points = []
    for i, mu in enumerate(CAL_PHOTONS):
        cal_cfg = cfg.replace(mean_photons=mu, phi_atom=cfg.phi_atom,
                              eta_detect=_calibration_eta(cfg, mu, 0.10))
        template = xps_template(cal_cfg)
        binned = _finish(point_sums(cal_cfg, n_shots, seed, i))
        phi0 = fit_phi0(binned.phi_all, mu, template, sigma=binned.se_all)
        excess, var = _ratio(fit_transmitted(binned, template), phi0)
        points.append((mu, excess, float(np.sqrt(var))))
    cal = calibrate_proportional_noise(points)
    return {"s2": cal.s2, "s2_se": cal.s2_se, "upper_bound": cal.upper_bound,
            "points": [{"mean_photons": mu, "excess": e, "excess_se": se}
                       for mu, e, se in points]}


class TestCalibrationPipeline:
    # run_calibration generates and sums every batch of every point on one
    # pool and adds the sums up on the calling thread

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_per_point_chain(self, workers):
        # bit for bit, with a short last batch per point and threads that
        # switch often: the per-batch sums are formed and added in the
        # serial chain's order whatever order the batches finish in
        n_shots = 3 * CALIBRATION_BATCH + 1000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = run_calibration(BOOSTED, CAL_PHOTONS, n_shots, seed=11,
                                  workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert got == per_point_calibration(BOOSTED, n_shots, seed=11)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_jobs_in_flight_bounded(self, monkeypatch, workers):
        # a slow consumer holds the pool to 2 * workers batches ahead of the
        # sums it has added, also while it fits a point and the next point
        # starts
        real_generate, real_merge = (shots._calibration_coefficients,
                                     RunningMoments.merge)
        generated = itertools.count(1)
        merged = 0

        def generate(*args):
            assert next(generated) - merged <= 2 * workers
            return real_generate(*args)

        def merge(self, other):
            nonlocal merged
            time.sleep(0.01)
            real_merge(self, other)
            merged += 1

        monkeypatch.setattr(shots, "_calibration_coefficients", generate)
        monkeypatch.setattr(RunningMoments, "merge", merge)
        run_calibration(BOOSTED, CAL_PHOTONS, 3 * CALIBRATION_BATCH, seed=5,
                        workers=workers)
        assert next(generated) - 1 == merged == 12

    @pytest.mark.parametrize("key", [(1, 0), (2, 1)], ids=["p1b0", "p2b1"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_failure_raises(self, monkeypatch, key, workers):
        # a failed batch, the first of point 1 or the second of point 2,
        # reaches the caller, and no batch in flight with it hangs the run
        real = shots._calibration_coefficients

        def fail_one(cfg, template, rng, m):
            if rng.bit_generator.seed_seq.spawn_key == key:
                raise RuntimeError("batch failed")
            return real(cfg, template, rng, m)

        monkeypatch.setattr(shots, "_calibration_coefficients", fail_one)
        raised = []

        def calibrate():
            with pytest.raises(RuntimeError) as exc:
                run_calibration(BOOSTED, CAL_PHOTONS, 3 * CALIBRATION_BATCH,
                                seed=5, workers=workers)
            raised.append(str(exc.value))

        thread = threading.Thread(target=calibrate, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run_calibration hangs"
        assert raised == ["batch failed"]

    def test_one_shot_last_batch(self):
        # n_shots = 1 mod CALIBRATION_BATCH: each point's last batch holds
        # one shot, so one of its bins has one row and the other none
        n_shots = 2 * CALIBRATION_BATCH + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_calibration(BOOSTED, CAL_PHOTONS, n_shots, seed=3,
                                  workers=2)
        assert got == per_point_calibration(BOOSTED, n_shots, seed=3)
        assert np.isfinite(got["s2"]) and got["s2_se"] > 0


def zero_shift_sums(rows, clicks):
    """`add_batch` of the rows about a zero shift."""
    moments = RunningMoments(rows.shape[1])
    moments.shift = np.zeros(rows.shape[1])
    moments.add_batch(rows, clicks)
    return moments


def white_noise_sums(rows, clicks, sigma, rng):
    """The sums of the noise-free rows with their white noise added by
    `add_white_noise`."""
    moments = zero_shift_sums(rows, clicks)
    moments.add_white_noise(sigma, rng)
    return moments


def bin_sums(moments):
    """(click S1, click S2, no-click S1, no-click S2), each per sample."""
    (s1, s1_click), (s2, s2_click) = moments.s1, moments.s2
    return np.stack([s1_click, s2_click, s1 - s1_click, s2 - s2_click])


def ks_p_values(a, b):
    """Two-sample KS p-value of each statistic: a and b are (draws, ...)."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    return np.array([stats.ks_2samp(a[:, j], b[:, j]).pvalue
                     for j in range(a.shape[1])])


class TestWhiteNoiseSums:
    # RunningMoments.add_white_noise on a batch's noise-free rows against
    # add_batch on the rows of `shots._generate_batch`, which draws the
    # noise per row and sample

    BRIGHT = ExperimentConfig(phase_noise_rms=0.05, tauT_frac=1.0,
                              prop_noise_s=0.03)
    CONFIGS = {
        # acceptance 10's 588-photon point
        "calibration": BRIGHT.replace(
            mean_photons=588, phi_atom=50 * BRIGHT.phi_atom,
            eta_detect=_calibration_eta(BRIGHT, 588, 0.10)),
        "dark counts": CFG.replace(dark_prob=0.3),
        "oscillation": CFG.replace(osc_amplitude=0.05, od_coupling=2.0,
                                   prop_noise_s=0.1),
    }

    @staticmethod
    def both_paths(cfg, template, m, direct_rng, sums_rng):
        """(per-shot sums, white-noise sums) of one batch of m shots."""
        basis = shots._basis(cfg, template)
        direct = zero_shift_sums(*shots._generate_batch(
            cfg, template, basis, direct_rng, m)[:2])
        summed = white_noise_sums(*shots._noise_free_batch(
            cfg, template, basis, sums_rng, m)[:2], cfg.phase_noise_rms,
            sums_rng)
        return direct, summed

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_counts_equal_per_shot_path(self, name):
        # the draws before the noise are shared, so the bins hold the same
        # rows, and so the same counts, on both paths
        cfg = self.CONFIGS[name]
        template = xps_template(cfg)
        for b, m in enumerate((1, 2, 300, shots.BATCH_SIZE)):
            direct, summed = self.both_paths(cfg, template, m,
                                             shots._batch_rng(8, 0, b),
                                             shots._batch_rng(8, 0, b))
            assert (summed.count, summed.n_click) == (direct.count,
                                                      direct.n_click)

    def test_sums_match_per_shot_path(self):
        # every bin's S1 and S2 at every sample, over 2,000 batches of 64
        # rows on each path, from streams apart: the 3 x 144 two-sample KS
        # p-values are uniform
        n_batches, m = 2000, 64
        p_values = []
        for cfg in self.CONFIGS.values():
            template = xps_template(cfg)
            pairs = [self.both_paths(cfg, template, m,
                                     shots._batch_rng(21, 0, b),
                                     shots._batch_rng(21, 1, b))
                     for b in range(n_batches)]
            p_values.append(ks_p_values(
                *(np.array([bin_sums(pair[i]) for pair in pairs])
                  for i in (0, 1))))
        p_values = np.concatenate(p_values)
        assert p_values.size == 3 * 4 * N
        assert stats.kstest(p_values, "uniform").pvalue > 0.01
        assert np.mean(p_values < 0.01) < 0.03

    @pytest.mark.parametrize("clicks", [[True], [True, False, True],
                                        [False, True, True, False]],
                             ids=["bins 1 and 0", "bins 2 and 1",
                                  "bins 2 and 2"])
    def test_small_bins_exact(self, clicks):
        # fixed rows of 0, 1 and 2 per bin: the sums' distribution over
        # 4,000 noise draws against the rows with their noise added
        sigma, draws = 0.3, 4000
        clicks = np.array(clicks)
        rows = np.random.default_rng(4).standard_normal((clicks.size, 3))
        rng = np.random.default_rng(5)
        direct = np.array([bin_sums(zero_shift_sums(
            rows + sigma * rng.standard_normal(rows.shape), clicks))
            for _ in range(draws)])
        summed = np.array([bin_sums(white_noise_sums(rows, clicks, sigma,
                                                     rng))
                           for _ in range(draws)])
        assert np.all(np.isfinite(summed))
        assert ks_p_values(direct, summed).min() > 1e-3
        for k, s1, s2 in ((clicks.sum(), summed[:, 0], summed[:, 1]),
                          ((~clicks).sum(), summed[:, 2], summed[:, 3])):
            if k == 0:  # an empty bin gets nothing
                assert np.all(s1 == 0.0) and np.all(s2 == 0.0)
            if k == 1:  # one row's S2 stays the square of its S1 (the
                # sums of unit-scale rows round at about 1e-16)
                np.testing.assert_allclose(s2, s1 * s1, rtol=1e-12,
                                           atol=1e-14)
            if k == 2:  # two rows' S2 - S1**2/2 stays >= 0
                assert np.all(s2 - s1 * s1 / 2 >= -1e-12)


class TestCoefficientSums:
    # RunningMoments.add_batch on a batch's coefficients and basis against
    # add_batch on the rows that `shots._noise_free_batch` builds from them

    @staticmethod
    def both_paths(cfg, m, rng_key, shift):
        """(row sums, coefficient sums) of one batch of m shots, each made
        about `shift`, or about the batch's first row when it is None."""
        template = xps_template(cfg)
        basis = shots._basis(cfg, template)
        phases, clicks, _ = shots._noise_free_batch(
            cfg, template, basis, shots._batch_rng(*rng_key), m)
        coeffs, coeff_clicks, _ = shots._noise_free_coefficients(
            cfg, template, shots._batch_rng(*rng_key), m)
        rows, summed = RunningMoments(N), RunningMoments(N)
        rows.shift = phases[0].copy() if shift is None else shift.copy()
        summed.shift = None if shift is None else shift.copy()
        rows.add_batch(phases, clicks)
        # every coefficient is known (q = 0), so nothing is drawn
        summed.add_batch(coeffs, coeff_clicks, basis,
                         np.random.default_rng(0))
        return rows, summed

    @pytest.mark.parametrize("shift", [None, 0.01], ids=["first row",
                                                         "shift set"])
    @pytest.mark.parametrize("name", list(TestWhiteNoiseSums.CONFIGS))
    def test_sums_match_rows(self, name, shift):
        # the same counts, and S1 and S2 equal to within 1e-12 of their
        # largest magnitude: the Gram-matrix sums round differently from
        # the row sums, at about 1e-15
        cfg = TestWhiteNoiseSums.CONFIGS[name]
        k = 6 if cfg.osc_amplitude else 5
        assert shots._basis(cfg, xps_template(cfg)).shape == (k, N)
        if shift is not None:
            shift = shift * np.random.default_rng(6).standard_normal(N)
        for b, m in enumerate((1, 2, 300, shots.BATCH_SIZE)):
            rows, summed = self.both_paths(cfg, m, (8, 0, b), shift)
            assert (summed.count, summed.n_click) == (rows.count,
                                                      rows.n_click)
            for got, want in ((summed.shift, rows.shift),
                              (summed.s1, rows.s1), (summed.s2, rows.s2)):
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestCalibrationBatch:
    # `_binned_batch`, which draws split-Poisson counts and sums the drift,
    # the oscillation's own g and the white noise as exact per-bin draws,
    # against add_batch on the rows of `shots._generate_batch`

    def test_sums_match_per_shot_path(self):
        # every bin's S1 and S2 at every sample, over 2,000 batches of 64
        # rows on each path, from streams apart: the 3 x 144 two-sample KS
        # p-values are uniform
        n_batches, m = 2000, 64
        p_values = []
        for cfg in TestWhiteNoiseSums.CONFIGS.values():
            template = xps_template(cfg)
            basis = shots._basis(cfg, template)
            cal_basis = shots._calibration_basis(cfg, template)
            direct, summed = [], []
            for b in range(n_batches):
                direct.append(bin_sums(zero_shift_sums(*shots._generate_batch(
                    cfg, template, basis, shots._batch_rng(22, 0, b), m)[:2])))
                moments = RunningMoments(N)
                moments.shift = np.zeros(N)
                moments.merge(_binned_batch(cfg, template, cal_basis,
                                            shots._batch_rng(22, 1, b), m))
                summed.append(bin_sums(moments))
            p_values.append(ks_p_values(np.array(direct), np.array(summed)))
        p_values = np.concatenate(p_values)
        assert p_values.size == 3 * 4 * N
        assert stats.kstest(p_values, "uniform").pvalue > 0.01
        assert np.mean(p_values < 0.01) < 0.03

    @pytest.mark.parametrize("clicks", [[True], [True, False, True],
                                        [True] * 6 + [False] * 2,
                                        [True] * 9 + [False] * 12],
                             ids=["bins 1 and 0", "bins 2 and 1",
                                  "bins q+1 and 2", "bins 9 and 12"])
    def test_small_bins_exact(self, clicks):
        # fixed known coefficients of 0, 1, 2 and q + 1 = 6 rows per bin,
        # fewer than the 3 columns of [1, y] or than the q = 5 normal ones,
        # and of 9 and 12 rows, enough for the full Bartlett factor: the
        # sums' distribution over 4,000 draws against the rows with their
        # normal coefficients drawn per row.  Unlike the configs above, the
        # unit-scale normal and known coefficients here weigh alike in S2
        q, draws = 5, 4000
        clicks = np.array(clicks)
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((q + 2, 3))
        known = rng.standard_normal((clicks.size, 2))
        direct = np.array([bin_sums(zero_shift_sums(
            rng.standard_normal((clicks.size, q)) @ basis[:q]
            + known @ basis[q:], clicks)) for _ in range(draws)])
        summed = []
        for _ in range(draws):
            moments = RunningMoments(3)
            moments.shift = np.zeros(3)
            moments.add_batch(known, clicks, basis, rng)
            summed.append(bin_sums(moments))
        summed = np.array(summed)
        assert np.all(np.isfinite(summed))
        assert ks_p_values(direct, summed).min() > 1e-3
        for k, s1, s2 in ((clicks.sum(), summed[:, 0], summed[:, 1]),
                          ((~clicks).sum(), summed[:, 2], summed[:, 3])):
            if k == 0:  # an empty bin gets nothing
                assert np.all(s1 == 0.0) and np.all(s2 == 0.0)
            if k == 1:  # one row's S2 stays the square of its S1 (S2 is
                # a sum of 49 Gram terms of up to about 10, which round at
                # about 1e-14)
                np.testing.assert_allclose(s2, s1 * s1, rtol=1e-12,
                                           atol=1e-12)
            assert np.all(s2 - s1 * s1 / max(k, 1) >= -1e-12)


class TestCorrection:
    def _fit(self, amp, se=1e-6):
        return FitResult(amplitude=amp, amplitude_se=se, chi2_per_dof=1.0)

    def test_zero_s2_identity(self):
        raw = self._fit(1e-5)
        out = correct_phi_T(raw, 0.0, 134.0, self._fit(2e-5))
        assert out.amplitude == raw.amplitude
        assert out.amplitude_se == raw.amplitude_se

    def test_documented_arithmetic(self):
        # raw/phi0 = 0.87 reduced by s2 * mu = 9e-4 * 134 = 0.1206
        phi0 = self._fit(-20e-6, se=0.0)
        raw = self._fit(0.87 * -20e-6, se=0.0)
        out = correct_phi_T(raw, 9e-4, 134.0, phi0)
        assert out.amplitude / phi0.amplitude == pytest.approx(0.87 - 0.1206,
                                                               rel=1e-9)

    def test_errors_in_quadrature(self):
        phi0 = self._fit(-20e-6, se=1e-6)
        raw = self._fit(-15e-6, se=2e-6)
        out = correct_phi_T(raw, 9e-4, 134.0, phi0, s2_se=1e-4)
        expect = np.sqrt((2e-6) ** 2
                         + (20e-6 * 134 * 1e-4) ** 2
                         + (9e-4 * 134 * 1e-6) ** 2)
        assert out.amplitude_se == pytest.approx(expect, rel=1e-9)


class TestCombine:
    def _fit(self, amp, se):
        return FitResult(amplitude=amp, amplitude_se=se, chi2_per_dof=1.0)

    def test_single_entry_passthrough(self):
        phi_t = self._fit(-15e-6, 1e-6)
        phi_0 = self._fit(-20e-6, 1e-8)
        out = combine_detunings([(1.0, phi_t, phi_0)])
        assert out.ratio == pytest.approx(0.75, rel=1e-3)
        assert out.se == pytest.approx(1e-6 / 20e-6, rel=1e-2)

    def test_equal_error_mean(self):
        phi_0 = self._fit(-20e-6, 1e-9)
        a = combine_detunings([(1.0, self._fit(-14e-6, 1e-6), phi_0),
                               (2.0, self._fit(-16e-6, 1e-6), phi_0)])
        assert a.ratio == pytest.approx((0.7 + 0.8) / 2, rel=1e-6)
        single = combine_detunings([(1.0, self._fit(-14e-6, 1e-6), phi_0)])
        assert a.se == pytest.approx(single.se / np.sqrt(2), rel=1e-6)

    def test_insignificant_phi0_rejected(self):
        with pytest.raises(DataFormatError):
            combine_detunings([(1.0, self._fit(1e-6, 1e-6),
                                self._fit(2e-6, 1e-6))])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            combine_detunings([])


class TestClickInference:
    def _campaign(self, cfg, n, seed=0):
        return list(iter_batches(cfg, n, seed))

    def test_small_eta_excess_one(self):
        cfg = ExperimentConfig(eta_detect=0.01, p_transmit=0.4)
        rep = click_excess(self._campaign(cfg, 400000, seed=19))
        oracle = exact_click_excess(34.0, 0.4, 0.01, cfg.dark_prob)
        assert abs(oracle - 1.0) < 0.01  # analytic check of the regime
        assert abs(rep.delta_phi[0] - 1.0) < 5 * rep.se_delta[0]
        assert abs(rep.delta_phi[1]) < 5 * rep.se_delta[1]

    def test_large_eta_matches_exact_summation(self):
        # small photon number, eta = 0.5: excess below 1, deviation negative
        cfg = ExperimentConfig(mean_photons=0.5, eta_detect=0.5,
                               p_transmit=0.4)
        rep = click_excess(self._campaign(cfg, 400000, seed=23))
        oracle = exact_click_excess(0.5, 0.4, 0.5, cfg.dark_prob)
        assert oracle < 1.0
        assert abs(rep.delta_phi[0] - oracle) < 5 * rep.se_delta[0]

    def test_dark_only_zero_excess(self):
        cfg = ExperimentConfig(mean_photons=0.0)
        rep = click_excess(self._campaign(cfg, 50000, seed=29))
        assert rep.delta_phi[0] == 0.0
        assert rep.delta_phi[1] == 0.0

    def test_small_bin_rejected(self):
        # a dark-count-only campaign of 5,000 shots has about 50 clicks
        cfg = ExperimentConfig(mean_photons=0.0)
        with pytest.raises(DataFormatError, match="bin 'click'"):
            click_excess(self._campaign(cfg, 5000, seed=29))


@pytest.fixture(scope="module")
def boosted_file(tmp_path_factory):
    # the acceptance "boosted" campaign (phi_atom x50), 300k shots
    cfg = CFG.replace(phi_atom=50 * CFG.phi_atom)
    path = tmp_path_factory.mktemp("boosted") / "shots.bin"
    run_campaign(cfg, 300_000, seed=2024, out_path=path)
    yield path, cfg
    path.unlink()


class TestAnalyzeFile:
    def test_report_independent_of_batch_size(self, boosted_file,
                                              monkeypatch):
        # only the shift (the first batch's mean) and the order in which the
        # sums are added differ, which moves the report by about 1e-14
        # relative
        path, cfg = boosted_file
        report, _ = analyze_file(path, cfg)
        read = shotfile.iter_shot_batches

        def recut(path):  # each file batch in 300-row pieces
            for phases, clicks in read(path):
                for i in range(0, len(clicks), 300):
                    yield phases[i:i + 300], clicks[i:i + 300]

        monkeypatch.setattr(shotfile, "iter_shot_batches", recut)
        small, _ = analyze_file(path, cfg)
        assert small.keys() == report.keys()
        for key, value in report.items():
            np.testing.assert_allclose(small[key], value, rtol=1e-12, atol=0,
                                       err_msg=key)


class TestMemory:
    def test_analysis_peak(self, boosted_file):
        # analysis holds one 4,096-record batch (1.2 MB) and add_batch's
        # one difference array (1.2 MB): this reads 2.5 MiB
        # under tracemalloc whatever the file size.  Batches of 65,536
        # records read 41 MiB
        path, cfg = boosted_file
        analyze_file(path, cfg)
        tracemalloc.start()
        try:
            analyze_file(path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_calibration_peak(self):
        # each batch is generated and summed on one thread from its
        # coefficients (0.2 MB), never as 36-sample rows, and only the sums
        # are kept: at two workers the four 200k-shot points read 1.5 MiB
        # under tracemalloc, and so do 400k.  Summing each batch's rows,
        # with its phases, scratch rows and difference array (1.2 MB each),
        # read 7.3 MiB, and batches queued back to the calling thread to be
        # binned there read 9.3 MiB
        run_calibration(CFG, CAL_PHOTONS, 200_000, seed=1, workers=2)
        tracemalloc.start()
        try:
            run_calibration(CFG, CAL_PHOTONS, 200_000, seed=1, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
