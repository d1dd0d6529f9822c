import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from xdwell import (
    BATCH_SIZE,
    ConfigError,
    ExperimentConfig,
    expected_click_rate,
    iter_batches,
    run_campaign,
    xps_template,
)
from xdwell import shots
from xdwell.estimator import bin_and_average
from xdwell.shots import (
    anchored_phi_atom,
    tau0_per_photon,
    xps_template_curve,
    _drift_basis,
    _osc_shape,
)


def analytic_click_excess(mu, p_t, eta, dark):
    """Exact conditional transmitted-photon excess for the thinned-Poisson
    click model with independent dark counts.

    n_T ~ Poisson(nu); P(no signal click | n_T) = (1-eta)^n_T.
    """
    nu = mu * p_t
    q = 1.0 - eta
    p_sig = 1.0 - np.exp(-nu * eta)
    mean_nc = nu * q  # conditional on no signal click
    mean_sc = nu * (1.0 - q * np.exp(-nu * eta)) / p_sig
    # click bin mixes signal clicks with dark-only clicks
    w_sig = p_sig
    w_dark = (1.0 - p_sig) * dark
    mean_click = (w_sig * mean_sc + w_dark * mean_nc) / (w_sig + w_dark)
    return mean_click - mean_nc


def collect(cfg, n, seed=0):
    phases, clicks, truth = [], [], []
    for p, c, t in iter_batches(cfg, n, seed):
        phases.append(p)
        clicks.append(c)
        truth.append(t)
    return (np.concatenate(phases), np.concatenate(clicks),
            np.concatenate(truth))


class TestTemplate:
    def test_invariants(self):
        tpl = xps_template(ExperimentConfig())
        assert tpl.samples.max() == 1.0
        assert np.all(tpl.samples[:11] == 0.0)
        assert tpl.samples[-1] < 0.05

    def test_peak_position(self):
        # phase response peaks around 200 ns, samples 12-13
        tpl = xps_template(ExperimentConfig())
        assert int(np.argmax(tpl.samples)) in (12, 13)

    def test_degenerate_limit_is_gaussian(self):
        # huge bandwidth and tiny lifetime: template ~ pulse intensity
        cfg = ExperimentConfig(tau_sp=1e-12, meas_bandwidth=1e12)
        t, curve = xps_template_curve(cfg)
        center = cfg.arrival_index * cfg.sample_dt + 1.5 * cfg.sigma_t
        gauss = np.exp(-0.5 * ((t - center) / cfg.sigma_t) ** 2)
        gauss /= gauss.max()
        np.testing.assert_allclose(curve / curve.max(), gauss, atol=5e-3)

    @pytest.mark.parametrize("kw", [
        {}, {"tau_sp": 1e-12, "meas_bandwidth": 1e12},
        {"tau_sp": 10e-9, "meas_bandwidth": 50e6, "sigma_t": 5e-9}])
    def test_filters_match_lfilter(self, kw):
        # the in-package recurrence is scipy's lfilter bit for bit, so shot
        # files do not depend on which one built the template
        lfilter = pytest.importorskip("scipy.signal").lfilter
        cfg = ExperimentConfig(**kw)
        dt = shots._TEMPLATE_DT
        t, curve = xps_template_curve(cfg)
        center = cfg.arrival_index * cfg.sample_dt + 1.5 * cfg.sigma_t
        want = np.exp(-0.5 * ((t - center) / cfg.sigma_t) ** 2)
        want /= want.sum() * dt
        b_life = np.exp(-dt / cfg.tau_sp)
        want = lfilter([cfg.tau_sp * (1.0 - b_life)], [1.0, -b_life], want)
        b_lp = np.exp(-2.0 * np.pi * cfg.meas_bandwidth * dt)
        want = lfilter([1.0 - b_lp], [1.0, -b_lp], want)
        assert np.array_equal(curve, want)

    def test_area_equals_dwell_times_gain(self):
        # unnormalized curve integral = (1 photon s) x tau_sp x unit DC gain
        cfg = ExperimentConfig()
        t, curve = xps_template_curve(cfg)
        area = np.trapezoid(curve, t)
        assert area == pytest.approx(cfg.tau_sp, rel=1e-2)


class TestConfig:
    def test_probability_ranges(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p_transmit=1.2)
        with pytest.raises(ConfigError):
            ExperimentConfig(eta_detect=-0.1)

    def test_phase_noise_band(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(phase_noise_rms=0.01)
        with pytest.raises(ConfigError):
            ExperimentConfig(phase_noise_rms=0.9)

    def test_arrival_index_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(arrival_index=36)

    def test_oscillation_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(osc_period=-1.0)

    @pytest.mark.parametrize("key", [
        "osc_period", "osc_damping", "sample_dt", "meas_bandwidth"])
    def test_zero_scale_rejected_by_name(self, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: 0.0})

    def test_null_campaign_anchor(self):
        # with no photon lost there is no tau0 to anchor phi_atom on
        with pytest.raises(ConfigError, match="phi_atom"):
            ExperimentConfig(p_transmit=1.0)
        assert ExperimentConfig(p_transmit=1.0, phi_atom=1e-3).phi_atom == 1e-3
        # tauL_frac = 0 also gives tau0 = 0: the default fractions anchor it
        assert ExperimentConfig(tauL_frac=0.0).phi_atom == -5.102186964038106e-05

    def test_click_rate_warning(self):
        with pytest.warns(UserWarning):
            ExperimentConfig(eta_detect=0.9, dark_prob=0.0)

    def test_default_click_rate_in_expected_band(self):
        assert 0.2 <= expected_click_rate(ExperimentConfig()) <= 0.3

    @pytest.mark.parametrize("make", [
        lambda: ExperimentConfig(phi_atom=float("nan")),
        lambda: ExperimentConfig(tauL_frac=float("nan")),
        lambda: ExperimentConfig(drift=(float("inf"), 0, 0, 0)),
        lambda: ExperimentConfig(probe_detuning=float("inf")),
        lambda: ExperimentConfig(mean_photons=float("nan")),
        lambda: ExperimentConfig(osc_amplitude=float("nan")),
        lambda: ExperimentConfig(osc_period=float("inf")),
        lambda: next(iter_batches(ExperimentConfig(), 10, seed=-1)),
        lambda: next(iter_batches(ExperimentConfig(), 10, seed=2**64)),
    ], ids=["phi_atom-nan", "tauL_frac-nan", "drift-inf", "detuning-inf",
            "mean_photons-nan", "osc-amplitude-nan", "osc-period-inf",
            "seed-negative", "seed-2**64"])
    def test_non_finite_or_bad_seed_rejected(self, make):
        with pytest.raises(ConfigError):
            make()


class TestPhiAnchor:
    def test_anchor_value(self):
        # peak per-photon phase is -20 urad at the -5.6 MHz anchor detuning
        cfg = ExperimentConfig()
        tpl = xps_template(cfg)
        phi0 = cfg.phi_atom * tau0_per_photon(cfg) / tpl.area
        assert phi0 == pytest.approx(-20.0e-6, rel=1e-9)

    def test_positive_detuning_flips_sign(self):
        cfg = ExperimentConfig(probe_detuning=+2 * np.pi * 4.7e6)
        tpl = xps_template(cfg)
        phi0 = cfg.phi_atom * tau0_per_photon(cfg) / tpl.area
        assert phi0 > 0

    def test_tau0_self_consistency(self):
        # tau0 solves tau0 = P_L tauL_frac tau_sp + P_T tauT_frac tau0
        cfg = ExperimentConfig()
        tau0 = tau0_per_photon(cfg)
        rhs = ((1 - cfg.p_transmit) * cfg.tauL_frac * cfg.tau_sp
               + cfg.p_transmit * cfg.tauT_frac * tau0)
        assert tau0 == pytest.approx(rhs, rel=1e-12)


class TestStatistics:
    def test_click_rate_matches_analytic(self):
        cfg = ExperimentConfig()
        _, clicks, _ = collect(cfg, 200000, seed=5)
        p = expected_click_rate(cfg)
        se = np.sqrt(p * (1 - p) / clicks.size)
        assert abs(clicks.mean() - p) < 5 * se

    def test_truth_ordering(self):
        phases, clicks, truth = collect(ExperimentConfig(), 50000, seed=2)
        assert phases.shape == (50000, 36)
        assert clicks.dtype == bool
        assert truth.shape == (50000, 4)
        n, n_t, n_d = truth[:, 0], truth[:, 1], truth[:, 2]
        assert np.all(n_d <= n_t)
        assert np.all(n_t <= n)

    def test_mean_dwell_matches_expectation(self):
        cfg = ExperimentConfig()
        _, _, truth = collect(cfg, 200000, seed=3)
        expect = cfg.mean_photons * (
            (1 - cfg.p_transmit) * cfg.tauL_frac * cfg.tau_sp
            + cfg.p_transmit * cfg.tauT_frac * tau0_per_photon(cfg))
        se = truth[:, 3].std() / np.sqrt(truth.shape[0])
        assert abs(truth[:, 3].mean() - expect) < 3 * se

    def test_click_excess_matches_exact_oracle(self):
        cfg = ExperimentConfig(eta_detect=0.01, p_transmit=0.4)
        _, clicks, truth = collect(cfg, 400000, seed=7)
        n_t = truth[:, 1]
        diff = n_t[clicks].mean() - n_t[~clicks].mean()
        se = np.sqrt(n_t[clicks].var() / clicks.sum()
                     + n_t[~clicks].var() / (~clicks).sum())
        oracle = analytic_click_excess(cfg.mean_photons, cfg.p_transmit,
                                       cfg.eta_detect, cfg.dark_prob)
        assert abs(diff - oracle) < 5 * se

    def test_lost_photons_independent_of_click(self):
        cfg = ExperimentConfig()
        _, clicks, truth = collect(cfg, 400000, seed=11)
        lost = truth[:, 0] - truth[:, 1]
        r = np.corrcoef(lost, clicks.astype(float))[0, 1]
        assert abs(r) < 5.0 / np.sqrt(lost.size)

    def test_background_variance_budget(self):
        cfg = ExperimentConfig(
            mean_photons=0.0, dark_prob=0.0, phase_noise_rms=0.1,
            prop_noise_s=0.03,
            osc_amplitude=0.05, osc_eps_coupling=1.0)
        phases, _, _ = collect(cfg, 300000, seed=13)
        basis = _drift_basis(cfg)
        drift_var = (np.asarray(cfg.drift)[:, None] ** 2 * basis**2).sum(axis=0)
        osc_var = (cfg.osc_amplitude ** 2
                   * (1.0 + (cfg.osc_eps_coupling * cfg.prop_noise_s) ** 2)
                   * _osc_shape(cfg) ** 2)
        budget = cfg.phase_noise_rms ** 2 + drift_var + osc_var
        measured = phases.var(axis=0)
        assert np.mean(measured) == pytest.approx(np.mean(budget), rel=0.05)

    def test_zero_photons_never_clicks_without_dark(self):
        cfg = ExperimentConfig(mean_photons=0.0, dark_prob=0.0)
        _, clicks, truth = collect(cfg, 20000, seed=17)
        assert not clicks.any()
        assert np.all(truth[:, :3] == 0.0)


class TestDeterminism:
    def test_batches_reproducible(self):
        cfg = ExperimentConfig()
        a = collect(cfg, 70000, seed=42)
        b = collect(cfg, 70000, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_seed_changes_output(self):
        cfg = ExperimentConfig()
        a = collect(cfg, 1000, seed=1)
        b = collect(cfg, 1000, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_keys_distinct_across_seeds_and_campaigns(self):
        # a seed above 2**32 must not spell the key of a smaller seed's
        # later campaign and batch, and campaigns of one seed differ
        cfg = ExperimentConfig()

        def batches(n_shots, seed, campaign):
            jobs = shots._campaign_jobs(cfg, xps_template(cfg), n_shots, seed,
                                        campaign)
            return [shots._generate_batch(*job) for job in jobs]

        [big] = batches(BATCH_SIZE, seed=2**32 + 5, campaign=2)
        small = batches(3 * BATCH_SIZE, seed=5, campaign=1)
        [other] = batches(BATCH_SIZE, seed=5, campaign=0)
        assert not np.array_equal(big[0], small[2][0])
        assert not np.array_equal(other[0], small[0][0])
        # campaign 0 is what iter_batches generates
        np.testing.assert_array_equal(
            other[0], next(iter_batches(cfg, BATCH_SIZE, seed=5))[0])

    def test_prefix_stability_full_batches(self):
        # substreams are keyed per fixed-size batch, so campaigns agree on
        # whole-batch prefixes regardless of total length
        cfg = ExperimentConfig()
        small = collect(cfg, BATCH_SIZE, seed=9)[0]
        big = collect(cfg, BATCH_SIZE + 500, seed=9)[0]
        np.testing.assert_array_equal(big[:BATCH_SIZE], small)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_batches_in_flight_bounded(self, monkeypatch, workers):
        # a slow consumer must not let the generating threads run ahead by
        # more than 2 * workers batches
        real = shots._generate_batch
        generated = itertools.count(1)
        consumed = 0

        def one_row(cfg, template, rng, m):
            assert next(generated) - consumed <= 2 * workers
            return real(cfg, template, rng, 1)

        monkeypatch.setattr(shots, "_generate_batch", one_row)
        for _ in iter_batches(ExperimentConfig(), 12 * BATCH_SIZE, seed=0,
                              workers=workers):
            consumed += 1
            time.sleep(0.01)
        assert next(generated) - 1 == consumed == 12

    def test_workers_equivalent(self, tmp_path):
        cfg = ExperimentConfig()
        s1 = run_campaign(cfg, 80000, seed=21, out_path=tmp_path / "a.bin")
        s2 = run_campaign(cfg, 80000, seed=21, out_path=tmp_path / "b.bin",
                          workers=3)
        assert (tmp_path / "a.bin").read_bytes() == \
            (tmp_path / "b.bin").read_bytes()
        assert s1.click_rate == s2.click_rate


class TestScratch:
    # the generator adds its full-size terms into the phases through one
    # reused buffer per thread

    @pytest.mark.parametrize("kw,seed,workers,sha256", [
        ({}, 1, 1,
         "1ffc16f06845b91244c7b60e2a59496703a063155d91b16b9e2d82ad35877645"),
        ({"osc_amplitude": 0.01, "prop_noise_s": 0.05, "od_coupling": 0.5},
         3, 2,
         "119404ab69c49b95f4f7cb1d9c1c3c0c5124113a3a8d45f4023806c086aa49b8"),
    ], ids=["default", "oscillation"])
    def test_shot_file_pinned(self, tmp_path, kw, seed, workers, sha256):
        # 10,000-shot files, the bytes of files first hashed with truth
        # blocks when every term was a fresh temporary, with those blocks
        # dropped and the flags word 0: a change to the RNG draw order or
        # to the order of the additions changes these bytes
        path = tmp_path / "shots.bin"
        run_campaign(ExperimentConfig(**kw), 10_000, seed=seed,
                     out_path=path, workers=workers)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batches_do_not_alias_scratch(self, workers):
        # batches held together equal batches copied as they come, so no
        # yielded array is the buffer that a later batch overwrites
        cfg = ExperimentConfig(osc_amplitude=0.01)
        held = list(iter_batches(cfg, 3 * BATCH_SIZE, seed=4,
                                 workers=workers))
        copied = [tuple(np.copy(a) for a in batch) for batch in
                  iter_batches(cfg, 3 * BATCH_SIZE, seed=4, workers=workers)]
        assert len(held) == len(copied) == 3
        for batch, copy in zip(held, copied):
            for a, b in zip(batch, copy):
                np.testing.assert_array_equal(a, b)


class TestMemory:
    def test_campaign_peak(self):
        # batches in flight at two workers plus the running moments stay
        # near 10 MiB whatever the campaign size; holding the campaign or
        # L2-busting batches would pass 16 MiB
        cfg = ExperimentConfig()
        bin_and_average(iter_batches(cfg, 100_000, seed=1, workers=2))
        tracemalloc.start()
        try:
            bin_and_average(iter_batches(cfg, 1_000_000, seed=1, workers=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
