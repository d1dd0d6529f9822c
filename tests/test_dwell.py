import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from xdwell import (
    ConfigError,
    ConvergenceError,
    DwellBreakdown,
    MediumSpec,
    PulseSpec,
    bloch,
    cli,
    dwell,
    egalitarian_broadband,
    gaussian_envelope,
    min_coherent_model,
    transmission_probability,
)

from conftest import (
    SPECTRAL_ODS,
    SPECTRAL_PULSES,
    TAU_SP,
    dense_spectral_oracle,
    egalitarian_monochromatic,
    min_coherent_point,
)

# regression targets frozen from pre-build oracle runs
EGAL_10NS_OD4 = {"tauT": 0.5916947, "tauL": 0.6023804, "ratio": 0.9893143}
MINCOH_10NS_OD4_RATIO = 0.683707
MINCOH_50NS_OD4_RATIO = 0.423962
MINCOH_10NS_OD001_TAUL = 0.998889
DEFAULT_OD_GRID = [0.01, 0.25, 0.5, 1, 1.5, 2, 3, 4]
# decreasing, repeated, negative, infinite
BAD_OD_GRIDS = [[4, 1], [0.5, 0.5], [-1, 1], [1, float("inf")]]
# `xdwell models` on an empty [models] section
GOLDEN_CURVES = Path(__file__).parent / "data" / "model_curves_default.csv"
# the min-coherent rows of that sweep from the fate-hazard form on a
# 16,384 + 32,768-sample Richardson pair, converged in time to about 2e-11;
# it shares no time integration with the model's g-form, so it is an
# independent oracle.  Written by make_model_curves_reference.py
REFERENCE_CURVES = (Path(__file__).parent / "data"
                    / "model_curves_reference.csv")


def uniform_accrual_oracle(a, n=2_000_001):
    """Independent numeric oracle for the egalitarian closed forms.

    A photon accrues dwell uniformly in depth until scattered at z with
    density (a/L) exp(-a z/L), or transmitted with weight exp(-a); the
    normalization fixes Gamma tau0 = P_L.
    """
    z = np.linspace(0.0, 1.0, n)
    p_loss = 1.0 - np.exp(-a)
    # accrual rate a tau_sp per unit length makes Gamma tau0 = P_L hold
    # automatically; transmitted photons traverse the full length
    tau_t = a
    mean_z_lost = np.trapezoid(z * a * np.exp(-a * z), z) / p_loss
    tau_l = a * mean_z_lost
    return tau_t, tau_l, p_loss


class TestEgalitarianMonochromatic:
    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 4.0])
    def test_matches_accrual_oracle(self, a):
        o_t, o_l, o_pl = uniform_accrual_oracle(a)
        b = egalitarian_monochromatic(a)
        assert b.tauT == pytest.approx(o_t, rel=1e-6)
        assert b.tauL == pytest.approx(o_l, rel=1e-5)
        assert b.p_loss == pytest.approx(o_pl, rel=1e-12)

    def test_low_od_limits(self):
        b = egalitarian_monochromatic(0.01)
        assert b.tauT == pytest.approx(0.01, abs=1e-4)
        assert b.tauL == pytest.approx(0.005, rel=0.10)

    def test_od4(self):
        b = egalitarian_monochromatic(4.0)
        assert b.tauT / b.tau0 == pytest.approx(4.0 / (1.0 - np.exp(-4.0)),
                                                abs=1e-6)
        assert b.p_loss == pytest.approx(1.0 - np.exp(-4.0), abs=1e-12)

    @pytest.mark.parametrize("a", [0.01, 0.3, 1.0, 2.5, 4.0, 10.0])
    def test_identities_exact(self, a):
        b = egalitarian_monochromatic(a)
        assert b.tau0 == pytest.approx(b.p_loss, abs=1e-12)
        mix = b.p_loss * b.tauL + (1 - b.p_loss) * b.tauT
        assert mix == pytest.approx(b.tau0, abs=1e-12)
        # no super-lifetime dwell for lost photons
        assert b.tauL <= 1.0 + 1e-3
        # tauT/tau_sp = OD exactly
        assert b.tauT == a

    def test_zero_od(self):
        b = egalitarian_monochromatic(0.0)
        assert (b.tau0, b.tauL, b.tauT, b.p_loss) == (0, 0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            egalitarian_monochromatic(-1.0)


class TestEgalitarianBroadband:
    def test_narrowband_limit_matches_monochromatic(self, medium_od4):
        # residual deviation scales as (sigma_omega / Gamma)^2; at 1 us it
        # is ~3e-3 in tauT, reaching 1e-3 needs a few microseconds rms
        mono = egalitarian_monochromatic(4.0)
        for sigma_t, tol in ((1e-6, 3e-3), (5e-6, 1e-3)):
            [bb] = egalitarian_broadband(PulseSpec(intensity_rms=sigma_t),
                                         medium_od4)
            for name in ("tau0", "tauL", "tauT", "p_loss"):
                assert getattr(bb, name) == pytest.approx(
                    getattr(mono, name), abs=tol), (sigma_t, name)

    def test_od_zero(self, pulse_10ns):
        [b] = egalitarian_broadband(pulse_10ns,
                                    MediumSpec.from_lifetime(0.0, TAU_SP))
        assert b.tau0 == 0.0 and b.p_loss == 0.0

    def test_frozen_broadband_values(self, pulse_10ns, medium_od4):
        [b] = egalitarian_broadband(pulse_10ns, medium_od4)
        assert b.tauT == pytest.approx(EGAL_10NS_OD4["tauT"], abs=1e-6)
        assert b.tauL == pytest.approx(EGAL_10NS_OD4["tauL"], abs=1e-6)
        assert b.tauT / b.tau0 == pytest.approx(EGAL_10NS_OD4["ratio"],
                                                abs=1e-6)

    def test_p_loss_matches_transmission(self, pulse_10ns, medium_od4):
        [b] = egalitarian_broadband(pulse_10ns, medium_od4)
        p_t = transmission_probability(pulse_10ns, medium_od4)
        assert b.p_loss == pytest.approx(1.0 - p_t, abs=1e-8)

    def test_identities(self, pulse_10ns, medium_od4):
        # both identities of `check_identities`, far inside its tolerance
        [b] = egalitarian_broadband(pulse_10ns, medium_od4)
        assert abs(b.tau0 - b.p_loss) <= 1e-9
        mix = b.p_loss * b.tauL + (1.0 - b.p_loss) * b.tauT
        assert abs(mix - b.tau0) <= 1e-9

    @pytest.mark.parametrize("sigma,carrier", SPECTRAL_PULSES)
    def test_averages_match_dense_oracle(self, sigma, carrier, medium_od4):
        # P_L, P_T tauT and P_L tauL, each a spectral average
        pulse = PulseSpec(intensity_rms=sigma, carrier_detuning=carrier)
        curve = egalitarian_broadband(pulse, medium_od4, SPECTRAL_ODS)
        for od, b in zip(SPECTRAL_ODS, curve):
            medium = medium_od4.with_od(od)
            p_loss = dense_spectral_oracle(pulse, medium,
                                           lambda a: -np.expm1(-a))
            pt_taut = dense_spectral_oracle(pulse, medium,
                                            lambda a: a * np.exp(-a))
            pl_taul = dense_spectral_oracle(
                pulse, medium, lambda a: -np.expm1(-a) - a * np.exp(-a))
            assert b.p_loss == pytest.approx(p_loss, abs=1e-9), od
            assert b.tauT * (1.0 - b.p_loss) == pytest.approx(pt_taut,
                                                              abs=1e-9), od
            assert b.tauL * b.p_loss == pytest.approx(pl_taul, abs=1e-9), od

    @pytest.mark.parametrize("grid", BAD_OD_GRIDS)
    def test_bad_od_grid(self, pulse_10ns, medium_od4, grid):
        with pytest.raises(ConfigError):
            egalitarian_broadband(pulse_10ns, medium_od4, grid)

    def test_grid_equals_per_od_calls(self, pulse_10ns, medium_od4):
        grid = [0.0] + SPECTRAL_ODS
        assert egalitarian_broadband(pulse_10ns, medium_od4, grid) == [
            egalitarian_broadband(pulse_10ns, medium_od4.with_od(od))[0]
            for od in grid]

    def test_missed_tolerance_fails_each_od(self, pulse_10ns, medium_od4,
                                            monkeypatch):
        # the halving estimate is >= 0, so a negative tolerance fails
        # every OD
        monkeypatch.setattr(dwell, "_BROADBAND_TOL", -1.0)
        curve = egalitarian_broadband(pulse_10ns, medium_od4, [0.0, 0.5, 4.0])
        assert all(isinstance(b, ConvergenceError) for b in curve)


def reference_curves():
    """{sigma_t_ns: (ODs, rows of tau0, tauL, tauT, tauT/tau0)}."""
    ref = np.loadtxt(REFERENCE_CURVES, delimiter=",", skiprows=1)
    return {s: (ref[ref[:, 0] == s, 1], ref[ref[:, 0] == s, 2:])
            for s in (10, 50)}


def default_curve(sigma_ns):
    """The min-coherent rows of `xdwell models` at one width, as an array
    of tau0, tauL, tauT, tauT/tau0 per OD of DEFAULT_OD_GRID."""
    medium = MediumSpec.from_lifetime(peak_od=1.0, tau_sp=TAU_SP)
    curve = min_coherent_model(PulseSpec(intensity_rms=sigma_ns * 1e-9),
                               medium, DEFAULT_OD_GRID)
    return np.array([[b.tau0, b.tauL, b.tauT, b.tauT / b.tau0]
                     for b in curve])


class TestMinCoherent:
    def test_frozen_od4_broadband(self, pulse_10ns, medium_od4):
        b = min_coherent_point(pulse_10ns, medium_od4)
        assert b.tauT / b.tau0 == pytest.approx(MINCOH_10NS_OD4_RATIO,
                                                abs=1e-3)
        b.check_identities()

    def test_frozen_od4_narrowband(self, pulse_50ns, medium_od4):
        b = min_coherent_point(pulse_50ns, medium_od4)
        assert b.tauT / b.tau0 == pytest.approx(MINCOH_50NS_OD4_RATIO,
                                                abs=1e-3)

    def test_bandwidth_ordering(self, pulse_10ns, pulse_50ns, medium_od4):
        broad = min_coherent_point(pulse_10ns, medium_od4)
        narrow = min_coherent_point(pulse_50ns, medium_od4)
        assert narrow.tauT / narrow.tau0 < broad.tauT / broad.tau0

    def test_low_od_limits(self, pulse_10ns):
        medium = MediumSpec.from_lifetime(0.01, TAU_SP)
        b = min_coherent_point(pulse_10ns, medium)
        assert b.tauL == pytest.approx(1.0, abs=0.05)
        assert b.tauL == pytest.approx(MINCOH_10NS_OD001_TAUL, abs=1e-3)
        assert b.tauT / b.tau0 < 0.1

    def test_drive_scale_invariance(self, pulse_10ns, medium_od4,
                                    monkeypatch):
        # normalized dwell is independent of the probe area in the weak regime
        monkeypatch.setattr(dwell, "_PROBE_AREA", 0.01)
        a = min_coherent_point(pulse_10ns, medium_od4)
        monkeypatch.setattr(dwell, "_PROBE_AREA", 0.04)
        b = min_coherent_point(pulse_10ns, medium_od4)
        assert a.tauT / a.tau0 == pytest.approx(b.tauT / b.tau0, abs=1e-3)

    @pytest.mark.parametrize("sigma", [10e-9, 50e-9])
    def test_depth_nodes_converged(self, sigma, medium_od4):
        # doubling the Gauss-Legendre nodes per panel moves tauT/tau0 by
        # well under the 1e-3 frozen-value tolerance
        pulse = PulseSpec(intensity_rms=sigma)
        for n in (8, 32):
            coarse, fine = (min_coherent_point(pulse, medium_od4, slices=k)
                            for k in (n, 2 * n))
            assert abs(coarse.tauT / coarse.tau0
                       - fine.tauT / fine.tau0) <= 2e-5, n

    def test_energy_consistency_internal(self, pulse_10ns, medium_od4):
        b = min_coherent_point(pulse_10ns, medium_od4)
        p_t = transmission_probability(pulse_10ns, medium_od4)
        assert b.p_loss == pytest.approx(1.0 - p_t, abs=2e-2)

    def test_too_few_slices(self, pulse_10ns, medium_od4):
        with pytest.raises(ConfigError):
            min_coherent_point(pulse_10ns, medium_od4, slices=7)

    # below the 512-sample floor, which at sigma_t 10 ns is finer than the
    # tau_sp / 4 step
    @pytest.mark.parametrize("n", [dwell._MIN_SAMPLES - 1, 254])
    def test_unusable_half_grid(self, pulse_10ns, medium_od4, n):
        with pytest.raises(ConfigError, match="n_samples"):
            min_coherent_model(pulse_10ns, medium_od4, n_samples=n)

    def test_step_coarser_than_lifetime_rule(self, medium_od4):
        # 512 samples over 32 x 200 ns and 10 lifetimes step 0.49 tau_sp
        pulse = PulseSpec(intensity_rms=200e-9)
        with pytest.raises(ConfigError, match="n_samples must be >= 1007"):
            min_coherent_model(pulse, medium_od4, n_samples=512)
        [b] = min_coherent_model(pulse, medium_od4, n_samples=1007)
        assert isinstance(b, DwellBreakdown)

    @pytest.mark.parametrize("grid", BAD_OD_GRIDS)
    def test_bad_od_grid(self, pulse_10ns, medium_od4, grid):
        with pytest.raises(ConfigError):
            min_coherent_model(pulse_10ns, medium_od4, grid)

    def test_depth_nodes_cached(self, pulse_10ns, medium_od4):
        # the panel nodes are built once per (OD grid, slices) and shared,
        # read-only, by every curve on that grid
        before = dwell._depth_nodes.cache_info()
        for _ in range(2):
            min_coherent_model(pulse_10ns, medium_od4, DEFAULT_OD_GRID)
        after = dwell._depth_nodes.cache_info()
        assert after.hits - before.hits >= 1
        nodes = dwell._depth_nodes(tuple(DEFAULT_OD_GRID), 8)
        assert nodes is dwell._depth_nodes(tuple(DEFAULT_OD_GRID), 8)
        assert not any(a.flags.writeable for a in nodes)

    @pytest.mark.parametrize("pulse", [PulseSpec(intensity_rms=10e-9),
                                       PulseSpec(intensity_rms=50e-9)])
    def test_grid_matches_single_od(self, pulse, medium_od4):
        # the grid's nodes differ from those of a lone OD (its own panels
        # of at most 1 OD); both rules are converged to a few 1e-7..1e-6
        curve = min_coherent_model(pulse, medium_od4, DEFAULT_OD_GRID)
        for od, b in zip(DEFAULT_OD_GRID, curve):
            one = min_coherent_point(pulse, medium_od4.with_od(od))
            for got, want in ((b.p_loss, one.p_loss), (b.tau0, one.tau0),
                              (b.tauL, one.tauL), (b.tauT, one.tauT),
                              (b.tauT / b.tau0, one.tauT / one.tau0)):
                assert got == pytest.approx(want, abs=2e-6), od

    def test_tau0_held_in_unit_interval(self, medium_od4):
        # at sigma_t 200 ns the extrapolated tau0 at OD 40 rounds to
        # 1.0000000000000013, past the [0, 1] that a DwellBreakdown allows
        pulse = PulseSpec(intensity_rms=200e-9)
        curve = min_coherent_model(pulse, medium_od4, [4, 10, 20, 40])
        assert all(isinstance(b, DwellBreakdown) and b.p_loss <= 1
                   for b in curve)
        # the clip leaves a value inside (0, 1) as it was, so on the
        # default grid it changes no byte of model_curves.csv
        for sigma in (10e-9, 50e-9):
            curve = min_coherent_model(PulseSpec(intensity_rms=sigma),
                                       medium_od4, DEFAULT_OD_GRID)
            assert all(0 < b.tau0 < 1 for b in curve)

    def test_zero_od_row(self, pulse_10ns, medium_od4):
        # a zero-width panel has no nodes
        zero, one = min_coherent_model(pulse_10ns, medium_od4, [0.0, 1.0])
        assert zero == DwellBreakdown(tau0=0.0, tauL=0.0, tauT=0.0,
                                      p_loss=0.0)
        assert one.p_loss > 0.0

    def test_no_super_lifetime_loss_dwell(self, pulse_10ns, pulse_50ns,
                                          medium_od4):
        for pulse in (pulse_10ns, pulse_50ns):
            b = min_coherent_point(pulse, medium_od4)
            assert b.tauL <= 1.0 + 1e-3


class TestTimeGrid:
    @pytest.mark.parametrize("sigma_ns", [10, 50])
    def test_default_curves_match_reference(self, sigma_ns):
        # the default grid errs by at most 1.8e-7 (sigma 50 ns) and 4.5e-8
        # (10 ns) over the four columns, so a grid 20 times less accurate
        # fails
        ods, want = reference_curves()[sigma_ns]
        assert list(ods) == DEFAULT_OD_GRID
        np.testing.assert_allclose(default_curve(sigma_ns), want, rtol=0,
                                   atol=5e-7)

    @pytest.mark.parametrize("sigma_ns,want", [(2, 512), (10, 512),
                                               (50, 512), (200, 1024)])
    def test_default_grid_rule(self, sigma_ns, want, medium_od4,
                               monkeypatch):
        # the smallest power of two of at least 512 whose step is at most
        # tau_sp / 4
        sizes = []

        def envelope(*args, n_samples, **kwargs):
            sizes.append(n_samples)
            return gaussian_envelope(*args, n_samples=n_samples, **kwargs)

        monkeypatch.setattr(dwell, "gaussian_envelope", envelope)
        min_coherent_point(PulseSpec(intensity_rms=sigma_ns * 1e-9),
                           medium_od4)
        assert sizes == [want]

    def test_default_grid_limit(self, medium_od4):
        # sigma_t 10 us would need 2**16 samples: the curve fails whole
        with pytest.raises(ConvergenceError, match="65536 time samples"):
            min_coherent_model(PulseSpec(intensity_rms=10e-6), medium_od4)

    def test_wide_pulse_curve_stands(self, medium_od4):
        # the coherent dwell of a 200 ns pulse is about 0, and rounding can
        # put it below 0: it is held in [0, tau0], not failed
        curve = min_coherent_model(PulseSpec(intensity_rms=200e-9),
                                   medium_od4, DEFAULT_OD_GRID)
        assert all(isinstance(b, DwellBreakdown) for b in curve)

    def test_default_curves_warn_nothing(self):
        # no overflow or invalid value in the g-form's gain ratios or its
        # crossing roots
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma_ns in (10, 50):
                default_curve(sigma_ns)


class TestBandLimit:
    @pytest.mark.parametrize("carrier", [0.0, 2 * np.pi * 5e6])
    @pytest.mark.parametrize("sigma_ns", [2, 10, 50, 200])
    def test_matches_every_bin(self, sigma_ns, carrier, monkeypatch):
        # the bins left out hold below 1e-16 of the spectrum's peak.  The
        # coherent part (1 - P_L) tauT is compared, not tauT: at 200 ns and
        # OD 20, P_T is 6e-8, and dividing by it lifts a rounding-level
        # change of the coherent part to 5e-7
        pulse = PulseSpec(intensity_rms=sigma_ns * 1e-9,
                          carrier_detuning=carrier)
        medium = MediumSpec.from_lifetime(1.0, TAU_SP)

        def parts():
            return np.array([
                (b.tau0, (1.0 - b.p_loss) * b.tauT) for b in (
                    min_coherent_point(pulse, medium.with_od(od))
                    for od in (1.0, 4.0, 20.0))])

        band = parts()
        monkeypatch.setattr(dwell, "_SPECTRUM_FLOOR", 0.0)
        np.testing.assert_allclose(band, parts(), rtol=0, atol=1e-12)


class TestSweep:
    def test_single_zero_point(self, pulse_10ns, medium_od4):
        [b] = egalitarian_broadband(pulse_10ns, medium_od4.with_od(0.0))
        assert b.tau0 == 0.0

    def test_monotone_p_loss(self, pulse_10ns, medium_od4):
        p = [egalitarian_broadband(pulse_10ns,
                                   medium_od4.with_od(od))[0].p_loss
             for od in (0.5, 1, 2, 4)]
        assert all(b > a for a, b in zip(p, p[1:]))

    def test_point_failure_annotated(self, tmp_path, monkeypatch):
        # the sweep is the `models` command: a failed point is written as
        # a comment and the sweep goes on
        real = cli.min_coherent_model

        def fail_at_od4(pulse, medium, od_grid, **kw):
            return [ConvergenceError("synthetic failure") if od == 4.0 else b
                    for od, b in zip(od_grid,
                                     real(pulse, medium, od_grid, **kw))]

        monkeypatch.setattr(cli, "min_coherent_model", fail_at_od4)
        cfg = tmp_path / "m.ini"
        cfg.write_text("[models]\nod_grid = 1,4\nslices = 32\n")
        out = tmp_path / "models"
        assert cli.main(["models", "--config", str(cfg), "--out",
                         str(out)]) == 0
        rows = (out / "model_curves.csv").read_text().splitlines()
        # grid order: each failed point sits between its curve's OD 1 row
        # and the next curve
        assert [r.split(",")[0] for r in rows[1:]] == (
            ["egalitarian"] * 4 + ["min-coherent", "# min-coherent"] * 2)
        failed = [r for r in rows if r.startswith("#")]
        assert len(failed) == 2  # both bandwidths at OD 4
        assert all("peak_od=4 failed: synthetic failure" in r
                   for r in failed)
        assert [r.split(",")[1] for r in failed] == [
            "sigma_t=1e-08", "sigma_t=5e-08"]

    def test_egalitarian_failure_annotated(self, tmp_path, monkeypatch):
        # every egalitarian OD misses the tolerance: one comment line each,
        # and the min-coherent curves are written in full
        monkeypatch.setattr(dwell, "_BROADBAND_TOL", -1.0)
        cfg = tmp_path / "m.ini"
        cfg.write_text("[models]\nod_grid = 0.5,4\n")
        out = tmp_path / "models"
        assert cli.main(["models", "--config", str(cfg), "--out",
                         str(out)]) == 0
        rows = (out / "model_curves.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == (
            ["# egalitarian"] * 4 + ["min-coherent"] * 4)
        assert all("failed: broadband aggregation error" in r
                   for r in rows[:4])

    @pytest.mark.parametrize("where", ["tau0", "spectral", "egalitarian"])
    def test_nan_point_annotated(self, tmp_path, monkeypatch, where):
        # a NaN in one OD's checks (the dwell past OD 1, the spectral P_L
        # or the egalitarian error at OD 4) fails that OD: a comment line
        # at each bandwidth, exit 0, and every other row as in a clean run
        cfg = tmp_path / "m.ini"
        cfg.write_text("[models]\nod_grid = 1,4\nslices = 32\n")
        clean = tmp_path / "clean"
        assert cli.main(["models", "--config", str(cfg), "--out",
                         str(clean)]) == 0
        if where == "tau0":
            real = dwell._node_integrals

            def nan_deep(depths, *args):
                integrals = real(depths, *args)
                if depths[0] > 1.0:
                    integrals[0] = np.nan
                return integrals

            monkeypatch.setattr(dwell, "_node_integrals", nan_deep)
        elif where == "spectral":
            real = dwell.transmission_probability

            def nan_last(pulse, medium, ods):
                p = real(pulse, medium, ods)
                p[-1] = np.nan
                return p

            monkeypatch.setattr(dwell, "transmission_probability", nan_last)
        else:
            real = dwell._spectral_average

            def nan_error(*args):
                values, errors = real(*args)
                errors[..., -1] = np.nan
                return values, errors

            monkeypatch.setattr(dwell, "_spectral_average", nan_error)
        out = tmp_path / "models"
        assert cli.main(["models", "--config", str(cfg), "--out",
                         str(out)]) == 0
        rows = (out / "model_curves.csv").read_text().splitlines()
        want = (clean / "model_curves.csv").read_text().splitlines()
        model = "egalitarian" if where == "egalitarian" else "min-coherent"
        failed = [i for i, r in enumerate(want)
                  if r.startswith(f"{model},") and r.split(",")[2] == "4"]
        assert len(failed) == 2  # both bandwidths at OD 4
        for i, row in enumerate(rows):
            if i in failed:
                assert row.startswith(f"# {model},sigma_t=")
                assert "peak_od=4 failed: " in row
            else:
                assert row == want[i]

    def test_default_curves_match_golden(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text("[models]\n")
        assert cli.main(["models", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        rows = [r.split(",") for r in
                (tmp_path / "model_curves.csv").read_text().splitlines()]
        golden = [r.split(",") for r in GOLDEN_CURVES.read_text().splitlines()]
        assert rows[0] == golden[0]
        assert [r[:3] for r in rows] == [r[:3] for r in golden]
        got = np.array([r[3:] for r in rows[1:]], dtype=float)
        want = np.array([r[3:] for r in golden[1:]], dtype=float)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def in_new_thread(fn):
    """fn() run in a thread of its own, so it starts with no per-thread
    state that an earlier test left."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    [result] = box
    return result


def traced_peak(fn):
    """Peak traced memory while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_min_coherent_point_peak(self, pulse_10ns, medium_od4):
        # on a 4,096-sample grid the call's workspace takes 4 MiB for
        # 32-node blocks, of a peak that measures 4.6 MiB; 128 nodes in one
        # block would take 16 MiB (the curve test below bounds the peak on
        # the default grid)
        min_coherent_model(pulse_10ns, medium_od4)
        peak = traced_peak(lambda: min_coherent_model(
            pulse_10ns, medium_od4, slices=128, n_samples=4096))
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("od_grid,slices", [(DEFAULT_OD_GRID, 8),
                                                ([4.0], 128)])
    def test_min_coherent_curve_peak(self, pulse_10ns, medium_od4, od_grid,
                                     slices):
        # nodes go through in blocks of at most 64 on the default
        # 512-sample grid, in one workspace of 4 floats per sample and
        # node, whatever the number of nodes (512 at OD 4 x 128).  Each
        # curve makes its own 1 MiB workspace and frees it on return, so
        # two curves in a row peak as one does: 1.24 and 1.25 MiB for the
        # two cases
        def run():
            min_coherent_model(pulse_10ns, medium_od4, od_grid,
                               slices=slices)

        run()
        peak = traced_peak(lambda: (run(), run()))
        assert peak <= 1.5 * 2**20


    def test_egalitarian_sweep_peak(self, pulse_10ns, medium_od4):
        # the default OD sweep at sigma_t 10 ns averages a (3, 8, 765)
        # stack of terms (147 KB), written into one array and weighted in
        # place after the coarse sums: its peak measures 239 KiB, where
        # stacking the terms and weighting a copy read 367 KiB
        egalitarian_broadband(pulse_10ns, medium_od4, DEFAULT_OD_GRID)
        peak = traced_peak(lambda: egalitarian_broadband(
            pulse_10ns, medium_od4, DEFAULT_OD_GRID))
        assert peak <= 280 * 2**10


class TestWorkspace:
    """Each min_coherent_model call makes one node-block workspace, which
    its blocks share and which is freed when the call returns."""

    def test_threads_equal_serial(self, medium_od4):
        # four threads at once (more than the cores a CI runner has), each
        # on its own workspace, switching often, on grids of 512 and 1,024
        # samples in turn: every curve equals the serial one bit for bit
        pulses = [PulseSpec(intensity_rms=s) for s in (10e-9, 50e-9)]
        runs = [(pulse, n) for pulse in pulses for n in (None, 1024)]

        def curve(pulse, n):
            return [float(x).hex() for b in min_coherent_model(
                pulse, medium_od4, DEFAULT_OD_GRID, n_samples=n)
                for x in (b.tau0, b.tauL, b.tauT, b.p_loss)]

        serial = [curve(*run) for run in runs]
        order = [[(k + i) % len(runs) for i in range(6)] for k in range(4)]
        start = threading.Barrier(len(order))
        results = {}

        def worker(k):
            start.wait()
            results[k] = [curve(*runs[j]) for j in order[k]]

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(order))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, got in sorted(results.items()):
            assert got == [serial[j] for j in order[k]]
        assert len(results) == len(order)

    @pytest.mark.parametrize("n_samples,blocks", [(None, 1), (1024, 2),
                                                  (4096, 2)])
    def test_blocks_per_curve(self, medium_od4, monkeypatch, n_samples,
                              blocks):
        # a default curve's 64 depth nodes go through as one block on the
        # default 512-sample grid, so the g-form's root solve and scan run
        # once per curve; on 1,024 and 4,096 samples the blocks hold 32
        # nodes, two per curve, as they did at every grid before the cell
        # budget
        calls = {"_backward_scan": 0, "_cubic_root": 0}
        for name in calls:
            def counted(*args, _real=getattr(bloch, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(bloch, name, counted)
        for sigma in (10e-9, 50e-9):
            min_coherent_model(PulseSpec(intensity_rms=sigma), medium_od4,
                               DEFAULT_OD_GRID, n_samples=n_samples)
        assert calls == {"_backward_scan": 2 * blocks,
                         "_cubic_root": 2 * blocks}

    def test_block_width_changes_no_bits(self, medium_od4, monkeypatch):
        # blocks forced to 8, 16, 32 and 64 nodes give the same curves bit
        # for bit on both default grids
        def curves():
            return [[float(x).hex() for b in min_coherent_model(
                PulseSpec(intensity_rms=sigma), medium_od4, DEFAULT_OD_GRID,
                n_samples=n) for x in (b.tau0, b.tauL, b.tauT, b.p_loss)]
                for sigma in (10e-9, 50e-9) for n in (None, 1024)]

        got = {}
        for width in (8, 16, 32, 64):
            monkeypatch.setattr(dwell, "_block_nodes", lambda n, w=width: w)
            got[width] = curves()
        assert got[8] == got[16] == got[32] == got[64]

    def test_no_workspace_retained(self, pulse_10ns, medium_od4):
        # after a default curve and one on 8,192 samples (an 8 MiB
        # workspace), the thread holds no more than 64 KiB for its own
        # objects (they measure 7 KiB): neither call's workspace outlives
        # it.  A fresh thread, so that no workspace an earlier call could
        # have left there hides a retained one
        min_coherent_model(pulse_10ns, medium_od4, [4.0], n_samples=8192)

        def held():
            min_coherent_model(pulse_10ns, medium_od4, [4.0])
            min_coherent_model(pulse_10ns, medium_od4, [4.0], n_samples=8192)
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            assert in_new_thread(held) <= 2**16
        finally:
            tracemalloc.stop()

    def test_default_csv_byte_identical(self, tmp_path, monkeypatch):
        # no output reads memory it has not written: with every float array
        # that np.empty returns filled with NaN first (the node workspace
        # among them), the default sweep is the golden file byte for byte
        empty, poisoned = np.empty, []

        def nan_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            if a.dtype.kind in "fc":
                a.fill(np.nan)
                poisoned.append(a.nbytes)
            return a

        monkeypatch.setattr(np, "empty", nan_empty)
        cfg = tmp_path / "m.ini"
        cfg.write_text("[models]\n")
        assert cli.main(["models", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "model_curves.csv").read_bytes()
                == GOLDEN_CURVES.read_bytes())
        assert (dwell._WORK_PER_CELL * dwell._BLOCK_CELLS
                * np.dtype(float).itemsize) in poisoned


class TestBreakdownValidation:
    def test_identity_violation_raises(self):
        bad = DwellBreakdown(tau0=0.5, tauL=0.9, tauT=0.9, p_loss=0.2)
        with pytest.raises(ConvergenceError):
            bad.check_identities()

    def test_nan_identity_raises(self):
        bad = DwellBreakdown(tau0=float("nan"), tauL=0.5, tauT=0.5,
                             p_loss=0.5)
        with pytest.raises(ConvergenceError):
            bad.check_identities()

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            DwellBreakdown(tau0=-0.1, tauL=0.0, tauT=0.0, p_loss=0.0)
        with pytest.raises(ConfigError):
            DwellBreakdown(tau0=0.1, tauL=0.1, tauT=0.1, p_loss=1.5)
