"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run desk-scale campaigns with injected truth; the
probe phase per atom is scaled up where the ratio-invariance property
allows, so the fixed shot budgets give statistically sharp checks.
"""

import time

import numpy as np
import pytest

from xdwell import (
    ExperimentConfig,
    MediumSpec,
    PulseSpec,
    bin_and_average,
    cli,
    correct_phi_T,
    fit_phi0,
    fit_transmitted,
    gaussian_envelope,
    iter_batches,
    propagate_spectral,
    pulse_area,
    transmission_probability,
    xps_template,
)
from xdwell.bloch import BlochConfig
from xdwell.estimator import (
    _calibration_eta,
    analyze_file,
    run_calibration,
)
from xdwell.shots import run_campaign

from conftest import (
    TAU_SP,
    click_excess,
    egalitarian_monochromatic,
    min_coherent_point,
)

# shot files are byte-identical at any worker count (criterion 11), so the
# large campaigns run on every available CPU
WORKERS = cli._available_cpus()


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def medium4():
    return MediumSpec.from_lifetime(4.0, TAU_SP)


@pytest.fixture(scope="module")
def pulse10():
    return PulseSpec(intensity_rms=10e-9)


def test_01_broadband_absorption(capsys, pulse10, medium4):
    start = time.time()
    p_loss = 1.0 - transmission_probability(pulse10, medium4)
    elapsed = time.time() - start
    ok = abs(p_loss - 0.60) < 0.05 and elapsed < 1.0
    report(capsys, 1, ok,
           f"P_L = {p_loss:.4f} (target 0.60 +- 0.05), {elapsed:.2f} s")


def test_02_monochromatic_limit_and_area_theorem(capsys, medium4):
    narrow = PulseSpec(intensity_rms=1e-6)
    p_t = transmission_probability(narrow, medium4)
    trans_ok = abs(p_t - np.exp(-4.0)) < 1e-4

    pulse = PulseSpec(intensity_rms=10e-9)
    env = gaussian_envelope(pulse, n_samples=4096, tail=300e-9)
    cfg = BlochConfig(gamma=1 / TAU_SP, rabi_per_amplitude=1.0)
    area0 = pulse_area(env, cfg)
    area_ok = True
    worst = 0.0
    for depth in (0.25, 0.5, 1.0):
        ratio = pulse_area(propagate_spectral(env, medium4, depth),
                           cfg) / area0
        err = abs(ratio / np.exp(-4.0 * depth / 2.0) - 1.0)
        worst = max(worst, err)
        area_ok &= err < 0.01
    report(capsys, 2, trans_ok and area_ok,
           f"narrowband P_T = {p_t:.6f} vs e^-4 = {np.exp(-4):.6f}; "
           f"area-theorem worst relative error {worst:.2e} (< 0.01)")


def test_03_dwell_identities_from_models_csv(capsys, tmp_path):
    ini = tmp_path / "models.ini"
    ini.write_text("[models]\nod_grid = 0.01,0.5,1,2,4\n")
    out = tmp_path / "models"
    assert cli.main(["models", "--config", str(ini), "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "model_curves.csv").read_text().splitlines()[1:]
            if not r.startswith("#")]
    worst = 0.0
    for r in rows:
        p_loss, tau0, tau_l, tau_t = map(float, (r[3], r[4], r[5], r[6]))
        worst = max(worst, abs(tau0 - p_loss),
                    abs(p_loss * tau_l + (1 - p_loss) * tau_t - tau0))
    ok = worst < 1e-3 and len(rows) == 20
    report(capsys, 3, ok,
           f"{len(rows)} model points, worst identity residual {worst:.2e} "
           "(< 1e-3)")


def test_04_egalitarian_limits(capsys):
    low = egalitarian_monochromatic(0.01)
    high = egalitarian_monochromatic(4.0)
    ok = (abs(low.tauT - 0.010) < 1e-4
          and abs(low.tauL / 0.005 - 1.0) < 0.10
          and abs(high.tauT / high.tau0 - 4.0 / (1 - np.exp(-4.0))) < 1e-6)
    report(capsys, 4, ok,
           f"OD 0.01: tauT = {low.tauT:.5f}, tauL = {low.tauL:.5f}; "
           f"OD 4: tauT/tau0 = {high.tauT / high.tau0:.6f}")


def test_05_min_coherent_limits(capsys, medium4):
    start = time.time()
    thin = min_coherent_point(PulseSpec(intensity_rms=10e-9),
                              MediumSpec.from_lifetime(0.01, TAU_SP))
    broad = min_coherent_point(PulseSpec(intensity_rms=10e-9), medium4)
    narrow = min_coherent_point(PulseSpec(intensity_rms=50e-9), medium4)
    elapsed = time.time() - start
    r_broad = broad.tauT / broad.tau0
    r_narrow = narrow.tauT / narrow.tau0
    ok = (abs(thin.tauL - 1.0) < 0.05
          and r_narrow < r_broad
          and 0.45 <= r_broad <= 1.10
          and elapsed < 60.0)
    report(capsys, 5, ok,
           f"low-OD tauL = {thin.tauL:.4f}; tauT/tau0 = {r_broad:.4f} "
           f"(10 ns) vs {r_narrow:.4f} (50 ns); {elapsed:.1f} s")


def test_06_energy_conservation(capsys, pulse10):
    worst = 0.0
    for od in (0.5, 1.0, 2.0, 4.0):
        medium = MediumSpec.from_lifetime(od, TAU_SP)
        b = min_coherent_point(pulse10, medium)
        p_loss = 1.0 - transmission_probability(pulse10, medium)
        worst = max(worst, abs(b.p_loss - p_loss))
    report(capsys, 6, worst < 0.02,
           f"worst |model P_L - spectral P_L| = {worst:.4f} (< 0.02)")


def test_07_click_statistics(capsys):
    start = time.time()
    cfg = ExperimentConfig(eta_detect=0.01, p_transmit=0.4)
    binned = click_excess(iter_batches(cfg, 1_000_000, seed=71))
    elapsed = time.time() - start
    (excess_t, excess_l), (se_t, se_l) = binned.delta_phi, binned.se_delta
    z_t = abs(excess_t - 1.0) / se_t
    z_l = abs(excess_l) / se_l
    ok = z_t < 5.0 and z_l < 5.0 and elapsed < 30.0
    report(capsys, 7, ok,
           f"transmitted excess = {excess_t:.4f} +- {se_t:.4f} "
           f"(z = {z_t:.2f}); lost excess = {excess_l:.4f} +- {se_l:.4f} "
           f"(z = {z_l:.2f}); {elapsed:.1f} s")


@pytest.fixture(scope="module")
def boosted_cfg():
    # default campaign (34 photons, ~26% clicks, 150 mrad noise, drift on,
    # injected tauT/tau0 = 0.77) with the per-atom phase scaled x50; the
    # ratio-invariance property keeps the recovered ratio unchanged while
    # making the desk-scale shot budgets statistically sharp
    base = ExperimentConfig()
    return base.replace(phi_atom=50 * base.phi_atom)


def test_08_end_to_end_recovery(capsys, tmp_path_factory, boosted_cfg):
    start = time.time()
    root = tmp_path_factory.mktemp("recovery")
    reports = {}
    for n in (100_000, 1_000_000, 10_000_000):
        path = root / f"shots_{n}.bin"
        run_campaign(boosted_cfg, n, seed=2024, out_path=path,
                     with_truth=False, workers=WORKERS)
        reports[n], _ = analyze_file(path, boosted_cfg)
        path.unlink()
    elapsed = time.time() - start
    big = reports[10_000_000]
    z = abs(big["ratio"] - 0.77) / big["ratio_se"]
    s1 = reports[100_000]["ratio_se"] / reports[1_000_000]["ratio_se"]
    s2 = reports[1_000_000]["ratio_se"] / big["ratio_se"]
    scaling_ok = (abs(s1 / np.sqrt(10) - 1) < 0.10
                  and abs(s2 / np.sqrt(10) - 1) < 0.10)
    ok = z < 3.0 and scaling_ok and elapsed <= 600.0
    report(capsys, 8, ok,
           f"1e7 shots: ratio = {big['ratio']:.3f} +- {big['ratio_se']:.3f} "
           f"(z = {z:.2f} vs 0.77); SE scaling {s1:.2f}, {s2:.2f} "
           f"(sqrt(10) = 3.16 +- 10%); {elapsed:.0f} s")


def test_09_null_campaign(capsys, tmp_path_factory, boosted_cfg):
    cfg = boosted_cfg.replace(tauT_frac=0.0, phi_atom=boosted_cfg.phi_atom)
    root = tmp_path_factory.mktemp("null")
    path = root / "null.bin"
    run_campaign(cfg, 10_000_000, seed=909, out_path=path, with_truth=False,
                 workers=WORKERS)
    rep, _ = analyze_file(path, cfg)
    path.unlink()
    z = abs(rep["ratio"]) / rep["ratio_se"]
    report(capsys, 9, z < 3.0,
           f"null ratio = {rep['ratio']:.3f} +- {rep['ratio_se']:.3f} "
           f"(z = {z:.2f} vs 0)")


def test_10_proportional_noise_calibration(capsys):
    base = ExperimentConfig(phase_noise_rms=0.05)
    cal_cfg = base.replace(phi_atom=50 * base.phi_atom, tauT_frac=1.0,
                           prop_noise_s=0.03)
    cal = run_calibration(cal_cfg, [588, 898, 1527, 3040],
                          n_shots=2_000_000, seed=404, target_click=0.10,
                          workers=WORKERS)
    s2_ok = abs(cal["s2"] / 9e-4 - 1.0) < 0.20

    cfg134 = base.replace(phi_atom=100 * base.phi_atom, prop_noise_s=0.03,
                          mean_photons=134.0,
                          eta_detect=_calibration_eta(base, 134.0, 0.10))
    tpl = xps_template(cfg134)
    binned = bin_and_average(iter_batches(cfg134, 2_000_000, seed=505,
                                          workers=WORKERS))
    phi0 = fit_phi0(binned.phi_all, 134.0, tpl, sigma=binned.se_all)
    corrected = correct_phi_T(fit_transmitted(binned, tpl), cal["s2"],
                              134.0, phi0, s2_se=cal["s2_se"])
    ratio = corrected.amplitude / phi0.amplitude
    ratio_se = corrected.amplitude_se / abs(phi0.amplitude)
    z = abs(ratio - 0.77) / ratio_se
    ok = s2_ok and z < 3.0
    report(capsys, 10, ok,
           f"s2 = {cal['s2']:.3e} +- {cal['s2_se']:.1e} (truth 9e-4, "
           f"{cal['s2'] / 9e-4 - 1:+.1%}); corrected 134-photon ratio = "
           f"{ratio:.3f} +- {ratio_se:.3f} (z = {z:.2f} vs 0.77)")


def test_11_background_immunity_and_determinism(capsys, tmp_path):
    cfg = ExperimentConfig()
    tpl = xps_template(cfg)
    rng = np.random.default_rng(42)
    trace = 1e-4 * tpl.samples + 1e-5 * rng.standard_normal(36)
    x = np.linspace(-1, 1, 36)
    cubic = 0.3 - 1.2 * x + 0.7 * x**2 + 2.1 * x**3
    base = fit_phi0(trace, 1.0, tpl)
    shifted = fit_phi0(trace + cubic, 1.0, tpl)
    immunity = abs(shifted.amplitude - base.amplitude)

    run_campaign(cfg, 50_000, seed=7, out_path=tmp_path / "a.bin")
    run_campaign(cfg, 50_000, seed=7, out_path=tmp_path / "b.bin", workers=2)
    identical = (tmp_path / "a.bin").read_bytes() == \
        (tmp_path / "b.bin").read_bytes()
    ok = immunity < 1e-12 and identical
    report(capsys, 11, ok,
           f"cubic immunity shift = {immunity:.2e} rad (< 1e-12); "
           f"byte-identical files (serial vs 2 workers): {identical}")
