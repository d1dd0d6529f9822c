import numpy as np
import pytest

from xdwell import (
    ConfigError,
    ConvergenceError,
    MediumSpec,
    PulseSpec,
    SampledEnvelope,
    dispersion_phase,
    field_transfer,
    gaussian_envelope,
    lorentzian_od,
    propagate_spectral,
    transmission_probability,
)
from xdwell import medium as medium_module

from conftest import (
    SPECTRAL_ODS,
    SPECTRAL_PULSES,
    TAU_SP,
    dense_transmission_oracle,
)

# regression targets frozen from the dense-quadrature oracle
P_T_10NS_OD4 = 0.401914341
P_T_50NS_OD4 = 0.048027
P_T_1US_OD4 = 0.018367


class TestLineShape:
    def test_peak_od_on_resonance(self, medium_od4):
        assert lorentzian_od(0.0, medium_od4) == 4.0

    def test_half_width(self, medium_od4):
        # intensity OD falls to half at delta = Gamma/2
        assert lorentzian_od(medium_od4.gamma / 2, medium_od4) == pytest.approx(2.0)

    def test_dispersion_odd(self, medium_od4):
        d = np.linspace(-5, 5, 11) * medium_od4.gamma
        np.testing.assert_allclose(dispersion_phase(d, medium_od4),
                                   -dispersion_phase(-d, medium_od4))

    def test_dispersion_extremum(self, medium_od4):
        # |phi| peaks at delta = Gamma/2 with value a0/4, negative above
        # resonance
        assert dispersion_phase(medium_od4.gamma / 2, medium_od4) == \
            pytest.approx(-medium_od4.peak_od / 4)

    def test_transfer_on_resonance_is_real(self, medium_od4):
        h = field_transfer(0.0, medium_od4)
        assert h.imag == 0.0
        assert h.real == pytest.approx(np.exp(-2.0))


class TestTransmission:
    def test_broadband_od4_matches_dense_oracle(self, pulse_10ns, medium_od4):
        oracle = dense_transmission_oracle(pulse_10ns, medium_od4)
        value = transmission_probability(pulse_10ns, medium_od4)
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(P_T_10NS_OD4, abs=1e-6)

    def test_50ns_od4(self, pulse_50ns, medium_od4):
        assert transmission_probability(pulse_50ns, medium_od4) == \
            pytest.approx(dense_transmission_oracle(pulse_50ns, medium_od4),
                          abs=1e-8)

    def test_monochromatic_limit(self, medium_od4):
        pulse = PulseSpec(intensity_rms=1e-6)
        value = transmission_probability(pulse, medium_od4)
        assert value == pytest.approx(np.exp(-4.0), abs=1e-4)
        assert value == pytest.approx(P_T_1US_OD4, abs=1e-6)

    def test_od_zero_exact(self, pulse_10ns):
        medium = MediumSpec.from_lifetime(0.0, TAU_SP)
        assert transmission_probability(pulse_10ns, medium) == 1.0

    @pytest.mark.parametrize("od", [0.5, 1.0, 2.0, 4.0])
    def test_monotone_in_od(self, pulse_10ns, od):
        lo = MediumSpec.from_lifetime(od, TAU_SP)
        hi = MediumSpec.from_lifetime(od + 0.5, TAU_SP)
        assert transmission_probability(pulse_10ns, hi) < \
            transmission_probability(pulse_10ns, lo)


class TestSpectralRule:
    @pytest.mark.parametrize("sigma,carrier", SPECTRAL_PULSES)
    def test_matches_dense_oracle(self, sigma, carrier, medium_od4):
        pulse = PulseSpec(intensity_rms=sigma, carrier_detuning=carrier)
        values = transmission_probability(pulse, medium_od4, SPECTRAL_ODS)
        for od, value in zip(SPECTRAL_ODS, values):
            assert value == pytest.approx(dense_transmission_oracle(
                pulse, medium_od4.with_od(od)), abs=1e-9), od

    def test_grid_equals_per_od_calls(self, pulse_10ns, medium_od4):
        grid = [0.0] + SPECTRAL_ODS
        values = transmission_probability(pulse_10ns, medium_od4, grid)
        assert values.tolist() == [
            transmission_probability(pulse_10ns, medium_od4.with_od(od))
            for od in grid]

    @pytest.mark.parametrize("grid", [[-1.0], [float("nan")], [4.0, 1.0]])
    def test_bad_grid_rejected(self, pulse_10ns, medium_od4, grid):
        with pytest.raises(ConfigError, match="od_grid"):
            transmission_probability(pulse_10ns, medium_od4, grid)

    def test_missed_tolerance_raises(self, pulse_10ns, medium_od4,
                                     monkeypatch):
        # the halving estimate is >= 0, so a negative tolerance fails it
        monkeypatch.setattr(medium_module, "_SPECTRAL_TOL", -1.0)
        with pytest.raises(ConvergenceError):
            transmission_probability(pulse_10ns, medium_od4)

    def test_too_short_pulse_raises(self, medium_od4):
        # 1 ps against a 26.5 ns line would need 7.6M nodes
        with pytest.raises(ConvergenceError, match="too short"):
            transmission_probability(PulseSpec(intensity_rms=1e-12),
                                     medium_od4)


class TestEnvelope:
    def test_photon_number(self):
        # a pulse is one photon
        env = gaussian_envelope(PulseSpec(intensity_rms=10e-9), n_samples=4096)
        assert env.photon_number == pytest.approx(1.0, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            PulseSpec(intensity_rms=0.0)
        with pytest.raises(ConfigError):
            MediumSpec(peak_od=-1.0, gamma=1.0)
        with pytest.raises(ConfigError):
            SampledEnvelope(t0=0.0, dt=1e-9, samples=np.array([np.nan, 1.0]))


class TestPropagation:
    def test_od_zero_identity(self, pulse_10ns):
        medium = MediumSpec.from_lifetime(0.0, TAU_SP)
        env = gaussian_envelope(pulse_10ns, n_samples=2048)
        out = propagate_spectral(env, medium, 1.0)
        atol = 1e-12 * np.abs(env.samples).max()
        np.testing.assert_allclose(out.samples, env.samples, atol=atol)

    def test_energy_ratio_matches_quadrature(self, medium_od4):
        # criterion: < 1e-3 absolute for all bandwidth/OD pairs
        for sigma, n, tail in ((10e-9, 4096, 300e-9), (50e-9, 4096, 300e-9),
                               (1e-6, 8192, 0.0)):
            for od in (0.01, 1.0, 4.0):
                medium = medium_od4.with_od(od)
                pulse = PulseSpec(intensity_rms=sigma)
                env = gaussian_envelope(pulse, n_samples=n, tail=tail)
                out = propagate_spectral(env, medium, 1.0)
                ratio = out.photon_number / env.photon_number
                expect = transmission_probability(pulse, medium)
                assert ratio == pytest.approx(expect, abs=1e-3), (sigma, od)

    def test_semigroup(self, pulse_10ns, medium_od4):
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        full = propagate_spectral(env, medium_od4, 0.7)
        step = propagate_spectral(propagate_spectral(env, medium_od4, 0.4),
                                  medium_od4, 0.3)
        scale = np.abs(full.samples).max()
        np.testing.assert_allclose(step.samples / scale, full.samples / scale,
                                   atol=1e-9)

    def test_input_leakage_rejected(self, medium_od4):
        # a Gaussian envelope of sigma_t 10 ns cut off at +-1.5 sigma_t
        sigma, n = 10e-9, 256
        dt = 3.0 * sigma / n
        t = -1.5 * sigma + dt * np.arange(n)
        env = SampledEnvelope(t0=t[0], dt=dt,
                              samples=np.exp(-t**2 / (4.0 * sigma**2)))
        with pytest.raises(ConvergenceError, match="input envelope carries"):
            propagate_spectral(env, medium_od4, 1.0)

    def test_depth_fraction_validated(self, pulse_10ns, medium_od4):
        env = gaussian_envelope(pulse_10ns, n_samples=2048)
        with pytest.raises(ConfigError):
            propagate_spectral(env, medium_od4, 1.5)
