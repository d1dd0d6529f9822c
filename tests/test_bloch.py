import numpy as np
import pytest

from xdwell import (
    BlochConfig,
    MediumSpec,
    PulseSpec,
    SampledEnvelope,
    WeakExcitationError,
    detect_phase_flip,
    fate_fractions,
    gaussian_envelope,
    integrate_weak_bloch,
    propagate_spectral,
    pulse_area,
)
from xdwell.bloch import (
    ExcitationRecord,
    _backward_scan,
    _chunk_rows,
    _chunks,
    _fate_fractions_many,
    _net_flow,
    _weak_pe,
)
from xdwell.dwell import default_bloch_config
from xdwell.medium import _detunings, field_transfer

from conftest import GAMMA, TAU_SP


def _resample(samples, t_src, t_dst):
    return (np.interp(t_dst, t_src, samples.real)
            + 1j * np.interp(t_dst, t_src, samples.imag))


def rk4_pe(omega, t_src, cfg, max_step):
    """Fixed-step RK4 oracle for the weak-drive amplitude equation.

    omega: complex Rabi frequencies on t_src, linearly resampled onto a
    grid of step <= max_step.  Returns (step, pe).
    """
    span = t_src[-1] - t_src[0]
    n_steps = int(np.ceil(span / max_step))
    h = span / n_steps
    grid = t_src[0] + h * np.arange(n_steps + 1)
    om_g = _resample(omega, t_src, grid)
    om_m = _resample(omega, t_src, grid[:-1] + 0.5 * h)
    lam = 1j * cfg.detuning - 0.5 * cfg.gamma
    c = 0.0j
    pe = np.zeros(n_steps + 1)
    for n in range(n_steps):
        o0, om, o1 = om_g[n], om_m[n], om_g[n + 1]
        k1 = lam * c + 0.5j * o0
        k2 = lam * (c + 0.5 * h * k1) + 0.5j * om
        k3 = lam * (c + 0.5 * h * k2) + 0.5j * om
        k4 = lam * (c + h * k3) + 0.5j * o1
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pe[n + 1] = abs(c) ** 2
    return h, pe


def fate_fractions_loop(pe, coh_down, h, gamma):
    """Per-step, per-row reference for _fate_fractions_many: one row per
    slice, time on the last axis; each row has its own P_e floor."""
    peak = pe.max(axis=-1, keepdims=True)
    floor = np.where(peak > 0, peak * 1e-12, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hz = np.where(coh_down > 0, coh_down / np.maximum(pe, floor), 0.0)
    f = np.zeros_like(pe)
    for n in range(pe.shape[-1] - 2, -1, -1):
        hm = 0.5 * (hz[..., n] + hz[..., n + 1])
        lam = gamma + hm
        decay = np.exp(-lam * h)
        f[..., n] = (hm / lam) * (1.0 - decay) + decay * f[..., n + 1]
    np.clip(f, 0.0, 1.0, out=f)
    # excitation alive after the last coherent removal can only decay
    # spontaneously
    for i in range(f.shape[0]):
        idx = np.flatnonzero(coh_down[i] > 0)
        f[i, idx[-1] + 1 if idx.size else 0:] = 0.0
    return f


def short_pulse_env(width=0.5e-9, after=16 * TAU_SP, n=40000, amp=1.0):
    """Narrow Gaussian followed by >= 8 lifetimes of empty grid."""
    lo, hi = -8 * width, after
    dt = (hi - lo) / n
    t = lo + dt * np.arange(n)
    return SampledEnvelope(t0=lo, dt=dt,
                           samples=amp * np.exp(-t**2 / (4 * width**2)) + 0j)


def small_cfg(area, env, detuning=0.0):
    proj = np.trapezoid(env.samples.real, dx=env.dt)
    return BlochConfig(gamma=GAMMA, rabi_per_amplitude=area / proj,
                       detuning=detuning)


class TestIntegration:
    def test_zero_drive(self):
        env = short_pulse_env(amp=0.0)
        env = SampledEnvelope(t0=env.t0, dt=env.dt,
                              samples=np.zeros_like(env.samples))
        cfg = BlochConfig(gamma=GAMMA, rabi_per_amplitude=1.0)
        rec = integrate_weak_bloch(env, cfg)
        assert np.all(rec.pe == 0.0)
        assert np.all(rec.up_flow == 0.0)
        assert np.all(rec.spont_flow == 0.0)

    def test_impulse_oracle(self):
        # pulse much shorter than the lifetime: P_e = (theta/2)^2 exp(-Gamma t)
        theta = 0.02
        env = short_pulse_env()
        cfg = small_cfg(theta, env)
        rec = integrate_weak_bloch(env, cfg)
        assert np.trapezoid(rec.pe, dx=rec.dt) == pytest.approx(
            (theta / 2) ** 2 * TAU_SP, rel=1e-2)
        t = rec.t0 + rec.dt * np.arange(rec.pe.size)
        sel = t > 5e-9
        np.testing.assert_allclose(
            rec.pe[sel], (theta / 2) ** 2 * np.exp(-GAMMA * t[sel]), rtol=2e-2)

    def test_constant_drive_perturbative(self):
        # resonant flat drive with T << 1/Gamma: P_e(T) ~ (Omega T / 2)^2
        duration = 1e-9
        n = 2000
        dt = duration / n
        env = SampledEnvelope(t0=0.0, dt=dt, samples=np.ones(n) + 0j)
        omega = 1e7
        cfg = BlochConfig(gamma=GAMMA, rabi_per_amplitude=omega)
        rec = integrate_weak_bloch(env, cfg)
        assert rec.pe[-1] == pytest.approx((omega * duration / 2) ** 2, rel=2e-2)

    def test_excitation_linearity(self):
        env = short_pulse_env()
        r1 = integrate_weak_bloch(env, small_cfg(0.01, env))
        r2 = integrate_weak_bloch(env, small_cfg(0.02, env))
        t1 = np.trapezoid(r1.pe, dx=r1.dt)
        t2 = np.trapezoid(r2.pe, dx=r2.dt)
        assert t2 / t1 == pytest.approx(4.0, rel=1e-2)

    def test_weak_excitation_guard(self):
        env = short_pulse_env()
        with pytest.raises(WeakExcitationError) as exc:
            integrate_weak_bloch(env, small_cfg(1.0, env))
        assert exc.value.peak >= 1e-2

    def test_gauge_invariance(self):
        env = short_pulse_env()
        cfg = small_cfg(0.02, env)
        rotated = SampledEnvelope(t0=env.t0, dt=env.dt,
                                  samples=env.samples * np.exp(0.7j))
        a = integrate_weak_bloch(env, cfg)
        b = integrate_weak_bloch(rotated, cfg)
        np.testing.assert_allclose(a.pe, b.pe, atol=1e-18)

    def test_grid_convergence(self):
        coarse_env = short_pulse_env()
        fine_env = short_pulse_env(n=80000)
        coarse = integrate_weak_bloch(coarse_env, small_cfg(0.02, coarse_env))
        fine = integrate_weak_bloch(fine_env, small_cfg(0.02, fine_env))
        coarse = np.trapezoid(coarse.pe, dx=coarse.dt)
        fine = np.trapezoid(fine.pe, dx=fine.dt)
        assert abs(fine / coarse - 1.0) < 1e-4

    @pytest.mark.parametrize("sigma", [10e-9, 50e-9])
    @pytest.mark.parametrize("od", [0.01, 4.0])
    @pytest.mark.parametrize("depth", [0.5, 1.0])
    def test_matches_rk4_oracle(self, sigma, od, depth):
        pulse = PulseSpec(intensity_rms=sigma)
        medium = MediumSpec.from_lifetime(od, TAU_SP)
        env = gaussian_envelope(pulse, n_samples=4096, tail=10 * TAU_SP)
        local = propagate_spectral(env, medium, depth)
        cfg = default_bloch_config(pulse, medium)
        rec = integrate_weak_bloch(local, cfg)
        # RK4 step: a fiftieth of the shorter of lifetime and pulse width
        h, pe = rk4_pe(cfg.rabi_per_amplitude * local.samples, local.times(),
                       cfg, 0.99 * min(TAU_SP, sigma) / 50.0)
        oracle = np.trapezoid(pe, dx=h)
        assert np.trapezoid(rec.pe, dx=rec.dt) == pytest.approx(oracle,
                                                                rel=1e-4)

    def test_flow_balance(self):
        env = short_pulse_env()
        rec = integrate_weak_bloch(env, small_cfg(0.02, env))
        net = np.trapezoid(
            rec.up_flow - rec.coh_down_flow - rec.spont_flow, dx=rec.dt)
        expected = rec.pe[-1] - rec.pe[0]
        scale = np.trapezoid(rec.up_flow, dx=rec.dt)
        assert abs(net - expected) < 1e-6 * scale

    def test_flows_mutually_exclusive(self):
        env = short_pulse_env()
        rec = integrate_weak_bloch(env, small_cfg(0.02, env))
        assert np.all((rec.up_flow == 0) | (rec.coh_down_flow == 0))


class TestPulseArea:
    def test_zero(self):
        env = SampledEnvelope(t0=0.0, dt=1e-9, samples=np.zeros(100) + 0j)
        cfg = BlochConfig(gamma=GAMMA, rabi_per_amplitude=1.0)
        assert pulse_area(env, cfg) == 0.0

    def test_gaussian_analytic(self):
        pulse = PulseSpec(intensity_rms=10e-9)
        env = gaussian_envelope(pulse, n_samples=8192)
        kappa = 1e3
        cfg = BlochConfig(gamma=GAMMA, rabi_per_amplitude=kappa)
        amp = np.abs(env.samples).max()
        analytic = kappa * amp * 2.0 * pulse.intensity_rms * np.sqrt(np.pi)
        assert pulse_area(env, cfg) == pytest.approx(analytic, rel=1e-6)

    @pytest.mark.parametrize("depth", [0.25, 0.5, 1.0])
    def test_area_theorem(self, depth, medium_od4, pulse_10ns):
        # on resonance the area decays as exp(-a0 d / 2)
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        cfg = BlochConfig(gamma=GAMMA, rabi_per_amplitude=1.0)
        out = propagate_spectral(env, medium_od4, depth)
        ratio = pulse_area(out, cfg) / pulse_area(env, cfg)
        assert ratio == pytest.approx(np.exp(-4.0 * depth / 2.0), rel=1e-2)


class TestPhaseFlip:
    def test_unpropagated_absent(self, pulse_10ns):
        env = gaussian_envelope(pulse_10ns, n_samples=2048)
        assert detect_phase_flip(env) is None

    def test_thick_medium_trailing_flip(self, pulse_10ns, medium_od4):
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        out = propagate_spectral(env, medium_od4, 1.0)
        flip = detect_phase_flip(out)
        assert flip is not None
        assert flip > 0.0  # after the pulse peak at t = 0

    @pytest.mark.parametrize("depth", [0.25, 0.5, 1.0])
    def test_thin_medium_absent(self, pulse_10ns, depth):
        medium = MediumSpec.from_lifetime(0.01, TAU_SP)
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        out = propagate_spectral(env, medium, depth)
        assert detect_phase_flip(out) is None


class TestNarrowband:
    def test_no_coherent_return(self, medium_od4):
        # 1 us pulses: coherent de-excitation negligible vs spontaneous
        pulse = PulseSpec(intensity_rms=1e-6)
        env = gaussian_envelope(pulse, n_samples=8192)
        mid = propagate_spectral(env, medium_od4, 0.5)
        kappa = 0.02 / np.trapezoid(np.abs(env.samples), dx=env.dt)
        cfg = BlochConfig(gamma=GAMMA, rabi_per_amplitude=kappa)
        rec = integrate_weak_bloch(mid, cfg)
        coh = np.trapezoid(rec.coh_down_flow, dx=rec.dt)
        spont = np.trapezoid(rec.spont_flow, dx=rec.dt)
        assert coh < 1e-3 * spont


def synthetic_record(pe, coh_down, dt=0.1e-9):
    n = pe.size
    up = np.zeros(n)
    return ExcitationRecord(t0=0.0, dt=dt, gamma=GAMMA, pe=pe, up_flow=up,
                            coh_down_flow=coh_down, spont_flow=GAMMA * pe)


class TestFateFractions:
    def test_no_coherent_removal(self):
        t = 0.1e-9 * np.arange(1000)
        rec = synthetic_record(1e-4 * np.exp(-GAMMA * t), np.zeros(1000))
        f_coh = fate_fractions(rec)
        assert np.all(f_coh == 0.0)

    def test_constant_hazard_analytic(self):
        # long window with constant hazard h: f_coh -> h / (Gamma + h)
        n = 40000
        dt = 0.1e-9
        h = 2.0 * GAMMA
        pe = np.full(n, 1e-4)
        rec = synthetic_record(pe, h * pe, dt=dt)
        f_coh = fate_fractions(rec)
        assert f_coh[0] == pytest.approx(h / (GAMMA + h), rel=1e-3)

    def test_monte_carlo_token_oracle(self, pulse_10ns, medium_od4):
        """Stochastic competing-risk oracle for the fate attribution.

        Tokens are born proportionally to up_flow and die under the total
        hazard Gamma + h(t); the empirical coherent-death fraction must
        match the f_coh-weighted birth average.
        """
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        mid = propagate_spectral(env, medium_od4, 0.5)
        bloch = default_bloch_config(pulse_10ns, medium_od4)
        rec = integrate_weak_bloch(mid, bloch)
        f_coh = fate_fractions(rec)

        up = rec.up_flow
        predicted = (np.trapezoid(up * f_coh, dx=rec.dt)
                     / np.trapezoid(up, dx=rec.dt))

        floor = rec.pe.max() * 1e-12
        hz = np.where(rec.coh_down_flow > 0,
                      rec.coh_down_flow / np.maximum(rec.pe, floor), 0.0)
        total = GAMMA + hz
        cumhaz = np.concatenate([[0.0], np.cumsum(total * rec.dt)])

        n_tokens = 100000
        rng = np.random.default_rng(1234)
        birth = rng.choice(up.size, size=n_tokens, p=up / up.sum())
        target = cumhaz[birth] + rng.exponential(size=n_tokens)
        death = np.searchsorted(cumhaz, target) - 1
        coherent = np.zeros(n_tokens, dtype=bool)
        inside = death < hz.size
        d = death[inside]
        coherent[inside] = rng.random(d.size) < hz[d] / total[d]
        # tokens outliving the grid decay spontaneously: coherent stays False
        frac = coherent.mean()
        se = np.sqrt(frac * (1 - frac) / n_tokens)
        assert abs(frac - predicted) < 3 * se

    def test_record_flows_unchanged(self, pulse_10ns, medium_od4):
        # the recurrence consumes its coh_down buffer; fate_fractions must
        # hand it a copy, not the record's own flow
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        cfg = default_bloch_config(pulse_10ns, medium_od4)
        rec = integrate_weak_bloch(propagate_spectral(env, medium_od4, 0.5),
                                   cfg)
        coh_down, pe = rec.coh_down_flow.copy(), rec.pe.copy()
        fate_fractions(rec)
        np.testing.assert_array_equal(rec.coh_down_flow, coh_down)
        np.testing.assert_array_equal(rec.pe, pe)

    def test_clamped_to_unit_interval(self):
        pe = np.full(100, 1e-4)
        f = _fate_fractions_many(pe[:, None], (50 * GAMMA * pe)[:, None],
                                 0.1e-9, GAMMA)
        assert f.min() >= 0.0 and f.max() <= 1.0

    # hazards at the step's two samples, in units of GAMMA: the removal
    # stops or starts mid-step, and zeros of either sign are no removal
    @pytest.mark.parametrize("lo,hi", [(3.0, -1.0), (-1.0, 3.0),
                                       (2.0, -0.0), (-0.0, 0.0)])
    def test_sign_change_step(self, lo, hi):
        # one step, f(end) = 0: f_0 = (hm/lam)(1 - exp(-lam h)), where hm is
        # the step's mean of the positive part of the linear hazard,
        # p^2 / (2 (|lo| + |hi|)) for the positive end value p
        h = 1e-9
        pe = np.ones((2, 1))
        f = _fate_fractions_many(pe, GAMMA * np.array([[lo], [hi]]), h,
                                 GAMMA)
        p = max(lo, hi, 0.0)
        hm = GAMMA * (0.5 * p * p / (abs(lo) + abs(hi)) if p else 0.0)
        lam = GAMMA + hm
        assert f[0, 0] == pytest.approx(hm / lam * -np.expm1(-lam * h),
                                        rel=1e-14, abs=0)
        assert f[1, 0] == 0.0

    def test_column_independent_of_block(self, pulse_10ns, medium_od4):
        # the P_e floor is per column: a column gives the same fractions
        # alone as beside a column 1e13 times brighter
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        cfg = default_bloch_config(pulse_10ns, medium_od4)
        rec = integrate_weak_bloch(propagate_spectral(env, medium_od4, 1.0),
                                   cfg)
        pe = np.stack([rec.pe, 1e-13 * rec.pe, rec.pe], axis=1)
        coh = np.stack([rec.coh_down_flow, 1e-13 * rec.coh_down_flow,
                        0.0 * rec.coh_down_flow], axis=1)
        block = _fate_fractions_many(pe.copy(), coh.copy(), rec.dt, GAMMA)
        for j in range(pe.shape[1]):
            alone = _fate_fractions_many(pe[:, j:j + 1].copy(),
                                         coh[:, j:j + 1].copy(), rec.dt, GAMMA)
            np.testing.assert_allclose(block[:, j], alone[:, 0], rtol=1e-14,
                                       atol=0)
        assert np.any(block[:, 1] > 0.0)

    def test_matches_loop_reference(self, pulse_10ns, medium_od4):
        # a stack of slices with and without phase flips, time on axis 0;
        # the chunked scan reassociates the loop's sums, so the results
        # agree to rounding, and with atol = 0 every value after the last
        # coherent removal must still be exactly 0
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        cfg = default_bloch_config(pulse_10ns, medium_od4)
        recs = [integrate_weak_bloch(propagate_spectral(env, medium_od4, d),
                                     cfg) for d in (0.0, 0.5, 1.0)]
        pe = np.stack([r.pe for r in recs])
        coh = np.stack([r.coh_down_flow for r in recs])
        coh[0] = 0.0  # a row without coherent removal
        coh[1, 3000:] = 0.0  # a row whose last removal is early
        f = _fate_fractions_many(pe.T.copy(), coh.T.copy(), recs[0].dt, GAMMA)
        ref = fate_fractions_loop(pe, coh, recs[0].dt, GAMMA)
        assert np.any(ref > 0.0)
        np.testing.assert_allclose(f.T, ref, rtol=1e-13, atol=0)


def scan_steps(m, size):
    """Python steps of `_backward_scan` over m rows in chunks of `size`:
    the within-chunk loop (none without a whole chunk), one carry per
    chunk and the leading rows."""
    return (size - 1 if m >= size else 0) + m // size + m % size


class TestBackwardScan:
    """The chunked scan against a plain per-step loop of the same
    recurrence, f_n = a_n + b_n f_{n+1}, at step counts around 32 rows and
    at a model block's own: 16 rows of a split step's sub-steps, 511 and
    1,023 steps of the coarse and fine grids."""

    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("m", [1, 2, 16, 31, 32, 33, 64, 511, 1023,
                                   4095])
    def test_matches_step_loop(self, m, cols):
        rng = np.random.default_rng(m * 10 + cols)
        f = rng.random((m + 1, cols))  # a_n in rows :-1, the end value last
        f[-1] += 0.5
        b = rng.random((m, cols))
        # exact 0 and 1, and runs of 1e-300 whose chunk products go
        # subnormal and then to zero
        b[rng.random((m, cols)) < 0.05] = 0.0
        b[rng.random((m, cols)) < 0.05] = 1.0
        b[m // 2:m // 2 + 3] = 1e-300
        b[-1] = 1.0  # the end value reaches the last rows undamped
        ref = f.copy()
        for n in range(m - 1, -1, -1):
            ref[n] = ref[n] + b[n] * ref[n + 1]
        _backward_scan(f, b)
        np.testing.assert_allclose(f, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m", [16, 1023])
    def test_strided_columns(self, m):
        # f and b as every second column of wider arrays: the scan writes
        # its result and its copy of f through views, never into a copy
        rng = np.random.default_rng(m)
        f, b = rng.random((m + 1, 6))[:, ::2], rng.random((m, 6))[:, ::2]
        ref = f.copy()
        for n in range(m - 1, -1, -1):
            ref[n] = ref[n] + b[n] * ref[n + 1]
        _backward_scan(f, b)
        np.testing.assert_allclose(f, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("m", [31, 32, 4095])
    def test_chunks_are_views(self, m, cols):
        # the scan writes through these views: a reshape that copied would
        # drop its result
        f, b = np.zeros((m + 1, cols)), np.zeros((m, cols))
        size = _chunk_rows(m)
        head = m % size
        for x in (f[:-1], b, b[:, :1]):
            view = _chunks(x, head, size)
            assert view.shape == ((m - head) // size, size, *x.shape[1:])
            assert view.size == 0 or np.shares_memory(view, x)

    def test_chunk_takes_fewest_steps(self):
        # the chosen chunk is the best of every length from 1 to m, so it
        # never takes more steps than the fixed 32-row chunk it replaced
        for m in range(1, 4096):
            sizes = np.arange(1, m + 1)
            fewest = (sizes - 1 + m // sizes + m % sizes).min()
            steps = scan_steps(m, _chunk_rows(m))
            assert steps == fewest, m
            assert steps <= scan_steps(m, 32), m
        assert [_chunk_rows(m) for m in (16, 511, 1023)] == [4, 17, 31]


class TestNetFlow:
    def test_equals_gradient_form(self):
        # a model block's P_e (sigma_t 10 ns, 32 depths to OD 4, 1,024
        # samples) and its every-second-row view, as the model passes them
        pulse = PulseSpec(intensity_rms=10e-9)
        medium = MediumSpec.from_lifetime(1.0, TAU_SP)
        env = gaussian_envelope(pulse, n_samples=1024,
                                tail=10.0 / medium.gamma)
        depths = np.linspace(0.125, 4.0, 32)[:, None]
        spectra = (field_transfer(_detunings(env), medium, depths)
                   * np.fft.fft(env.samples))
        pe = _weak_pe(spectra, env.dt, default_bloch_config(pulse, medium))
        for k in (1, 2):
            block, h = pe[::k], k * env.dt
            want = np.gradient(block, h, axis=0)
            want += medium.gamma * block
            assert np.array_equal(_net_flow(block, h, medium.gamma),
                                  want), k
