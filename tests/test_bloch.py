import numpy as np
import pytest

from xdwell import (
    BlochConfig,
    ConfigError,
    ConvergenceError,
    MediumSpec,
    PulseSpec,
    SampledEnvelope,
    detect_phase_flip,
    dwell,
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
    _exact_net,
    _g_form,
    _response,
    _weak_amplitudes,
    _weak_pe,
)
from xdwell.dwell import default_bloch_config
from xdwell.medium import _detunings, field_transfer

from conftest import GAMMA, TAU_SP, min_coherent_point


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


def g_form_loop(pe, net, h, gamma):
    """Per-step, per-column reference for _g_form, time on axis 0: the three
    kinds of step written out one at a time, with each crossing root taken
    from the roots of the cubic through 4 net samples and the Hermite P_e
    in its power form, bounded as _crossing_steps bounds it.  Each column
    has its own gain-divisor floor."""
    n = pe.shape[0]
    slope = net - gamma * pe
    g = np.zeros_like(pe)
    for j in range(pe.shape[1]):
        p, q, m = pe[:, j], net[:, j], h * slope[:, j]
        floor = 1e-12 * p.max() if p.max() > 0 else 1.0
        for k in range(n - 2, -1, -1):
            # P_e on step k as a power series in the fraction s of the step
            dp = p[k + 1] - p[k]
            poly = np.polynomial.Polynomial(
                [p[k], m[k], 3 * dp - 2 * m[k] - m[k + 1],
                 m[k] + m[k + 1] - 2 * dp])
            area = h * poly.integ()
            if q[k] >= 0 and q[k + 1] >= 0:
                g[k, j] = (g[k + 1, j] * p[k] / max(p[k + 1], floor)
                           * np.exp(-gamma * h))
            elif q[k] < 0 and q[k + 1] < 0:
                g[k, j] = g[k + 1, j] + p[k] - p[k + 1] - gamma * area(1.0)
            else:
                lo = min(max(k - 1, 0), n - 4)
                cubic = np.polynomial.Polynomial.fit(
                    np.arange(lo, lo + 4) - k, q[lo:lo + 4], 3).convert()
                roots = cubic.roots()
                roots = roots[np.abs(roots.imag) < 1e-9].real
                s = roots[np.argmin(np.abs(roots - 0.5))]
                if q[k + 1] >= 0:  # removal, then gain
                    p_s = min(max(poly(s), 0.0), p[k])
                    at = (g[k + 1, j] * p_s / max(p[k + 1], floor)
                          * np.exp(-gamma * h * (1 - s)))
                    g[k, j] = at + p[k] - p_s - gamma * area(s)
                else:
                    p_s = max(poly(s), p[k + 1])
                    at = (g[k + 1, j] + p_s - p[k + 1]
                          - gamma * (area(1.0) - area(s)))
                    g[k, j] = at * p[k] / max(p_s, floor) * np.exp(
                        -gamma * h * s)
    return g


def model_block(sigma_ns, od, carrier, n_samples=None):
    """P_e and the exact net flow of a 32-node block at depths up to `od`,
    on the model's own grid for the pulse (the rule's sample count by
    default), time on axis 0: (pe, net, h, gamma)."""
    pulse = PulseSpec(intensity_rms=sigma_ns * 1e-9, carrier_detuning=carrier)
    medium = MediumSpec.from_lifetime(1.0, TAU_SP)
    n_samples = dwell._grid_samples(pulse, medium, n_samples)
    env = gaussian_envelope(pulse, n_samples=n_samples,
                            tail=10.0 / medium.gamma)
    depths = np.linspace(od / 32, od, 32)[:, None]
    spectra = (field_transfer(_detunings(env), medium, depths)
               * np.fft.fft(env.samples))
    field = np.fft.ifft(spectra, axis=-1)
    bloch = default_bloch_config(pulse, medium)
    c = _weak_amplitudes(spectra, _response(n_samples, env.dt, bloch))
    pe = _weak_pe(c)
    net = _exact_net(c, field, bloch.rabi_per_amplitude)
    return pe, net, env.dt, medium.gamma


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
        with pytest.raises(ConvergenceError,
                           match="peak excitation probability"):
            integrate_weak_bloch(env, small_cfg(1.0, env))

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
            rec.up_flow - rec.coh_down_flow - rec.gamma * rec.pe, dx=rec.dt)
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
        spont = np.trapezoid(rec.gamma * rec.pe, dx=rec.dt)
        assert coh < 1e-3 * spont


def synthetic_record(pe, coh_down, dt=0.1e-9):
    n = pe.size
    up = np.zeros(n)
    return ExcitationRecord(t0=0.0, dt=dt, gamma=GAMMA, pe=pe, up_flow=up,
                            coh_down_flow=coh_down)


class TestFateFractions:
    def test_no_coherent_removal(self):
        t = 0.1e-9 * np.arange(1000)
        rec = synthetic_record(1e-4 * np.exp(-GAMMA * t), np.zeros(1000))
        f_coh = fate_fractions(rec)
        assert np.all(f_coh == 0.0)

    def test_too_short_record(self):
        # a sign change needs the cubic through 4 net samples
        rec = synthetic_record(np.full(3, 1e-4), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ConfigError, match="4 samples"):
            fate_fractions(rec)

    def test_constant_hazard_analytic(self):
        # long window with constant hazard h: f_coh -> h / (Gamma + h).  P_e
        # decays at Gamma + h, as the removal makes it: the fate is read
        # from P_e and the net flow together
        n = 40000
        dt = 0.1e-9
        h = 2.0 * GAMMA
        pe = 1e-4 * np.exp(-(GAMMA + h) * dt * np.arange(n))
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
        # the recurrence is solved in place; fate_fractions must solve it in
        # buffers of its own, not in the record's flows
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        cfg = default_bloch_config(pulse_10ns, medium_od4)
        rec = integrate_weak_bloch(propagate_spectral(env, medium_od4, 0.5),
                                   cfg)
        coh_down, pe = rec.coh_down_flow.copy(), rec.pe.copy()
        fate_fractions(rec)
        np.testing.assert_array_equal(rec.coh_down_flow, coh_down)
        np.testing.assert_array_equal(rec.pe, pe)

    def test_clamped_to_unit_interval(self):
        # where P_e is at rounding level, after a 200 ns pulse crosses OD
        # 20, g / P_e is rounding over rounding (it reads down to -65
        # there); the fraction is held in [0, 1]
        pulse = PulseSpec(intensity_rms=200e-9)
        medium = MediumSpec.from_lifetime(20.0, TAU_SP)
        env = gaussian_envelope(pulse, n_samples=4096, tail=10 * TAU_SP)
        rec = integrate_weak_bloch(propagate_spectral(env, medium, 1.0),
                                   default_bloch_config(pulse, medium))
        f = fate_fractions(rec)
        assert f.min() == 0.0 and f.max() <= 1.0

    # removal rates at the step's two samples: the removal stops or starts
    # mid-step, or at the step's end, and zeros of either sign are no
    # removal
    @pytest.mark.parametrize("lo,hi", [(3.0, -1.0), (-1.0, 3.0),
                                       (2.0, -0.0), (-0.0, 0.0)])
    def test_sign_change_step(self, lo, hi):
        # the first of 3 unit steps, net = -(lo + (hi - lo) u) linear
        # through all of them, g(end) = 0.  With gamma 0 the net flow is
        # P_e's slope, so P_e is quadratic, the g-form's rules are exact,
        # and g is the closed form: removal and gain taken in turn between
        # the samples and the root of net
        u = np.arange(4.0)
        net = -(lo + (hi - lo) * u)
        p = np.polynomial.Polynomial([20.0, -lo, -0.5 * (hi - lo)])
        g = _g_form(p(u)[:, None], net[:, None], 1.0, 0.0)[0][:, 0]
        knots = np.unique(np.append(u, [lo / (lo - hi)] if lo != hi else []))
        want = {u[-1]: 0.0}
        for a, b in zip(knots[-2::-1], knots[:0:-1]):
            if lo + (hi - lo) * 0.5 * (a + b) <= 0.0:
                want[a] = want[b] * p(a) / p(b)
            else:
                want[a] = want[b] + p(a) - p(b)
        np.testing.assert_allclose(g, [want[x] for x in u], rtol=1e-14,
                                   atol=0)

    def test_column_independent_of_block(self, pulse_10ns, medium_od4):
        # the gain divisor's floor is per column: a column gives the same g
        # alone as beside a column 1e13 times brighter, and as beside one
        # that only gains
        env = gaussian_envelope(pulse_10ns, n_samples=4096, tail=300e-9)
        cfg = default_bloch_config(pulse_10ns, medium_od4)
        rec = integrate_weak_bloch(propagate_spectral(env, medium_od4, 1.0),
                                   cfg)
        net = rec.up_flow - rec.coh_down_flow
        pe = np.stack([rec.pe, 1e-13 * rec.pe, rec.pe], axis=1)
        net = np.stack([net, 1e-13 * net, rec.up_flow], axis=1)
        block = _g_form(pe, net, rec.dt, GAMMA)[0]
        for j in range(pe.shape[1]):
            alone = _g_form(pe[:, j:j + 1].copy(), net[:, j:j + 1].copy(),
                            rec.dt, GAMMA)[0]
            np.testing.assert_allclose(block[:, j], alone[:, 0], rtol=1e-14,
                                       atol=0)
        assert np.any(block[:, 1] > 0.0)
        assert np.all(block[:, 2] == 0.0)

    def test_matches_loop_reference(self, pulse_10ns, medium_od4):
        # a stack of slices with and without phase flips, time on axis 0;
        # the chunked scan reassociates the loop's sums, so the results
        # agree to rounding, and with atol = 0 every value after the last
        # coherent removal must still be exactly 0
        env = gaussian_envelope(pulse_10ns, n_samples=1024, tail=300e-9)
        cfg = default_bloch_config(pulse_10ns, medium_od4)
        recs = [integrate_weak_bloch(propagate_spectral(env, medium_od4, d),
                                     cfg) for d in (0.0, 0.5, 1.0)]
        pe = np.stack([r.pe for r in recs], axis=1)
        net = np.stack([r.up_flow - r.coh_down_flow for r in recs], axis=1)
        net[:, 0] = np.abs(net[:, 0])  # a column without coherent removal
        net[600:, 1] = np.abs(net[600:, 1])  # one whose last removal is early
        g = _g_form(pe, net, recs[0].dt, GAMMA)[0]
        ref = g_form_loop(pe, net, recs[0].dt, GAMMA)
        assert np.all(ref[:, 0] == 0.0) and np.all(ref[600:, 1] == 0.0)
        assert np.any(ref > 0.0)
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0)


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
        _backward_scan(f, b, np.empty(2 * b.size))
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
        _backward_scan(f, b, np.empty(2 * b.size))
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
        # the exact net flow Im(c conj Omega) is the limit of the gradient
        # form np.gradient(P_e) + gamma P_e: on a model block (sigma_t 10
        # ns, 32 depths to OD 4, 1,024 samples) and its every-second-row
        # view, the gradient form's second-order error reads 4.1e-4 and
        # 1.6e-3 of the peak net flow, a ratio of 4
        pe, net, h, gamma = model_block(10, 4.0, 0.0, n_samples=1024)
        err = []
        for k in (1, 2):
            block = pe[::k]
            want = np.gradient(block, k * h, axis=0)
            want += gamma * block
            err.append(np.abs(net[::k] - want).max() / np.abs(net).max())
        assert err[0] < 1e-3
        assert err[1] / err[0] == pytest.approx(4.0, abs=0.1)


# the model blocks of TestGForm: each case at depths up to these lone ODs
G_FORM_ODS = (1.0, 4.0, 20.0)


class TestGForm:
    """The g-form of the coherent dwell, g = P_e f_coh, on the model's own
    node blocks at sigma_t 2, 10, 50 and 200 ns, carriers 0 and 2 pi 5 MHz
    and depths up to ODs 1, 4 and 20, and on closed forms."""

    @pytest.mark.parametrize("carrier", [0.0, 2 * np.pi * 5e6])
    @pytest.mark.parametrize("sigma_ns", [2, 10, 50, 200])
    def test_within_excitation(self, sigma_ns, carrier):
        # 0 <= g <= P_e, to 1e-12 of each column's peak: nothing is clipped,
        # and the gain ratios at rounding-level P_e do not blow g up
        for od in G_FORM_ODS:
            pe, net, h, gamma = model_block(sigma_ns, od, carrier)
            g = _g_form(pe, net, h, gamma)[0]
            tol = 1e-12 * pe.max(axis=0)
            assert np.all(g >= -tol), od
            assert np.all(g <= pe + tol), od

    @pytest.mark.parametrize("carrier", [0.0, 2 * np.pi * 5e6])
    @pytest.mark.parametrize("sigma_ns", [2, 10, 50, 200])
    def test_column_alone_equals_block(self, sigma_ns, carrier):
        for od in G_FORM_ODS:
            pe, net, h, gamma = model_block(sigma_ns, od, carrier)
            block = _g_form(pe, net, h, gamma)[0]
            for j in range(pe.shape[1]):
                alone = _g_form(pe[:, j:j + 1].copy(), net[:, j:j + 1].copy(),
                                h, gamma)[0]
                np.testing.assert_allclose(block[:, j], alone[:, 0],
                                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("carrier", [0.0, 2 * np.pi * 5e6])
    @pytest.mark.parametrize("sigma_ns", [2, 10, 50, 200])
    def test_rule_grid_converged(self, sigma_ns, carrier):
        # doubling the rule's grid moves the coherent part (1 - P_L) tauT
        # by at most 1e-6 (it is compared, not tauT: at 200 ns and OD 20,
        # P_T is 6e-8)
        pulse = PulseSpec(intensity_rms=sigma_ns * 1e-9,
                          carrier_detuning=carrier)
        medium = MediumSpec.from_lifetime(1.0, TAU_SP)
        n = dwell._grid_samples(pulse, medium)
        for od in G_FORM_ODS:
            coh = [(1.0 - b.p_loss) * b.tauT for b in (
                min_coherent_point(pulse, medium.with_od(od), n_samples=k)
                for k in (n, 2 * n))]
            assert abs(coh[0] - coh[1]) <= 1e-6, od

    def test_net_is_the_flow(self):
        # Im(c conj Omega) against dP_e/dt + gamma P_e, the derivative by a
        # fourth-order centred difference of P_e on a fine grid
        pe, net, h, gamma = model_block(10, 4.0, 0.0, n_samples=16384)
        slope = (pe[:-4] - 8.0 * pe[1:-3] + 8.0 * pe[3:-1] - pe[4:]) / (12 * h)
        np.testing.assert_allclose(net[2:-2], slope + gamma * pe[2:-2],
                                   rtol=0, atol=1e-6 * np.abs(net).max())

    # P_e = 1 + sign (0.5 u - 0.3 u^2 + 0.04 u^3) on `count` samples from
    # u = start (unit step): net = P_e' + gamma P_e changes sign twice, near
    # u = 1 and 4, gain-removal-gain for sign 1 and removal-gain-removal for
    # -1.  5 samples from 0.5 put the crossings in the first and last steps,
    # off centre in their 4 net samples, and 7 from -0.5 in inner steps
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("start,count", [(0.5, 5), (-0.5, 7)])
    def test_exact_for_cubic_excitation(self, start, count, sign):
        # with P_e cubic, net is cubic too, so the Hermite values and
        # integrals and the cubic through 4 net samples are exact, and so
        # is g: it equals the closed form, removal and gain taken in turn
        # between the samples and the roots of net
        gamma = 0.04
        p = np.polynomial.Polynomial([1.0, 0.5 * sign, -0.3 * sign,
                                      0.04 * sign])
        net = p.deriv() + gamma * p
        u = start + np.arange(float(count))
        roots = [r.real for r in net.roots()
                 if abs(r.imag) < 1e-12 and u[0] < r.real < u[-1]]
        assert len(roots) == 2
        knots = np.sort(np.concatenate([u, roots]))
        area = p.integ()
        exact, g = {u[-1]: 0.0}, 0.0
        for a, b in zip(knots[-2::-1], knots[:0:-1]):
            if net(0.5 * (a + b)) >= 0.0:
                g *= p(a) / p(b) * np.exp(-gamma * (b - a))
            else:
                g += p(a) - p(b) - gamma * (area(b) - area(a))
            exact[a] = g
        got = _g_form(p(u)[:, None], net(u)[:, None], 1.0, gamma)[0][:, 0]
        assert got[0] > 0.0
        np.testing.assert_allclose(got, [exact[x] for x in u], rtol=1e-12,
                                   atol=0)
