import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from zkbs import (
    GridField,
    SpectralField,
    apply_semigroup,
    audit_identity,
    duhamel_solve,
    parseval_norm_sq,
    phi,
    plan_domain,
    refinement_order,
    symbol,
    to_grid,
    to_spectral,
)
from zkbs.domain import _kept_band
from zkbs.semigroup import _block_steps
from zkbs.trajectory import _Recorder


# linear-verify's forced solves run on these 8 x 4 modes; duhamel_solve steps them 56 at a time
MODES_8X4 = plan_domain(L=math.pi, X=16 * math.pi, nx=14, ny=4, delta=0.5)


def single_mode(d, j, l, amp=1.0, theta=0.0):
    c = np.zeros(d.spectral_shape, dtype=complex)
    if j == 0:
        c[0, l - 1] = amp * math.cos(theta)
    else:
        c[j, l - 1] = 0.5 * amp * np.exp(1j * theta)
    return SpectralField(c)


class TestPhi:
    def test_phi1_matches_closed_form(self):
        z = np.array([0.3, 0.49, 2.0, -4.0, 0.4j, 1.0 + 2.0j], dtype=complex)
        got = phi(1, z)
        want = np.expm1(z) / z
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_small_z_series_is_stable(self):
        # the closed form loses digits below |z| ~ 1e-8; the series must not
        z = np.array([1e-12, 1e-8, -1e-10, 1e-9j], dtype=complex)
        for k, lead, nxt in ((1, 1.0, 0.5), (2, 0.5, 1 / 6), (3, 1 / 6, 1 / 24)):
            got = phi(k, z)
            want = lead + nxt * z
            assert np.max(np.abs(got - want)) <= 1e-14, k

    def test_recurrence_across_series_boundary(self):
        # phi_{k+1}(z) = (phi_k(z) - 1/k!) / z ties the series branch
        # (|z| < 0.5) to the closed-form branch
        z = np.array([0.49, 0.51, -0.49, -0.51, 0.49j, 0.51j], dtype=complex)
        for k in (1, 2):
            lhs = phi(k + 1, z)
            rhs = (phi(k, z) - 1.0 / math.factorial(k)) / z
            assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_rejects_bad_order(self):
        for order in (-1, 0, 4):
            with pytest.raises(ValueError):
                phi(order, np.array([1.0 + 0j]))


class TestSymbol:
    def test_symbol_values(self, small_domain):
        d = small_domain
        S = symbol(d)
        j, l = 5, 3
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        want = 1j * (xi**3 + xi * lam) - d.delta * (xi**2 + lam)
        assert abs(S.m[j, l - 1] - want) <= 1e-15 * abs(want)

    def test_nyquist_column_is_pure_decay(self, small_domain):
        d = small_domain
        S = symbol(d)
        col = S.m[d.nx // 2, :]
        assert np.max(np.abs(col.imag)) == 0.0
        assert np.all(col.real < 0.0)

    def test_dissipative_bound(self, small_domain):
        # |e^{m t}| <= e^{-delta pi^2 t / L^2} for every mode
        d = small_domain
        S = symbol(d)
        rate = -d.delta * np.pi**2 / d.L**2  # the least-negative real part, at mode (0, 1)
        for t in (0.1, 1.0, 3.0):
            mags = np.abs(np.exp(S.m * t))
            assert np.max(mags) <= math.exp(rate * t) * (1.0 + 1e-14)


class TestPropagator:
    def test_single_mode_closed_form(self, small_domain):
        d = small_domain
        S = symbol(d)
        j, l, amp, theta = 7, 2, 1.4, 0.9
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        s0 = single_mode(d, j, l, amp, theta)
        for t in (0.0, 0.4, 1.7):
            got = to_grid(apply_semigroup(s0, t, S), d).values
            envelope = amp * math.exp(-d.delta * (xi**2 + lam) * t)
            want = envelope * np.outer(
                np.cos(xi * d.x + theta + (xi**3 + xi * lam) * t),
                np.sin(np.pi * l * d.y / d.L),
            )
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, t

    def test_x_independent_data_follows_heat_law(self, small_domain):
        d = small_domain
        S = symbol(d)
        u0 = GridField(np.outer(np.ones(d.nx), np.sin(np.pi * d.y / d.L)))
        s = to_spectral(u0, d)
        got = to_grid(apply_semigroup(s, 0.8, S), d).values
        want = math.exp(-d.delta * (np.pi / d.L) ** 2 * 0.8) * u0.values
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_semigroup_property(self, small_domain, rng):
        d = small_domain
        S = symbol(d)
        s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        one = apply_semigroup(s, 0.9, S).coeffs
        two = apply_semigroup(apply_semigroup(s, 0.5, S), 0.4, S).coeffs
        assert np.max(np.abs(one - two)) <= 1e-13 * np.max(np.abs(one))

    def test_rejects_negative_time(self, small_domain, rng):
        d = small_domain
        s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        with pytest.raises(ValueError, match="t >= 0"):
            apply_semigroup(s, -0.1, symbol(d))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, small_domain, t):
        d = small_domain
        s = to_spectral(GridField(np.ones(d.shape)), d)
        with pytest.raises(ValueError, match="requires finite t >= 0"):
            apply_semigroup(s, t, symbol(d))


class TestDuhamel:
    def test_constant_forcing_closed_form(self, small_domain):
        # u' = m u + f with constant f: u(T) = e^{mT} u0 + (e^{mT}-1)/m f
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(3)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
        T = 0.5
        traj = duhamel_solve(u0, lambda t: f, T, 1e-3, S, snapshot_stride=0)
        got = traj.snapshots[-1]
        want = np.exp(S.m * T) * u0.coeffs + (np.exp(S.m * T) - 1.0) / S.m * f
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_quadratic_forcing_is_integrated_exactly(self, small_domain):
        # the three-node weights are exact for forcing polynomials of
        # degree <= 2, so halving dt must not change the answer
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(4)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs

        def forcing(t):
            return f * (1.0 - 2.0 * t + 3.0 * t**2)

        a = duhamel_solve(u0, forcing, 0.4, 2e-3, S, snapshot_stride=0).snapshots[-1]
        b = duhamel_solve(u0, forcing, 0.4, 1e-3, S, snapshot_stride=0).snapshots[-1]
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_against_adaptive_oracle(self, small_domain):
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(7)
        modes = [(j, l) for j in (0, 2, 3, 5) for l in (1, 2)]
        u0c = np.zeros(d.spectral_shape, dtype=complex)
        f0 = np.zeros(d.spectral_shape, dtype=complex)
        for j, l in modes:
            im = 1j if j else 0.0  # the x-mean row of a real field is real
            u0c[j, l - 1] = rng.standard_normal() + im * rng.standard_normal()
            f0[j, l - 1] = rng.standard_normal() + im * rng.standard_normal()

        def forcing(t):
            return f0 * math.sin(2.5 * t) * math.exp(-0.5 * t)

        T = 1.0
        traj = duhamel_solve(SpectralField(u0c), forcing, T, 1e-3, S,
                             snapshot_stride=0)
        got = traj.snapshots[-1]
        worst = 0.0
        scale = 0.0
        for j, l in modes:
            m = S.m[j, l - 1]
            fa = f0[j, l - 1]
            sol = solve_ivp(
                lambda t, y: m * y + fa * math.sin(2.5 * t) * math.exp(-0.5 * t),
                (0.0, T),
                np.array([u0c[j, l - 1]]),
                method="DOP853", rtol=1e-12, atol=1e-14,
            )
            ref = sol.y[0, -1]
            worst = max(worst, abs(got[j, l - 1] - ref))
            scale = max(scale, abs(ref))
        assert worst <= 1e-8 * scale

    def test_forcing_is_sampled_once_per_boundary_and_midpoint(self, small_domain):
        # n steps need n + 1 boundaries and n midpoints, 2n + 1 samples in all,
        # taken in time order across the edges of the solve's blocks of B steps
        for d in (small_domain, MODES_8X4):
            B = _block_steps(d)
            f = to_spectral(GridField(np.random.default_rng(5).standard_normal(d.shape)),
                            d).coeffs
            for n in (B + 3, 2 * B, 2 * B + 3):
                times = []

                def forcing(t):
                    times.append(t)
                    return f

                traj = duhamel_solve(SpectralField(np.zeros_like(f)), forcing, n * 1e-3, 1e-3,
                                     symbol(d))
                assert traj.n_steps == n and len(times) == 2 * n + 1
                assert times[::2] == list(traj.times)  # boundaries, at the recorded times
                assert times[1::2] == [t + 0.5e-3 for t in traj.times[:-1]]  # midpoints
                assert all(a < b for a, b in zip(times, times[1:]))

    def test_block_size_comes_from_the_byte_budget(self, small_domain, desk_domain):
        # a forced block's 9 B half spectra fit in 256 KiB, with B from 1 to 64
        assert _block_steps(MODES_8X4) == 56
        assert 9 * 56 * 16 * 8 * 4 <= 2**18 < 9 * 57 * 16 * 8 * 4
        state = 16 * 33 * 16
        assert _block_steps(small_domain) == 3
        assert 9 * 3 * state <= 2**18 < 9 * 4 * state
        assert _block_steps(desk_domain) == 1  # where not even 9 states fit

    @pytest.mark.parametrize("domain", ["small", "modes_8x4"])
    @pytest.mark.parametrize("where", ["first", "second block", "last"])
    @pytest.mark.parametrize("bad, message", [
        ("nan", "forcing sample contains non-finite entries"),
        ("imaginary mean row", "forcing sample is not a real field's spectrum"),
        ("row", "forcing sample has shape"),
    ])
    def test_a_bad_sample_is_refused_wherever_it_falls_in_a_block(self, small_domain, domain,
                                                                  where, bad, message):
        # with n = 2B + 3 steps, sample 0 starts the first block, sample
        # 2B + 3 is a midpoint inside the second and sample 2n ends the last,
        # partial, block; each bad sample raises the message it raises alone
        d = small_domain if domain == "small" else MODES_8X4
        B = _block_steps(d)
        n = 2 * B + 3
        at = {"first": 0, "second block": 2 * B + 3, "last": 2 * n}[where]
        good = np.zeros(d.spectral_shape, dtype=complex)
        if bad == "nan":
            wrong = np.full(d.spectral_shape, np.nan, dtype=complex)
        elif bad == "imaginary mean row":
            wrong = good.copy()
            wrong[0, 1] = 1.0j
        else:  # one row of amplitudes would broadcast over the half spectrum
            wrong = np.ones(d.ny, dtype=complex)
        calls = []

        def forcing(t):
            calls.append(t)
            return wrong if len(calls) == at + 1 else good

        with pytest.raises(ValueError, match=message):
            duhamel_solve(SpectralField(good), forcing, n * 1e-3, 1e-3, symbol(d))
        assert len(calls) > at

    def test_rejects_non_finite_initial_amplitudes(self, small_domain):
        # as a forcing sample is: a NaN would otherwise solve to an all-NaN run
        d = small_domain
        for value in (np.nan, np.inf, complex(1.0, np.nan)):
            c = np.zeros(d.spectral_shape, dtype=complex)
            c[3, 2] = value
            with pytest.raises(ValueError, match="initial amplitudes contains non-finite"):
                duhamel_solve(SpectralField(c), None, 0.01, 1e-3, symbol(d))

    def test_rejects_non_divisible_dt(self, small_domain):
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        with pytest.raises(ValueError, match="divide"):
            duhamel_solve(u0, None, 0.35, 1e-4 * 3, symbol(d))

    def test_rejects_non_finite_forcing(self, small_domain):
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        bad = np.full(d.spectral_shape, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            duhamel_solve(u0, lambda t: bad, 0.01, 1e-3, symbol(d))

    def test_rejects_initial_amplitudes_of_no_real_field(self, small_domain):
        d = small_domain
        c = np.zeros(d.spectral_shape, dtype=complex)
        c[0, 0] = 1.0 + 1.0j
        with pytest.raises(ValueError, match="initial amplitudes.*real field"):
            duhamel_solve(SpectralField(c), None, 0.01, 1e-3, symbol(d))

    def test_rejects_forcing_of_wrong_shape_before_broadcasting_it(self, small_domain):
        # one row of amplitudes would broadcast over the half spectrum
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        row = np.ones(d.ny, dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            duhamel_solve(u0, lambda t: row, 0.01, 1e-3, symbol(d))

    def test_forcing_may_reuse_one_output_buffer(self, small_domain):
        # samples are copied where they are taken, so a callable that
        # overwrites and returns one array solves as one that returns fresh
        # ones, over more steps than one block holds
        for d in (small_domain, MODES_8X4):
            S = symbol(d)
            n = 2 * _block_steps(d) + 3
            rng = np.random.default_rng(8)
            u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
            f0 = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
            buf = np.empty_like(f0)

            def reused(t):
                return np.multiply(f0, math.cos(5.0 * t), out=buf)

            fresh, once = (duhamel_solve(u0, forcing, n * 1e-3, 1e-3, S)
                           for forcing in (lambda t: f0 * math.cos(5.0 * t), reused))
            assert len(fresh.snapshots) == fresh.n_steps + 1 == n + 1
            for a, b in zip(fresh.snapshots, once.snapshots, strict=True):
                assert np.array_equal(a, b)

    def test_rejects_forcing_of_no_real_field(self, small_domain):
        # an imaginary x-mean row is not the spectrum of a real field; it
        # must be refused where it enters, not solved silently
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        bad = np.zeros(d.spectral_shape, dtype=complex)
        bad[0, 1] = 1.0j
        with pytest.raises(ValueError, match="real field"):
            duhamel_solve(u0, lambda t: bad, 0.01, 1e-3, symbol(d))


def expression_form_solve(u0, forcing, T, dt, S):
    """duhamel_solve's step and recorder sums written as array expressions.

    Every product and sum makes a fresh temporary, in the order that
    duhamel_solve's in-place step takes them.  Returns the states, the
    boundary sums (l2^2, h1^2, h2^2, diss_l2, diss_h1, e2_mixed, then
    h_half^2 and h3_half^2, each product apart), the interval sums
    (mid_diss0/1/2) and the work series (nonlin_flux, mid_rhs_h1 and
    mid_rhs_h2, zero when unforced).
    """
    rec = _Recorder(S.domain, T, dt, 1)
    work = np.zeros((3, rec.n_steps + 1))

    def pair(weights, a, b):
        return weights @ (np.conj(a) * b).real.ravel()

    z = S.m * dt
    p1, p2, p3 = phi(1, z), phi(2, z), phi(3, z)
    E = np.exp(z)
    w_left = dt * (p1 - 3.0 * p2 + 4.0 * p3)
    w_mid = dt * (4.0 * p2 - 8.0 * p3)
    w_right = dt * (4.0 * p3 - p2)

    def sums(c, *products):
        return np.concatenate([m @ (c.real**2 + c.imag**2).ravel() for m in products])

    u = np.array(u0.coeffs, dtype=complex)
    states, bsums, msums = [u], [sums(u, rec.stacked, rec.half_stacked)], []
    f_right = None if forcing is None else forcing(rec.times[0])
    if forcing is not None:
        work[0, 0] = pair(rec.stacked[0], u, f_right)
    for i in range(rec.n_steps):
        if forcing is None:
            u_next = E * u
        else:
            f_left, f_mid, f_right = (f_right, forcing(rec.times[i] + 0.5 * dt),
                                      forcing(rec.times[i + 1]))
            u_next = E * u + w_left * f_left + w_mid * f_mid + w_right * f_right
        uavg = 0.5 * (u + u_next)
        msums.append(sums(uavg, rec.mid_stacked))
        u = u_next
        states.append(u)
        bsums.append(sums(u, rec.stacked, rec.half_stacked))
        if forcing is not None:
            work[0, i + 1] = pair(rec.stacked[0], u, f_right)
            work[1:, i] = 2.0 * pair(rec.work_stacked, uavg, f_mid)
    return states, np.array(bsums).T, np.array(msums).T, work


class TestInPlaceStep:
    """The buffered step and recorder against their expression forms, bit for bit."""

    @pytest.mark.parametrize("forced", [True, False], ids=["forced", "homogeneous"])
    def test_every_snapshot_and_series_matches_the_expression_form(self, small_domain,
                                                                   forced):
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(21)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f0 = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs

        def forcing(t):
            return f0 * (math.sin(3.0 * t) + 0.5)

        forcing = forcing if forced else None
        traj = duhamel_solve(u0, forcing, 0.05, 1e-3, S)
        states, bsums, msums, work = expression_form_solve(u0, forcing, 0.05, 1e-3, S)
        assert len(traj.snapshots) == len(states) == 51
        for got, want in zip(traj.snapshots, states, strict=True):
            assert np.array_equal(got, want)
        for name, want in zip(("l2", "h1", "h2", "h_half", "h3_half"), bsums[[0, 1, 2, 6, 7]]):
            assert np.array_equal(getattr(traj, name), np.sqrt(want)), name
        for name, want in zip(("diss_l2", "diss_h1", "e2_mixed"), bsums[3:6]):
            assert np.array_equal(getattr(traj, name), want), name
        for name, want in zip(("mid_diss0", "mid_diss1", "mid_diss2"), msums):
            assert np.array_equal(getattr(traj, name), want), name
        assert np.array_equal(traj.nonlin_flux, work[0])
        for name, want in zip(("mid_rhs_h1", "mid_rhs_h2"), work[1:]):
            assert np.array_equal(getattr(traj, name), want[:-1]), name
        assert np.any(work != 0.0) == forced

    def test_band_recorder_of_a_strided_block_matches_the_expression_form(self, small_domain):
        # simulate records a (kx, ky) view into a larger array
        d = small_domain
        kx, ky = _kept_band(d)
        rng = np.random.default_rng(22)
        full = rng.standard_normal(d.spectral_shape) + 1j * rng.standard_normal(d.spectral_shape)
        block, rhs = full[:kx, :ky], full[1:, 1:][:kx, :ky]
        rec = _Recorder(d, 1.0, 1.0, 0, interval_series=("mid_rhs_h1", "mid_rhs_h2"),
                        shape=(kx, ky))
        rec.boundary(0, block)
        rec.work(0, block, rhs)
        rec.interval(0, block, rhs)
        squares = (block.real**2 + block.imag**2).ravel()
        want = [*(rec.stacked @ squares), *(rec.half_stacked @ squares)]
        names = ("l2", "h1", "h2", "diss_l2", "diss_h1", "e2_mixed", "h_half", "h3_half")
        assert [rec.cols[name][0] for name in names] == [
            v if name in ("diss_l2", "diss_h1", "e2_mixed") else math.sqrt(v)
            for name, v in zip(names, want)]
        assert [rec.mid[name][0] for name in rec.mid_weights] == list(
            rec.mid_stacked @ squares)
        products = (np.conj(block) * rhs).real.ravel()
        assert rec.cols["nonlin_flux"][0] == rec.pairing(block, rhs) == float(
            rec.stacked[0] @ products)
        assert [rec.mid["mid_rhs_h1"][0], rec.mid["mid_rhs_h2"][0]] == list(
            2.0 * (rec.work_stacked @ products))


class TestLinearAudits:
    def test_homogeneous_mass_residual_is_tiny(self):
        # single-mode semigroup run on a small grid: the midpoint rule
        # integrates e^{-2 rate t} with fourth-derivative error; at
        # dt = 1e-5 over 100 steps that sits below 1e-10
        d = plan_domain(L=math.pi, X=2 * math.pi, nx=16, ny=8, delta=0.5)
        S = symbol(d)
        s0 = single_mode(d, 1, 1, amp=1.0)
        nrm = math.sqrt(parseval_norm_sq(s0.coeffs, d))
        s0 = SpectralField(s0.coeffs / nrm)
        traj = duhamel_solve(s0, None, 1e-3, 1e-5, S, snapshot_stride=0)
        rep = audit_identity(traj, "mass_3_3")
        assert rep.identity == "mass_3_3"
        assert rep.max_residual <= 1e-10

    @pytest.mark.parametrize("which", ["mass_3_3", "h1_3_15", "h2_3_29"],
                             ids=["mass", "grad", "hess"])
    def test_homogeneous_residuals_refine_at_second_order(self, small_domain, which):
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(11)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        coarse, fine = (audit_identity(
            duhamel_solve(u0, None, 0.2, dt, S, snapshot_stride=0), which)
            for dt in (2e-3, 1e-3))
        assert (coarse.dt, fine.dt) == (2e-3, 1e-3)
        assert 1.7 <= refinement_order(coarse, fine) <= 2.3

    def test_forced_mass_residual_refines_at_second_order(self, small_domain):
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(12)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f0c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
        f1c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
        f2c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs

        def forcing(t):
            w = math.cos(3.0 * t)
            # f = f0 + d/dx f1 + d/dy f2; f2 lives in the cosine basis,
            # so its y derivative lands in the sine basis with a minus
            fx = 1j * d.xi_odd[:, None] * f1c
            fy = -np.sqrt(d.lam)[None, :] * f2c
            return w * (f0c + fx + fy)

        def run(dt):
            return audit_identity(duhamel_solve(u0, forcing, 0.2, dt, S), "mass_3_3")

        assert 1.7 <= refinement_order(run(2e-3), run(1e-3)) <= 2.3

    def test_forced_grad_and_hess_residuals_refine(self, small_domain):
        d = small_domain
        S = symbol(d)
        rng = np.random.default_rng(13)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f0c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs

        def forcing(t):
            return f0c * math.exp(-t)

        def rep(which, dt):
            return audit_identity(duhamel_solve(u0, forcing, 0.2, dt, S), which)

        for which in ("h1_3_15", "h2_3_29"):
            assert 1.7 <= refinement_order(rep(which, 2e-3), rep(which, 1e-3)) <= 2.3, which

    def test_forced_audit_pairs_each_order_with_its_weight(self, small_domain):
        # one mode from rest under constant forcing: each identity is the mass
        # identity times its weight (1, d1 = 9.25, e2 = 83.3 on mode (8, 3)), and the
        # time rules leave 1.1e-6 of the energy, so any other weight shows
        d = small_domain
        f = np.zeros(d.spectral_shape, dtype=complex)
        f[8, 2] = 0.5 + 0.25j

        def forcing(t):
            return f

        traj = duhamel_solve(SpectralField(np.zeros_like(f)), forcing, 0.2, 1e-3, symbol(d))
        for which, energy in (("mass_3_3", traj.l2**2), ("h1_3_15", traj.diss_l2),
                              ("h2_3_29", traj.e2_mixed)):
            rep = audit_identity(traj, which)
            assert rep.max_residual <= 1e-5 * np.max(energy), which

    @pytest.mark.parametrize("forced", [False, True])
    def test_one_step_solve_audits_to_two_finite_residuals(self, small_domain, forced):
        d = small_domain
        rng = np.random.default_rng(14)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f0c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
        forcing = (lambda t: f0c * math.cos(t)) if forced else None
        traj = duhamel_solve(u0, forcing, 1e-3, 1e-3, symbol(d))
        for which in ("mass_3_3", "h1_3_15", "h2_3_29"):
            rep = audit_identity(traj, which)
            assert rep.residual.shape == (2,) and np.all(np.isfinite(rep.residual)), which
            assert np.array_equal(rep.times, traj.times)

    def test_forced_audit_does_not_depend_on_the_snapshot_stride(self, small_domain):
        # the work is recorded at every step, so the residual series is the
        # same, bit for bit, whichever boundaries keep a snapshot
        d = small_domain
        rng = np.random.default_rng(15)
        u0 = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        f0c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs

        def forcing(t):
            return f0c * math.exp(-t)

        trajs = [duhamel_solve(u0, forcing, 0.05, 1e-3, symbol(d), snapshot_stride=stride)
                 for stride in (0, 1, 5)]
        assert [len(traj.snapshots) for traj in trajs] == [2, 51, 11]
        for which in ("mass_3_3", "h1_3_15", "h2_3_29"):
            reps = [audit_identity(traj, which) for traj in trajs]
            assert reps[0].residual.shape == (51,) and reps[0].residual[0] == 0.0, which
            assert np.all(reps[0].residual[1:] > 0.0), which
            for rep in reps[1:]:
                assert np.array_equal(rep.times, reps[0].times), which
                assert np.array_equal(rep.residual.view(np.uint64),
                                      reps[0].residual.view(np.uint64)), which

    def test_forced_run_has_no_combined_identity(self, small_domain):
        # combined_3_23 holds for the u^2/2 flux only; a forced linear run
        # records no cube series, and the refusal names it
        d = small_domain
        f = np.zeros(d.spectral_shape, dtype=complex)
        f[3, 1] = 1.0 + 0.5j
        traj = duhamel_solve(SpectralField(np.zeros_like(f)), lambda t: f, 0.01, 1e-3,
                             symbol(d))
        assert traj.cube is None and np.any(traj.nonlin_flux != 0.0)
        with pytest.raises(ValueError, match="lacks the 'cube' diagnostics"):
            audit_identity(traj, "combined_3_23")

    def test_unknown_identity_rejected(self, small_domain):
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        traj = duhamel_solve(u0, None, 0.01, 1e-3, symbol(d))
        with pytest.raises(ValueError, match="unknown"):
            audit_identity(traj, "momentum")
