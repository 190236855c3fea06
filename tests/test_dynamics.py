import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from zkbs import (
    BlowupError,
    ContractionError,
    GridField,
    RegularizedFlux,
    SpectralField,
    StepperConfig,
    dealias_mask,
    eigenmode,
    eta,
    etd2_step,
    g_h,
    gaussian_bump,
    grid_quadrature,
    mixed_derivative,
    nonlinear_term,
    parseval_norm_sq,
    picard_solve,
    plan_domain,
    random_band,
    simulate,
    symbol,
    to_grid,
    to_spectral,
    traveling_mode,
)
from zkbs.cli import PROFILES
import zkbs.domain
import zkbs.dynamics
from zkbs.trajectory import Trajectory
from zkbs.dynamics import _advance, _etd2_tables

# hypothesis draws the cutoff scale h and |u| as a multiple of 1/h: the
# multiple lies in (1, 2) on the transition band and beyond 2 on the tail
cutoff_scales = st.floats(min_value=1e-3, max_value=1.0)
cutoff_multiples = st.floats(min_value=0.0, max_value=4.0)
signs = st.sampled_from((-1.0, 1.0))


class NanFromCall:
    """u^2/2 flux that returns NaN from its bad-th call on."""

    def __init__(self, bad):
        self.bad, self.calls = bad, 0

    def __call__(self, u):
        self.calls += 1
        return 0.5 * u**2 if self.calls < self.bad else np.full_like(u, np.nan)


def banded_field(d, rng, amplitude=0.5):
    c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
    c = np.where(dealias_mask(d), c, 0.0)
    u = to_grid(SpectralField(c), d)
    return GridField(amplitude * u.values / np.max(np.abs(u.values)))


class TestEta:
    def test_endpoint_plateaus(self):
        assert eta(-1.0) == 0.0
        assert eta(0.0) == 0.0
        assert eta(1.0) == 1.0
        assert eta(2.5) == 1.0

    def test_partition_of_unity_is_exact(self):
        x = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(eta(x) + eta(1.0 - x) - 1.0)) <= 1e-15

    def test_monotone_nondecreasing(self):
        x = np.linspace(-0.5, 1.5, 1001)
        assert np.all(np.diff(eta(x)) >= 0.0)

    def test_midpoint_symmetry(self):
        assert abs(eta(0.5) - 0.5) <= 1e-15


class TestRegularizedFlux:
    def test_h_validation(self):
        with pytest.raises(ValueError, match="h"):
            RegularizedFlux(h=0.0)
        with pytest.raises(ValueError, match="h"):
            RegularizedFlux(h=1.5)
        assert RegularizedFlux(h=None).regularized is False
        assert RegularizedFlux(h=1.0).regularized is True

    def test_unregularized_is_half_square(self, rng):
        flux = RegularizedFlux(h=None)
        u = rng.standard_normal(100) * 10
        assert np.array_equal(flux(u), 0.5 * u**2)
        assert np.array_equal(flux.prime(u), u)

    def test_quadratic_region_is_exact(self):
        flux = RegularizedFlux(h=0.25)
        u = np.array([-4.0, -1.0, 0.0, 2.5, 4.0])  # |u| <= 1/h = 4
        assert np.array_equal(flux(u), 0.5 * u**2)
        assert np.array_equal(flux.prime(u), u)

    def test_linear_tail_has_slope_two_over_h(self):
        flux = RegularizedFlux(h=0.5)
        assert np.isclose(flux(10.0) - flux(9.0), 2.0 / 0.5 * 1.0, rtol=1e-13)
        assert np.isclose(flux.prime(50.0), 2.0 / 0.5, rtol=1e-15)

    def test_evenness(self):
        flux = RegularizedFlux(h=1.0)
        u = np.linspace(0.0, 6.0, 61)
        assert np.allclose(flux(u), flux(-u), rtol=0, atol=0)
        assert np.allclose(flux.prime(u), -flux.prime(-u), rtol=0, atol=0)

    def test_prime_bounds(self):
        for h in (1.0, 0.5, 0.1):
            flux = RegularizedFlux(h=h)
            u = np.linspace(-5.0 / h, 5.0 / h, 4001)
            p = flux.prime(u)
            assert np.max(np.abs(p)) <= 2.0 / h + 1e-12
            assert np.all(np.abs(p) <= 2.0 * np.abs(u) + 1e-12)

    def test_scalar_value_in_band_matches_quad_oracle(self):
        # h = 1, u = 3 sits past the band [1, 2]: parabola + band + tail
        flux = RegularizedFlux(h=1.0)
        val = g_h(3.0, flux)
        assert 4.0 <= val <= 4.5
        assert abs(val - 4.138459355085541) <= 1e-12
        assert abs(flux(3.0) - val) <= 1e-12

    def test_band_quad_oracle_h_half(self):
        # flag the region seam at u = 1/h = 2 or adaptive quad loses digits
        flux = RegularizedFlux(h=0.5)
        ref, _ = quad(lambda t: flux.prime(t), 0.0, 3.0, epsabs=1e-13,
                      limit=200, points=[2.0])
        assert abs(flux(3.0) - ref) <= 1e-12
        assert abs(g_h(3.0, flux) - ref) <= 1e-12

    def test_vectorized_matches_scalar_path(self):
        flux = RegularizedFlux(h=0.5)
        us = np.linspace(-6.0, 6.0, 121)
        vec = flux(us)
        assert np.max(np.abs(vec - [g_h(float(u), flux) for u in us])) <= 1e-11

    def test_derivative_matches_finite_difference(self):
        flux = RegularizedFlux(h=0.5)
        us = np.linspace(1.9, 4.1, 45)  # spans the band
        eps = 1e-6
        fd = (flux(us + eps) - flux(us - eps)) / (2 * eps)
        assert np.max(np.abs(fd - flux.prime(us))) <= 1e-8


class TestTabulatedFlux:
    """The interpolated band integral against the adaptive-quadrature oracle."""

    @settings(deadline=None)
    @given(h=cutoff_scales, r=cutoff_multiples, sign=signs)
    def test_matches_quad_oracle(self, h, r, sign):
        flux = RegularizedFlux(h=h)
        u = sign * r / h
        ref = g_h(u, flux)
        assert abs(flux(u) - ref) <= 1e-12 * max(1.0, abs(ref))

    @given(h=cutoff_scales, r=st.lists(cutoff_multiples, min_size=1, max_size=16))
    def test_even_exactly(self, h, r):
        flux = RegularizedFlux(h=h)
        u = np.array(r) / h
        assert np.array_equal(flux(u), flux(-u))

    @given(h=cutoff_scales, knot=st.sampled_from((1.0, 2.0)), sign=signs)
    def test_continuous_across_band_edges(self, h, knot, sign):
        # neighbouring floats around |u| = 1/h and 2/h differ by the slope
        # times one spacing plus rounding: a few ulps of max(1, g_h)
        flux = RegularizedFlux(h=h)
        c = knot / h
        u = sign * np.array([np.nextafter(c, 0.0), c, np.nextafter(c, np.inf)])
        g = flux(u)
        tol = 16 * np.finfo(float).eps * max(1.0, g[1])
        assert np.max(np.abs(np.diff(g))) <= tol


class TestNonlinearTerm:
    def test_matches_direct_product_on_banded_data(self, small_domain, rng):
        # for dealiased data, -d/dx g(u) must equal -u u_x on the kept modes
        d = small_domain
        u = banded_field(d, rng)
        s = to_spectral(u, d)
        got = nonlinear_term(s, RegularizedFlux(h=None), d).coeffs
        ux = mixed_derivative(s, 1, 0, d).values
        want = to_spectral(GridField(-u.values * ux), d).coeffs
        mask = dealias_mask(d)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs((got - want)[mask])) <= 1e-11 * scale
        assert np.max(np.abs(got[~mask])) == 0.0

    def test_x_independent_data_has_zero_nonlinearity(self, small_domain):
        d = small_domain
        u = GridField(np.outer(np.ones(d.nx), np.sin(np.pi * d.y / d.L)))
        got = nonlinear_term(to_spectral(u, d), RegularizedFlux(h=None), d)
        assert np.max(np.abs(got.coeffs)) <= 1e-15


class TestEtd2:
    def test_matches_full_system_oracle(self):
        # integrate the semi-discrete system itself with an adaptive solver
        d = plan_domain(L=math.pi, X=2 * math.pi, nx=16, ny=8, delta=0.5)
        S = symbol(d)
        rng = np.random.default_rng(21)
        u0 = banded_field(d, rng, amplitude=0.4)
        s0 = to_spectral(u0, d)
        mask = dealias_mask(d)
        base = np.where(mask, s0.coeffs, 0.0)
        flux = RegularizedFlux(h=None)
        cfg = StepperConfig(scheme="etd2", dt=1e-3)

        def rhs(t, y):
            c = y.reshape(d.spectral_shape)
            vals = to_grid(SpectralField(c), d).values
            ghat = to_spectral(GridField(flux(vals)), d).coeffs
            n = np.where(mask, -1j * d.xi_odd[:, None] * ghat, 0.0)
            return (S.m * c + n).ravel()

        T = 0.05
        sol = solve_ivp(rhs, (0.0, T), base.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        ref = sol.y[:, -1].reshape(d.spectral_shape)

        errs = {}
        for dt in (1e-3, 5e-4):
            u = SpectralField(base)
            for _ in range(round(T / dt)):
                u = etd2_step(u, StepperConfig(scheme="etd2", dt=dt), flux, S)
            errs[dt] = np.max(np.abs(u.coeffs - ref))
        assert errs[1e-3] <= 1e-6
        # second-order error against the adaptively solved system
        assert 3.0 <= errs[1e-3] / errs[5e-4] <= 5.0

    def test_second_order_self_convergence(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        flux = RegularizedFlux(h=None)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            traj = simulate(u0, 0.2, StepperConfig(scheme="etd2", dt=dt), flux, d)
            finals[dt] = traj.snapshots[-1]
        e1 = np.max(np.abs(finals[4e-3] - finals[1e-3]))
        e2 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
        # with errors ~ C dt^2, the (4dt vs dt)/(2dt vs dt) gap ratio is 5
        assert 4.0 <= e1 / e2 <= 6.5


class TestBandKernel:
    """The step's kept-band transforms and the flux work they make free."""

    @pytest.mark.parametrize("h", [None, 1.0, 0.5])
    def test_flux_work_pairing_matches_the_grid_sum(self, medium_domain, h):
        # oracle: integral g_h(u) u_x summed on the grid from public transforms
        d = medium_domain
        flux = RegularizedFlux(h=h)
        traj = simulate(random_band(d, 11, amplitude=8.0), 0.005, StepperConfig(dt=1e-3),
                        flux, d, snapshot_stride=1, audit_series=False)
        assert traj.blowup_time is None
        for i, c in enumerate(traj.snapshots):
            s = SpectralField(c)
            g = flux(to_grid(s, d).values)
            want = grid_quadrature(g * mixed_derivative(s, 1, 0, d).values, d)
            bound = 1e-12 * max(1.0, traj.l2[i] ** 3)
            assert abs(traj.nonlin_flux[i] - want) <= bound

    def test_norms_only_step_makes_four_band_transforms(self, small_domain, monkeypatch):
        calls = {"synthesis": 0, "analysis": 0, "public": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(zkbs.dynamics, "_band_to_grid",
                            counted("synthesis", zkbs.dynamics._band_to_grid))
        monkeypatch.setattr(zkbs.dynamics, "_band_to_spectral",
                            counted("analysis", zkbs.dynamics._band_to_spectral))
        for module in (zkbs.domain, zkbs.dynamics):
            for name in ("to_grid", "to_spectral"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted("public", getattr(module, name)))
        d = small_domain
        n = 5
        traj = simulate(gaussian_bump(d), n * 1e-3, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d, audit_series=False)
        assert traj.n_steps == n
        # N(u0) before the loop, then a corrector and the new boundary's N per step
        assert calls == {"synthesis": 1 + 2 * n, "analysis": 1 + 2 * n, "public": 1}


class TestPicard:
    def test_zero_data_converges_immediately(self, small_domain):
        d = small_domain
        S = symbol(d)
        cfg = StepperConfig(scheme="picard", dt=1e-3)
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        field, diag = picard_solve(u0, 0.01, cfg, RegularizedFlux(h=None), S)
        assert diag.converged
        assert diag.iterations == 1
        assert np.max(np.abs(field.coeffs)) == 0.0

    def test_ratios_contract_and_grow_with_horizon(self, medium_domain, rng):
        d = medium_domain
        S = symbol(d)
        u0 = to_spectral(banded_field(d, rng, amplitude=0.1), d)
        cfg = StepperConfig(scheme="picard", dt=1e-3, picard_tol=1e-12)
        flux = RegularizedFlux(h=None)
        first = {}
        for t0 in (0.0125, 0.025, 0.05):
            _, diag = picard_solve(u0, t0, cfg, flux, S)
            assert diag.converged
            assert np.all(diag.ratios[:-1] < 1.0)
            first[t0] = diag.ratios[0]
        assert first[0.0125] < first[0.025] < first[0.05]

    def test_matches_etd2_at_final_time(self, medium_domain, rng):
        d = medium_domain
        S = symbol(d)
        u0g = banded_field(d, rng, amplitude=0.1)
        u0 = to_spectral(u0g, d)
        flux = RegularizedFlux(h=None)
        t0 = 0.05
        field, _ = picard_solve(
            u0, t0, StepperConfig(scheme="picard", dt=1e-3, picard_tol=1e-12),
            flux, S)
        traj = simulate(u0g, t0, StepperConfig(scheme="etd2", dt=1e-3), flux, d)
        diff = math.sqrt(parseval_norm_sq(field.coeffs - traj.snapshots[-1], d))
        assert diff <= 1e-6

    def test_contraction_error_message_mentions_t0(self, medium_domain, rng):
        d = medium_domain
        S = symbol(d)
        u0 = to_spectral(banded_field(d, rng, amplitude=0.5), d)
        cfg = StepperConfig(scheme="picard", dt=1e-3, picard_tol=1e-16,
                            picard_max_iter=2)
        with pytest.raises(ContractionError, match="reduce t0"):
            picard_solve(u0, 0.05, cfg, RegularizedFlux(h=None), S)

    def test_overflowing_data_is_a_blowup_without_warnings(self, small_domain):
        # the grid values overflow in the first sweep; the guard reports them
        d = small_domain
        u0 = to_spectral(traveling_mode(d, 1, 1, 1e120), d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError) as info:
                picard_solve(u0, 0.0125, StepperConfig(dt=1e-3), RegularizedFlux(h=None),
                             symbol(d))
        assert info.value.t == pytest.approx(0.0125 / 12)

    def test_rejects_nonpositive_horizon(self, small_domain):
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        with pytest.raises(ValueError):
            picard_solve(u0, 0.0, StepperConfig(), RegularizedFlux(h=None),
                         symbol(d))


class TestSimulate:
    def test_l2_monotone_and_flux_orthogonal(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        traj = simulate(u0, 0.2, StepperConfig(scheme="etd2", dt=1e-3),
                        RegularizedFlux(h=None), d)
        assert np.all(np.diff(traj.l2) <= 1e-12 * traj.l2[0])
        bound = 1e-10 * np.maximum(1.0, traj.l2**3)
        assert np.all(np.abs(traj.nonlin_flux) <= bound)

    def test_picard_scheme_runs_and_reports_iterations(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        traj = simulate(u0, 0.02, StepperConfig(scheme="picard", dt=1e-3,
                                                picard_tol=1e-11),
                        RegularizedFlux(h=None), d)
        assert traj.scheme == "picard"
        assert np.all(traj.step_iters[1:] >= 1)

    def test_schemes_agree_to_tolerance(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        flux = RegularizedFlux(h=None)
        a = simulate(u0, 0.02, StepperConfig(scheme="etd2", dt=1e-3), flux, d)
        b = simulate(u0, 0.02, StepperConfig(scheme="picard", dt=1e-3,
                                             picard_tol=1e-13), flux, d)
        diff = np.max(np.abs(a.snapshots[-1] - b.snapshots[-1]))
        assert diff <= 1e-9

    def test_blowup_truncates_trajectory(self, medium_domain, rng):
        d = medium_domain
        u0 = GridField(2000.0 * banded_field(d, rng).values)
        traj = simulate(u0, 5.0, StepperConfig(scheme="etd2", dt=1e-1),
                        RegularizedFlux(h=None), d)
        assert traj.blowup_time is not None
        n = len(traj.times)
        assert n < 51
        assert len(traj.l2) == n
        assert len(traj.mid_diss0) == n - 1
        assert traj.times[-1] <= traj.blowup_time + 1e-12

    def test_blowup_at_initial_state_keeps_no_boundary(self):
        # squaring 1e200 overflows, so the initial L2 norm is inf: a blowup
        # at t = 0 before any flux evaluation, with no numpy warning
        d = plan_domain(L=math.pi, X=16 * math.pi, nx=32, ny=8, delta=0.5)
        u0 = GridField(1e200 * gaussian_bump(d).values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(u0, 0.01, StepperConfig(dt=1e-3), RegularizedFlux(h=None), d)
        assert traj.blowup_time == 0.0
        for series in (traj.times, traj.l2, traj.nonlin_flux, traj.step_iters,
                       traj.mid_diss0, traj.mid_u2lap):
            assert len(series) == 0
        assert traj.snapshots == [] and len(traj.snapshot_indices) == 0

    def test_overflowing_audit_series_are_recorded_without_warnings(self, small_domain):
        # x-independent data do no flux work and survive, while the audit
        # integrand u^2 (u_xx + u_yy) overflows; the audit reports the inf
        d = small_domain
        u0 = eigenmode(d, 1, 1e103)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(u0, 0.01, StepperConfig(dt=1e-3), RegularizedFlux(h=None), d)
        assert traj.blowup_time is None
        assert not np.all(np.isfinite(traj.mid_u2lap))

    def test_blowup_in_post_step_evaluation_drops_that_boundary(self, small_domain):
        # per etd2 step the flux runs at the stage, the midpoint and the new
        # boundary; going non-finite on call 4 trips the first post-step
        # evaluation, so only boundary 0 was recorded
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        traj = simulate(u0, 0.01, StepperConfig(dt=1e-3), NanFromCall(4), d)
        ref = simulate(u0, 0.01, StepperConfig(dt=1e-3), RegularizedFlux(h=None), d)
        assert traj.blowup_time == pytest.approx(1e-3)
        assert list(traj.times) == [0.0]
        assert list(traj.l2) == [ref.l2[0]]
        assert list(traj.nonlin_flux) == [ref.nonlin_flux[0]]
        assert list(traj.step_iters) == [0]
        assert len(traj.mid_diss0) == 0 and len(traj.mid_rhs_h1) == 0
        assert list(traj.snapshot_indices) == [0]

    def test_low_guard_factor_trips_early(self, medium_domain):
        # guard measures growth, so a sub-unity factor trips immediately
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        traj = simulate(u0, 0.1, StepperConfig(scheme="etd2", dt=1e-3),
                        RegularizedFlux(h=None), d, guard_factor=0.5)
        assert traj.blowup_time is not None

    def test_snapshot_stride(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        traj = simulate(u0, 0.02, StepperConfig(scheme="etd2", dt=1e-3),
                        RegularizedFlux(h=None), d, snapshot_stride=5)
        assert list(traj.snapshot_indices) == [0, 5, 10, 15, 20]
        traj = simulate(u0, 0.02, StepperConfig(scheme="etd2", dt=1e-3),
                        RegularizedFlux(h=None), d, snapshot_stride=0)
        assert list(traj.snapshot_indices) == [0, 20]

    def test_rejects_non_divisible_dt(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        with pytest.raises(ValueError, match="divide"):
            simulate(u0, 0.0205, StepperConfig(scheme="etd2", dt=1e-3),
                     RegularizedFlux(h=None), d)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, small_domain, T):
        u0 = gaussian_bump(small_domain, 0.0, 2.0, 1, 0.3)
        with pytest.raises(ValueError, match="final time must be positive and finite"):
            simulate(u0, T, StepperConfig(dt=1e-3), RegularizedFlux(h=None), small_domain)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_stepper_rejects_non_positive_or_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            StepperConfig(dt=dt)

    def test_regularized_run_matches_unregularized_below_cutoff(self, medium_domain):
        # 1/h >= 2 max|u| keeps every sample in the parabola region, so the
        # two fluxes are the same function and the runs agree bit for bit
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        cfg = StepperConfig(scheme="etd2", dt=1e-3)
        plain = simulate(u0, 0.1, cfg, RegularizedFlux(h=None), d)
        reg = simulate(u0, 0.1, cfg, RegularizedFlux(h=1.0), d)
        assert np.array_equal(plain.l2, reg.l2)
        assert np.array_equal(plain.snapshots[-1], reg.snapshots[-1])

    def test_active_cutoff_changes_the_flow_but_stays_stable(self, medium_domain):
        # amplitude 3 with h = 1 puts grid values inside the band |u| > 1,
        # so the regularized trajectory genuinely departs from u^2/2
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 3.0)
        cfg = StepperConfig(scheme="etd2", dt=1e-3)
        plain = simulate(u0, 0.1, cfg, RegularizedFlux(h=None), d)
        reg = simulate(u0, 0.1, cfg, RegularizedFlux(h=1.0), d)
        assert reg.blowup_time is None
        assert not np.array_equal(plain.snapshots[-1], reg.snapshots[-1])

    def test_cutoff_active_on_most_of_the_grid(self, small_domain):
        # h = 1 with most samples beyond 1/h: the band and tail paths carry
        # the flux, and the flow must stay bounded and dissipative
        d = small_domain
        u0 = random_band(d, 3, amplitude=8.0)
        assert np.mean(np.abs(u0.values) > 1.0) > 0.5
        traj = simulate(u0, 0.05, StepperConfig(dt=1e-3), RegularizedFlux(h=1.0), d)
        assert traj.blowup_time is None
        assert len(traj.times) == 51
        slack = PROFILES["default"]["monotone_slack"] * max(1.0, traj.l2[0])
        assert np.max(np.diff(traj.l2)) <= slack


class TestOneStep:
    """simulate, etd2_step and the Picard scheme take the same step."""

    def test_simulate_equals_repeated_etd2_step(self, small_domain):
        d = small_domain
        S = symbol(d)
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        cfg = StepperConfig(scheme="etd2", dt=1e-3)
        flux = RegularizedFlux(h=None)
        traj = simulate(u0, 0.01, cfg, flux, d)
        u = SpectralField(np.where(dealias_mask(d), to_spectral(u0, d).coeffs, 0.0))
        for _ in range(10):
            u = etd2_step(u, cfg, flux, S)
        assert np.array_equal(traj.snapshots[-1], u.coeffs)

    def test_picard_scheme_repeats_its_first_step(self, small_domain):
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        cfg = StepperConfig(scheme="picard", dt=1e-3)
        flux = RegularizedFlux(h=None)
        traj = simulate(u0, 0.01, cfg, flux, d, snapshot_stride=1)
        first = simulate(u0, 1e-3, cfg, flux, d)
        assert np.array_equal(traj.snapshots[1], first.snapshots[-1])
        assert traj.step_iters[1] == first.step_iters[1]
        # every later step is that same step taken from the previous state
        tab = _etd2_tables(symbol(d), cfg.dt)
        for k in range(10):
            u = traj.snapshots[k]
            n0 = nonlinear_term(SpectralField(u), flux, d).coeffs
            u_next, iters = _advance(u, n0, tab, "picard", cfg, flux, d, traj.times[k + 1])
            assert np.array_equal(traj.snapshots[k + 1], u_next)
            assert iters == traj.step_iters[k + 1]


AUDIT_ONLY = ("cube", "mid_rhs_h1", "mid_rhs_h2", "mid_u2lap")


def lean_and_full(u0, T, cfg, flux, d, **kwargs):
    full = simulate(u0, T, cfg, flux, d, **kwargs)
    lean = simulate(u0, T, cfg, flux, d, audit_series=False, **kwargs)
    return full, lean


class TestAuditSeries:
    """audit_series=False drops the audit-only series and changes nothing else."""

    def assert_lean_matches_full(self, full, lean):
        assert lean.domain is full.domain and lean.scheme == full.scheme
        assert lean.blowup_time == full.blowup_time
        for field in dataclasses.fields(Trajectory):
            a, b = getattr(full, field.name), getattr(lean, field.name)
            if field.name in AUDIT_ONLY:
                assert a is not None and b is None, field.name
            elif field.name == "snapshots":
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
            elif isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name

    def test_etd2(self, small_domain):
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        full, lean = lean_and_full(u0, 0.02, StepperConfig(dt=1e-3),
                                   RegularizedFlux(h=None), d, snapshot_stride=5)
        assert len(full.snapshots) == 5
        self.assert_lean_matches_full(full, lean)

    def test_picard_scheme(self, small_domain):
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        cfg = StepperConfig(scheme="picard", dt=1e-3)
        full, lean = lean_and_full(u0, 0.01, cfg, RegularizedFlux(h=None), d)
        assert np.all(full.step_iters[1:] >= 2)
        self.assert_lean_matches_full(full, lean)

    def test_active_cutoff(self, small_domain):
        d = small_domain
        u0 = random_band(d, 3, amplitude=8.0)
        assert np.mean(np.abs(u0.values) > 1.0) > 0.5
        full, lean = lean_and_full(u0, 0.01, StepperConfig(dt=1e-3),
                                   RegularizedFlux(h=1.0), d)
        self.assert_lean_matches_full(full, lean)

    def test_guard_truncated_run(self, small_domain):
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        full, lean = lean_and_full(u0, 0.01, StepperConfig(dt=1e-3),
                                   RegularizedFlux(h=None), d, guard_factor=0.5)
        assert full.blowup_time == pytest.approx(1e-3) and len(full.times) == 1
        self.assert_lean_matches_full(full, lean)

    def test_blowup_at_initial_state(self):
        d = plan_domain(L=math.pi, X=16 * math.pi, nx=32, ny=8, delta=0.5)
        u0 = GridField(1e200 * gaussian_bump(d).values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full, lean = lean_and_full(u0, 0.01, StepperConfig(dt=1e-3),
                                       RegularizedFlux(h=None), d)
        assert full.blowup_time == 0.0 and len(full.times) == 0
        self.assert_lean_matches_full(full, lean)

    def test_only_a_full_run_evaluates_the_averaged_state(self, small_domain):
        # the third flux call is the averaged state of step 1 in a full run
        # and the new boundary in a lean one, so the lean run stops at dt
        # rather than dt/2; both keep boundary 0 alone
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        cfg = StepperConfig(dt=1e-3)
        full = simulate(u0, 0.01, cfg, NanFromCall(3), d)
        lean = simulate(u0, 0.01, cfg, NanFromCall(3), d, audit_series=False)
        assert full.blowup_time == pytest.approx(0.5e-3)
        assert lean.blowup_time == pytest.approx(1e-3)
        assert list(full.times) == list(lean.times) == [0.0]
