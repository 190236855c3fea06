import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from zkbs import (
    BlowupError,
    GridField,
    RegularizedFlux,
    SpectralField,
    StepperConfig,
    duhamel_solve,
    eigenmode,
    eta,
    g_h,
    gaussian_bump,
    parseval_norm_sq,
    picard_windows,
    plan_domain,
    random_band,
    simulate,
    symbol,
    to_grid,
    to_spectral,
    traveling_mode,
)
from oracles import grid_quadrature, mixed_derivative
from zkbs.cli import PROFILES
import zkbs.domain
import zkbs.dynamics
import zkbs.trajectory
from zkbs.trajectory import _MAX_SERIES, Trajectory, _resolve_steps
from zkbs.domain import _grid_work, _kept_band, _pad_band

# hypothesis draws the cutoff scale h and |u| as a multiple of 1/h: the
# multiple lies in (1, 2) on the transition band and beyond 2 on the tail
cutoff_scales = st.floats(min_value=1e-3, max_value=1.0)
cutoff_multiples = st.floats(min_value=0.0, max_value=4.0)
signs = st.sampled_from((-1.0, 1.0))


class NanFromCall:
    """u^2/2 flux that returns NaN from its bad-th call on."""

    h = None

    def __init__(self, bad):
        self.bad, self.calls = bad, 0

    def __call__(self, u):
        self.calls += 1
        return 0.5 * u**2 if self.calls < self.bad else np.full_like(u, np.nan)


def banded_field(d, rng, amplitude=0.5):
    kx, ky = _kept_band(d)
    c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
    u = to_grid(SpectralField(_pad_band(c[:kx, :ky], d)), d)
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

    def test_scalar_value_without_cutoff_is_the_parabola(self):
        # h = None is u^2 / 2 everywhere, on either side of any cutoff
        flux = RegularizedFlux(None)
        for u in (-3.0, 0.5, 3.0):
            assert g_h(u, flux) == 0.5 * u * u, u

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

    def test_table_matches_gauss_rule(self):
        s = np.linspace(0.0, 1.0, 100_001)
        got = zkbs.dynamics._remainder(s, zkbs.dynamics._flux_table().coeffs)
        err = np.abs(got - zkbs.dynamics._remainder_gauss(s, *np.polynomial.legendre.leggauss(96)))
        assert np.max(err) <= 2e-15

    @given(h=cutoff_scales, seam=st.integers(min_value=1, max_value=23), sign=signs)
    def test_continuous_across_table_seams(self, h, seam, sign):
        # nine neighbouring floats around |u| = (1 + seam/24) / h, where the table
        # passes from piece seam - 1 to piece seam, differ by a few ulps of max(1, g_h)
        flux = RegularizedFlux(h=h)
        c = (1.0 + seam / 24) / h
        u = c + np.arange(-4, 5) * np.spacing(c)
        t = 24 * (h * u - 1.0)
        assert t[0] < seam <= t[-1]  # the window crosses the seam
        g = flux(sign * u)
        tol = 16 * np.finfo(float).eps * max(1.0, g[4])
        assert np.max(np.abs(np.diff(g))) <= tol

    @pytest.mark.parametrize("h", [None, 0.5])
    def test_call_contract_on_mixed_data(self, h):
        # parabola (|u| <= 2), band (2 < |u| < 4) and tail (|u| >= 4) together
        flux = RegularizedFlux(h=h)
        u = np.array([[-6.0, -3.0, -2.0, -0.5], [0.0, 1.9, 2.5, 4.5]])
        g = flux(u)
        assert g.shape == u.shape
        assert np.array_equal(g.ravel(), [flux(float(v)) for v in u.ravel()])
        inside = np.abs(u) <= 2.0
        assert np.array_equal(g[inside], 0.5 * u[inside] ** 2)
        for scalar in (3.0, np.float64(3.0), np.array(3.0)):
            assert type(flux(scalar)) is float
        empty = flux(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def band_nonlinearity(u, d):
    """N = -d/dx (u^2/2) of grid data u from the step's core, on the (kx, ky) block."""
    kx, ky = _kept_band(d)
    return zkbs.dynamics._nonlinear_core(to_spectral(u, d).coeffs[:kx, :ky],
                                         RegularizedFlux(h=None), d, _grid_work(d))[1]


class TestNonlinearTerm:
    def test_matches_direct_product_on_banded_data(self, small_domain, rng):
        # for dealiased data, -d/dx g(u) must equal -u u_x on the kept modes
        d = small_domain
        kx, ky = _kept_band(d)
        u = banded_field(d, rng)
        got = band_nonlinearity(u, d)
        ux = mixed_derivative(to_spectral(u, d), 1, 0, d).values
        want = to_spectral(GridField(-u.values * ux), d).coeffs
        scale = max(np.max(np.abs(want)), 1.0)
        assert got.shape == (kx, ky)
        assert np.max(np.abs(got - want[:kx, :ky])) <= 1e-11 * scale

    def test_x_independent_data_has_zero_nonlinearity(self, small_domain):
        d = small_domain
        u = GridField(np.outer(np.ones(d.nx), np.sin(np.pi * d.y / d.L)))
        assert np.max(np.abs(band_nonlinearity(u, d))) <= 1e-15


class TestEtd2:
    def test_matches_full_system_oracle(self):
        # integrate the semi-discrete system itself with an adaptive solver
        # on the band the step keeps; simulate's snapshots are zero outside it
        d = plan_domain(L=math.pi, X=2 * math.pi, nx=16, ny=8, delta=0.5)
        S = symbol(d)
        kx, ky = _kept_band(d)
        rng = np.random.default_rng(21)
        u0 = banded_field(d, rng, amplitude=0.4)
        base = to_spectral(u0, d).coeffs[:kx, :ky]
        flux = RegularizedFlux(h=None)

        def rhs(t, y):
            c = _pad_band(y.reshape(kx, ky), d)
            vals = to_grid(SpectralField(c), d).values
            ghat = to_spectral(GridField(flux(vals)), d).coeffs
            return (S.m * c - 1j * d.xi_odd[:, None] * ghat)[:kx, :ky].ravel()

        T = 0.05
        sol = solve_ivp(rhs, (0.0, T), base.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        ref = _pad_band(sol.y[:, -1].reshape(kx, ky), d)

        errs = {}
        for dt in (1e-3, 5e-4):
            traj = simulate(u0, T, StepperConfig(dt=dt), flux, d, audit_series=False)
            assert traj.blowup_time is None
            errs[dt] = np.max(np.abs(traj.snapshots[-1] - ref))
        assert errs[1e-3] <= 1e-6
        # second-order error against the adaptively solved system
        assert 3.0 <= errs[1e-3] / errs[5e-4] <= 5.0

    def test_second_order_self_convergence(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        flux = RegularizedFlux(h=None)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            traj = simulate(u0, 0.2, StepperConfig(dt=dt), flux, d)
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
        # N(u0) before the loop, then a corrector and the new boundary's N per
        # step; audit mode adds the averaged state's N, whose G gives the u^2/2
        # audit integrals without a further synthesis
        for audit_series, per_step in ((False, 2), (True, 3)):
            calls.update(synthesis=0, analysis=0, public=0)
            traj = simulate(gaussian_bump(d), n * 1e-3, StepperConfig(dt=1e-3),
                            RegularizedFlux(h=None), d, audit_series=audit_series)
            assert traj.n_steps == n
            assert calls == {"synthesis": 1 + per_step * n, "analysis": 1 + per_step * n,
                             "public": 1}, audit_series

    def test_u2_audit_integrals_match_the_grid_sums(self, medium_domain):
        # oracle: integral u^3 and integral u^2 (u_xx + u_yy) summed on the grid
        # from public transforms, the latter at the averaged states
        d = medium_domain
        traj = simulate(random_band(d, 11, amplitude=2.0), 0.005, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d, snapshot_stride=1)
        assert traj.blowup_time is None
        grids = [to_grid(SpectralField(c), d).values for c in traj.snapshots]
        scale = max(1.0, float(np.max(traj.l2)) ** 3)
        for i, u in enumerate(grids):
            assert abs(traj.cube[i] - grid_quadrature(u**3, d)) <= 1e-12 * scale
        for i in range(traj.n_steps):
            avg = SpectralField(0.5 * (traj.snapshots[i] + traj.snapshots[i + 1]))
            lap = mixed_derivative(avg, 2, 0, d).values + mixed_derivative(avg, 0, 2, d).values
            want = grid_quadrature(to_grid(avg, d).values ** 2 * lap, d)
            assert abs(traj.mid_u2lap[i] - want) <= 1e-12 * scale * max(1.0, np.max(np.abs(lap)))


WINDOWS = (0.0125, 0.025, 0.05)


class FailsAtPeaks:
    """u^2/2 flux that records each field's peak and is NaN on the listed peaks."""

    h = None

    def __init__(self, bad=()):
        self.bad, self.peaks = set(bad), []

    def __call__(self, u):
        peak = float(np.max(np.abs(u)))
        self.peaks.append(peak)
        return np.full_like(u, np.nan) if peak in self.bad else 0.5 * u**2


def outcome(u0, windows, cfg, flux, S):
    """picard_windows' results, or the time of the BlowupError it raises."""
    try:
        return picard_windows(u0, windows, cfg, flux, S)
    except BlowupError as exc:
        return exc.t


def assert_same_solve(got, want):
    """Two (field or None, PicardDiagnostics) pairs agree bit for bit."""
    (field, diag), (want_field, want_diag) = got, want
    assert (field is None) == (want_field is None)
    if field is not None:
        assert np.array_equal(field.coeffs.view(np.uint64), want_field.coeffs.view(np.uint64))
    for name in ("iterations", "n_steps", "dt", "converged"):
        assert getattr(diag, name) == getattr(want_diag, name), name
    for name in ("diffs", "ratios"):
        assert np.array_equal(getattr(diag, name).view(np.uint64),
                              getattr(want_diag, name).view(np.uint64)), name


class TestPicard:
    def test_zero_data_converges_immediately(self, small_domain):
        d = small_domain
        S = symbol(d)
        cfg = StepperConfig(dt=1e-3)
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        (field, diag), = picard_windows(u0, (0.01,), cfg, RegularizedFlux(h=None), S)
        assert diag.converged
        assert diag.iterations == 1
        assert np.max(np.abs(field.coeffs)) == 0.0

    def test_ratios_contract_and_grow_with_horizon(self, medium_domain, rng):
        d = medium_domain
        S = symbol(d)
        u0 = to_spectral(banded_field(d, rng, amplitude=0.1), d)
        cfg = StepperConfig(dt=1e-3, picard_tol=1e-12)
        first = []
        for _, diag in picard_windows(u0, WINDOWS, cfg, RegularizedFlux(h=None), S):
            assert diag.converged
            assert np.all(diag.ratios[:-1] < 1.0)
            first.append(diag.ratios[0])
        assert first[0] < first[1] < first[2]

    @pytest.mark.parametrize("dt,groups", [(5e-4, [[0, 1, 2]]), (1e-3, [[0], [1, 2]])],
                             ids=["one-group", "two-groups"])
    @pytest.mark.parametrize("h", [None, 1.0], ids=["h-none", "h-1"])
    def test_shared_sweeps_equal_one_window_solves(self, medium_domain, monkeypatch, dt,
                                                   groups, h):
        # windows that share a step share their sweeps, and each still gets
        # exactly the solve it would get alone
        d = medium_domain
        S = symbol(d)
        u0 = to_spectral(gaussian_bump(d, amplitude=3.0), d)
        cfg = StepperConfig(dt=dt)
        flux = RegularizedFlux(h=h)
        alone = [picard_windows(u0, (t0,), cfg, flux, S)[0] for t0 in WINDOWS]
        calls = 0
        core = zkbs.dynamics._nonlinear_core

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return core(*args, **kwargs)

        monkeypatch.setattr(zkbs.dynamics, "_nonlinear_core", counted)
        shared = picard_windows(u0, WINDOWS, cfg, flux, S)
        for got, want in zip(shared, alone):
            assert_same_solve(got, want)
        assert [[k for k in range(3) if shared[k][1].dt == shared[g[0]][1].dt]
                for g in groups] == groups
        # N(u0), then every boundary of the group's longest window once a sweep
        longest = [alone[g[-1]][1] for g in groups]
        assert calls == sum(1 + diag.n_steps * diag.iterations for diag in longest)
        assert calls < sum(1 + diag.n_steps * diag.iterations for _, diag in alone)

    def test_matches_etd2_at_final_time(self, medium_domain, rng):
        d = medium_domain
        S = symbol(d)
        u0g = banded_field(d, rng, amplitude=0.1)
        u0 = to_spectral(u0g, d)
        flux = RegularizedFlux(h=None)
        t0 = 0.05
        (field, _), = picard_windows(
            u0, (t0,), StepperConfig(dt=1e-3, picard_tol=1e-12),
            flux, S)
        traj = simulate(u0g, t0, StepperConfig(dt=1e-3), flux, d)
        diff = math.sqrt(parseval_norm_sq(field.coeffs - traj.snapshots[-1], d))
        assert diff <= 1e-6

    def test_stalled_window_has_no_field(self, medium_domain, rng):
        d = medium_domain
        S = symbol(d)
        u0 = to_spectral(banded_field(d, rng, amplitude=0.5), d)
        cfg = StepperConfig(dt=1e-3, picard_tol=1e-16,
                            picard_max_iter=2)
        (field, diag), = picard_windows(u0, (0.05,), cfg, RegularizedFlux(h=None), S)
        assert field is None
        assert not diag.converged and diag.iterations == 2 and len(diag.diffs) == 2

    def test_overflowing_data_is_a_blowup_without_warnings(self, small_domain):
        # the grid values overflow in the first sweep; the guard reports them
        d = small_domain
        u0 = to_spectral(traveling_mode(d, 1, 1, 1e120), d)
        for windows in ((0.0125,), WINDOWS):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BlowupError) as info:
                    picard_windows(u0, windows, StepperConfig(dt=1e-3),
                                   RegularizedFlux(h=None), symbol(d))
            assert info.value.t == 0.0125 / 12

    def test_blowup_is_the_first_windows_own(self, small_domain):
        # the flux fails on two states, boundary 16 of the first iterate and
        # boundary 5 of the second: alone, window 0.01 meets the second and
        # the longer windows the first; sharing sweeps, window 0.01 sweeps
        # on past the longer windows' blowup and the first window's is raised
        d = small_domain
        S = symbol(d)
        u0 = to_spectral(gaussian_bump(d), d)
        windows, cfg = (0.01, 0.02, 0.04), StepperConfig(dt=1e-3)
        probe = FailsAtPeaks()
        picard_windows(u0, windows[-1:], cfg, probe, S)
        # N(u0), then boundaries 1..40 once a sweep
        flux = FailsAtPeaks({probe.peaks[16], probe.peaks[40 + 5]})
        alone = [outcome(u0, (t0,), cfg, flux, S) for t0 in windows]
        assert alone == [5 * 1e-3, 16 * 1e-3, 16 * 1e-3]
        assert outcome(u0, windows, cfg, flux, S) == alone[0]
        assert outcome(u0, windows[1:] + windows[:1], cfg, flux, S) == alone[1]

    def test_window_memory_is_about_one_band_stack(self, small_domain):
        # the iterate is the only (n + 1)-deep array: a sweep rebuilds it in
        # place, taking each boundary's N just before it is overwritten, and
        # the shorter windows sweep inside the longest one's stack; a second
        # stack (of the nonlinear terms, say) would read above 2
        d = small_domain
        S = symbol(d)
        u0 = to_spectral(gaussian_bump(d), d)
        windows, dt = (0.05, 0.1, 0.2), 1e-3
        kx, ky = _kept_band(d)
        stack_bytes = (round(windows[-1] / dt) + 1) * kx * ky * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            results = picard_windows(u0, windows, StepperConfig(dt=dt),
                                     RegularizedFlux(h=None), S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [diag.n_steps for _, diag in results] == [50, 100, 200]
        assert all(diag.converged and diag.dt == dt for _, diag in results)
        assert peak <= 1.5 * stack_bytes

    def test_rejects_nonpositive_horizon(self, small_domain):
        d = small_domain
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        for bad in (0.0, -0.01, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                picard_windows(u0, (0.01, bad), StepperConfig(), RegularizedFlux(h=None),
                               symbol(d))


class TestSimulate:
    def test_l2_monotone_and_flux_orthogonal(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        traj = simulate(u0, 0.2, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d)
        assert np.all(np.diff(traj.l2) <= 1e-12 * traj.l2[0])
        bound = 1e-10 * np.maximum(1.0, traj.l2**3)
        assert np.all(np.abs(traj.nonlin_flux) <= bound)

    def test_blowup_truncates_trajectory(self, medium_domain, rng):
        d = medium_domain
        u0 = GridField(2000.0 * banded_field(d, rng).values)
        traj = simulate(u0, 5.0, StepperConfig(dt=1e-1),
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
        for series in (traj.times, traj.l2, traj.nonlin_flux,
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
        assert len(traj.mid_diss0) == 0 and len(traj.mid_rhs_h1) == 0
        assert list(traj.snapshot_indices) == [0]

    def test_low_guard_factor_trips_early(self, medium_domain, monkeypatch):
        # guard measures growth, so a sub-unity factor trips immediately
        monkeypatch.setattr(zkbs.dynamics, "BLOWUP_GUARD", 0.5)
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        traj = simulate(u0, 0.1, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d)
        assert traj.blowup_time is not None

    def test_snapshot_stride(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        traj = simulate(u0, 0.02, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d, snapshot_stride=5)
        assert list(traj.snapshot_indices) == [0, 5, 10, 15, 20]
        traj = simulate(u0, 0.02, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d, snapshot_stride=0)
        assert list(traj.snapshot_indices) == [0, 20]

    @pytest.mark.parametrize("stride", [-3, -1, 2.5])
    def test_snapshot_stride_must_be_an_integer_at_least_zero(self, medium_domain, stride):
        # both integrators refuse it before any step: a negative stride would
        # keep the two ends alone, and 2.5 every fifth boundary
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        with pytest.raises(ValueError, match="snapshot_stride must be an integer >= 0"):
            simulate(u0, 0.01, StepperConfig(dt=1e-3), RegularizedFlux(h=None), d,
                     snapshot_stride=stride)
        with pytest.raises(ValueError, match="snapshot_stride must be an integer >= 0"):
            duhamel_solve(to_spectral(u0, d), None, 0.01, 1e-3, symbol(d),
                          snapshot_stride=stride)

    def test_rejects_non_divisible_dt(self, medium_domain):
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
        with pytest.raises(ValueError, match="divide"):
            simulate(u0, 0.0205, StepperConfig(dt=1e-3),
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
        cfg = StepperConfig(dt=1e-3)
        plain = simulate(u0, 0.1, cfg, RegularizedFlux(h=None), d)
        reg = simulate(u0, 0.1, cfg, RegularizedFlux(h=1.0), d)
        assert np.array_equal(plain.l2, reg.l2)
        assert np.array_equal(plain.snapshots[-1], reg.snapshots[-1])

    def test_active_cutoff_changes_the_flow_but_stays_stable(self, medium_domain):
        # amplitude 3 with h = 1 puts grid values inside the band |u| > 1,
        # so the regularized trajectory genuinely departs from u^2/2
        d = medium_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 3.0)
        cfg = StepperConfig(dt=1e-3)
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


class TestSmallestGrid:
    """On the smallest legal grid, 8 x 4, the kept band is (3, 3) of the (5, 4) half spectrum."""

    def test_public_fields_are_zero_outside_the_band(self, rng):
        d = plan_domain(L=math.pi, X=4.0, nx=8, ny=4, delta=0.5)
        kx, ky = _kept_band(d)
        assert (kx, ky) == (3, 3)
        S = symbol(d)
        flux = RegularizedFlux(h=None)
        cfg = StepperConfig(dt=1e-3)
        # random samples touch every mode, so only the step's band zeroes the rest
        u0 = GridField(0.5 * rng.standard_normal(d.shape))
        s0 = to_spectral(u0, d)
        assert np.all(s0.coeffs[:, -1] != 0.0)
        traj = simulate(u0, 0.01, cfg, flux, d)
        fields = {
            "simulate": traj.snapshots[-1],
            "picard_windows": picard_windows(s0, (0.01,), cfg, flux, S)[0][0].coeffs,
        }
        for name, c in fields.items():
            assert c.shape == (5, 4), name
            assert np.all(c[kx:] == 0.0) and np.all(c[:, ky:] == 0.0), name
            assert np.any(c[:kx, :ky] != 0.0), name
        # the step's nonlinear term is the (kx, ky) block alone
        assert band_nonlinearity(u0, d).shape == (kx, ky)


AUDIT_ONLY = ("cube", "mid_rhs_h1", "mid_rhs_h2", "mid_u2lap")


def lean_and_full(u0, T, cfg, flux, d, **kwargs):
    full = simulate(u0, T, cfg, flux, d, **kwargs)
    lean = simulate(u0, T, cfg, flux, d, audit_series=False, **kwargs)
    return full, lean


class TestAuditSeries:
    """audit_series=False drops the audit-only series and changes nothing else."""

    def assert_lean_matches_full(self, full, lean, u2_only=()):
        assert lean.domain is full.domain
        assert lean.blowup_time == full.blowup_time
        for field in dataclasses.fields(Trajectory):
            a, b = getattr(full, field.name), getattr(lean, field.name)
            if field.name in u2_only:
                assert a is None and b is None, field.name
            elif field.name in AUDIT_ONLY:
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

    def test_active_cutoff(self, small_domain):
        # integral u^3 and integral u^2 (u_xx + u_yy) are pairings with
        # G = u^2/2, so only a u^2/2 run records them
        d = small_domain
        u0 = random_band(d, 3, amplitude=8.0)
        assert np.mean(np.abs(u0.values) > 1.0) > 0.5
        full, lean = lean_and_full(u0, 0.01, StepperConfig(dt=1e-3),
                                   RegularizedFlux(h=1.0), d)
        self.assert_lean_matches_full(full, lean, u2_only=("cube", "mid_u2lap"))

    def test_guard_truncated_run(self, small_domain, monkeypatch):
        monkeypatch.setattr(zkbs.dynamics, "BLOWUP_GUARD", 0.5)
        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        full, lean = lean_and_full(u0, 0.01, StepperConfig(dt=1e-3),
                                   RegularizedFlux(h=None), d)
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

    def test_recorded_series_are_the_count_that_sizes_a_run(self, small_domain,
                                                             monkeypatch):
        # _resolve_steps sizes every run's series as _MAX_SERIES float64
        # columns of n + 1 values: an audit-mode h = None run records that
        # many, the most of any run, and a linear solve fewer
        def series(traj):
            return [f.name for f in dataclasses.fields(traj)
                    if isinstance(a := getattr(traj, f.name), np.ndarray)
                    and a.dtype == np.float64]

        d = small_domain
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        full = simulate(u0, 0.005, StepperConfig(dt=1e-3), RegularizedFlux(h=None), d)
        linear = duhamel_solve(to_spectral(u0, d), None, 0.005, 1e-3, symbol(d))
        assert len(series(full)) == _MAX_SERIES
        assert len(series(linear)) == 15
        monkeypatch.setattr(zkbs.trajectory, "_memory_bytes", lambda: _MAX_SERIES * 8 * 6)
        assert _resolve_steps(0.005, 1e-3) == 5
        with pytest.raises(ValueError, match="6 steps cannot be recorded"):
            _resolve_steps(0.006, 1e-3)

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
