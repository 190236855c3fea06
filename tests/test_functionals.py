import math

import numpy as np
import pytest

from zkbs import (
    EnergyReport,
    GridField,
    RegularizedFlux,
    SpectralField,
    StepperConfig,
    audit_identity,
    decay_fit,
    duhamel_solve,
    eigenmode,
    gaussian_bump,
    parseval_norm_sq,
    plan_domain,
    random_band,
    refinement_order,
    simulate,
    symbol,
    threshold_time,
    to_grid,
    to_spectral,
    traveling_mode,
)
from oracles import (
    dk_seminorm_sq,
    grid_quadrature,
    interpolation_ratio,
    mixed_derivative,
    norm,
    steklov_margin,
)
from zkbs.functionals import (
    THRESHOLD_C1,
    _balance,
    _cumulative_midpoint,
    _cumulative_trapezoid,
)

# Bounds for constants that are only known to exist, each measured once on the
# corpus or run below and rounded up (measured: 0.0937 and 2.36e-5); the
# threshold constant c1 (measured: 5.71e-6) is functionals.THRESHOLD_C1, which
# the decay command reads.
# integral u^4 <= C * (integral |Du|^2 + u^2) * (integral u^2)
QUADRATIC_COMPARISON_C = 0.11
# H2 norm at t = 0.1 of the fixed rough-data smoothing run
H2_SMOOTHING_BOUND = 1e-4


def validation_corpus(d):
    """Deterministic mix of eigenmodes, packets and random band fields."""
    fields = [
        eigenmode(d, l=1, amplitude=1.0),
        eigenmode(d, l=3, amplitude=0.7),
        traveling_mode(d, j=2, l=1, amplitude=1.0),
        traveling_mode(d, j=5, l=2, amplitude=0.4),
        gaussian_bump(d, x0=0.0, sigma_x=2.0, l=1, amplitude=1.0),
        gaussian_bump(d, x0=5.0, sigma_x=3.0, l=2, amplitude=0.6),
        # concentrated fields keep the cubic pairing away from zero
        gaussian_bump(d, x0=0.0, sigma_x=0.8, l=3, amplitude=1.5),
        gaussian_bump(d, x0=-4.0, sigma_x=0.6, l=1, amplitude=2.0),
    ]
    for seed in (11, 29, 47, 101):
        fields.append(random_band(d, seed=seed, jmax=8, lmax=5, amplitude=0.8))
    fields.append(random_band(d, seed=7, jmax=20, lmax=12, amplitude=1.2))
    return [to_spectral(f, d) for f in fields]


def measure_quadratic_comparison(d):
    """Largest observed integral u^4 / ((integral |Du|^2 + u^2) * ||u||^2)."""
    worst = 0.0
    for s in validation_corpus(d):
        vals = to_grid(s, d).values
        num = grid_quadrature(vals**4, d)
        l2sq = parseval_norm_sq(s.coeffs, d)
        den = (dk_seminorm_sq(s, 1, d) + l2sq) * l2sq
        worst = max(worst, num / den)
    return worst


def measure_threshold_constant(d):
    """Largest observed |integral u u_x (u_xx + u_yy)| / (E2 * ||u||^2)."""
    worst = 0.0
    for s in validation_corpus(d):
        u = to_grid(s, d).values
        ux = mixed_derivative(s, 1, 0, d).values
        lap = mixed_derivative(s, 2, 0, d).values + mixed_derivative(s, 0, 2, d).values
        num = abs(grid_quadrature(u * ux * lap, d))
        den = (dk_seminorm_sq(s, 2, d) + parseval_norm_sq(s.coeffs, d)) * parseval_norm_sq(s.coeffs, d)
        worst = max(worst, num / den)
    return worst


def smoothing_run(t_end=0.1, dt=1e-3):
    """Fixed rough-data run behind H2_SMOOTHING_BOUND.

    Data sits on the y-frequency shell l in [900, 1200] (|j| <= 5 in x) of
    a tall thin grid, so the second-derivative norm exceeds the first by
    three orders of magnitude at t = 0; the bound certifies that the flow
    lands in a small H2 ball by t_end anyway.  Returns (trajectory,
    domain); the trajectory is recorded without the audit series.
    """
    d = plan_domain(L=math.pi, X=2 * math.pi, nx=32, ny=2047, delta=0.5)
    rng = np.random.default_rng(2024)
    c = np.zeros(d.spectral_shape, dtype=complex)
    lsel = slice(899, 1200)  # sine indices for l = 900 .. 1200
    for j in range(0, 6):
        blk = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        c[j, lsel] = blk if j != 0 else blk.real  # the x-mean row is real
    u = to_grid(SpectralField(c), d)
    u = type(u)(0.3 * u.values / np.max(np.abs(u.values)))
    traj = simulate(u, t_end, StepperConfig(dt=dt),
                    RegularizedFlux(h=None), d, audit_series=False)
    return traj, d


def single_mode(d, j, l, amp=1.0):
    c = np.zeros(d.spectral_shape, dtype=complex)
    if j == 0:
        c[0, l - 1] = amp
    else:
        c[j, l - 1] = 0.5 * amp
    return SpectralField(c)


class TestNorms:
    def test_sobolev_exponent_validation(self, small_domain):
        s = single_mode(small_domain, 1, 1)
        for expo in (-0.5, 2.5, math.nan):
            with pytest.raises(ValueError, match="Sobolev exponent"):
                norm(s, expo, small_domain)

    def test_hs_norm_closed_form_on_single_mode(self, small_domain):
        d = small_domain
        j, l, amp = 4, 3, 1.7
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        s = single_mode(d, j, l, amp)
        for expo in (0.0, 0.5, 1.0, 1.5, 2.0):
            got = norm(s, expo, d)
            want = amp * math.sqrt(d.X * d.L / 2.0) * (1 + xi**2 + lam) ** (expo / 2)
            assert np.isclose(got, want, rtol=1e-13), expo

    def test_dk_seminorm_hand_integrals(self, small_domain):
        # one term per mixed partial: |D^3 u|^2 = u_xxx^2 + u_xxy^2 + u_xyy^2
        # + u_yyy^2 integrates to amp^2 (X L / 2)(xi^6 + xi^4 lam + xi^2 lam^2 + lam^3)
        d = small_domain
        j, l, amp = 5, 4, 1.2
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        s = single_mode(d, j, l, amp)
        half = amp**2 * d.X * d.L / 2.0
        assert np.isclose(dk_seminorm_sq(s, 1, d), half * (xi**2 + lam), rtol=1e-13)
        assert np.isclose(
            dk_seminorm_sq(s, 2, d),
            half * (xi**4 + xi**2 * lam + lam**2),
            rtol=1e-13,
        )
        assert np.isclose(
            dk_seminorm_sq(s, 3, d),
            half * (xi**6 + xi**4 * lam + xi**2 * lam**2 + lam**3),
            rtol=1e-13,
        )
        with pytest.raises(ValueError):
            dk_seminorm_sq(s, 4, d)

    def test_recorded_lyapunov_functional_matches_each_snapshot(self, small_domain):
        # the one first-order functional, read from the recorded series,
        # against integral |Du|^2 + u^2 of the stored field
        d = small_domain
        traj = simulate(gaussian_bump(d), 0.005, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d, snapshot_stride=1, audit_series=False)
        assert list(traj.snapshot_indices) == list(range(traj.n_steps + 1))
        for i, c in zip(traj.snapshot_indices, traj.snapshots):
            s = SpectralField(c)
            want = dk_seminorm_sq(s, 1, d) + parseval_norm_sq(c, d)
            assert math.isclose(traj.lyapunov_h1[i], want, rel_tol=1e-13)


class TestSteklov:
    def test_equality_on_first_eigenfunction(self, desk_domain):
        d = desk_domain
        s = to_spectral(eigenmode(d, l=1, amplitude=1.0), d)
        margin, rhs = steklov_margin(s, d)
        assert abs(margin) <= 1e-13 * rhs

    def test_margin_positive_and_exact_on_higher_mode(self, small_domain):
        d = small_domain
        amp = 0.8
        s = single_mode(d, 0, 2, amp)
        margin, _ = steklov_margin(s, d)
        lam1 = (np.pi / d.L) ** 2
        lam2 = (2 * np.pi / d.L) ** 2
        want = (lam2 - lam1) * amp**2 * d.X * d.L
        assert np.isclose(margin, want, rtol=1e-13)

    def test_margin_nonnegative_on_random_fields(self, small_domain, rng):
        d = small_domain
        for _ in range(5):
            s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
            margin, rhs = steklov_margin(s, d)
            assert margin >= -1e-13 * rhs


class TestInterpolationRatio:
    def test_frozen_closed_form(self, desk_domain):
        # u = sin(pi y / L): all three integrals are elementary, giving
        # ratio = (3 X L / 4)^{1/4} / ((pi/L)^{1/2} (X L)^{1/2} + (X L)^{1/2})
        d = desk_domain
        s = to_spectral(eigenmode(d, l=1, amplitude=1.0), d)
        got = interpolation_ratio(s, m=0, k=1, q=4, d=d)
        l4 = (2 * d.X * (3.0 / 8.0) * d.L) ** 0.25
        l2 = math.sqrt(d.X * d.L)
        du = math.sqrt((np.pi / d.L) ** 2 * d.X * d.L)
        want = l4 / (math.sqrt(du) * math.sqrt(l2) + l2)
        assert np.isclose(got, want, rtol=1e-12)
        assert np.isclose(got, 0.131259391976083, rtol=1e-12)

    def test_scale_invariance_without_l2_term(self, small_domain, rng):
        d = small_domain
        s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        base = interpolation_ratio(s, 0, 1, 4, d, include_l2_term=False)
        scaled = interpolation_ratio(
            SpectralField(13.0 * s.coeffs), 0, 1, 4, d, include_l2_term=False)
        assert np.isclose(base, scaled, rtol=1e-12)

    def test_ratio_bounded_over_corpus(self, desk_domain):
        # the monitored constant of the first-derivative case (m=0, k=1,
        # q=4, s=1/4) stays below 1 on the validation corpus
        d = desk_domain
        worst = max(
            interpolation_ratio(s, 0, 1, 4, d) for s in validation_corpus(d)
        )
        assert worst < 1.0

    def test_zero_field_gives_zero(self, small_domain):
        d = small_domain
        z = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        assert interpolation_ratio(z, 0, 1, 4, d) == 0.0

    def test_argument_validation(self, small_domain, rng):
        d = small_domain
        s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        with pytest.raises(ValueError):
            interpolation_ratio(s, 1, 1, 4, d)  # m must be < k
        with pytest.raises(ValueError):
            interpolation_ratio(s, 0, 1, 1.5, d)  # q < 2
        with pytest.raises(ValueError):
            interpolation_ratio(s, 0, 1, math.inf, d)
        with pytest.raises(ValueError):
            interpolation_ratio(s, 0, 4, 4, d)


@pytest.fixture(scope="module")
def run():
    d = plan_domain(math.pi, 16 * math.pi, 128, 32, 0.5)
    u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
    flux = RegularizedFlux(h=None)
    mk = lambda dt: simulate(u0, 0.2, StepperConfig(dt=dt),
                             flux, d)
    return mk(2e-3), mk(1e-3)


@pytest.fixture(scope="module")
def lean_run():
    """The coarse run of `run`, recorded without the audit series."""
    d = plan_domain(math.pi, 16 * math.pi, 128, 32, 0.5)
    u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
    return simulate(u0, 0.2, StepperConfig(dt=2e-3),
                    RegularizedFlux(h=None), d, audit_series=False)


class TestNonlinearAudits:
    @pytest.mark.parametrize("ident", [
        "mass_3_3", "h1_3_15", "combined_3_23", "h2_3_29"])
    def test_residuals_refine_at_second_order(self, run, ident):
        coarse_traj, fine_traj = run
        coarse = audit_identity(coarse_traj, ident)
        order = refinement_order(coarse, audit_identity(fine_traj, ident))
        assert coarse.identity == ident
        assert 1.7 <= order <= 2.3, ident

    def test_mass_residual_small_at_default_dt(self, run):
        _, fine_traj = run
        assert audit_identity(fine_traj, "mass_3_3").max_residual <= 1e-6

    def test_zero_data_has_no_refinement_order(self):
        # zero data audits to residuals of exactly zero: there is no order
        # to observe, and asking for one must not divide by zero
        d = plan_domain(math.pi, 16 * math.pi, 32, 8, 0.5)
        u0 = eigenmode(d, 1, 0.0)
        flux = RegularizedFlux(h=None)
        reports = [audit_identity(simulate(u0, 0.01, StepperConfig(dt=dt), flux, d),
                                  "mass_3_3") for dt in (2e-3, 1e-3)]
        assert reports[0].max_residual == 0.0 == reports[1].max_residual
        assert refinement_order(*reports) is None
        assert (reports[0].dt, reports[1].dt) == (2e-3, 1e-3)

    def test_a_zero_coarse_residual_has_no_refinement_order(self):
        # one zero residual is enough: log(0 / r) has no value
        coarse, fine = (EnergyReport("mass_3_3", np.zeros(2), np.array([0.0, r]), r, dt)
                        for r, dt in ((0.0, 2e-3), (1e-9, 1e-3)))
        assert refinement_order(coarse, fine) is None

    def test_refinement_order_needs_one_identity_at_a_finer_step(self, run):
        coarse, fine = (audit_identity(traj, "mass_3_3") for traj in run)
        with pytest.raises(ValueError, match="same identity"):
            refinement_order(coarse, audit_identity(run[1], "h1_3_15"))
        with pytest.raises(ValueError, match="coarse.dt > fine.dt"):
            refinement_order(fine, coarse)

    def test_missing_series_raises(self, small_domain):
        # a linear solve records the work series of the three order-k
        # identities, as zeros, but not combined_3_23's u^2/2 pairings
        d = small_domain
        S = symbol(d)
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        traj = duhamel_solve(u0, None, 0.01, 1e-3, S)
        with pytest.raises(ValueError, match="'cube'"):
            audit_identity(traj, "combined_3_23")

    @pytest.mark.parametrize("ident,missing", [
        ("h1_3_15", "mid_rhs_h1"), ("combined_3_23", "cube"), ("h2_3_29", "mid_rhs_h2")])
    def test_lean_run_names_the_missing_series(self, lean_run, ident, missing):
        with pytest.raises(ValueError, match=f"'{missing}'.*audit_series=True"):
            audit_identity(lean_run, ident)

    def test_lean_run_audits_mass_like_a_full_run(self, run, lean_run):
        full = audit_identity(run[0], "mass_3_3")
        lean = audit_identity(lean_run, "mass_3_3")
        assert np.array_equal(full.residual, lean.residual)
        assert full.max_residual == lean.max_residual

    @pytest.mark.parametrize("ident,k,rhs", [
        ("mass_3_3", 0, None), ("h1_3_15", 1, "mid_rhs_h1"), ("h2_3_29", 2, "mid_rhs_h2")])
    def test_identities_share_the_trajectory_balance(self, run, ident, k, rhs):
        # a nonlinear run and a homogeneous linear one audit through one left
        # side; the linear run's work series are zeros, so its residual is
        # that left side, bit for bit
        traj = run[0]
        work = (_cumulative_trapezoid(traj, 2.0 * traj.nonlin_flux) if rhs is None
                else _cumulative_midpoint(traj, getattr(traj, rhs)))
        assert np.array_equal(audit_identity(traj, ident).residual,
                              np.abs(_balance(traj, k) - work))
        linear = duhamel_solve(SpectralField(traj.snapshots[0]), None, 0.02, 2e-3,
                               symbol(traj.domain))
        assert np.array_equal(audit_identity(linear, ident).residual,
                              np.abs(_balance(linear, k)))

    def test_one_step_run_audits_to_two_finite_residuals(self):
        d = plan_domain(math.pi, 16 * math.pi, 32, 8, 0.5)
        traj = simulate(gaussian_bump(d, 0.0, 2.0, 1, 0.5), 1e-3, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=None), d)
        assert traj.n_steps == 1
        for ident in ("mass_3_3", "h1_3_15", "combined_3_23", "h2_3_29"):
            rep = audit_identity(traj, ident)
            assert rep.residual.shape == (2,) and np.all(np.isfinite(rep.residual)), ident

    def test_combined_identity_refuses_a_cutoff_run(self):
        # its u^3/3 energy and u^2 (u_xx + u_yy) drift belong to the u^2/2 flux
        d = plan_domain(math.pi, 16 * math.pi, 32, 8, 0.5)
        traj = simulate(gaussian_bump(d, 0.0, 2.0, 1, 0.5), 0.01, StepperConfig(dt=1e-3),
                        RegularizedFlux(h=1.0), d)
        assert traj.h == 1.0
        with pytest.raises(ValueError, match="combined_3_23.*h = 1.0"):
            audit_identity(traj, "combined_3_23")

    def test_unknown_identity_rejected(self, run):
        coarse_traj, _ = run
        with pytest.raises(ValueError, match="unknown"):
            audit_identity(coarse_traj, "mass_3_4")


class TestDecayFit:
    def test_pure_semigroup_single_mode_rate(self, small_domain):
        # spectral series decay exactly at -delta (xi^2 + lam) per mode
        d = small_domain
        S = symbol(d)
        j, l = 3, 2
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        traj = duhamel_solve(single_mode(d, j, l, 1.0), None, 1.0, 1e-3, S)
        fit = decay_fit(traj, 0.0)
        assert abs(fit.slope + d.delta * (xi**2 + lam)) <= 1e-8
        assert fit.fit_rms <= 1e-10

    def test_fractional_norms_are_fitted_from_their_recorded_columns(self, small_domain):
        # no snapshot beyond the two ends is kept, and every boundary is fitted
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 2, 1, 1.0), None, 1.0, 1e-2, S,
                             snapshot_stride=0)
        xi = np.pi * 2 / d.X
        lam = (np.pi / d.L) ** 2
        for s in (0.5, 1.5):
            fit = decay_fit(traj, s)
            # H^s of a single mode is a constant multiple of L2, same slope
            assert abs(fit.slope + d.delta * (xi**2 + lam)) <= 1e-8, s
            assert fit.n_samples == 81, s

    def test_unrecorded_order_raises(self, small_domain):
        traj = duhamel_solve(single_mode(small_domain, 1, 1, 1.0), None, 0.1, 1e-3,
                             symbol(small_domain), snapshot_stride=0)
        for s in (0.25, 1.75, 3.0, math.nan):
            with pytest.raises(ValueError, match="no H\\^s norm is recorded"):
                decay_fit(traj, s)

    def test_window_validation(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 1, 1, 1.0), None, 0.1, 1e-3, S)
        with pytest.raises(ValueError, match="positive length"):
            decay_fit(traj, 0.0, window=(0.5, 0.5))
        with pytest.raises(ValueError, match="at least 10"):
            decay_fit(traj, 0.0, window=(0.095, 0.1))

    def test_underflow_raises(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 0, 1, 1.0), None, 1400.0, 1.0, S,
                             snapshot_stride=0)
        with pytest.raises(ValueError, match="underflow"):
            decay_fit(traj, 0.0)


class TestThreshold:
    def test_tiny_data_enters_immediately(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 1, 1, 1e-3), None, 0.1, 1e-3, S)
        rep = threshold_time(traj, THRESHOLD_C1)
        assert rep.t1 == 0.0
        assert rep.violations == []

    def test_closed_form_entry_time(self, desk_domain):
        # pure eigenmode semigroup decay: ||u||^2 = ||u0||^2 e^{-2 delta
        # pi^2 t / L^2}, so the entry time inverts the exponential exactly
        d = desk_domain
        S = symbol(d)
        c1 = THRESHOLD_C1
        thr = min(d.delta / (2 * c1), d.delta * np.pi**2 / (2 * c1 * d.L**2))
        amp = 16.0
        l2sq0 = amp**2 * d.X * d.L  # single j = 0 column carries full weight
        assert l2sq0 > thr  # data starts above the threshold
        dt = 1e-3
        traj = duhamel_solve(single_mode(d, 0, 1, amp), None, 0.5, dt, S)
        rep = threshold_time(traj, c1)
        rate = 2 * d.delta * np.pi**2 / d.L**2
        t1_exact = math.log(l2sq0 / thr) / rate
        assert rep.t1 is not None
        assert 0.0 <= rep.t1 - t1_exact <= dt + 1e-12
        assert rep.violations == []

    def test_never_reached_reported_as_none(self, desk_domain):
        d = desk_domain
        S = symbol(d)
        amp = 16.0
        traj = duhamel_solve(single_mode(d, 0, 1, amp), None, 0.01, 1e-3, S)
        rep = threshold_time(traj, THRESHOLD_C1)
        assert rep.t1 is None

    def test_growing_functional_reports_violations(self, small_domain):
        # constant forcing pumps the gradient norm of tiny data upward,
        # which must surface as monotonicity violations past t1 = 0
        d = small_domain
        S = symbol(d)
        f = single_mode(d, 2, 2, 1.0).coeffs
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        traj = duhamel_solve(u0, lambda t: f, 0.1, 1e-3, S)
        rep = threshold_time(traj, THRESHOLD_C1)
        assert rep.t1 == 0.0
        assert len(rep.violations) > 0
        assert rep.max_violation > 0.0

    def test_rejects_nonpositive_c1(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 1, 1, 1.0), None, 0.01, 1e-3, S)
        with pytest.raises(ValueError):
            threshold_time(traj, 0.0)


class TestCalibration:
    def test_quadratic_comparison_regression(self, desk_domain):
        measured = measure_quadratic_comparison(desk_domain)
        assert measured <= QUADRATIC_COMPARISON_C, f"measured {measured:.6g}"

    def test_threshold_constant_regression(self, desk_domain):
        measured = measure_threshold_constant(desk_domain)
        assert measured <= THRESHOLD_C1, f"measured {measured:.6g}"

    def test_smoothing_diagnostic(self):
        # rough data: second-derivative energy a thousandfold above first;
        # by t = 0.1 the flow must sit inside a small H2 ball
        traj, d = smoothing_run()
        assert traj.blowup_time is None
        ratio = traj.h2[0] / traj.h1[0]
        assert ratio >= 1e3
        assert traj.h2[-1] <= H2_SMOOTHING_BOUND, f"measured {traj.h2[-1]:.6g}"
        # H2 along the run never exceeds its rough start
        assert np.max(traj.h2) <= traj.h2[0]
