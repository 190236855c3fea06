import math

import numpy as np
import pytest

from zkbs import (
    GridField,
    NormSpec,
    RegularizedFlux,
    SpectralField,
    StepperConfig,
    attach_refinement_order,
    audit_identity,
    audit_linear_identity,
    decay_fit,
    dk_seminorm_sq,
    duhamel_solve,
    eigenmode,
    gaussian_bump,
    interpolation_ratio,
    lyapunov_h1,
    lyapunov_h2,
    norm,
    parseval_norm_sq,
    plan_domain,
    simulate,
    steklov_check,
    symbol,
    threshold_time,
    to_spectral,
)
from zkbs.calibration import (
    FROZEN,
    measure_quadratic_comparison,
    measure_threshold_constant,
    smoothing_run,
    validation_corpus,
)


def single_mode(d, j, l, amp=1.0):
    c = np.zeros(d.spectral_shape, dtype=complex)
    if j == 0:
        c[0, l - 1] = amp
    else:
        c[j, l - 1] = 0.5 * amp
    return SpectralField(c)


class TestNorms:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NormSpec(kind="hs", s=2.5)
        with pytest.raises(ValueError):
            NormSpec(kind="seminorm", k=4)
        with pytest.raises(ValueError):
            NormSpec(kind="besov")
        assert NormSpec(kind="hs", s=0.5).label == "H^0.5"
        assert NormSpec(kind="seminorm", k=2).label == "|D^2|"

    def test_hs_norm_closed_form_on_single_mode(self, small_domain):
        d = small_domain
        j, l, amp = 4, 3, 1.7
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        s = single_mode(d, j, l, amp)
        for expo in (0.0, 0.5, 1.0, 1.5, 2.0):
            got = norm(s, NormSpec(kind="hs", s=expo), d)
            want = amp * math.sqrt(d.X * d.L / 2.0) * (1 + xi**2 + lam) ** (expo / 2)
            assert np.isclose(got, want, rtol=1e-13), expo

    def test_seminorm_closed_form_on_single_mode(self, small_domain):
        d = small_domain
        j, l, amp = 6, 2, 0.9
        xi = np.pi * j / d.X
        lam = (np.pi * l / d.L) ** 2
        s = single_mode(d, j, l, amp)
        for k in (1, 2, 3):
            got = norm(s, NormSpec(kind="seminorm", k=k), d)
            want = amp * math.sqrt(d.X * d.L / 2.0) * (xi**2 + lam) ** (k / 2)
            assert np.isclose(got, want, rtol=1e-13), k

    def test_dk_seminorm_hand_integrals(self, small_domain):
        # |D^3 u|^2 = u_xxx^2 + 3 u_xxy^2 + 3 u_xyy^2 + u_yyy^2 integrates
        # to amp^2 (X L / 2)(xi^2 + lam)^3 when grouped with multiplicities,
        # while the audit flavour keeps one term per mixed partial:
        # xi^6 + xi^4 lam + xi^2 lam^2 + lam^3
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

    def test_lyapunov_functionals_are_sums(self, small_domain, rng):
        d = small_domain
        s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
        l2sq = parseval_norm_sq(s.coeffs, d)
        assert np.isclose(lyapunov_h1(s, d), dk_seminorm_sq(s, 1, d) + l2sq)
        assert np.isclose(
            lyapunov_h2(s, d), dk_seminorm_sq(s, 2, d) + lyapunov_h1(s, d)
        )


class TestSteklov:
    def test_equality_on_first_eigenfunction(self, desk_domain):
        d = desk_domain
        s = to_spectral(eigenmode(d, l=1, amplitude=1.0), d)
        res = steklov_check(s, d)
        assert abs(res.margin) <= 1e-13 * res.rhs

    def test_margin_positive_and_exact_on_higher_mode(self, small_domain):
        d = small_domain
        amp = 0.8
        s = single_mode(d, 0, 2, amp)
        res = steklov_check(s, d)
        lam1 = (np.pi / d.L) ** 2
        lam2 = (2 * np.pi / d.L) ** 2
        want = (lam2 - lam1) * amp**2 * d.X * d.L
        assert np.isclose(res.margin, want, rtol=1e-13)

    def test_margin_nonnegative_on_random_fields(self, small_domain, rng):
        d = small_domain
        for _ in range(5):
            s = to_spectral(GridField(rng.standard_normal(d.shape)), d)
            res = steklov_check(s, d)
            assert res.margin >= -1e-13 * res.rhs


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
    mk = lambda dt: simulate(u0, 0.2, StepperConfig(scheme="etd2", dt=dt),
                             flux, d)
    return mk(2e-3), mk(1e-3)


@pytest.fixture(scope="module")
def lean_run():
    """The coarse run of `run`, recorded without the audit series."""
    d = plan_domain(math.pi, 16 * math.pi, 128, 32, 0.5)
    u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
    return simulate(u0, 0.2, StepperConfig(scheme="etd2", dt=2e-3),
                    RegularizedFlux(h=None), d, audit_series=False)


class TestNonlinearAudits:
    @pytest.mark.parametrize("ident", [
        "mass_3_3", "h1_3_15", "combined_3_23", "h2_3_29"])
    def test_residuals_refine_at_second_order(self, run, ident):
        coarse_traj, fine_traj = run
        coarse = audit_identity(coarse_traj, ident)
        fine = attach_refinement_order(coarse, audit_identity(fine_traj, ident))
        assert coarse.identity == ident
        assert 1.7 <= fine.order <= 2.3, ident

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
        fine = attach_refinement_order(*reports)
        assert fine.order is None
        assert fine.dt_pair == (2e-3, 1e-3)

    def test_missing_series_raises(self, small_domain):
        d = small_domain
        S = symbol(d)
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        traj = duhamel_solve(u0, None, 0.01, 1e-3, S)
        with pytest.raises(ValueError, match="mid_rhs_h1"):
            audit_identity(traj, "h1_3_15")

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
        # the nonlinear audits and the homogeneous linear ones take one left side
        traj = run[0]
        work = 0.0 if rhs is None else traj.cumulative_midpoint(getattr(traj, rhs))
        assert np.array_equal(audit_identity(traj, ident).residual,
                              np.abs(traj.balance(k) - work))
        assert np.array_equal(audit_linear_identity(traj, ("mass", "grad", "hess")[k]).residual,
                              np.abs(traj.balance(k)))

    def test_balance_rejects_an_unknown_order(self, run):
        with pytest.raises(ValueError, match="energy order"):
            run[0].balance(3)

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
        fit = decay_fit(traj, NormSpec(kind="hs", s=0.0), d)
        assert abs(fit.slope + d.delta * (xi**2 + lam)) <= 1e-8
        assert fit.fit_rms <= 1e-10
        assert fit.norm_label == "H^0"

    def test_fractional_norm_uses_snapshots(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 2, 1, 1.0), None, 1.0, 1e-2, S,
                             snapshot_stride=2)
        fit = decay_fit(traj, NormSpec(kind="hs", s=0.5), d)
        xi = np.pi * 2 / d.X
        lam = (np.pi / d.L) ** 2
        # H^s of a single mode is a constant multiple of L2, same slope
        assert abs(fit.slope + d.delta * (xi**2 + lam)) <= 1e-8
        assert fit.n_samples >= 10

    def test_window_validation(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 1, 1, 1.0), None, 0.1, 1e-3, S)
        with pytest.raises(ValueError, match="positive length"):
            decay_fit(traj, NormSpec(), d, window=(0.5, 0.5))
        with pytest.raises(ValueError, match="at least 10"):
            decay_fit(traj, NormSpec(), d, window=(0.095, 0.1))

    def test_underflow_raises(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 0, 1, 1.0), None, 1400.0, 1.0, S,
                             snapshot_stride=0)
        with pytest.raises(ValueError, match="underflow"):
            decay_fit(traj, NormSpec(), d)


class TestThreshold:
    def test_tiny_data_enters_immediately(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 1, 1, 1e-3), None, 0.1, 1e-3, S)
        rep = threshold_time(traj, FROZEN["threshold_c1"], d)
        assert rep.t1 == 0.0
        assert rep.violations == []

    def test_closed_form_entry_time(self, desk_domain):
        # pure eigenmode semigroup decay: ||u||^2 = ||u0||^2 e^{-2 delta
        # pi^2 t / L^2}, so the entry time inverts the exponential exactly
        d = desk_domain
        S = symbol(d)
        c1 = FROZEN["threshold_c1"]
        thr = min(d.delta / (2 * c1), d.delta * np.pi**2 / (2 * c1 * d.L**2))
        amp = 16.0
        l2sq0 = amp**2 * d.X * d.L  # single j = 0 column carries full weight
        assert l2sq0 > thr  # data starts above the threshold
        dt = 1e-3
        traj = duhamel_solve(single_mode(d, 0, 1, amp), None, 0.5, dt, S)
        rep = threshold_time(traj, c1, d)
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
        rep = threshold_time(traj, FROZEN["threshold_c1"], d)
        assert rep.t1 is None

    def test_growing_functional_reports_violations(self, small_domain):
        # constant forcing pumps the gradient norm of tiny data upward,
        # which must surface as monotonicity violations past t1 = 0
        d = small_domain
        S = symbol(d)
        f = single_mode(d, 2, 2, 1.0).coeffs
        u0 = SpectralField(np.zeros(d.spectral_shape, dtype=complex))
        traj = duhamel_solve(u0, lambda t: f, 0.1, 1e-3, S)
        rep = threshold_time(traj, FROZEN["threshold_c1"], d)
        assert rep.t1 == 0.0
        assert len(rep.violations) > 0
        assert rep.max_violation > 0.0

    def test_rejects_nonpositive_c1(self, small_domain):
        d = small_domain
        S = symbol(d)
        traj = duhamel_solve(single_mode(d, 1, 1, 1.0), None, 0.01, 1e-3, S)
        with pytest.raises(ValueError):
            threshold_time(traj, 0.0, d)


class TestCalibration:
    def test_quadratic_comparison_regression(self, desk_domain):
        assert measure_quadratic_comparison(desk_domain) <= FROZEN[
            "quadratic_comparison_C"]

    def test_threshold_constant_regression(self, desk_domain):
        assert measure_threshold_constant(desk_domain) <= FROZEN["threshold_c1"]

    def test_smoothing_diagnostic(self):
        # rough data: second-derivative energy a thousandfold above first;
        # by t = 0.1 the flow must sit inside a small H2 ball
        traj, d = smoothing_run()
        assert traj.blowup_time is None
        ratio = traj.h2[0] / traj.h1[0]
        assert ratio >= 1e3
        assert traj.h2[-1] <= FROZEN["h2_smoothing_bound"]
        # H2 along the run never exceeds its rough start
        assert np.max(traj.h2) <= traj.h2[0]
