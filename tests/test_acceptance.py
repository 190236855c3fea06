"""Acceptance gate: twelve end-to-end criteria at pinned tolerances.

Each criterion is one test that prints a single summary line; run with
``pytest -v`` for per-criterion pass/fail status (printed details appear
with ``-rP`` or on failure).  Expensive trajectories are shared through
module fixtures: the default desk scenario, its half-step twin, and one
run per initial-data generator.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from zkbs import (
    RegularizedFlux,
    SpectralField,
    StepperConfig,
    apply_semigroup,
    audit_identity,
    decay_fit,
    duhamel_solve,
    eigenmode,
    gaussian_bump,
    parseval_norm_sq,
    picard_windows,
    random_band,
    refinement_order,
    simulate,
    symbol,
    threshold_time,
    to_grid,
    to_spectral,
    traveling_mode,
    write_diagnostics_csv,
)
from oracles import steklov_margin
from zkbs.cli import _closed_form_grid as closed_form, _mode_coeffs as mode_coeffs
from zkbs.functionals import THRESHOLD_C1

T_END = 2.0
DT = 1e-3
POINCARE_RATE = 0.5  # delta pi^2 / L^2 for the desk geometry


def report(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


@pytest.fixture(scope="module")
def no_cutoff():
    return RegularizedFlux(h=None)


@pytest.fixture(scope="module")
def default_run(desk_domain, no_cutoff):
    u0 = gaussian_bump(desk_domain, 0.0, 2.0, 1, 0.5)
    return simulate(u0, T_END, StepperConfig(dt=DT), no_cutoff, desk_domain,
                    snapshot_stride=16)


@pytest.fixture(scope="module")
def default_run_fine(desk_domain, no_cutoff):
    u0 = gaussian_bump(desk_domain, 0.0, 2.0, 1, 0.5)
    return simulate(u0, T_END, StepperConfig(dt=DT / 2), no_cutoff, desk_domain)


@pytest.fixture(scope="module")
def library_runs(desk_domain, no_cutoff):
    d = desk_domain
    data = {
        "eigenmode": eigenmode(d, l=1, amplitude=1.0),
        "traveling_mode": traveling_mode(d, j=2, l=1, amplitude=0.8),
        "gaussian_bump": gaussian_bump(d, -4.0, 3.0, 2, 0.6),
        "random_band": random_band(d, seed=11, amplitude=0.8),
    }
    cfg = StepperConfig(dt=DT)
    # criteria 4-6 read only l2, nonlin_flux and the snapshots
    return {name: simulate(u0, T_END, cfg, no_cutoff, d, audit_series=False)
            for name, u0 in data.items()}


def test_criterion_01_propagator_closed_form(desk_domain):
    d = desk_domain
    S = symbol(d)
    singles = [
        (0, 1), (0, 5), (1, 1), (2, 3), (3, 2), (4, 7), (6, 1), (8, 4),
        (11, 2), (15, 6), (20, 1), (26, 3), (33, 8), (41, 2), (50, 5),
        (60, 1), (70, 4), (85, 2), (100, 3), (110, 1),
    ]
    worst = 0.0
    times = np.linspace(0.0, 2.0, 9)
    for idx, (j, l) in enumerate(singles):
        amp = 0.4 + 0.1 * (idx % 5)
        theta = 0.31 * idx
        u0 = SpectralField(mode_coeffs(d, [(j, l, amp, theta)]))
        for t in times:
            got = to_grid(apply_semigroup(u0, t, S), d).values
            want = closed_form(d, j, l, amp, theta, t)
            scale = np.max(np.abs(want))
            worst = max(worst, np.max(np.abs(got - want)) / scale)

    rng = np.random.default_rng(7)
    for _ in range(5):
        n_parts = rng.integers(3, 9)
        parts = [
            (int(rng.integers(0, 120)), int(rng.integers(1, 9)),
             float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.0, 2 * np.pi)))
            for _ in range(n_parts)
        ]
        u0 = SpectralField(mode_coeffs(d, parts))
        for t in (0.0, 0.5, 1.3, 2.0):
            got = to_grid(apply_semigroup(u0, t, S), d).values
            want = sum(closed_form(d, *p[:2], p[2], p[3], t) for p in parts)
            scale = np.max(np.abs(want))
            worst = max(worst, np.max(np.abs(got - want)) / scale)

    report(1, "propagator matches closed form", worst <= 1e-10,
           f"worst rel err {worst:.3e} tol 1e-10")


def test_criterion_02_duhamel_matches_ode_oracle(desk_domain):
    d = desk_domain
    S = symbol(d)
    rng = np.random.default_rng(21)
    active = [(j, l) for j in range(7) for l in (1, 2)]
    amps = {}
    fc = np.zeros(d.spectral_shape, dtype=complex)
    for j, l in active:
        a = rng.standard_normal() + (1j * rng.standard_normal() if j else 0.0)
        amps[(j, l)] = a
        fc[j, l - 1] = a

    theta = {(j, l): 0.7 * j + 1.3 * l for j, l in active}
    waves = {
        "constant": lambda t, th: 1.0,
        "polynomial": lambda t, th: 0.3 - 1.2 * t + 0.8 * t**3,
        "smooth": lambda t, th: math.sin(3 * t + th) * math.exp(-t),
    }
    u0 = SpectralField(mode_coeffs(d, [(2, 1, 0.3, 0.4), (5, 2, 0.2, 1.1)]))
    worst = {}
    for name, w in waves.items():
        if name == "smooth":
            # per-mode phase: assemble the array mode by mode
            def forcing(t, w=w):
                arr = np.zeros(d.spectral_shape, dtype=complex)
                for (j, l), a in amps.items():
                    arr[j, l - 1] = a * w(t, theta[(j, l)])
                return arr
        else:
            def forcing(t, w=w):
                return fc * w(t, 0.0)

        traj = duhamel_solve(u0, forcing, 1.0, DT, S, snapshot_stride=0)
        got = traj.snapshots[-1]

        err = 0.0
        scale = 0.0
        for j, l in active:
            row = (j, l - 1)
            m = S.m[row]
            a = amps[(j, l)]
            th = theta[(j, l)] if name == "smooth" else 0.0

            def rhs(t, y, m=m, a=a, th=th, w=w):
                return m * y + a * w(t, th)

            sol = solve_ivp(rhs, (0.0, 1.0), [complex(u0.coeffs[row])],
                            method="DOP853", rtol=1e-12, atol=1e-14)
            ref = sol.y[0, -1]
            err = max(err, abs(got[row] - ref))
            scale = max(scale, abs(ref))
        worst[name] = err / max(scale, 1e-30)

    bad = max(worst.values())
    report(2, "forced solve matches per-mode ODE oracle", bad <= 1e-8,
           ", ".join(f"{k}={v:.3e}" for k, v in worst.items()) + " tol 1e-8")


def test_criterion_03_mass_identity_refines(default_run, default_run_fine):
    coarse = audit_identity(default_run, "mass_3_3")
    fine = audit_identity(default_run_fine, "mass_3_3")
    factor = coarse.max_residual / max(fine.max_residual, 1e-300)
    ok = coarse.max_residual <= 1e-6 and 3.0 <= factor <= 5.0
    report(3, "mass identity residual", ok,
           f"abs {coarse.max_residual:.3e} (tol 1e-6), halving factor "
           f"{factor:.3f} (window [3, 5])")


def test_criterion_04_flux_orthogonality(default_run, library_runs):
    worst = 0.0
    for name, traj in {"default": default_run, **library_runs}.items():
        assert traj.blowup_time is None, name
        bound = 1e-10 * np.maximum(1.0, traj.l2**3)
        worst = max(worst, float(np.max(np.abs(traj.nonlin_flux) / bound)))
    report(4, "nonlinear flux orthogonal to u", worst <= 1.0,
           f"worst normalized flux {worst:.3e} (<= 1 means within 1e-10 bound)")


def test_criterion_05_decay_slopes(default_run, library_runs, desk_domain):
    d = desk_domain
    eig = decay_fit(library_runs["eigenmode"], 0.0)
    eig_ok = abs(eig.slope + POINCARE_RATE) <= 1e-6

    bound = -POINCARE_RATE + 1e-3
    slopes = {}
    mono_ok = True
    for name, traj in {"default": default_run, **library_runs}.items():
        fit = decay_fit(traj, 0.0)
        slopes[name] = fit.slope
        slack = 1e-12 * max(1.0, float(traj.l2[0]))
        mono_ok = mono_ok and bool(np.all(np.diff(traj.l2) <= slack))
    slope_ok = all(s <= bound for s in slopes.values())

    report(5, "decay at least the wall rate", eig_ok and slope_ok and mono_ok,
           f"eigenmode slope {eig.slope:.9f} (want -0.5 +- 1e-6); "
           + ", ".join(f"{k}={v:.4f}" for k, v in slopes.items())
           + f" all <= {bound}; monotone={mono_ok}")


def test_criterion_06_steklov_inequality(default_run, library_runs, desk_domain):
    d = desk_domain
    worst = 0.0
    for traj in [default_run, *library_runs.values()]:
        for snap in traj.snapshots:
            margin, rhs = steklov_margin(SpectralField(snap), d)
            worst = min(worst, margin / max(rhs, 1e-300))
    eq_worst = 0.0
    for snap in library_runs["eigenmode"].snapshots:
        margin, rhs = steklov_margin(SpectralField(snap), d)
        eq_worst = max(eq_worst, abs(margin) / max(rhs, 1e-300))
    ok = worst >= -1e-13 and eq_worst <= 1e-13
    report(6, "wall comparison inequality", ok,
           f"worst rel margin {worst:.3e} >= -1e-13; first-eigenfunction "
           f"equality defect {eq_worst:.3e} <= 1e-13")


def test_criterion_07_h1_lyapunov_monotone(default_run, desk_domain):
    thr = threshold_time(default_run, THRESHOLD_C1, slack=1e-10)
    tail = decay_fit(default_run, 1.0)
    ok = thr.t1 == 0.0 and len(thr.violations) == 0 and tail.slope < 0.0
    report(7, "gradient functional decays past threshold", ok,
           f"t1={thr.t1}, violations={len(thr.violations)}, "
           f"tail H^1 slope {tail.slope:.4f} < 0")


def test_criterion_08_h2_functional(default_run, default_run_fine, desk_domain):
    # integral |D^2 u|^2 + |Du|^2 + u^2 from the recorded series
    lyap2 = default_run.e2_mixed + default_run.diss_l2 + default_run.l2**2
    slack = 1e-10 * max(1.0, float(lyap2[0]))
    mono = bool(np.all(np.diff(lyap2) <= slack))
    order = refinement_order(audit_identity(default_run, "h2_3_29"),
                             audit_identity(default_run_fine, "h2_3_29"))
    ok = mono and 1.7 <= order <= 2.3
    report(8, "second-order functional decays, identity refines", ok,
           f"monotone={mono} (slack 1e-10), refinement order {order:.3f} "
           f"in [1.7, 2.3]")


def test_criterion_09_picard_contraction(desk_domain, no_cutoff):
    d = desk_domain
    u0 = to_spectral(gaussian_bump(d, 0.0, 2.0, 1, 0.1), d)
    S = symbol(d)
    cfg = StepperConfig(dt=DT)
    ratio_ok = True
    details = []
    windows = (0.0125, 0.025, 0.05)
    results = picard_windows(u0, windows, cfg, no_cutoff, S)
    fields = {}
    for t0, (field, diag) in zip(windows, results):
        fields[t0] = field
        after_first = diag.ratios[: max(diag.iterations - 2, 0)]
        ratio_ok = ratio_ok and diag.converged and bool(
            np.all(after_first < 1.0))
        details.append(f"t0={t0}: it={diag.iterations}, "
                       f"max ratio {np.max(after_first, initial=0.0):.3e}")

    t0 = 0.0125
    n = max(1, round(t0 / DT))
    ref = simulate(to_grid(u0, d), t0, StepperConfig(dt=t0 / n), no_cutoff,
                   d).snapshots[-1]
    diff = math.sqrt(parseval_norm_sq(fields[t0].coeffs - ref, d))
    ok = ratio_ok and diff <= 1e-6
    report(9, "fixed-point iteration contracts and agrees", ok,
           "; ".join(details) + f"; vs two-stage diff {diff:.3e} tol 1e-6")


def test_criterion_10_inactive_cutoff_consistency(desk_domain):
    d = desk_domain
    u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
    peak = float(np.max(np.abs(u0.values)))
    h = min(1.0, 1.0 / (2.0 * peak))
    assert 1.0 / h >= 2.0 * peak  # hypothesis of the consistency claim
    cfg = StepperConfig(dt=DT)
    plain = simulate(u0, 0.5, cfg, RegularizedFlux(h=None), d)
    capped = simulate(u0, 0.5, cfg, RegularizedFlux(h=h), d)
    l2_gap = float(np.max(np.abs(plain.l2 - capped.l2)))
    field_gap = float(np.max(np.abs(plain.snapshots[-1] - capped.snapshots[-1])))
    ok = l2_gap <= 1e-10 and field_gap <= 1e-10
    report(10, "inactive cutoff leaves the flow unchanged", ok,
           f"l2 gap {l2_gap:.3e}, field gap {field_gap:.3e}, tol 1e-10")


def test_criterion_11_fractional_norm_envelopes(default_run, desk_domain):
    d = desk_domain
    fits = {s: decay_fit(default_run, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)}
    beta = {k: -fits[float(k)].slope for k in (0, 1, 2)}
    ok = True
    details = []
    for s in (0.5, 1.5):
        lo, hi = int(math.floor(s)), int(math.ceil(s))
        frac = s - lo
        envelope = -(beta[lo] * (1 - frac) + beta[hi] * frac) + 2e-3
        ok = ok and fits[s].slope <= envelope
        details.append(f"s={s}: slope {fits[s].slope:.5f} <= {envelope:.5f}")
    report(11, "intermediate norms obey interpolated envelopes", ok,
           "; ".join(details))


def test_criterion_12_deterministic_diagnostics(desk_domain, no_cutoff, tmp_path):
    d = desk_domain
    files = []
    for tag in ("a", "b"):
        u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.5)
        traj = simulate(u0, 0.2, StepperConfig(dt=DT), no_cutoff, d)
        p = tmp_path / f"{tag}.csv"
        write_diagnostics_csv(p, traj)
        files.append(p.read_bytes())
    ok = files[0] == files[1]
    report(12, "diagnostics are byte-identical across reruns", ok,
           f"{len(files[0])} bytes compared equal" if ok else "byte mismatch")
