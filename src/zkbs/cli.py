"""Experiment harness: config parsing, canned experiments, exit codes.

Config files are flat ``key = value`` text (# comments, blank lines
ignored); every key matches a RunConfig field.  CLI flags override file
values.  load_config checks the whole configuration before any stepping.
Exit codes: 0 all checks passed, 1 a failed check or a stalled
contraction, 2 blowup, 3 bad configuration or unusable output directory.

Subcommands:
  linear-verify   propagator and forced-solve checks against closed forms
                  and a per-mode adaptive ODE oracle
  simulate        one nonlinear run; writes diagnostics CSV + snapshots
  audit           energy-balance residuals at dt and dt/2 with observed order
  decay           decay-rate fits, threshold and Lyapunov monotonicity
  picard          fixed-point iteration diagnostics over a grid of horizons
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import io as zio
from .calibration import FROZEN
from .domain import (
    DomainConfig,
    GridField,
    SpectralField,
    parseval_norm_sq,
    plan_domain,
    to_grid,
    to_spectral,
)
from .dynamics import (
    BlowupError,
    ContractionError,
    RegularizedFlux,
    StepperConfig,
    picard_solve,
    simulate,
)
from .functionals import (
    NONLINEAR_IDENTITIES,
    NormSpec,
    audit_identity,
    decay_fit,
    threshold_time,
)
from .initial_data import make_initial
from .semigroup import apply_semigroup, audit_linear_identity, duhamel_solve, symbol
from .trajectory import Trajectory, _resolve_steps, attach_refinement_order

__all__ = ["RunConfig", "load_config", "main", "PROFILES"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Flat experiment configuration; field names double as config keys."""

    L: float = math.pi
    X: float = 16.0 * math.pi
    nx: int = 256
    ny: int = 64
    delta: float = 0.5
    scheme: str = "etd2"
    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    h: float | None = None          # cutoff scale; None = unregularized
    generator: str = "gaussian_bump"
    amplitude: float = 0.5
    l: int = 1
    j: int = 1
    x0: float = 0.0
    sigma_x: float = 2.0
    jmax: int = 8
    lmax: int = 4
    seed: int = 1234
    t_end: float = 1.0
    snapshot_stride: int = 0
    out_dir: str = "out"

    def domain(self) -> DomainConfig:
        return plan_domain(self.L, self.X, self.nx, self.ny, self.delta)

    def flux(self) -> RegularizedFlux:
        return RegularizedFlux(h=self.h)

    def stepper(self) -> StepperConfig:
        return StepperConfig(
            scheme=self.scheme,
            dt=self.dt,
            picard_tol=self.picard_tol,
            picard_max_iter=self.picard_max_iter,
        )

    def initial(self, d: DomainConfig) -> GridField:
        return make_initial(self.generator, vars(self), d)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES.get(key)
    if ftype is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if key == "h":
            return None if raw.lower() in ("none", "off") else float(raw)
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a flat key = value file, apply CLI overrides, then check everything.

    Every check that needs no stepping runs here: finite floats, the
    geometry, the stepper, the flux, the initial data (by building it),
    dt dividing t_end and a non-negative snapshot stride.
    """
    values: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(p.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            values[key.strip()] = _parse_value(key.strip(), raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        cfg = RunConfig(**values)
        for key, val in vars(cfg).items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val!r}")
        if cfg.snapshot_stride < 0:
            raise ConfigError(f"snapshot_stride must be >= 0, got {cfg.snapshot_stride}")
        cfg.stepper()
        cfg.flux()
        _resolve_steps(cfg.t_end, cfg.dt)
        cfg.initial(cfg.domain())
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


PROFILES = {
    "default": {
        "propagator_rel": 1e-10,
        "exactness_abs": 1e-13,
        "duhamel_rel": 1e-8,
        "mass_abs": 1e-6,
        "mass_factor": (3.0, 5.0),
        "deriv_factor": (2.5, 6.0),
        "flux_rel": 1e-10,
        "monotone_slack": 1e-12,
        "lyap_slack": 1e-10,
        "decay_slope_tol": 1e-3,
        "eigen_slope_tol": 1e-6,
        "frac_slope_tol": 2e-3,
        "picard_etd2_tol": 1e-6,
    },
    "strict": {
        "propagator_rel": 1e-11,
        "exactness_abs": 1e-13,
        "duhamel_rel": 1e-9,
        "mass_abs": 1e-7,
        "mass_factor": (3.2, 4.8),
        "deriv_factor": (3.0, 5.0),
        "flux_rel": 1e-11,
        "monotone_slack": 1e-13,
        "lyap_slack": 1e-11,
        "decay_slope_tol": 5e-4,
        "eigen_slope_tol": 1e-7,
        "frac_slope_tol": 1e-3,
        "picard_etd2_tol": 1e-7,
    },
}


class Checks:
    """Collects named pass/fail results and renders them."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, passed: bool, value, threshold) -> None:
        self.items.append({
            "name": name,
            "passed": bool(passed),
            "value": value,
            "threshold": threshold,
        })
        tag = "ok" if passed else "FAIL"
        print(f"[{tag}] {name}: value={value!r} threshold={threshold!r}")

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.items)

    def summary(self, experiment: str, profile: str, extra: dict | None = None) -> dict:
        out = {
            "experiment": experiment,
            "profile": profile,
            "checks": self.items,
            "passed": self.passed,
        }
        if extra:
            out.update(extra)
        return out


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override if override is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(out)!r}: {exc.strerror}") from exc
    return out


# ---------------------------------------------------------------- linear


def _closed_form_grid(d: DomainConfig, j: int, l: int, amp: float, theta: float,
                      t: float) -> np.ndarray:
    """Independent single-mode solution on the grid."""
    xi = math.pi * j / d.X
    lam = (math.pi * l / d.L) ** 2
    rate = d.delta * (xi**2 + lam)
    drift = xi**3 + xi * lam
    envelope = amp * math.exp(-rate * t)
    xpart = np.cos(xi * d.x + theta + drift * t)
    return np.outer(envelope * xpart, np.sin(math.pi * l * d.y / d.L))


def _mode_coeffs(d: DomainConfig, parts) -> np.ndarray:
    """Exact amplitudes of sum_i a_i cos(xi_j x + theta_i) sin(pi l y / L)."""
    c = np.zeros(d.spectral_shape, dtype=complex)
    for j, l, amp, theta in parts:
        if j == 0:
            c[0, l - 1] += amp * math.cos(theta)
        else:
            c[j, l - 1] += 0.5 * amp * np.exp(1j * theta)
    return c


def cmd_linear_verify(cfg: RunConfig, tol: dict, out: Path) -> dict:
    from scipy.integrate import solve_ivp  # ~0.2 s to import; only this oracle needs it

    d = cfg.domain()
    S = symbol(d)
    rng = np.random.default_rng(cfg.seed)
    checks = Checks()
    times = np.linspace(0.0, 2.0, 9)

    # single modes against the closed form; coefficients are set exactly so
    # the check isolates the propagator from forward-transform rounding
    worst = 0.0
    modes = [(int(rng.integers(0, 17)), int(rng.integers(1, 5))) for _ in range(20)]
    for j, l in modes:
        amp = float(rng.uniform(0.2, 2.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi)) if j > 0 else 0.0
        s0 = SpectralField(_mode_coeffs(d, [(j, l, amp, theta)]))
        for t in times:
            got = to_grid(apply_semigroup(s0, float(t), S), d).values
            want = _closed_form_grid(d, j, l, amp, theta, float(t))
            scale = max(float(np.max(np.abs(want))), 1e-30)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    checks.add("propagator_single_modes", worst <= tol["propagator_rel"],
               worst, tol["propagator_rel"])

    # superpositions
    worst = 0.0
    for _ in range(5):
        parts = [(int(rng.integers(0, 17)), int(rng.integers(1, 5)),
                  float(rng.uniform(0.2, 1.0)),
                  float(rng.uniform(0.0, 2.0 * math.pi)))
                 for _ in range(int(rng.integers(3, 9)))]
        s0 = SpectralField(_mode_coeffs(d, parts))
        for t in (0.5, 1.3, 2.0):
            got = to_grid(apply_semigroup(s0, t, S), d).values
            want = sum(_closed_form_grid(d, j, l, a, th, t) for j, l, a, th in parts)
            scale = max(float(np.max(np.abs(want))), 1e-30)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    checks.add("propagator_superpositions", worst <= tol["propagator_rel"],
               worst, tol["propagator_rel"])

    # semigroup property and linearity
    c = np.zeros(d.spectral_shape, dtype=complex)
    jb, lb = 12, 6
    blk = rng.standard_normal((jb, lb)) + 1j * rng.standard_normal((jb, lb))
    c[1 : jb + 1, :lb] = blk
    u = SpectralField(c)
    s1 = apply_semigroup(apply_semigroup(u, 0.4, S), 0.35, S).coeffs
    s2 = apply_semigroup(u, 0.75, S).coeffs
    err = float(np.max(np.abs(s1 - s2))) / max(float(np.max(np.abs(s2))), 1e-30)
    checks.add("semigroup_property", err <= tol["exactness_abs"], err,
               tol["exactness_abs"])

    v = SpectralField(np.roll(c, 2, axis=0))
    lin1 = apply_semigroup(SpectralField(2.0 * u.coeffs - 0.7 * v.coeffs), 0.6, S).coeffs
    lin2 = 2.0 * apply_semigroup(u, 0.6, S).coeffs - 0.7 * apply_semigroup(v, 0.6, S).coeffs
    err = float(np.max(np.abs(lin1 - lin2))) / max(float(np.max(np.abs(lin2))), 1e-30)
    checks.add("linearity", err <= tol["exactness_abs"], err, tol["exactness_abs"])

    # forced solves against a per-mode adaptive oracle
    T = cfg.t_end
    active = [(j, l) for j in range(7) for l in range(3)]
    u0c = np.zeros(d.spectral_shape, dtype=complex)
    f0c = np.zeros(d.spectral_shape, dtype=complex)
    theta = np.zeros(d.spectral_shape)
    for j, l in active:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        # the x-mean row of a real field is real
        u0c[j, l] = a if j else a.real
        f0c[j, l] = b if j else b.real
        theta[j, l] = rng.uniform(0.0, 2.0 * math.pi)

    # forcing F(t) from amplitudes F and per-mode phases th, for the whole
    # spectrum (duhamel_solve) and for one mode at a time (the oracle)
    shapes = {
        "constant": lambda F, t, th: F,
        "cubic": lambda F, t, th: F * (0.3 - 1.2 * t + 0.8 * t**3),
        "smooth": lambda F, t, th: F * np.sin(3.0 * t + th) * math.exp(-t),
    }
    for name, shape in shapes.items():
        traj = duhamel_solve(SpectralField(u0c), lambda t, sh=shape: sh(f0c, t, theta),
                             T, cfg.dt, S, snapshot_stride=0)
        got = traj.snapshots[-1]
        err = 0.0
        ref_scale = 0.0
        for j, l in active:
            def rhs(t, y, m=S.m[j, l], fa=f0c[j, l], th=theta[j, l], sh=shape):
                return m * y + sh(fa, t, th)
            sol = solve_ivp(rhs, (0.0, T), np.array([u0c[j, l]], dtype=complex),
                            method="DOP853", rtol=1e-12, atol=1e-14)
            ref = sol.y[0, -1]
            err = max(err, abs(got[j, l] - ref))
            ref_scale = max(ref_scale, abs(ref))
        rel = float(err / max(ref_scale, 1e-30))
        checks.add(f"duhamel_vs_oracle_{name}", rel <= tol["duhamel_rel"],
                   rel, tol["duhamel_rel"])

    # homogeneous mass balance: order-2 refinement of the audit residual
    hom = SpectralField(u0c)
    t_hom = 0.5
    coarse = audit_linear_identity(
        duhamel_solve(hom, None, t_hom, 2e-3, S, snapshot_stride=0), "mass")
    fine = audit_linear_identity(
        duhamel_solve(hom, None, t_hom, 1e-3, S, snapshot_stride=0), "mass")
    fine = attach_refinement_order(coarse, fine)
    # a residual at rounding level (order None when it is exactly 0) has no order
    ok = coarse.max_residual < 1e-13 or (fine.order is not None and 1.5 <= fine.order <= 2.5)
    checks.add("linear_mass_refinement_order", ok, fine.order, (1.5, 2.5))

    return checks.summary("linear-verify", tol["_name"])


# ---------------------------------------------------------------- simulate


def _complete(traj: Trajectory) -> Trajectory:
    """traj, or a BlowupError at its blowup time when the run was cut short."""
    if traj.blowup_time is not None:
        raise BlowupError("run cut short", traj.blowup_time)
    return traj


def cmd_simulate(cfg: RunConfig, tol: dict, out: Path) -> dict:
    d = cfg.domain()
    u0 = cfg.initial(d)
    checks = Checks()
    traj = simulate(u0, cfg.t_end, cfg.stepper(), cfg.flux(), d,
                    snapshot_stride=cfg.snapshot_stride, audit_series=False)
    zio.write_diagnostics_csv(out / "diagnostics.csv", traj)
    for pos, idx in enumerate(traj.snapshot_indices):
        values = to_grid(SpectralField(traj.snapshots[pos]), d).values
        zio.write_snapshot(out / f"snapshot_{idx:06d}.zkbs", values)
    _complete(traj)

    jumps = np.diff(traj.l2)
    slack = tol["monotone_slack"] * max(1.0, float(traj.l2[0]))
    checks.add("l2_monotone_decay", bool(np.all(jumps <= slack)),
               float(np.max(jumps, initial=0.0)), slack)
    flux_bound = tol["flux_rel"] * np.maximum(1.0, traj.l2**3)  # inf passes, as it should
    worst_flux = float(np.max(np.abs(traj.nonlin_flux) / flux_bound))
    checks.add("flux_orthogonality", worst_flux <= 1.0, worst_flux, 1.0)

    return checks.summary("simulate", tol["_name"], extra={
        "final_time": float(traj.times[-1]),
        "final_l2": float(traj.l2[-1]),
        "blowup_time": None,
    })


# ---------------------------------------------------------------- audit


def _skip_zero_data(u0: GridField, experiment: str, action: str) -> dict | None:
    """Skip report for zero data (nothing to fit; residual ratios are 0/0), else None."""
    if float(np.max(np.abs(u0.values))) != 0.0:
        return None
    print(f"[skip] zero initial data; nothing to {action}")
    return {"experiment": experiment, "passed": True, "skipped": "zero initial data"}


def cmd_audit(cfg: RunConfig, tol: dict, out: Path, identities: list[str]) -> dict:
    d = cfg.domain()
    u0 = cfg.initial(d)
    skipped = _skip_zero_data(u0, "audit", "audit")
    if skipped is not None:
        return skipped
    flux = cfg.flux()
    coarse_traj = _complete(simulate(u0, cfg.t_end, cfg.stepper(), flux, d))
    fine_traj = _complete(simulate(u0, cfg.t_end, replace(cfg.stepper(), dt=cfg.dt / 2),
                                   flux, d))

    checks = Checks()
    table = {}
    for ident in identities:
        coarse = audit_identity(coarse_traj, ident)
        fine = attach_refinement_order(coarse, audit_identity(fine_traj, ident))
        factor = coarse.max_residual / max(fine.max_residual, 1e-300)
        table[ident] = {
            "max_residual_coarse": coarse.max_residual,
            "max_residual_fine": fine.max_residual,
            "dt_pair": list(fine.dt_pair),
            "refinement_factor": factor,
            "order": fine.order,
        }
        if ident == "mass_3_3":
            checks.add("mass_abs_residual", coarse.max_residual <= tol["mass_abs"],
                       coarse.max_residual, tol["mass_abs"])
            lo, hi = tol["mass_factor"]
            checks.add("mass_refinement_factor", lo <= factor <= hi, factor, (lo, hi))
        elif ident in ("h1_3_15", "h2_3_29"):
            lo, hi = tol["deriv_factor"]
            checks.add(f"{ident}_refinement_factor", lo <= factor <= hi,
                       factor, (lo, hi))
        else:
            print(f"[info] {ident}: coarse residual {coarse.max_residual:.3e}, "
                  f"factor {factor:.2f} (report only)")

    return checks.summary("audit", tol["_name"], extra={"identities": table})


# ---------------------------------------------------------------- decay


def cmd_decay(cfg: RunConfig, tol: dict, out: Path) -> dict:
    d = cfg.domain()
    u0 = cfg.initial(d)
    skipped = _skip_zero_data(u0, "decay", "fit")
    if skipped is not None:
        return skipped

    nsteps = _resolve_steps(cfg.t_end, cfg.dt)
    stride = cfg.snapshot_stride if cfg.snapshot_stride > 0 else max(1, nsteps // 128)
    traj = _complete(simulate(u0, cfg.t_end, cfg.stepper(), cfg.flux(), d,
                              snapshot_stride=stride, audit_series=False))

    with open(out / "decay.csv", "w", newline="") as fh:
        fh.write("t,l2,h1,h2\n")
        for i, t in enumerate(traj.times):
            fh.write(f"{t:.17g},{traj.l2[i]:.17g},{traj.h1[i]:.17g},{traj.h2[i]:.17g}\n")

    checks = Checks()
    rate = d.delta * math.pi**2 / d.L**2
    try:
        fits = {s: decay_fit(traj, NormSpec(kind="hs", s=s), d) for s in
                (0.0, 0.5, 1.0, 1.5, 2.0)}
    except ValueError as exc:
        print(f"[FAIL] decay fit: {exc}")
        return {"experiment": "decay", "passed": False, "error": str(exc)}

    slope_bound = -rate + tol["decay_slope_tol"]
    checks.add("l2_slope_at_least_poincare", fits[0.0].slope <= slope_bound,
               fits[0.0].slope, slope_bound)

    beta = {0: -fits[0.0].slope, 1: -fits[1.0].slope, 2: -fits[2.0].slope}
    for s in (0.5, 1.5):
        lo, hi = int(math.floor(s)), int(math.ceil(s))
        frac = s - lo
        envelope = -(beta[lo] * (1.0 - frac) + beta[hi] * frac) + tol["frac_slope_tol"]
        checks.add(f"h{s:g}_slope_envelope", fits[s].slope <= envelope,
                   fits[s].slope, envelope)

    thr = threshold_time(traj, FROZEN["threshold_c1"], d, slack=tol["lyap_slack"])
    t1_str = "not reached" if thr.t1 is None else f"{thr.t1:.6g}"
    checks.add("h1_lyapunov_monotone_past_threshold", len(thr.violations) == 0,
               {"t1": t1_str, "violations": len(thr.violations)}, 0)

    return checks.summary("decay", tol["_name"], extra={
        "rate_bound": rate,
        "fits": {f"s={s:g}": {"slope": f.slope, "rms": f.fit_rms,
                              "window": list(f.window), "n": f.n_samples}
                 for s, f in fits.items()},
        "threshold_time": thr.t1,
    })


# ---------------------------------------------------------------- picard


def cmd_picard(cfg: RunConfig, tol: dict, out: Path) -> dict:
    d = cfg.domain()
    S = symbol(d)
    u0 = to_spectral(cfg.initial(d), d)
    stepper = cfg.stepper()
    flux = cfg.flux()
    checks = Checks()
    grid = [0.0125, 0.025, 0.05]
    rows = []
    primary = None  # (field, diagnostics) of the first window
    for i, t0 in enumerate(grid):
        try:
            field, diag = picard_solve(u0, t0, stepper, flux, S)
            rows.append({
                "t0": t0,
                "iterations": diag.iterations,
                "converged": diag.converged,
                "final_diff": float(diag.diffs[-1]),
                "ratios": [float(r) for r in diag.ratios],
            })
            if i == 0:
                primary = field, diag
                after_first = diag.ratios[: max(diag.iterations - 2, 0)]
                contracting = bool(np.all(after_first < 1.0)) if len(after_first) else True
                checks.add("contraction_ratios_below_one", contracting,
                           [float(r) for r in after_first], 1.0)
        except ContractionError as exc:
            rows.append({"t0": t0, "converged": False, "error": str(exc)})
            if i == 0:
                checks.add("contraction_ratios_below_one", False, str(exc), 1.0)

    if primary is not None:
        field, diag = primary
        etd_cfg = replace(stepper, scheme="etd2", dt=diag.dt)
        traj = _complete(simulate(to_grid(u0, d), grid[0], etd_cfg, flux, d,
                                  snapshot_stride=0, audit_series=False))
        diff = math.sqrt(parseval_norm_sq(field.coeffs - traj.snapshots[-1], d))
        checks.add("picard_matches_etd2", diff <= tol["picard_etd2_tol"],
                   diff, tol["picard_etd2_tol"])

    return checks.summary("picard", tol["_name"], extra={"grid": rows})


# ---------------------------------------------------------------- driver


# subcommand -> (its function, the file its JSON report goes to)
COMMANDS = {
    "linear-verify": (cmd_linear_verify, "linear_verify.json"),
    "simulate": (cmd_simulate, "summary.json"),
    "audit": (cmd_audit, "audit.json"),
    "decay": (cmd_decay, "decay.json"),
    "picard": (cmd_picard, "picard.json"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _identities(raw: str) -> list[str]:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if not names or not set(names) <= set(NONLINEAR_IDENTITIES):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated subset of {','.join(NONLINEAR_IDENTITIES)}, "
            f"got {raw!r}")
    return names


def _build_parser() -> _Parser:
    parser = _Parser(prog="zkbs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--scheme", choices=("etd2", "picard"), default=None)
        p.add_argument("--h", default=None,
                       help="cutoff scale in (0, 1], or 'none' for u^2/2")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                       default="default")
        if name == "audit":
            p.add_argument("--identities", type=_identities,
                           default=",".join(NONLINEAR_IDENTITIES))
    return parser


@np.errstate(over="ignore", invalid="ignore")  # the guards and checks report inf
def main(argv=None) -> int:
    """Run one subcommand; the one place that maps its outcome to a report and an exit code."""
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            "dt": args.dt,
            "t_end": args.t_end,
            "scheme": args.scheme,
            "seed": args.seed,
        }
        if args.h is not None:
            overrides["h"] = _parse_value("h", args.h)
        cfg = load_config(args.config, overrides)
        tol = dict(PROFILES[args.tolerance_profile], _name=args.tolerance_profile)
        out = _outdir(cfg, args.out)
        run, report_file = COMMANDS[args.command]
        extra = {"identities": args.identities} if args.command == "audit" else {}
        failed = {"experiment": args.command, "passed": False}
        try:
            report = run(cfg, tol, out, **extra)
            code = 0 if report["passed"] else 1
        except ContractionError as exc:
            print(f"[FAIL] stepper: {exc}")
            code, report = 1, {**failed, "error": str(exc)}
        except BlowupError as exc:
            print(f"[FAIL] blowup at t = {exc.t:.6g}")
            code, report = 2, {**failed, "blowup_time": exc.t}
        zio.write_json(out / report_file, report)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
