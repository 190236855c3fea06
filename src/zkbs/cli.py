"""Experiment harness: config parsing, canned experiments, exit codes.

Config files are flat ``key = value`` text (# comments, blank lines
ignored); every key matches a RunConfig field.  CLI flags override file
values.  load_config checks the whole configuration before any stepping.
Exit codes: 0 all checks passed, 1 a failed check, 2 blowup, 3 bad
configuration or unusable output directory.

Subcommands:
  linear-verify   propagator and forced-solve checks against closed forms
                  and a per-mode variation-of-constants quadrature oracle
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
from .domain import (
    DomainConfig,
    GridField,
    SpectralField,
    _kept_band,
    parseval_norm_sq,
    plan_domain,
    to_grid,
    to_spectral,
)
from .dynamics import (
    BlowupError,
    RegularizedFlux,
    StepperConfig,
    picard_windows,
    simulate,
)
from .functionals import (
    IDENTITIES,
    THRESHOLD_C1,
    audit_identity,
    decay_fit,
    refinement_order,
    threshold_time,
)
from .initial_data import make_initial
from .semigroup import apply_semigroup, duhamel_solve, symbol
from .trajectory import Trajectory, _memory_bytes, _resolve_steps

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
    dt dividing t_end, a non-negative snapshot stride, a non-negative seed,
    and a grid on which every subcommand's working set fits in the
    machine's memory (_working_set_bytes).
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
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        cfg.stepper()
        cfg.flux()
        _resolve_steps(cfg.t_end, cfg.dt)
        need = _working_set_bytes(cfg)
        if need > _memory_bytes():
            raise ConfigError(f"a {cfg.nx} x {cfg.ny} grid cannot be held: the arrays a run "
                              f"on it holds at once need {need / 2**30:.3g} GiB, more than "
                              "the machine's memory")
        cfg.initial(cfg.domain())
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# the time windows of cmd_picard, solved by one picard_windows call
_PICARD_WINDOWS = (0.0125, 0.025, 0.05)


def _working_set_bytes(cfg: RunConfig) -> int:
    """Bytes of the largest set of grid- and spectrum-sized arrays any subcommand holds at once.

    Counted in complex half spectra, 16 (nx/2 + 1) ny bytes (about one
    float64 grid array), from the arrays each subcommand keeps live at its
    peak, and checked against tracemalloc peaks on 512 x 128, 256 x 512,
    2048 x 32 and 128 x 1024 grids (the measured count in brackets):
      simulate  16 [11.4-12.0] + snapshots + sine block: the step's
        tables, weights and band blocks, the grid buffer and flux output,
        and the transforms' odd extension with its FFT (4 grids);
      picard  13 [10.4-10.8] + window stack + sine block;
      decay, audit, linear-verify  not counted, below simulate's count
        with its 2 or more snapshots: decay [13.5-14.0] + sine block
        keeps the two ends, audit [15.5-16.2] + sine block holds one run
        at a time, and linear-verify [9.0-11.2] solves on 8 x 4 modes, so
        only its propagator checks' transforms sit on the grid.
    A snapshot is one half spectrum, the window stack is Picard's one
    (n + 1, kx, ky) complex stack on its last window, and the (ny, ky) sine
    block grows as ny^2.  The recorder's per-step series are sized apart,
    in _resolve_steps.
    """
    kx, ky = _kept_band(cfg)  # reads nx and ny only
    spec = 16 * (cfg.nx // 2 + 1) * cfg.ny
    sine = 8 * cfg.ny * ky
    n = round(cfg.t_end / cfg.dt)
    stride = cfg.snapshot_stride or n
    snapshots = -(-n // stride) + 1  # boundaries 0, stride, ... below n, and n
    window = max(1, round(_PICARD_WINDOWS[-1] / cfg.dt))
    return max((16 + snapshots) * spec + sine,
               13 * spec + (window + 1) * 16 * kx * ky + sine)


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
        "picard_etd2_rel": 8e-7,
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
        "picard_etd2_rel": 8e-8,
    },
}


_U2_FLUX_ONLY = "holds for the u^2/2 flux (h = none) only"


class Checks:
    """Collects named check results and prints one line for each."""

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

    def not_applicable(self, name: str, reason: str) -> None:
        """A check that does not apply to this run; it passes."""
        self.items.append({"name": name, "passed": True, "not_applicable": reason})
        print(f"[n/a] {name}: {reason}")

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.items)


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


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| relative to the largest |want|."""
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-30)


def _propagator_error(d: DomainConfig, S, cases, times) -> float:
    """Worst relative grid error of each case's propagated superposition of parts.

    Times are the outer loop, so each time's propagator is built once; each
    case's spectrum is built inside it, one at a time.
    """
    worst = 0.0
    for t in times:
        E = S.propagator(float(t))
        for parts in cases:
            # one expression, so that no case's grids outlive its error
            worst = max(worst, _rel_err(
                to_grid(SpectralField(_mode_coeffs(d, parts) * E), d).values,
                sum(_closed_form_grid(d, j, l, a, th, float(t)) for j, l, a, th in parts)))
    return worst


# the positive half of numpy's leggauss(16), digit for digit (a test pins it bit for
# bit), whose eigensolver is a LAPACK call: row 0 holds the nodes, row 1 their weights
_GAUSS16_HALF = np.array([
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]])


def _forced_mode_oracle(m: np.ndarray, u0: np.ndarray, forcing, T: float) -> np.ndarray:
    """Per-mode u(T) of u' = m u + F(t), u(0) = u0, by variation of constants.

    u(T) = exp(m T) u0 + integral_0^T exp(m (T - s)) F(s) ds, the integral by
    composite Gauss-Legendre quadrature on 64 panels of 16 nodes.  forcing
    maps the (1, nodes) times s to F(s), one row per mode.  The contraction
    is real: a complex product would be a zgemv, which wakes OpenBLAS's worker.
    """
    x, w = np.concatenate((_GAUSS16_HALF[:, ::-1] * [[-1.0], [1.0]], _GAUSS16_HALF), axis=1)
    edges = np.linspace(0.0, T, 65)
    half = 0.5 * np.diff(edges)[:, None]
    s = (edges[:-1, None] + half * (1.0 + x)).ravel()[None, :]
    weights = (half * w).ravel()
    terms = np.exp(m[:, None] * (T - s)) * forcing(s)
    return np.exp(m * T) * u0 + (terms.real @ weights + 1j * (terms.imag @ weights))


# time shapes of the forced solves: F(t) from amplitudes F and per-mode phases th
_FORCING_SHAPES = {
    "constant": lambda F, t, th: F,
    "cubic": lambda F, t, th: F * (0.3 - 1.2 * t + 0.8 * t**3),
    "smooth": lambda F, t, th: F * np.sin(3.0 * t + th) * np.exp(-t),
}


def cmd_linear_verify(cfg: RunConfig, tol: dict, out: Path) -> tuple[Checks, dict]:
    # the fixed draws below reach row 16 (the propagator modes) and sine column 6
    # (the semigroup block), and none of their rows may be the Nyquist row nx/2
    if cfg.nx < 34 or cfg.ny < 6:
        raise ConfigError(f"linear-verify needs nx >= 34 and ny >= 6 for its fixed modes, "
                          f"got {cfg.nx} x {cfg.ny}")
    d = cfg.domain()
    S = symbol(d)
    rng = np.random.default_rng(cfg.seed)
    checks = Checks()

    # single modes and superpositions against the closed form; coefficients are
    # set exactly so the check isolates the propagator from forward-transform rounding
    modes = [(int(rng.integers(0, 17)), int(rng.integers(1, 5))) for _ in range(20)]
    singles = [[(j, l, float(rng.uniform(0.2, 2.0)),
                 float(rng.uniform(0.0, 2.0 * math.pi)) if j > 0 else 0.0)]
               for j, l in modes]
    sums = [[(int(rng.integers(0, 17)), int(rng.integers(1, 5)),
              float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
             for _ in range(int(rng.integers(3, 9)))]
            for _ in range(5)]
    for name, cases, times in (("propagator_single_modes", singles, np.linspace(0.0, 2.0, 9)),
                               ("propagator_superpositions", sums, (0.5, 1.3, 2.0))):
        worst = _propagator_error(d, S, cases, times)
        checks.add(name, worst <= tol["propagator_rel"], worst, tol["propagator_rel"])

    # semigroup property and linearity
    c = np.zeros(d.spectral_shape, dtype=complex)
    jb, lb = 12, 6
    blk = rng.standard_normal((jb, lb)) + 1j * rng.standard_normal((jb, lb))
    c[1 : jb + 1, :lb] = blk
    u = SpectralField(c)
    err = _rel_err(apply_semigroup(apply_semigroup(u, 0.4, S), 0.35, S).coeffs,
                   apply_semigroup(u, 0.75, S).coeffs)
    checks.add("semigroup_property", err <= tol["exactness_abs"], err, tol["exactness_abs"])

    v = SpectralField(np.roll(c, 2, axis=0))
    lin1 = apply_semigroup(SpectralField(2.0 * u.coeffs - 0.7 * v.coeffs), 0.6, S).coeffs
    lin2 = 2.0 * apply_semigroup(u, 0.6, S).coeffs - 0.7 * apply_semigroup(v, 0.6, S).coeffs
    err = _rel_err(lin1, lin2)
    checks.add("linearity", err <= tol["exactness_abs"], err, tol["exactness_abs"])

    # forced solves against a per-mode quadrature oracle; they and the homogeneous
    # pair below run on the modes they excite: plan_domain builds xi_j and lam_l
    # independently of nx and ny, and the symbol, step weights and recorder weights
    # entry by entry from them, so the configured grid would only add zeros;
    # nx = 2 rows keeps the Nyquist row, where xi_odd is zeroed, past every active row
    T = cfg.t_end
    rows, cols = 7, 3
    active = [(j, l) for j in range(rows) for l in range(cols)]
    Sa = symbol(plan_domain(d.L, d.X, 2 * rows, max(4, cols), d.delta))
    u0c = np.zeros(Sa.domain.spectral_shape, dtype=complex)
    f0c = np.zeros(Sa.domain.spectral_shape, dtype=complex)
    theta = np.zeros(Sa.domain.spectral_shape)
    for j, l in active:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        # the x-mean row of a real field is real
        u0c[j, l] = a if j else a.real
        f0c[j, l] = b if j else b.real
        theta[j, l] = rng.uniform(0.0, 2.0 * math.pi)

    # each forcing shape at one time (duhamel_solve) and, on the active
    # modes, at every quadrature node (the oracle)
    idx = tuple(np.array(active).T)
    for name, shape in _FORCING_SHAPES.items():
        traj = duhamel_solve(SpectralField(u0c), lambda t, sh=shape: sh(f0c, t, theta),
                             T, cfg.dt, Sa, snapshot_stride=0)
        got = traj.snapshots[-1][idx]
        refs = _forced_mode_oracle(Sa.m[idx], u0c[idx], lambda s, sh=shape: sh(
            f0c[idx][:, None], s, theta[idx][:, None]), T)
        # scalar abs: np.abs of a complex array can differ from it in the last bit
        err = max(abs(g - ref) for g, ref in zip(got, refs))
        rel = float(err / max(max(abs(ref) for ref in refs), 1e-30))
        checks.add(f"duhamel_vs_oracle_{name}", rel <= tol["duhamel_rel"],
                   rel, tol["duhamel_rel"])

    # homogeneous mass balance: order-2 refinement of the audit residual
    coarse, fine = (audit_identity(
        duhamel_solve(SpectralField(u0c), None, 0.5, dt, Sa, snapshot_stride=0), "mass_3_3")
        for dt in (2e-3, 1e-3))
    order = refinement_order(coarse, fine)
    # a residual at rounding level (order None when it is exactly 0) has no order
    ok = coarse.max_residual < 1e-13 or (order is not None and 1.5 <= order <= 2.5)
    checks.add("linear_mass_refinement_order", ok, order, (1.5, 2.5))
    return checks, {}


# ---------------------------------------------------------------- simulate


def _complete(traj: Trajectory) -> Trajectory:
    """traj, or a BlowupError at its blowup time when the run was cut short."""
    if traj.blowup_time is not None:
        raise BlowupError("run cut short", traj.blowup_time)
    return traj


def cmd_simulate(cfg: RunConfig, tol: dict, out: Path) -> tuple[Checks, dict]:
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
    if cfg.h is not None:
        checks.not_applicable("flux_orthogonality", _U2_FLUX_ONLY)
    else:
        flux_bound = tol["flux_rel"] * np.maximum(1.0, traj.l2**3)  # inf passes, as it should
        worst_flux = float(np.max(np.abs(traj.nonlin_flux) / flux_bound))
        checks.add("flux_orthogonality", worst_flux <= 1.0, worst_flux, 1.0)

    return checks, {
        "final_time": float(traj.times[-1]),
        "final_l2": float(traj.l2[-1]),
        "blowup_time": None,
    }


# ---------------------------------------------------------------- audit


def cmd_audit(cfg: RunConfig, tol: dict, out: Path) -> tuple[Checks, dict]:
    d = cfg.domain()
    u0 = cfg.initial(d)
    checks = Checks()
    if not np.any(u0.values):  # zero residuals, whose refinement ratios are 0/0
        checks.not_applicable("energy_identities", "zero initial data")
        return checks, {}
    flux = cfg.flux()
    audited = [ident for ident in IDENTITIES if ident != "combined_3_23" or cfg.h is None]
    reports = []
    for dt in (cfg.dt, cfg.dt / 2):  # each run is audited and freed before the next starts
        traj = _complete(simulate(u0, cfg.t_end, replace(cfg.stepper(), dt=dt), flux, d))
        reports.append({ident: audit_identity(traj, ident) for ident in audited})
        del traj
    coarse_reports, fine_reports = reports

    table = {}
    for ident in IDENTITIES:
        if ident not in audited:
            checks.not_applicable(ident, _U2_FLUX_ONLY)
            continue
        coarse, fine = coarse_reports[ident], fine_reports[ident]
        factor = coarse.max_residual / max(fine.max_residual, 1e-300)
        table[ident] = {
            "max_residual_coarse": coarse.max_residual,
            "max_residual_fine": fine.max_residual,
            "dt_pair": [coarse.dt, fine.dt],
            "refinement_factor": factor,
            "order": refinement_order(coarse, fine),
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
    return checks, {"identities": table}


# ---------------------------------------------------------------- decay


def cmd_decay(cfg: RunConfig, tol: dict, out: Path) -> tuple[Checks, dict]:
    d = cfg.domain()
    u0 = cfg.initial(d)
    checks = Checks()
    if not np.any(u0.values):  # nothing decays, so there is nothing to fit
        checks.not_applicable("decay_fits", "zero initial data")
        return checks, {}

    traj = _complete(simulate(u0, cfg.t_end, cfg.stepper(), cfg.flux(), d, audit_series=False))

    with open(out / "decay.csv", "w", newline="") as fh:
        # every recorded norm the fits read, so each fit can be redone from the file
        fh.write("t,l2,h1,h2,h_half,h3_half\n")
        for row in zip(traj.times, traj.l2, traj.h1, traj.h2, traj.h_half, traj.h3_half):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    rate = d.delta * math.pi**2 / d.L**2
    try:
        fits = {s: decay_fit(traj, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)}
    except ValueError as exc:
        checks.add("decay_fits", False, str(exc), None)
        return checks, {}

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

    thr = threshold_time(traj, THRESHOLD_C1, slack=tol["lyap_slack"])
    t1_str = "not reached" if thr.t1 is None else f"{thr.t1:.6g}"
    checks.add("h1_lyapunov_monotone_past_threshold", len(thr.violations) == 0,
               {"t1": t1_str, "violations": len(thr.violations)}, 0)

    return checks, {
        "rate_bound": rate,
        "fits": {f"s={s:g}": {"slope": f.slope, "rms": f.fit_rms,
                              "window": list(f.window), "n": f.n_samples}
                 for s, f in fits.items()},
        "threshold_time": thr.t1,
    }


# ---------------------------------------------------------------- picard


def cmd_picard(cfg: RunConfig, tol: dict, out: Path) -> tuple[Checks, dict]:
    d = cfg.domain()
    S = symbol(d)
    u0 = to_spectral(cfg.initial(d), d)
    stepper = cfg.stepper()
    flux = cfg.flux()
    checks = Checks()
    grid = _PICARD_WINDOWS
    results = picard_windows(u0, grid, stepper, flux, S)
    field = results[0][0]
    diags = [diag for _, diag in results]
    del results  # only window 0's field is read: free the others before the ETD2 run
    rows = []
    stalled = []  # the windows whose contraction failed
    for t0, diag in zip(grid, diags):
        if not diag.converged:
            rows.append({"t0": t0, "converged": False, "error": (
                "contraction failed, reduce t0 (successive differences stalled at "
                f"{diag.diffs[-1]:.3e} after {diag.iterations} sweeps)")})
            stalled.append(t0)
            continue
        rows.append({
            "t0": t0,
            "iterations": diag.iterations,
            "converged": diag.converged,
            "final_diff": float(diag.diffs[-1]),
            "ratios": [float(r) for r in diag.ratios],
        })

    diag = diags[0]
    if field is None:
        checks.add("contraction_ratios_below_one", False, rows[0]["error"], 1.0)
    else:
        after_first = diag.ratios[: max(diag.iterations - 2, 0)]
        checks.add("contraction_ratios_below_one", bool(np.all(after_first < 1.0)),
                   [float(r) for r in after_first], 1.0)
        traj = _complete(simulate(to_grid(u0, d), grid[0], replace(stepper, dt=diag.dt),
                                  flux, d, snapshot_stride=0, audit_series=False))
        diff = math.sqrt(parseval_norm_sq(field.coeffs - traj.snapshots[-1], d))
        # relative to the reference's norm, by a product so zero data pass too
        bound = tol["picard_etd2_rel"] * float(traj.l2[-1])
        checks.add("picard_matches_etd2", diff <= bound, diff, bound)
    checks.add("every_window_converged", not stalled, stalled, [])

    return checks, {"grid": rows}


# ---------------------------------------------------------------- driver


# subcommand -> (its function, the file its JSON report goes to); each function
# returns its Checks and the figures that main() adds to the report
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
        p.add_argument("--h", default=None,
                       help="cutoff scale in (0, 1], or 'none' for u^2/2")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                       default="default")
    return parser


@np.errstate(over="ignore", invalid="ignore")  # the guards and checks report inf
def main(argv=None) -> int:
    """Run one subcommand; the one place that maps its outcome to a report and an exit code."""
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            "dt": args.dt,
            "t_end": args.t_end,
            "seed": args.seed,
        }
        if args.h is not None:
            overrides["h"] = _parse_value("h", args.h)
        cfg = load_config(args.config, overrides)
        out = _outdir(cfg, args.out)
        run, report_file = COMMANDS[args.command]
        try:
            checks, figures = run(cfg, PROFILES[args.tolerance_profile], out)
            report = {"experiment": args.command, "profile": args.tolerance_profile,
                      "checks": checks.items, "passed": checks.passed, **figures}
            code = 0 if checks.passed else 1
        except BlowupError as exc:
            print(f"[FAIL] blowup at t = {exc.t:.6g}")
            code, report = 2, {"experiment": args.command, "passed": False,
                               "blowup_time": exc.t}
        zio.write_json(out / report_file, report)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
