"""Norms, inequality monitors and energy-balance audits.

Everything here evaluates on the shared Parseval normalization from
zkbs.domain.  Two flavours of derivative weights coexist on purpose:

  * norm() implements the package-level contract: full Sobolev norms use
    the multiplier (1 + xi^2 + lam)^s for s in [0, 2], seminorms use
    (xi^2 + lam)^k for k in {1, 2, 3};
  * the audits and the interpolation ratio use the exact multipliers of
    the integrals they monitor (for instance u_xx^2 + u_xy^2 + u_yy^2
    maps to xi^4 + xi^2 lam + lam^2), because those are the combinations
    that appear in the balances themselves.

L_q norms are tensor-grid quadratures; every integrand that reaches a
wall does so with value zero, which keeps the interior-point rule
trapezoid-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DomainConfig,
    SpectralField,
    grid_quadrature,
    mixed_derivative,
    mode_multipliers,
    parseval_norm_sq,
    to_grid,
)
from .trajectory import EnergyReport, Trajectory

__all__ = [
    "NormSpec",
    "norm",
    "SteklovResult",
    "steklov_check",
    "interpolation_ratio",
    "audit_identity",
    "DecayFit",
    "decay_fit",
    "ThresholdReport",
    "threshold_time",
    "dk_seminorm_sq",
    "lyapunov_h1",
    "lyapunov_h2",
]

NONLINEAR_IDENTITIES = ("mass_3_3", "h1_3_15", "combined_3_23", "h2_3_29")


@dataclass(frozen=True)
class NormSpec:
    """Selects a norm: full H^s for s in [0, 2], or seminorm |D^k|.

    kind is "hs" (uses s) or "seminorm" (uses k in {1, 2, 3}).
    """

    kind: str = "hs"
    s: float = 0.0
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("hs", "seminorm"):
            raise ValueError("kind must be 'hs' or 'seminorm'")
        if self.kind == "hs" and not (0.0 <= self.s <= 2.0):
            raise ValueError("Sobolev exponent s must lie in [0, 2]")
        if self.kind == "seminorm" and self.k not in (1, 2, 3):
            raise ValueError("seminorm order k must be 1, 2 or 3")

    @property
    def label(self) -> str:
        return f"H^{self.s:g}" if self.kind == "hs" else f"|D^{self.k}|"


def norm(u: SpectralField, spec: NormSpec, d: DomainConfig) -> float:
    """Parseval evaluation of the selected norm."""
    mults = mode_multipliers(d)
    a2 = np.abs(u.coeffs) ** 2
    if spec.kind == "hs":
        w = (1.0 + mults.d1) ** spec.s
    else:
        w = mults.d1**spec.k
    return math.sqrt(float(np.sum(d.parseval_weight[:, None] * w * a2)))


def dk_seminorm_sq(u: SpectralField, k: int, d: DomainConfig) -> float:
    """integral |D^k u|^2 with one term per mixed partial (k in {1, 2, 3}).

    k = 1, 2 are the d1, e2 mode weights; k = 3 is not d3, which counts mixed partials twice.
    """
    if k in (1, 2):
        mults = mode_multipliers(d)
        w = mults.d1 if k == 1 else mults.e2
    elif k == 3:
        xi2 = d.xi[:, None] ** 2
        lam = d.lam[None, :]
        w = xi2**3 + xi2**2 * lam + xi2 * lam**2 + lam**3
    else:
        raise ValueError("k must be 1, 2 or 3")
    return float(np.sum(d.parseval_weight[:, None] * w * np.abs(u.coeffs) ** 2))


def lyapunov_h1(u: SpectralField, d: DomainConfig) -> float:
    """integral |Du|^2 + u^2 (the first-order decay functional)."""
    return dk_seminorm_sq(u, 1, d) + parseval_norm_sq(u.coeffs, d)


def lyapunov_h2(u: SpectralField, d: DomainConfig) -> float:
    """integral |D^2 u|^2 + |Du|^2 + u^2 (the second-order decay functional)."""
    return dk_seminorm_sq(u, 2, d) + lyapunov_h1(u, d)


@dataclass(frozen=True)
class SteklovResult:
    lhs: float      # integral u_y^2
    rhs: float      # (pi/L)^2 integral u^2
    margin: float   # lhs - rhs, nonnegative mode by mode


def steklov_check(u: SpectralField, d: DomainConfig) -> SteklovResult:
    """Sharp wall-to-wall Poincare comparison in the y direction.

    Per mode, integral u_y^2 carries the weight lam_l >= lam_1, so the
    margin is a sum of nonnegative terms and vanishes exactly on pure
    l = 1 data.
    """
    rows = d.parseval_weight @ (np.abs(u.coeffs) ** 2)  # per-l sums over x rows
    lhs = float(rows @ d.lam)
    lam1 = (np.pi / d.L) ** 2
    rhs = lam1 * float(np.sum(rows))
    return SteklovResult(lhs=lhs, rhs=rhs, margin=lhs - rhs)


def _dm_magnitude(u: SpectralField, m: int, d: DomainConfig) -> np.ndarray:
    """Grid samples of |D^m u| (m = 0 gives |u|)."""
    if m == 0:
        return np.abs(to_grid(u, d).values)
    acc = np.zeros(d.shape)
    for kx in range(m + 1):
        g = mixed_derivative(u, kx, m - kx, d).values
        acc += g**2
    return np.sqrt(acc)


def interpolation_ratio(u: SpectralField, m: int, k: int, q: float,
                        d: DomainConfig, include_l2_term: bool = True) -> float:
    """Observed quotient of the Gagliardo-Nirenberg style comparison

        || |D^m u| ||_{L_q}  vs  || |D^k u| ||^{2s} ||u||^{1-2s} + ||u||,

    with s = (m + 1) / (2k) - 1 / (kq).  Returns 0 for zero fields.  With
    include_l2_term=False the additive ||u|| is dropped, making the
    quotient exactly scale-invariant.  Grid quadrature is used for the
    L_q integral; this is a monitoring tool, not an audit.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError("k must be a positive integer")
    if not (isinstance(m, int) and 0 <= m < k):
        raise ValueError("m must be an integer with 0 <= m < k")
    if not (q >= 2.0) or math.isinf(q):
        raise ValueError("q must be finite and >= 2")
    if m > 3 or k > 3:
        raise ValueError("derivative orders above 3 are not supported")

    l2 = math.sqrt(parseval_norm_sq(u.coeffs, d))
    if l2 == 0.0:
        return 0.0
    s = (m + 1) / (2.0 * k) - 1.0 / (k * q)
    mag = _dm_magnitude(u, m, d)
    num = grid_quadrature(mag**q, d) ** (1.0 / q)
    dk = math.sqrt(dk_seminorm_sq(u, k, d))
    den = dk ** (2.0 * s) * l2 ** (1.0 - 2.0 * s)
    if include_l2_term:
        den += l2
    if den == 0.0:
        return 0.0
    return num / den


def _require_series(traj: Trajectory, names: tuple[str, ...], which: str) -> None:
    for name in names:
        if getattr(traj, name) is None:
            raise ValueError(
                f"trajectory lacks the {name!r} diagnostics required by {which};"
                " rerun simulate() with audit_series=True"
            )


def audit_identity(traj: Trajectory, which: str) -> EnergyReport:
    """Residual of one nonlinear energy balance along a recorded run.

    which selects the balance:
      mass_3_3:      ||u||^2 growth against 2 delta integral |Du|^2;
      h1_3_15:       integral |Du|^2 against second-order dissipation and
                     the work term 2 integral u u_x (u_xx + u_yy);
      combined_3_23: integral (|Du|^2 - u^3/3) with the extra
                     delta integral u^2 (u_xx + u_yy) drift;
      h2_3_29:       mixed second-derivative energy against third-order
                     dissipation and the paired nonlinear work.

    All time integrals use the midpoint values recorded by simulate();
    requesting an identity whose series were not recorded raises.
    """
    if which not in NONLINEAR_IDENTITIES:
        raise ValueError(f"unknown identity {which!r}; expected one of {NONLINEAR_IDENTITIES}")
    if traj.n_steps < 1:
        raise ValueError("trajectory must contain at least one step")
    delta = traj.domain.delta

    if which == "mass_3_3":
        residual = np.abs(traj.balance(0))
    elif which == "h1_3_15":
        _require_series(traj, ("mid_rhs_h1",), which)
        residual = np.abs(traj.balance(1) - traj.cumulative_midpoint(traj.mid_rhs_h1))
    elif which == "combined_3_23":
        _require_series(traj, ("cube", "mid_u2lap"), which)
        energy = traj.diss_l2 - traj.cube / 3.0
        lhs = energy - energy[0]
        lhs += 2.0 * delta * traj.cumulative_midpoint(traj.mid_diss1)
        lhs += delta * traj.cumulative_midpoint(traj.mid_u2lap)
        residual = np.abs(lhs)
    else:  # h2_3_29
        _require_series(traj, ("mid_rhs_h2",), which)
        residual = np.abs(traj.balance(2) - traj.cumulative_midpoint(traj.mid_rhs_h2))

    return EnergyReport(
        identity=which,
        times=traj.times,
        residual=residual,
        max_residual=float(np.max(residual)),
        dt=traj.dt,
    )


@dataclass
class DecayFit:
    """Least-squares slope of log(norm) over a time window."""

    window: tuple[float, float]
    slope: float
    intercept: float
    fit_rms: float
    norm_label: str
    n_samples: int


def _norm_series(traj: Trajectory, spec: NormSpec, d: DomainConfig):
    """Times and norm values for the fit; dense columns when available."""
    if spec.kind == "hs" and spec.s in (0.0, 1.0, 2.0):
        series = {0.0: traj.l2, 1.0: traj.h1, 2.0: traj.h2}[spec.s]
        return traj.times, series
    idx = traj.snapshot_indices
    vals = np.array([norm(SpectralField(c), spec, d) for c in traj.snapshots])
    return traj.times[idx], vals


def decay_fit(traj: Trajectory, spec: NormSpec, d: DomainConfig,
              window: tuple[float, float] | None = None) -> DecayFit:
    """Fit log(norm) ~ intercept + slope * t on the window.

    The default window is [0.2 T, T].  At least 10 samples must fall in
    the window and the norm must stay above underflow; both violations
    raise ValueError.
    """
    times, values = _norm_series(traj, spec, d)
    if window is None:
        window = (0.2 * float(times[-1]), float(times[-1]))
    ta, tb = window
    if not (tb > ta):
        raise ValueError("decay window must have positive length")
    sel = (times >= ta) & (times <= tb)
    t = times[sel]
    v = values[sel]
    if len(t) < 10:
        raise ValueError(f"decay window holds {len(t)} samples, need at least 10")
    if np.any(v < 1e-280):
        raise ValueError("norm underflow inside the decay window; shrink the window")
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    resid = logs - (slope * t + intercept)
    return DecayFit(
        window=(float(ta), float(tb)),
        slope=float(slope),
        intercept=float(intercept),
        fit_rms=float(np.sqrt(np.mean(resid**2))),
        norm_label=spec.label,
        n_samples=int(len(t)),
    )


@dataclass
class ThresholdReport:
    """Entry time into the small-data regime plus monotonicity check."""

    t1: float | None                 # None when the threshold is never met
    threshold: float                 # L2^2 level that must be crossed
    c1: float
    violations: list                 # (time, increase) pairs past t1
    max_violation: float


def threshold_time(traj: Trajectory, c1: float, d: DomainConfig,
                   slack: float = 1e-10) -> ThresholdReport:
    """First time ||u||^2 drops under min(delta, delta pi^2 / L^2) / (2 c1).

    Past that time the first-order functional integral |Du|^2 + u^2 must
    not increase; increases beyond slack * max(1, initial value) are
    reported as violations.
    """
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    thr = min(d.delta / (2.0 * c1), d.delta * np.pi**2 / (2.0 * c1 * d.L**2))
    l2sq = traj.l2**2
    hit = np.nonzero(l2sq <= thr)[0]
    if len(hit) == 0:
        return ThresholdReport(t1=None, threshold=thr, c1=c1, violations=[],
                               max_violation=0.0)
    i0 = int(hit[0])
    lyap = traj.lyapunov_h1
    tol = slack * max(1.0, float(lyap[0]))
    jumps = np.diff(lyap[i0:])
    bad = np.nonzero(jumps > tol)[0]
    violations = [(float(traj.times[i0 + j + 1]), float(jumps[j])) for j in bad]
    return ThresholdReport(
        t1=float(traj.times[i0]),
        threshold=thr,
        c1=c1,
        violations=violations,
        max_violation=float(np.max(jumps, initial=0.0)),
    )
