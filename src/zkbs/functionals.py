"""Energy-balance audits, decay fits and threshold reports.

Everything here evaluates on the shared Parseval normalization from
zkbs.domain, and every per-mode weight comes from its one table,
domain.mode_multipliers: the decay fits read the H^s norms and the
audits the energies that the recorder sums against that table, with
one term per partial where the energy identities have one (for
instance u_xx^2 + u_xy^2 + u_yy^2 in e2_mixed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory import _NORM_COLUMNS, Trajectory

__all__ = [
    "EnergyReport",
    "refinement_order",
    "audit_identity",
    "DecayFit",
    "decay_fit",
    "ThresholdReport",
    "threshold_time",
]

IDENTITIES = ("mass_3_3", "h1_3_15", "combined_3_23", "h2_3_29")


def _require_series(traj: Trajectory, names: tuple[str, ...], which: str, source: str) -> None:
    for name in names:
        if getattr(traj, name) is None:
            raise ValueError(f"trajectory lacks the {name!r} diagnostics required by {which};"
                             f" {source}")


@dataclass
class EnergyReport:
    """Residual history of one energy balance audit."""

    identity: str
    times: np.ndarray
    residual: np.ndarray
    max_residual: float
    dt: float


def refinement_order(coarse: EnergyReport, fine: EnergyReport) -> float | None:
    """Observed refinement order of one identity's residual from coarse.dt to fine.dt.

    log(residual ratio) / log(dt ratio), or None when either residual is
    exactly zero (zero data, say), where no order can be observed.
    """
    if coarse.identity != fine.identity:
        raise ValueError("refinement pair must audit the same identity")
    if not (coarse.dt > fine.dt > 0):
        raise ValueError("expected coarse.dt > fine.dt > 0")
    if coarse.max_residual > 0.0 and fine.max_residual > 0.0:
        return math.log(coarse.max_residual / fine.max_residual) / math.log(coarse.dt / fine.dt)
    return None


# The time rules of every energy audit live here: running integrals from
# times[0] to each boundary, and the left side of the order-k identity,
# E_k - E_k(0) + 2 delta integral D_k with E_0, E_1, E_2 = ||u||^2, diss_l2,
# e2_mixed and D_k = mid_diss<k> (midpoint rule).


def _cumulative_midpoint(traj: Trajectory, mid_values: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(mid_values * traj.dt)))


def _cumulative_trapezoid(traj: Trajectory, values: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(0.5 * (values[:-1] + values[1:]) * traj.dt)))


def _balance(traj: Trajectory, k: int) -> np.ndarray:
    energy = (traj.l2**2, traj.diss_l2, traj.e2_mixed)[k]
    dissipation = (traj.mid_diss0, traj.mid_diss1, traj.mid_diss2)[k]
    return energy - energy[0] + 2.0 * traj.domain.delta * _cumulative_midpoint(traj, dissipation)


# identity -> its order k and the series of the run's own work 2 <W_k u, F>, F
# = N(u) or the forcing: nonlin_flux, half of it at step boundaries, by the
# trapezoid rule, and mid_rhs_h1/h2, all of it at step midpoints, by the midpoint rule
_BALANCES = {"mass_3_3": (0, "nonlin_flux"), "h1_3_15": (1, "mid_rhs_h1"),
             "h2_3_29": (2, "mid_rhs_h2")}


def audit_identity(traj: Trajectory, which: str) -> EnergyReport:
    """Residual of one energy balance along a simulate() or duhamel_solve() run.

    which selects the balance:
      mass_3_3, h1_3_15, h2_3_29: the order-k identity (k = 0, 1, 2)
                     d/dt E_k + 2 delta D_k = 2 <W_k u, F> with W_k = 1, d1
                     or e2 from mode_multipliers: ||u||^2, integral |Du|^2
                     and the mixed second-derivative energy against their
                     dissipation and the work of F = N(u) or the forcing;
      combined_3_23: integral (|Du|^2 - u^3/3) with the extra
                     delta integral u^2 (u_xx + u_yy) drift; it holds for
                     the u^2/2 flux only, so an h != None run raises.

    The run's own work is read from its recorded series (_BALANCES), which
    every run records at every step, forced or not, so the residual is
    reported at every boundary whatever the snapshot stride.  Every other
    time integral takes the midpoint rule.  Requesting an identity whose
    series were not recorded raises: a duhamel_solve() run records no
    cube, so it has no combined_3_23.  A forcing split as
    f0 + d/dx f1 + d/dy f2 needs no pairings of its own: integration by
    parts is exact on the discrete sine-Fourier spectra.
    """
    if which not in IDENTITIES:
        raise ValueError(f"unknown identity {which!r}; expected one of {IDENTITIES}")
    if traj.n_steps < 1:
        raise ValueError("trajectory must contain at least one step")

    if which == "combined_3_23":
        if traj.h is not None:
            raise ValueError(f"combined_3_23 holds for the u^2/2 flux only, not h = {traj.h!r}")
        _require_series(traj, ("cube", "mid_u2lap"), which,
                        "only simulate() with audit_series=True at h = None records it")
        delta = traj.domain.delta
        energy = traj.diss_l2 - traj.cube / 3.0
        lhs = energy - energy[0]
        lhs += 2.0 * delta * _cumulative_midpoint(traj, traj.mid_diss1)
        lhs += delta * _cumulative_midpoint(traj, traj.mid_u2lap)
    else:
        k, series = _BALANCES[which]
        _require_series(traj, (series,), which,
                        "simulate() with audit_series=True and duhamel_solve() record it")
        values = getattr(traj, series)
        work = (_cumulative_trapezoid(traj, 2.0 * values) if series == "nonlin_flux"
                else _cumulative_midpoint(traj, values))
        lhs = _balance(traj, k) - work
    residual = np.abs(lhs)
    return EnergyReport(identity=which, times=traj.times, residual=residual,
                        max_residual=float(np.max(residual)), dt=traj.dt)


@dataclass
class DecayFit:
    """Least-squares slope of log(norm) over a time window."""

    window: tuple[float, float]
    slope: float
    intercept: float
    fit_rms: float
    n_samples: int


def decay_fit(traj: Trajectory, s: float,
              window: tuple[float, float] | None = None) -> DecayFit:
    """Fit log ||u||_{H^s} ~ intercept + slope * t on the window.

    s is one of the orders every run records: 0, 1/2, 1, 3/2 and 2.  The
    default window is [0.2 T, T].  At least 10 samples must fall in the
    window and the norm must stay above underflow; both violations raise
    ValueError.
    """
    if s not in _NORM_COLUMNS:
        raise ValueError(f"no H^s norm is recorded for s = {s!r}, only {tuple(_NORM_COLUMNS)}")
    times, values = traj.times, getattr(traj, _NORM_COLUMNS[s])
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


# The threshold constant c1 of |integral u u_x (u_xx + u_yy)| <= c1 (integral
# |D^2 u|^2 + u^2) integral u^2, known only to exist: the largest ratio on the
# desk grid's validation corpus (tests/test_functionals.py) is 5.71e-6, rounded
# up and frozen here.
THRESHOLD_C1 = 8e-6


def threshold_time(traj: Trajectory, c1: float, slack: float = 1e-10) -> ThresholdReport:
    """First time ||u||^2 drops under min(delta, delta pi^2 / L^2) / (2 c1).

    Past that time the first-order functional integral |Du|^2 + u^2 must
    not increase; increases beyond slack * max(1, initial value) are
    reported as violations.
    """
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    d = traj.domain
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
