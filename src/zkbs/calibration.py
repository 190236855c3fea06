"""Frozen calibration constants.

The decay and threshold monitors need numerical stand-ins for constants
that are only known to exist: the quadratic-term comparison constant,
the threshold constant entering the small-data time, and the regression
bound for the smoothing diagnostic.  Each was measured once with
measure_* below on the fixed corpus from validation_corpus() and then
frozen here; the tests re-run the measurement and check it stays under
the frozen value.  Regenerate by running this module as a script.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    DomainConfig,
    SpectralField,
    grid_quadrature,
    mixed_derivative,
    parseval_norm_sq,
    plan_domain,
    to_grid,
    to_spectral,
)
from .dynamics import RegularizedFlux, StepperConfig, simulate
from .functionals import dk_seminorm_sq, lyapunov_h1
from .initial_data import eigenmode, gaussian_bump, random_band, traveling_mode

__all__ = [
    "FROZEN",
    "validation_corpus",
    "measure_quadratic_comparison",
    "measure_threshold_constant",
]

# Measured on validation_corpus() / smoothing_run(), then rounded up:
# 0.0937, 5.71e-6 and 2.36e-5 as of the corpus below.
FROZEN = {
    # integral u^4 <= C * (integral |Du|^2 + u^2) * (integral u^2)
    "quadratic_comparison_C": 0.11,
    # |integral u u_x (u_xx + u_yy)| <= c1 * (integral |D2u|^2 + u^2) * (integral u^2)
    "threshold_c1": 8e-6,
    # H2 norm at t = 0.1 of the fixed rough-data smoothing run
    "h2_smoothing_bound": 1e-4,
}


def validation_corpus(d: DomainConfig) -> list[SpectralField]:
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


def measure_quadratic_comparison(d: DomainConfig) -> float:
    """Largest observed integral u^4 / (lyapunov_h1 * ||u||^2)."""
    worst = 0.0
    for s in validation_corpus(d):
        vals = to_grid(s, d).values
        num = grid_quadrature(vals**4, d)
        den = lyapunov_h1(s, d) * parseval_norm_sq(s.coeffs, d)
        worst = max(worst, num / den)
    return worst


def measure_threshold_constant(d: DomainConfig) -> float:
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


def _default_domain() -> DomainConfig:
    return plan_domain(L=math.pi, X=16 * math.pi, nx=256, ny=64, delta=0.5)


def smoothing_run(t_end: float = 0.1, dt: float = 1e-3):
    """Fixed rough-data run behind the h2_smoothing_bound constant.

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


def measure_h2_smoothing() -> float:
    """H2 norm at the end of the fixed smoothing run."""
    traj, _ = smoothing_run()
    return float(traj.h2[-1])


if __name__ == "__main__":
    d = _default_domain()
    print(f"quadratic_comparison_C measured: {measure_quadratic_comparison(d):.6g}")
    print(f"threshold_c1 measured:           {measure_threshold_constant(d):.6g}")
    print(f"h2_smoothing measured:           {measure_h2_smoothing():.6g}")
    print(f"frozen: {FROZEN}")
