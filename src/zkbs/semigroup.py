"""Linear propagator and forced solves for the linearized strip equation.

The linear part u_t + u_xxx + u_xyy - delta (u_xx + u_yy) = 0 is diagonal
in the Fourier-sine basis with per-mode symbol

    m(j, l) = i (xi_j^3 + xi_j lam_l) - delta (xi_j^2 + lam_l),

so the semigroup is an exact per-mode multiplication by exp(m t).  Forced
solves discretize the variation-of-constants integral with exponential
quadrature built from the phi functions

    phi_k(z) = sum_{n >= 0} z^n / (n + k)!,

evaluated by a truncated series below |z| = 0.5 to dodge cancellation and
by the closed forms above it.  The step rule samples the forcing at both
endpoints and the midpoint and is exact whenever the forcing is piecewise
quadratic in time on each step (in particular for piecewise-constant
forcing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DomainConfig,
    SpectralField,
    _check_spectral,
    mode_inner,
    mode_multipliers,
)
from .trajectory import EnergyReport, Trajectory, _Recorder

__all__ = [
    "SymbolTable",
    "symbol",
    "apply_semigroup",
    "duhamel_solve",
    "audit_linear_identity",
]

_SERIES_RADIUS = 0.5
_SERIES_TERMS = 19
_FACT = [math.factorial(n) for n in range(_SERIES_TERMS + 4)]


@dataclass(eq=False)
class SymbolTable:
    """Per-mode symbol values plus the domain they were built for."""

    domain: DomainConfig
    m: np.ndarray  # (nx/2 + 1, ny) complex

    @property
    def slowest_rate(self) -> float:
        """Least-negative real part, -delta pi^2 / L^2 at mode (0, 1)."""
        return -self.domain.delta * np.pi**2 / self.domain.L**2


def symbol(d: DomainConfig) -> SymbolTable:
    """Assemble the per-mode symbol table for the domain."""
    xi = d.xi[:, None]
    xi_o = d.xi_odd[:, None]
    lam = d.lam[None, :]
    m = 1j * (xi_o**3 + xi_o * lam) - d.delta * (xi**2 + lam)
    return SymbolTable(domain=d, m=m)


def phi(order: int, z: np.ndarray) -> np.ndarray:
    """phi_k on complex arguments, k in {1, 2, 3}."""
    if order not in (1, 2, 3):
        raise ValueError("phi order must be 1, 2 or 3")
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _SERIES_RADIUS
    zs = z[small]
    acc = np.full_like(zs, 1.0 / _FACT[_SERIES_TERMS + order])
    for n in range(_SERIES_TERMS - 1, -1, -1):
        acc = acc * zs + 1.0 / _FACT[n + order]
    out[small] = acc
    zb = z[~small]
    e = np.exp(zb)
    p1 = (e - 1.0) / zb
    if order == 1:
        out[~small] = p1
    else:
        p2 = (p1 - 1.0) / zb
        out[~small] = p2 if order == 2 else (p2 - 0.5) / zb
    return out


def apply_semigroup(u: SpectralField, t: float, S: SymbolTable) -> SpectralField:
    """Exact linear evolution over time t >= 0."""
    if t < 0:
        raise ValueError("apply_semigroup requires t >= 0")
    return SpectralField(u.coeffs * np.exp(S.m * t))


def duhamel_solve(
    u0: SpectralField,
    forcing,
    T: float,
    dt: float,
    S: SymbolTable,
    snapshot_stride: int = 1,
) -> Trajectory:
    """Forced linear solve by exponential quadrature.

    Args:
        u0: initial amplitudes.
        forcing: None, or a callable t -> complex (nx/2 + 1, ny) array of
            forcing amplitudes, the half spectrum of a real field; it is
            sampled once at each step boundary and each step midpoint.
        T: final time; dt must divide it.
        dt: step size.
        S: symbol table (carries the domain).
        snapshot_stride: store every k-th boundary snapshot (0 keeps only
            the first and last).

    Returns a Trajectory whose dense scalar series feed
    audit_linear_identity.
    """
    d = S.domain
    rec = _Recorder(d, T, dt, snapshot_stride)
    z = S.m * dt
    E = np.exp(z)
    p1, p2, p3 = phi(1, z), phi(2, z), phi(3, z)
    w_left = dt * (p1 - 3.0 * p2 + 4.0 * p3)
    w_mid = dt * (4.0 * p2 - 8.0 * p3)
    w_right = dt * (4.0 * p3 - p2)

    def sample(t: float) -> np.ndarray:
        f = np.asarray(forcing(t), dtype=complex)
        _check_spectral(f, d, "forcing sample")
        if not np.all(np.isfinite(f)):
            raise ValueError("forcing sample contains non-finite entries")
        return f

    u = np.array(u0.coeffs, dtype=complex)
    rec.boundary(0, u)
    # each boundary is sampled once: a step's right end is the next one's left end
    f_right = None if forcing is None else sample(rec.times[0])
    for i in range(rec.n_steps):
        if forcing is None:
            u_next = E * u
        else:
            f_left, f_mid, f_right = (f_right, sample(rec.times[i] + 0.5 * dt),
                                      sample(rec.times[i + 1]))
            u_next = E * u + w_left * f_left + w_mid * f_mid + w_right * f_right
        rec.interval(i, 0.5 * (u + u_next))
        u = u_next
        rec.boundary(i + 1, u)
    return rec.trajectory("duhamel", rec.n_steps + 1)


def _forcing_pairings(traj: Trajectory, which: str, f0, f1, f2):
    """Midpoint-rule forcing work integral, on the stored snapshot grid.

    Returns (snapshot_indices, cumulative_integral) with one cumulative
    value per stored snapshot.  Requires at least two snapshots when any
    forcing component is present.
    """
    d = traj.domain
    mults = mode_multipliers(d)
    idx = traj.snapshot_indices
    if len(idx) < 2:
        raise ValueError("trajectory lacks snapshots needed for the forcing quadrature")
    xi = d.xi_odd[:, None]
    ky = d.ky[None, :]
    out = np.zeros(len(idx))
    acc = 0.0
    for k in range(len(idx) - 1):
        ia, ib = idx[k], idx[k + 1]
        ta, tb = traj.times[ia], traj.times[ib]
        tm = 0.5 * (ta + tb)
        uavg = 0.5 * (traj.snapshots[k] + traj.snapshots[k + 1])
        p = 0.0
        if which == "mass":
            if f0 is not None:
                p += mode_inner(uavg, np.asarray(f0(tm), dtype=complex), d)
            if f1 is not None:
                ux = 1j * xi * uavg
                p -= mode_inner(ux, np.asarray(f1(tm), dtype=complex), d)
            if f2 is not None:
                # u_y lives in the cosine basis; the pairing is diagonal there
                uy = ky * uavg
                p -= mode_inner(uy, np.asarray(f2(tm), dtype=complex), d)
        elif which == "grad":
            if f0 is not None:
                p += mode_inner(mults.d1 * uavg, np.asarray(f0(tm), dtype=complex), d)
            if f1 is not None:
                p += mode_inner(mults.d1 * uavg, np.asarray(f1(tm), dtype=complex), d)
        else:  # hess
            if f0 is not None:
                p += mode_inner(mults.e2 * uavg, np.asarray(f0(tm), dtype=complex), d)
        acc += 2.0 * p * (tb - ta)
        out[k + 1] = acc
    return idx, out


def audit_linear_identity(
    traj: Trajectory,
    which: str,
    f0=None,
    f1=None,
    f2=None,
) -> EnergyReport:
    """Residual of one linear energy balance along a trajectory.

    which selects the balance:
      "mass": d/dt ||u||^2 + 2 delta (||u_x||^2 + ||u_y||^2)
              = 2 integral (f0 u - f1 u_x - f2 u_y), forcing split
              f = f0 + d/dx f1 + d/dy f2; f0 and f1 are sine-basis
              amplitudes while f2 is given in the cosine basis (where
              u_y lives, making the pairing diagonal);
      "grad": first-derivative balance with dissipation
              integral u_xx^2 + 2 u_xy^2 + u_yy^2, forcing split f = f0 + f1
              paired as 2 integral (f0_x u_x + f0_y u_y - f1 (u_xx + u_yy));
      "hess": second-derivative balance with third-order dissipation and
              undecomposed forcing f0 paired against the pure second
              derivatives.

    Time integrals use the midpoint rule on averaged states.  Forcing
    components are optional callables t -> spectral array; with all of
    them None the trajectory is treated as homogeneous.
    """
    if which not in ("mass", "grad", "hess"):
        raise ValueError(f"unknown linear identity {which!r}")
    if traj.n_steps < 1:
        raise ValueError("trajectory must contain at least one step")

    lhs = traj.balance(("mass", "grad", "hess").index(which))
    if f0 is None and f1 is None and f2 is None:
        times = traj.times
        residual = np.abs(lhs)
    else:
        idx, work = _forcing_pairings(traj, which, f0, f1, f2)
        times = traj.times[idx]
        residual = np.abs(lhs[idx] - work)
    return EnergyReport(
        identity=f"linear_{which}",
        times=times,
        residual=residual,
        max_residual=float(np.max(residual)),
        dt=traj.dt,
    )
