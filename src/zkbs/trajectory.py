"""Trajectory container shared by the linear and nonlinear integrators.

A Trajectory stores scalar diagnostics densely (one value per step
boundary, plus one value per step interval for the quantities that feed
the energy audits) and spectral snapshots at a caller-chosen stride.
The audit quadrature works from the dense scalar series, so memory does
not grow with snapshot resolution.

Midpoint-interval series (mid_*) hold the audit integrands evaluated on
the averaged state (u_n + u_{n+1}) / 2, which is how the midpoint time
rule is realized on a trajectory that is only known at step boundaries.

Both integrators (duhamel_solve and simulate) fill their Trajectory
through the one private _Recorder below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from math import inf, isfinite, log, sqrt

import numpy as np

from .domain import DomainConfig, mode_multipliers

__all__ = ["Trajectory", "EnergyReport", "attach_refinement_order"]


@dataclass(eq=False)
class Trajectory:
    domain: DomainConfig
    scheme: str
    times: np.ndarray                 # (n+1,) step boundaries, strictly increasing
    l2: np.ndarray                    # (n+1,) L2 norm
    h1: np.ndarray                    # (n+1,) full H1 norm
    h2: np.ndarray                    # (n+1,) full H2 norm
    diss_l2: np.ndarray               # (n+1,) integral u_x^2 + u_y^2
    diss_h1: np.ndarray               # (n+1,) integral u_xx^2 + 2 u_xy^2 + u_yy^2
    e2_mixed: np.ndarray              # (n+1,) integral u_xx^2 + u_xy^2 + u_yy^2
    nonlin_flux: np.ndarray           # (n+1,) integral g_h(u) u_x
    step_iters: np.ndarray            # (n+1,) iterations spent entering this boundary
    mid_diss0: np.ndarray             # (n,) integral |Du|^2 at averaged states
    mid_diss1: np.ndarray             # (n,) integral u_xx^2 + 2 u_xy^2 + u_yy^2, averaged states
    mid_diss2: np.ndarray             # (n,) third-order dissipation integral, averaged states
    snapshot_indices: np.ndarray      # indices into times
    snapshots: list                   # spectral coefficient arrays, complex (nx/2 + 1, ny)
    cube: np.ndarray | None = None            # (n+1,) integral u^3 (nonlinear runs)
    mid_rhs_h1: np.ndarray | None = None      # (n,) 2 integral u u_x (u_xx + u_yy)
    mid_rhs_h2: np.ndarray | None = None      # (n,) second-order forcing pairing
    mid_u2lap: np.ndarray | None = None       # (n,) integral u^2 (u_xx + u_yy)
    blowup_time: float | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def lyapunov_h1(self) -> np.ndarray:
        """integral |Du|^2 + u^2 at step boundaries."""
        return self.diss_l2 + self.l2**2

    @property
    def lyapunov_h2(self) -> np.ndarray:
        """integral |D2 u|^2 + |Du|^2 + u^2 at step boundaries."""
        return self.e2_mixed + self.diss_l2 + self.l2**2

    def balance(self, k: int) -> np.ndarray:
        """Left side E_k - E_k(0) + 2 delta integral D_k of the order-k energy identity.

        E_0, E_1, E_2 are ||u||^2, diss_l2 and e2_mixed, and D_k is mid_diss<k>
        integrated by the midpoint rule; the identity's right side is its work term.
        """
        if k not in (0, 1, 2):
            raise ValueError(f"energy order k must be 0, 1 or 2, got {k!r}")
        energy = (self.l2**2, self.diss_l2, self.e2_mixed)[k]
        lhs = energy - energy[0]
        lhs += 2.0 * self.domain.delta * self.cumulative_midpoint(
            (self.mid_diss0, self.mid_diss1, self.mid_diss2)[k])
        return lhs

    def cumulative_midpoint(self, mid_values: np.ndarray) -> np.ndarray:
        """Running midpoint-rule integral of a per-interval series.

        Entry i approximates the integral from times[0] to times[i].
        """
        out = np.empty(len(mid_values) + 1)
        out[0] = 0.0
        np.cumsum(mid_values * self.dt, out=out[1:])
        return out


@dataclass
class EnergyReport:
    """Residual history of one energy balance audit."""

    identity: str
    times: np.ndarray
    residual: np.ndarray
    max_residual: float
    dt: float
    order: float | None = None          # filled by attach_refinement_order
    dt_pair: tuple[float, float] | None = None


def attach_refinement_order(coarse: EnergyReport, fine: EnergyReport) -> EnergyReport:
    """Annotate the fine report with the observed refinement order.

    Both reports must audit the same identity; the order is
    log(residual ratio) / log(dt ratio), or None when either residual is
    exactly zero (zero data, say), where no order can be observed.
    """
    if coarse.identity != fine.identity:
        raise ValueError("refinement pair must audit the same identity")
    if not (coarse.dt > fine.dt > 0):
        raise ValueError("expected coarse.dt > fine.dt > 0")
    order = None
    if coarse.max_residual > 0.0 and fine.max_residual > 0.0:
        order = log(coarse.max_residual / fine.max_residual) / log(coarse.dt / fine.dt)
    return replace(fine, order=order, dt_pair=(coarse.dt, fine.dt))


def _resolve_steps(T: float, dt: float) -> int:
    """Number of steps of size dt in [0, T]; dt must divide T."""
    if not (dt > 0 and isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if not (T > 0 and isfinite(T)):
        raise ValueError("final time must be positive and finite")
    if not T / dt < 2**53:
        raise ValueError("final time / dt must be below 2**53 steps")
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("dt must divide the final time")
    # a _Recorder keeps at most 16 float64 series, 10 per boundary and 6 per step
    need = 16 * 8 * (n + 1)
    if need > _memory_bytes():
        raise ValueError(f"{n} steps cannot be recorded: their series need "
                         f"{need / 2**30:.3g} GiB, more than the machine's memory")
    return n


def _memory_bytes() -> float:
    """Physical memory of the machine, or inf where the OS does not report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return inf


class _Recorder:
    """Fills one Trajectory, boundary by boundary and step by step.

    It owns the step count, the six boundary-norm columns, the mid_diss
    series, the snapshot stride (0 keeps the first and last boundary
    only) and the truncation of a run that blew up: trajectory() keeps
    the first `rows` boundaries and rows - 1 steps.  Callers add their
    own series, named at construction, as keyword values; nonlin_flux
    and step_iters always exist and stay zero unless written.  Built-in
    series sum |c|^2 against per-mode weights that include the Parseval row weight.
    """

    def __init__(self, d: DomainConfig, T: float, dt: float, snapshot_stride: int,
                 boundary_series: tuple = (), interval_series: tuple = ()):
        n = _resolve_steps(T, dt)
        self.domain, self.n_steps, self.stride = d, n, snapshot_stride
        self.times = dt * np.arange(n + 1)
        self.mults = m = mode_multipliers(d)
        W = d.parseval_weight[:, None] * np.ones(d.spectral_shape)
        wh1 = 1.0 + m.d1
        # (series, modes) matrices, so that each record makes one contraction
        self.stacked = np.stack([W, W * wh1, W * wh1**2, W * m.d1, W * m.d2,
                                 W * m.e2]).reshape(6, -1)
        self.mid_stacked = np.stack([W * m.d1, W * m.d2, W * m.d3]).reshape(3, -1)
        self.weights = dict(zip(("l2", "h1", "h2", "diss_l2", "diss_h1", "e2_mixed"),
                                self.stacked))
        self.mid_weights = dict(zip(("mid_diss0", "mid_diss1", "mid_diss2"), self.mid_stacked))
        self.cols = {name: np.zeros(n + 1) for name in
                     (*self.weights, "nonlin_flux", *boundary_series)}
        self.cols["step_iters"] = np.zeros(n + 1, dtype=int)
        self.mid = {name: np.zeros(n) for name in (*self.mid_weights, *interval_series)}
        self.snapshot_indices, self.snapshots = [], []

    def boundary(self, i: int, coeffs: np.ndarray, **values) -> None:
        sums = self.stacked @ (coeffs.real**2 + coeffs.imag**2).ravel()
        for name, value in zip(self.weights, sums):
            self.cols[name][i] = sqrt(value) if name in ("l2", "h1", "h2") else value
        self.put(i, **values)
        if (self.stride > 0 and i % self.stride == 0) or i in (0, self.n_steps):
            self.snapshot_indices.append(i)
            self.snapshots.append(coeffs.copy())

    def put(self, i: int, **values) -> None:
        for name, value in values.items():
            self.cols[name][i] = value

    def interval(self, i: int, uavg: np.ndarray, **values) -> None:
        sums = self.mid_stacked @ (uavg.real**2 + uavg.imag**2).ravel()
        for name, value in (*zip(self.mid_weights, sums), *values.items()):
            self.mid[name][i] = value

    def trajectory(self, scheme: str, rows: int,
                   blowup_time: float | None = None) -> Trajectory:
        indices = np.array(self.snapshot_indices, dtype=int)
        kept = int(np.sum(indices < rows))  # boundaries arrive in order
        return Trajectory(
            domain=self.domain, scheme=scheme, times=self.times[:rows],
            snapshot_indices=indices[:kept], snapshots=self.snapshots[:kept],
            blowup_time=blowup_time,
            **{name: col[:rows] for name, col in self.cols.items()},
            **{name: col[: max(rows - 1, 0)] for name, col in self.mid.items()},
        )
