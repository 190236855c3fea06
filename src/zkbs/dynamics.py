"""Nonlinear dynamics: regularized flux, pseudospectral stepping, Picard.

The nonlinear term of u_t + u_xxx + u_xyy + u u_x - delta (u_xx + u_yy) = 0
is treated pseudospectrally as -d/dx g_h(u): transform to the grid, apply
the flux pointwise, transform back, multiply by -i xi, and zero the upper
third of both mode ranges so quadratic products cannot alias onto
retained modes.

g_h is the regularized flux

    g_h(u) = integral_0^u [ theta eta(2 - h |theta|)
                            + (2 sign(theta) / h) eta(h |theta| - 1) ] d theta,

built from the smooth ramp eta below.  It equals u^2/2 exactly for
|u| <= 1/h, grows linearly with slope 2/h for |u| >= 2/h, and is glued
smoothly in between; both bounds |g_h'| <= 2/h and |g_h'| <= 2|u| hold
everywhere.  The unregularized flux u^2/2 is selected with h = None.

The vectorized flux RegularizedFlux.__call__ evaluates the band part from
a degree-70 Chebyshev interpolant of the h-independent integral
R(s) = integral_0^s (1 - sigma) eta(sigma) d sigma, s = h|u| - 1 in [0, 1],
built once at import; it matches the adaptive-quadrature oracle g_h to
about 2e-14 * max(1, |g_h|) (measured at h = 1, 0.5, 0.1 and 0.01).

One table build (_etd2_tables) and one step (_advance) serve both
per-step schemes: etd2, the exponential predictor-corrector of Cox &
Matthews (2002), is one corrector pass from the exponential Euler
predictor, and picard repeats that pass until it converges.
picard_solve uses the same tables for the whole-window iteration
v -> S(t) u0 + Duhamel[-d/dx g_h(v)] that mirrors the contraction
argument behind local existence, reporting the successive-difference
ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import (
    DomainConfig,
    GridField,
    SpectralField,
    _band_to_grid,
    _band_to_spectral,
    dealias_mask,
    grid_quadrature,
    mode_inner,
    parseval_norm_sq,
    to_spectral,
)
from .semigroup import SymbolTable, phi, symbol
from .trajectory import Trajectory, _Recorder

__all__ = [
    "eta",
    "RegularizedFlux",
    "g_h",
    "StepperConfig",
    "BlowupError",
    "ContractionError",
    "PicardDiagnostics",
    "nonlinear_term",
    "etd2_step",
    "picard_solve",
    "simulate",
]

BLOWUP_GUARD = 1e6


class BlowupError(RuntimeError):
    """Raised when a run leaves the trust region; carries the time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t = {t:.6g}")
        self.t = t


class ContractionError(RuntimeError):
    pass


def eta(x):
    """Smooth ramp: 0 for x <= 0, 1 for x >= 1, C-infinity glue between.

    Built from s(x) = exp(-1/x) as s(x) / (s(x) + s(1-x)), which makes
    eta(x) + eta(1 - x) = 1 hold to rounding.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    lo = arr <= 0.0
    hi = arr >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    xm = arr[mid]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    out[mid] = a / (a + b)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


# On the band 1/h < |u| < 2/h the substitution theta = (1 + sigma) / h and
# eta(sigma) + eta(1 - sigma) = 1 reduce the flux to
#     g_h(u) = (1/2 + J(s)) / h^2,  s = h |u| - 1 in [0, 1],
#     J(s) = s + s^2/2 + R(s),  R(s) = integral_0^s (1 - sigma) eta(sigma) d sigma.
# R depends on s alone, so it is tabulated once at import as a Chebyshev
# interpolant of its Gauss-Legendre values (Trefethen, Approximation Theory
# and Approximation Practice, SIAM 2013).  At degree 70 the trailing
# coefficients are at rounding (~7e-15) and R is within 1.2e-14 of adaptive
# quadrature; higher degrees fit sample rounding and worsen R' near s = 1.


def _remainder_gauss(s):
    """R(s) by a 96-node Gauss-Legendre rule on [0, s]; samples the table."""
    nodes, weights = np.polynomial.legendre.leggauss(96)
    half = 0.5 * np.asarray(s, dtype=float)[:, None]
    sigma = half * (nodes + 1.0)
    return half[:, 0] * np.sum((1.0 - sigma) * eta(sigma) * weights, axis=-1)


_REMAINDER = np.polynomial.Chebyshev.interpolate(
    _remainder_gauss, 70, domain=[0.0, 1.0])
# subtracting the interpolant's own value at 0 makes R(0) = 0 exactly, so
# g_h has no jump at |u| = 1/h
_REMAINDER_AT_0 = _REMAINDER(np.zeros(1))[0]


def _band_integral(s):
    """J(s) for s in [0, 1] from the tabulated remainder."""
    return s + 0.5 * s * s + (_REMAINDER(s) - _REMAINDER_AT_0)


# J(1) from the same interpolant, so g_h has no jump at |u| = 2/h either
_BAND_AT_1 = _band_integral(np.ones(1))[0]


@dataclass(frozen=True)
class RegularizedFlux:
    """Flux g_h with cutoff scale h in (0, 1], or unregularized when h is None."""

    h: float | None = None

    def __post_init__(self):
        if self.h is not None and not (0.0 < self.h <= 1.0):
            raise ValueError("cutoff scale h must lie in (0, 1]")

    @property
    def regularized(self) -> bool:
        return self.h is not None

    def __call__(self, u):
        """Pointwise flux values; vectorized over arrays."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        if self.h is None:
            out = 0.5 * arr**2
            return float(out) if scalar else out
        h = self.h
        arr = np.atleast_1d(arr)
        a = np.abs(arr)
        out = 0.5 * arr**2
        band = (a > 1.0 / h) & (a < 2.0 / h)
        if np.any(band):
            out[band] = (0.5 + _band_integral(h * a[band] - 1.0)) / h**2
        tail = a >= 2.0 / h
        if np.any(tail):
            out[tail] = (0.5 + _BAND_AT_1) / h**2 + (2.0 / h) * (a[tail] - 2.0 / h)
        return float(out[0]) if scalar else out

    def prime(self, u):
        """Pointwise derivative g_h'."""
        arr = np.asarray(u, dtype=float)
        if self.h is None:
            return float(arr) if arr.ndim == 0 else arr.copy()
        h = self.h
        a = np.abs(arr)
        out = arr * eta(2.0 - h * a) + (2.0 / h) * np.sign(arr) * eta(h * a - 1.0)
        return float(out) if arr.ndim == 0 else out


def g_h(u: float, flux: RegularizedFlux, quad_tol: float = 1e-12) -> float:
    """Scalar flux value with adaptive quadrature on the transition band.

    Closed forms cover |u| <= 1/h (parabola) and |u| >= 2/h (linear tail);
    the glue region integrates the defining integrand with scipy's
    adaptive rule at absolute tolerance quad_tol.  This is the reference
    for the vectorized RegularizedFlux.__call__, which evaluates the band
    from the tabulated Chebyshev interpolant of R(s) and agrees with this
    to within 1e-12 * max(1, |g_h|) (property-tested for h in [1e-3, 1]).
    """
    if flux.h is None:
        return 0.5 * float(u) ** 2
    h = flux.h
    a = abs(float(u))
    if a <= 1.0 / h:
        return 0.5 * float(u) ** 2
    from scipy.integrate import quad  # ~0.2 s to import; only this oracle needs it

    val = 0.5 / h**2
    hi = min(a, 2.0 / h)
    band, _ = quad(
        lambda th: th * eta(2.0 - h * th) + (2.0 / h) * eta(h * th - 1.0),
        1.0 / h,
        hi,
        epsabs=quad_tol,
        epsrel=1e-13,
        limit=200,
    )
    val += band
    if a > 2.0 / h:
        val += (2.0 / h) * (a - 2.0 / h)
    return val


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping options shared by the production schemes."""

    scheme: str = "etd2"          # "etd2" | "picard"
    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self):
        if self.scheme not in ("etd2", "picard"):
            raise ValueError("scheme must be 'etd2' or 'picard'")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.picard_tol > 0) or self.picard_max_iter < 1:
            raise ValueError("picard_tol must be > 0 and picard_max_iter >= 1")


@dataclass
class PicardDiagnostics:
    """Successive-difference history of a fixed-point solve."""

    iterations: int
    diffs: np.ndarray       # max-over-window L2 distance between iterates
    ratios: np.ndarray      # diffs[k] / diffs[k-1]
    n_steps: int
    dt: float
    converged: bool


def _nonlinear_core(coeffs: np.ndarray, flux: RegularizedFlux, d: DomainConfig,
                    t: float = 0.0):
    """(grid values, N) of the dealiased part of coeffs, by the band transforms."""
    # the finiteness test on g is the evaluation's one guard; it raises
    # BlowupError on any overflow before it, so the overflow stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _band_to_grid(coeffs, d)
        g = flux(vals)
    if not np.all(np.isfinite(g)):
        raise BlowupError("non-finite grid values in nonlinear term", t)
    return vals, -1j * d.xi_odd[:, None] * _band_to_spectral(g, d)


def nonlinear_term(u: SpectralField, flux: RegularizedFlux, d: DomainConfig) -> SpectralField:
    """-d/dx g_h of the dealiased part of u, evaluated pseudospectrally and dealiased."""
    _, n = _nonlinear_core(np.asarray(u.coeffs, dtype=complex), flux, d)
    return SpectralField(n)


class _ETD2Tables(NamedTuple):
    """exp(m dt), dt phi_1(m dt), dt phi_2(m dt) and the dealias mask."""

    E: np.ndarray
    hp1: np.ndarray
    hp2: np.ndarray
    mask: np.ndarray

    def predict(self, u: np.ndarray, n0: np.ndarray) -> np.ndarray:
        """Exponential Euler: E u + dt phi_1 n0."""
        return self.E * u + self.hp1 * n0

    def correct(self, a: np.ndarray, n0: np.ndarray, n1: np.ndarray) -> np.ndarray:
        """ETD2 corrector a + dt phi_2 (n1 - n0), a the predictor (Cox & Matthews 2002)."""
        return a + self.hp2 * (n1 - n0)


def _etd2_tables(S: SymbolTable, dt: float) -> _ETD2Tables:
    z = S.m * dt
    return _ETD2Tables(np.exp(z), dt * phi(1, z), dt * phi(2, z), dealias_mask(S.domain))


def _advance(u: np.ndarray, n0: np.ndarray, tab: _ETD2Tables, scheme: str,
             cfg: StepperConfig, flux: RegularizedFlux, d: DomainConfig, t: float):
    """One step from u, given n0 = N(u); returns (new state, iterations).

    etd2 makes one corrector pass from the exponential Euler predictor; picard
    repeats it until iterates differ by < cfg.picard_tol.  t (the new state's
    time) is stamped on a BlowupError or ContractionError.
    """
    a = tab.predict(u, n0)
    u_next, iters = a, 0
    while True:
        _, n1 = _nonlinear_core(u_next, flux, d, t=t)
        cand = tab.correct(a, n0, n1)
        iters += 1
        if scheme == "etd2":
            return cand, iters
        change = math.sqrt(parseval_norm_sq(cand - u_next, d))
        u_next = cand
        if change < cfg.picard_tol:
            return u_next, iters
        if iters >= cfg.picard_max_iter:
            raise ContractionError(
                "contraction failed, reduce t0 (per-step fixed point "
                f"stalled at {change:.3e}, t = {t:.6g})"
            )


def etd2_step(u: SpectralField, cfg: StepperConfig, flux: RegularizedFlux,
              S: SymbolTable) -> SpectralField:
    """One exponential predictor-corrector step of size cfg.dt from the dealiased part of u."""
    d = S.domain
    tab = _etd2_tables(S, cfg.dt)
    u0 = np.where(tab.mask, np.asarray(u.coeffs, dtype=complex), 0.0)
    _, n0 = _nonlinear_core(u0, flux, d)
    u1, _ = _advance(u0, n0, tab, "etd2", cfg, flux, d, t=0.0)
    return SpectralField(u1)


@np.errstate(over="ignore", invalid="ignore")  # its guards report every non-finite value
def picard_solve(u0: SpectralField, t0: float, cfg: StepperConfig,
                 flux: RegularizedFlux, S: SymbolTable):
    """Whole-window fixed point of v -> semigroup + Duhamel[nonlinear(v)].

    The window [0, t0] is cut into steps of cfg.dt (rounded to divide t0)
    and the iterate is stored at every boundary.  Each sweep rebuilds the
    trajectory from the current iterate's nonlinear term under the
    endpoint-pair exponential quadrature, so the fixed point is a
    second-order discretization of the flow.

    Returns (field at t0, PicardDiagnostics).  Raises ContractionError
    when the successive differences fail to drop below cfg.picard_tol
    within cfg.picard_max_iter sweeps, and BlowupError when an iterate's
    grid values are not finite.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    d = S.domain
    n = max(1, round(t0 / cfg.dt))
    dt = t0 / n
    tab = _etd2_tables(S, dt)

    base = np.where(tab.mask, np.asarray(u0.coeffs, dtype=complex), 0.0)

    # sweep 0: pure semigroup transport of the data
    v = np.empty((n + 1,) + d.spectral_shape, dtype=complex)
    v[0] = base
    for i in range(n):
        v[i + 1] = tab.E * v[i]

    # every iterate starts from base, so N(v[0]) is the same in every sweep
    nl = np.empty_like(v)
    _, nl[0] = _nonlinear_core(base, flux, d)
    diffs: list[float] = []
    converged = False
    for _ in range(cfg.picard_max_iter):
        for i in range(1, n + 1):
            _, nl[i] = _nonlinear_core(v[i], flux, d, t=i * dt)
        w = np.empty_like(v)
        w[0] = base
        for i in range(n):
            w[i + 1] = tab.correct(tab.predict(w[i], nl[i]), nl[i], nl[i + 1])
        diff = math.sqrt(float(np.max(np.sum(np.abs(w - v) ** 2, axis=2) @ d.parseval_weight)))
        diffs.append(diff)
        v = w
        if diff < cfg.picard_tol:
            converged = True
            break
    diffs_arr = np.array(diffs)
    ratios = diffs_arr[1:] / np.where(diffs_arr[:-1] > 0.0, diffs_arr[:-1], np.inf)
    diag = PicardDiagnostics(
        iterations=len(diffs),
        diffs=diffs_arr,
        ratios=ratios,
        n_steps=n,
        dt=dt,
        converged=converged,
    )
    if not converged:
        raise ContractionError(
            "contraction failed, reduce t0 (successive differences stalled at "
            f"{diffs_arr[-1]:.3e} after {len(diffs)} sweeps)"
        )
    return SpectralField(v[n]), diag


def _flux_moments(coeffs: np.ndarray, vals: np.ndarray, n: np.ndarray,
                  d: DomainConfig, cube: bool) -> dict:
    """Boundary series of simulate: integral g_h(u) u_x as the pairing of u with n = N(u),
    exact by discrete Parseval for dealiased u and every h, and integral u^3 if cube."""
    out = {"nonlin_flux": mode_inner(coeffs, n, d)}
    if cube:
        out["cube"] = grid_quadrature(vals**3, d)
    return out


@np.errstate(over="ignore", invalid="ignore")  # its guards report every non-finite value
def simulate(u0: GridField, T: float, cfg: StepperConfig, flux: RegularizedFlux,
             d: DomainConfig, snapshot_stride: int = 0,
             guard_factor: float = BLOWUP_GUARD, audit_series: bool = True) -> Trajectory:
    """Integrate the full equation and record diagnostics every step.

    Every run records, per boundary, the L2/H1/H2 norms, the two
    dissipation integrals, the mixed second-derivative energy, the
    nonlinear flux integral g_h(u) u_x and iteration counts, and per
    interval the dissipation integrals mid_diss0/1/2 on the averaged
    state.  With audit_series (the default) it also records the series
    that only the energy audits read: integral u^3 per boundary and, on
    the averaged state (midpoint rule), the nonlinear work mid_rhs_h1,
    mid_rhs_h2 and integral u^2 (u_xx + u_yy), at the cost of a third
    nonlinear evaluation and one more band synthesis per step.  With
    audit_series=False those four Trajectory fields are None and every
    other field is bit-identical.  Snapshots are stored every
    snapshot_stride steps (0 keeps only the endpoints).

    On blowup (a non-finite initial L2 norm, an L2 norm above guard_factor
    times its initial value, or non-finite grid values) the trajectory is
    truncated and its blowup_time is set.  A full run evaluates the flux
    at the averaged state too, so it can also stop at t + dt/2 when only
    that state's flux is non-finite; a run with audit_series=False never
    evaluates it and may stop later.
    """
    dt = cfg.dt
    rec = _Recorder(d, T, dt, snapshot_stride,
                    boundary_series=("cube",) if audit_series else (),
                    interval_series=(("mid_rhs_h1", "mid_rhs_h2", "mid_u2lap")
                                     if audit_series else ()))
    tab = _etd2_tables(symbol(d), dt)
    lap = -rec.mults.d1  # spectral Laplacian multiplier
    rhs_weights = np.stack([rec.weights["diss_l2"], rec.weights["e2_mixed"]])

    u = np.where(tab.mask, to_spectral(u0, d).coeffs, 0.0)

    blowup_time = None
    rows = 0  # boundaries whose series are complete
    try:
        rec.boundary(0, u)
        if not math.isfinite(rec.cols["l2"][0]):
            raise BlowupError("non-finite initial L2 norm", 0.0)
        guard = guard_factor * rec.cols["l2"][0]
        vals, n0 = _nonlinear_core(u, flux, d, t=0.0)
        rec.put(0, **_flux_moments(u, vals, n0, d, audit_series))
        rows = 1
        for i in range(rec.n_steps):
            t = rec.times[i]
            u_next, iters = _advance(u, n0, tab, cfg.scheme, cfg, flux, d, t + dt)
            rec.boundary(i + 1, u_next, step_iters=iters)
            norm_next = rec.cols["l2"][i + 1]
            if not math.isfinite(norm_next) or norm_next > guard:
                raise BlowupError("L2 norm left the trust region", t + dt)

            uavg = 0.5 * (u + u_next)
            if audit_series:
                vals_avg, n_avg = _nonlinear_core(uavg, flux, d, t=t + 0.5 * dt)
                pair = (np.conj(uavg) * n_avg).real
                rhs_h1, rhs_h2 = 2.0 * (rhs_weights @ pair.ravel())
                lap_avg = _band_to_grid(lap * uavg, d)
                rec.interval(i, uavg, mid_rhs_h1=rhs_h1, mid_rhs_h2=rhs_h2,
                             mid_u2lap=grid_quadrature(vals_avg**2 * lap_avg, d))
            else:
                rec.interval(i, uavg)

            u = u_next
            vals, n0 = _nonlinear_core(u, flux, d, t=rec.times[i + 1])
            rec.put(i + 1, **_flux_moments(u, vals, n0, d, audit_series))
            rows = i + 2
    except BlowupError as exc:
        blowup_time = exc.t
    return rec.trajectory(cfg.scheme, rows, blowup_time)
