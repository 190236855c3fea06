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
a piecewise Chebyshev table of the h-independent integral
R(s) = integral_0^s (1 - sigma) eta(sigma) d sigma, s = h|u| - 1 in [0, 1],
built by the first cutoff flux, within 1.2e-15 of R, so its agreement with the
adaptive-quadrature oracle g_h is bounded by the oracle's (see g_h).

Time stepping has one table build (_etd2_tables) and one step
(_advance): the exponential predictor-corrector ETD2 of Cox & Matthews
(2002), one corrector pass from the exponential Euler predictor, which
simulate takes every step.  picard_windows uses the same tables for the
whole-window iteration v -> S(t) u0 + Duhamel[-d/dx g_h(v)] that mirrors
the contraction argument behind local existence, reporting the
successive-difference ratios; windows that share a step share one set
of sweeps.
"""

from __future__ import annotations

import functools
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
    _grid_work,
    _GridWork,
    _kept_band,
    _pad_band,
    mode_multipliers,
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
    "PicardDiagnostics",
    "picard_windows",
    "simulate",
]

# simulate stops a run whose L2 norm exceeds this multiple of its initial value
BLOWUP_GUARD = 1e6


class BlowupError(RuntimeError):
    """Raised when a run leaves the trust region; carries the time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t = {t:.6g}")
        self.t = t


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
# R depends on s alone, so it is tabulated once, by the first cutoff flux, as a
# piecewise Chebyshev interpolant (Trefethen, Approximation Theory and
# Approximation Practice, SIAM 2013): 24 pieces of degree 11, each through
# Gauss-Legendre values at its Chebyshev-Lobatto points, all fitted by one DCT-I
# (a product with the (degree + 1)^2 cosine matrix).  Pieces
# share their seam samples, so R is continuous there to rounding, and the
# table is within 1.2e-15 of the Gauss rule (one degree-70 interpolant: 1.1e-14).


def _remainder_gauss(s, nodes, weights):
    """R(s) by a Gauss-Legendre rule on [0, s]; samples the table."""
    half = 0.5 * np.asarray(s, dtype=float)[..., None]
    sigma = half * (nodes + 1.0)
    return half[..., 0] * np.sum((1.0 - sigma) * eta(sigma) * weights, axis=-1)


_PIECES, _DEGREE = 24, 11
_LOBATTO = np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)
# DCT-I matrix w_n cos(pi k n / degree), w = 1 at the ends and 2 inside; k n
# is reduced modulo its period 2 degree (exactly: both are integers)
_DCT1 = np.cos(np.pi * (np.outer(np.arange(_DEGREE + 1), np.arange(_DEGREE + 1))
                        % (2 * _DEGREE)) / _DEGREE)
_DCT1[:, 1:-1] *= 2.0


def _remainder(s, coeffs):
    """R(s) for s in [0, 1] from the piecewise table coeffs by Clenshaw's recurrence."""
    t = _PIECES * s
    # truncation is floor for t >= 0 and keeps an s rounded below 0 on piece 0
    piece = np.minimum(t.astype(np.intp), _PIECES - 1)
    x = 2.0 * (t - piece) - 1.0
    x2 = 2.0 * x
    b1, b2 = coeffs[_DEGREE][piece], 0.0
    for row in coeffs[_DEGREE - 1:0:-1]:
        b1, b2 = row[piece] + x2 * b1 - b2, b1
    return coeffs[0][piece] + x * b1 - b2


def _band_integral(s, coeffs, at_0):
    """J(s) for s in [0, 1] from the piecewise table of R and its value at 0."""
    return s + 0.5 * s * s + (_remainder(s, coeffs) - at_0)


class _FluxTable(NamedTuple):
    coeffs: np.ndarray  # (degree + 1, pieces): row k holds every piece's T_k coefficient
    at_0: float  # the table's R(0): subtracting it makes R(0) = 0, so no jump at |u| = 1/h
    at_1: float  # J(1) from the same table, so g_h has no jump at |u| = 2/h either


@functools.cache
def _flux_table() -> _FluxTable:
    """R's table from a 96-node rule, built by a cutoff flux only (see domain's OpenBLAS note)."""
    points = (np.arange(_PIECES) + 0.5 * (_LOBATTO[:, None] + 1.0)) / _PIECES
    coeffs = _DCT1 @ _remainder_gauss(points, *np.polynomial.legendre.leggauss(96)) / _DEGREE
    coeffs[[0, -1]] *= 0.5
    at_0 = _remainder(np.zeros(1), coeffs)[0]
    return _FluxTable(coeffs, at_0, _band_integral(np.ones(1), coeffs, at_0)[0])


@dataclass(frozen=True)
class RegularizedFlux:
    """Flux g_h with cutoff scale h in (0, 1], or unregularized when h is None."""

    h: float | None = None

    def __post_init__(self):
        if self.h is not None:
            if not (0.0 < self.h <= 1.0):
                raise ValueError("cutoff scale h must lie in (0, 1]")
            _flux_table()  # built here, so that no solve pays for it

    def __call__(self, u):
        """Pointwise flux values; vectorized over arrays."""
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        # equal to 0.5 * arr**2 bit for bit, with one grid-sized allocation, not two
        out = arr * arr
        out *= 0.5
        if self.h is None:
            return float(out) if scalar else out
        h = self.h
        coeffs, at_0, at_1 = _flux_table()
        arr = np.atleast_1d(arr)
        out = np.atleast_1d(out)
        a = np.abs(arr)
        band = (a > 1.0 / h) & (a < 2.0 / h)
        if np.any(band):
            out[band] = (0.5 + _band_integral(h * a[band] - 1.0, coeffs, at_0)) / h**2
        tail = a >= 2.0 / h
        if np.any(tail):
            out[tail] = (0.5 + at_1) / h**2 + (2.0 / h) * (a[tail] - 2.0 / h)
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


def g_h(u: float, flux: RegularizedFlux) -> float:
    """Scalar flux value with adaptive quadrature on the transition band.

    Closed forms cover |u| <= 1/h (parabola) and |u| >= 2/h (linear tail);
    the glue region between the band's break points 1/h and min(|u|, 2/h)
    integrates the defining integrand g_h' (flux.prime) with scipy's
    adaptive rule at absolute and relative tolerance 1e-14.  This is the
    reference for the vectorized RegularizedFlux.__call__, which evaluates
    the band from the piecewise Chebyshev table of R(s) and agrees with
    this to within 1e-12 * max(1, |g_h|) (property-tested for h in
    [1e-3, 1]), while this oracle lies within 2.5e-15 * max(1, |g_h|) of
    the table at h = 1, 0.5, 0.1 and 1e-3.
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
    # full_output: near 1e-14 quad often reports that rounding limits its
    # error estimate, which is expected here and would otherwise warn
    val += quad(flux.prime, 1.0 / h, hi, epsabs=1e-14, epsrel=1e-14, limit=200,
                full_output=1)[0]
    if a > 2.0 / h:
        val += (2.0 / h) * (a - 2.0 / h)
    return val


@dataclass(frozen=True)
class StepperConfig:
    """The ETD2 step size, and picard_windows's tolerance and sweep limit."""

    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self):
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


def _nonlinear_core(band: np.ndarray, flux: RegularizedFlux, d: DomainConfig,
                    work: _GridWork, t: float = 0.0):
    """(G, N) of a kept-band block: G the kept-band analysis of g_h(u), N = -d/dx G.

    work holds the synthesis buffers (see _band_to_grid).
    """
    # the finiteness test on g is the evaluation's one guard; it raises
    # BlowupError on any overflow before it, so the overflow stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        g = flux(_band_to_grid(band, d, work))
    if not np.all(np.isfinite(g)):
        raise BlowupError("non-finite grid values in nonlinear term", t)
    G = _band_to_spectral(g, d)
    return G, -1j * d.xi_odd[: len(band), None] * G


class _ETD2Tables(NamedTuple):
    """exp(m dt), dt phi_1(m dt) and dt phi_2(m dt) on the kept band."""

    E: np.ndarray
    hp1: np.ndarray
    hp2: np.ndarray

    def predict(self, u: np.ndarray, n0: np.ndarray) -> np.ndarray:
        """Exponential Euler: E u + dt phi_1 n0."""
        return self.E * u + self.hp1 * n0

    def correct(self, a: np.ndarray, n0: np.ndarray, n1: np.ndarray) -> np.ndarray:
        """ETD2 corrector a + dt phi_2 (n1 - n0), a the predictor (Cox & Matthews 2002)."""
        return a + self.hp2 * (n1 - n0)


def _etd2_tables(S: SymbolTable, dt: float) -> _ETD2Tables:
    kx, ky = _kept_band(S.domain)
    z = S.m[:kx, :ky] * dt
    return _ETD2Tables(np.exp(z), dt * phi(1, z), dt * phi(2, z))


def _advance(u: np.ndarray, n0: np.ndarray, tab: _ETD2Tables, flux: RegularizedFlux,
             d: DomainConfig, t: float, work: _GridWork) -> np.ndarray:
    """One ETD2 step from the band block u, given n0 = N(u); returns the new block.

    t (the new state's time) is stamped on a BlowupError.
    """
    a = tab.predict(u, n0)
    _, n1 = _nonlinear_core(a, flux, d, work, t=t)
    return tab.correct(a, n0, n1)


def _picard_diagnostics(diffs: list[float], n: int, dt: float,
                        converged: bool) -> PicardDiagnostics:
    diffs_arr = np.array(diffs)
    ratios = diffs_arr[1:] / np.where(diffs_arr[:-1] > 0.0, diffs_arr[:-1], np.inf)
    return PicardDiagnostics(iterations=len(diffs), diffs=diffs_arr, ratios=ratios,
                             n_steps=n, dt=dt, converged=converged)


def _picard_group(base: np.ndarray, ns: list[int], dt: float, cfg: StepperConfig,
                  flux: RegularizedFlux, S: SymbolTable, work: _GridWork) -> list:
    """The windows [0, n dt], n in ns, solved by one set of sweeps over the longest.

    Returns, per window, (field or None, PicardDiagnostics) or the
    BlowupError that the window's own solve raises.
    """
    d = S.domain
    tab = _etd2_tables(S, dt)
    out: list = [None] * len(ns)

    # sweep 0: pure semigroup transport of the data
    v = np.empty((max(ns) + 1,) + base.shape, dtype=complex)
    v[0] = base
    for i in range(len(v) - 1):
        v[i + 1] = tab.E * v[i]

    # every iterate starts from base, so N(v[0]) is the same in every sweep; a
    # blowup here is every window's, at t = 0, so it propagates
    _, nl_base = _nonlinear_core(base, flux, d, work)
    live = {m: [] for m in range(len(ns))}  # each sweeping window's successive differences
    for _ in range(cfg.picard_max_iter):
        # v is overwritten row by row, each old row's N taken just before, so
        # the step reads only the old iterate's N; a window's diff is the
        # running maximum at its own last boundary
        ends = dict.fromkeys(ns[m] for m in live)
        diff_sq, n0 = 0.0, nl_base
        for i in range(max(ends)):
            try:
                _, n1 = _nonlinear_core(v[i + 1], flux, d, work, t=(i + 1) * dt)
            except BlowupError as exc:
                # each window holding boundary i + 1 stops here, as its own solve
                # would; the shorter ones have their rows rebuilt and sweep on
                for m in [m for m in live if ns[m] > i]:
                    del live[m]
                    out[m] = exc
                break
            w = tab.correct(tab.predict(v[i], n0), n0, n1)
            diff_sq = max(diff_sq, parseval_norm_sq(w - v[i + 1], d))
            v[i + 1], n0 = w, n1
            if i + 1 in ends:
                ends[i + 1] = math.sqrt(diff_sq)
        for m in list(live):
            live[m].append(ends[ns[m]])
            if live[m][-1] < cfg.picard_tol:
                out[m] = (SpectralField(_pad_band(v[ns[m]], d)),
                          _picard_diagnostics(live.pop(m), ns[m], dt, True))
        if not live:
            break
    for m, diffs in live.items():
        out[m] = None, _picard_diagnostics(diffs, ns[m], dt, False)
    return out


@np.errstate(over="ignore", invalid="ignore")  # its guards report every non-finite value
def picard_windows(u0: SpectralField, windows: tuple[float, ...], cfg: StepperConfig,
                   flux: RegularizedFlux, S: SymbolTable) -> list:
    """Whole-window fixed points of v -> semigroup + Duhamel[nonlinear(v)], one per window.

    Each window [0, t0] is cut into n steps of cfg.dt (n rounded so the
    step t0 / n divides t0), and the iterate's kept band is stored at
    every boundary, an (n + 1, kx, ky) stack, the one array that grows
    with the window.  Each sweep rebuilds the iterate in place, boundary
    by boundary, from the old iterate's nonlinear terms under the
    endpoint-pair exponential quadrature, taking each boundary's term
    just before that boundary is overwritten, so the fixed point is a
    second-order discretization of the flow.  A boundary depends on
    earlier boundaries only, so windows whose steps are equal floats
    share one set of sweeps over the longest of them: a shorter window's
    iterate is its prefix, bit for bit, and its successive difference is
    the running maximum at its own last boundary.  Such groups run in the
    order of their first window.

    Returns one (field at t0, PicardDiagnostics) per window, in order.
    A window whose successive differences stay at or above
    cfg.picard_tol for cfg.picard_max_iter sweeps has converged False
    and field None.  Raises BlowupError, with the time that window's
    own solve would meet it, for the first window whose iterate has
    non-finite grid values, and ValueError for a window t0 that is not
    positive and finite.
    """
    steps = []
    for t0 in windows:
        if not (t0 > 0 and math.isfinite(t0)):
            raise ValueError("t0 must be positive and finite")
        n = max(1, round(t0 / cfg.dt))
        steps.append((n, t0 / n))
    d = S.domain
    kx, ky = _kept_band(d)
    base = np.asarray(u0.coeffs, dtype=complex)[:kx, :ky]
    work = _grid_work(d)
    results: list = [None] * len(steps)
    for dt in dict.fromkeys(dt for _, dt in steps):
        members = [k for k, (_, step) in enumerate(steps) if step == dt]
        outcomes = _picard_group(base, [steps[k][0] for k in members], dt, cfg, flux, S, work)
        for k, outcome in zip(members, outcomes):
            results[k] = outcome
    for r in results:
        if isinstance(r, BlowupError):
            raise r
    return results


@np.errstate(over="ignore", invalid="ignore")  # its guards report every non-finite value
def simulate(u0: GridField, T: float, cfg: StepperConfig, flux: RegularizedFlux,
             d: DomainConfig, snapshot_stride: int = 0,
             audit_series: bool = True) -> Trajectory:
    """Integrate the full equation by ETD2 steps and record diagnostics every step.

    Every run records, per boundary, the L2/H1/H2 norms, the two
    dissipation integrals, the mixed second-derivative energy and the
    nonlinear flux integral g_h(u) u_x, and per interval the dissipation
    integrals mid_diss0/1/2 on the averaged state.  With audit_series
    (the default) it also records the series that only the energy audits
    read, at the cost of a third nonlinear evaluation per step: the
    nonlinear work mid_rhs_h1 and mid_rhs_h2 on the averaged state
    (midpoint rule) and, for h = None only (combined_3_23, their one
    reader, holds for u^2/2 alone), integral u^3 per boundary and
    integral u^2 (u_xx + u_yy) on the averaged state.  Every integral of
    a product is a pairing of band blocks under the Parseval weight,
    exact by discrete Parseval: g_h(u) u_x is <u, N>, and with G the band
    analysis of u^2/2 that N = -d/dx G is made from, u^3 and
    u^2 (u_xx + u_yy) are 2 <u, G> and 2 <u_xx + u_yy, G>.  With
    audit_series=False the four audit-only Trajectory fields are None and
    every other field is bit-identical.  Snapshots are stored every
    snapshot_stride steps (0 keeps only the endpoints).

    On blowup (a non-finite initial L2 norm, an L2 norm above BLOWUP_GUARD
    times its initial value, or non-finite grid values) the trajectory is
    truncated and its blowup_time is set.  A full run evaluates the flux
    at the averaged state too, so it can also stop at t + dt/2 when only
    that state's flux is non-finite; a run with audit_series=False never
    evaluates it and may stop later.
    """
    dt = cfg.dt
    kx, ky = _kept_band(d)
    u2_pairings = audit_series and flux.h is None
    rec = _Recorder(d, T, dt, snapshot_stride,
                    boundary_series=("cube",) if u2_pairings else (),
                    interval_series=(("mid_rhs_h1", "mid_rhs_h2") if audit_series else ())
                    + (("mid_u2lap",) if u2_pairings else ()), shape=(kx, ky))
    tab = _etd2_tables(symbol(d), dt)
    work = _grid_work(d)
    lap = -mode_multipliers(d).d1[:kx, :ky]  # spectral Laplacian multiplier

    def boundary_flux(i, u):
        """N(u) at boundary i, whose pairings with u give the boundary's series."""
        G, n = _nonlinear_core(u, flux, d, work, t=rec.times[i])
        rec.work(i, u, n)
        if u2_pairings:
            rec.cols["cube"][i] = 2.0 * rec.pairing(u, G)
        return n

    u = to_spectral(u0, d).coeffs[:kx, :ky]

    blowup_time = None
    rows = 0  # boundaries whose series are complete
    try:
        rec.boundary(0, u)
        if not math.isfinite(rec.cols["l2"][0]):
            raise BlowupError("non-finite initial L2 norm", 0.0)
        guard = BLOWUP_GUARD * rec.cols["l2"][0]
        n0 = boundary_flux(0, u)
        rows = 1
        for i in range(rec.n_steps):
            t = rec.times[i]
            u_next = _advance(u, n0, tab, flux, d, t + dt, work)
            rec.boundary(i + 1, u_next)
            norm_next = rec.cols["l2"][i + 1]
            if not math.isfinite(norm_next) or norm_next > guard:
                raise BlowupError("L2 norm left the trust region", t + dt)

            uavg, n_avg = 0.5 * (u + u_next), None
            if audit_series:
                G_avg, n_avg = _nonlinear_core(uavg, flux, d, work, t=t + 0.5 * dt)
                if u2_pairings:
                    rec.mid["mid_u2lap"][i] = 2.0 * rec.pairing(lap * uavg, G_avg)
            rec.interval(i, uavg, n_avg)

            u = u_next
            n0 = boundary_flux(i + 1, u)
            rows = i + 2
    except BlowupError as exc:
        blowup_time = exc.t
    return rec.trajectory(rows, blowup_time, h=flux.h)
