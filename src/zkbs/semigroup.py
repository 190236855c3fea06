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
    _check_shape,
    _check_spectral,
    mode_multipliers,
)
from .trajectory import Trajectory, _Recorder

__all__ = [
    "SymbolTable",
    "symbol",
    "apply_semigroup",
    "duhamel_solve",
]

_SERIES_RADIUS = 0.5
_SERIES_TERMS = 19
_FACT = [math.factorial(n) for n in range(_SERIES_TERMS + 4)]


@dataclass(eq=False)
class SymbolTable:
    """Per-mode symbol values plus the domain they were built for."""

    domain: DomainConfig
    m: np.ndarray  # (nx/2 + 1, ny) complex


def symbol(d: DomainConfig) -> SymbolTable:
    """Assemble the per-mode symbol table for the domain."""
    xi_o = d.xi_odd[:, None]
    m = 1j * (xi_o**3 + xi_o * d.lam[None, :]) - d.delta * mode_multipliers(d).d1
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
    """Exact linear evolution over a finite time t >= 0."""
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError("apply_semigroup requires finite t >= 0")
    return SpectralField(u.coeffs * np.exp(S.m * t))


def _three_node_weights(S: SymbolTable, dt: float):
    """exp(m dt) and the left, midpoint and right forcing weights of one step.

    The phi tables they are formed from are freed on return, before any
    stepping.
    """
    z = S.m * dt
    p1, p2, p3 = phi(1, z), phi(2, z), phi(3, z)
    return (np.exp(z), dt * (p1 - 3.0 * p2 + 4.0 * p3), dt * (4.0 * p2 - 8.0 * p3),
            dt * (4.0 * p3 - p2))


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
        u0: initial amplitudes, the half spectrum of a real field.
        forcing: None, or a callable t -> complex (nx/2 + 1, ny) array of
            forcing amplitudes, the half spectrum of a real field; it is
            sampled once at each step boundary and each step midpoint.
            Each sample is copied as soon as it is returned and checked
            there (shape, real-field rows, finite entries), so the
            callable may return the same array, overwritten, every call.
        T: final time; dt must divide it.
        dt: step size.
        S: symbol table (carries the domain).
        snapshot_stride: store every k-th boundary snapshot (0 keeps only
            the first and last).

    Returns a Trajectory whose dense scalar series feed
    functionals.audit_identity; its work series nonlin_flux, mid_rhs_h1
    and mid_rhs_h2 stay zero, as the homogeneous equation does no work.
    The step writes into buffers allocated once per solve, so it makes no
    spectrum-sized temporary.
    """
    d = S.domain
    _check_spectral(u0.coeffs, d, "initial amplitudes")
    rec = _Recorder(d, T, dt, snapshot_stride, interval_series=("mid_rhs_h1", "mid_rhs_h2"))
    E, w_left, w_mid, w_right = _three_node_weights(S, dt)

    # three forcing samples are live per step (left, mid, right); sample k
    # goes to buffer k % 3, so a step's right end stays put as the next left end
    samples = [np.empty(d.spectral_shape, dtype=complex) for _ in range(3)]

    def sample(k: int, t: float) -> np.ndarray:
        f = np.asarray(forcing(t))
        _check_shape(f, d.spectral_shape, "forcing sample")  # before copyto can broadcast
        out = samples[k % 3]
        np.copyto(out, f)
        _check_spectral(out, d, "forcing sample")
        if not np.isfinite(out.view(float)).all():
            raise ValueError("forcing sample contains non-finite entries")
        return out

    u = np.array(u0.coeffs, dtype=complex)
    u_next, avg = np.empty_like(u), np.empty_like(u)  # avg also holds each w * f product
    rec.boundary(0, u)
    # each boundary is sampled once: a step's right end is the next one's left end
    f_right = None if forcing is None else sample(0, rec.times[0])
    for i in range(rec.n_steps):
        # u_next = E u + w_left f_left + w_mid f_mid + w_right f_right, summed left to right
        np.multiply(E, u, out=u_next)
        if forcing is not None:
            f_left, f_mid, f_right = (f_right, sample(2 * i + 1, rec.times[i] + 0.5 * dt),
                                      sample(2 * i + 2, rec.times[i + 1]))
            for w, f in ((w_left, f_left), (w_mid, f_mid), (w_right, f_right)):
                np.add(u_next, np.multiply(w, f, out=avg), out=u_next)
        np.multiply(np.add(u, u_next, out=avg), 0.5, out=avg)
        rec.interval(i, avg)
        u, u_next = u_next, u
        rec.boundary(i + 1, u)
    return rec.trajectory(rec.n_steps + 1)
