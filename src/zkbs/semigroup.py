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

    def propagator(self, t: float) -> np.ndarray:
        """exp(m t), the per-mode semigroup over a finite time t >= 0."""
        if not (t >= 0 and math.isfinite(t)):
            raise ValueError("the propagator requires finite t >= 0")
        return np.exp(self.m * t)


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
    return SpectralField(u.coeffs * S.propagator(t))


def _three_node_weights(S: SymbolTable, dt: float):
    """exp(m dt) and the left, midpoint and right forcing weights of one step.

    The phi tables they are formed from are freed on return, before any
    stepping.
    """
    z = S.m * dt
    p1, p2, p3 = phi(1, z), phi(2, z), phi(3, z)
    return (np.exp(z), dt * (p1 - 3.0 * p2 + 4.0 * p3), dt * (4.0 * p2 - 8.0 * p3),
            dt * (4.0 * p3 - p2))


# a forced block of B steps holds 9 B states (two stacks of B boundary states, B averaged
# states, 2 B forcing samples and their 2 B products, two stacks of B left products); B is
# the most steps whose states fit in _BLOCK_BYTES, from 1 to _MAX_BLOCK (56 on 8 x 4 modes)
_BLOCK_BYTES = 2**18
_MAX_BLOCK = 64


def _block_steps(d: DomainConfig) -> int:
    """Steps that duhamel_solve advances per block on domain d."""
    states = _BLOCK_BYTES // (16 * d.spectral_shape[0] * d.spectral_shape[1])
    return max(1, min(_MAX_BLOCK, states // 9))


def _check_samples(block: np.ndarray, d: DomainConfig, what: str) -> None:
    """Raise unless each of a stack of amplitudes is a real field's half spectrum, and finite."""
    _check_spectral(block, d, what, stacked=True)
    if not np.isfinite(block.view(float)).all():
        raise ValueError(f"{what} contains non-finite entries")


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
        u0: initial amplitudes, the half spectrum of a real field, finite.
        forcing: None, or a callable t -> complex (nx/2 + 1, ny) array of
            forcing amplitudes, the half spectrum of a real field; it is
            called once at each step boundary and each step midpoint, in
            time order.  Each sample is copied as soon as it is returned
            (after a shape check, so it cannot broadcast), so the callable
            may return the same array, overwritten, every call.
        T: final time; dt must divide it.
        dt: step size.
        S: symbol table (carries the domain).
        snapshot_stride: store every k-th boundary snapshot (0 keeps only
            the first and last).

    Returns a Trajectory whose dense scalar series feed
    functionals.audit_identity.  Its work series pair u with the forcing
    samples f: <u, f> per boundary (nonlin_flux), 2 <d1 u, f> and 2 <e2 u, f>
    per step's averaged state and midpoint sample (mid_rhs_h1, mid_rhs_h2).
    They are zero only when forcing is None: the homogeneous equation does no work.

    The solve advances a block of B = _block_steps steps at a time.  It
    takes all of a block's samples first and checks them (real-field
    rows, finite entries) before any step uses one, then forms the
    block's products w f beside the samples, steps with four in-place
    ufuncs, and records the block's boundaries and averaged states as
    two stacks, each paired with its samples.  Every buffer is allocated
    once per solve: 9 B half spectra (3 B unforced), within _BLOCK_BYTES
    (256 KiB) whenever B > 1, and 2 B more in the recorder.  No state is
    copied between blocks.
    """
    d = S.domain
    u = np.array(u0.coeffs, dtype=complex)
    _check_shape(u, d.spectral_shape, "initial amplitudes")  # before the check can broadcast
    _check_samples(u[None], d, "initial amplitudes")
    B = _block_steps(d)
    rec = _Recorder(d, T, dt, snapshot_stride, interval_series=("mid_rhs_h1", "mid_rhs_h2"),
                    block=B)
    E, w_left, w_mid, w_right = _three_node_weights(S, dt)
    n, times = rec.n_steps, rec.times

    def stack(k: int) -> np.ndarray:
        return np.empty((k, *d.spectral_shape), dtype=complex)

    # a block writes its states into one stack while its first step reads the
    # last block's end from the other; its left products go the same way
    states, spare, avg = stack(B), stack(B), stack(B)
    start = u
    rec.boundary(0, u)
    if forcing is not None:
        # F holds a block's samples, step k's midpoint at row 2k and right end at
        # 2k + 1, and P their products with w_mid and w_right in the same rows; a
        # step's left end is the last step's right end, whose product with w_left
        # goes to lefts[k], and the block's last one to lefts[0], for the next block
        F, P, lefts, spare_lefts = stack(2 * B), stack(2 * B), stack(B), stack(B)

        def take(k: int, t: float) -> None:
            f = np.asarray(forcing(t))
            _check_shape(f, d.spectral_shape, "forcing sample")  # before copyto can broadcast
            np.copyto(F[k], f)

        take(0, times[0])
        _check_samples(F[:1], d, "forcing sample")
        rec.work(0, u, F[0])
        first_left = np.multiply(w_left, F[0], out=spare_lefts[0])
    for i0 in range(0, n, B):
        b = min(B, n - i0)
        mids = None
        if forcing is not None:
            for k in range(b):
                take(2 * k, times[i0 + k] + 0.5 * dt)
                take(2 * k + 1, times[i0 + k + 1])
            _check_samples(F[: 2 * b], d, "forcing sample")
            mids, rights = F[0 : 2 * b : 2], F[1 : 2 * b : 2]
            np.multiply(w_left, rights[: b - 1], out=lefts[1:b])
            np.multiply(w_left, rights[b - 1], out=lefts[0])
            np.multiply(w_mid, mids, out=P[0 : 2 * b : 2])
            np.multiply(w_right, rights, out=P[1 : 2 * b : 2])
        u = start
        for k in range(b):
            # u_next = E u + w_left f_left + w_mid f_mid + w_right f_right, summed left to right
            u = np.multiply(E, u, out=states[k])
            if forcing is not None:
                for p in (lefts[k] if k else first_left, P[2 * k], P[2 * k + 1]):
                    np.add(u, p, out=u)
        np.add(start, states[0], out=avg[0])
        np.add(states[: b - 1], states[1:b], out=avg[1:b])
        np.multiply(avg[:b], 0.5, out=avg[:b])
        rec.interval(i0, avg[:b], mids)
        rec.boundary(i0 + 1, states[:b])
        if forcing is not None:
            rec.work(i0 + 1, states[:b], rights)
            first_left, lefts, spare_lefts = lefts[0], spare_lefts, lefts
        start, states, spare = states[b - 1], spare, states
    return rec.trajectory(n + 1)
