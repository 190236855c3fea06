"""Grid-side oracles and the paper's inequality monitors, for the tests alone.

The package takes every integral as a Parseval sum of mode amplitudes.
The tests check those sums, and the paper's Steklov and interpolation
inequalities, against the independent quantities here: tensor grid
quadrature, derivatives synthesized on the grid, per-field derivative
energies, and the H^s norm of one field for any s in [0, 2].
"""

import math

import numpy as np

from zkbs import GridField, SpectralField, mode_multipliers, parseval_norm_sq, to_grid
from zkbs.domain import _check_spectral


def norm(u, s, d):
    """Parseval evaluation of the H^s norm of one spectral field, s in [0, 2]."""
    if not 0.0 <= s <= 2.0:
        raise ValueError("Sobolev exponent s must lie in [0, 2]")
    w = mode_multipliers(d).hs(s)
    return math.sqrt(float(np.sum(d.parseval_weight[:, None] * w * np.abs(u.coeffs) ** 2)))


def grid_quadrature(values, d):
    """Tensor quadrature sum(values) dx dy over the stored grid.

    dx = 2X/nx and dy = L/(ny + 1); the interior-point rule is
    trapezoid-consistent for integrands that vanish on the walls.
    """
    return float(np.sum(values)) * (2.0 * d.X / d.nx) * (d.L / (d.ny + 1))


def mixed_derivative(s, kx, ky, d):
    """Grid samples of d^kx/dx^kx d^ky/dy^ky u for kx + ky <= 3.

    Even y orders stay in the sine basis; odd y orders land in the cosine
    basis and are synthesized on the same interior grid.
    """
    _check_spectral(s.coeffs, d, "spectral field")
    if kx < 0 or ky < 0 or kx + ky > 3:
        raise ValueError("mixed_derivative supports orders kx, ky >= 0 with kx + ky <= 3")
    xi = d.xi_odd if kx % 2 == 1 else d.xi
    c = s.coeffs * (1j * xi[:, None]) ** kx
    if ky % 2 == 0:
        return to_grid(SpectralField(c * (-d.lam[None, :]) ** (ky // 2)), d)
    # odd y order: sin -> cos, one sign flip per full second derivative
    sign = -1.0 if ky == 3 else 1.0
    c = c * (sign * np.sqrt(d.lam)[None, :] ** ky)
    # sum_l c_l cos(pi l k / (ny + 1)) is the real part of the real FFT of
    # (0, c, 0, ..., 0), of length 2 (ny + 1), the length of the DST-I's extension
    ext = np.zeros((d.nx, 2 * (d.ny + 1)))
    ext[:, 1 : d.ny + 1] = np.fft.irfft(c * d.phase[:, None] * d.nx, n=d.nx, axis=0)
    return GridField(np.fft.rfft(ext)[:, 1 : d.ny + 1].real)


def dk_seminorm_sq(u, k, d):
    """integral |D^k u|^2 with one term per mixed partial (k in {1, 2, 3}).

    k = 1 and 2 take the d1 and e2 weights of mode_multipliers; k = 3 takes
    xi^6 + xi^4 lam + xi^2 lam^2 + lam^3, which no run needs.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if k == 3:
        xi2, lam = d.xi[:, None] ** 2, d.lam[None, :]
        w = xi2**3 + xi2**2 * lam + xi2 * lam**2 + lam**3
    else:
        mults = mode_multipliers(d)
        w = mults.d1 if k == 1 else mults.e2
    return float(np.sum(d.parseval_weight[:, None] * w * np.abs(u.coeffs) ** 2))


def steklov_margin(u, d):
    """(margin, rhs) of the sharp wall-to-wall Poincare inequality in y.

    rhs is (pi/L)^2 integral u^2 and margin is integral u_y^2 - rhs.  Per
    mode, integral u_y^2 carries the weight lam_l >= lam_1, so the margin
    is a sum of nonnegative terms and vanishes exactly on pure l = 1 data.
    """
    rows = d.parseval_weight @ (np.abs(u.coeffs) ** 2)  # per-l sums over x rows
    lhs = float(rows @ d.lam)
    rhs = d.lam[0] * float(np.sum(rows))
    return lhs - rhs, rhs


def interpolation_ratio(u, m, k, q, d, include_l2_term=True):
    """Observed quotient of the Gagliardo-Nirenberg style comparison

        || |D^m u| ||_{L_q}  vs  || |D^k u| ||^{2s} ||u||^{1-2s} + ||u||,

    with s = (m + 1) / (2k) - 1 / (kq).  Returns 0 for zero fields.  With
    include_l2_term=False the additive ||u|| is dropped, making the
    quotient exactly scale-invariant.  The L_q integral is a grid
    quadrature of |D^m u|, whose terms each sum the squares of the m-th
    order partials.
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
    if m == 0:
        mag = np.abs(to_grid(u, d).values)
    else:
        mag = np.sqrt(sum(mixed_derivative(u, kx, m - kx, d).values ** 2
                          for kx in range(m + 1)))
    num = grid_quadrature(mag**q, d) ** (1.0 / q)
    dk = math.sqrt(dk_seminorm_sq(u, k, d))
    den = dk ** (2.0 * s) * l2 ** (1.0 - 2.0 * s)
    if include_l2_term:
        den += l2
    if den == 0.0:
        return 0.0
    return num / den
