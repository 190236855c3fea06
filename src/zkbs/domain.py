"""Strip domain and Fourier-sine spectral transforms.

The solver works on the periodized strip [-X, X) x (0, L): periodic in x,
homogeneous Dirichlet walls at y = 0 and y = L.  Fields are expanded in

    e_{j,l}(x, y) = exp(i xi_j x) sin(pi l y / L),
    xi_j = pi j / X  (j = -nx/2 .. nx/2 - 1),   l = 1 .. ny,

and sampled on the tensor grid x_j = -X + 2X j / nx (uniform, periodic)
and y_k = k L / (ny + 1) (interior sine-collocation nodes; wall rows are
not stored, the sine synthesis vanishes there identically).

Normalization, fixed once and shared by every norm and energy audit in
the package: fields are real, so c(-j, l) = conj(c(j, l)), and a
SpectralField stores the half spectrum j = 0 .. nx/2 alone, whose rows
0 and nx/2 are real.  Parseval reads

    integral |u|^2 dx dy = sum_{j >= 0, l} w_j |c(j, l)|^2,

with w_j = X * L on rows 0 and nx/2 and 2 X L on the others, which
stand for their conjugate rows too (Boyd 2001); DomainConfig.parseval_weight
holds w_j.  Every integral the package takes is such a Parseval sum or
pairing of mode amplitudes; none is a quadrature over grid samples.

Transforms are a real FFT in x and an unnormalized type-I DST in y, all
from numpy.fft.  The DST-I of n values is minus the imaginary part of the
real FFT of their odd extension, of length 2(n + 1) (_dst1); pocketfft
computes it the same way, so on numpy >= 2.0 the results equal scipy.fft's
bit for bit.  The public functions are pure: they read DomainConfig and
return new fields.  The public to_grid/to_spectral are the general,
checked path.  The nonlinear step keeps its state as the (kx, ky) block
of the 2/3-rule band, which the private _band_to_grid/_band_to_spectral
pair reads and returns (_pad_band pads a block to the half spectrum).
The pair does the y transform as a product with the cached kept-band
sine block rather than a DST.  That is faster at the desk size 256 x 64
and slower on tall grids, where the product's O(ny^2) per row outweighs
the DST's O(ny log ny).  A run passes the synthesis one _GridWork, whose
padded half spectrum and grid buffer every evaluation writes into, so
the step does not allocate them anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainConfig",
    "GridField",
    "SpectralField",
    "plan_domain",
    "to_spectral",
    "to_grid",
    "parseval_norm_sq",
    "ModeMultipliers",
    "mode_multipliers",
]


@dataclass(eq=False)
class DomainConfig:
    """Geometry, resolution and precomputed mode tables.

    Treat instances as immutable after plan_domain; the stepper and the
    audits share them freely across calls.
    """

    L: float
    X: float
    nx: int
    ny: int
    delta: float
    xi: np.ndarray = field(repr=False, default=None)        # (nx/2 + 1,) j = 0 .. nx/2
    xi_odd: np.ndarray = field(repr=False, default=None)    # xi with Nyquist zeroed
    lam: np.ndarray = field(repr=False, default=None)       # (ny,) (pi l / L)^2
    phase: np.ndarray = field(repr=False, default=None)     # (nx/2 + 1,) (-1)^j
    parseval_weight: np.ndarray = field(repr=False, default=None)  # (nx/2 + 1,) w_j
    _sin_band: np.ndarray = field(repr=False, default=None)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def spectral_shape(self) -> tuple[int, int]:
        """Half-spectrum shape (nx/2 + 1, ny)."""
        return (self.nx // 2 + 1, self.ny)

    @property
    def x(self) -> np.ndarray:
        return -self.X + 2.0 * self.X * np.arange(self.nx) / self.nx

    @property
    def y(self) -> np.ndarray:
        return self.L * np.arange(1, self.ny + 1) / (self.ny + 1)

    def sine_band(self) -> np.ndarray:
        # sin(pi l y_k / L) for grid rows k = 1 .. ny and kept sine indices
        # l = 1 .. ky, shape (ny, ky); built lazily, in place, for the band
        # transforms.  k l is first reduced modulo its period 2 (ny + 1)
        # (exactly: both are integers), which keeps the argument below 2 pi
        # and the entries accurate on tall grids.
        if self._sin_band is None:
            n1 = self.ny + 1
            arg = np.outer(np.arange(1.0, n1), np.arange(1.0, _kept_band(self)[1] + 1))
            np.fmod(arg, 2 * n1, out=arg)
            arg *= np.pi / n1
            self._sin_band = np.sin(arg, out=arg)
        return self._sin_band


@dataclass(eq=False)
class GridField:
    """Real collocation samples, shape (nx, ny), x index first."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("GridField expects a 2-d array (nx, ny)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridField entries must be finite")


@dataclass(eq=False)
class SpectralField:
    """Complex mode amplitudes c(j, l), shape (nx/2 + 1, ny), x frequency first.

    The x axis holds j = 0 .. nx/2, the half spectrum of a real field whose
    rows 0 and nx/2 are real; the y axis indexes sine modes l = 1 .. ny.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2:
            raise ValueError("SpectralField expects a 2-d array (nx/2 + 1, ny)")


def plan_domain(L: float, X: float, nx: int, ny: int, delta: float) -> DomainConfig:
    """Validate sizes and precompute frequency tables.

    Args:
        L: strip width, y in (0, L).
        X: half period of the x truncation, x in [-X, X).
        nx: x collocation points, even and >= 8.
        ny: interior y collocation points, >= 4.
        delta: dissipation coefficient, > 0.
    """
    if not (L > 0 and X > 0 and math.isfinite(L) and math.isfinite(X)):
        raise ValueError("L and X must be positive and finite")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be positive and finite")
    if nx < 8 or nx % 2 != 0:
        raise ValueError("nx must be even and >= 8")
    if ny < 4:
        raise ValueError("ny must be >= 4")

    j = np.arange(nx // 2 + 1)
    xi = np.pi * j / X
    xi_odd = xi.copy()
    # The j = nx/2 mode is its own conjugate partner; odd powers of xi there
    # would break realness, so dispersion and odd x derivatives drop it.
    xi_odd[-1] = 0.0
    l = np.arange(1, ny + 1)
    lam = (np.pi * l / L) ** 2
    phase = np.where(j % 2 == 0, 1.0, -1.0)
    weight = np.full(j.shape, 2.0 * X * L)
    weight[[0, -1]] = X * L
    return DomainConfig(L=float(L), X=float(X), nx=int(nx), ny=int(ny),
                        delta=float(delta), xi=xi, xi_odd=xi_odd, lam=lam,
                        phase=phase, parseval_weight=weight)


def _check_shape(arr: np.ndarray, shape: tuple[int, int], what: str) -> None:
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")


def _check_spectral(coeffs: np.ndarray, d: DomainConfig, what: str,
                    stacked: bool = False) -> None:
    """Raise unless coeffs is the half spectrum of a real field (stacked: each of a stack's).

    Besides the shape, only rows 0 and nx/2 need checking: they must be real,
    and the inverse real FFT would silently drop their imaginary part.
    """
    shape = d.spectral_shape
    _check_shape(coeffs, (len(coeffs), *shape) if stacked else shape, what)
    edges = coeffs[..., :: shape[0] - 1, :]  # rows 0 and nx/2, as a view
    defect = np.abs(edges.imag).max(axis=(-2, -1))
    if np.any(defect > 1e-10 * np.maximum(np.abs(edges.real).max(axis=(-2, -1)), 1.0)):
        raise ValueError(f"{what} is not a real field's spectrum: rows 0, nx/2 not real")


def _dst1(a: np.ndarray) -> np.ndarray:
    """Unnormalized type-I DST along the last axis, of length n = a.shape[-1].

    2 sum_j a_j sin(pi (j + 1)(k + 1) / (n + 1)) is minus the imaginary
    part of the real FFT of the odd extension (0, a, 0, -reversed a), of
    length 2(n + 1).
    """
    n = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * (n + 1),))
    ext[..., 1 : n + 1] = a
    ext[..., n + 2 :] = -a[..., ::-1]
    return -np.fft.rfft(ext)[..., 1 : n + 1].imag


def to_spectral(f: GridField, d: DomainConfig) -> SpectralField:
    """Forward transform: collocation samples to mode amplitudes."""
    _check_shape(f.values, d.shape, "grid field")
    csin = _dst1(f.values) / (d.ny + 1)
    coeffs = d.phase[:, None] * np.fft.rfft(csin, axis=0) / d.nx
    return SpectralField(coeffs)


def to_grid(s: SpectralField, d: DomainConfig) -> GridField:
    """Inverse transform: mode amplitudes to real collocation samples."""
    _check_spectral(s.coeffs, d, "spectral field")
    csin = np.fft.irfft(s.coeffs * d.phase[:, None] * d.nx, n=d.nx, axis=0)
    return GridField(_dst1(csin) / 2.0)


def _kept_band(d: DomainConfig) -> tuple[int, int]:
    """(kx, ky): the 2/3 rule keeps x rows j < kx and sine indices l <= ky.

    Kept x rows satisfy 3j < nx (j = 0 .. nx/2), kept sine indices satisfy
    3l < 2(ny + 1); quadratic products of kept modes then alias neither
    onto kept modes nor onto the x mean.  kx < nx/2, so the Nyquist row is
    never kept.
    """
    return (d.nx - 1) // 3 + 1, (2 * d.ny + 1) // 3


# Both band products below keep OpenBLAS (0.3.31) on one thread at the
# desk size 256 x 64: it runs a C-ordered matrix times a transposed
# (F-ordered) one on two threads, whose idle spinning then costs a second
# core per step.  So the x synthesis is laid out transposed, and sine_band
# is stored grid-major, (ny, ky), where the analysis multiplies by it directly.
# The same holds for the whole package: every wake of the worker costs about
# 0.13 s of its CPU, so no run-time path makes a complex BLAS-2/3 call or a
# LAPACK call (but decay_fit's two-column least squares, which stays on one
# thread), and only a cutoff flux builds a Gauss rule: the leggauss in
# dynamics._flux_table, whose eigensolver wakes it (the oracle of
# linear-verify writes its rule out).

class _GridWork(NamedTuple):
    """One run's buffers for _band_to_grid; the grid values it returns live in grid."""

    half: np.ndarray  # (ky, nx/2 + 1) transposed half spectrum, zero past column kx
    grid: np.ndarray  # (nx, ny) grid values


def _grid_work(d: DomainConfig) -> _GridWork:
    return _GridWork(np.zeros((_kept_band(d)[1], d.nx // 2 + 1), dtype=complex),
                     np.empty(d.shape))


def _band_to_grid(band: np.ndarray, d: DomainConfig, work: _GridWork) -> np.ndarray:
    """to_grid of the kept-band block band, (kx, ky), unchecked, as a raw array.

    The scaled band goes into work's zero-padded half spectrum (numpy's own
    padding of a short input is a slow copy), then an inverse real FFT in x,
    then a product with the cached sine block in y into work.grid, which is
    returned and overwritten by the next call.
    """
    np.multiply(band.T, d.phase[: len(band)] * d.nx, out=work.half[:, : len(band)])
    csin = np.fft.irfft(work.half, n=d.nx, axis=1).T  # (nx, ky), F-ordered
    return np.matmul(csin, d.sine_band().T, out=work.grid)


def _band_to_spectral(values: np.ndarray, d: DomainConfig) -> np.ndarray:
    """The kept-band (kx, ky) block of to_spectral of grid values, unchecked.

    A product with the cached sine block in y, then a real FFT in x that
    keeps rows j < kx.
    """
    kx = _kept_band(d)[0]
    rows = np.fft.rfft(values @ d.sine_band(), axis=0)[:kx]
    return rows * (d.phase[:kx, None] * (2.0 / ((d.ny + 1) * d.nx)))


def _pad_band(band: np.ndarray, d: DomainConfig) -> np.ndarray:
    """The half spectrum whose leading block is band and whose other modes are zero."""
    out = np.zeros(d.spectral_shape, dtype=complex)
    out[: band.shape[0], : band.shape[1]] = band
    return out


def parseval_norm_sq(coeffs: np.ndarray, d: DomainConfig) -> float:
    """integral |u|^2 dx dy evaluated from mode amplitudes.

    coeffs is the half spectrum or a leading block of it, such as the kept band.
    """
    return float(d.parseval_weight[: len(coeffs)] @ np.sum(np.abs(coeffs) ** 2, axis=1))


@dataclass(eq=False)
class ModeMultipliers:
    """Per-mode weights on |c|^2: the one table every norm and energy reads.

    With xi the x frequency and lam the sine eigenvalue (pi l / L)^2:

      d1:   xi^2 + lam                  -> integral u_x^2 + u_y^2
      d2:   (xi^2 + lam)^2              -> integral u_xx^2 + 2 u_xy^2 + u_yy^2
      e2:   xi^4 + xi^2 lam + lam^2     -> integral u_xx^2 + u_xy^2 + u_yy^2
      d3:   d1 * e2                     -> integral u_xxx^2 + 2 u_xxy^2 + 2 u_xyy^2 + u_yyy^2
      hs(s): (1 + d1)^s                 -> the squared H^s norm, s in [0, 2]
    """

    d1: np.ndarray
    d2: np.ndarray
    e2: np.ndarray
    d3: np.ndarray

    def hs(self, s: float) -> np.ndarray:
        return (1.0 + self.d1) ** s


def mode_multipliers(d: DomainConfig) -> ModeMultipliers:
    xi2 = d.xi[:, None] ** 2
    lam = d.lam[None, :]
    d1 = xi2 + lam
    e2 = xi2**2 + xi2 * lam + lam**2
    return ModeMultipliers(d1=d1, d2=d1**2, e2=e2, d3=d1 * e2)
