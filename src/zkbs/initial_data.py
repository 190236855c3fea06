"""Initial data library for the experiment harness.

All generators return GridField samples compatible with a DomainConfig.
The Gaussian packet checks its own periodic seam: data must decay below
1e-12 at x = -X so the periodization does not introduce a jump.
"""

from __future__ import annotations

import inspect

import numpy as np

from .domain import DomainConfig, GridField, SpectralField, to_grid

__all__ = [
    "eigenmode",
    "traveling_mode",
    "gaussian_bump",
    "random_band",
    "make_initial",
    "GENERATORS",
]


def eigenmode(d: DomainConfig, l: int = 1, amplitude: float = 1.0) -> GridField:
    """x-independent wall-to-wall mode amplitude * sin(pi l y / L)."""
    _check_l(d, l)
    vals = amplitude * np.sin(np.pi * l * d.y / d.L)
    return GridField(np.broadcast_to(vals, d.shape).copy())

def traveling_mode(d: DomainConfig, j: int = 1, l: int = 1,
                   amplitude: float = 1.0) -> GridField:
    """Single oscillatory mode amplitude * cos(xi_j x) sin(pi l y / L)."""
    _check_l(d, l)
    if not (0 <= j <= d.nx // 2 - 1):
        raise ValueError(f"x mode index j must lie in [0, {d.nx // 2 - 1}]")
    xi = np.pi * j / d.X
    vals = amplitude * np.outer(np.cos(xi * d.x), np.sin(np.pi * l * d.y / d.L))
    return GridField(vals)


def gaussian_bump(d: DomainConfig, x0: float = 0.0, sigma_x: float = 2.0,
                  l: int = 1, amplitude: float = 0.5) -> GridField:
    """Localized packet amplitude * exp(-(x-x0)^2 / (2 sigma^2)) sin(pi l y / L).

    Raises when the envelope at the periodic seam exceeds 1e-12: pick a
    wider box or a narrower packet instead of wrapping the tail.
    """
    _check_l(d, l)
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    seam_gap = d.X - abs(x0)
    if seam_gap <= 0 or abs(amplitude) * np.exp(-(seam_gap**2) / (2 * sigma_x**2)) >= 1e-12:
        raise ValueError(
            "gaussian_bump tail does not clear the periodic seam; "
            "increase X or decrease sigma_x"
        )
    envelope = amplitude * np.exp(-((d.x - x0) ** 2) / (2 * sigma_x**2))
    vals = np.outer(envelope, np.sin(np.pi * l * d.y / d.L))
    return GridField(vals)


def random_band(d: DomainConfig, seed: int, jmax: int = 8, lmax: int = 4,
                amplitude: float = 0.5) -> GridField:
    """Random band-limited field, rescaled to max |u| = amplitude.

    Populates modes with 0 <= j <= jmax and l <= lmax from a seeded
    generator; the x-mean row is drawn real.
    """
    if not (0 <= jmax <= d.nx // 2 - 1):
        raise ValueError(f"jmax must lie in [0, {d.nx // 2 - 1}]")
    _check_l(d, lmax)
    rng = np.random.default_rng(seed)
    c = np.zeros(d.spectral_shape, dtype=complex)
    c[0, :lmax] = rng.standard_normal(lmax)  # x-mean row stays real
    for j in range(1, jmax + 1):
        re = rng.standard_normal(lmax)
        im = rng.standard_normal(lmax)
        c[j, :lmax] = re + 1j * im
    vals = to_grid(SpectralField(c), d).values
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return GridField(vals)
    return GridField(vals * (amplitude / peak))


def _check_l(d: DomainConfig, l: int) -> None:
    if not (1 <= l <= d.ny):
        raise ValueError(f"wall mode index l must lie in [1, {d.ny}]")


GENERATORS = {
    "eigenmode": eigenmode,
    "traveling_mode": traveling_mode,
    "gaussian_bump": gaussian_bump,
    "random_band": random_band,
}


def make_initial(name: str, params: dict, d: DomainConfig) -> GridField:
    """Dispatch a generator by name with the subset of params it uses."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choices: {sorted(GENERATORS)}")
    gen = GENERATORS[name]
    keys = list(inspect.signature(gen).parameters)[1:]  # every parameter after d
    return gen(d, **{k: params[k] for k in keys if k in params})
