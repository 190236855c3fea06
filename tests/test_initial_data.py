import numpy as np
import pytest

from zkbs import (
    eigenmode,
    gaussian_bump,
    make_initial,
    random_band,
    to_spectral,
    traveling_mode,
)


class TestEigenmode:
    def test_values(self, small_domain):
        d = small_domain
        u = eigenmode(d, l=2, amplitude=1.5)
        want = 1.5 * np.sin(2 * np.pi * d.y / d.L)
        assert np.allclose(u.values, want[None, :], atol=1e-15)
        assert u.values.shape == d.shape

    def test_bad_l(self, small_domain):
        with pytest.raises(ValueError, match="wall mode index"):
            eigenmode(small_domain, l=0)
        with pytest.raises(ValueError, match="wall mode index"):
            eigenmode(small_domain, l=small_domain.ny + 1)


class TestTravelingMode:
    def test_spectrum_is_single_pair(self, small_domain):
        # the pair's conjugate partner (-5, 3) is not stored
        d = small_domain
        u = traveling_mode(d, j=5, l=3, amplitude=0.8)
        c = to_spectral(u, d).coeffs
        assert np.isclose(c[5, 2], 0.4, atol=1e-14)
        c[5, 2] = 0.0
        assert np.max(np.abs(c)) <= 1e-14

    def test_j_range(self, small_domain):
        d = small_domain
        with pytest.raises(ValueError, match="x mode index"):
            traveling_mode(d, j=d.nx // 2)
        with pytest.raises(ValueError, match="x mode index"):
            traveling_mode(d, j=-1)


class TestGaussianBump:
    def test_peak_and_wall_values(self, desk_domain):
        d = desk_domain
        u = gaussian_bump(d, x0=0.0, sigma_x=2.0, l=1, amplitude=0.5)
        i0 = np.argmin(np.abs(d.x))
        k0 = np.argmax(np.sin(np.pi * d.y / d.L))
        assert np.isclose(u.values[i0, k0],
                          0.5 * np.sin(np.pi * d.y[k0] / d.L), rtol=1e-12)
        # y boundary rows are excluded from the grid but the seam column
        # must be essentially zero
        assert np.max(np.abs(u.values[0, :])) < 1e-12

    def test_seam_guard(self, small_domain):
        d = small_domain
        with pytest.raises(ValueError, match="seam"):
            gaussian_bump(d, x0=0.0, sigma_x=0.4 * d.X, l=1, amplitude=1.0)
        with pytest.raises(ValueError, match="seam"):
            gaussian_bump(d, x0=0.95 * d.X, sigma_x=1.0, l=1, amplitude=1.0)
        with pytest.raises(ValueError, match="sigma_x"):
            gaussian_bump(d, sigma_x=0.0)


class TestRandomBand:
    def test_amplitude_and_band(self, small_domain):
        d = small_domain
        u = random_band(d, seed=42, jmax=6, lmax=3, amplitude=0.7)
        assert np.isclose(np.max(np.abs(u.values)), 0.7, rtol=1e-13)
        c = to_spectral(u, d).coeffs
        assert np.max(np.abs(c[7 : d.nx - 6, :])) <= 1e-14
        assert np.max(np.abs(c[:, 3:])) <= 1e-14

    def test_seed_reproducibility(self, small_domain):
        d = small_domain
        a = random_band(d, seed=9).values
        b = random_band(d, seed=9).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_band(d, seed=10).values)

    def test_jmax_validation(self, small_domain):
        d = small_domain
        with pytest.raises(ValueError, match="jmax"):
            random_band(d, seed=1, jmax=d.nx // 2)


class TestMakeInitial:
    def test_dispatch_uses_relevant_params(self, small_domain):
        d = small_domain
        params = {"l": 2, "amplitude": 1.1, "seed": 5, "jmax": 3, "lmax": 2,
                  "x0": 0.0, "sigma_x": 2.0, "j": 4}
        u = make_initial("traveling_mode", params, d)
        v = traveling_mode(d, j=4, l=2, amplitude=1.1)
        assert np.array_equal(u.values, v.values)

    def test_unknown_name(self, small_domain):
        with pytest.raises(ValueError, match="unknown generator"):
            make_initial("soliton", {}, small_domain)
