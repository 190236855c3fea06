import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import zkbs.domain
import zkbs.dynamics
from oracles import grid_quadrature, mixed_derivative
from zkbs import (
    GridField,
    SpectralField,
    mode_multipliers,
    parseval_norm_sq,
    plan_domain,
    to_grid,
    to_spectral,
)
from zkbs.trajectory import _Recorder


def random_real_field(d, rng, scale=1.0):
    return GridField(scale * rng.standard_normal(d.shape))


class TestPlanDomain:
    def test_geometry_tables(self, small_domain):
        d = small_domain
        assert d.shape == (64, 16)
        assert d.spectral_shape == (33, 16)
        assert d.x[0] == -d.X
        dx, dy = 2.0 * d.X / d.nx, d.L / (d.ny + 1)
        assert np.isclose(d.x[1] - d.x[0], dx)
        assert np.isclose(d.y[0], dy)
        assert np.isclose(d.y[-1], d.L - dy)
        # xi spacing pi/X, sine eigenvalues (pi l / L)^2
        assert np.isclose(d.xi[1], np.pi / d.X)
        assert np.allclose(d.lam, (np.pi * np.arange(1, 17) / d.L) ** 2)

    def test_nyquist_column_zeroed_for_odd_orders(self, small_domain):
        d = small_domain
        nyq = d.nx // 2
        assert d.xi_odd[nyq] == 0.0
        assert d.xi[nyq] != 0.0

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(L=-1.0, X=1.0, nx=8, ny=4, delta=0.5), "positive"),
        (dict(L=1.0, X=1.0, nx=7, ny=4, delta=0.5), "even"),
        (dict(L=1.0, X=1.0, nx=8, ny=3, delta=0.5), "ny"),
        (dict(L=1.0, X=1.0, nx=8, ny=4, delta=0.0), "delta"),
        (dict(L=1.0, X=1.0, nx=8, ny=4, delta=math.nan), "delta"),
        (dict(L=math.inf, X=1.0, nx=8, ny=4, delta=0.5), "finite"),
    ])
    def test_rejects_bad_geometry(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            plan_domain(**kwargs)


class TestTransforms:
    def test_roundtrip_random(self, small_domain, rng):
        d = small_domain
        f = random_real_field(d, rng)
        back = to_grid(to_spectral(f, d), d)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_single_mode_amplitudes(self, small_domain):
        # cos(xi x) sin(2 pi y / L) with xi = xi_4 must put 1/2 on (4, 2)
        # (its conjugate partner (-4, 2) is not stored), nothing anywhere else
        d = small_domain
        xi = np.pi * 4 / d.X
        f = GridField(np.outer(np.cos(xi * d.x), np.sin(2 * np.pi * d.y / d.L)))
        c = to_spectral(f, d).coeffs
        assert abs(c[4, 1] - 0.5) <= 1e-14
        c[4, 1] = 0.0
        assert np.max(np.abs(c)) <= 1e-14

    def test_sine_mode_vanishes_on_walls(self, small_domain):
        # synthesis evaluated by the defining series at the wall-adjacent
        # grid rows stays consistent with the closed form; the walls
        # themselves are not stored, so check the series values directly
        d = small_domain
        c = np.zeros(d.spectral_shape, dtype=complex)
        c[0, 2] = 1.0  # sin(3 pi y / L)
        vals = to_grid(SpectralField(c), d).values
        want = np.sin(3 * np.pi * d.y / d.L)
        assert np.max(np.abs(vals - want[None, :])) <= 1e-13
        # wall values of the closed form are identically zero
        assert abs(math.sin(0.0)) == 0.0
        assert abs(math.sin(3 * math.pi)) <= 4e-16

    def test_parseval(self, small_domain, rng):
        d = small_domain
        f = random_real_field(d, rng)
        s = to_spectral(f, d)
        assert np.isclose(
            parseval_norm_sq(s.coeffs, d),
            grid_quadrature(f.values**2, d),
            rtol=1e-12,
        )

    def test_recorder_pairing_matches_grid_pairing(self, small_domain, rng):
        # the one pairing of two states, which every work series sums, is
        # the grid quadrature of their product by discrete Parseval
        d = small_domain
        f, g = random_real_field(d, rng), random_real_field(d, rng)
        sf, sg = to_spectral(f, d), to_spectral(g, d)
        assert np.isclose(
            _Recorder(d, 1.0, 1.0, 0).pairing(sf.coeffs, sg.coeffs),
            grid_quadrature(f.values * g.values, d),
            rtol=1e-11,
        )

    def test_complex_mean_row_rejected(self, small_domain):
        d = small_domain
        c = np.zeros(d.spectral_shape, dtype=complex)
        c[0, 3] = 1.0j  # the x mean of a real field is real
        with pytest.raises(ValueError, match="real field"):
            to_grid(SpectralField(c), d)
        with pytest.raises(ValueError, match="real field"):
            mixed_derivative(SpectralField(c), 1, 0, d)

    def test_complex_nyquist_row_rejected(self, small_domain):
        d = small_domain
        c = np.zeros(d.spectral_shape, dtype=complex)
        c[d.nx // 2, 0] = 1.0 + 1.0j  # its own conjugate partner, so real
        with pytest.raises(ValueError, match="real field"):
            to_grid(SpectralField(c), d)

    def test_grid_field_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            GridField(np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            GridField(np.full((4, 4), np.nan))

    def test_shape_mismatch_rejected(self, small_domain):
        with pytest.raises(ValueError, match="shape"):
            to_spectral(GridField(np.zeros((4, 4))), small_domain)


class TestDerivatives:
    def test_against_analytic_field(self, small_domain):
        d = small_domain
        xi = np.pi * 8 / d.X  # cos(x/2) on X = 16 pi
        ky = 2 * np.pi / d.L
        f = GridField(np.outer(np.cos(xi * d.x), np.sin(ky * d.y)))
        s = to_spectral(f, d)
        cases = {
            (1, 0): np.outer(-xi * np.sin(xi * d.x), np.sin(ky * d.y)),
            (2, 0): np.outer(-xi**2 * np.cos(xi * d.x), np.sin(ky * d.y)),
            (3, 0): np.outer(xi**3 * np.sin(xi * d.x), np.sin(ky * d.y)),
            (0, 1): np.outer(np.cos(xi * d.x), ky * np.cos(ky * d.y)),
            (0, 2): np.outer(np.cos(xi * d.x), -(ky**2) * np.sin(ky * d.y)),
            (0, 3): np.outer(np.cos(xi * d.x), -(ky**3) * np.cos(ky * d.y)),
            (1, 1): np.outer(-xi * np.sin(xi * d.x), ky * np.cos(ky * d.y)),
            (2, 1): np.outer(-xi**2 * np.cos(xi * d.x), ky * np.cos(ky * d.y)),
            (1, 2): np.outer(xi * np.sin(xi * d.x), ky**2 * np.sin(ky * d.y)),
        }
        for (kx, kyord), want in cases.items():
            got = mixed_derivative(s, kx, kyord, d).values
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-11 * scale, (kx, kyord)

    @pytest.mark.parametrize("ny", [64, 2047])
    def test_odd_y_orders_match_the_reduced_cosine(self, ny):
        # l k is reduced modulo its period 2 (ny + 1) before the cosine, so
        # the closed form is accurate however large l k grows
        d = plan_domain(L=math.pi, X=16 * math.pi, nx=8, ny=ny, delta=0.5)
        k = np.arange(1, ny + 1)
        for l in (1, 2, ny // 2 + 1, ny - 1, ny):
            c = np.zeros(d.spectral_shape, dtype=complex)
            c[0, l - 1] = 1.0
            want = np.cos(np.pi * ((l * k) % (2 * (ny + 1))) / (ny + 1))
            for order, sign in ((1, 1.0), (3, -1.0)):
                got = mixed_derivative(SpectralField(c), 0, order, d).values
                got = got / (sign * np.sqrt(d.lam[l - 1]) ** order)
                assert np.max(np.abs(got - want)) <= 2e-15, (l, order)

    def test_rejects_unsupported_orders(self, small_domain, rng):
        d = small_domain
        s = to_spectral(random_real_field(d, rng), d)
        with pytest.raises(ValueError):
            mixed_derivative(s, 4, 0, d)
        with pytest.raises(ValueError):
            mixed_derivative(s, 2, 2, d)
        with pytest.raises(ValueError):
            mixed_derivative(s, -1, 1, d)

    def test_third_x_derivative_drops_nyquist(self, small_domain):
        # odd x orders on the Nyquist row, its own conjugate partner, must
        # return zero, not a spurious imaginary field
        d = small_domain
        c = np.zeros(d.spectral_shape, dtype=complex)
        c[d.nx // 2, 0] = 1.0
        g = mixed_derivative(SpectralField(c), 1, 0, d)
        assert np.max(np.abs(g.values)) == 0.0


class TestDealiasAndWeights:
    def test_mask_bounds(self, small_domain):
        d = small_domain
        kx, ky = zkbs.domain._kept_band(d)
        assert kx <= d.nx // 2  # the Nyquist row is never kept
        assert kx - 1 == (d.nx - 1) // 3  # the last kept row j
        assert ky == (2 * (d.ny + 1) - 1) // 3  # the last kept sine index l

    def test_x_products_of_kept_modes_do_not_alias_onto_kept_band(self, small_domain):
        # squares of masked fields have x bandwidth 2K < nx - K, so their
        # aliasing images stay outside the kept band: the kept rows of the
        # product transform must match the same product on an x-padded grid
        d = small_domain
        rng = np.random.default_rng(5)
        kx, ky = zkbs.domain._kept_band(d)
        c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
        c = zkbs.domain._pad_band(c[:kx, :ky], d)
        u = to_grid(SpectralField(c), d)
        sq = to_spectral(GridField(u.values**2), d).coeffs

        big = plan_domain(d.L, d.X, 4 * d.nx, d.ny, d.delta)
        rows = d.nx // 2 + 1
        cbig = np.zeros(big.spectral_shape, dtype=complex)
        cbig[:rows] = c
        ubig = to_grid(SpectralField(cbig), big)
        sqbig = to_spectral(GridField(ubig.values**2), big).coeffs
        ref = sqbig[:rows]

        err = np.max(np.abs((sq - ref)[:kx, :ky]))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_x_flux_sum_vanishes_rowwise_for_kept_modes(self, small_domain):
        # the same bandwidth argument makes sum_x u^2 u_x exactly zero on
        # every grid row, which is what keeps the cubic flux orthogonal
        d = small_domain
        rng = np.random.default_rng(6)
        kx, ky = zkbs.domain._kept_band(d)
        c = to_spectral(GridField(rng.standard_normal(d.shape)), d).coeffs
        s = SpectralField(zkbs.domain._pad_band(c[:kx, :ky], d))
        u = to_grid(s, d).values
        ux = mixed_derivative(s, 1, 0, d).values
        rows = np.sum(u * u * ux, axis=0)
        assert np.max(np.abs(rows)) <= 1e-12 * max(1.0, np.max(np.abs(u)) ** 3) * d.nx

    def test_multiplier_tables_against_hand_integrals(self, small_domain):
        # two-mode superposition u = A cos(a x) sin(p y) + B sin(b x) sin(q y)
        # with p != q, a != b: cross terms integrate to zero and each
        # derivative integral over [-X, X) x (0, L) reduces to
        # coefficient * X * L / 2 with hand-computable coefficients
        d = small_domain
        A, B = 1.3, -0.7
        a = np.pi * 3 / d.X
        b = np.pi * 5 / d.X
        p = np.pi * 2 / d.L
        q = np.pi * 4 / d.L
        f = GridField(
            A * np.outer(np.cos(a * d.x), np.sin(p * d.y))
            + B * np.outer(np.sin(b * d.x), np.sin(q * d.y))
        )
        s = to_spectral(f, d)
        mults = mode_multipliers(d)
        half_area = d.X * d.L / 2.0

        def weighted(w):
            return parseval_norm_sq(np.sqrt(w) * s.coeffs, d)

        # integral u_x^2 + u_y^2 = sum_i amp_i^2 (xi_i^2 + k_i^2) * X L / 2
        want = half_area * (A**2 * (a**2 + p**2) + B**2 * (b**2 + q**2))
        assert np.isclose(weighted(mults.d1), want, rtol=1e-12)

        # integral u_xx^2 + 2 u_xy^2 + u_yy^2 carries (xi^2 + k^2)^2
        want = half_area * (A**2 * (a**2 + p**2) ** 2 + B**2 * (b**2 + q**2) ** 2)
        assert np.isclose(weighted(mults.d2), want, rtol=1e-12)

        # integral u_xx^2 + u_xy^2 + u_yy^2 carries xi^4 + xi^2 k^2 + k^4
        want = half_area * (
            A**2 * (a**4 + a**2 * p**2 + p**4)
            + B**2 * (b**4 + b**2 * q**2 + q**4)
        )
        assert np.isclose(weighted(mults.e2), want, rtol=1e-12)

        assert np.allclose(mults.d3, mults.d1 * mults.e2)

    def test_sine_square_quadrature_is_exact(self, small_domain):
        # products of sine modes are integrated exactly by the interior
        # rule, unlike cosine products; the audits only ever rely on the
        # former
        d = small_domain
        for l in (1, 3, 7):
            vals = np.sin(np.pi * l * d.y / d.L) ** 2
            got = float(np.sum(vals)) * d.L / (d.ny + 1)
            assert np.isclose(got, d.L / 2.0, rtol=1e-14), l


class TestNumpyTransforms:
    """The numpy-only transform path against scipy.fft, which the package no longer imports."""

    @settings(deadline=None)
    @given(shape=st.one_of(st.sampled_from(((64, 16), (256, 64))),
                           st.tuples(st.integers(1, 40), st.integers(1, 70))),
           seed=st.integers(0, 2**32 - 1))
    def test_dst1_matches_scipy_type_1(self, shape, seed):
        # the test grid, the desk grid, and small shapes of every aspect
        a = np.random.default_rng(seed).standard_normal(shape)
        want = scipy.fft.dst(a, type=1)
        got = zkbs.domain._dst1(a)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 2 * np.spacing(np.max(np.abs(want)))

    def test_flux_table_matches_the_scipy_dct_build(self):
        dyn = zkbs.dynamics
        samples = dyn._remainder_gauss(
            (np.arange(dyn._PIECES) + 0.5 * (dyn._LOBATTO[:, None] + 1.0)) / dyn._PIECES,
            *np.polynomial.legendre.leggauss(96))
        want = scipy.fft.dct(samples, type=1, axis=0) / dyn._DEGREE
        want[[0, -1]] *= 0.5
        assert np.max(np.abs(dyn._flux_table().coeffs - want)) <= 2e-16

    @settings(deadline=None)
    @given(h=st.sampled_from((None, 0.5)), seeds=st.lists(st.integers(0, 2**32 - 1),
                                                           min_size=1, max_size=3))
    def test_grid_work_gives_the_fresh_result(self, small_domain, h, seeds):
        # one work reused over several bands, as a run reuses it over its steps
        d = small_domain
        kx, ky = zkbs.domain._kept_band(d)
        flux = zkbs.dynamics.RegularizedFlux(h=h)
        work = zkbs.domain._grid_work(d)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            band = 0.5 * (rng.standard_normal((kx, ky)) + 1j * rng.standard_normal((kx, ky)))
            band[0] = band[0].real
            G, n = zkbs.dynamics._nonlinear_core(band, flux, d, work)
            fresh_G, fresh_n = zkbs.dynamics._nonlinear_core(band, flux, d,
                                                             zkbs.domain._grid_work(d))
            assert np.array_equal(G, fresh_G)
            assert np.array_equal(n, fresh_n)
