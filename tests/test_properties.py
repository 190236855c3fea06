"""Property tests of the transform pairs, the discrete flux and the recorded norms.

hypothesis draws the geometry (at most 64 x 16 points), a seed for the
random data and its scale; every invariant here must hold for all of them.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zkbs import (
    GridField,
    RegularizedFlux,
    SpectralField,
    mode_multipliers,
    parseval_norm_sq,
    plan_domain,
    symbol,
    to_grid,
    to_spectral,
)
from oracles import dk_seminorm_sq, grid_quadrature, norm
from zkbs.domain import _band_to_grid, _band_to_spectral, _grid_work, _kept_band, _pad_band
from zkbs.dynamics import _nonlinear_core
from zkbs.trajectory import _Recorder

domains = st.builds(
    plan_domain,
    L=st.floats(min_value=0.5, max_value=4.0),
    X=st.floats(min_value=1.0, max_value=60.0),
    nx=st.sampled_from((8, 16, 32, 64)),
    ny=st.integers(min_value=4, max_value=16),
    delta=st.just(0.5),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.floats(min_value=1e-3, max_value=1e3)

props = settings(max_examples=40, deadline=None)


def half_spectrum_coeffs(d, rng, scale):
    """Random half-spectrum amplitudes of a real field: rows 0 and nx/2 real."""
    shape = d.spectral_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[[0, -1]] = c[[0, -1]].real
    return scale * c


@props
@given(domains, seeds, scales)
def test_grid_spectral_grid_round_trip(d, seed, scale):
    f = scale * np.random.default_rng(seed).standard_normal(d.shape)
    back = to_grid(to_spectral(GridField(f), d), d).values
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


@props
@given(domains, seeds, scales)
def test_parseval_matches_grid_quadrature(d, seed, scale):
    f = scale * np.random.default_rng(seed).standard_normal(d.shape)
    want = grid_quadrature(f**2, d)
    assert math.isclose(parseval_norm_sq(to_spectral(GridField(f), d).coeffs, d),
                        want, rel_tol=1e-12)


@props
@given(domains, seeds, scales)
def test_hermitian_amplitudes_synthesize_a_real_field(d, seed, scale):
    # recovering every amplitude, the Nyquist row's included, from the
    # synthesized samples shows that no row was dropped or halved, and
    # Parseval on the same samples checks the doubled interior row weights
    c = half_spectrum_coeffs(d, np.random.default_rng(seed), scale)
    vals = to_grid(SpectralField(c), d).values
    assert vals.dtype == np.float64
    back = to_spectral(GridField(vals), d).coeffs
    assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))
    assert math.isclose(parseval_norm_sq(c, d), grid_quadrature(vals**2, d),
                        rel_tol=1e-12)


@props
@given(domains, seeds, scales)
def test_dealiased_flux_is_orthogonal_to_u(d, seed, scale):
    kx, ky = _kept_band(d)
    c = _pad_band(half_spectrum_coeffs(d, np.random.default_rng(seed), scale)[:kx, :ky], d)
    _, n = _nonlinear_core(c[:kx, :ky], RegularizedFlux(h=None), d, _grid_work(d))
    size = parseval_norm_sq(c, d) ** 1.5
    assert abs(_Recorder(d, 1.0, 1.0, 0).pairing(c, _pad_band(n, d))) <= 1e-12 * size


@props
@given(domains, seeds, scales)
def test_band_transforms_match_the_public_pair_on_the_kept_band(d, seed, scale):
    # the step's band kernel against to_grid/to_spectral, its oracle; the
    # synthesis also on leading blocks of 1 and nx/2 rows, as linear-verify's
    # closed-form checks pass it a block of other than kx rows
    rng = np.random.default_rng(seed)
    kx, ky = _kept_band(d)
    c = half_spectrum_coeffs(d, rng, scale)
    for r in (1, kx, d.nx // 2):
        want = to_grid(SpectralField(_pad_band(c[:r, :ky], d)), d).values
        got = _band_to_grid(c[:r, :ky], d, _grid_work(d))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), r
    f = scale * rng.standard_normal(d.shape)
    want = to_spectral(GridField(f), d).coeffs[:kx, :ky]
    got = _band_to_spectral(f, d)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@props
@given(domains, seeds, scales, st.floats(min_value=1e-3, max_value=10.0))
def test_recorded_norms_and_symbol_read_the_one_weight_table(d, seed, scale, delta):
    # the recorder's stacked contraction against the functionals that read
    # the same mode_multipliers table one weight at a time
    c = half_spectrum_coeffs(d, np.random.default_rng(seed), scale)
    rec = _Recorder(d, 1.0, 1.0, 0)
    rec.boundary(0, c)
    u = SpectralField(c)
    want = {"l2": norm(u, 0, d), "h_half": norm(u, 0.5, d), "h1": norm(u, 1, d),
            "h3_half": norm(u, 1.5, d), "h2": norm(u, 2, d),
            "diss_l2": dk_seminorm_sq(u, 1, d), "e2_mixed": dk_seminorm_sq(u, 2, d)}
    for name, value in want.items():
        assert math.isclose(rec.cols[name][0], value, rel_tol=1e-12), name
    d = plan_domain(d.L, d.X, d.nx, d.ny, delta)
    assert np.array_equal(symbol(d).m.real, -d.delta * mode_multipliers(d).d1)


@props
@given(domains, seeds, scales)
def test_band_recorder_matches_the_full_recorder_on_band_data(d, seed, scale):
    # simulate records its kept band with weights sliced to it; on data
    # supported on the band that must sum what the full-shape recorder sums
    rng = np.random.default_rng(seed)
    kx, ky = _kept_band(d)
    c, mid = (_pad_band(half_spectrum_coeffs(d, rng, scale)[:kx, :ky], d) for _ in range(2))
    full = _Recorder(d, 1.0, 1.0, 0)
    band = _Recorder(d, 1.0, 1.0, 0, shape=(kx, ky))
    for rec, crop in ((full, np.s_[:, :]), (band, np.s_[:kx, :ky])):
        rec.boundary(0, c[crop])
        rec.interval(0, mid[crop])
    for name in full.cols:
        assert math.isclose(band.cols[name][0], full.cols[name][0], rel_tol=1e-13), name
    for name in full.mid_weights:
        assert math.isclose(band.mid[name][0], full.mid[name][0], rel_tol=1e-13), name
    assert np.array_equal(band.snapshots[0], full.snapshots[0])


@settings(props, derandomize=True)
@given(domains, seeds, scales)
def test_split_forcing_pairs_as_its_sum(d, seed, scale):
    # integration by parts is exact on the discrete spectra: the mass work of
    # f = d/dx f1 + d/dy f2 (f1 in the sine basis, f2 in the cosine basis)
    # is -integral (f1 u_x + f2 u_y), so one forcing can replace the split
    rng = np.random.default_rng(seed)
    u, f1, f2 = (half_spectrum_coeffs(d, rng, scale) for _ in range(3))
    ix, ky = 1j * d.xi_odd[:, None], np.sqrt(d.lam)[None, :]
    pairing = _Recorder(d, 1.0, 1.0, 0).pairing
    got = pairing(u, ix * f1 - ky * f2)
    want = -pairing(ix * u, f1) - pairing(ky * u, f2)
    size = math.sqrt(parseval_norm_sq(u, d)) * (math.sqrt(parseval_norm_sq(ix * f1, d))
                                                + math.sqrt(parseval_norm_sq(ky * f2, d)))
    assert abs(got - want) <= 1e-13 * size


# the desk scenario's kept band, which simulate records one boundary at a time,
# and linear-verify's 8 x 4 forced-solve modes, which duhamel_solve records in stacks
_DESK = plan_domain(L=math.pi, X=16 * math.pi, nx=256, ny=64, delta=0.5)
_MODES_8X4 = plan_domain(L=math.pi, X=16 * math.pi, nx=14, ny=4, delta=0.5)


@settings(props, max_examples=24, derandomize=True)
@given(st.sampled_from(["desk band", "8 x 4 modes"]), seeds, st.integers(1, 64),
       st.integers(1, 131), st.sampled_from(["0", "1", "3", "B - 1", "B", "B + 1", "2B"]))
def test_a_stack_records_what_its_states_record_one_at_a_time(where, seed, B, n, stride):
    # boundaries and averaged states recorded in stacks of B (the last one
    # shorter), each paired with its right-hand sides, against the same states
    # recorded one at a time: every series, the work series too, and every
    # snapshot bit for bit; strides of B - 1 and B + 1 put snapshots inside
    # stacks, B and 2B at their edges
    d = _DESK if where == "desk band" else _MODES_8X4
    shape = _kept_band(d) if where == "desk band" else d.spectral_shape
    stride = {"0": 0, "1": 1, "3": 3, "B - 1": max(B - 1, 1), "B": B, "B + 1": B + 1,
              "2B": 2 * B}[stride]
    rng = np.random.default_rng(seed)
    # strided stacks, as simulate's band views are; the right-hand sides
    # interleave boundary and midpoint rows, as duhamel_solve's samples do
    states, avgs, rhs = ((rng.standard_normal((count, *d.spectral_shape))
                          + 1j * rng.standard_normal((count, *d.spectral_shape)))
                         [:, :shape[0], :shape[1]] for count in (n + 1, n, 2 * n + 1))
    rights, mids = rhs[0::2], rhs[1::2]
    one, stacked = (_Recorder(d, n * 1e-3, 1e-3, stride,
                              interval_series=("mid_rhs_h1", "mid_rhs_h2"),
                              shape=shape, block=block) for block in (1, B))
    for i in range(n + 1):
        one.boundary(i, states[i])
        one.work(i, states[i], rights[i])
    for i in range(n):
        one.interval(i, avgs[i], mids[i])
    stacked.boundary(0, states[0])
    stacked.work(0, states[0], rights[0])
    for i0 in range(0, n, B):
        b = min(B, n - i0)
        stacked.interval(i0, avgs[i0 : i0 + b], mids[i0 : i0 + b])
        stacked.boundary(i0 + 1, states[i0 + 1 : i0 + 1 + b])
        stacked.work(i0 + 1, states[i0 + 1 : i0 + 1 + b], rights[i0 + 1 : i0 + 1 + b])
    a, b = one.trajectory(n + 1), stacked.trajectory(n + 1)
    assert np.all(a.nonlin_flux != 0.0) and np.all(a.mid_rhs_h2 != 0.0)
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray):
            other = getattr(b, name)
            assert value.dtype == other.dtype and value.shape == other.shape, name
            assert np.array_equal(value.view(np.uint64), other.view(np.uint64)), name
    assert len(a.snapshots) == len(b.snapshots)
    for x, y in zip(a.snapshots, b.snapshots):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
