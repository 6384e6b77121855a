import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisense.channel import Scene, Target, simulate_capture
from csisense.rdmap import range_doppler, range_profiles
from csisense.sic import remove_dc
from csisense.waveform import doppler_resolution, make_config, range_resolution


def cfg_of(n=32, m=32):
    return make_config(n_subcarriers=n, n_frames=m,
                       subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                       carrier_freq_hz=6.3e9)


def on_bin_mover(cfg, range_bin=5, doppler_bin=3, gain=1.0):
    return Target(range_bin * range_resolution(cfg),
                  doppler_bin * doppler_resolution(cfg), gain)


def peak_bin(rdm):
    """(Doppler bin, range bin) of the map's maximum."""
    row, col = np.unravel_index(np.argmax(rdm.values), rdm.values.shape)
    return row - rdm.n_doppler // 2, col


def test_constant_grid_removed_entirely():
    grid = np.full((8, 16), 2.0 - 1.0j)
    assert np.all(remove_dc(grid) == 0)


def test_column_means_zeroed():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    cleaned = remove_dc(grid)
    assert np.max(np.abs(np.mean(cleaned, axis=0))) < 1e-12


def test_on_bin_mover_untouched():
    cfg = cfg_of()
    d = simulate_capture(cfg, Scene(targets=(on_bin_mover(cfg),)))
    cleaned = remove_dc(d)
    assert np.max(np.abs(cleaned - d)) < 1e-9


def test_coupling_removed_mover_preserved():
    cfg = cfg_of()
    mover = on_bin_mover(cfg)
    alone = simulate_capture(cfg, Scene(targets=(mover,)))
    with_coupling = simulate_capture(
        cfg, Scene(targets=(mover,), coupling=Target(0.0, 0.0, 1000.0)))
    cleaned = remove_dc(with_coupling)
    map_alone = range_doppler(range_profiles(alone, "rect"), cfg,
                              window_fn="rect")
    map_clean = range_doppler(range_profiles(cleaned, "rect"), cfg,
                              window_fn="rect")
    assert peak_bin(map_clean) == (3, 5)
    peak_alone = np.max(map_alone.magnitude())
    peak_clean = np.max(map_clean.magnitude())
    assert abs(peak_clean - peak_alone) / peak_alone < 1e-6


def test_static_scene_silent_in_range_domain():
    # Mean removal on range profiles must silence a static scene too.
    cfg = cfg_of(n=64, m=16)
    scene = Scene(coupling=Target(0.0, 0.0, 100.0),
                  clutter=(Target(20.0, 0.0, 2.0), Target(5.0, 0.0, 1.0)))
    profiles = range_profiles(simulate_capture(cfg, scene), "hann")
    rdm = range_doppler(remove_dc(profiles), cfg, window_fn="hann")
    assert not np.any(rdm.values)


def test_idempotent():
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    once = remove_dc(grid)
    assert np.max(np.abs(remove_dc(once) - once)) < 1e-15


def test_linear():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lhs = remove_dc(2.0 * a + (1.0 - 3.0j) * b)
    rhs = 2.0 * remove_dc(a) + (1.0 - 3.0j) * remove_dc(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_zero_doppler_row_nulled():
    cfg = cfg_of()
    scene = Scene(targets=(on_bin_mover(cfg), Target(100.0, -0.21, 0.7)),
                  coupling=Target(0.0, 0.0, 50.0),
                  clutter=(Target(30.0, 0.0, 2.0),))
    cleaned = remove_dc(simulate_capture(cfg, scene))
    rdm = range_doppler(range_profiles(cleaned, "rect"), cfg, window_fn="rect")
    zero_row = rdm.n_doppler // 2
    energy = np.sum(rdm.magnitude() ** 2)
    assert np.sum(rdm.magnitude()[zero_row] ** 2) <= 1e-18 * energy


def test_slow_mover_loss_grows_as_doppler_shrinks():
    # Mean removal eats progressively more of a mover as its Doppler falls
    # inside the first bin; the detected peak is >3 dB down well below one
    # bin width, which is the low-velocity accuracy loss seen in practice.
    cfg = cfg_of()
    dv = doppler_resolution(cfg)
    losses = []
    for frac in (0.45, 0.3, 0.2, 0.1):
        d = simulate_capture(
            cfg, Scene(targets=(Target(50.0, frac * dv, 1.0),)))
        before = np.max(range_doppler(range_profiles(d, "rect"), cfg,
                                      window_fn="rect").magnitude())
        after = np.max(range_doppler(range_profiles(remove_dc(d), "rect"), cfg,
                                     window_fn="rect").magnitude())
        losses.append(20.0 * np.log10(before / after))
    assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))
    assert all(loss > 3.0 for loss in losses[1:])


def test_rejects_single_frame():
    with pytest.raises(ValueError):
        remove_dc(np.ones((1, 8), dtype=complex))


def test_subcarrier_vs_range_bin_equivalence():
    # Removing the mean per subcarrier then transforming equals transforming
    # then removing the mean per range bin (DFT linearity).
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    first = np.fft.ifft(remove_dc(grid), axis=1)
    profiles = np.fft.ifft(grid, axis=1)
    second = profiles - np.mean(profiles, axis=0, keepdims=True)
    assert np.max(np.abs(first - second)) < 1e-12


def test_static_complex64_grid_silent_at_its_own_precision():
    # Single-precision residue sits near float32's eps, far above
    # float64's, so the flush must scale with the grid's own precision.
    rng = np.random.default_rng(6)
    row = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    grid = np.tile(row, (7, 1)).astype(np.complex64)
    cleaned = remove_dc(grid)
    assert cleaned.dtype == np.complex64
    assert not np.any(cleaned)


def reference_remove_dc(grid):
    """``remove_dc`` with the whole-grid flush it skips when no part of any
    cell lies within the tolerance."""
    grid = np.asarray(grid)
    mean = np.mean(grid, axis=0, keepdims=True)
    out = grid - mean
    tolerance = 32.0 * np.finfo(out.dtype).eps * np.max(np.abs(mean))
    out[np.abs(out) <= tolerance] = 0.0
    return out


# Residues in units of the flush tolerance's eps times the column level.
_RESIDUE_STEPS = [0.0, 0.5, 0.7, 1.0, 16.0, 22.6, 31.0, 32.0, 33.0, 45.3,
                  64.0]
_SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-45, 2.0 ** -1022,
                  np.inf, -np.inf, np.nan]


@st.composite
def dc_grids(draw):
    """Small grids whose columns are a static level plus residues drawn at
    and around the flush tolerance, with ±0.0, subnormal, inf and NaN parts
    mixed in; complex, real and integer dtypes in either memory order."""
    dtype = np.dtype(draw(st.sampled_from(
        [np.complex128, np.complex64, np.float64, np.int64])))
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(1, 5))
    if dtype.kind == "i":
        levels = draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                               min_size=cols, max_size=cols))
        noise = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                              max_size=rows * cols))
        grid = (np.array(levels) + np.array(noise).reshape(rows, cols)
                ).astype(dtype)
        return np.asfortranarray(grid) if draw(st.booleans()) else grid
    real = np.finfo(dtype).dtype
    eps = float(np.finfo(real).eps)
    level = st.one_of(st.just(0.0), st.floats(
        min_value=-2.0 ** 100, max_value=2.0 ** 100, width=real.itemsize * 8))

    def parts():
        levels = draw(st.lists(level, min_size=cols, max_size=cols))
        out = np.empty((rows, cols), dtype=real)
        for r in range(rows):
            for c in range(cols):
                kind = draw(st.integers(0, 9), label="cell kind")
                if kind == 0:
                    out[r, c] = draw(st.sampled_from(_SPECIAL_PARTS))
                elif kind == 1:
                    out[r, c] = draw(st.floats(width=real.itemsize * 8))
                else:
                    step = draw(st.sampled_from(_RESIDUE_STEPS))
                    sign = draw(st.sampled_from([-1.0, 1.0]))
                    out[r, c] = levels[c] + sign * step * eps * abs(levels[c])
        return out

    if dtype.kind == "c":
        grid = np.empty((rows, cols), dtype=dtype)
        grid.real, grid.imag = parts(), parts()
    else:
        grid = parts().astype(dtype)
    # A column-major grid gives a column-major difference.
    return np.asfortranarray(grid) if draw(st.booleans()) else grid


@settings(max_examples=400, deadline=None)
@given(grid=dc_grids())
def test_remove_dc_matches_whole_grid_flush_bit_for_bit(grid):
    # The new array, out= a separate array and out= a copy of the grid in
    # the result's dtype, which is then overwritten.
    with np.errstate(all="ignore"):
        expected = reference_remove_dc(grid)
        got = remove_dc(grid)
        apart = np.empty(grid.shape, expected.dtype)
        assert remove_dc(grid, out=apart) is apart
        own = grid.astype(expected.dtype)
        assert remove_dc(own, out=own) is own
    for result in (got, apart, own):
        assert result.dtype == expected.dtype
        assert result.tobytes() == expected.tobytes()


# Peak of remove_dc(grid, out=grid) on a 32 x 512 complex128 grid, after a
# first call, on numpy 2.4: 0.14 MB, mostly the buffer of numpy's iterator
# for the broadcast mean, which holds 8192 elements. The bound stays below
# the 0.26 MB that each of a new output and the old |parts| took.
REMOVE_DC_OUT_PEAK_BYTES = 180_000


def test_remove_dc_into_out_makes_no_grid_sized_array():
    rng = np.random.default_rng(12)
    grid = rng.standard_normal((32, 1024)).view(complex)
    for _ in range(2):  # the first call may set up numpy's state
        tracemalloc.start()
        try:
            remove_dc(grid, out=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < REMOVE_DC_OUT_PEAK_BYTES < grid.nbytes
