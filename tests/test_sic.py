import numpy as np
import pytest

from csisense.channel import Scene, Target, simulate_capture
from csisense.rdmap import range_doppler
from csisense.sic import remove_dc
from csisense.waveform import doppler_resolution, make_config, range_resolution


def cfg_of(n=32, m=32):
    return make_config(n_subcarriers=n, n_frames=m,
                       subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
                       carrier_freq_hz=6.3e9)


def on_bin_mover(cfg, range_bin=5, doppler_bin=3, gain=1.0):
    return Target(range_bin * range_resolution(cfg),
                  doppler_bin * doppler_resolution(cfg), gain)


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
    map_alone = range_doppler(alone, cfg, window_fn="rect")
    map_clean = range_doppler(cleaned, cfg, window_fn="rect")
    assert map_clean.argmax_bin() == (3, 5)
    peak_alone = np.max(map_alone.magnitude())
    peak_clean = np.max(map_clean.magnitude())
    assert abs(peak_clean - peak_alone) / peak_alone < 1e-6


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
    rdm = range_doppler(cleaned, cfg, window_fn="rect")
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
        before = np.max(range_doppler(d, cfg, window_fn="rect").magnitude())
        after = np.max(range_doppler(remove_dc(d), cfg,
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
