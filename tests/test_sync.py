import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csisense import sync
from csisense.channel import Impairments, Scene, Target, simulate_capture
from csisense.sync import (MAX_UPSAMPLE_FACTOR, SyncParams, align_phases,
                           coarse_delay, compensate_delay, fine_delay,
                           frame_phases, synchronize, time_domain)
from csisense.waveform import make_config

WIFI = dict(subcarrier_spacing_hz=312.5e3, frame_interval_s=0.025,
            carrier_freq_hz=6.3e9)


def cfg_of(n=512, m=32):
    return make_config(n_subcarriers=n, n_frames=m, **WIFI)


def impaired_capture(cfg, offset=0.0, seed=1, jump_step=0.0, jump_prob=0.0,
                     drift=0.0, coupling_db=30.0, snr_db=None):
    scene = Scene(
        targets=(Target(0.6, -0.075, 1.0),),
        coupling=Target(0.0, 0.0, 10.0 ** (coupling_db / 20.0)),
        snr_db=snr_db,
        impairments=Impairments(delay_offset_samples=offset,
                                phase_jump_step_rad=jump_step,
                                phase_jump_prob=jump_prob,
                                phase_drift_std_rad=drift, rng_seed=seed))
    return simulate_capture(cfg, scene)


def test_coarse_delay_zero_shift():
    cfg = cfg_of(n=64, m=2)
    x = time_domain(impaired_capture(cfg))[0]
    assert coarse_delay(x, 16) == 0


def test_coarse_delay_circular_shift():
    cfg = cfg_of(n=64, m=2)
    x = time_domain(impaired_capture(cfg))[0]
    assert coarse_delay(np.roll(x, 3), 16) == 3


def test_coarse_delay_exhaustive_shifts():
    cfg = cfg_of(n=64, m=2)
    x = time_domain(impaired_capture(cfg, seed=9))[0]
    for k in range(-16, 17):
        assert coarse_delay(np.roll(x, k), 16) == k


def test_coarse_delay_with_coupling_offset():
    cfg = cfg_of()
    d = impaired_capture(cfg, offset=2.0)
    recv = time_domain(d)[0]
    assert coarse_delay(recv, cfg.n_subcarriers // 4) == 2


def test_coarse_delay_searches_only_within_max_lag():
    x = np.zeros(32, dtype=complex)
    x[[3, 9]] = [1.0, 2.0]
    assert coarse_delay(x, 8) == 3
    assert coarse_delay(x, 9) == 9
    x[-1] = 4.0  # lag -1 is the last sample
    assert coarse_delay(x, 8) == -1


def test_coarse_delay_all_zero_input():
    with pytest.raises(ValueError, match="no correlation peak"):
        coarse_delay(np.zeros(32, dtype=complex), 8)
    # Taps outside the search do not count, and the message says so.
    with pytest.raises(ValueError, match="no correlation peak: no tap "
                       r"within \+-8 is nonzero; the strongest tap lies "
                       "beyond max_lag"):
        coarse_delay(np.eye(32, dtype=complex)[9], 8)


def test_coarse_delay_rejects_max_lag_outside_sequence():
    for max_lag in (0, 32):
        with pytest.raises(ValueError, match=r"max_lag must be in \[1, 32\)"):
            coarse_delay(np.ones(32, dtype=complex), max_lag)


def test_fine_delay_keeps_coarse_lag_when_upsampling_underflows():
    # The smallest subnormal is a peak, but its upsampled copy is all zero.
    recv = np.full(4, 5e-324 + 0j)
    assert coarse_delay(recv, 1) == 0
    assert fine_delay(recv, 0, 2) == 0.0


def test_fine_delay_quarter_sample():
    cfg = cfg_of()
    d = impaired_capture(cfg, offset=0.25)
    recv = time_domain(d)[0]
    coarse = coarse_delay(recv, 16)
    fine = fine_delay(recv, coarse, 16)
    assert 0.1875 <= coarse + fine <= 0.3125


def test_fine_delay_integer_offset_near_zero():
    cfg = cfg_of()
    d = impaired_capture(cfg, offset=4.0)
    recv = time_domain(d)[0]
    fine = fine_delay(recv, 4, 16)
    assert abs(fine) <= 1.0 / 16.0


def test_fine_delay_unit_factor_is_zero():
    cfg = cfg_of()
    d = impaired_capture(cfg, offset=0.4)
    recv = time_domain(d)[0]
    assert fine_delay(recv, 0, 1) == 0.0


def test_fine_delay_error_bound_over_fractions():
    # Noiseless single path: error stays within half the refinement step.
    cfg = cfg_of(n=128, m=2)
    u = 16
    for offset in (-0.45, -0.13, 0.118, 0.31, 0.49):
        d = impaired_capture(cfg, offset=offset, coupling_db=40.0)
        recv = time_domain(d)[0]
        coarse = coarse_delay(recv, 16)
        fine = fine_delay(recv, coarse, u)
        assert abs(coarse + fine - offset) <= 1.0 / (2 * u) + 1e-9


def test_fine_delay_at_the_largest_factor():
    cfg = cfg_of()
    d = impaired_capture(cfg, offset=-1.3)
    recv = time_domain(d)[0]
    coarse = coarse_delay(recv, 16)
    fine = fine_delay(recv, coarse, MAX_UPSAMPLE_FACTOR)
    assert abs(coarse + fine + 1.3) <= 1.0 / 16.0


def test_compensate_identity():
    qpsk = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))
    grid = np.tile(qpsk[np.random.default_rng(3).integers(0, 4, 32)], (4, 1))
    assert np.array_equal(compensate_delay(grid, 0.0), grid)


def test_compensate_cancels_ramp():
    n = 32
    ramp = np.exp(-2j * np.pi * np.arange(n) * 3.0 / n)
    grid = np.tile(ramp, (4, 1))
    fixed = compensate_delay(grid, 3.0)
    assert np.allclose(fixed, np.ones((4, n)), atol=1e-12)


def test_compensated_coupling_sits_at_bin_zero():
    cfg = cfg_of()
    d = impaired_capture(cfg, offset=2.25)
    synced, report = synchronize(d)
    assert report.effective_lag_samples == pytest.approx(2.25, abs=1.0 / 16.0)
    profile = np.abs(np.fft.ifft(synced, axis=1))
    assert np.all(np.argmax(profile, axis=1) == 0)


def test_frame_phase_simple_rows():
    grid = np.ones((2, 8), dtype=complex)
    assert frame_phases(grid)[0] == 0.0
    grid2 = np.full((2, 8), np.exp(1j * np.pi / 4))
    assert frame_phases(grid2)[1] == pytest.approx(np.pi / 4, rel=1e-12)


def test_frame_phase_half_turn_ramp_matches_geometric_sum():
    n = 64
    row = np.exp(-2j * np.pi * np.arange(n) * 0.5 / n)
    grid = np.tile(row, (2, 1))
    # closed form: mean = (1/N) (1 - e^{-j pi}) / (1 - e^{-j pi/N})
    mean = (2.0 / n) / (1.0 - np.exp(-1j * np.pi / n))
    assert frame_phases(grid)[0] == pytest.approx(np.angle(mean), rel=1e-12)


def test_frame_phase_zero_mean_rejected():
    n = 8
    row = np.exp(2j * np.pi * np.arange(n) / n)  # full turn, zero mean
    grid = np.tile(row, (2, 1))
    assert np.isnan(frame_phases(grid)[0])


def test_align_cancels_exact_multiples():
    n = 16
    thetas = [0.0, np.pi, 0.0, np.pi]
    grid = np.array([np.full(n, np.exp(1j * t)) for t in thetas])
    aligned, report = align_phases(
        grid, SyncParams(phase_step_rad=np.pi, history_len=1))
    for m in range(4):
        assert frame_phases(aligned)[m] == pytest.approx(0.0, abs=1e-12)
    # only the pi-offset frames needed a correction
    assert np.abs(report.corrections_rad[1]) == np.pi
    assert report.corrections_rad[2] == 0.0
    assert np.abs(report.corrections_rad[3]) == np.pi


def test_align_preserves_small_drift():
    n = 16
    thetas = [0.0, 0.05, 0.1]
    grid = np.array([np.full(n, np.exp(1j * t)) for t in thetas])
    aligned, report = align_phases(grid, SyncParams(phase_step_rad=np.pi / 2))
    assert np.array_equal(aligned, grid)
    assert np.all(report.corrections_rad == 0.0)


def test_align_suppresses_injected_jumps():
    cfg = cfg_of(n=128, m=128)
    drift = 0.02
    d = impaired_capture(cfg, jump_step=np.pi / 2, jump_prob=0.2,
                         drift=drift, seed=5)
    aligned, _ = align_phases(d, SyncParams(phase_step_rad=np.pi / 2))
    phases = frame_phases(aligned)
    diffs = np.angle(np.exp(1j * np.diff(phases)))
    assert np.std(diffs) <= 3.0 * drift


def test_align_idempotent():
    cfg = cfg_of(n=64, m=64)
    d = impaired_capture(cfg, jump_step=np.pi / 2, jump_prob=0.3,
                         drift=0.01, seed=2)
    params = SyncParams(phase_step_rad=np.pi / 2)
    once, _ = align_phases(d, params)
    twice, second = align_phases(once, params)
    assert np.array_equal(once, twice)
    assert np.all(second.corrections_rad == 0.0)


def test_align_preserves_magnitudes_and_quantizes_fixes():
    cfg = cfg_of(n=64, m=64)
    d = impaired_capture(cfg, jump_step=np.pi / 2, jump_prob=0.4, seed=3)
    delta = np.pi / 2
    aligned, report = align_phases(d, SyncParams(phase_step_rad=delta))
    assert np.max(np.abs(np.abs(aligned) - np.abs(d))) < 1e-12
    ratios = report.corrections_rad / delta
    assert np.max(np.abs(ratios - np.round(ratios))) < 1e-12


def test_end_to_end_sync_stabilizes_reference_bin():
    cfg = cfg_of(n=256, m=64)
    delta = np.pi / 2
    d = impaired_capture(cfg, offset=3.25, jump_step=delta, jump_prob=0.15,
                         drift=0.02, seed=8)
    synced, _ = synchronize(d, SyncParams(phase_step_rad=delta))
    profile = np.fft.ifft(synced, axis=1)
    assert np.all(np.argmax(np.abs(profile), axis=1) == 0)
    bin0_phase = np.angle(profile[:, 0])
    diffs = np.angle(np.exp(1j * np.diff(bin0_phase)))
    assert np.max(np.abs(diffs)) < delta / 2.0


def test_sync_report_serializable():
    cfg = cfg_of(n=64, m=8)
    d = impaired_capture(cfg, offset=1.5)
    _, report = synchronize(d)
    doc = report.to_json_dict()
    assert doc["effective_lag_samples"] == pytest.approx(1.5, abs=1.0 / 16.0)
    assert len(doc["frame_phases_rad"]) == 8
    assert len(doc["corrections_rad"]) == 8
    assert len(doc["references_rad"]) == 8


def test_sync_params_validation():
    with pytest.raises(ValueError):
        SyncParams(upsample_factor=0)
    # Rejected before fine_delay allocates factor x n_subcarriers samples.
    for factor in (MAX_UPSAMPLE_FACTOR + 1, 100_000_000):
        with pytest.raises(ValueError, match=r"upsample_factor must be in "
                                             r"\[1, 1024\]"):
            SyncParams(upsample_factor=factor)
    assert SyncParams(upsample_factor=MAX_UPSAMPLE_FACTOR).upsample_factor \
        == 1024
    with pytest.raises(ValueError):
        SyncParams(phase_step_rad=0.0)
    with pytest.raises(ValueError):
        SyncParams(phase_step_rad=4.0)
    with pytest.raises(ValueError):
        SyncParams(history_len=0)


def test_coarse_delay_tie_breaks_toward_smaller_lag():
    # Every tap of a constant sequence ties.
    x = np.ones(16, dtype=complex)
    assert coarse_delay(x, 4) == 0
    assert fine_delay(x, 0, 4) == 0.0
    pair = np.zeros(16, dtype=complex)
    pair[[3, -3]] = [1.0, -1.0j]
    assert coarse_delay(pair, 4) == -3
    pair[2] = 1.0
    assert coarse_delay(pair, 4) == 2


def near_tie_grid():
    """Taps at lags 0 and 1 whose magnitudes differ by about a float32 ulp:
    a single-precision transform of this complex64 grid picks lag 0, the
    double-precision one lag 1."""
    rng = np.random.default_rng(1)
    gain = (1 + rng.uniform(-3e-7, 3e-7)) * np.exp(1j * rng.uniform(0, 6.3))
    row = 1 + gain * np.exp(-2j * np.pi * np.arange(64) / 64)
    return np.tile(row, (4, 1)).astype(np.complex64)


@pytest.mark.parametrize("make_grid", [
    lambda: impaired_capture(cfg_of(n=128, m=16), offset=1.7,
                             jump_step=np.pi / 2, jump_prob=0.3,
                             seed=4).astype(np.complex64),
    near_tie_grid])
def test_synchronize_complex64_equals_its_upcast(make_grid):
    single = make_grid()
    synced, report = synchronize(single)
    expected, expected_report = synchronize(single.astype(complex))
    assert synced.dtype == np.complex128
    assert synced.tobytes() == expected.tobytes()
    assert report.to_json_dict() == expected_report.to_json_dict()


def test_fine_delay_wraps_past_the_last_sample():
    # Coarse lag n - 1 is lag -1; the tap at lag 0 sits one sample later,
    # at index n of the sequence, which wraps to 0.
    x = np.eye(8, dtype=complex)[0]
    assert fine_delay(x, 7, 4) == 1.0


# The per-frame phase loop and the frame-stack lag search that sync used to
# run, kept as references for bit-exact comparison.
def _reference_frame_phase(grid, frame):
    row = np.atleast_2d(grid)[frame]
    mean = np.mean(row)
    scale = np.max(np.abs(row))
    if scale == 0.0 or np.abs(mean) < 1e-12 * scale:
        raise ValueError(f"frame {frame} has zero mean; phase undefined")
    return float(np.angle(mean))


def _reference_align_phases(grid, p):
    out = np.array(grid, dtype=complex, copy=True)
    n_frames = out.shape[0]
    delta = p.phase_step_rad

    def observed(index, fallback):
        try:
            return _reference_frame_phase(out, index)
        except ValueError:
            return fallback

    theta0 = observed(0, 0.0)
    raw = [theta0]
    corrected = [theta0]
    fixes = [0.0]
    refs = [theta0]
    for m in range(1, n_frames):
        theta = observed(m, corrected[-1])
        reference = sync._circular_mean(np.array(corrected[-p.history_len:]))
        fix = np.round(sync._wrap(reference - theta) / delta) * delta
        if fix != 0.0:
            out[m] *= np.exp(1j * fix)
        raw.append(theta)
        corrected.append(sync._wrap(theta + fix))
        fixes.append(float(fix))
        refs.append(reference)
    return out, (np.array(raw), np.array(fixes), np.array(refs))


def _reference_lag_magnitudes(reference, received, lags):
    rows = np.atleast_2d(received)
    mags = np.empty(len(lags))
    for i, lag in enumerate(lags):
        shifted = np.roll(rows, -lag, axis=-1)
        mags[i] = np.sum(np.abs(shifted @ np.conj(reference)))
    return mags


def _reference_upsample(x, factor):
    spectrum = np.fft.fft(x, axis=-1)
    pad = [(0, 0)] * (spectrum.ndim - 1) + [(0, (factor - 1) * x.shape[-1])]
    return np.fft.ifft(np.pad(spectrum, pad), axis=-1) * factor


def _reference_ordered_lags(half_width):
    return sorted(range(-half_width, half_width + 1),
                  key=lambda l: (abs(l), l > 0))


def _reference_delays(reference, received, max_lag, u):
    """(coarse, fine) by the reference search, or None without a peak."""
    lags = _reference_ordered_lags(max_lag)
    mags = _reference_lag_magnitudes(reference, received, lags)
    if np.max(mags) == 0.0:
        return None
    coarse = lags[int(np.argmax(mags))]
    if u == 1:
        return coarse, 0.0
    offsets = _reference_ordered_lags(u)
    mags = _reference_lag_magnitudes(
        _reference_upsample(reference, u), _reference_upsample(received, u),
        [coarse * u + off for off in offsets])
    return coarse, offsets[int(np.argmax(mags))] / u


@st.composite
def _frame_grids(draw):
    n_frames, n = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):  # small integers: exact zeros and exact ties
        re, im = rng.integers(-3, 4, size=(2, n_frames, n)).astype(float)
    else:
        re, im = rng.standard_normal((2, n_frames, n))
    kinds = np.array(draw(st.lists(
        st.sampled_from(["drawn", "zero", "zero-mean", "near-zero-mean"]),
        min_size=n_frames, max_size=n_frames)))
    half = n // 2
    zero_mean = np.isin(kinds, ["zero-mean", "near-zero-mean"])
    for x in (re, im):
        # Every value paired with its negative (and a trailing zero for odd
        # n): the row mean is exactly zero. Adding 0.0 turns -0.0 into +0.0:
        # a fix of 0 multiplies its frame by exp(0j) = 1+0j, which keeps
        # every value but not the sign of a zero.
        x[zero_mean, half:2 * half] = -x[zero_mean, :half] + 0.0
        x[zero_mean, 2 * half:] = 0.0
        x[kinds == "zero"] = 0.0
    grid = re + 1j * im
    # A mean of 1e-14 to 1e-8 of the row's largest magnitude straddles the
    # 1e-12 threshold below which the frame phase is undefined.
    for m in np.flatnonzero(kinds == "near-zero-mean"):
        grid[m, 0] += n * 10.0 ** rng.uniform(-14, -8) * max(
            np.max(np.abs(grid[m])), 1.0)
    return grid.astype(np.complex64) if draw(st.booleans()) else grid


@settings(max_examples=200, deadline=None)
@given(grid=_frame_grids(), history_len=st.integers(1, 6),
       delta=st.sampled_from([np.pi / 3, np.pi / 2, np.pi]))
def test_align_phases_matches_per_frame_reference(grid, history_len, delta):
    params = SyncParams(phase_step_rad=delta, history_len=history_len)
    expected, expected_arrays = _reference_align_phases(grid, params)
    aligned, report = align_phases(grid, params)
    assert aligned.tobytes() == expected.tobytes()
    arrays = (report.frame_phases_rad, report.corrections_rad,
              report.references_rad)
    for got, want in zip(arrays, expected_arrays):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(4, 48), u=st.integers(1, 8),
       kind=st.sampled_from(["drawn", "constant", "pair"]))
def test_delays_match_reference_search(data, n, u, kind):
    """The strongest tap is what the correlator against the unit tap found.

    Coarse lags always agree. Fine lags agree wherever the correlator's peak
    is unique; on exact ties the correlator's upsampled reference broke the
    tie by rounding, and the search now takes the first tied lag in the
    documented order (nearest the coarse lag, the smaller one first).
    """
    max_lag = data.draw(st.integers(1, n - 1))
    elements = st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                                  allow_infinity=False)
    if kind == "pair":  # equal peaks at -k and +k
        k = data.draw(st.integers(1, min(max_lag, n // 2)))
        received = np.eye(n, dtype=complex)[k] + np.eye(n, dtype=complex)[-k]
    else:
        values = (elements.map(lambda value: np.full(n, value))
                  if kind == "constant"  # every lag ties
                  else hnp.arrays(complex, n, elements=elements))
        received = data.draw(values)
    reference = np.eye(n, dtype=complex)[0]
    expected = _reference_delays(reference, received, max_lag, u)
    if expected is None:
        with pytest.raises(ValueError, match="no correlation peak"):
            coarse_delay(received, max_lag)
        return
    coarse = coarse_delay(received, max_lag)
    assert coarse == expected[0]
    fine = fine_delay(received, coarse, u)
    if u == 1:
        assert fine == expected[1] == 0.0
        return
    offsets = _reference_ordered_lags(u)
    reference_mags = _reference_lag_magnitudes(
        _reference_upsample(reference, u), _reference_upsample(received, u),
        [coarse * u + off for off in offsets])
    peak = np.max(reference_mags)
    tied = reference_mags >= peak * (1.0 - 1e-9)
    if np.count_nonzero(tied) == 1:
        assert fine == expected[1]
        return
    # A tie: the first lag in tie order among the strongest taps of the
    # upsampled sequence, which is one of the correlator's tied peaks.
    upsampled = _reference_upsample(received, u)
    mags = np.abs(upsampled[(coarse * u + np.array(offsets)) % len(upsampled)])
    first = offsets[int(np.flatnonzero(mags == np.max(mags))[0])]
    assert fine == first / u
    assert tied[offsets.index(first)]
