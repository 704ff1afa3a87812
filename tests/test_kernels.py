"""Backend-parity and profiling tests for the kernel tier.

The load-bearing properties:

* every kernel agrees across backends — ``reference`` (the original
  math, verbatim) pins ``numpy`` to tight tolerances, so
  ``REPRO_BACKEND`` is a speed knob, never an answer knob;
* the numpy successive-cancellation kernel is *bitwise* its
  ``reference`` spec over a hypothesis-drawn domain (ties, zeros,
  edge peaks, non-finite cells, every ``n_bins`` shape class), also
  when one scratch dict serves a sequence of calls whose row count
  grows, shrinks and repeats;
* the single-person tick kernels (contour tick, outlier gate, in-place
  Kalman tick) are *bitwise* their ``reference`` specs, outputs and
  every state array, over non-finite and huge cells, rows without a
  local maximum, every bin-count class, ``min_bin`` at the edges, 1-5
  confirmation frames, and fresh, live and missing Kalman rows — also
  when one scratch dict serves calls whose row count shrinks and grows;
* ``reference`` registers every kernel ``numpy`` does, so dispatch
  needs no fallback;
* the numpy synthesis kernel's internal optimizations — sweep tiling,
  scratch-buffer reuse, rank-grouped scatter, sweep tiles on worker
  threads — are *bitwise* invisible;
* the fused cohort source is bitwise the per-session source (noise-free)
  on every frame of every chunk, for mixed rooms, bodies and gestures,
  and its noisy frames depend on neither the chunking, the cohort nor
  the worker count;
* profiling off means off: no profiler on the pipeline, no
  ``stage_profile`` counters in any result.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config
from repro.exec import ShardedStreamRunner
from repro.geometry.antennas import t_array
from repro.kernels import (
    accumulate_spectra,
    active_backend,
    backend_name,
    background_power,
    contour_tick,
    enable_profiling,
    first_local_max_above,
    kalman_tick,
    outlier_gate,
    profiling_enabled,
    reset_profiling_override,
    row_median,
    set_backend,
    successive_cancel,
    use_backend,
)
from repro.kernels import backend, synthesis
from repro.kernels.backend import parallel_ranges
from repro.serve import ServingEngine, single_session
from repro.sim import CohortFrameSource, Scenario, ScenarioStream
from repro.sim.body import GatedAR1, sample_population
from repro.sim.gestures import pointing_session
from repro.sim.motion import random_walk, stand_still
from repro.sim.room import line_of_sight_room, through_wall_room


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend the way it found it."""
    before = backend_name()
    yield
    set_backend(before)


@pytest.fixture(autouse=True)
def _profiling_off(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_profiling_override()
    yield
    reset_profiling_override()


def _accumulate_inputs(seed, n_streams=6, paths_per=4, n_sweeps=37,
                       n_bins=64):
    rng = np.random.default_rng(seed)
    n_paths = n_streams * paths_per
    frac = rng.uniform(-3.0, n_bins + 3.0, (n_paths, n_sweeps))
    # Force the special branches: exact bin hits, both edges, and two
    # same-stream paths colliding on the same cells.
    frac[0, :] = 11.0
    frac[1, :5] = 0.4
    frac[2, :5] = n_bins - 0.4
    frac[3] = frac[4]
    coeff = rng.standard_normal((n_paths, n_sweeps)) + 1j * (
        rng.standard_normal((n_paths, n_sweeps))
    )
    row_base = np.repeat(
        np.arange(n_streams, dtype=np.int64) * n_sweeps, paths_per
    )
    out_shape = (n_streams * n_sweeps, n_bins)
    return frac, coeff, row_base, out_shape


def _run_accumulate(name, frac, coeff, row_base, out_shape, hann=True,
                    half=4):
    with use_backend(name):
        out = np.zeros(out_shape, dtype=np.complex128)
        accumulate_spectra(out, frac, coeff, row_base, half, 500, hann)
    return out


@st.composite
def accumulate_inputs(draw):
    """``accumulate_spectra`` arguments over the numpy kernel's branches.

    One to four streams of zero to four paths each (no paths at all is
    the no-op case), in any order; one sweep (the clutter-template
    branch) or many; windows of 3-9 bins over rows of 4-64 bins, with
    every center inside its row's interior or anywhere from past the
    left edge to past the right one (edge-row groups), exact bin hits,
    and two same-stream paths on the same cells. ``tile_cells`` sets the
    sweep tile from one sweep (more tiles than workers, or fewer) to
    every sweep (a single tile).
    """
    n_streams = draw(st.integers(1, 4))
    paths_per = draw(st.integers(0, 4))
    n_sweeps = draw(st.sampled_from([1, 2, 3, 5, 9, 31]))
    n_bins = draw(st.sampled_from([4, 9, 23, 64]))
    half = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_paths = n_streams * paths_per
    shape = (n_paths, n_sweeps)
    if draw(st.booleans()) and n_bins > 2 * half + 2:
        frac = rng.uniform(half, n_bins - 1 - half, shape)
    else:
        frac = rng.uniform(-half - 3.0, n_bins + half + 3.0, shape)
    if n_paths and draw(st.booleans()):
        frac[0] = np.rint(frac[0])
    if paths_per >= 2 and draw(st.booleans()):
        frac[1] = frac[0]
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    row_base = np.repeat(
        np.arange(n_streams, dtype=np.int64) * n_sweeps, paths_per
    )
    order = rng.permutation(n_paths)
    return (
        frac[order],
        coeff[order],
        row_base[order],
        (n_streams * n_sweeps, n_bins),
        half,
        draw(st.booleans()),
        draw(st.sampled_from([1, 64, 400, 1 << 16])),
    )


class TestAccumulateParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("hann", [True, False])
    def test_reference_pins_numpy(self, seed, hann):
        frac, coeff, row_base, shape = _accumulate_inputs(seed)
        ref = _run_accumulate("reference", frac, coeff, row_base, shape, hann)
        got = _run_accumulate("numpy", frac, coeff, row_base, shape, hann)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            got, ref, rtol=1e-11, atol=1e-12 * scale
        )

    def test_template_branch_parity(self):
        """The one-sweep (clutter-template) path agrees too."""
        frac, coeff, row_base, _ = _accumulate_inputs(7, n_sweeps=1)
        shape = (row_base.max() + 1, 64)
        ref = _run_accumulate("reference", frac, coeff, row_base, shape)
        got = _run_accumulate("numpy", frac, coeff, row_base, shape)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            got, ref, rtol=1e-11, atol=1e-12 * scale
        )

    def test_accumulates_into_prefilled_out(self):
        """out= arrives prefilled (the static clutter template): adds."""
        frac, coeff, row_base, shape = _accumulate_inputs(3)
        rng = np.random.default_rng(0)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with use_backend("numpy"):
            a = base.copy()
            accumulate_spectra(a, frac, coeff, row_base, 4, 500, True)
            b = np.zeros(shape, dtype=np.complex128)
            accumulate_spectra(b, frac, coeff, row_base, 4, 500, True)
        # Sequential in-place adds, so up-to-rounding (not bitwise) of
        # the re-associated base + b.
        np.testing.assert_allclose(a, base + b, rtol=0, atol=1e-12)

    def test_tile_size_is_bitwise_invisible(self, monkeypatch):
        """Sweep tiling is an exact-invariant chunking, not an approx."""
        frac, coeff, row_base, shape = _accumulate_inputs(11, n_sweeps=53)
        big = _run_accumulate("numpy", frac, coeff, row_base, shape)
        monkeypatch.setattr(synthesis, "_TILE_CELLS", 64)
        monkeypatch.setattr(synthesis, "_SCRATCH", {})
        tiny = _run_accumulate("numpy", frac, coeff, row_base, shape)
        assert np.array_equal(big, tiny)

    def test_scratch_reuse_is_bitwise_invisible(self):
        """Back-to-back calls (warm scratch) repeat the cold result."""
        frac, coeff, row_base, shape = _accumulate_inputs(13)
        cold = _run_accumulate("numpy", frac, coeff, row_base, shape)
        warm = _run_accumulate("numpy", frac, coeff, row_base, shape)
        assert np.array_equal(cold, warm)

    @given(args=accumulate_inputs())
    @settings(max_examples=120, deadline=None)
    def test_reference_pins_numpy_over_the_domain(self, args):
        """Zero paths included: both backends leave ``out`` alone."""
        frac, coeff, row_base, shape, half, hann, tile_cells = args
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_TILE_CELLS", tile_cells)
            outs = [
                _run_accumulate(name, frac, coeff, row_base, shape, hann,
                                half)
                for name in ("reference", "numpy")
            ]
        ref, got = outs
        if len(frac) == 0:
            assert not ref.any() and not got.any()
        np.testing.assert_allclose(
            got, ref, rtol=1e-11, atol=1e-12 * np.abs(ref).max(initial=0.0)
        )

    @given(args=accumulate_inputs())
    @settings(max_examples=120, deadline=None)
    def test_worker_count_is_bitwise_invisible(self, args):
        """Sweep tiles on 1, 2 or 3 workers: the same adds per cell."""
        frac, coeff, row_base, shape, half, hann, tile_cells = args
        outs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_TILE_CELLS", tile_cells)
            for workers in (1, 2, 3):
                mp.setattr(backend, "_workers", workers)
                outs.append(
                    _run_accumulate("numpy", frac, coeff, row_base, shape,
                                    hann, half)
                )
        assert all(_bitwise_equal(outs[0], other) for other in outs[1:])


class TestContourKernels:
    @pytest.mark.parametrize("n_bins", [7, 8, 171])
    def test_row_median_matches_np_median(self, n_bins):
        rng = np.random.default_rng(n_bins)
        power = rng.uniform(0.0, 5.0, (23, n_bins))
        with use_backend("numpy"):
            got = row_median(power)
        assert np.array_equal(got, np.median(power, axis=1))

    def test_first_local_max_matches_scalar_scan(self):
        rng = np.random.default_rng(2)
        power = rng.uniform(0.0, 1.0, (50, 40))
        threshold = rng.uniform(0.3, 0.9, 50)
        min_bin = 3

        def scalar(row, thr):
            for k in range(max(min_bin, 1), len(row) - 1):
                if row[k] < thr:
                    continue
                if row[k] >= row[k - 1] and row[k] >= row[k + 1]:
                    return k
            return -1

        expected = np.array(
            [scalar(power[i], threshold[i]) for i in range(len(power))]
        )
        for backend in ("numpy", "reference"):
            with use_backend(backend):
                got = first_local_max_above(power, threshold, min_bin)
            assert np.array_equal(got, expected)

    def test_background_power_backends_agree_bitwise(self):
        rng = np.random.default_rng(5)
        diff = rng.standard_normal((30, 64)) + 1j * rng.standard_normal(
            (30, 64)
        )
        with use_backend("numpy"):
            got = background_power(diff, np.empty(diff.shape))
        with use_backend("reference"):
            ref = background_power(diff, np.empty(diff.shape))
        assert np.array_equal(got, ref)


@st.composite
def cancellation_inputs(draw):
    """``successive_cancel`` arguments over the kernel's whole domain.

    Rows are ``|z|^2``, as the background stage makes them: on a coarse
    integer grid (exact ties and zeros) or off it, with reflector peaks
    anywhere and within ``h`` bins of either edge, some all-zero rows
    and some quiet ones. A few cells may be NaN, inf or 1e300. ``n_bins``
    runs 1-40 (odd, even, below 3) and the first scanned bin up to past
    ``n_bins - 2``; ``max_targets`` 1-7; the null half-width from under
    one bin to six; thresholds up to 40 dB, where nothing clears.
    """
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_bins = draw(st.integers(min_value=1, max_value=40))
    range_bin_m = draw(st.sampled_from([0.05, 0.1773919869822485, 1.0]))
    half_bins = draw(st.floats(min_value=0.1, max_value=6.0))
    h = int(np.ceil(half_bins))
    coarse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_rows, n_bins)
    if coarse:
        z = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    else:
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    edge_bins = st.one_of(
        st.integers(0, n_bins - 1),
        st.integers(0, min(h + 1, n_bins - 1)),
        st.integers(max(n_bins - h - 2, 0), n_bins - 1),
    )
    for _ in range(draw(st.integers(0, 2 * n_rows))):
        row = draw(st.integers(0, n_rows - 1))
        centre = draw(edge_bins)
        if coarse:
            amp = draw(st.sampled_from([3, 8, 40]))
        else:
            amp = draw(st.floats(2.0, 50.0))
        for d, share in ((-1, 0.5), (0, 1.0), (1, 0.5)):
            if 0 <= centre + d < n_bins:
                z[row, centre + d] += amp * share
    for row in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
        z[row] = draw(st.sampled_from([0.0, 1.0]))  # all-zero or flat
    power = np.abs(z) ** 2
    for _ in range(draw(st.integers(0, 3))):
        power[
            draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_bins - 1))
        ] = draw(st.sampled_from([np.nan, np.inf, 1e300]))
    min_bin = draw(
        st.one_of(st.integers(-1, 3), st.integers(-1, n_bins + 1))
    )
    return (
        power,
        range_bin_m,
        draw(st.integers(min_value=1, max_value=7)),
        draw(st.sampled_from([0.0, 6.0, 10.0, 40.0])),
        (min_bin - 0.5) * range_bin_m,
        half_bins * range_bin_m,
        draw(st.sampled_from([10.0, 26.0, 36.0, 80.0])),
    )


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes()
    )


def _assert_cancel_is_reference(args, scratch):
    """The numpy kernel through ``scratch`` leaves ``power`` as it was
    and returns bitwise a fresh reference call's outputs."""
    power = args[0]
    before = power.copy()
    with use_backend("numpy"):
        got = successive_cancel(*args, scratch)
    assert _bitwise_equal(power, before)
    with use_backend("reference"):
        want = successive_cancel(*args, {})
    assert got[3] == want[3]
    for fast, spec in zip(got[:3], want[:3]):
        assert _bitwise_equal(fast, spec)


@st.composite
def cancellation_sequences(draw):
    """Calls that share one scratch dict: ``cancellation_inputs`` with
    one set of kernel parameters, as a stage makes them, and row
    counts that grow, shrink and repeat."""
    first = draw(cancellation_inputs())
    power, params = first[0], first[1:]
    n_bins = power.shape[1]
    calls = [first]
    for n_rows in draw(st.lists(st.integers(1, 9), min_size=2, max_size=8)):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.integers(0, len(power), n_rows)
        block = power[rows] * rng.uniform(0.5, 2.0, (n_rows, 1))
        calls.append((np.ascontiguousarray(block), *params))
    if draw(st.booleans()):  # another bin count or null band: new buffers
        calls.append(draw(cancellation_inputs()))
    return calls


class TestSuccessiveCancelSpec:
    @given(args=cancellation_inputs())
    @settings(max_examples=400, deadline=None)
    def test_numpy_is_reference_bitwise(self, args):
        _assert_cancel_is_reference(args, {})

    @given(calls=cancellation_sequences())
    @settings(max_examples=150, deadline=None)
    def test_reused_registers_are_reference_bitwise(self, calls):
        """One scratch dict serves every call, as in a stage: a padded
        residual, a nulled band or a bound plane left by one call never
        shows in the next."""
        scratch = {}
        for args in calls:
            _assert_cancel_is_reference(args, scratch)


#: Cells the tick-kernel properties plant: non-finite, huge, negative.
ODD_CELLS = [np.nan, np.inf, -np.inf, 1e300, -1.0]


@st.composite
def contour_inputs(draw):
    """``contour_tick`` arguments: ``(power, range_bin_m, threshold_db,
    min_range_m, relative_threshold_db)``.

    ``n_bins`` 1-40 (odd, even, below 3); peaks anywhere, rows with no
    local maximum (monotone), all-zero and flat rows; a few NaN, +-inf,
    1e300 or negative cells; the first scanned bin from before the
    array to past its end.
    """
    n_rows = draw(st.integers(1, 6))
    n_bins = draw(st.integers(1, 40))
    range_bin_m = draw(st.sampled_from([0.05, 0.1773919869822485, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n_rows, n_bins)) + 1j * rng.standard_normal(
        (n_rows, n_bins)
    )
    power = np.abs(z) ** 2
    for _ in range(draw(st.integers(0, 2 * n_rows))):
        row = draw(st.integers(0, n_rows - 1))
        power[row, draw(st.integers(0, n_bins - 1))] += draw(
            st.floats(2.0, 500.0)
        )
    for row in draw(st.lists(st.integers(0, n_rows - 1), max_size=3)):
        kind = draw(st.sampled_from(["ramp", "zero", "flat"]))
        if kind == "ramp":  # monotone: no local maximum
            power[row] = np.cumsum(power[row])
        else:
            power[row] = 0.0 if kind == "zero" else 1.0
    for _ in range(draw(st.integers(0, 3))):
        power[
            draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_bins - 1))
        ] = draw(st.sampled_from(ODD_CELLS))
    min_bin = draw(st.one_of(st.integers(-1, 3), st.integers(-1, n_bins + 1)))
    return (
        power,
        range_bin_m,
        draw(st.sampled_from([0.0, 6.0, 12.0, 40.0])),
        (min_bin - 0.5) * range_bin_m,
        draw(st.sampled_from([10.0, 26.0, 80.0])),
    )


def _cells(draw, rng, shape, odd=True):
    """Finite values on a coarse grid (exact ties) or off it, with some
    NaN and (``odd``) infinite or huge cells."""
    if draw(st.booleans()):
        values = rng.integers(0, 8, shape) * 0.1
    else:
        values = rng.uniform(0.0, 8.0, shape)
    pool = ODD_CELLS if odd else [np.nan]
    for _ in range(draw(st.integers(0, values.size))):
        values[tuple(rng.integers(0, d) for d in shape)] = draw(
            st.sampled_from(pool)
        )
    return values


@st.composite
def gate_inputs(draw):
    """Four frames of ``outlier_gate`` input for a random gate state:
    last values near or far from the frames (or NaN), pending buffers
    with agreeing and disagreeing candidates, 1-5 confirmation frames."""
    n = draw(st.integers(1, 4))
    a = draw(st.integers(1, 3))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    last = _cells(draw, rng, (n, a))
    since = rng.integers(1, 6, (n, a)).astype(np.int64)
    pending_len = rng.integers(0, p + 1, (n, a)).astype(np.int64)
    pending = _cells(draw, rng, (n, a, p))
    pending[np.arange(p) >= pending_len[:, :, None]] = np.nan
    frames = [_cells(draw, rng, (n, a)) for _ in range(4)]
    max_jump = draw(st.sampled_from([0.05, 0.15, 1.0]))
    agreement = draw(st.sampled_from([2.0 * max_jump, 0.3, 2.0]))
    return frames, (last, since, pending, pending_len), max_jump, agreement


@st.composite
def kalman_inputs(draw):
    """Four frames of ``kalman_tick`` input for a bank of fresh and live
    filters, with a velocity decay of 1.0 (sessions), 0.97 (tracks) or
    any in [0, 1].

    Frames carry missing (NaN), infinite or huge values (``mixed``); or
    every filter is live and measured (``steady``); or every filter is
    live and some cells are NaN (``bank``: a track bank's claims).
    ``mean`` and ``cov`` are fields of one structured record array, the
    strided views a track bank passes, or (``strided`` False)
    contiguous arrays, as a stage's state rows are.
    """
    n = draw(st.integers(1, 4))
    a = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = draw(st.sampled_from(["mixed", "steady", "bank"]))
    if case == "mixed":
        live = rng.random((n, a)) < 0.5
    else:
        live = np.ones((n, a), bool)
    records = np.zeros(n, dtype=np.dtype([
        ("id", np.int64),
        ("mean", np.float64, (a, 2)),
        ("cov", np.float64, (a, 2, 2)),
        ("status", np.int8),
    ], align=True))
    records["id"] = np.arange(n)
    records["mean"] = rng.uniform(-3.0, 3.0, (n, a, 2))
    records["cov"] = rng.uniform(0.0, 1.0, (n, a, 2, 2))
    frames = []
    for _ in range(4):
        if case == "mixed":
            frames.append(_cells(draw, rng, (n, a)))
            continue
        values = rng.uniform(0.0, 8.0, (n, a))
        if case == "bank":
            values[rng.random((n, a)) < 0.3] = np.nan
        frames.append(values)
    dt = draw(st.sampled_from([0.0125, 0.5]))
    decay = draw(st.one_of(st.sampled_from([1.0, 0.97]), st.floats(0.0, 1.0)))
    return frames, records, live, draw(st.booleans()), dt, decay


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes()
    )


class TestTickKernelSpecs:
    """The single-person tick kernels are bitwise their specs."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(args=contour_inputs())
    @settings(max_examples=300, deadline=None)
    def test_contour_tick(self, args):
        power = args[0]
        before = power.copy()
        scratch = {}
        with use_backend("numpy"):
            got = contour_tick(*args, scratch)
            again = contour_tick(*args, scratch)  # reused scratch
        assert _same_bytes(power, before)
        with use_backend("reference"):
            want = contour_tick(*args, {})
        for fast, repeat, spec in zip(got, again, want):
            assert _same_bytes(fast, spec)
            assert _same_bytes(repeat, spec)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(args=gate_inputs())
    @settings(max_examples=300, deadline=None)
    def test_outlier_gate(self, args):
        frames, state, max_jump, agreement = args
        fast = [x.copy() for x in state]
        spec = [x.copy() for x in state]
        scratch = {}
        for values in frames:
            with use_backend("numpy"):
                got = outlier_gate(values, *fast, max_jump, agreement,
                                   scratch)
            with use_backend("reference"):
                want = outlier_gate(values, *spec, max_jump, agreement, {})
            assert _same_bytes(got, want)
            for f, w in zip(fast, spec):
                assert _same_bytes(f, w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(args=kalman_inputs())
    @settings(max_examples=300, deadline=None)
    def test_kalman_tick(self, args):
        frames, records, live, strided, dt, decay = args
        noise = (dt, 1e-4, 1e-3, 1e-2, 0.05, decay)

        def bank():
            slab = records.copy()
            if strided:
                return slab, [slab["mean"], slab["cov"], live.copy()]
            return slab, [slab["mean"].copy(), slab["cov"].copy(),
                          live.copy()]

        fast_slab, fast = bank()
        spec_slab, spec = bank()
        scratch = {}
        for values in frames:
            with use_backend("numpy"):
                got = kalman_tick(values, *fast, *noise, scratch)
            with use_backend("reference"):
                want = kalman_tick(values, *spec, *noise, {})
            assert _same_bytes(got, want)
            for f, w in zip(fast, spec):
                assert _same_bytes(f, w)
        # The filter state is all a tick writes.
        for slab in (fast_slab, spec_slab):
            assert _same_bytes(slab["id"], records["id"])
            assert _same_bytes(slab["status"], records["status"])


def _row_counts(n):
    """Per-call row counts for the resizing cases: a shrink and a
    regrowth first (``n``, one row, ``n``), then any mix."""
    return st.lists(st.integers(1, n), max_size=4).map(
        lambda more: [n, 1, n, *more]
    )


class TestRegisterResizing:
    """A kernel's registers grow to the largest row count a scratch dict
    has seen, and each call computes through ``[:rows]`` views: with the
    row count shrinking and growing call to call, outputs and state stay
    bitwise the spec's."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(args=contour_inputs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_contour_tick(self, args, data):
        power, *rest = args
        scratch = {}
        for rows in data.draw(_row_counts(len(power))):
            with use_backend("numpy"):
                got = contour_tick(power[:rows], *rest, scratch)
            with use_backend("reference"):
                want = contour_tick(power[:rows], *rest, {})
            for fast, spec in zip(got, want):
                assert _same_bytes(fast, spec)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(args=gate_inputs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_outlier_gate(self, args, data):
        frames, state, max_jump, agreement = args
        fast = [x.copy() for x in state]
        spec = [x.copy() for x in state]
        scratch = {}
        counts = data.draw(_row_counts(len(frames[0])))
        for k, rows in enumerate(counts):
            values = frames[k % len(frames)][:rows]
            with use_backend("numpy"):
                got = outlier_gate(values, *(x[:rows] for x in fast),
                                   max_jump, agreement, scratch)
            with use_backend("reference"):
                want = outlier_gate(values, *(x[:rows] for x in spec),
                                    max_jump, agreement, {})
            assert _same_bytes(got, want)
            for f, w in zip(fast, spec):
                assert _same_bytes(f, w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(args=kalman_inputs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_kalman_tick(self, args, data):
        frames, records, live, _, dt, decay = args
        noise = (dt, 1e-4, 1e-3, 1e-2, 0.05, decay)
        fast = [records["mean"].copy(), records["cov"].copy(), live.copy()]
        spec = [x.copy() for x in fast]
        scratch = {}
        counts = data.draw(_row_counts(len(live)))
        for k, rows in enumerate(counts):
            values = frames[k % len(frames)][:rows]
            with use_backend("numpy"):
                got = kalman_tick(values, *(x[:rows] for x in fast), *noise,
                                  scratch)
            with use_backend("reference"):
                want = kalman_tick(values, *(x[:rows] for x in spec), *noise,
                                   {})
            assert _same_bytes(got, want)
            for f, w in zip(fast, spec):
                assert _same_bytes(f, w)
        assert len(scratch["miss"]) == len(live)  # the largest rows seen


class TestBackendSeam:
    def test_unknown_backend_rejected(self):
        for name in ("cupy", "numba"):
            with pytest.raises(
                ValueError,
                match=f"^unknown backend '{name}'; "
                "choose from: numpy, reference$",
            ):
                set_backend(name)

    def test_use_backend_restores(self):
        before = backend_name()
        with use_backend("reference"):
            assert backend_name() == "reference"
        assert backend_name() == before

    def test_static_split_flags(self):
        with use_backend("reference"):
            assert active_backend().static_split is False
        with use_backend("numpy"):
            assert active_backend().static_split is True

    def test_reference_registers_every_unfused_kernel(self):
        """``kernel()`` has no fallback, so the spec must cover every
        kernel the fast path registers."""
        with use_backend("numpy"):
            fast = set(active_backend().impls)
        with use_backend("reference"):
            spec = set(active_backend().impls)
        assert spec == fast
        assert {"contour_tick", "outlier_gate", "kalman_tick"} <= spec


class TestParallelRanges:
    @pytest.mark.parametrize(
        "workers,n_items", [(1, 5), (2, 5), (3, 2), (3, 9)]
    )
    def test_contiguous_ranges_cover_every_item_once(
        self, monkeypatch, workers, n_items
    ):
        monkeypatch.setattr(backend, "_workers", workers)
        calls = []
        parallel_ranges(
            n_items,
            lambda w, lo, hi: calls.append((w, lo, hi, threading.get_ident())),
        )
        calls.sort()
        used = min(workers, n_items)
        assert [c[:3] for c in calls] == [
            (w, n_items * w // used, n_items * (w + 1) // used)
            for w in range(used)
        ]
        # The caller runs the first range itself, helpers the others.
        main = threading.get_ident()
        assert [c[3] == main for c in calls] == [True] + [False] * (used - 1)

    def test_no_items_calls_nothing(self):
        parallel_ranges(0, lambda w, lo, hi: pytest.fail("called"))

    def test_kernel_under_thread_switch_stress(self, monkeypatch):
        """Eight workers on a 1 us switch interval, one tile per sweep:
        each builds its scratch slot and scatters its rows while the
        others interleave, and the output is still the 1-worker one."""
        frac, coeff, row_base, shape = _accumulate_inputs(5, n_sweeps=41)
        monkeypatch.setattr(synthesis, "_TILE_CELLS", 1)
        monkeypatch.setattr(synthesis, "_SCRATCH", {})
        monkeypatch.setattr(backend, "_workers", 1)
        want = _run_accumulate("numpy", frac, coeff, row_base, shape)
        monkeypatch.setattr(backend, "_workers", 8)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                runner = threading.Thread(
                    target=lambda: got.append(
                        _run_accumulate("numpy", frac, coeff, row_base, shape)
                    )
                )
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 3
        assert all(_bitwise_equal(want, out) for out in got)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(backend, "_workers", 3)
        finished = []

        def fn(worker, lo, hi):
            if worker == 2:
                raise KeyError("helper failed")
            finished.append(worker)

        with pytest.raises(KeyError, match="helper failed"):
            parallel_ranges(6, fn)
        # Every other range still ran to completion before the raise.
        assert sorted(finished) == [0, 1]


class TestGatedAR1Parity:
    def test_reference_matches_numpy_bitwise(self):
        activity = np.random.default_rng(1).uniform(0.0, 1.0, 97)
        walks = {}
        for backend in ("reference", "numpy"):
            with use_backend(backend):
                ar = GatedAR1(0.95, np.random.default_rng(42), dim=3)
                walks[backend] = ar.advance(activity)
        assert np.array_equal(walks["reference"], walks["numpy"])


def _mixed_cohort(config, duration_s=0.5):
    """A through-wall walk, a line-of-sight walk and a pointing session."""
    tw, los = through_wall_room(), line_of_sight_room()
    rng = np.random.default_rng(7)
    body = sample_population(rng, count=11)[3]
    position = np.array([0.8, 4.5, 0.0])
    return [
        Scenario(
            random_walk(tw, np.random.default_rng(1), duration_s=duration_s),
            room=tw, config=config, seed=21,
        ),
        Scenario(
            random_walk(los, np.random.default_rng(2), duration_s=duration_s),
            room=los, config=config, seed=22,
        ),
        Scenario(
            stand_still(position, duration_s=duration_s), room=tw, body=body,
            config=config, gesture=pointing_session(position, rng),
            gesture_start_s=0.05, seed=23,
        ),
    ]


def _cohort_frames(source):
    """Every frame of a source, one list of per-session copies each."""
    return [[b.copy() for b in tick] for tick in source.ticks()]


class TestFusedCohort:
    def test_noise_free_fused_equals_per_session_bitwise(self, config):
        room = through_wall_room()
        scenarios = [
            Scenario(
                random_walk(room, np.random.default_rng(s), duration_s=1.0),
                room=room, config=config, seed=s + 20,
            )
            for s in range(2)
        ]
        set_backend("numpy")
        source = CohortFrameSource(scenarios, chunk_frames=8, noise=False)
        fused = next(source.ticks())
        for k, scenario in enumerate(scenarios):
            st = ScenarioStream(scenario)
            block = st.synthesize(0, 8, *st.advance(0, 8))
            assert np.array_equal(fused[k], block[:, : source.spf, :])

    @pytest.mark.parametrize("chunk", [8, 7])
    def test_every_frame_of_a_mixed_cohort_is_per_session(
        self, config, chunk
    ):
        """Walks, rooms and a gesture, past chunk 0: the carried state
        (surface and wall-jitter walks, previous body centre, hand) must
        agree across every chunk boundary, not only in frame 0."""
        scenarios = _mixed_cohort(config)
        set_backend("numpy")
        source = CohortFrameSource(scenarios, chunk_frames=chunk, noise=False)
        fused = _cohort_frames(source)
        assert len(fused) >= 3 * chunk
        spf = source.spf
        for k, scenario in enumerate(scenarios):
            st = ScenarioStream(scenario)
            for f0 in range(0, len(fused), chunk):
                f1 = min(f0 + chunk, len(fused))
                block = st.synthesize(f0, f1, *st.advance(f0, f1))
                for f in range(f0, f1):
                    row = (f - f0) * spf
                    assert fused[f][k].tobytes() == (
                        block[:, row : row + spf, :].tobytes()
                    ), (k, f)

    def test_noisy_frames_do_not_depend_on_chunking_or_cohort(self, config):
        scenarios = _mixed_cohort(config)
        set_backend("numpy")
        runs = [
            _cohort_frames(CohortFrameSource(scenarios, chunk_frames=c))
            for c in (64, 7, 1)
        ]
        for other in runs[1:]:
            assert len(other) == len(runs[0])
            for a, b in zip(runs[0], other):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        for k, scenario in enumerate(scenarios):
            alone = _cohort_frames(
                CohortFrameSource([scenario], chunk_frames=7)
            )
            n = min(len(alone), len(runs[0]))
            for f in range(n):
                assert alone[f][0].tobytes() == runs[0][f][k].tobytes()

    @pytest.mark.parametrize("chunk", [64, 7])
    def test_noisy_frames_do_not_depend_on_the_worker_count(
        self, config, monkeypatch, chunk
    ):
        """The clutter fill, the kernel's tiles and the per-session noise
        on 1 or 2 workers; the cohort, and its first session alone."""
        scenarios = _mixed_cohort(config)
        set_backend("numpy")
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(backend, "_workers", workers)
            runs[workers] = [
                _cohort_frames(CohortFrameSource(cohort, chunk_frames=chunk))
                for cohort in (scenarios, scenarios[:1])
            ]
        for one, two in zip(runs[1], runs[2]):
            assert len(one) == len(two) > chunk // 2
            for a, b in zip(one, two):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_rejects_sessions_with_another_config_or_array(self, config):
        scenarios = _mixed_cohort(config)[:2]
        shifted = config.replace(
            fmcw=dataclasses.replace(
                config.fmcw, start_hz=config.fmcw.start_hz + 0.5e9
            )
        )
        other = Scenario(
            scenarios[1].trajectory, room=scenarios[1].room, config=shifted,
            seed=22,
        )
        # Same bin count, so only the configuration check catches it.
        assert ScenarioStream(other).synthesizer.num_bins == (
            ScenarioStream(scenarios[0]).synthesizer.num_bins
        )
        with pytest.raises(ValueError):
            CohortFrameSource([scenarios[0], other])
        array = t_array(config.array)
        turned = dataclasses.replace(
            array,
            rx=(
                dataclasses.replace(
                    array.rx[0], boresight=np.array([0.0, 0.8, 0.6])
                ),
                *array.rx[1:],
            ),
        )
        with pytest.raises(ValueError):
            CohortFrameSource([
                scenarios[0],
                Scenario(scenarios[1].trajectory, config=config, array=turned),
            ])


def _serve_session(scenario, n_frames, chunk=8):
    """Run one session through the engine; returns its PipelineResult."""
    stream = scenario.frames(chunk_frames=chunk)
    with ServingEngine() as engine:
        session = engine.admit(
            single_session(scenario.config, scenario.range_bin_m)
        )
        for _ in range(n_frames):
            engine.submit(session, next(stream))
            engine.tick()
        engine.drain()
        profile = engine.stage_profile().as_dict()
        result = engine.close(session)
    return result, profile


class TestProfiling:
    def test_off_by_default(self):
        assert profiling_enabled() is False

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiling_enabled() is True

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        enable_profiling()
        assert profiling_enabled() is True
        reset_profiling_override()
        assert profiling_enabled() is False

    @pytest.fixture(scope="class")
    def short_scenario(self, config):
        room = through_wall_room()
        return Scenario(
            random_walk(room, np.random.default_rng(4), duration_s=1.5),
            room=room, config=config, seed=17,
        )

    def test_off_means_no_counters_anywhere(self, short_scenario):
        """Profiling off: no profiler, no stage_profile in any result."""
        result = ShardedStreamRunner(num_shards=2, max_workers=1).run(
            short_scenario
        )
        assert result.stage_profile is None
        serve_result, profile = _serve_session(
            short_scenario, short_scenario.num_stream_frames
        )
        assert profile == {}
        assert serve_result.stage_profile is None

    def test_on_records_every_stage(self, short_scenario):
        enable_profiling()
        try:
            result, profile = _serve_session(
                short_scenario, short_scenario.num_stream_frames
            )
        finally:
            reset_profiling_override()
        assert profile, "profiling on but no counters recorded"
        for entry in profile.values():
            assert entry["calls"] > 0
            assert entry["wall_s"] >= 0.0
        # Every tick records one row per stage, whichever way
        # Pipeline.tick enters the chain.
        for name in ("BackgroundSubtract", "ContourExtract", "OutlierGate",
                     "HoldInterpolate", "KalmanSmooth", "Localize"):
            assert name in profile, name
