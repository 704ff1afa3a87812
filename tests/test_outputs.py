"""The one output accumulator: rows kept once, as columns.

``OutputColumns`` keeps every row a stream emits (``Pipeline.run_stream``
and every serving ``Session``). Pinned here, as a hypothesis property:
for any stream of ticks — any subset of sessions per tick, any field
set and dtype a tick carries, K-person rows with 0 to k tracks, long
enough to cross the buffers' growth boundaries — each session's
``result()`` equals what per-frame lists stacked at the end give, field
by field (values, shapes, dtypes), with ``tracks`` as
``(int, float64[3])`` lists; and a result taken mid-stream is not
disturbed by the rows kept after it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.multi.tracks import TrackColumns
from repro.pipeline import OutputColumns, PipelineResult, RowBatch
from repro.serve.session import TickRows

#: Single-person fields: name -> (per-row shape given n_rx, dtypes).
_SINGLE = {
    "tof_m": (lambda n_rx: (n_rx,), [np.float64, np.float32]),
    "raw_tof_m": (lambda n_rx: (n_rx,), [np.float64, np.float32]),
    "motion": (lambda n_rx: (n_rx,), [np.bool_, np.int8]),
    "positions": (lambda n_rx: (3,), [np.float64, np.float32]),
}


class ListsAndStack:
    """Per-frame lists, stacked at the end: the accumulator's spec."""

    def __init__(self) -> None:
        self.times, self.tracks, self.coasting = [], [], []
        self.fields: dict[str, list] = {name: [] for name in _SINGLE}

    def collect(self, rows, row: int) -> None:
        self.times.append(float(rows.times_s[row]))
        for name, kept in self.fields.items():
            value = getattr(rows, name)
            if value is not None:
                kept.append(value[row])
        if rows.tracks is not None:
            columns = rows.tracks
            start = int(columns.counts[:row].sum())
            stop = start + int(columns.counts[row])
            self.tracks.append([
                (int(columns.ids[i]), columns.positions[i])
                for i in range(start, stop)
            ])
            self.coasting.extend(columns.coasting[start:stop].tolist())

    def result(self) -> PipelineResult:
        stacked = {
            name: np.stack(kept) if kept else None
            for name, kept in self.fields.items()
        }
        return PipelineResult(
            frame_times_s=np.asarray(self.times),
            tracks=list(self.tracks) if self.tracks else None,
            coasting=np.asarray(self.coasting, bool) if self.tracks else None,
            **stacked,
        )


def assert_results_equal(got: PipelineResult, want: PipelineResult) -> None:
    for name in ("frame_times_s", "coasting", *_SINGLE):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
    assert (got.tracks is None) == (want.tracks is None)
    if got.tracks is None:
        return
    assert len(got.tracks) == len(want.tracks)
    for frame_got, frame_want in zip(got.tracks, want.tracks):
        assert len(frame_got) == len(frame_want)
        for (tid, pos), (want_id, want_pos) in zip(frame_got, frame_want):
            assert type(tid) is int and tid == want_id
            assert (pos.dtype, pos.shape) == (np.float64, (3,))
            assert np.array_equal(pos, want_pos, equal_nan=True)


@st.composite
def streams(draw):
    """A stream of ticks over a few sessions, as ``TickRows``."""
    n_sessions = draw(st.integers(1, 4), label="sessions")
    n_rx = draw(st.integers(1, 4), label="n_rx")
    multi = draw(st.booleans(), label="multi")
    fields = {}
    if not multi:
        for name, (shape, dtypes) in _SINGLE.items():
            if draw(st.booleans(), label=f"has {name}"):
                fields[name] = (shape(n_rx), draw(st.sampled_from(dtypes)))
    k = draw(st.integers(0, 4), label="k")
    n_ticks = draw(st.integers(0, 80), label="ticks")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    ticks = []
    for t in range(n_ticks):
        sids = rng.permutation(n_sessions)[: rng.integers(0, n_sessions + 1)]
        n = len(sids)
        columns = {}
        for name, (shape, dtype) in fields.items():
            values = rng.normal(size=(n, *shape))
            values[rng.random(values.shape) < 0.1] = np.nan
            if np.dtype(dtype).kind in "bi":
                values = np.nan_to_num(values) > 0
            columns[name] = values.astype(dtype)
        tracks = None
        if multi:
            counts = rng.integers(0, k + 1, n).astype(np.int64)
            total = int(counts.sum())
            positions = rng.normal(size=(total, 3))
            positions[rng.random(positions.shape) < 0.05] = np.nan
            tracks = TrackColumns(
                counts,
                rng.integers(1, 400, total).astype(np.int64),
                positions,
                rng.random(total) < 0.3,
            )
        ticks.append(TickRows(
            session_ids=sids.astype(np.int64),
            times_s=(t + 0.5) * 0.0125 + rng.random(n),
            tof_m=columns.get("tof_m"),
            raw_tof_m=columns.get("raw_tof_m"),
            motion=columns.get("motion"),
            positions=columns.get("positions"),
            tracks=tracks,
        ))
    middle = draw(st.integers(0, n_ticks), label="mid-stream result")
    return n_sessions, ticks, middle


@settings(max_examples=80, deadline=None)
@given(stream=streams())
def test_columns_equal_lists_and_stack(stream):
    n_sessions, ticks, middle = stream
    kept = [OutputColumns() for _ in range(n_sessions)]
    spec = [ListsAndStack() for _ in range(n_sessions)]
    early = None
    for t, rows in enumerate(ticks):
        if t == middle:
            early = [(c.result(), s.result()) for c, s in zip(kept, spec)]
        batch = RowBatch(rows)
        for row, sid in enumerate(rows.session_ids.tolist()):
            kept[sid].append(batch, row)
            spec[sid].collect(rows, row)
    for columns, lists in zip(kept, spec):
        assert len(columns) == len(lists.times)
        assert_results_equal(columns.result(), lists.result())
    for got, want in early or []:
        assert_results_equal(got, want)


def test_result_fields_are_read_only():
    """Kept rows never change: the result's arrays cannot be written."""
    rows = TickRows(
        np.zeros(1, np.int64), np.zeros(1), np.zeros((1, 3)), None, None,
        np.zeros((1, 3)), None,
    )
    columns = OutputColumns()
    columns.append(RowBatch(rows), 0)
    result = columns.result()
    with pytest.raises(ValueError):
        result.positions[0, 0] = 1.0


def test_rows_of_one_stream_carry_the_same_fields():
    columns = OutputColumns()
    with_tof = TickRows(
        np.zeros(1, np.int64), np.zeros(1), np.zeros((1, 3)), None, None,
        None, None,
    )
    columns.append(RowBatch(with_tof), 0)
    without = with_tof._replace(tof_m=None)
    with pytest.raises(ValueError, match="same fields"):
        columns.append(RowBatch(without), 0)
