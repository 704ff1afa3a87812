"""One copy of every row a stream emits, kept as columns.

``Pipeline.run_stream`` and every serving ``Session`` keep their rows in
an :class:`OutputColumns`: a float64 row buffer whose columns are the
row's fields (time, TOFs, motion, position; a K-person row's track
count), plus a float64 buffer of ``(id, x, y, z, coasting)`` track
entries, the flat part of :class:`~repro.multi.tracks.TrackColumns`.
Both grow by doubling. Every field a tick carries (floats, complex
spectra, bools, integers below 2**53) is exact in float64, and
:meth:`OutputColumns.result` gives each back in its dtype.

A tick is packed once into a :class:`RowBatch` shared by every stream it
served, one ``concatenate`` per buffer, so keeping a row is one row copy
(and one slice of track entries).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from ..multi.tracks import TrackColumns

#: Per-row columns a tick or shard reply carries, in column order, and
#: the :class:`~repro.pipeline.PipelineResult` field each fills.
_ROW_FIELDS = {
    "times_s": "frame_times_s",
    "tof_m": "tof_m",
    "raw_tof_m": "raw_tof_m",
    "motion": "motion",
    "positions": "positions",
}
_INITIAL_CAPACITY = 16
_F64 = np.dtype(np.float64)
#: Column spans by field layout, so equal layouts are one object.
_LAYOUTS: dict[tuple, tuple] = {}


def _layout(key: tuple) -> tuple:
    """``(name, dtype, shape, start, stop)`` of each field's columns."""
    spans, start = [], 0
    for name, dtype, shape in key:
        width = math.prod(shape) * (2 if dtype.kind == "c" else 1)
        spans.append((name, dtype, shape, start, start + width))
        start += width
    layout = _LAYOUTS[key] = tuple(spans)
    return layout


def _columns(value: np.ndarray) -> np.ndarray:
    """``value`` as 2-D real columns, one row per tick row."""
    if value.dtype.kind == "c":
        value = value.view(np.float64)
    if value.ndim == 2:
        return value
    return value.reshape(len(value), math.prod(value.shape[1:]))


def _field(rows: np.ndarray, dtype, shape, start: int, stop: int):
    """One field of kept rows, read-only, in its own dtype."""
    complex_ = dtype.kind == "c"
    column = rows[:, start:stop] if shape or complex_ else rows[:, start]
    if complex_:
        column = column.view(dtype)
    elif dtype != column.dtype:
        column = column.astype(dtype)
    column = column.reshape(len(rows), *shape)
    column.flags.writeable = False
    return column


def _grown(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    grown = np.empty((max(need, 2 * len(buffer)), buffer.shape[1]))
    grown[:used] = buffer[:used]
    return grown


class RowBatch:
    """One tick's emitted rows, packed once for every stream it served.

    Args:
        rows: a :class:`~repro.pipeline.frame.SessionTick` or the
            :class:`~repro.serve.session.TickRows` a shard replied with.
        spectra: also keep each row's subtracted spectrum.

    Attributes:
        layout: each field's column span in ``records``.
        records: one float64 row per tick row.
        tracks: the flat ``(id, x, y, z, coasting)`` track entries of
            all rows (K-person ticks), or None.
        bounds: row ``r``'s entries are ``tracks[bounds[r]:bounds[r + 1]]``.
    """

    __slots__ = ("layout", "records", "tracks", "bounds")

    def __init__(self, rows, spectra: bool = False) -> None:
        fields = [
            (name, value)
            for name in _ROW_FIELDS
            if (value := getattr(rows, name)) is not None
        ]
        if spectra:
            fields.append(("spectrum", rows.spectrum))
        columns = rows.tracks
        if columns is not None:
            fields.append(("track_count", columns.counts))
        key = tuple((n, v.dtype, v.shape[1:]) for n, v in fields)
        self.layout = _LAYOUTS.get(key) or _layout(key)
        self.records = np.concatenate(
            [_columns(value) for _, value in fields], axis=1, dtype=np.float64
        )
        self.tracks = self.bounds = None
        if columns is not None:
            self.tracks = np.concatenate(
                (
                    columns.ids[:, None],
                    columns.positions,
                    columns.coasting[:, None],
                ),
                axis=1,
                dtype=np.float64,
            )
            self.bounds = list(accumulate(columns.counts.tolist(), initial=0))


class OutputColumns:
    """Every row one stream emitted, kept once, in growable buffers.

    All rows of a stream carry the same fields (one pipeline structure).
    """

    def __init__(self) -> None:
        self._layout: tuple | None = None
        self._rows = np.empty((0, 0))
        self._tracks = np.empty((0, 5))
        self._n = 0
        self._m = 0

    def __len__(self) -> int:
        return self._n

    def append(self, batch: RowBatch, row: int) -> None:
        """Keep row ``row`` of a packed tick."""
        rows, n = self._rows, self._n
        if batch.layout is not self._layout or n == len(rows):
            rows = self._reserve(batch)
        rows[n] = batch.records[row]
        self._n = n + 1
        if batch.tracks is not None:
            start, stop = batch.bounds[row], batch.bounds[row + 1]
            if stop > start:
                m, end = self._m, self._m + stop - start
                if end > len(self._tracks):
                    self._tracks = _grown(
                        self._tracks, m, max(end, _INITIAL_CAPACITY)
                    )
                self._tracks[m:end] = batch.tracks[start:stop]
                self._m = end

    def last(self, name: str) -> np.ndarray | None:
        """The latest row's value of one field (read-only), or None."""
        if self._n:
            for span in self._layout:
                if span[0] == name:
                    last = self._rows[self._n - 1 : self._n]
                    return _field(last, *span[1:])[0]
        return None

    def last_pairs(self) -> list[tuple[int, np.ndarray]] | None:
        """The latest row's ``(track_id, position)`` pairs (K-person)."""
        count = self.last("track_count")
        if count is None:
            return None
        entries = self._tracks[self._m - int(count) : self._m]
        ids = entries[:, 0].astype(np.int64).tolist()
        return list(zip(ids, _field(entries, _F64, (3,), 1, 4)))

    def _reserve(self, batch: RowBatch) -> np.ndarray:
        rows = self._rows
        if self._layout is None:
            self._layout = batch.layout
            rows = self._rows = np.empty(
                (_INITIAL_CAPACITY, batch.records.shape[1])
            )
        elif batch.layout != self._layout:
            raise ValueError(
                "every row of a stream must carry the same fields; got "
                f"{batch.layout} after {self._layout}"
            )
        elif self._n == len(rows):
            rows = self._rows = _grown(rows, self._n, self._n + 1)
        return rows

    def result(self, **extra):
        """The kept rows as a :class:`~repro.pipeline.PipelineResult`.

        Each field is read-only, a view of the buffer when it is
        float64; a K-person stream's tracks come back as one
        :class:`~repro.multi.tracks.TrackColumns` over the kept
        entries, frame by frame. ``extra`` sets further fields
        (``latency``).
        """
        from .runner import PipelineResult

        if not self._n:
            return PipelineResult(frame_times_s=np.asarray([]), **extra)
        rows = self._rows[: self._n]
        kept = {span[0]: _field(rows, *span[1:]) for span in self._layout}
        fields = {
            field: kept[name]
            for name, field in _ROW_FIELDS.items()
            if name in kept
        }
        if "spectrum" in kept:
            fields["subtracted"] = kept["spectrum"]
        if "track_count" in kept:
            entries = self._tracks[: self._m]
            fields["track_columns"] = TrackColumns(
                kept["track_count"],
                _field(entries, np.dtype(np.int64), (), 0, 1),
                _field(entries, _F64, (3,), 1, 4),
                _field(entries, np.dtype(bool), (), 4, 5),
            )
        return PipelineResult(**fields, **extra)
