"""The pipeline runner: one stage graph, one execution mode.

:class:`Pipeline` owns an ordered stage list and advances it one
lockstep tick at a time (:meth:`Pipeline.tick`): N independent sessions,
one frame each. Everything else is a view of that tick:

* :meth:`Pipeline.push` / :meth:`Pipeline.run_stream` — the N=1 tick,
  frame after frame, with per-frame wall-clock latency accounting
  against the paper's 75 ms budget (Section 7). Offline evaluation
  (``WiTrack.track``, ``MultiWiTrack.track``) and the realtime apps
  both run it, so the evaluation scores exactly the code that runs live;
* the serving engine (:mod:`repro.serve`), which batches many sessions
  into each tick.

The runner also owns the two pre-stage steps every consumer used to
duplicate: coherent frame averaging (five sweeps per frame, §4.1/§7) and
the max-range crop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..config import SystemConfig
from ..kernels.profile import StageProfiler, profiling_enabled
from ..kernels.tick import compile_tick_plan, fusion_active, run_stages
from ..multi.tracks import TrackColumns
from .frame import Frame, SessionTick
from .outputs import OutputColumns, RowBatch
from .stages import (
    BackgroundSubtract,
    ContourExtract,
    HoldInterpolate,
    KalmanSmooth,
    Localize,
    OutlierGate,
    Stage,
)


#: Reused slot vector for the single-session ``push`` fast path.
_SLOT0 = np.zeros(1, dtype=np.intp)

#: Plan-cache sentinel: this stage graph was checked and matches no plan.
_UNFUSABLE = object()


@dataclass
class LatencyReport:
    """Per-frame processing-time statistics.

    All statistics are NaN — and the budget check fails — while no
    frame has been timed yet.

    Attributes:
        latencies_s: wall-clock processing time per frame.
    """

    latencies_s: list[float] = field(default_factory=list)

    @property
    def median_s(self) -> float:
        """Median per-frame latency (NaN when empty)."""
        if not self.latencies_s:
            return float("nan")
        return float(np.median(self.latencies_s))

    @property
    def p95_s(self) -> float:
        """95th-percentile per-frame latency (NaN when empty)."""
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(self.latencies_s, 95))

    @property
    def p99_s(self) -> float:
        """99th-percentile per-frame latency (NaN when empty).

        The serving-tier tail: with many sessions multiplexed on one
        engine, p95 hides the straggler cohort a 1-in-100 user lives
        in, so SLO accounting reports this too.
        """
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(self.latencies_s, 99))

    @property
    def max_s(self) -> float:
        """Worst-case per-frame latency (NaN when empty)."""
        if not self.latencies_s:
            return float("nan")
        return float(np.max(self.latencies_s))

    def within_budget(self, budget_s: float = 0.075) -> bool:
        """True when the 95th percentile meets the paper's budget.

        An empty report is *not* within budget: no evidence, no claim.
        """
        if not self.latencies_s:
            return False
        return self.p95_s <= budget_s


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    Single-person pipelines fill the TOF/position fields; multi-person
    pipelines fill ``track_columns``, the one form of their output
    (:meth:`MultiTrack.from_result <repro.multi.tracks.MultiTrack.
    from_result>` packages it). Field layouts are frame-major;
    consumers transpose as needed.

    Attributes:
        frame_times_s: timestamp of each output frame.
        tof_m: cleaned per-antenna round trips, ``(n_frames, n_rx)``.
        raw_tof_m: raw bottom contours, same shape.
        motion: per-antenna motion detections, same shape.
        positions: 3D fixes, ``(n_frames, 3)``.
        track_columns: the reportable tracks of every frame, as
            :class:`~repro.multi.tracks.TrackColumns` (per-frame
            counts, flat ids, positions and coasting flags).
        subtracted: background-subtracted complex frames,
            ``(n_frames, n_rx, n_bins)`` (only when recorded).
        latency: per-frame latency report (None when none was
            recorded).
        stage_profile: per-stage {calls, wall_s, bytes} counters
            (:meth:`StageProfiler.as_dict` form) — only when the run's
            pipeline carried a profiler (``REPRO_PROFILE=1``); None
            otherwise so disabled runs serialize without a trace.
    """

    frame_times_s: np.ndarray
    tof_m: np.ndarray | None = None
    raw_tof_m: np.ndarray | None = None
    motion: np.ndarray | None = None
    positions: np.ndarray | None = None
    track_columns: TrackColumns | None = None
    subtracted: np.ndarray | None = None
    latency: LatencyReport | None = None
    stage_profile: dict[str, dict[str, float]] | None = None

    @property
    def tracks(self) -> list[list[tuple[int, np.ndarray]]] | None:
        """Per-frame ``(track_id, position)`` lists of ``track_columns``.

        Built on every read and never kept, so a result holds its tracks
        once. The package reads ``track_columns``; this view serves the
        repository benchmark's digest and MOTA check.
        """
        if self.track_columns is None:
            return None
        return self.track_columns.lists()

    @property
    def num_frames(self) -> int:
        """Number of output frames."""
        return len(self.frame_times_s)

    def require_frames(self) -> "PipelineResult":
        """This result, or ValueError when the run emitted no frame."""
        if self.num_frames == 0:
            raise ValueError(
                "recording produced no output frames (at least two "
                "averaged frames are needed to prime background "
                "subtraction)"
            )
        return self


class Pipeline:
    """A stage graph and the lockstep tick that drives it.

    Args:
        stages: ordered stages; each consumes/extends the shared frame.
        sweep_duration_s: FMCW sweep period.
        sweeps_per_frame: sweeps coherently averaged per frame.
        range_bin_m: round-trip distance per spectrum bin.
        max_range_m: crop incoming frames to this round-trip range
            (None keeps every bin).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        sweep_duration_s: float,
        sweeps_per_frame: int,
        range_bin_m: float,
        max_range_m: float | None = None,
    ) -> None:
        if sweep_duration_s <= 0 or range_bin_m <= 0:
            raise ValueError("sweep_duration_s and range_bin_m must be positive")
        if sweeps_per_frame < 1:
            raise ValueError("sweeps_per_frame must be >= 1")
        self.stages = list(stages)
        self.sweep_duration_s = sweep_duration_s
        self.sweeps_per_frame = sweeps_per_frame
        self.range_bin_m = range_bin_m
        self.max_range_m = max_range_m
        self._max_bins: int | None = None
        if max_range_m is not None:
            self._max_bins = int(np.ceil(max_range_m / range_bin_m)) + 1
        self._n_sessions = 1
        self._frames_in = np.zeros(1, dtype=np.int64)
        #: ``arange(num_sessions)``: a tick whose slot vector equals
        #: its prefix is dense (``SessionTick.dense``).
        self._prefix = np.arange(1, dtype=np.intp)
        self.latency = LatencyReport()
        #: Reused per-tick frame-averaging buffer (the averaged
        #: spectrum never outlives the tick: BackgroundSubtract copies
        #: what it keeps and replaces ``tick.spectrum`` with the diff).
        self._avg_scratch: np.ndarray | None = None
        #: Per-stage {calls, wall_s, bytes} counters, or ``None`` when
        #: profiling was off at construction — the disabled path costs
        #: one ``is None`` check per tick (``REPRO_PROFILE=1`` or
        #: :func:`repro.kernels.profile.enable_profiling` turn it on).
        self.profiler: StageProfiler | None = (
            StageProfiler() if profiling_enabled() else None
        )
        self._stage_names = self._dedup_names(self.stages)
        #: Lazily compiled :class:`~repro.kernels.tick.TickPlan` (or
        #: ``MultiTickPlan``) for the stage chain (``_UNFUSABLE`` once
        #: checked and matching neither chain).
        self._tick_plan = None

    @staticmethod
    def _dedup_names(stages: Sequence[Stage]) -> list[str]:
        """Stage class names, ``#k``-suffixed when a class repeats."""
        names: list[str] = []
        seen: dict[str, int] = {}
        for s in stages:
            base = type(s).__name__
            k = seen.get(base, 0)
            seen[base] = k + 1
            names.append(base if k == 0 else f"{base}#{k}")
        return names

    @property
    def frame_duration_s(self) -> float:
        """Duration of one averaged frame."""
        return self.sweeps_per_frame * self.sweep_duration_s

    def stage(self, kind: type) -> Stage:
        """The first stage of the given class (KeyError if absent)."""
        for s in self.stages:
            if isinstance(s, kind):
                return s
        present = ", ".join(type(s).__name__ for s in self.stages) or "none"
        raise KeyError(
            f"pipeline has no {getattr(kind, '__name__', kind)!s} stage "
            f"(stages present: {present})"
        )

    def reset(self, start_frame: int = 0) -> None:
        """Forget all online state; ready for a fresh recording.

        Every session slot is reset (capacity is kept).

        Args:
            start_frame: index assigned to the next input frame. A shard
                runner resuming mid-recording passes the shard's first
                global frame so timestamps stay on the session clock.
        """
        if start_frame < 0:
            raise ValueError("start_frame must be >= 0")
        for s in self.stages:
            s.reset()
        self._frames_in[:] = start_frame
        self.latency = LatencyReport()
        if self.profiler is not None:
            self.profiler = StageProfiler()

    # -- session lifecycle -------------------------------------------------

    @property
    def num_sessions(self) -> int:
        """Session slots the stage state is currently sized for."""
        return self._n_sessions

    def attach_sessions(self, n_sessions: int) -> None:
        """Grow every stage's state to at least ``n_sessions`` slots.

        Existing slots keep their state (growth never perturbs running
        sessions); slot allocation is the caller's concern — the serving
        engine keeps each cohort's slots dense: when a session leaves,
        the cohort's last member moves into the freed slot
        (:meth:`move_session`).
        """
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if n_sessions > self._n_sessions:
            self._frames_in = np.concatenate(
                [
                    self._frames_in,
                    np.zeros(n_sessions - self._n_sessions, dtype=np.int64),
                ]
            )
            self._n_sessions = n_sessions
            self._prefix = np.arange(n_sessions, dtype=np.intp)
        for s in self.stages:
            s.attach(n_sessions)

    def evict_session(self, slot: int, start_frame: int = 0) -> None:
        """Forget one slot's state everywhere; the slot may be reused.

        Eviction touches only that slot's structure-of-arrays rows, so
        surviving sessions are unperturbed — pinned by the serving
        tests. ``start_frame`` is the index of the slot's next input
        frame: a session re-admitted after a shard failure starts fresh
        state on its own clock, like :meth:`reset` at a shard boundary.
        """
        self._check_slot(slot)
        for s in self.stages:
            s.evict(slot)
        self._frames_in[slot] = start_frame

    def move_session(self, src: int, dst: int) -> None:
        """Move one session's state from slot ``src`` into slot ``dst``.

        Every stage copies its rows; ``src`` is left a fresh slot. The
        session continues in ``dst`` bit-exactly as it would have in
        ``src``.
        """
        self._check_slot(src)
        self._check_slot(dst)
        for s in self.stages:
            s.move_slot(src, dst)
        self._frames_in[dst] = self._frames_in[src]
        self._frames_in[src] = 0

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self._n_sessions:
            raise IndexError(
                f"slot {slot} out of range for {self._n_sessions} sessions"
            )

    def _average_buffer(self, shape: tuple) -> np.ndarray:
        """The reused complex128 frame-average buffer, of ``shape``."""
        buffer = self._avg_scratch
        if buffer is None or buffer.shape != shape:
            buffer = self._avg_scratch = np.empty(shape, np.complex128)
        return buffer

    def _crop(self, frames: np.ndarray) -> np.ndarray:
        if self._max_bins is None:
            return frames
        return frames[..., : min(self._max_bins, frames.shape[-1])]

    # -- the lockstep tick and its single-session views --------------------

    def tick(
        self,
        sweep_blocks: Sequence[np.ndarray],
        slots: Sequence[int] | np.ndarray | None = None,
    ) -> SessionTick:
        """Advance N independent sessions one frame each, in lockstep.

        One :class:`~repro.pipeline.frame.SessionTick` flows through one
        ``process_tick`` call per stage, so the per-frame numpy dispatch
        cost is paid once for the whole batch instead of once per
        session — the amortization the serving engine exists for. The
        chain runs under one ``np.errstate`` that silences the invalid
        and divide-by-zero warnings NaN rows raise.

        Args:
            sweep_blocks: one ``(n_rx, sweeps_per_frame, n_bins)`` raw
                sweep block per participating session: a stacked array,
                cropped here to the max range, or a list of blocks of
                one shape no wider than the crop.
            slots: the session slot each block advances (defaults to
                ``0..len(sweep_blocks)-1``). Slots must be distinct and
                attached (:meth:`attach_sessions`).

        Returns:
            The final tick. Rows may be fewer than the input blocks —
            a session whose frame only primed its background reference
            produces no output row this tick.
        """
        if slots is None:
            slots = np.arange(len(sweep_blocks), dtype=np.intp)
        else:
            slots = np.asarray(slots, dtype=np.intp)
        n = len(slots)
        if n != len(sweep_blocks):
            raise ValueError("need exactly one slot per sweep block")
        dense = slots.tobytes() == self._prefix[:n].tobytes()
        if not dense and n > 1 and len(set(slots.tolist())) != n:
            raise ValueError(
                "slots must be distinct: one session advances at most "
                "one frame per tick"
            )
        profiler = self.profiler
        t_enter = perf_counter() if profiler is not None else 0.0
        # Crop before averaging: the mean is per-bin, so the order is
        # bitwise-immaterial, and the cropped reduction touches only the
        # bins the chain will actually read. add.reduce + divide is
        # np.mean's own reduction without its Python wrapper (the same
        # sums, in the same order, whether over a stacked cohort block
        # or block by block). Both sum in complex128, the dtype
        # BackgroundSubtract keeps, never a block's own: a stacked tick
        # (Pipeline.push) and a list tick (the serving engine) then
        # agree bitwise for every block dtype, and one session's odd
        # dtype cannot recast its cohort mates'.
        # A non-finite or huge block turns only its own rows inf or NaN
        # here, so the floating-point warnings it raises are ignored.
        with np.errstate(invalid="ignore", over="ignore"):
            if isinstance(sweep_blocks, np.ndarray) or not len(sweep_blocks):
                stacked = sweep_blocks
                if not isinstance(stacked, np.ndarray):
                    stacked = np.stack([np.asarray(b) for b in sweep_blocks])
                t0 = perf_counter() if profiler is not None else 0.0
                cropped = self._crop(stacked)
                _, n_rx, spf, n_bins = cropped.shape
                averaged = self._average_buffer((n, n_rx, n_bins))
                np.add.reduce(
                    cropped, axis=2, dtype=np.complex128, out=averaged
                )
                np.divide(averaged, spf, out=averaged)
            else:
                # A list of blocks (a cohort's, which every session crops
                # as it queues them) averages each straight into the
                # reused per-tick buffer; a block wider than the crop
                # raises there.
                t0 = perf_counter() if profiler is not None else 0.0
                n_rx, spf, width = np.shape(sweep_blocks[0])
                n_bins = width if self._max_bins is None else min(
                    self._max_bins, width
                )
                averaged = self._average_buffer((n, n_rx, n_bins))
                for i, block in enumerate(sweep_blocks):
                    np.add.reduce(
                        block, axis=1, dtype=np.complex128, out=averaged[i]
                    )
                np.divide(averaged, spf, out=averaged)
        if profiler is not None:
            t1 = perf_counter()
            profiler.record("frame_average", t1 - t0, averaged.nbytes)
            attributed = t1 - t0
        indices = self._frames_in[slots]
        self._frames_in[slots] += 1
        tick = SessionTick(
            slots=slots,
            indices=indices,
            times_s=(indices + 0.5) * self.frame_duration_s,
            spectrum=averaged,
            dense=dense,
        )
        plan = self._tick_plan
        if plan is None:
            plan = self._tick_plan = compile_tick_plan(self.stages) or _UNFUSABLE
        with np.errstate(invalid="ignore", divide="ignore"):
            if profiler is None:
                if plan is not _UNFUSABLE and fusion_active():
                    return plan.run(tick)
                return run_stages(self.stages, tick)
            for stage, name in zip(self.stages, self._stage_names):
                t0 = perf_counter()
                tick = stage.process_tick(tick)
                t1 = perf_counter()
                profiler.record(name, t1 - t0, tick.nbytes)
                attributed += t1 - t0
                if tick.num_rows == 0:
                    break
        profiler.record("dispatch", (perf_counter() - t_enter) - attributed)
        return tick

    def _tick_one(self, sweep_block: np.ndarray) -> SessionTick:
        """The slot-0 tick of one sweep block, timed into :attr:`latency`."""
        start = perf_counter()
        tick = self.tick(np.asarray(sweep_block)[None], _SLOT0)
        self.latency.latencies_s.append(perf_counter() - start)
        return tick

    def push(self, sweep_block: np.ndarray) -> Frame | None:
        """Process one frame worth of sweeps for all antennas (slot 0).

        This *is* a single-session lockstep tick — the N=1 view of the
        same engine the serving layer batches, which is why N=1 serving
        output is bitwise the streamed output.

        Args:
            sweep_block: shape ``(n_rx, sweeps_per_frame, n_bins)``.

        Returns:
            The processed :class:`Frame`, or ``None`` while the
            pipeline is still priming (first frame). Wall-clock
            processing time is appended to :attr:`latency` either way.
        """
        tick = self._tick_one(sweep_block)
        if not tick.num_rows:
            return None
        return tick.write_frame(
            Frame(index=int(tick.indices[0]), time_s=float(tick.times_s[0]))
        )

    def stream(
        self, frames: Iterable[np.ndarray] | np.ndarray
    ) -> Iterator[Frame]:
        """Push an iterable of sweep blocks; yield every output frame.

        A full ``(n_rx, n_sweeps, n_bins)`` recording is accepted too
        and sliced into frames.
        """
        if isinstance(frames, np.ndarray):
            frames = self._blocks(frames)
        for block in frames:
            out = self.push(block)
            if out is not None:
                yield out

    def run_stream(
        self,
        frames: Iterable[np.ndarray] | np.ndarray,
        record_spectra: bool = False,
    ) -> PipelineResult:
        """Stream a whole recording and collect the per-frame outputs.

        This accumulates every frame's fields into one
        :class:`PipelineResult`, through the
        :class:`~repro.pipeline.outputs.OutputColumns` a serving session
        keeps its outputs in (use :meth:`stream` directly for unbounded
        sessions where accumulation is unwanted). Calls continue the
        same session: splitting a recording across two calls yields the
        frames of one call over the whole.

        Args:
            frames: a full ``(n_rx, n_sweeps, n_bins)`` recording or an
                iterable of ``(n_rx, sweeps_per_frame, n_bins)`` blocks.
            record_spectra: keep the background-subtracted complex
                frames in the result (needed to rebuild per-antenna
                spectrograms, e.g. for the pointing pipeline).
        """
        if isinstance(frames, np.ndarray):
            frames = self._blocks(frames)
        outputs = OutputColumns()
        for block in frames:
            tick = self._tick_one(block)
            if tick.num_rows:
                outputs.append(RowBatch(tick, spectra=record_spectra), 0)
        return outputs.result(
            latency=self.latency,
            stage_profile=(
                self.profiler.as_dict() if self.profiler is not None else None
            ),
        )

    def _blocks(self, spectra: np.ndarray) -> Iterator[np.ndarray]:
        if spectra.ndim != 3:
            raise ValueError("spectra must have shape (n_rx, n_sweeps, n_bins)")
        spf = self.sweeps_per_frame
        for f in range(spectra.shape[1] // spf):
            yield spectra[:, f * spf : (f + 1) * spf, :]


def single_person_pipeline(
    config: SystemConfig,
    range_bin_m: float,
    solver=None,
    localize: bool = True,
) -> Pipeline:
    """The paper's Section 4+5 chain as one pipeline.

    Args:
        config: full system configuration.
        range_bin_m: round-trip distance per spectrum bin.
        solver: localization solver; required when ``localize``.
        localize: include the 3D localization stage (omit for a
            single-antenna TOF-only pipeline).
    """
    p = config.pipeline
    frame_dt = p.sweeps_per_frame * config.fmcw.sweep_duration_s
    stages: list[Stage] = [
        BackgroundSubtract(),
        ContourExtract(range_bin_m, threshold_db=p.contour_threshold_db),
        OutlierGate(
            max_jump_m=p.max_jump_m,
            confirmation_frames=p.jump_confirmation_frames,
        ),
        HoldInterpolate(enabled=p.interpolate_when_static),
        KalmanSmooth(
            frame_dt,
            process_noise=p.kalman_process_noise,
            measurement_noise=p.kalman_measurement_noise,
        ),
    ]
    if localize:
        if solver is None:
            raise ValueError("localize=True requires a solver")
        stages.append(Localize(solver))
    return Pipeline(
        stages,
        sweep_duration_s=config.fmcw.sweep_duration_s,
        sweeps_per_frame=p.sweeps_per_frame,
        range_bin_m=range_bin_m,
        max_range_m=p.max_range_m,
    )


def multi_person_pipeline(
    config: SystemConfig,
    range_bin_m: float,
    manager,
    num_candidates: int,
) -> Pipeline:
    """The multi-person chain: shared front end + cancel + associate.

    Args:
        config: full system configuration.
        range_bin_m: round-trip distance per spectrum bin.
        manager: the :class:`~repro.multi.tracks.TrackManager` whose
            bank holds every session slot's tracks.
        num_candidates: cancellation rounds per antenna and frame.
    """
    from .multi import Associate, SuccessiveCancel

    p = config.pipeline
    stages: list[Stage] = [
        BackgroundSubtract(),
        SuccessiveCancel(range_bin_m, max_targets=num_candidates),
        Associate(manager),
    ]
    return Pipeline(
        stages,
        sweep_duration_s=config.fmcw.sweep_duration_s,
        sweeps_per_frame=p.sweeps_per_frame,
        range_bin_m=range_bin_m,
        max_range_m=p.max_range_m,
    )
