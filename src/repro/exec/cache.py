"""Content-keyed on-disk caches: spectra and pipeline results.

Scenario synthesis — the Dirichlet-kernel sweep synthesis behind every
experiment — dominates figure and benchmark wall clock, yet a figure's
grid is deterministic in its parameters and seed. :class:`SpectraCache`
keys the *content* of a scenario (trajectory samples, room, body,
antenna array, full :class:`~repro.config.SystemConfig`, gesture, seed)
to a SHA-256 digest and stores the synthesized arrays as one ``.npz``
per scenario, so repeated figure/benchmark runs skip re-synthesis
entirely. Any parameter change — a config tweak, a different walk —
changes the key, so stale hits are impossible by construction.

:class:`ResultCache` goes one level higher — the adaptivity lesson of
Bender et al.'s adaptive filters: a cache that stops at spectra still
pays full *tracking* price on every pure re-aggregation run. It keys
(scenario content, pipeline configuration) to the
:class:`~repro.pipeline.PipelineResult` arrays — a multi-person
result's one form, its track columns, included — so a figure rerun
that only re-scores existing parameters skips synthesis **and**
tracking (the :func:`tracked_scenario` / :func:`tracked_multi_scenario`
seams). Both caches share the same storage/LRU machinery and
environment switches, and feed the process-wide :func:`cache_stats`
counters that ``repro bench`` and the throughput benchmarks surface.

Opt-in via environment (off by default so plain test runs stay
write-free):

* ``REPRO_CACHE=1`` enables it (``0``/``off`` disables even if a
  directory is configured);
* ``REPRO_CACHE_DIR=/path`` sets (and implies) the cache directory,
  default ``~/.cache/repro/spectra`` (pipeline results live in a
  ``results/`` subdirectory of the same root);
* ``REPRO_CACHE_MAX_MB`` bounds on-disk size (default 2048, applied to
  each cache separately); least recently *used* entries are evicted
  after each store.
* ``REPRO_CACHE_ADMIT=1`` arms a :class:`CacheAdmissionFilter` in front
  of both caches — a TinyLFU-style *doorkeeper* (PAPERS.md
  arXiv:1711.01616) that stores a key only on its second touch within a
  sliding window, so a scan of one-shot keys cannot churn the LRU and
  evict the hot working set. An integer value >= 2 sets the window
  (default 1024). Off by default: admission changes store-on-first-put
  semantics, which existing workflows pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path
from typing import Any

import numpy as np

#: Environment switches (read at call time, so tests can monkeypatch).
CACHE_ENV = "REPRO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"
CACHE_ADMIT_ENV = "REPRO_CACHE_ADMIT"

_FALSY = ("0", "off", "false", "no", "")

#: Default doorkeeper window when ``REPRO_CACHE_ADMIT`` is truthy but
#: not an explicit integer >= 2.
_DEFAULT_ADMIT_WINDOW = 1024

#: Process-wide hit/miss/eviction counters per cache kind. Instances are
#: short-lived (``default_cache()`` builds one per call site), so the
#: benchmarks read these aggregates instead.
_STATS: dict[str, dict[str, int]] = {
    "spectra": {"hits": 0, "misses": 0, "evictions": 0, "filtered": 0},
    "results": {"hits": 0, "misses": 0, "evictions": 0, "filtered": 0},
}

#: Process-wide admission filters, keyed by cache kind — like
#: :data:`_STATS`, these outlive the short-lived cache instances, so a
#: key's first touch in one ``default_cache()`` call is remembered when
#: its second arrives through another.
_ADMISSIONS: dict[str, "CacheAdmissionFilter"] = {}


def cache_stats() -> dict[str, dict[str, int]]:
    """Copy of the process-wide cache counters, keyed by cache kind."""
    return {kind: dict(counts) for kind, counts in _STATS.items()}


def reset_cache_stats() -> None:
    """Zero the process-wide cache counters (test/benchmark isolation).

    Also forgets the process-wide admission doorkeepers, so a test that
    arms ``REPRO_CACHE_ADMIT`` starts from an empty window.
    """
    for counts in _STATS.values():
        for key in counts:
            counts[key] = 0
    _ADMISSIONS.clear()


def _hash_update(h: "hashlib._Hash", value: Any) -> None:
    """Fold one (possibly nested) value into the digest, type-tagged."""
    if value is None:
        h.update(b"\x00none")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"\x00nd{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(value, (bool, int, float, complex, str, bytes)):
        h.update(f"\x00{type(value).__name__}{value!r}".encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"\x00dc{type(value).__qualname__}".encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _hash_update(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(b"\x00dict")
        for k in sorted(value):
            h.update(str(k).encode())
            _hash_update(h, value[k])
    elif isinstance(value, (list, tuple)):
        h.update(f"\x00seq{len(value)}".encode())
        for item in value:
            _hash_update(h, item)
    else:
        raise TypeError(
            f"cannot content-hash {type(value).__name__!r}; add picklable "
            "primitives, arrays, or dataclasses only"
        )


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of arbitrarily nested parameter content."""
    h = hashlib.sha256()
    for part in parts:
        _hash_update(h, part)
    return h.hexdigest()


def scenario_key(scenario: Any) -> str:
    """Content key of a :class:`~repro.sim.scenario.Scenario` (or multi).

    Everything the synthesized spectra depend on goes in; evaluation-side
    parameters (VICON seeds, depth calibration) stay out.
    """
    from ..multi.scenario import MultiScenario
    from ..sim.scenario import Scenario

    if isinstance(scenario, Scenario):
        return content_key(
            "scenario.v1",
            scenario.seed,
            scenario.trajectory,
            scenario.room,
            scenario.body,
            scenario.config,
            scenario.array,
            scenario.gesture,
            scenario.gesture_start_s,
        )
    if isinstance(scenario, MultiScenario):
        return content_key(
            "multi_scenario.v1",
            scenario.seed,
            scenario.people,
            scenario.room,
            scenario.config,
            scenario.array,
        )
    raise TypeError(f"unsupported scenario type: {type(scenario).__name__}")


class CacheAdmissionFilter:
    """Second-touch doorkeeper: admit a key only once it has recurred.

    An LRU eviction policy has a classic failure mode under scans: a
    burst of one-shot keys (a parameter sweep that will never repeat)
    each gets stored, and storing them evicts the small hot working set
    that *does* repeat. The TinyLFU remedy (PAPERS.md arXiv:1711.01616)
    is a *doorkeeper* in front of the cache: a key's first touch only
    registers it; the store is admitted on its second touch within the
    window. One-shot keys never come back, so they never get stored —
    and never evict anything.

    The window is a bounded LRU of recently touched keys: a touch
    refreshes the key's recency, and when the window overflows the
    stalest registration is forgotten (aging, so ancient first touches
    cannot admit forever).

    Args:
        window: distinct keys remembered; a key must recur within this
            many distinct-key touches to be admitted.
    """

    def __init__(self, window: int = _DEFAULT_ADMIT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._seen: dict[str, None] = {}

    def should_store(self, key: str) -> bool:
        """Touch ``key``; True when this store should be admitted."""
        if key in self._seen:
            del self._seen[key]  # refresh recency below
            self._seen[key] = None
            return True
        self._seen[key] = None
        if len(self._seen) > self.window:
            del self._seen[next(iter(self._seen))]  # forget the stalest
        return False


def _default_admission(kind: str) -> CacheAdmissionFilter | None:
    """The env-armed process-wide doorkeeper for ``kind``, or ``None``."""
    raw = os.environ.get(CACHE_ADMIT_ENV)
    if raw is None or raw.strip().lower() in _FALSY:
        return None
    window = _DEFAULT_ADMIT_WINDOW
    try:
        parsed = int(raw)
        if parsed >= 2:
            window = parsed
    except ValueError:
        pass  # truthy non-integer ("on", "true"): default window
    filt = _ADMISSIONS.get(kind)
    if filt is None or filt.window != window:
        filt = CacheAdmissionFilter(window)
        _ADMISSIONS[kind] = filt
    return filt


class NpzLruCache:
    """Shared storage layer: atomic ``.npz`` entries with LRU eviction.

    Both caches store one content-keyed ``.npz`` per entry, touch
    entries on read, and evict least-recently-used files after each
    store. Per-instance counters (``hits``/``misses``/``evictions``/
    ``filtered``) also aggregate into the process-wide
    :func:`cache_stats` under the subclass's ``stats_kind``.

    Args:
        root: cache directory (created on first store).
        max_bytes: on-disk budget; ``None`` disables eviction.
        admission: optional :class:`CacheAdmissionFilter` consulted
            before every store; a declined store is counted as
            ``filtered`` and skipped (reads are never filtered).
    """

    #: Which :func:`cache_stats` bucket this cache reports into.
    stats_kind = "spectra"

    def __init__(
        self,
        root: Path | str,
        max_bytes: int | None = None,
        admission: CacheAdmissionFilter | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.admission = admission
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.filtered = 0

    def _count(self, event: str, n: int = 1) -> None:
        setattr(self, event, getattr(self, event) + n)
        _STATS[self.stats_kind][event] += n

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    # -- storage ----------------------------------------------------------

    def _load_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
        except (OSError, ValueError):
            return None  # torn write or foreign file: treat as a miss
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass  # a sibling worker evicted it; the data is already read
        return arrays

    def _store_arrays(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        if self.admission is not None and not self.admission.should_store(key):
            self._count("filtered")
            return
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
        self.evict()

    # -- maintenance ------------------------------------------------------

    def _entries_with_stats(self) -> list[tuple[Path, float, int]]:
        """``(path, mtime, size)`` per entry, least recently used first.

        Stats are captured once and missing files skipped, so a sibling
        worker evicting concurrently cannot crash maintenance here.
        """
        if not self.root.is_dir():
            return []
        out = []
        for path in self.root.glob("*.npz"):
            try:
                st = path.stat()
            except OSError:
                continue  # evicted by a sibling between glob and stat
            out.append((path, st.st_mtime, st.st_size))
        out.sort(key=lambda t: t[1])
        return out

    def entries(self) -> list[Path]:
        """Cached files, least recently used first."""
        return [path for path, _, _ in self._entries_with_stats()]

    def size_bytes(self) -> int:
        """Total on-disk size of the cache."""
        return sum(size for _, _, size in self._entries_with_stats())

    def evict(self) -> int:
        """Drop least-recently-used entries until under ``max_bytes``."""
        if self.max_bytes is None:
            return 0
        removed = 0
        entries = self._entries_with_stats()
        total = sum(size for _, _, size in entries)
        for path, _, size in entries:
            if total <= self.max_bytes:
                break
            total -= size
            path.unlink(missing_ok=True)
            removed += 1
        if removed:
            self._count("evictions", removed)
        return removed

    def clear(self) -> None:
        """Remove every cached entry."""
        for path in self.entries():
            path.unlink(missing_ok=True)


class SpectraCache(NpzLruCache):
    """Get-or-synthesize cache for scenario outputs."""

    stats_kind = "spectra"

    def run(self, scenario: Any) -> Any:
        """``scenario.run()``, memoized on the scenario's content key."""
        key = scenario_key(scenario)
        arrays = self._load_arrays(key)
        if arrays is not None:
            self._count("hits")
            return self._unpack(scenario, arrays)
        self._count("misses")
        output = scenario.run()
        self._store_arrays(key, self._pack(output))
        return output

    def _pack(self, output: Any) -> dict[str, np.ndarray]:
        from ..multi.scenario import MultiScenarioOutput
        from ..sim.scenario import ScenarioOutput

        if isinstance(output, ScenarioOutput):
            arrays = {
                "spectra": output.spectra,
                "sweep_times_s": output.sweep_times_s,
                "range_bin_m": np.float64(output.range_bin_m),
                "surface_truth": output.surface_truth,
                "true_round_trips": output.true_round_trips,
            }
            if output.hand_truth is not None:
                arrays["hand_truth"] = output.hand_truth
            return arrays
        if isinstance(output, MultiScenarioOutput):
            return {
                "spectra": output.spectra,
                "sweep_times_s": output.sweep_times_s,
                "range_bin_m": np.float64(output.range_bin_m),
                "surface_truths": output.surface_truths,
                "true_round_trips": output.true_round_trips,
            }
        raise TypeError(f"unsupported output type: {type(output).__name__}")

    def _unpack(self, scenario: Any, arrays: dict[str, np.ndarray]) -> Any:
        from ..multi.scenario import MultiScenario, MultiScenarioOutput
        from ..sim.scenario import ScenarioOutput

        # Non-array fields are reconstructed from the scenario itself —
        # they are inputs of the content key, so they match by definition.
        if isinstance(scenario, MultiScenario):
            return MultiScenarioOutput(
                spectra=arrays["spectra"],
                sweep_times_s=arrays["sweep_times_s"],
                range_bin_m=float(arrays["range_bin_m"]),
                truths=tuple(traj for _, traj in scenario.people),
                surface_truths=arrays["surface_truths"],
                true_round_trips=arrays["true_round_trips"],
                config=scenario.config,
                room=scenario.room,
                bodies=tuple(body for body, _ in scenario.people),
            )
        return ScenarioOutput(
            spectra=arrays["spectra"],
            sweep_times_s=arrays["sweep_times_s"],
            range_bin_m=float(arrays["range_bin_m"]),
            truth=scenario.trajectory,
            surface_truth=arrays["surface_truth"],
            hand_truth=arrays.get("hand_truth"),
            true_round_trips=arrays["true_round_trips"],
            config=scenario.config,
            room=scenario.room,
            body=scenario.body,
        )

#: PipelineResult fields the result cache persists, besides the
#: timestamps and the track columns. ``subtracted`` (per-frame complex
#: spectrograms) is deliberately excluded — a cached result serves
#: re-aggregation runs, which never need spectrograms, and storing them
#: would make this cache as heavy as the spectra cache.
_RESULT_FIELDS = ("tof_m", "raw_tof_m", "motion", "positions")


class ResultCache(NpzLruCache):
    """Content-keyed cache of pipeline results, single- and multi-person.

    Where :class:`SpectraCache` memoizes synthesis, this memoizes
    synthesis *plus tracking*: the per-frame arrays of a
    :class:`~repro.pipeline.PipelineResult` keyed on (scenario content,
    pipeline configuration). Pure re-aggregation runs — rescoring a
    figure grid whose parameters did not change — then skip the
    pipeline entirely.

    A multi-person result is stored in its one form, its
    :class:`~repro.multi.tracks.TrackColumns` (one ``track_<field>``
    array per column), which round-trips bitwise through ``.npz``;
    :func:`tracked_multi_scenario` packages it as a
    :class:`~repro.multi.MultiTrack` after the read.
    """

    stats_kind = "results"

    def get(self, key: str):
        """The cached :class:`PipelineResult` for ``key``, or ``None``."""
        from ..multi.tracks import TrackColumns
        from ..pipeline.runner import PipelineResult

        arrays = self._load_arrays(key)
        if arrays is None:
            self._count("misses")
            return None
        self._count("hits")
        fields = {
            name: arrays[name] for name in _RESULT_FIELDS if name in arrays
        }
        if "track_counts" in arrays:
            fields["track_columns"] = TrackColumns(
                *(arrays[f"track_{name}"] for name in TrackColumns._fields)
            )
        return PipelineResult(frame_times_s=arrays["frame_times_s"], **fields)

    def put(self, key: str, result: Any) -> None:
        """Store a pipeline result under ``key``."""
        arrays = {"frame_times_s": result.frame_times_s}
        for name in _RESULT_FIELDS:
            value = getattr(result, name)
            if value is not None:
                arrays[name] = value
        if result.track_columns is not None:
            for name, value in result.track_columns._asdict().items():
                arrays[f"track_{name}"] = value
        self._store_arrays(key, arrays)


def _cache_env() -> tuple[Path, int] | None:
    """Resolved (root, max_bytes) from the environment, or None (off).

    Enabled by ``REPRO_CACHE`` truthy or ``REPRO_CACHE_DIR`` set; an
    explicit ``REPRO_CACHE=0`` wins over a configured directory.
    """
    flag = os.environ.get(CACHE_ENV)
    directory = os.environ.get(CACHE_DIR_ENV)
    if flag is not None and flag.strip().lower() in _FALSY:
        return None
    if flag is None and not directory:
        return None
    root = Path(directory) if directory else Path.home() / ".cache/repro/spectra"
    max_mb = float(os.environ.get(CACHE_MAX_MB_ENV, "2048"))
    return root, int(max_mb * 1e6)


def default_cache() -> SpectraCache | None:
    """The environment-configured spectra cache, or ``None`` (disabled)."""
    resolved = _cache_env()
    if resolved is None:
        return None
    root, max_bytes = resolved
    return SpectraCache(
        root, max_bytes=max_bytes, admission=_default_admission("spectra")
    )


def default_result_cache() -> ResultCache | None:
    """The environment-configured result cache, or ``None`` (disabled).

    Shares the spectra cache's environment switches and root directory,
    living in its ``results/`` subdirectory (entry globs are
    non-recursive, so the two caches never see each other's files).
    """
    resolved = _cache_env()
    if resolved is None:
        return None
    root, max_bytes = resolved
    return ResultCache(
        root / "results",
        max_bytes=max_bytes,
        admission=_default_admission("results"),
    )


def synthesize(scenario: Any) -> Any:
    """``scenario.run()`` through the default cache when one is enabled.

    This is the seam every harness experiment goes through; with the
    cache disabled (the default) it is exactly ``scenario.run()``.
    """
    cache = default_cache()
    if cache is None:
        return scenario.run()
    return cache.run(scenario)


def result_key(scenario: Any, tracker: Any) -> str:
    """Content key of (scenario, pipeline configuration).

    Everything that shapes the single-person pipeline's output goes in:
    the scenario content, the tracker's own system configuration (a
    tracker built with a different config than the scenario's must not
    collide), the solver class with its tunables, and the antenna
    geometry it solves against.
    """
    solver = tracker.solver
    return content_key(
        "pipeline_result.v2",
        scenario_key(scenario),
        tracker.config,
        type(solver).__name__,
        solver.min_y_m,
        getattr(solver, "warm_start", None),
        tracker.array,
    )


def tracked_scenario(scenario: Any, tracker: Any) -> Any:
    """Synthesize + track a scenario, memoized at the result level.

    The seam the single-person harness experiments go through. With the
    cache disabled it is exactly ``tracker.track(synthesize(...))``; with
    it enabled, a re-run whose (scenario, pipeline) content is unchanged
    returns the stored :class:`~repro.pipeline.PipelineResult` without
    synthesizing or tracking anything. A miss still flows through
    :func:`synthesize`, so the spectra cache keeps helping runs that
    changed only pipeline-side parameters.

    Cached results carry no subtracted spectrograms, so the packaged
    :class:`~repro.core.tracker.TrackResult` has empty ``tof_estimates``
    on a hit — experiments that need spectrograms (pointing) keep their
    own path.

    Args:
        scenario: a :class:`~repro.sim.scenario.Scenario`.
        tracker: the :class:`~repro.core.tracker.WiTrack` to run.

    Returns:
        The tracker's :class:`~repro.core.tracker.TrackResult`.
    """
    cache = default_result_cache()
    if cache is None:
        measured = synthesize(scenario)
        return tracker.track(measured.spectra, measured.range_bin_m)
    key = result_key(scenario, tracker)
    result = cache.get(key)
    if result is None:
        measured = synthesize(scenario)
        result = tracker.pipeline(measured.range_bin_m).run_stream(
            measured.spectra
        )
        cache.put(key, result)
    return tracker.package_result(result, scenario.range_bin_m)


def multi_result_key(scenario: Any, tracker: Any) -> str:
    """Content key of (multi scenario, multi pipeline configuration).

    Everything that shapes a :class:`~repro.multi.MultiWiTrack` run's
    output goes in: the scenario content, the tracker's system
    configuration and antenna geometry, cancellation depth, the track
    lifecycle tunables, the ghost gate and bounce-plane images, and the
    solver selection. The tag's version changes with the stored format
    (now a :class:`~repro.pipeline.PipelineResult` with track columns),
    so an entry of another format is never read as this one.
    """
    solver = tracker.solver
    return content_key(
        "multi_track.v2",
        scenario_key(scenario),
        tracker.config,
        tracker.array,
        tracker.max_people,
        tracker.num_candidates,
        tracker.track_config,
        tracker.gate,
        tracker.ghost_images,
        type(solver).__name__,
        solver.min_y_m,
        getattr(solver, "warm_start", None),
    )


def tracked_multi_scenario(scenario: Any, tracker: Any) -> Any:
    """Synthesize + track a multi-person scenario, memoized.

    The multi-person mirror of :func:`tracked_scenario`: with the cache
    enabled, a re-aggregation run whose (scenario, pipeline) content is
    unchanged reads the stored K-person
    :class:`~repro.pipeline.PipelineResult` and packages it, without
    synthesizing or tracking anything. With the cache disabled it is
    exactly ``tracker.track(synthesize(...))``; a miss still flows
    through :func:`synthesize`, so the spectra cache keeps helping runs
    that changed only pipeline-side parameters.

    Args:
        scenario: a :class:`~repro.multi.MultiScenario`.
        tracker: the :class:`~repro.multi.MultiWiTrack` to run.

    Returns:
        The tracker's :class:`~repro.multi.MultiTrack`.
    """
    from ..multi.tracks import MultiTrack

    cache = default_result_cache()
    if cache is None:
        measured = synthesize(scenario)
        return tracker.track(measured.spectra, measured.range_bin_m)
    key = multi_result_key(scenario, tracker)
    result = cache.get(key)
    if result is None:
        measured = synthesize(scenario)
        result = tracker.pipeline(measured.range_bin_m).run_stream(
            measured.spectra
        )
        cache.put(key, result)
    return MultiTrack.from_result(result.require_frames())
