"""Pluggable bulk-payload transports for the worker pool.

``multiprocessing.Pipe`` pickles everything it carries, so every
distributed serving tick pays serialize + copy + deserialize for full
numpy frame blocks going out and stacked field rows coming back — the
tax :mod:`benchmarks.bench_serving` surfaces as ``ipc_overhead_mean_ms``.
This module splits that traffic into a *descriptor plane* and a *data
plane*:

* the pipe keeps carrying the small control tuples the pool already
  speaks (``("invoke", name, args, kwargs)`` / ``("ok", result)``), but
  with qualifying ndarrays replaced by :class:`_ShmRef` placeholders;
* the array bytes themselves land in a preallocated per-worker
  :class:`ShmArena` — one ``multiprocessing.shared_memory`` segment
  split into a request region (parent writes, worker reads) and a
  response region (worker writes, parent reads).

Each region is a bump allocator that resets at every message. That is
safe — not merely usually safe — because of two pool invariants:

* :class:`~repro.exec.pool.WorkerPool` allows at most **one request in
  flight per worker**, so a region is never written while its previous
  message is still being read;
* both ends **copy arrays out of the arena at decode time**
  (:meth:`_Unpacker.unpack`), so no live view into a region survives
  past the message that carried it.

Anything the codec cannot place in shared memory — object dtypes,
structured dtypes, arrays under :data:`SHM_MIN_ARRAY_BYTES`, or arrays
that do not fit the remaining region ("arena exhaustion") — is left
inline and travels over the pipe exactly as before: degraded, counted
(:class:`TransportCounters`), never wrong. With ``transport="pipe"``
the codec is a pure byte-accounting walk and the wire format is
byte-for-byte what the pool has always sent.

Select the transport per pool via ``WorkerPool(..., transport=...)`` or
process-wide with ``REPRO_TRANSPORT=pipe|shm`` (pipe is the default and
the fallback when shared memory is unavailable).
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import secrets
import warnings
from typing import Any

import numpy as np

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "ARENA_ALIGN",
    "DEFAULT_ARENA_BYTES",
    "MAX_ARENA_BYTES",
    "SHM_MIN_ARRAY_BYTES",
    "TRANSPORTS",
    "TRANSPORT_ENV",
    "ParentTransport",
    "ShmArena",
    "TransportCounters",
    "WorkerTransport",
    "arena_segments",
    "resolve_transport",
    "shm_available",
]

TRANSPORT_ENV = "REPRO_TRANSPORT"
TRANSPORTS = ("pipe", "shm")

#: Per-direction arena region size when no memory-model hint is given.
#: Sized for a serving shard's worst common case (a 16-session cohort
#: step of complex128 frame blocks is low single-digit MiB).
DEFAULT_ARENA_BYTES = 8 * 2**20
#: Upper clamp for model-derived arena sizes: the arena only needs to
#: hold one message per direction, never a whole shard's resident state.
MAX_ARENA_BYTES = 256 * 2**20
#: Arrays smaller than this stay inline in the pickled descriptor — at
#: that size the pickle bytes cost less than a shm entry + page touch.
SHM_MIN_ARRAY_BYTES = 256

#: The arena's bump-allocator granularity (a cache line): each array
#: takes a whole number of these.
ARENA_ALIGN = 64
_SHM_TAG = "#shm"  # wire marker for messages with out-of-band arrays
_SEGMENT_PREFIX = "repro_shm_"  # /dev/shm name prefix (leak tests grep it)

_shm_probe: bool | None = None


def shm_available() -> bool:
    """True when POSIX shared memory actually works on this host.

    Probes once by creating and unlinking a tiny segment — containers
    occasionally mount ``/dev/shm`` read-only or not at all, and the
    right behavior there is a quiet fallback to the pipe transport, not
    a crash at pool construction.
    """
    global _shm_probe
    if _shm_probe is None:
        if shared_memory is None:
            _shm_probe = False
        else:
            try:
                seg = shared_memory.SharedMemory(
                    name=f"{_SEGMENT_PREFIX}probe_{os.getpid()}",
                    create=True,
                    size=ARENA_ALIGN,
                )
                seg.close()
                seg.unlink()
                _shm_probe = True
            except Exception:
                _shm_probe = False
    return _shm_probe


def resolve_transport(transport: str | None = None) -> str:
    """Resolve a transport name: argument beats ``REPRO_TRANSPORT`` beats pipe.

    Unknown names raise; ``shm`` on a host without working shared
    memory warns and degrades to ``pipe`` (same spirit as the serial
    fallback when ``fork`` is unavailable: slower, never wrong).
    """
    if transport is None:
        transport = os.environ.get(TRANSPORT_ENV, "").strip().lower() or "pipe"
    transport = transport.strip().lower()
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    if transport == "shm" and not shm_available():
        warnings.warn(
            "shared memory unavailable on this host; "
            "falling back to the pipe transport",
            RuntimeWarning,
            stacklevel=2,
        )
        return "pipe"
    return transport


def arena_segments() -> list[str]:
    """Names of this module's live shm segments (leak-test hook)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(shm_dir)
        if name.startswith(_SEGMENT_PREFIX) and "probe" not in name
    )


class TransportCounters:
    """Byte/round accounting for one worker's IPC, both directions.

    Attributes:
        bytes_shm: array bytes that traveled through the shm arena.
        bytes_pickled: array bytes that traveled inline through the
            pipe (all of them under the pipe transport; the sub-
            threshold / unsupported-dtype / overflow residue under shm).
        descriptor_rounds: messages encoded or decoded.
        arena_overflows: arrays that wanted shm but fell back to the
            pipe because the region was full.
    """

    __slots__ = (
        "bytes_shm",
        "bytes_pickled",
        "descriptor_rounds",
        "arena_overflows",
    )

    def __init__(self) -> None:
        self.bytes_shm = 0
        self.bytes_pickled = 0
        self.descriptor_rounds = 0
        self.arena_overflows = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "bytes_shm": int(self.bytes_shm),
            "bytes_pickled": int(self.bytes_pickled),
            "descriptor_rounds": int(self.descriptor_rounds),
            "arena_overflows": int(self.arena_overflows),
        }

    def add(self, other: "TransportCounters") -> None:
        self.bytes_shm += other.bytes_shm
        self.bytes_pickled += other.bytes_pickled
        self.descriptor_rounds += other.descriptor_rounds
        self.arena_overflows += other.arena_overflows


class _ShmRef:
    """Placeholder left in the pickled descriptor for an extracted array."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):  # __slots__ classes need an explicit recipe
        return (_ShmRef, (self.index,))


def _shm_eligible(arr: np.ndarray) -> bool:
    """Only plain fixed-size dtypes reconstruct from (shape, dtype.str)."""
    return (
        arr.nbytes >= SHM_MIN_ARRAY_BYTES
        and not arr.dtype.hasobject
        and arr.dtype.names is None
    )


class _Region:
    """One direction's half of an arena: a per-message bump allocator."""

    __slots__ = ("start", "size", "used")

    def __init__(self, start: int, size: int) -> None:
        self.start = start
        self.size = size
        self.used = 0

    def reset(self) -> None:
        self.used = 0

    def reserve(self, nbytes: int) -> int | None:
        """Absolute segment offset for ``nbytes``, or None when full."""
        aligned = -(-nbytes // ARENA_ALIGN) * ARENA_ALIGN
        if self.used + aligned > self.size:
            return None
        offset = self.start + self.used
        self.used += aligned
        return offset


class ShmArena:
    """One shared-memory segment per worker, split request/response.

    The parent creates (and owns) the segment; the worker attaches by
    name after fork. Only the parent ever calls :meth:`unlink` — on
    :meth:`WorkerPool.kill`, :meth:`WorkerPool.close`, or pool GC — so
    a crashed worker can never orphan its arena.
    """

    def __init__(self, request_bytes: int, response_bytes: int) -> None:
        name = f"{_SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        self.segment = shared_memory.SharedMemory(
            name=name, create=True, size=request_bytes + response_bytes
        )
        self.name = name
        self.request = _Region(0, request_bytes)
        self.response = _Region(request_bytes, response_bytes)
        self._unlinked = False

    def unlink(self) -> None:
        """Release the mapping and remove the segment (idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.segment.close()
        except Exception:  # pragma: no cover - already torn down
            pass
        try:
            self.segment.unlink()
        except Exception:  # pragma: no cover - already removed
            pass


class _Packer:
    """One message's encode pass: extract arrays into a region.

    With ``region=None`` (pipe transport) the walk only counts bytes and
    returns the payload object itself, so pipe wire bytes are identical
    to a transport-less pool.
    """

    __slots__ = ("buf", "region", "counters", "entries")

    def __init__(
        self,
        buf: memoryview | None,
        region: _Region | None,
        counters: TransportCounters,
    ) -> None:
        self.buf = buf
        self.region = region
        self.counters = counters
        self.entries: list[tuple[int, tuple[int, ...], str]] = []

    def pack(self, obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return self._pack_array(obj)
        if isinstance(obj, dict):
            packed = {key: self.pack(value) for key, value in obj.items()}
            if all(packed[key] is obj[key] for key in packed):
                return obj
            return packed
        if isinstance(obj, (list, tuple)):
            values = [self.pack(value) for value in obj]
            if all(new is old for new, old in zip(values, obj)):
                return obj
            if isinstance(obj, list):
                return values
            if hasattr(obj, "_fields"):  # namedtuple
                return type(obj)(*values)
            return tuple(values)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            state = getattr(obj, "__dict__", None)
            if state is None:  # pragma: no cover - slotted dataclass
                return obj
            changed = {
                key: packed
                for key, value in state.items()
                if (packed := self.pack(value)) is not value
            }
            if not changed:
                return obj
            clone = copy.copy(obj)
            for key, value in changed.items():
                object.__setattr__(clone, key, value)
            return clone
        return obj

    def _pack_array(self, arr: np.ndarray) -> Any:
        nbytes = int(arr.nbytes)
        if self.region is None or not _shm_eligible(arr):
            self.counters.bytes_pickled += nbytes
            return arr
        offset = self.region.reserve(nbytes)
        if offset is None:
            self.counters.arena_overflows += 1
            self.counters.bytes_pickled += nbytes
            return arr
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.buf, offset=offset)
        np.copyto(dst, arr, casting="no")
        self.entries.append((offset, arr.shape, arr.dtype.str))
        self.counters.bytes_shm += nbytes
        return _ShmRef(len(self.entries) - 1)


class _Unpacker:
    """One message's decode pass: resolve refs, count inline residue.

    Every resolved array is a fresh copy (`.copy()` below), which is
    what licenses the sender to reuse the region on the next message.
    """

    __slots__ = ("arrays", "counters")

    def __init__(self, arrays: list[np.ndarray], counters: TransportCounters) -> None:
        self.arrays = arrays
        self.counters = counters

    def unpack(self, obj: Any) -> Any:
        if isinstance(obj, _ShmRef):
            return self.arrays[obj.index]
        if isinstance(obj, np.ndarray):
            self.counters.bytes_pickled += int(obj.nbytes)
            return obj
        if isinstance(obj, dict):
            packed = {key: self.unpack(value) for key, value in obj.items()}
            if all(packed[key] is obj[key] for key in packed):
                return obj
            return packed
        if isinstance(obj, (list, tuple)):
            values = [self.unpack(value) for value in obj]
            if all(new is old for new, old in zip(values, obj)):
                return obj
            if isinstance(obj, list):
                return values
            if hasattr(obj, "_fields"):
                return type(obj)(*values)
            return tuple(values)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            state = getattr(obj, "__dict__", None)
            if state is None:  # pragma: no cover - slotted dataclass
                return obj
            changed = {
                key: unpacked
                for key, value in state.items()
                if (unpacked := self.unpack(value)) is not value
            }
            if not changed:
                return obj
            clone = copy.copy(obj)
            for key, value in changed.items():
                object.__setattr__(clone, key, value)
            return clone
        return obj


def _read_entries(
    buf: memoryview,
    entries: list[tuple[int, tuple[int, ...], str]],
    counters: TransportCounters,
) -> list[np.ndarray]:
    arrays: list[np.ndarray] = []
    for offset, shape, dtype_str in entries:
        dtype = np.dtype(dtype_str)
        count = math.prod(shape)
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        arrays.append(arr.reshape(shape).copy())
        counters.bytes_shm += count * dtype.itemsize
    return arrays


def _encode(
    payload: Any,
    buf: memoryview | None,
    region: _Region | None,
    counters: TransportCounters,
) -> Any:
    counters.descriptor_rounds += 1
    if region is not None:
        region.reset()
    packer = _Packer(buf, region, counters)
    packed = packer.pack(payload)
    if packer.entries:
        return (_SHM_TAG, packer.entries, packed)
    return payload if packed is payload else packed


def _decode(raw: Any, buf: memoryview | None, counters: TransportCounters) -> Any:
    counters.descriptor_rounds += 1
    if isinstance(raw, tuple) and len(raw) == 3 and raw[0] == _SHM_TAG:
        if buf is None:  # pragma: no cover - protocol guard
            raise RuntimeError("shm-tagged message on a pipe-only transport")
        _, entries, packed = raw
        arrays = _read_entries(buf, entries, counters)
        return _Unpacker(arrays, counters).unpack(packed)
    return _Unpacker([], counters).unpack(raw)


class ParentTransport:
    """The parent's end of one worker's transport.

    Encodes requests into the arena's request region and decodes
    responses out of its response region; owns the worker's
    :class:`TransportCounters` (both directions are counted here, so a
    worker's death never loses its accounting).
    """

    def __init__(self, transport: str, arena_bytes: int | None = None) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}")
        self.transport = transport
        self.counters = TransportCounters()
        self.arena: ShmArena | None = None
        if transport == "shm":
            per_direction = int(arena_bytes or DEFAULT_ARENA_BYTES)
            per_direction = max(
                ARENA_ALIGN, min(per_direction, MAX_ARENA_BYTES)
            )
            self.arena = ShmArena(per_direction, per_direction)

    def worker_config(self) -> dict[str, Any] | None:
        """Picklable bootstrap for :class:`WorkerTransport` (None = pipe)."""
        if self.arena is None:
            return None
        return {
            "name": self.arena.name,
            "response_start": self.arena.response.start,
            "response_size": self.arena.response.size,
        }

    def encode_request(self, request: Any) -> Any:
        if self.arena is None:
            return _encode(request, None, None, self.counters)
        return _encode(
            request, self.arena.segment.buf, self.arena.request, self.counters
        )

    def decode_response(self, raw: Any) -> Any:
        buf = None if self.arena is None else self.arena.segment.buf
        return _decode(raw, buf, self.counters)

    def close(self) -> None:
        if self.arena is not None:
            self.arena.unlink()


class WorkerTransport:
    """The worker's end: attach by name, decode requests, encode responses.

    The attach is lazy (first message). Workers are fork children of
    the parent that created the segment, so they inherit the parent's
    already-running ``resource_tracker``; the attach-time registration
    Python 3.11 performs is deduplicated against the parent's own, and
    the single unregister happens at the parent's ``unlink``. Touching
    the tracker here (register or unregister) would double-count or
    steal that registration and make the tracker print spurious
    leak/KeyError noise at exit.
    """

    def __init__(self, config: dict[str, Any] | None) -> None:
        self._config = config
        self._segment = None
        self._response: _Region | None = None
        self.counters = TransportCounters()

    def _attach(self) -> None:
        if self._segment is not None or self._config is None:
            return
        self._segment = shared_memory.SharedMemory(name=self._config["name"])
        self._response = _Region(
            self._config["response_start"], self._config["response_size"]
        )

    def decode_request(self, raw: Any) -> Any:
        if self._config is None:
            return _decode(raw, None, self.counters)
        self._attach()
        return _decode(raw, self._segment.buf, self.counters)

    def encode_response(self, payload: Any) -> Any:
        if self._config is None:
            return _encode(payload, None, None, self.counters)
        self._attach()
        return _encode(payload, self._segment.buf, self._response, self.counters)

    def close(self) -> None:
        """Drop the mapping (the parent unlinks; workers never do)."""
        if self._segment is not None:
            try:
                self._segment.close()
            except Exception:  # pragma: no cover - interpreter teardown
                pass
            self._segment = None
