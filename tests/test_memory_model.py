"""The memory model reads declarations, and the declarations hold.

``SpecMemoryModel.estimate`` prices a session from what its spec's
stages declare (``Stage.STATE`` rows, kernel work registers, the track
bank's records) without building a pipeline. Pinned here:

* an estimate builds and ticks no pipeline;
* the declared per-slot bytes agree, within 10%, with the experiment
  they replace: the growth of every array buffer reachable from a
  pipeline's stages and frame counter, 9 served slots against 1;
* after any sequence of attach, tick, evict and move, every allocated
  ``STATE`` slab holds exactly its declared bytes per slot.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.backend import resolve_shape
from repro.loadgen import SpecMemoryModel, SyntheticFrameSource, frame_shape
from repro.loadgen.memory import STAGES, slot_nbytes
from repro.pipeline import Pipeline
from repro.serve import SessionSpec, multi_session, single_session

SPECS = {
    "single": single_session(),
    "multi": multi_session(max_people=2),
}


def _buffer_nbytes(pipeline) -> int:
    """Bytes of the distinct array buffers reachable from the pipeline's
    stages and its frame counter; a view counts through the array that
    owns its memory, once."""
    owners: dict[int, int] = {}
    seen: set[int] = set()
    stack = [[s.__dict__ for s in pipeline.stages], pipeline._frames_in]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.append(vars(obj))
    return sum(owners.values())


def _served(spec, n_slots, ticks=3):
    """A pipeline of ``spec`` with ``n_slots`` slots, each served
    ``ticks`` deterministic synthetic frames."""
    pipeline = spec.build_pipeline()
    pipeline.attach_sessions(n_slots)
    source = SyntheticFrameSource(spec, seed=0)
    for _ in range(ticks):
        block = source.next_block()
        pipeline.tick(np.stack([block] * n_slots), np.arange(n_slots))
    return pipeline


def test_estimate_builds_and_ticks_no_pipeline(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an estimate must read declarations only")

    monkeypatch.setattr(SessionSpec, "build_pipeline", refuse)
    monkeypatch.setattr(Pipeline, "tick", refuse)
    model = SpecMemoryModel()
    for spec in SPECS.values():
        assert model.estimate(spec) > slot_nbytes(spec) > 0


@pytest.mark.parametrize("kind", list(SPECS))
def test_declared_slot_bytes_match_served_growth(kind):
    spec = SPECS[kind]
    assert tuple(map(type, spec.build_pipeline().stages)) == STAGES[kind]
    growth = (
        _buffer_nbytes(_served(spec, 9)) - _buffer_nbytes(_served(spec, 1))
    ) / 8
    assert abs(slot_nbytes(spec) - growth) <= 0.10 * growth


#: Pipeline operations: attach up to n slots, tick a set of slots, evict
#: a slot, move one slot into another (slots taken modulo the attached
#: count).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.integers(1, 6)),
        st.tuples(st.just("tick"), st.sets(st.integers(0, 5), min_size=1)),
        st.tuples(st.just("evict"), st.integers(0, 5)),
        st.tuples(st.just("move"), st.integers(0, 5), st.integers(0, 5)),
    ),
    max_size=12,
)


def _declared_slab_nbytes(stage, dims) -> dict:
    """Attribute -> declared bytes per slot, per ``STATE`` field."""
    return {
        "_" + field: np.dtype(dtype).itemsize
        * math.prod(resolve_shape(trailing, dims))
        for field, (dtype, _, trailing) in type(stage).STATE.items()
    }


@pytest.mark.parametrize("kind", list(SPECS))
@settings(max_examples=30, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_allocated_slabs_hold_their_declared_bytes(kind, ops, seed):
    spec = SPECS[kind]
    n_rx, _, n_bins = frame_shape(spec)
    dims = {
        "n_rx": n_rx,
        "n_bins": n_bins,
        "confirmation_frames": spec.config.pipeline.jump_confirmation_frames,
    }
    pipeline = spec.build_pipeline()
    source = SyntheticFrameSource(spec, seed=seed)
    for op, *args in ops:
        n = pipeline.num_sessions
        if op == "attach":
            pipeline.attach_sessions(args[0])
        elif op == "tick":
            slots = np.array(sorted({s % n for s in args[0]}))
            block = source.next_block()
            pipeline.tick(np.stack([block] * len(slots)), slots)
        elif op == "evict":
            pipeline.evict_session(args[0] % n)
        elif args[0] % n != args[1] % n:
            pipeline.move_session(args[0] % n, args[1] % n)
        for stage in pipeline.stages:
            for attr, per_slot in _declared_slab_nbytes(stage, dims).items():
                slab = getattr(stage, attr)
                if slab is not None:
                    assert len(slab) == pipeline.num_sessions
                    assert slab.nbytes == len(slab) * per_slot
