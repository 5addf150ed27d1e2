"""Shared-memory transport of hour-block counts between processes.

Every pooled hour block -- a whole batch month or one serve chunk --
moves its counts through one ``multiprocessing.shared_memory`` block
sized for that block: the parent creates it, every worker attaches and
writes its *disjoint* contiguous hour slice directly (no locks needed --
shards partition the block's hour axis), and the parent adopts the
finished arrays with a single bulk copy per field.  No count array
rides a pickle.

Layout is deterministic: field order follows
``MeasurementDataset._ARRAY_FIELDS``, every field is aligned to its
itemsize, the hour axis spans the block's hour count, and dtypes come
from :meth:`~repro.core.dataset.MeasurementDataset.planned_dtypes` --
sized once, up front, from the access configuration, because a shared
block cannot be promoted mid-run.  Workers recompute the same layout
from the same ``(world, per_hour, block hours)`` inputs, so only the
block's *name*, start hour and hour count ride the task payload.

Lifecycle: the parent owns the block and unlinks it in a ``finally`` --
on success, on worker crash, and on KeyboardInterrupt.  Workers are
forked after the parent created the block, so they share its resource
tracker, and their attach-time registration is an idempotent re-add.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dataset import MeasurementDataset, _widened_dtype
from repro.world.entities import World

_REPLICA_FIELDS = ("replica_connections", "replica_failed_connections")


@dataclass(frozen=True)
class FieldSpec:
    """One count array's placement inside the shared block."""

    name: str
    dtype: np.dtype
    shape: Tuple[int, ...]
    offset: int


def plan_layout(
    world: World, per_hour: int, n_hours: int
) -> Tuple[List[FieldSpec], int]:
    """Field placements plus total byte size for an ``n_hours`` block.

    Pure function of ``(world, per_hour, n_hours)``: parent and workers
    derive identical layouts independently.
    """
    c, s = len(world.clients), len(world.websites)
    r = max(1, world.max_replicas())
    dtypes = MeasurementDataset.planned_dtypes(world, per_hour)
    fields: List[FieldSpec] = []
    offset = 0
    for name in MeasurementDataset._ARRAY_FIELDS:
        shape = (s, r, n_hours) if name in _REPLICA_FIELDS else (c, s, n_hours)
        dtype = np.dtype(dtypes[name])
        # Align to the itemsize so every view is a native-aligned array.
        offset = -(-offset // dtype.itemsize) * dtype.itemsize
        fields.append(FieldSpec(name, dtype, shape, offset))
        offset += int(np.prod(shape)) * dtype.itemsize
    return fields, max(1, offset)


def _views(shm: shared_memory.SharedMemory,
           layout: List[FieldSpec]) -> Dict[str, np.ndarray]:
    return {
        spec.name: np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        for spec in layout
    }


class SharedMonthBuffer:
    """Parent-side owner of one hour block's shared count buffer.

    Sized for ``n_hours`` (a whole month is the largest block).
    """

    def __init__(self, world: World, per_hour: int, n_hours: int) -> None:
        self.layout, self.size = plan_layout(world, per_hour, n_hours)
        self._shm = shared_memory.SharedMemory(create=True, size=self.size)
        #: POSIX shared memory is zero-filled on creation, so fields need
        #: no explicit clear before workers write their hour slices.
        self.name = self._shm.name
        self.arrays = _views(self._shm, self.layout)

    def adopt_into(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy every finished field into the block ``arrays`` (one pass each).

        ``arrays`` starts as a
        :meth:`~repro.core.dataset.MeasurementDataset.block_template`; a
        field whose actual peak outgrows its dtype is replaced by a
        widened array first, so the copy itself can never wrap.
        """
        for spec in self.layout:
            view = self.arrays[spec.name]
            peak = int(view.max()) if view.size else 0
            target = arrays[spec.name]
            if peak > np.iinfo(target.dtype).max:
                target = arrays[spec.name] = np.empty(
                    target.shape, _widened_dtype(peak, target.dtype)
                )
            target[...] = view

    def destroy(self) -> None:
        """Detach and unlink; safe to call more than once."""
        self.arrays = {}
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass


def attach_shard_arrays(
    name: str, world: World, per_hour: int, n_hours: int,
    lo: int, hi: int,
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Worker-side attach: views restricted to block hours ``[lo, hi)``.

    ``n_hours`` is the whole block's hour count (it fixes the layout);
    ``lo``/``hi`` are this shard's offsets into it.  The returned views
    cover only this shard's hour slice, so a sink writing through them
    cannot touch another worker's hours, and summing a view observes
    only this shard's counts.  Caller closes the returned segment when
    the shard is done (the parent unlinks).
    """
    layout, _ = plan_layout(world, per_hour, n_hours)
    shm = shared_memory.SharedMemory(name=name)
    views = _views(shm, layout)
    sliced = {field: view[..., lo:hi] for field, view in views.items()}
    return shm, sliced
