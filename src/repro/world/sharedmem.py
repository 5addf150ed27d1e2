"""The pooled hour block's count buffer: one anonymous shared mapping.

A :class:`~repro.world.parallel.BlockPool` counts every pooled hour
block -- a whole batch month, or one serve chunk -- into a *slot*: one
``mmap.mmap(-1, size)`` mapping sized for the pool's largest block.
The mapping is anonymous and ``MAP_SHARED`` (the POSIX default): the
pool allocates its slots before its workers fork, every forked worker
inherits them (as it inherits the pool's simulator) and writes its
*disjoint* contiguous hour slice through the inherited views (no locks
needed -- shards partition the block's hour axis), and the parent hands
the same views on as the block's arrays.  No count array rides a
pickle, no count is copied, and nothing is named: no ``/dev/shm`` file,
no resource tracker, no unlink.

A batch pool has one slot, whose views become the finished dataset.  The
serve daemon's pool has two, used in turn for the whole run: a chunk
shorter than its slot is the slot's first hours (``[..., :n]`` views),
and the daemon drops a chunk's views once it is committed and folded,
before the chunk after next overwrites the slot.  Every hour a shard
simulates is assigned in full, so nothing of an earlier block shows
through.  A mapping is released when the pool has closed and its last
view is dropped.

Layout is deterministic: field order follows
``MeasurementDataset._ARRAY_FIELDS``, every field is aligned to its
itemsize, the hour axis spans the slot's hour count, and dtypes come
from :meth:`~repro.core.dataset.MeasurementDataset.planned_dtypes`, the
one dtype plan every path starts at.  A fixed-dtype buffer cannot be
promoted mid-run, so a count past its plan raises ``OverflowError`` in
the worker and the block demotes to in-process shards.
"""

from __future__ import annotations

import mmap
from typing import Dict

import numpy as np

from repro.core.dataset import MeasurementDataset
from repro.world.entities import World


class SharedMonthBuffer:
    """One slot: an hour block's count buffer, shared with forked workers.

    Sized for ``n_hours`` (a whole month is the largest block).
    Anonymous mappings are zero-filled, so fields need no explicit
    clear before workers write their hour slices.
    """

    def __init__(self, world: World, per_hour: int, n_hours: int) -> None:
        dtypes = MeasurementDataset.planned_dtypes(world, per_hour)
        shapes = MeasurementDataset.block_shapes(world, n_hours)
        offsets: Dict[str, int] = {}
        size = 0
        for name, shape in shapes.items():
            itemsize = dtypes[name].itemsize
            # Align to the itemsize so every view is a native-aligned array.
            size = -(-size // itemsize) * itemsize
            offsets[name] = size
            size += int(np.prod(shape)) * itemsize
        mapping = mmap.mmap(-1, max(1, size))
        self._mapping = mapping
        self._offsets = offsets
        #: Every field as a view of the mapping; each view keeps the
        #: mapping alive, so it lives exactly as long as they do.
        self.arrays: Dict[str, np.ndarray] = {
            name: np.ndarray(
                shape, dtype=dtypes[name], buffer=mapping,
                offset=offsets[name],
            )
            for name, shape in shapes.items()
        }

    def shard_arrays(self, lo: int, hi: int) -> Dict[str, np.ndarray]:
        """Views restricted to block hours ``[lo, hi)``: one shard's share.

        A sink writing through them cannot touch another worker's
        hours, and summing a view observes only this shard's counts.
        """
        return {name: view[..., lo:hi] for name, view in self.arrays.items()}

    def adopt_into(self, arrays: Dict[str, np.ndarray], n_hours: int) -> None:
        """Hand a finished block -- the slot's first ``n_hours`` hours --
        to ``arrays`` by reference: no copy.

        Each field is a view made directly on the mapping (its ``base``),
        so the block's arrays alone keep the mapping alive.
        """
        for name, view in self.arrays.items():
            if not 0 <= n_hours <= view.shape[-1]:
                raise ValueError(
                    f"a {n_hours}-hour block does not fit a "
                    f"{view.shape[-1]}-hour slot"
                )
            arrays[name] = np.ndarray(
                view.shape[:-1] + (n_hours,), dtype=view.dtype,
                buffer=self._mapping, offset=self._offsets[name],
                strides=view.strides,
            )
