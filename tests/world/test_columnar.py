"""The columnar engine's scratch: fixed-size lattice chunks.

The lattice chunk length is a memory knob only -- every hour's rates
and draws are independent of the chunk around it -- and the engine's
scratch is allocated once per block, so it does not grow with the
block's length.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import MeasurementDataset
from repro.world.columnar import (
    _LATTICE_BYTES_PER_CELL_HOUR,
    _STAGING_BYTES_PER_CELL_HOUR,
    BlockSink,
)
from repro.world.defaults import build_default_world
from repro.world.faults import FaultGenerator
from repro.world.outcome_model import AccessConfig
from repro.world.rng import RNGRegistry
from repro.world.simulator import MonthSimulator

HOURS = 48
SEED = 4242


@pytest.fixture(scope="module")
def simulator():
    world = build_default_world(hours=HOURS)
    rngs = RNGRegistry(SEED)
    truth = FaultGenerator(world, rngs=rngs.fork("faults")).generate()
    return MonthSimulator(
        world, access=AccessConfig(per_hour=2), rngs=RNGRegistry(SEED),
        truth=truth,
    )


def test_default_chunks_are_a_few_hours(simulator):
    engine = simulator.engine
    assert 2 <= engine.lattice_hours <= 6
    assert engine.lattice_hours < engine.flush_hours <= 24


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    start=st.integers(0, HOURS - 1),
    length=st.integers(1, 30),
)
def test_chunk_length_never_changes_a_count(simulator, start, length):
    """Lattice chunks of 1, 3 and 24 hours (flushes four times as
    long) give bit-identical shards."""
    stop = min(HOURS, start + length)
    engine = simulator.engine
    default = engine.lattice_hours
    arrays = []
    try:
        for chunk in (1, 3, 24):
            engine.lattice_hours = chunk
            arrays.append(simulator.run_shard(start, stop).arrays)
    finally:
        engine.lattice_hours = default
    for other in arrays[1:]:
        for name, array in arrays[0].items():
            assert other[name].dtype == array.dtype, name
            np.testing.assert_array_equal(other[name], array, err_msg=name)


def _shard_peak(simulator, sink, hours):
    gc.collect()
    tracemalloc.start()
    try:
        simulator.run_shard(0, hours, sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_does_not_grow_with_the_shard(simulator):
    """A 48-hour shard peaks where a 6-hour one does: the lattice is
    one chunk and the staging one flush long, whatever the shard's
    length."""
    world = simulator.world
    sink = BlockSink(
        MeasurementDataset.block_template(world, HOURS, 2), 0,
        fixed_dtype=True,
    )
    short = _shard_peak(simulator, sink, 6)
    long = _shard_peak(simulator, sink, HOURS)
    cells = len(world.clients) * len(world.websites)
    # Scratch that grew with the shard would add at least one (C, S)
    # int32 plane for each of the 42 extra hours.  The slack is two
    # planes: a chunk's small per-site vectors live until the next
    # chunk's lattice is built.
    assert long - short < 2 * 4 * cells
    engine = simulator.engine
    budget = cells * (
        engine.lattice_hours * _LATTICE_BYTES_PER_CELL_HOUR
        + engine.flush_hours * _STAGING_BYTES_PER_CELL_HOUR
    )
    assert short < 1.5 * budget
