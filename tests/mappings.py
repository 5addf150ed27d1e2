"""What this process holds of shared memory, for block-buffer lifecycle
tests.  Linux lists a ``MAP_SHARED | MAP_ANONYMOUS`` region in
``/proc/self/maps`` as ``/dev/zero (deleted)``; named POSIX segments
live as files under ``/dev/shm``."""

import os

import pytest

requires_proc_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)


def shared_anonymous_mappings() -> int:
    """How many shared anonymous mappings this process holds."""
    with open("/proc/self/maps") as maps:
        return sum(
            1 for line in maps
            if line.split()[1].endswith("s")
            and line.rstrip().endswith("/dev/zero (deleted)")
        )


def dev_shm_entries() -> set:
    """Names under ``/dev/shm`` (none where there is no such mount)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()
