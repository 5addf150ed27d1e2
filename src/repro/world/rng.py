"""Seeded, named random streams.

Every stochastic component draws from its own named stream derived from the
master seed, so that (a) runs are exactly reproducible and (b) changing one
component's draws (say, adding a fault process) does not perturb every other
component's randomness -- which keeps calibration stable as the simulator
evolves.

Seed derivation is *namespaced* by stream kind: a stdlib stream, a numpy
stream, and a fork that happen to share a name must not share a seed
(``stream("faults")`` and ``fork("faults")`` would otherwise produce
correlated draws).  Derivation is also *stateless*: the seed for a name
depends only on the master seed and the name, never on creation order or
on how much any other stream has been consumed -- the property that lets
the hour-sharded parallel engine derive identical per-hour streams in any
worker process.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np
# Imported here, not on first use: numpy loads its random package
# lazily, and every forked worker would otherwise import it itself.
import numpy.random  # noqa: F401

from repro import obs


class RNGRegistry:
    """Hands out independent :class:`random.Random` and numpy generators.

    Every stream creation and fork is recorded on the observability event
    log (``rng.stream`` / ``rng.np_stream`` / ``rng.fork`` events carrying
    the derived seed), so a ``--trace`` run's JSONL file contains every
    seed needed to reproduce the simulation exactly.
    """

    def __init__(self, master_seed: int = 20050101) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}
        self._np_streams: Dict[str, np.random.Generator] = {}

    def _derive(self, namespace: str, name: str) -> int:
        digest = hashlib.sha256(
            f"{self.master_seed}:{namespace}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def derived_seed(self, namespace: str, name: str) -> int:
        """The seed a stream of ``namespace``/``name`` would get.

        Exposed so tests and external replayers can pin expected seeds
        without creating the stream.
        """
        return self._derive(namespace, name)

    def stream(self, name: str) -> random.Random:
        """The stdlib Random stream for ``name`` (created on first use)."""
        if name not in self._streams:
            seed = self._derive("stream", name)
            obs.event(
                "rng.stream", name=name, seed=seed, master=self.master_seed
            )
            # repro: lint-ok[DET004] registry-internal construction
            self._streams[name] = random.Random(seed)
        return self._streams[name]

    def fresh(self, name: str) -> random.Random:
        """A freshly seeded stdlib Random for ``name``, never cached.

        The stdlib counterpart of :meth:`np_fresh`: repeated calls
        return *new* generators rewound to the stream's start, so a
        bounded, self-contained consumer (one dial-up session, one
        driver instance) draws bit-identically no matter how many times
        or in which process it runs.  Shares the ``stream`` namespace:
        ``fresh(n)`` starts where a brand-new ``stream(n)`` would.
        """
        seed = self._derive("stream", name)
        obs.event("rng.fresh", name=name, seed=seed, master=self.master_seed)
        # repro: lint-ok[DET004] registry-internal construction
        return random.Random(seed)

    def np_stream(self, name: str) -> np.random.Generator:
        """The numpy Generator stream for ``name`` (created on first use)."""
        if name not in self._np_streams:
            seed = self._derive("np", name)
            obs.event(
                "rng.np_stream", name=name, seed=seed, master=self.master_seed
            )
            # repro: lint-ok[DET004] registry-internal construction
            self._np_streams[name] = np.random.default_rng(seed)
        return self._np_streams[name]

    def np_fresh(self, name: str) -> np.random.Generator:
        """A freshly seeded numpy Generator for ``name``, never cached.

        Unlike :meth:`np_stream`, repeated calls return *new* generators
        rewound to the stream's start, so a consumer that draws a bounded,
        self-contained block (one simulated hour, say) gets bit-identical
        draws no matter which process or in which order it runs.  Shares
        the ``np`` namespace: ``np_fresh(n)`` starts where a brand-new
        ``np_stream(n)`` would.
        """
        seed = self._derive("np", name)
        obs.event(
            "rng.np_fresh", name=name, seed=seed, master=self.master_seed
        )
        # repro: lint-ok[DET004] registry-internal construction
        return np.random.default_rng(seed)

    def fork(self, name: str) -> "RNGRegistry":
        """A child registry whose master seed is derived from ``name``."""
        seed = self._derive("fork", name)
        obs.event("rng.fork", name=name, seed=seed, master=self.master_seed)
        return RNGRegistry(seed)
