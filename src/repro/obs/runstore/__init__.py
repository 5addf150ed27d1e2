"""Persistent run registry: content-addressed manifests, attribution
evidence, cross-run diffing, and the bench trajectory.

Import the submodules by name (``from repro.obs.runstore.store
import RunStore``); this package re-exports nothing.
:mod:`~repro.obs.runstore.store` pulls in :mod:`repro.core.dataset` and
numpy, so the ``repro runs`` verbs and the other subcommand front ends
import it inside the verbs that use it, never while the parser is
built.
"""
