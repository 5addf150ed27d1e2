"""The online detector evaluates each side's knee once per folded hour.

``_fold_hour`` computes the side's threshold after inserting the hour's
rates, and the onset walk of every newly flagged entity reuses it: the
sorted rates it would recompute from are unchanged.  Checked against a
detector that recomputes the threshold per walk, on the seed world's
natural faults, with and without a retention window.
"""

from __future__ import annotations

import json

import pytest

from repro.core import knee as knee_mod
from repro.obs.online.detector import OnlineDetector
from repro.obs.runstore.store import serialize_alerts


class _RecomputingDetector(OnlineDetector):
    """The onset walk recomputing the threshold from the side's rates."""

    @staticmethod
    def _walk_back_onset(state, i, hour, threshold):
        return OnlineDetector._walk_back_onset(
            state, i, hour, state.threshold()
        )


def _fold(detector_cls, world, dataset, retention_hours):
    """Fold every hour of ``dataset`` into a fresh detector."""
    detector = detector_cls(retention_hours=retention_hours)
    detector.update(
        {"type": "run_start", "hours": world.hours, **world.roster()}
    )
    detector.fold_block(dataset.arrays(), 0)
    return detector


@pytest.mark.parametrize("retention_hours", [None, 24])
def test_alerts_and_episodes_match_the_recomputing_walk(
    world, dataset, retention_hours
):
    ours = _fold(OnlineDetector, world, dataset, retention_hours)
    reference = _fold(_RecomputingDetector, world, dataset, retention_hours)
    episodes = ours.episodes_document()
    # The seed world's natural faults open episodes on both sides.
    assert len(episodes["episodes"]) > 5
    assert {e["side"] for e in episodes["episodes"]} == {"client", "server"}
    assert serialize_alerts(ours.export()["lines"]) == serialize_alerts(
        reference.export()["lines"]
    )
    assert json.dumps(episodes, sort_keys=True) == json.dumps(
        reference.episodes_document(), sort_keys=True
    )


def test_two_knee_evaluations_per_folded_hour(world, dataset, monkeypatch):
    calls = []
    knee_of_sorted = knee_mod.knee_of_sorted

    def counted(*args, **kwargs):
        calls.append(1)
        return knee_of_sorted(*args, **kwargs)

    monkeypatch.setattr(knee_mod, "knee_of_sorted", counted)
    detector = _fold(OnlineDetector, world, dataset, None)
    assert detector.hours_folded == world.hours
    assert len(calls) == 2 * world.hours
