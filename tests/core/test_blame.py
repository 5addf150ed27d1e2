"""Tests for blame attribution (Section 4.4) -- the paper's key analysis."""

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import blame, permanent
from repro.core.dataset import MeasurementDataset
from repro.world.defaults import build_default_world


@pytest.fixture(scope="module")
def perm_mask(perm_report):
    return perm_report.mask


@pytest.fixture(scope="module")
def analysis(blame_analysis):
    return blame_analysis


class TestBreakdownArithmetic:
    def test_fractions_sum_to_one(self, analysis):
        assert sum(analysis.breakdown.fractions()) == pytest.approx(1.0)

    def test_total_matches_tcp_failures(self, dataset, perm_mask, analysis):
        kept = dataset.tcp_failures * ~perm_mask[:, :, None]
        assert analysis.breakdown.total == int(kept.sum())

    def test_classified_fraction(self, analysis):
        b = analysis.breakdown
        expected = (b.server_side + b.client_side + b.both) / b.total
        assert b.classified_fraction == pytest.approx(expected)


class TestHeadlineFinding:
    def test_server_side_dominates_client_side(self, analysis):
        """The paper's headline: at the TCP level, server-side problems
        dominate -- because client problems surface as DNS failures."""
        b = analysis.breakdown
        assert b.server_side > 2 * b.client_side

    def test_both_category_small(self, analysis):
        b = analysis.breakdown
        assert b.both < 0.1 * b.total

    def test_other_category_substantial(self, analysis):
        """A large chunk of failures is intermittent (other)."""
        b = analysis.breakdown
        assert 0.2 < b.other / b.total < 0.7


class TestThresholdBehaviour:
    def test_stricter_threshold_more_other(self, dataset, perm_mask):
        b5, b10 = blame.blame_table(dataset, (0.05, 0.10), perm_mask)
        assert b10.other >= b5.other
        assert b10.classified_fraction <= b5.classified_fraction

    def test_episode_matrices_nested(self, dataset, perm_mask):
        a5 = blame.run_blame_analysis(dataset, 0.05, perm_mask)
        a10 = blame.run_blame_analysis(dataset, 0.10, perm_mask)
        assert (a10.server_episodes <= a5.server_episodes).all()
        assert (a10.client_episodes <= a5.client_episodes).all()


class TestEpisodeRecovery:
    def test_sina_flagged_server_side(self, dataset, world, analysis):
        """sina.com.cn (degraded most of the month in ground truth) must
        rack up by far the most server-side episode hours."""
        si = world.site_idx("sina.com.cn")
        sina_hours = analysis.server_episodes[si].sum()
        others = [
            analysis.server_episodes[i].sum()
            for i in range(len(world.websites)) if i != si
        ]
        assert sina_hours > np.percentile(others, 95)

    def test_intel_flagged_client_side(self, dataset, world, analysis):
        ci = world.client_idx("planet1.pittsburgh.intel-research.net")
        intel_hours = analysis.client_episodes[ci].sum()
        median_hours = np.median(analysis.client_episodes.sum(axis=1))
        assert intel_hours > 5 * max(1.0, median_hours)

    def test_ground_truth_episode_agreement(self, dataset, world, truth, analysis):
        """Hours the ground truth marks as heavy server trouble should be
        flagged; quiet hours should mostly not be."""
        flagged = analysis.server_episodes
        heavy = truth.site_fail >= 0.10
        quiet = truth.site_fail == 0.0
        recall = flagged[heavy].mean() if heavy.any() else 1.0
        false_rate = flagged[quiet].mean()
        assert recall > 0.8
        assert false_rate < 0.05


class TestExclusionMatters:
    def test_permanent_pairs_distort_without_exclusion(self, dataset, perm_mask):
        with_exclusion = blame.run_blame_analysis(dataset, 0.05, perm_mask)
        without = blame.run_blame_analysis(dataset, 0.05, None)
        # The permanent pairs inflate the failure pool substantially.
        assert without.breakdown.total > with_exclusion.breakdown.total


# --------------------------------------------------------------------------
# Per-client-hour sums against the (C, S, H) broadcast they replace
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_worlds():
    """The default roster at 1-3 hours, keyed by hours."""
    return {hours: build_default_world(hours=hours) for hours in (1, 2, 3)}


def _broadcast_oracle(tcp_plane, client_flags, server_flags):
    """The bucket sums and server_attributed as (C, S, H) products."""
    c_flag = client_flags[:, None, :]
    s_flag = server_flags[None, :, :]
    tcp = tcp_plane.astype(np.int64)
    buckets = (
        int((tcp * (s_flag & ~c_flag)).sum()),
        int((tcp * (c_flag & ~s_flag)).sum()),
        int((tcp * (c_flag & s_flag)).sum()),
        int((tcp * (~c_flag & ~s_flag)).sum()),
    )
    return buckets, (tcp * s_flag).sum(axis=2)


def _flags(rng, shape, mode):
    if mode == "none":
        return np.zeros(shape, dtype=bool)
    if mode == "all":
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < 0.3


class TestBucketsMatchBroadcast:
    @given(
        hours=st.integers(min_value=1, max_value=3),
        dtype=st.sampled_from([np.uint16, np.uint32, np.int64]),
        masked=st.booleans(),
        client_mode=st.sampled_from(["random", "none", "all"]),
        server_mode=st.sampled_from(["random", "none", "all"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_buckets_and_attribution(
        self, short_worlds, hours, dtype, masked, client_mode, server_mode,
        seed,
    ):
        world = short_worlds[hours]
        rng = np.random.default_rng(seed)
        arrays = MeasurementDataset.block_template(world, hours)
        for name in MeasurementDataset._TRANSACTION_FIELDS:
            arrays[name] = rng.integers(
                0, 40, size=arrays[name].shape
            ).astype(dtype)
        dataset = MeasurementDataset.from_arrays(world, arrays)
        c, s, _ = dataset.shape
        excluded = rng.random((c, s)) < 0.1 if masked else None
        client_flags = _flags(rng, (c, hours), client_mode)
        server_flags = _flags(rng, (s, hours), server_mode)

        def chosen_flags(matrix, threshold):
            return client_flags if len(matrix.rates) == c else server_flags

        with mock.patch.object(blame, "episode_matrix", chosen_flags):
            analysis = blame.run_blame_analysis(dataset, 0.05, excluded)
            (table_row,) = blame.blame_table(dataset, (0.05,), excluded)

        tcp = dataset.tcp_failures
        if masked:
            tcp = tcp * ~excluded[:, :, None]
        buckets, attributed = _broadcast_oracle(tcp, client_flags, server_flags)
        b = analysis.breakdown
        assert (b.server_side, b.client_side, b.both, b.other) == buckets
        assert table_row == b
        assert analysis.server_attributed.shape == (c, s)
        assert analysis.server_attributed.dtype == np.int64
        np.testing.assert_array_equal(analysis.server_attributed, attributed)


class TestBlameMemory:
    def test_one_call_stays_within_per_entity_memory(self, dataset, perm_mask):
        """One masked blame call peaks below two (C, S, H) int64 planes
        and keeps less than a quarter plane alive afterwards."""
        plane = int(np.prod(dataset.shape)) * 8
        gc.collect()
        tracemalloc.start()
        try:
            analysis = blame.run_blame_analysis(dataset, 0.05, perm_mask)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert analysis.breakdown.total > 0
        assert peak < 2 * plane
        assert held < 0.25 * plane


class TestReportRateMatrixBuilds:
    def test_report_builds_each_masked_pair_three_times(self, tmp_path):
        """The report's analysis path builds the masked client/server rate
        matrices once per use: the f=5% analysis (whose blame pass the
        evidence reuses), Figure 4 and Table 5 (one build for both
        thresholds)."""
        from repro import cli

        metrics = tmp_path / "metrics.txt"
        assert cli.main(
            ["--hours", "24", "report", "--metrics", str(metrics)]
        ) == 0
        calls = {}
        for line in metrics.read_text().splitlines():
            if line.startswith("repro_stage_calls_total{"):
                key, value = line.rsplit(" ", 1)
                calls[key] = float(value)
        for side in ("client", "server"):
            key = (
                'repro_stage_calls_total'
                f'{{stage="episodes.{side}_rate_matrix"}}'
            )
            assert calls[key] == 3
        assert calls['repro_stage_calls_total{stage="blame.run"}'] == 1
