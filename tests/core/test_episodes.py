"""Tests for episode identification and the CDF knee (Section 4.4.3)."""

import numpy as np
import pytest

from repro.core import episodes


class TestRateMatrices:
    def test_client_matrix_shape(self, dataset):
        matrix = episodes.client_rate_matrix(dataset)
        assert matrix.rates.shape == (len(dataset.world.clients), dataset.world.hours)

    def test_low_sample_hours_invalid(self, dataset):
        matrix = episodes.client_rate_matrix(dataset, min_samples=10**9)
        assert not matrix.valid.any()

    def test_rates_bounded(self, dataset):
        matrix = episodes.server_rate_matrix(dataset)
        rates = matrix.flatten_valid()
        assert (rates >= 0.0).all() and (rates <= 1.0).all()

    def test_masked_counts_supported(self, dataset):
        import numpy as np

        c, s, _ = dataset.shape
        mask = np.zeros((c, s), dtype=bool)
        mask[:, 0] = True
        full = episodes.server_rate_matrix(dataset)
        masked = episodes.server_rate_matrix(dataset, excluded_pairs=mask)
        assert masked.transactions[0].sum() == 0
        assert full.transactions[0].sum() > 0


class TestCDFAndKnee:
    def test_cdf_monotone(self, dataset):
        matrix = episodes.client_rate_matrix(dataset)
        rates, cdf = episodes.rate_cdf(matrix)
        assert (np.diff(rates) >= 0).all()
        assert (np.diff(cdf) > 0).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_knee_lands_in_candidate_range(self, dataset):
        for matrix in (
            episodes.client_rate_matrix(dataset),
            episodes.server_rate_matrix(dataset),
        ):
            knee = episodes.detect_knee(matrix)
            assert 0.01 <= knee <= 0.30

    def test_knee_near_paper_f(self, dataset):
        """The detected knee should land in the single-digit-percent range
        the paper reads off Figure 4 (they pick 5%)."""
        knee = episodes.detect_knee(episodes.server_rate_matrix(dataset))
        assert 0.02 <= knee <= 0.10

    def test_knee_on_synthetic_bimodal(self):
        """Mass at ~1% plus a tail at 20-80% -> knee between them."""
        rng = np.random.default_rng(0)
        normal = rng.uniform(0.0, 0.02, size=2000)
        abnormal = rng.uniform(0.2, 0.8, size=100)
        rates = np.concatenate([normal, abnormal]).reshape(1, -1)
        matrix = episodes.RateMatrix(
            rates=rates, transactions=np.full_like(rates, 100, dtype=np.int64)
        )
        knee = episodes.detect_knee(matrix)
        assert 0.01 <= knee <= 0.2

    def test_knee_empty_raises(self):
        matrix = episodes.RateMatrix(
            rates=np.full((1, 5), np.nan), transactions=np.zeros((1, 5), dtype=int)
        )
        with pytest.raises(ValueError):
            episodes.detect_knee(matrix)


class TestKneeEdgeCases:
    """Degenerate inputs must yield a sane threshold or a clean ValueError,
    never an index error or NaN."""

    @staticmethod
    def _matrix(rates):
        rates = np.asarray(rates, dtype=float).reshape(1, -1)
        return episodes.RateMatrix(
            rates=rates,
            transactions=np.full_like(rates, 100, dtype=np.int64),
        )

    def test_all_identical_rates_in_range(self):
        """A zero-spread window has no curvature to find; the knee is the
        one rate everything sits at."""
        knee = episodes.detect_knee(self._matrix([0.05] * 50))
        assert knee == pytest.approx(0.05)

    def test_all_identical_rates_below_range(self):
        """Failure-free data leaves no candidate samples: fall back to the
        paper's f = 5%."""
        assert episodes.detect_knee(self._matrix([0.0] * 50)) == 0.05

    def test_fewer_than_three_valid_samples(self):
        assert episodes.detect_knee(self._matrix([0.02, 0.04])) == 0.05

    def test_no_samples_in_candidate_range(self):
        """Rates exist but none land inside the candidate window."""
        knee = episodes.detect_knee(
            self._matrix([0.001] * 20 + [0.9] * 20),
            candidate_range=(0.05, 0.30),
        )
        assert knee == 0.05

    def test_inverted_candidate_range(self):
        """A lo > hi range selects nothing and degrades like an empty one."""
        knee = episodes.detect_knee(
            self._matrix(np.linspace(0.0, 1.0, 100)),
            candidate_range=(0.30, 0.01),
        )
        assert knee == 0.05

    def test_result_is_finite(self):
        rng = np.random.default_rng(3)
        knee = episodes.detect_knee(self._matrix(rng.uniform(0, 1, 500)))
        assert np.isfinite(knee)


class TestEpisodeMatrix:
    def test_threshold_applied(self, dataset):
        matrix = episodes.server_rate_matrix(dataset)
        flags5 = episodes.episode_matrix(matrix, 0.05)
        flags10 = episodes.episode_matrix(matrix, 0.10)
        assert flags10.sum() <= flags5.sum()
        assert not flags5[np.isnan(matrix.rates)].any()

    def test_threshold_validated(self, dataset):
        matrix = episodes.server_rate_matrix(dataset)
        with pytest.raises(ValueError):
            episodes.episode_matrix(matrix, 0.0)
        with pytest.raises(ValueError):
            episodes.episode_matrix(matrix, 1.5)


class TestCoalescing:
    def test_simple_runs(self):
        flags = np.array([
            [True, True, False, True, False],
            [False, False, False, False, False],
            [True, True, True, True, True],
        ])
        coalesced = episodes.coalesce_episodes(flags)
        durations = sorted(e.duration_hours for e in coalesced)
        assert durations == [1, 2, 5]

    def test_run_boundaries(self):
        flags = np.array([[False, True, True, False]])
        (episode,) = episodes.coalesce_episodes(flags)
        assert (episode.start_hour, episode.end_hour) == (1, 2)

    def test_stats(self):
        flags = np.array([
            [True, True, False, False],
            [False, True, False, False],
            [False, False, False, False],
        ])
        stats = episodes.episode_stats(flags)
        assert stats.total_episode_hours == 3
        assert stats.coalesced_count == 2
        assert stats.entities_with_any == 2
        assert stats.entities_with_multiple == 1  # row 0 has 2 hours
        assert stats.mean_duration == pytest.approx(1.5)
        assert stats.max_duration == 2

    def test_stats_empty(self):
        stats = episodes.episode_stats(np.zeros((3, 5), dtype=bool))
        assert stats.total_episode_hours == 0
        assert stats.coalesced_count == 0
        assert stats.mean_duration == 0.0
