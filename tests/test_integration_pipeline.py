"""End-to-end integration: detailed engine -> records -> full analysis.

Everything the paper did, in one pass, through the *message-level*
substrates (no vectorised shortcuts): run the Section 3.4 procedure for a
subset of clients and hours, fold the performance records into a dataset,
and run classification, episode detection, and blame attribution over it.
This is the closest the suite comes to replaying the actual experiment.
"""

import numpy as np
import pytest

from repro.core import blame, classify, episodes
from repro.core.dataset import MeasurementDataset
from repro.core.records import FailureType
from repro.world.experiment import ExperimentDriver

CLIENTS = [
    "planetlab1.nyu.edu",
    "planetlab1.epfl.ch",
    "planet1.pittsburgh.intel-research.net",
    "planetlab1.hp.com",
    "du-icg-boston",
    "bb-rr-sd-1",
    "SEA1",
]
HOURS = list(range(0, 12))


@pytest.fixture(scope="module")
def pipeline(world, truth, detailed_engine):
    """Run the experiment and the analysis once for the module."""
    driver = ExperimentDriver(detailed_engine, seed=17)
    sites = [w.name for w in world.websites][:25] + [
        "sina.com.cn", "iitb.ac.in", "royal.gov.uk",
    ]
    iterations = []
    for hour in HOURS:
        for client in CLIENTS:
            iterations.append(driver.run_iteration(client, hour, sites))
    batch = driver.collect(iterations)
    dataset = MeasurementDataset(world)
    dataset.add_records(batch)
    return iterations, batch, dataset


class TestExperimentalRun:
    def test_volume(self, pipeline, truth, world):
        iterations, batch, dataset = pipeline
        # Every up client x hour x URL produced one record.
        expected = 0
        for hour in HOURS:
            for client in CLIENTS:
                ci = world.client_idx(client)
                if truth.client_up[ci, hour]:
                    expected += 28
        assert len(batch) == expected

    def test_failure_rate_in_band(self, pipeline):
        _, batch, _ = pipeline
        assert 0.005 < batch.failure_rate() < 0.25

    def test_every_failure_fully_classified(self, pipeline):
        _, batch, _ = pipeline
        for record in batch.failures():
            assert record.failure_type is not FailureType.NONE
            if record.failure_type is FailureType.DNS:
                assert record.dns_kind is not None
            if record.failure_type is FailureType.TCP:
                assert record.tcp_kind is not None

    def test_permanent_pair_visible(self, pipeline):
        """hp.com <-> sina.com.cn is near-permanently broken."""
        _, batch, _ = pipeline
        sub = batch.for_client("planetlab1.hp.com").for_site("sina.com.cn")
        if len(sub) >= 5:
            assert sub.failure_rate() > 0.9


class TestAnalysisOverRealRecords:
    def test_classification_tables_render(self, pipeline):
        _, _, dataset = pipeline
        rows = classify.category_summary(dataset)
        assert sum(r.transactions for r in rows) == int(
            dataset.transactions.sum()
        )

    def test_episode_detection_runs(self, pipeline):
        _, _, dataset = pipeline
        matrix = episodes.client_rate_matrix(dataset, min_samples=5)
        assert matrix.valid.any()

    def test_blame_attribution_runs(self, pipeline):
        _, _, dataset = pipeline
        analysis = blame.run_blame_analysis(dataset, threshold=0.10)
        assert analysis.breakdown.total == int(dataset.tcp_failures.sum())

    def test_dig_confirms_dns_failures(self, pipeline):
        iterations, _, _ = pipeline
        agree = total = 0
        for iteration in iterations:
            a, t = iteration.dig_agreement()
            agree += a
            total += t
        if total >= 10:
            assert agree / total > 0.7
