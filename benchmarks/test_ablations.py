"""Ablations of the paper's design choices (DESIGN.md section 6).

1. Episode duration: 1 h vs 4 h vs 24 h bins -- the Section 4.4.3
   trade-off (short bins catch brief outages; long bins bury them).
2. Threshold choice: CDF-knee-detected f vs fixed 5% / 10%.
3. BGP data cleaning on vs off -- how many false instability hours the
   Section 3.6 reset-cleaning removes.
4. Replica qualification threshold sweep around the paper's 10% rule.
"""

import numpy as np

from repro.bgp.cleaning import (
    clean_hourly_stats,
    instability_hours_by_neighbors,
)
from repro.core import blame, episodes, replicas


def _rebin(array, factor):
    """Sum an (..., H) array into coarser (..., H//factor) bins."""
    h = array.shape[-1] - (array.shape[-1] % factor)
    trimmed = array[..., :h]
    shape = trimmed.shape[:-1] + (h // factor, factor)
    return trimmed.reshape(shape).sum(axis=-1)


def test_ablation_episode_duration(
    benchmark, bench_dataset, bench_perm, bench_truth, emit
):
    """Coarser bins bury short outages (the Section 4.4.3 trade-off).

    Metric: recall of *short* ground-truth server outages (spells of at
    most 3 hours with failure intensity >= 10%) -- the fraction of such
    outage-hours falling inside a flagged bin.  A 10-minute-scale outage
    "might stand out on a 1-hour timescale but be buried in the noise on a
    1-day timescale".
    """
    transactions, failures = (  # (S, H)
        bench_dataset.sums(fields, "sh", bench_perm.mask)
        for fields in (("transactions",), bench_dataset.FAILURE_FIELDS)
    )

    # Ground-truth short outages: spells of heavy site failure <= 3 h.
    heavy = bench_truth.site_fail >= 0.10
    short_outage = np.zeros_like(heavy, dtype=bool)
    for si in range(heavy.shape[0]):
        row = heavy[si]
        start = None
        for h in range(row.shape[0] + 1):
            on = h < row.shape[0] and row[h]
            if on and start is None:
                start = h
            elif not on and start is not None:
                if h - start <= 3:
                    short_outage[si, start:h] = True
                start = None

    def recall_at(factor):
        trans = _rebin(transactions, factor)
        fails = _rebin(failures, factor)
        rates = np.where(trans >= 10, fails / np.maximum(1, trans), 0.0)
        flagged_bins = rates >= 0.05  # (S, H//factor)
        h = flagged_bins.shape[-1] * factor
        flagged_hours = np.repeat(flagged_bins, factor, axis=-1)
        hits = (short_outage[:, :h] & flagged_hours).sum()
        total = short_outage[:, :h].sum()
        return float(hits / total) if total else 1.0

    def compute():
        return {factor: recall_at(factor) for factor in (1, 4, 24)}

    recalls = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit(
        "Ablation: episode duration (recall of short <=3h ground-truth "
        "server outages, f=5%):\n"
        + "\n".join(
            f"  bin={factor:2d}h: {recall:.1%}"
            for factor, recall in recalls.items()
        )
    )
    # 1-hour bins catch most short outages; 24-hour bins bury many.
    assert recalls[1] > 0.7
    assert recalls[24] < recalls[1]


def test_ablation_threshold_choice(benchmark, bench_dataset, bench_perm, emit):
    """The knee-detected f classifies like the paper's hand-picked 5%."""
    server_m = episodes.server_rate_matrix(
        bench_dataset, excluded_pairs=bench_perm.mask
    )
    knee = episodes.detect_knee(server_m)

    def compute():
        return {
            f: blame.run_blame_analysis(bench_dataset, f, bench_perm.mask).breakdown
            for f in (knee, 0.05, 0.10)
        }

    breakdowns = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit(
        "Ablation: threshold choice (server/client/both/other fractions):\n"
        + "\n".join(
            "  f={:.3f}: ".format(f)
            + "/".join(f"{x:.1%}" for x in b.fractions())
            for f, b in breakdowns.items()
        )
    )
    knee_b = breakdowns[knee]
    five_b = breakdowns[0.05]
    # The knee-based classification agrees with f=5% on the headline:
    # server-side dominance.
    assert knee_b.fractions()[0] > 2 * knee_b.fractions()[1]
    assert abs(knee_b.fractions()[0] - five_b.fractions()[0]) < 0.15


def test_ablation_bgp_cleaning(benchmark, bench_truth, emit):
    """Without reset cleaning, collector resets fake announcement storms;
    cleaning must not destroy real withdrawal-based instability hours."""
    archive = bench_truth.bgp_archive

    def compute():
        raw = archive.hourly_stats()
        cleaned = clean_hourly_stats(archive)
        raw_ann = sum(b.announcements for b in raw.values())
        cleaned_ann = sum(b.announcements for b in cleaned.values())
        instability = len(instability_hours_by_neighbors(cleaned, 70))
        raw_instability = sum(
            1 for b in raw.values() if b.withdrawing_neighbors >= 70
        )
        return raw_ann, cleaned_ann, instability, raw_instability

    raw_ann, cleaned_ann, inst, raw_inst = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    emit(
        "Ablation: BGP reset cleaning (Section 3.6):\n"
        f"  raw announcement volume:     {raw_ann}\n"
        f"  cleaned announcement volume: {cleaned_ann:.0f}\n"
        f"  withdrawal-instability hours raw/cleaned: {raw_inst}/{inst}"
    )
    # Cleaning strictly reduces announcement volume (resets removed)...
    assert cleaned_ann < raw_ann
    # ...but preserves withdrawal-based instability (within a few hours).
    assert abs(inst - raw_inst) <= max(3, 0.1 * raw_inst)


def test_ablation_replica_threshold(benchmark, bench_dataset, emit):
    """The 6/42/32 census is insensitive around the paper's 10% rule but
    collapses if the threshold is pushed past 1/max_replicas."""
    def census_at(share):
        original = replicas.REPLICA_QUALIFICATION_SHARE
        replicas.REPLICA_QUALIFICATION_SHARE = share
        try:
            return replicas.replica_census(bench_dataset).counts()
        finally:
            replicas.REPLICA_QUALIFICATION_SHARE = original

    def compute():
        return {share: census_at(share) for share in (0.05, 0.10, 0.20, 0.40)}

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit(
        "Ablation: replica qualification threshold (zero/single/multi):\n"
        + "\n".join(
            f"  share>={share:.0%}: {counts}" for share, counts in results.items()
        )
    )
    assert results[0.05] == results[0.10] == (6, 42, 32)
    # At 40%, 3-replica sites lose their (roughly equal-share) replicas.
    assert results[0.40][2] < 32
