"""Attribution evidence: the structured facts behind each episode verdict.

The paper's blame pipeline compresses a month of per-hour failure rates
into a handful of verdict counts (Table 5).  When two runs disagree --
an episode appears, vanishes, or flips sides -- the counts alone cannot
say *why*.  This module captures, per run, the facts the verdicts rest
on:

* the knee threshold *f* detected on each side's failure-rate CDF;
* for every flagged episode, the per-hour bins (rate, transactions,
  failures) that crossed the knee, the peak rate, and the entity;
* peak rates for *all* entities (so a diff can explain near-misses:
  "client X peaked at 4.8% < f=5.0% in run B");
* the Table 5 blame breakdown at the paper's f = 0.05.

Everything is plain JSON (``repro.run-evidence/1``), content-digested so
manifests can pin it, and replayed by ``repro runs show`` / ``diff``.
Collection also mirrors each record as a Tracer event, so a ``--trace``
run carries the evidence inline in the span log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro import obs
from repro.obs.runstore.manifest import canonical_json, check_schema

if TYPE_CHECKING:
    import numpy as np

#: Evidence schema identifier; same compatibility rule as manifests.
SCHEMA = "repro.run-evidence/1"

#: Hour bins kept per episode record (long outages keep the first ones;
#: ``bins_truncated`` marks the cut).
MAX_BINS_PER_EPISODE = 24

#: Episode records kept per side, peak-rate-descending (``truncated``
#: counts the dropped tail).
MAX_RECORDS_PER_SIDE = 50

#: The paper's Table 5 operating point; verdict counts are recorded at
#: this f regardless of where the knee landed.
PAPER_THRESHOLD = 0.05


@dataclass
class EpisodeEvidence:
    """One flagged episode and the per-hour facts that flagged it."""

    side: str  # "client" | "server"
    entity: str
    entity_index: int
    start_hour: int
    end_hour: int  # inclusive
    threshold: float  # the knee f this episode was flagged at
    peak_rate: float
    #: Per-hour facts: {"hour", "rate", "transactions", "failures"}.
    bins: List[Dict[str, Any]] = field(default_factory=list)
    bins_truncated: int = 0

    @property
    def duration_hours(self) -> int:
        """Length of the episode in hours."""
        return self.end_hour - self.start_hour + 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON form."""
        return {
            "side": self.side,
            "entity": self.entity,
            "entity_index": self.entity_index,
            "start_hour": self.start_hour,
            "end_hour": self.end_hour,
            "threshold": self.threshold,
            "peak_rate": self.peak_rate,
            "bins": list(self.bins),
            "bins_truncated": self.bins_truncated,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "EpisodeEvidence":
        """Parse, ignoring unknown fields."""
        return cls(
            side=document["side"],
            entity=document["entity"],
            entity_index=int(document.get("entity_index", -1)),
            start_hour=int(document["start_hour"]),
            end_hour=int(document["end_hour"]),
            threshold=float(document["threshold"]),
            peak_rate=float(document["peak_rate"]),
            bins=list(document.get("bins") or []),
            bins_truncated=int(document.get("bins_truncated", 0)),
        )


@dataclass
class EvidenceBundle:
    """Everything ``repro runs show``/``diff`` needs to explain verdicts."""

    #: Detected knee per side: {"client": f, "server": f}.
    thresholds: Dict[str, float] = field(default_factory=dict)
    #: Entities with >= 1 flagged hour: {"client": [names], "server": [...]}.
    flagged: Dict[str, List[str]] = field(default_factory=dict)
    records: List[EpisodeEvidence] = field(default_factory=list)
    #: Dropped episode records per side (peak-rate tail).
    truncated: Dict[str, int] = field(default_factory=dict)
    #: Peak valid rate for EVERY entity: {"client": {name: rate}, ...}.
    entity_peak_rates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Table 5 verdicts at the paper's f: counts keyed by side.
    blame: Dict[str, Any] = field(default_factory=dict)
    schema: str = SCHEMA

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON document (``evidence.json``)."""
        return {
            "schema": self.schema,
            "thresholds": dict(self.thresholds),
            "flagged": {k: list(v) for k, v in sorted(self.flagged.items())},
            "records": [r.to_dict() for r in self.records],
            "truncated": dict(self.truncated),
            "entity_peak_rates": {
                side: dict(sorted(rates.items()))
                for side, rates in sorted(self.entity_peak_rates.items())
            },
            "blame": dict(self.blame),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "EvidenceBundle":
        """Parse an evidence document, ignoring unknown fields."""
        schema = document.get("schema", SCHEMA)
        check_schema(schema, SCHEMA)
        return cls(
            thresholds={
                str(k): float(v)
                for k, v in sorted((document.get("thresholds") or {}).items())
            },
            flagged={
                str(k): list(v)
                for k, v in sorted((document.get("flagged") or {}).items())
            },
            records=[
                EpisodeEvidence.from_dict(r)
                for r in document.get("records") or []
            ],
            truncated={
                str(k): int(v)
                for k, v in sorted((document.get("truncated") or {}).items())
            },
            entity_peak_rates={
                str(side): {str(n): float(r) for n, r in sorted(rates.items())}
                for side, rates in sorted(
                    (document.get("entity_peak_rates") or {}).items()
                )
            },
            blame=dict(document.get("blame") or {}),
            schema=schema,
        )

    def digest(self) -> str:
        """Content digest of the canonical JSON document."""
        payload = canonical_json(self.to_dict())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> Dict[str, Any]:
        """The small manifest-embedded summary."""
        return {
            "thresholds": dict(self.thresholds),
            "flagged_clients": len(self.flagged.get("client", ())),
            "flagged_servers": len(self.flagged.get("server", ())),
            "episode_records": len(self.records),
            "blame": dict(self.blame),
        }

    def records_for(self, side: str) -> List[EpisodeEvidence]:
        """This side's episode records, peak-rate-descending."""
        return [r for r in self.records if r.side == side]


# --------------------------------------------------------------------------
# Collection
# --------------------------------------------------------------------------


def _side_evidence(
    side: str,
    names: List[str],
    matrix,
    threshold: float,
    max_records: int,
    max_bins: int,
) -> Dict[str, Any]:
    """Flagged entities, episode records, and peak rates for one side,
    from its :class:`~repro.core.episodes.RateMatrix`."""
    import numpy as np

    from repro.core.episodes import coalesce_episodes, episode_matrix

    rates, transactions, failures = (
        matrix.rates, matrix.transactions, matrix.failures
    )
    flags = episode_matrix(matrix, threshold)
    episodes = coalesce_episodes(flags)

    records: List[EpisodeEvidence] = []
    for episode in episodes:
        i = episode.entity_index
        hours = range(episode.start_hour, episode.end_hour + 1)
        bins = [
            {
                "hour": h,
                "rate": round(float(rates[i, h]), 6),
                "transactions": int(transactions[i, h]),
                "failures": int(failures[i, h]),
            }
            for h in hours
        ]
        truncated_bins = max(0, len(bins) - max_bins)
        peak = max(b["rate"] for b in bins)
        records.append(
            EpisodeEvidence(
                side=side,
                entity=names[i],
                entity_index=i,
                start_hour=episode.start_hour,
                end_hour=episode.end_hour,
                threshold=threshold,
                peak_rate=peak,
                bins=bins[:max_bins],
                bins_truncated=truncated_bins,
            )
        )
    records.sort(key=lambda r: (-r.peak_rate, r.entity, r.start_hour))
    truncated = max(0, len(records) - max_records)

    flagged = sorted({r.entity for r in records})
    peak_rates: Dict[str, float] = {}
    for i, name in enumerate(names):
        row = rates[i]
        valid = row[~np.isnan(row)]
        if valid.size:
            peak_rates[name] = round(float(valid.max()), 6)
    return {
        "flagged": flagged,
        "records": records[:max_records],
        "truncated": truncated,
        "peak_rates": peak_rates,
    }


@obs.timed("evidence.collect")
def collect_evidence(
    dataset,
    excluded_pairs: Optional[np.ndarray] = None,
    max_records: int = MAX_RECORDS_PER_SIDE,
    max_bins: int = MAX_BINS_PER_EPISODE,
) -> EvidenceBundle:
    """Run the episode/blame pipeline and keep the facts, not just verdicts.

    ``excluded_pairs`` is the permanent-pair mask (Section 4.4.2); pass
    the mask the report used so the evidence matches the headline
    numbers.
    """
    from repro.core.blame import run_blame_analysis
    from repro.core.episodes import detect_knee

    # The blame pass builds the masked rate matrices; the knee evidence
    # reads the same ones instead of building a second pair.
    blame = run_blame_analysis(
        dataset, threshold=PAPER_THRESHOLD, excluded_pairs=excluded_pairs
    )
    client_names = [c.name for c in dataset.world.clients]
    server_names = [w.name for w in dataset.world.websites]

    thresholds: Dict[str, float] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    for side, matrix, names in (
        ("client", blame.client_rates, client_names),
        ("server", blame.server_rates, server_names),
    ):
        try:
            knee = detect_knee(matrix)
        except ValueError:
            knee = PAPER_THRESHOLD  # no valid rates at all: paper's f
        thresholds[side] = round(float(knee), 6)
        sides[side] = _side_evidence(
            side, names, matrix, thresholds[side], max_records, max_bins,
        )

    breakdown = blame.breakdown
    bundle = EvidenceBundle(
        thresholds=thresholds,
        flagged={side: sides[side]["flagged"] for side in sorted(sides)},
        records=[r for side in sorted(sides) for r in sides[side]["records"]],
        truncated={side: sides[side]["truncated"] for side in sorted(sides)},
        entity_peak_rates={
            side: sides[side]["peak_rates"] for side in sorted(sides)
        },
        blame={
            "threshold": breakdown.threshold,
            "server_side": breakdown.server_side,
            "client_side": breakdown.client_side,
            "both": breakdown.both,
            "other": breakdown.other,
            "total": breakdown.total,
        },
    )

    # Mirror into the trace so a --trace run carries its evidence inline.
    span = obs.current_span()
    span.event(
        "evidence.summary",
        client_knee=thresholds["client"],
        server_knee=thresholds["server"],
        flagged_clients=len(bundle.flagged.get("client", ())),
        flagged_servers=len(bundle.flagged.get("server", ())),
        episode_records=len(bundle.records),
    )
    for record in bundle.records:
        span.event(
            "evidence.episode",
            side=record.side,
            entity=record.entity,
            start_hour=record.start_hour,
            end_hour=record.end_hour,
            peak_rate=record.peak_rate,
            threshold=record.threshold,
        )
    return bundle
