"""Digest-taint rules: DIG001-DIG003.

The reproducibility contract says every byte reaching a dataset digest,
a canonical-JSON manifest, or the ``alerts.jsonl`` stream is a pure
function of the master seed.  The determinism rules (DET0xx) ban the
*sources* syntactically; these rules ban the *flows*: an OS-entropy or
wall-clock or set-order value is only a bug once it actually reaches a
digest or canonical serialization -- possibly through several calls in
other modules.  The taint engine (:mod:`repro.lint.flow`) finds those
paths; each rule here turns one (taint kind, sink kind) pair into a
finding anchored at the sink, naming the source location in the
message so the fix site is obvious from the report alone.

Sanctioned sources need no annotation: ``RNGRegistry`` streams are
seeded (not taint sources), and ordered iteration (lists, ``sorted()``)
never acquires ORDER taint in the first place.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.flow import SinkHit, Taint
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.rules import register


def _describe(hit: SinkHit, kind: Taint) -> Tuple[str, str]:
    """(source description, sink description) for the message."""
    origin = hit.taint.origin_of(int(kind))
    if origin is None:  # pragma: no cover - hits are pre-filtered
        source = "a tainted value"
    elif origin.path == hit.sink.path:
        source = f"{origin.description} (line {origin.line})"
    else:
        source = f"{origin.description} ({origin.path}:{origin.line})"
    sink = hit.sink.description
    if hit.via is not None:
        sink += f" via call at {hit.via[0]}:{hit.via[1]}"
    return source, sink


class _DigestTaintRule(ProjectRule):
    """Shared machinery: filter the flow hits by taint kind + sinks."""

    taint_kind: Taint = Taint.NONE
    sink_kinds: Tuple[str, ...] = ()

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        mask = int(self.taint_kind)
        for hit in project.flow.hits:
            if hit.sink.kind not in self.sink_kinds:
                continue
            if not hit.taint.flags & mask:
                continue
            source, sink = _describe(hit, self.taint_kind)
            yield self.finding_at(
                hit.sink.path,
                hit.sink.line,
                hit.sink.col,
                self.message.format(source=source, sink=sink),
            )

    message = "{source} reaches {sink}"


@register
class EntropyToDigestRule(_DigestTaintRule):
    """DIG001: OS entropy flows into a digest.

    ``os.urandom``/``uuid4``/unseeded RNG output hashing into a dataset
    digest or manifest id makes the digest unique per run -- the
    reproducibility check can then never fail, which is worse than it
    failing: drift becomes invisible.
    """

    id = "DIG001"
    severity = Severity.ERROR
    title = "OS-entropy value reaches a digest"
    hint = (
        "derive the value from an RNGRegistry stream (seeded from the "
        "master seed) so the digest is a pure function of the seed"
    )
    taint_kind = Taint.ENTROPY
    sink_kinds = ("digest", "serialize")
    message = "OS-entropy value from {source} reaches {sink}"


@register
class ClockToDigestRule(_DigestTaintRule):
    """DIG002: a wall-clock read flows into a digest.

    Timestamps are fine in manifests as *recorded facts* but must not
    participate in identity hashing: ``compute_run_id`` hashing a
    ``time.time()`` value gives every rerun a fresh id, breaking the
    refresh-in-place dedup of the run registry.
    """

    id = "DIG002"
    severity = Severity.ERROR
    title = "wall-clock value reaches a digest"
    hint = (
        "keep timestamps out of hashed identity; record them as plain "
        "(unhashed) manifest fields instead"
    )
    taint_kind = Taint.CLOCK
    sink_kinds = ("digest",)
    message = "wall-clock value from {source} reaches {sink}"


@register
class SetOrderToDigestRule(_DigestTaintRule):
    """DIG003: set-order-dependent value reaches a digest or canonical
    serialization.

    Set iteration order varies across processes (hash randomization),
    so a list built from a set serializes differently run to run even
    under ``sort_keys=True`` -- key sorting cannot fix *value* order.
    It is the only set-order rule: it follows the set through
    assignments, calls and container mutation (``out.append(x)``,
    ``d[x] = v``) to the sink.  Dict iteration is insertion-ordered and
    never flagged.
    """

    id = "DIG003"
    severity = Severity.ERROR
    title = "set-order-dependent value reaches a digest"
    hint = (
        "sort before serializing: wrap the unordered value in sorted() "
        "(or build a list in deterministic order to begin with)"
    )
    taint_kind = Taint.ORDER
    sink_kinds = ("digest", "serialize")
    message = "unordered value from {source} reaches {sink}"
