"""The declarative alert-rule engine for online detection.

A rule file is a TOML or JSON document with a ``rules`` list; each rule
is one flat table.  The three kinds mirror what an operator of the
paper's measurement infrastructure would page on:

``episode-opened``
    A failure episode opened for some entity (optionally restricted to
    one ``side`` -- client or server -- and to episodes whose observed
    peak rate is at least ``min_peak_rate``).  Fires once per opened
    episode.

``blame-verdict``
    The running blame attribution crossed a line: the named ``side``'s
    share of classified TCP failures reached ``min_fraction`` with at
    least ``min_total`` failures classified.  Latching -- fires once
    per run.

``failure-rate-burn``
    The overall hourly failure rate was at least ``rate`` for ``hours``
    consecutive simulated hours.  Latching.

``slo-burn``
    The failure rate over the trailing ``hours`` window consumed the
    error budget (``1 - objective``) at at least ``burn`` times the
    sustainable pace -- the multi-window burn-rate alert the SLO engine
    (:mod:`repro.obs.horizon.slo`) reports on ``/slo``.  Latching.

TOML::

    [[rules]]
    name = "server-episode"
    kind = "episode-opened"
    side = "server"
    severity = "page"

JSON is the same shape (``{"rules": [...]}``); a bare JSON list is also
accepted.  TOML parsing needs :mod:`tomllib` (Python 3.11+); on 3.10
only JSON rule files load, and the error says so.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

EPISODE_OPENED = "episode-opened"
BLAME_VERDICT = "blame-verdict"
FAILURE_RATE_BURN = "failure-rate-burn"
SLO_BURN = "slo-burn"

RULE_KINDS = (EPISODE_OPENED, BLAME_VERDICT, FAILURE_RATE_BURN, SLO_BURN)

_SIDES = ("client", "server")


class RuleError(ValueError):
    """A rule file or rule definition that cannot be used."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting condition."""

    name: str
    kind: str
    #: ``episode-opened``/``blame-verdict``: restrict to one side
    #: (``client`` or ``server``); ``None`` means either side.
    side: Optional[str] = None
    #: ``episode-opened``: ignore episodes whose peak observed rate at
    #: open time is below this.
    min_peak_rate: float = 0.0
    #: ``blame-verdict``: the side's share of classified failures.
    min_fraction: float = 0.5
    #: ``blame-verdict``: classified-failure floor before the fraction
    #: is meaningful.
    min_total: int = 100
    #: ``failure-rate-burn``: the overall-rate floor ...
    rate: float = 0.05
    #: ... and how many consecutive hours it must hold.
    #: ``slo-burn``: the trailing window length, in hours.
    hours: int = 3
    #: ``slo-burn``: the availability objective the budget derives from.
    objective: float = 0.99
    #: ``slo-burn``: fire when the windowed failure rate consumes the
    #: error budget at at least this multiple of the sustainable pace
    #: (burn = window rate / (1 - objective)).
    burn: float = 10.0
    #: Free-form severity label carried onto every alert the rule fires.
    severity: str = "warning"

    def __post_init__(self) -> None:
        if not self.name:
            raise RuleError("rule needs a name")
        if self.kind not in RULE_KINDS:
            raise RuleError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(RULE_KINDS)})"
            )
        if self.side is not None and self.side not in _SIDES:
            raise RuleError(
                f"rule {self.name!r}: side must be 'client' or 'server', "
                f"got {self.side!r}"
            )
        if self.kind == BLAME_VERDICT and self.side is None:
            raise RuleError(
                f"rule {self.name!r}: blame-verdict needs a side"
            )
        if not 0.0 <= self.min_fraction <= 1.0:
            raise RuleError(
                f"rule {self.name!r}: min_fraction out of [0, 1]"
            )
        if self.kind in (FAILURE_RATE_BURN, SLO_BURN) and self.hours < 1:
            raise RuleError(
                f"rule {self.name!r}: burn needs hours >= 1"
            )
        if self.kind == SLO_BURN:
            if not 0.0 < self.objective < 1.0:
                raise RuleError(
                    f"rule {self.name!r}: objective out of (0, 1)"
                )
            if self.burn <= 0.0:
                raise RuleError(
                    f"rule {self.name!r}: burn multiple must be > 0"
                )

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (the ``alerts.jsonl`` header records it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "AlertRule":
        """Build from a parsed rule table, rejecting unknown keys."""
        if not isinstance(raw, dict):
            raise RuleError(f"rule entry is not a table: {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise RuleError(
                f"rule {raw.get('name', '?')!r}: unknown keys "
                f"{', '.join(unknown)}"
            )
        return cls(**raw)


#: The rules active when no ``--alert-rules`` file is given: open
#: episodes on either side page, a server-majority blame verdict and a
#: sustained overall burn warn.
DEFAULT_RULES = (
    AlertRule(name="episode-opened", kind=EPISODE_OPENED, severity="page"),
    AlertRule(
        name="server-blame-majority", kind=BLAME_VERDICT, side="server",
        min_fraction=0.5, min_total=100,
    ),
    AlertRule(
        name="overall-burn", kind=FAILURE_RATE_BURN, rate=0.05, hours=3,
    ),
)

#: Multi-window error-budget burn rules (the standard fast/slow pairing:
#: a 1h window at a page-worthy burn multiple, a 6h window at a slower
#: one).  The serve daemon appends these to :data:`DEFAULT_RULES`; batch
#: ``--detect`` runs opt in via an ``--alert-rules`` file.
SLO_BURN_RULES = (
    AlertRule(
        name="slo-fast-burn", kind=SLO_BURN, objective=0.99, burn=14.4,
        hours=1, severity="page",
    ),
    AlertRule(
        name="slo-slow-burn", kind=SLO_BURN, objective=0.99, burn=6.0,
        hours=6, severity="ticket",
    ),
)


def rules_from_dicts(entries: Sequence[Dict[str, Any]]) -> List[AlertRule]:
    """Materialize rules from parsed tables, enforcing unique names."""
    rules = [AlertRule.from_dict(entry) for entry in entries]
    names = [r.name for r in rules]
    if len(names) != len(set(names)):
        raise RuleError("duplicate rule names")
    if not rules:
        raise RuleError("rule file defines no rules")
    return rules


def load_rules(path: str) -> List[AlertRule]:
    """Load an alert-rule file (TOML by suffix, JSON otherwise)."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python 3.10: JSON rule files only.
            raise RuleError(
                f"{path}: TOML rule files need Python 3.11+ (tomllib); "
                "use a JSON rule file instead"
            ) from None
        with open(path, "rb") as fh:
            try:
                document = tomllib.load(fh)
            except tomllib.TOMLDecodeError as exc:
                raise RuleError(f"{path}: not valid TOML ({exc})") from exc
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except json.JSONDecodeError as exc:
                raise RuleError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(document, list):
        entries = document
    elif isinstance(document, dict):
        entries = document.get("rules")
        if entries is None:
            raise RuleError(f"{path}: no 'rules' list")
    else:
        raise RuleError(f"{path}: unexpected document shape")
    try:
        return rules_from_dicts(entries)
    except RuleError as exc:
        raise RuleError(f"{path}: {exc}") from exc
