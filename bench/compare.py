"""Compare two sets of benchmark result files: ``python3 bench/compare.py A/ B/``.

``A/`` holds the parent's result files and ``B/`` the change's, as
written by ``bench/run.py --out DIR`` (one file per workload per
invocation).  Every workload x end-to-end metric gets its own row:

* **better** -- B wins at least 9 of every 10 pairs (invocations paired
  in the order they were written, ties counting for neither) and the
  medians differ by more than A's interquartile range;
* **unresolved** -- the spread (IQR over median) of either side is wider
  than the metric's bound, unless every B run beats every A run;
* **worse** -- B's median is worse than A's by more than the bound;
* **unchanged** -- none of the above.

The exact layer counts (from ``--trace 1`` result files) are listed as
``identical`` or ``differs``.  Exit code: 0 when nothing is worse,
unresolved or differing; 1 otherwise; 2 when a side has no results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "bgp.messages.updates", "bgp.routeviews.lookups", "core.blame.calls",
    "core.dataset.digest_calls", "world.simulator.transactions",
    "obs.runstore.chunks.commits", "obs.online.detector.hours_folded",
)


def load(directory: Path) -> List[dict]:
    documents = []
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        if document.get("schema") == "repro.bench/1":
            documents.append(document)
    documents.sort(key=lambda d: d["written_unix"])
    return documents


def values(documents: List[dict], workload: str, trace: int, name: str) -> List[float]:
    return [
        d["metrics"][name]["value"] for d in documents
        if d["workload"] == workload and d["trace"] == trace
        and name in d["metrics"]
    ]


def quartiles(xs: List[float]) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(a: List[float], b: List[float], bound: float, lower: bool) -> tuple:
    """(verdict, detail) for one workload x metric."""
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]

    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x))
    spread = max(
        (qa[2] - qa[0]) / med_a if med_a else 0.0,
        (qb[2] - qb[0]) / med_b if med_b else 0.0,
    )
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / med_a
    every = all(beats(y, x) for x in a for y in b)
    detail = (
        f"wins {wins}/{len(pairs)}, spread {spread:.3f}, "
        f"median {(med_b - med_a) / med_a:+.1%}"
    )
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > qa[2] - qa[0]:
        return "better", detail
    if spread > bound and not every:
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    return "unchanged", detail


def compare(a_docs: List[dict], b_docs: List[dict], spec: dict) -> List[Dict[str, str]]:
    rows = []
    workloads = sorted({d["workload"] for d in a_docs} & {d["workload"] for d in b_docs})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = values(a_docs, workload, 0, metric["name"])
            b = values(b_docs, workload, 0, metric["name"])
            if not a or not b:
                continue
            result, detail = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "A": "{1:.4g} [{0:.4g}, {2:.4g}]".format(*qa),
                "B": "{1:.4g} [{0:.4g}, {2:.4g}]".format(*qb),
                "verdict": result, "detail": detail,
            })
        for name in EXACT_COUNTS:
            a = values(a_docs, workload, 1, name)
            b = values(b_docs, workload, 1, name)
            if not a or not b:
                continue
            same = len(set(a + b)) == 1
            rows.append({
                "workload": workload, "metric": name,
                "A": ",".join(str(v) for v in sorted(set(a))),
                "B": ",".join(str(v) for v in sorted(set(b))),
                "verdict": "identical" if same else "differs", "detail": "count",
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("a", type=Path, help="the parent's result files")
    parser.add_argument("b", type=Path, help="the change's result files")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_docs, b_docs = load(args.a), load(args.b)
    if not a_docs or not b_docs:
        print("compare: both directories need result files", file=sys.stderr)
        return 2
    rows = compare(a_docs, b_docs, spec)
    header = ("workload", "metric", "A", "B", "verdict", "detail")
    widths = [max(len(h), *(len(r[h]) for r in rows)) for h in header] if rows else []
    for line in [dict(zip(header, header))] + rows:
        print("  ".join(line[h].ljust(w) for h, w in zip(header, widths)).rstrip())
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
