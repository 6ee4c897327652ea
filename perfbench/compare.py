"""Compare two sets of benchmark runs of one workload, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHILD.jsonl

Each file holds the output of several runs (the result line of each
run; other lines are ignored).  For every metric the medians of the two
sets are compared in the metric's ``better`` direction from
``BENCHMARK.json``:

* an end-to-end metric regresses when the child is worse than the
  parent by more than the metric's ``bound``, as a share of the
  parent's median;
* any metric whose parent median is exactly 0 regresses on any worsening
  at all — a rise from 0 has no share, so it is judged absolutely, never
  divided by;
* the failed share, from each run's ``failed`` and ``attempted``, is
  such a zero-parent metric on every workload at this commit.

Per-layer metrics have no bound; apart from the zero rule they are
listed for reading, not judged.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    """Metric name -> values over the result lines of ``path``."""
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        result = json.loads(line)
        if "metrics" not in result:
            continue
        values.setdefault("failed_share", []).append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def worsening(parent: float, child: float, better: str) -> float:
    """How much worse ``child`` is than ``parent`` (negative = better)."""
    return child - parent if better == "lower" else parent - child


def verdict(parent: float, child: float, better: str, bound: float | None) -> str:
    worse = worsening(parent, child, better)
    if parent == 0:
        return "REGRESSED (rose from 0)" if worse > 0 else "ok"
    if bound is None:
        return ""
    return "REGRESSED" if worse / abs(parent) > bound else "ok"


def compare(parent: dict[str, list[float]], child: dict[str, list[float]], spec: dict) -> list[tuple]:
    """``(name, parent median, child median, verdict)`` per shared metric."""
    rules = {"failed_share": ("lower", None)}
    for row in spec["end_to_end"]:
        rules[row["name"]] = (row["better"], row["bound"])
    for row in spec["per_layer"]:
        rules[row["name"]] = (row["better"], None)
    rows = []
    for name, (better, bound) in rules.items():
        if name in parent and name in child:
            p, c = statistics.median(parent[name]), statistics.median(child[name])
            rows.append((name, p, c, verdict(p, c, better, bound)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]), json.loads(SPEC.read_text()))
    for name, p, c, judged in rows:
        print(f"{name:28s} {p:14.6g} {c:14.6g}  {judged}")
    return 1 if any(judged.startswith("REGRESSED") for *_, judged in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
