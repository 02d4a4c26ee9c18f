"""Order statistics over runs, and the comparison of two result sets."""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

# Tail percentiles tried from the highest down; one is reported only when
# at least MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest tail percentile with at least
    MIN_BEYOND samples beyond it, or None when there are too few samples."""
    samples = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(samples) * (100.0 - p) / 100.0 >= MIN_BEYOND:
            cuts = statistics.quantiles(samples, n=1000)
            return p, cuts[round(p * 10) - 1]
    return None


def load_results(directory) -> dict[tuple[str, int], list[dict]]:
    """Result files of one set, grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        groups[(doc["workload"], doc["trace"])].append(doc)
    return groups


def compare(base_dir, change_dir, declared: dict[str, dict]) -> list[dict]:
    """One row per workload and metric present in both sets.

    ``declared`` maps a metric name to its BENCHMARK.json entry; a metric
    with a bound is "unresolved" when either side's spread exceeds the
    bound, otherwise "worse" when the change's median is worse than the
    base by more than the bound, otherwise "within bound".
    """
    base, change = load_results(base_dir), load_results(change_dir)
    rows = []
    for key in sorted(set(base) & set(change)):
        names = sorted(set.intersection(*(set(d["metrics"]) for d in base[key] + change[key])))
        for name in names:
            a = [d["metrics"][name]["value"] for d in base[key]]
            b = [d["metrics"][name]["value"] for d in change[key]]
            qa, qb = quartiles(a), quartiles(b)
            entry = declared.get(name, {})
            bound = entry.get("bound")
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            if bound is None:
                verdict = "no bound"
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            else:
                worse = ratio - 1 if entry.get("better") == "lower" else 1 - ratio
                verdict = "worse" if worse > bound else "within bound"
            rows.append(
                {
                    "workload": key[0],
                    "metric": name,
                    "unit": base[key][0]["metrics"][name]["unit"],
                    "base": qa,
                    "change": qb,
                    "runs": (len(a), len(b)),
                    "ratio": ratio,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(t) -> str:
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    lines = [
        "workload   metric                                   unit    "
        "base median [q1, q3]                 change median [q1, q3]               "
        "ratio (change/base)   verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<10} {r['metric']:<40} {r['unit']:<7} {q(r['base']):<36} "
            f"{q(r['change']):<36} {r['ratio']:.4f} of {r['base'][1]:.6g}   "
            f"{r['verdict']} (runs {r['runs'][0]}/{r['runs'][1]})"
        )
    return "\n".join(lines)
