#!/usr/bin/env python3
"""wdag benchmark: one workload per fresh process, every result checked.

Measure one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload classes --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a traced run.  ``--workload all`` runs every
workload and prints one table.  Compare two result sets (directories of
result files, by default written to .perfbench/results):

    python3 perfbench/run.py --compare BASE_DIR CHANGE_DIR

Exit status: 0 when every result matched its expected value, 1 on a
mismatch or a failed worker, 2 when the wdag sources are not found.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from probe import nominal
from summary import compare, format_rows, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("classes", "oracles", "enumerate")
SETUP_SAMPLES = 7  # processes whose set-up is timed in one run, the measuring one included
WORKER_GRACE_S = 150  # beyond --seconds, before a worker is killed


def declared_metrics() -> dict[str, list[dict]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


def start_worker(args, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker to completion; return (raw seconds from spawn to ready, its JSON)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["ready"] - spawned, doc


def measure(args) -> dict:
    """Run one workload: set-up samples, then the measuring worker."""
    load_before = os.getloadavg()
    stem = (
        f"{args.workload}-trace{args.trace}-seed{args.seed}-"
        f"{datetime.now(timezone.utc):%Y%m%dT%H%M%S}-{os.getpid()}"
    )
    setups = [
        start_worker(args, ["--setup-only"], WORKER_GRACE_S) for _ in range(SETUP_SAMPLES - 1)
    ]
    extra = []
    if args.trace:
        (args.out / "spans").mkdir(parents=True, exist_ok=True)
        extra = ["--spans", str(args.out / "spans" / f"{stem}.csv.gz")]
    ready, doc = start_worker(args, extra, args.seconds + WORKER_GRACE_S)
    setups.append((ready, doc))
    setup_raw = [seconds for seconds, _ in setups]
    setup_probe = [sample for _, d in setups for sample in d["probe"]]

    wall = statistics.median(doc["nominal_pass_s"])
    if args.trace:
        metrics = dict(doc["layers"])
        metrics["trace.overhead_ratio"] = statistics.median(doc["nominal_traced_pass_s"]) / wall
        declared = declared_metrics()["per_layer"]
    else:
        metrics = {
            "setup_s": nominal(statistics.median(setup_raw), setup_probe),
            "wall_s": wall,
            "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        }
        declared = declared_metrics()["end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(names ^ set(metrics))}")
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": len(doc["pass_s"]),
        "pass_s": doc["pass_s"],
        "nominal_pass_s": doc["nominal_pass_s"],
        "wall_raw_s": statistics.median(doc["pass_s"]),
        "wall_s_tail": tail_percentile(doc["nominal_pass_s"]),
        "traced_pass_s": doc.get("traced_pass_s", []),
        "counts_repeat": doc.get("counts_repeat"),
        "setup_samples_s": setup_raw,
        "setup_raw_s": statistics.median(setup_raw),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failed_frac": doc["failed"] / doc["attempted"],
        "failed_labels": doc["failed_labels"],
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    (args.out / "results").mkdir(parents=True, exist_ok=True)
    (args.out / "results" / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def describe(r: dict) -> str:
    head = (
        f"{r['workload']}: seed {r['seed']}, {r['passes']} passes"
        + (f" + {len(r['traced_pass_s'])} traced" if r["trace"] else "")
        + f", python {r['python']}, nproc {r['nproc']}, load "
        f"{r['loadavg_before'][0]:.2f} -> {r['loadavg_after'][0]:.2f}, "
        f"failed_frac {r['failed_frac']:g} ({r['failed']}/{r['attempted']} checked results)"
    )
    if r["trace"]:
        head += f", per-pass counts repeat: {r['counts_repeat']}"
    lines = [head, f"  raw: setup {r['setup_raw_s']:.6g} s, wall {r['wall_raw_s']:.6g} s"]
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()]
    if r["wall_s_tail"]:
        lines.append("  wall_s p{:g} = {:.6g} s".format(*r["wall_s_tail"]))
    lines += [f"  mismatch: {label}" for label in r["failed_labels"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)

    if args.compare:
        declared = {m["name"]: m for group in declared_metrics().values() for m in group}
        print(format_rows(compare(*args.compare, declared)))
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (ROOT / "src" / "wdag" / "__init__.py").is_file():
        print(f"wdag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        try:
            results.append(measure(args))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print(describe(results[-1]), flush=True)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        r = results[0]
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": r["attempted"],
                    "failed": failed,
                    "metrics": r["metrics"],
                }
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
