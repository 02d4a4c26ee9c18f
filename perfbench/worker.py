"""One workload in one fresh process: set up, run timed passes, check them.

Started by run.py; prints one JSON object on its last stdout line.  With
--setup-only it stops after building the inputs, so the parent can time
set-up on its own.  With --trace 1 it runs untraced passes for half the
time, then traced passes for the rest, and reports the per-layer metrics
of the traced passes.  Pass times are reported raw and rescaled to the
nominal CPU speed of probe.py.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import Probe, nominal

PROBE = Probe()
if __name__ == "__main__":
    # Before wdag is imported: the import is part of the timed set-up.
    PROBE.start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports wdag)
from tracer import Tracer, layer_metrics, write_spans  # noqa: E402

# A median of one pass is too noisy for the end-to-end wall_s.
MIN_UNTRACED_PASSES = 2

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "equivalence.moves.applications",
    "permutation.reduce_top.calls",
    "digraph.graphs_built",
    "gf2.principal_minor_checks",
)


def median_or_same(values):
    """The common value when every pass agrees (counts), else the median."""
    values = list(values)
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def timed_passes(run, inputs, want, budget_s, min_passes=1, tracer=None):
    """Run at least min_passes passes, then stop before a pass that would
    end after budget_s.

    Returns raw and nominal pass seconds, per-pass layer metrics (traced
    only), checked result count and the labels that failed the gate.
    """
    times, nominal_times, layers, failed_labels = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        PROBE.take()
        t0 = time.perf_counter()
        observed = run(inputs)
        times.append(time.perf_counter() - t0)
        nominal_times.append(nominal(times[-1], PROBE.take()))
        if tracer is not None:
            layers.append((layer_metrics(tracer, workloads.cli_lines(observed)), tracer.spans()))
        attempted += len(set(want) | set(observed))
        failed_labels += workloads.gate(observed, want)
        elapsed = time.perf_counter() - start
        if len(times) >= min_passes and elapsed + statistics.median(times) > budget_s:
            return times, nominal_times, layers, attempted, failed_labels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="gzip CSV file for the traced passes' spans")
    args = parser.parse_args(argv)

    build, run = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    ready = time.monotonic()
    setup_probe = PROBE.take()
    if args.setup_only:
        print(json.dumps({"ready": ready, "probe": setup_probe}))
        return 0

    want = workloads.expected(args.workload, inputs, workloads.load_pinned())
    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_UNTRACED_PASSES
    times, nominal_times, _, attempted, failed = timed_passes(
        run, inputs, want, budget, min_passes
    )
    doc = {"ready": ready, "probe": setup_probe, "pass_s": times, "nominal_pass_s": nominal_times}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, nominal_traced, layers, t_attempted, t_failed = timed_passes(
                run, inputs, want, args.seconds - sum(times), tracer=tracer
            )
        finally:
            tracer.uninstall()
        attempted += t_attempted
        failed += t_failed
        per_pass = [metrics for metrics, _ in layers]
        doc["traced_pass_s"] = traced
        doc["nominal_traced_pass_s"] = nominal_traced
        doc["layers"] = {
            name: median_or_same(m[name] for m in per_pass) for name in per_pass[0]
        }
        doc["counts_repeat"] = all(
            m[name] == per_pass[0][name] for m in per_pass for name in EXACT_COUNTS
        )
        if args.spans:
            write_spans(args.spans, [spans for _, spans in layers])
    doc.update(
        attempted=attempted,
        failed=len(failed),
        failed_labels=failed[:20],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        PROBE.stop()  # a timer signal left pending at exit would kill the process
    sys.exit(status)
