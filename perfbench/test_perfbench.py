"""Tests of the benchmark harness's own logic: the correctness gate, span
bookkeeping and self time, the CPU-speed probe, and the statistics of the
comparison mode.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""
import json
import time

import pytest

import probe
import summary
import tracer
import workloads
from wdag import digraph, equivalence, formulas, gf2
from wdag.digraph import DimensionFunction

# -- correctness gate ---------------------------------------------------------


def test_gate_accepts_equal_values_after_json_normalization():
    want = {"a": [1, 2], "b": {"x": 1}}
    assert workloads.gate({"a": (1, 2), "b": {"x": 1}}, want) == []


def test_gate_flags_wrong_missing_and_unexpected_labels():
    want = {"a": 14, "b": 24, "c": True}
    assert workloads.gate({"a": 13, "c": True, "d": 1}, want) == ["a", "b", "d"]


def test_gate_flags_the_paper_display_where_enumeration_differs():
    want = workloads.expected("classes", {}, workloads.load_pinned())
    observed = dict(want)
    display = formulas.count_classes_three_vertices(1, 1, 2)
    observed["breakdown (1, 1, 2)"] = {"total": display.total, "per_type": display.per_type}
    assert display.total == 13
    assert workloads.gate(observed, want) == ["breakdown (1, 1, 2)"]


def test_membership_expectations_follow_the_construction():
    inputs = workloads.build_enumerate(seed=7)
    want = workloads.expected("enumerate", inputs, workloads.load_pinned())
    verdicts = [want[f"membership {i}"] for i in range(workloads.MEMBERSHIP_SAMPLE)]
    assert verdicts.count("accepted") == verdicts.count("rejected") == workloads.MEMBERSHIP_SAMPLE // 2
    for i, (matrix, graph) in enumerate(inputs["membership"]):
        assert digraph.has_unit_principal_minors(matrix) == (graph is not None), i


def test_membership_sample_depends_only_on_the_seed():
    def graphs(seed):
        return [g for _, g in workloads.build_enumerate(seed)["membership"]]

    assert graphs(3) == graphs(3)
    assert graphs(3) != graphs(4)


# -- spans and self time ------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3].
    parents = [-1, 0, 1, 0]
    durations = [10.0, 3.0, 1.0, 4.0]
    assert tracer.self_times(parents, durations) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_parents_generator_resumptions_and_counts():
    t = tracer.Tracer()
    leaf = t.span("x.leaf", lambda: None)
    count = t.counter("x.count", lambda v: v)

    def produce():
        for i in range(3):
            leaf()
            yield i

    gen = t.generator("x.gen", produce)
    root = t.span("x.root", lambda: [count(v) for v in gen()])
    assert root() == [0, 1, 2]

    names = [t.name_of(i) for i in range(len(t.names))]
    parents = [t.name_of(p) for p in t.parents]
    assert names.count("x.gen") == 4  # three items and the final StopIteration
    assert {p for n, p in zip(names, parents) if n == "x.gen"} == {"x.root"}
    assert {p for n, p in zip(names, parents) if n == "x.leaf"} == {"x.gen"}
    assert t.yields == {("x.gen", "x.root"): 3}
    assert t.counts["x.count"] == 3
    agg = t.aggregate()
    assert sum(agg["self"].values()) == pytest.approx(agg["total"]["x.root"])


def test_install_binds_every_module_and_uninstall_restores():
    original = gf2.all_principal_minors_one
    t = tracer.Tracer()
    t.install()
    try:
        assert digraph.all_principal_minors_one is gf2.all_principal_minors_one
        assert gf2.all_principal_minors_one is not original
        assert equivalence.count_equivalence_classes(DimensionFunction.of(1, 2)) == 3
    finally:
        t.uninstall()
    assert digraph.all_principal_minors_one is original
    metrics = tracer.layer_metrics(t, cli_lines=0)
    # Five graphs, three orbits: two graphs were already placed.
    assert metrics["equivalence.classes.skip_ratio"] == pytest.approx(2 / 5)
    assert metrics["digraph.graphs_built"] > 0
    assert metrics["equivalence.moves.applications"] > 0


# -- nominal CPU speed ----------------------------------------------------------


def test_nominal_rescales_by_the_mean_relative_speed():
    n = probe.NOMINAL_S
    assert probe.nominal(8.0, [n]) == pytest.approx(8.0)
    assert probe.nominal(8.0, [2 * n, 2 * n]) == pytest.approx(4.0)
    # Half the time at full speed, half at half speed: 3/4 of the work.
    assert probe.nominal(8.0, [n, 2 * n]) == pytest.approx(6.0)


def test_probe_samples_while_running_and_stops():
    p = probe.Probe()
    p.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        p.stop()
    assert len(p.take()) >= 3
    time.sleep(3 * probe.INTERVAL_S)
    assert p.take() == []


# -- statistics and comparison -----------------------------------------------


def test_quartiles_and_spread():
    assert summary.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, med, q3 = summary.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert med == 5.5
    assert summary.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((q3 - q1) / 5.5)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert summary.tail_percentile(range(99)) is None
    p, value = summary.tail_percentile(range(100))
    assert p == 90.0 and 88 <= value <= 91


def _write_set(directory, values):
    directory.mkdir()
    for i, v in enumerate(values):
        doc = {
            "workload": "classes",
            "trace": 0,
            "metrics": {"wall_s": {"value": v, "unit": "s"}},
        }
        (directory / f"{i}.json").write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "base, change, verdict",
    [
        ([10, 10.1, 9.9, 10, 10.05], [10.2, 10.1, 10.3, 10.2, 10.15], "within bound"),
        ([10, 10.1, 9.9, 10, 10.05], [13, 13.1, 12.9, 13, 13.05], "worse"),
        ([10, 5, 15, 8, 12], [10, 10.1, 9.9, 10, 10.05], "unresolved"),
    ],
)
def test_compare_marks_each_pair(tmp_path, base, change, verdict):
    _write_set(tmp_path / "base", base)
    _write_set(tmp_path / "change", change)
    declared = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.1}}
    (row,) = summary.compare(tmp_path / "base", tmp_path / "change", declared)
    assert row["verdict"] == verdict
    assert row["ratio"] == pytest.approx(row["change"][1] / row["base"][1])
