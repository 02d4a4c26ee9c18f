"""Acceptance suite: every criterion is exact (no tolerances), each test
prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 2-8 run the check generators behind `wdag verify` (`wdag.cli`),
so the tests and the command line share one implementation; each of
these criteria asserts that every line its checks yield is ok and that
the checks cover the shapes it names.  Criterion 7 runs the `classes`
suite: the swap-aware closed form `count_classes_three_vertices_corrected`
against orbit enumeration, family by family, on all 20 sorted shapes
with dimensions up to 4.  The paper's display, evaluated verbatim by
`count_classes_three_vertices`, misses the swap of two equal-dimension
vertices; `tests/test_formulas.py` keeps that defect on record.
"""
import time
from itertools import product

from wdag import cli
from wdag.digraph import DimensionFunction, VWDigraph, enumerate_acyclic, is_acyclic
from wdag.equivalence import (
    count_equivalence_classes,
    permute_out_weights,
    reorder_vertices,
    sigma_k_local_complement,
    sigma_local_complement,
)
from conftest import acceptance_lines
from wdag.gf2 import GF2Vector
from wdag.permutation import Permutation, all_permutations


def report(number: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    acceptance_lines.append(line)


def run_checks(number: int, claim: str, lines: list) -> None:
    """One PASS/FAIL line for the (label, ok, detail) lines of verify checks."""
    failed = [f"{label} ({detail})" for label, ok, detail in lines if not ok]
    report(number, bool(lines) and not failed, f"{claim}; {len(lines)} checks")
    assert lines and not failed, failed[:5]


def labels(lines: list) -> list[str]:
    return [label for label, _, _ in lines]


def test_criterion_1_worked_example_golden(fig_graph):
    g = fig_graph
    sigma = Permutation.from_cycles(3, (1, 2, 3))
    start = time.perf_counter()
    got_sigma = sigma_local_complement(g, 4, sigma)
    got_sigma_k = sigma_k_local_complement(g, 4, sigma, 2)
    elapsed = time.perf_counter() - start
    want_sigma = VWDigraph(
        g.omega,
        {
            (1, 2): GF2Vector.from_string("01"),
            (1, 3): GF2Vector.from_string("11"),
            (1, 4): GF2Vector.from_string("11"),
            (4, 3): GF2Vector.from_string("011"),
            (4, 2): GF2Vector.from_string("111"),
        },
    )
    want_sigma_k = VWDigraph(
        g.omega,
        {
            (1, 2): GF2Vector.from_string("01"),
            (1, 4): GF2Vector.from_string("11"),
            (4, 3): GF2Vector.from_string("011"),
            (4, 2): GF2Vector.from_string("100"),
        },
    )
    ok = got_sigma == want_sigma and got_sigma_k == want_sigma_k
    report(1, ok, f"worked example reproduced bit for bit ({elapsed * 1e3:.2f} ms)")
    assert got_sigma == want_sigma
    assert got_sigma_k == want_sigma_k


def test_criterion_2_count_formula_vs_enumeration():
    lines = list(cli._check_count_acyclic(3))
    run_checks(2, "degree-product count = enumeration, m and dims <= 3", lines)
    assert len(lines) == 39


def test_criterion_3_two_vertex_counts():
    lines = list(cli._check_two_vertex(5))
    run_checks(3, "two-vertex closed form = orbit count on all pairs <= 5", lines)
    assert len(lines) == 25


def test_criterion_4_matrix_action_oracle_equivalence():
    lines = list(cli._check_facet_action(6))
    cases = sum(int(detail.split("/")[1].split()[0]) for _, _, detail in lines)
    run_checks(4, f"row-reduction action = combinatorial move on {cases} cases", lines)
    assert cases == 14620


def test_criterion_5_cycle_statistic_identities():
    lines = list(cli._check_identities(12))
    run_checks(5, "five identities to n=12 + census agreement through S_7", lines)
    assert "cycle census agreement n=7" in labels(lines)


def test_criterion_6_burnside_oracles():
    lines = list(cli._check_burnside_oracles(6))
    run_checks(
        6,
        "orbit-partition oracles = closed forms (out-star n<=6, path n,m<=5)",
        lines,
    )
    assert {"out-star n=6", "path family n=5 m=5"} <= set(labels(lines))


def test_criterion_7_three_vertex_totals():
    """The swap-aware closed form equals orbit enumeration family by family
    on every sorted three-vertex shape with dimensions <= 4."""
    lines = list(cli._check_three_vertex_classes(4))
    run_checks(7, "corrected three-vertex form = orbit enumeration per family", lines)
    assert len(lines) == 20


def test_criterion_8_vanishing_sums():
    lines = list(cli._check_vanishing_sums(4))
    run_checks(
        8,
        f"derangement and cycle sums vanish on all members ({lines[-1][2]})",
        lines,
    )
    assert labels(lines) == [f"vanishing sums n={n}" for n in (2, 3, 4)]


def test_criterion_9_property_suite():
    problems = []
    shapes = [
        DimensionFunction(dims)
        for m in (1, 2, 3)
        for dims in product((1, 2), repeat=m)
    ]
    for omega in shapes:
        m = omega.m
        reorders = [
            mu
            for mu in all_permutations(m)
            if all(omega.dim(mu(i)) == omega.dim(i) for i in range(1, m + 1))
        ]
        for g in enumerate_acyclic(omega):
            for mu in reorders:
                if not is_acyclic(reorder_vertices(g, mu)):
                    problems.append(("reorder-acyclicity", omega.dims, mu.images))
            for v in range(1, m + 1):
                d = omega.dim(v)
                for sigma in all_permutations(d):
                    if not is_acyclic(permute_out_weights(g, v, sigma)):
                        problems.append(("weights-acyclicity", omega.dims, v))
                    for k in range(1, d + 1):
                        if not is_acyclic(sigma_k_local_complement(g, v, sigma, k)):
                            problems.append(("lc-acyclicity", omega.dims, v, k))
                ident = Permutation.identity(d)
                for k in range(1, d + 1):
                    once = sigma_k_local_complement(g, v, ident, k)
                    if sigma_k_local_complement(once, v, ident, k) != g:
                        problems.append(("involution", omega.dims, v, k))
    invariance = [
        ((1, 2), (2, 1)),
        ((1, 1, 2), (1, 2, 1)),
        ((1, 1, 2), (2, 1, 1)),
        ((1, 2, 2), (2, 1, 2)),
    ]
    for dims_a, dims_b in invariance:
        a = count_equivalence_classes(DimensionFunction(dims_a))
        b = count_equivalence_classes(DimensionFunction(dims_b))
        if a != b:
            problems.append(("count-invariance", dims_a, dims_b, a, b))
    report(
        9,
        not problems,
        "acyclicity preservation, involution, count invariance",
    )
    assert not problems, problems[:5]
