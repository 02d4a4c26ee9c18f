"""Acceptance suite: every criterion is exact (no tolerances), each test
prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
per-family comparison table of criterion 7.  Criterion 7 checks the
swap-aware closed form `count_classes_three_vertices_corrected` against
orbit enumeration family by family.  Its table also prints the paper's
display, evaluated verbatim by `count_classes_three_vertices`, which
misses the swap of two equal-dimension vertices: its totals differ from
enumeration at (1,1,2), (1,2,2), (1,3,3), (3,3,3), (1,1,4), (2,2,4) and
(4,4,4), and its families also at (1,1,3), where the errors cancel in the
total.
"""
import time
from itertools import combinations, product

from wdag.cyclestats import (
    cycle_type_census,
    stirling1,
    stirling1_all_divisible,
    stirling1_by_even,
    verify_identity,
)
from wdag.digraph import (
    DimensionFunction,
    VWDigraph,
    count_acyclic,
    cycle_sum,
    derangement_sum,
    enumerate_acyclic,
    graph_from_reduced,
    is_acyclic,
    reduced_matrix,
    scalar_reduced_matrices,
)
from wdag.equivalence import (
    count_equivalence_classes,
    facet_permutation_action,
    permute_out_weights,
    reorder_vertices,
    sigma_k_local_complement,
    sigma_local_complement,
)
from wdag.formulas import (
    brute_three_vertex_breakdown,
    count_classes_three_vertices,
    count_classes_three_vertices_corrected,
    count_classes_two_vertices,
    count_outstar_classes,
    count_path_classes,
    outstar_orbit_oracle,
    path_orbit_oracle,
)
from conftest import acceptance_lines
from wdag.gf2 import GF2Vector
from wdag.permutation import Permutation, all_permutations, reduce_top


def report(number: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    acceptance_lines.append(line)


def build_worked_example() -> VWDigraph:
    return VWDigraph(
        DimensionFunction.of(2, 3, 3, 3),
        {
            (1, 2): GF2Vector.from_string("10"),
            (1, 4): GF2Vector.from_string("11"),
            (4, 3): GF2Vector.from_string("101"),
            (4, 2): GF2Vector.from_string("111"),
        },
    )


def test_criterion_1_worked_example_golden():
    g = build_worked_example()
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
    mismatches = []
    checked = 0
    for m in (1, 2, 3):
        for dims in product((1, 2, 3), repeat=m):
            omega = DimensionFunction(dims)
            counted = count_acyclic(omega)
            listed = sum(1 for _ in enumerate_acyclic(omega))
            checked += 1
            if counted != listed:
                mismatches.append((dims, counted, listed))
    report(2, not mismatches, f"degree-product count = enumeration on {checked} shapes")
    assert not mismatches, mismatches


def test_criterion_3_two_vertex_counts():
    mismatches = []
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            closed = count_classes_two_vertices(n1, n2)
            brute = count_equivalence_classes(DimensionFunction.of(n1, n2))
            if closed != brute:
                mismatches.append((n1, n2, closed, brute))
    report(3, not mismatches, "two-vertex closed form = orbit count for all 25 pairs")
    assert not mismatches, mismatches


def test_criterion_4_matrix_action_oracle_equivalence():
    disagreements = []
    checked = 0
    for dims in [(1, 2), (2, 2), (1, 2, 3)]:
        omega = DimensionFunction(dims)
        for g in enumerate_acyclic(omega):
            for v in range(1, omega.m + 1):
                d = omega.dim(v)
                for sigma_full in all_permutations(d + 1):
                    checked += 1
                    image = facet_permutation_action(g, v, sigma_full)
                    bar = reduce_top(sigma_full)
                    top = sigma_full(d + 1)
                    if top == d + 1:
                        expected = permute_out_weights(g, v, bar)
                    else:
                        expected = sigma_k_local_complement(g, v, bar, top)
                    if image != expected:
                        disagreements.append((dims, g, v, sigma_full.images))
    report(
        4,
        not disagreements,
        f"row-reduction action = combinatorial move on {checked} cases",
    )
    assert not disagreements, disagreements[:3]


def test_criterion_5_cycle_statistic_identities():
    problems = []
    for name, max_n in [
        ("rising_d", 12),
        ("all_odd", 10),
        ("some_even", 10),
        ("mandev", 12),
        ("mandev_minus_one", 12),
    ]:
        result = verify_identity(name, max_n)
        if not result.ok:
            problems.append((name, result.violations[:2]))
    for n in range(8):
        census = cycle_type_census(n)

        def tally(pred) -> int:
            return sum(v for t, v in census.items() if pred(t))

        for m in range(n + 1):
            if tally(lambda t, m=m: len(t) == m) != stirling1(n, m):
                problems.append(("census c", n, m))
            for d in (1, 2, 3, 4):
                want = tally(
                    lambda t, m=m, d=d: len(t) == m and all(x % d == 0 for x in t)
                )
                if want != stirling1_all_divisible(d, n, m):
                    problems.append(("census c_d", d, n, m))
            for e in range(n // 2 + 1):
                want = tally(
                    lambda t, m=m, e=e: len(t) == m
                    and sum(1 for x in t if x % 2 == 0) == e
                )
                if want != stirling1_by_even(n, m, e):
                    problems.append(("census c(n,m,e)", n, m, e))
    report(5, not problems, "five identities + census agreement through S_7")
    assert not problems, problems[:5]


def test_criterion_6_burnside_oracles():
    problems = []
    for n in range(1, 7):
        oracle = outstar_orbit_oracle(n)
        closed = count_outstar_classes(n)
        if oracle != closed:
            problems.append(("out-star", n, oracle, closed))
    for n in range(1, 6):
        for m in range(1, 6):
            oracle = path_orbit_oracle(n, m)
            closed = count_path_classes(n, m)
            if oracle != closed:
                problems.append(("path", n, m, oracle, closed))
    report(
        6,
        not problems,
        "orbit-partition oracles = closed forms (out-star n<=6, path n,m<=5)",
    )
    assert not problems, problems


def test_criterion_7_three_vertex_totals():
    """The swap-aware closed form equals orbit enumeration family by family.

    The verbatim display (count_classes_three_vertices) is printed beside
    them so that its equal-dimension defect stays visible under -s.
    """
    cases = [
        (1, 1, 1),
        (1, 1, 2),
        (1, 1, 3),
        (1, 2, 2),
        (1, 2, 3),
        (1, 3, 3),
        (2, 2, 2),
        (3, 3, 3),
        (1, 1, 4),
        (2, 2, 4),
        (4, 4, 4),
    ]
    rows = []
    mismatched = []
    for dims in cases:
        display = count_classes_three_vertices(*dims)
        corrected = count_classes_three_vertices_corrected(*dims)
        brute = brute_three_vertex_breakdown(*dims)
        rows.append((dims, display, corrected, brute))
        if corrected.per_type != brute.per_type:
            mismatched.append(dims)
    print()
    header = f"{'dims':>9} {'side':>9} {'total':>6}  per-family"
    lines = [header]
    for dims, display, corrected, brute in rows:
        for side, breakdown in (
            ("display", display),
            ("corrected", corrected),
            ("brute", brute),
        ):
            mark = ""
            if breakdown.per_type != brute.per_type:
                mark = "  <-- differs from brute"
            lines.append(
                f"{str(dims):>9} {side:>9} {breakdown.total:>6}  {breakdown.per_type}{mark}"
            )
    table = "\n".join(lines)
    print(table)
    report(
        7,
        not mismatched,
        "three-vertex corrected closed form = orbit enumeration per family on "
        f"{[tuple(c) for c in cases]}; mismatches: {mismatched or 'none'}",
    )
    assert not mismatched, (
        "corrected closed form disagrees with orbit enumeration at "
        f"{mismatched} (the verbatim display is count_classes_three_vertices); "
        f"full per-family comparison:\n{table}"
    )


def test_criterion_8_vanishing_sums():
    problems = []
    counts = {}
    for n in (2, 3, 4):
        members = list(scalar_reduced_matrices(n))
        counts[n] = len(members)
        for mat in members:
            if derangement_sum(mat) != 0:
                problems.append(("derangement", n, mat.rows))
            vertices = list(range(1, n + 1))
            for size in range(0, n - 1):
                for blocked in combinations(vertices, size):
                    for i in vertices:
                        if i in blocked:
                            continue
                        if cycle_sum(mat, blocked, i) != 0:
                            problems.append(("cycle", n, blocked, i, mat.rows))
    ok = not problems and counts[4] == 543
    report(
        8,
        ok,
        f"derangement and cycle sums vanish on all members (n=4 has {counts[4]})",
    )
    assert counts[4] == 543
    assert not problems, problems[:5]


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
            if graph_from_reduced(reduced_matrix(g)) != g:
                problems.append(("round-trip", omega.dims, g.serial))
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
        "acyclicity preservation, involution, round trip, count invariance",
    )
    assert not problems, problems[:5]
