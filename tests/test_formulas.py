import pytest

from wdag.digraph import DimensionFunction, VWDigraph
from wdag.equivalence import count_equivalence_classes
from wdag.formulas import (
    FAMILY_EMPTY,
    FAMILY_INSTAR,
    FAMILY_OUTSTAR,
    FAMILY_PATH,
    FAMILY_SINGLE,
    OracleBudgetError,
    TripleCountBreakdown,
    UnionFind,
    _exact_div,
    brute_three_vertex_breakdown,
    classify_shape,
    count_classes_three_vertices,
    count_classes_three_vertices_corrected,
    count_classes_two_vertices,
    count_instar_classes,
    count_outstar_classes,
    count_path_classes,
    count_unordered_outstar_classes,
    outstar_orbit_oracle,
    outstar_term,
    path_orbit_oracle,
    unordered_outstar_orbit_oracle,
)
from wdag.gf2 import GF2Vector


class TestTwoVertexFormula:
    def test_pinned_values(self):
        assert count_classes_two_vertices(1, 2) == 3
        assert count_classes_two_vertices(1, 1) == 2

    def test_symmetric(self):
        assert count_classes_two_vertices(2, 5) == count_classes_two_vertices(5, 2)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_matches_orbit_enumeration(self, n1, n2):
        assert count_classes_two_vertices(n1, n2) == count_equivalence_classes(
            DimensionFunction.of(n1, n2)
        )


class TestOutstar:
    def test_pinned_values(self):
        assert count_outstar_classes(1) == 1
        assert count_outstar_classes(2) == 2
        assert count_outstar_classes(3) == 6

    def test_vertex_term_values(self):
        assert outstar_term(2) == 2
        assert outstar_term(1) == 1

    def test_term_equals_class_count(self):
        for n in range(1, 13):
            assert outstar_term(n) == count_outstar_classes(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_matches(self, n):
        assert outstar_orbit_oracle(n) == count_outstar_classes(n)

    def test_oracle_single_point(self):
        assert outstar_orbit_oracle(1) == 1

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_full_group_agrees_with_generators(self, n):
        assert outstar_orbit_oracle(n, full_group=True) == outstar_orbit_oracle(n)

    def test_oracle_budget(self):
        with pytest.raises(OracleBudgetError):
            outstar_orbit_oracle(9)


class TestUnorderedOutstar:
    def test_pinned_values(self):
        values = [count_unordered_outstar_classes(n) for n in range(1, 7)]
        assert values == [1, 2, 5, 7, 12, 16]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_oracle_matches(self, n):
        assert unordered_outstar_orbit_oracle(n) == count_unordered_outstar_classes(n)

    def test_every_branch_divides_exactly(self):
        for n in range(1, 17):
            count_unordered_outstar_classes(n)

    def test_oracle_budget(self):
        with pytest.raises(OracleBudgetError):
            unordered_outstar_orbit_oracle(9)


class TestPathFamily:
    def test_pinned_values(self):
        assert count_path_classes(2, 2) == 3
        assert count_path_classes(1, 1) == 1
        assert count_path_classes(1, 3) == 5

    def test_every_branch_divides_exactly(self):
        for n in range(1, 9):
            for m in range(1, 9):
                count_path_classes(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
    def test_oracle_matches(self, n, m):
        assert path_orbit_oracle(n, m) == count_path_classes(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_full_group_agrees_with_generators(self, n, m):
        assert path_orbit_oracle(n, m, full_group=True) == path_orbit_oracle(n, m)

    def test_oracle_budget(self):
        with pytest.raises(OracleBudgetError):
            path_orbit_oracle(6, 2)


class TestInstar:
    def test_pinned_values(self):
        assert count_instar_classes(1, 1) == 1
        assert count_instar_classes(2, 3) == 2

    def test_orbit_partition_restricted_to_instars(self):
        # With all dimensions distinct the moves never change an in-star's
        # edge set, so orbits restricted to each in-star shape must match
        # the product formula target by target.
        from wdag.digraph import enumerate_acyclic
        from wdag.equivalence import orbit

        omega = DimensionFunction.of(1, 2, 3)
        per_shape = {}
        seen = set()
        for g in enumerate_acyclic(omega):
            if g.serial in seen or classify_shape(g) != FAMILY_INSTAR:
                continue
            report = orbit(g, include_members=True)
            seen.update(m.serial for m in report.members)
            shape = tuple(sorted((i, j) for i, j, _ in report.canonical.edges))
            per_shape[shape] = per_shape.get(shape, 0) + 1
        assert per_shape == {
            ((2, 1), (3, 1)): count_instar_classes(2, 3),
            ((1, 2), (3, 2)): count_instar_classes(1, 3),
            ((1, 3), (2, 3)): count_instar_classes(1, 2),
        }


class TestExactDivision:
    def test_exact(self):
        assert _exact_div(48, 48) == 1

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError, match="inexact"):
            _exact_div(49, 48)


class TestUnionFind:
    def test_component_count(self):
        uf = UnionFind(range(5))
        uf.union(0, 1)
        uf.union(3, 4)
        uf.union(1, 3)
        assert uf.component_count() == 2
        assert uf.find(4) == uf.find(0)


class TestTripleBreakdown:
    def test_breakdown_sums(self):
        breakdown = count_classes_three_vertices(1, 2, 3)
        assert breakdown.total == sum(breakdown.per_type.values())
        assert breakdown.per_type[FAMILY_EMPTY] == 1
        assert breakdown.branch == "distinct"

    def test_all_equal_branch_composition(self):
        # 1 + floor((n+1)/2) + f(n) + floor((n+1)/2)^2 + h(n,n) at n=1.
        breakdown = count_classes_three_vertices(1, 1, 1)
        assert breakdown.total == 1 + 1 + outstar_term(1) + 1 + count_path_classes(1, 1)
        assert breakdown.total == 5
        assert breakdown.branch == "all-equal"

    def test_branches(self):
        assert count_classes_three_vertices(1, 1, 2).branch == "low-pair"
        assert count_classes_three_vertices(1, 2, 2).branch == "high-pair"
        assert count_classes_three_vertices(2, 2, 2).branch == "all-equal"

    def test_unordered_input_rejected(self):
        with pytest.raises(ValueError):
            count_classes_three_vertices(2, 1, 3)
        with pytest.raises(ValueError):
            count_classes_three_vertices(0, 1, 1)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            TripleCountBreakdown(total=3, per_type={"empty": 1}, branch="x")


class TestCorrectedTripleCount:
    def test_display_agrees_on_distinct_shapes(self):
        for n1 in range(1, 6):
            for n2 in range(n1 + 1, 6):
                for n3 in range(n2 + 1, 6):
                    assert count_classes_three_vertices_corrected(
                        n1, n2, n3
                    ) == count_classes_three_vertices(n1, n2, n3)

    @pytest.mark.parametrize(
        "dims,display,corrected",
        [((1, 1, 2), 13, 14), ((1, 2, 2), 15, 16), ((3, 3, 3), 26, 24)],
    )
    def test_display_defect_on_record(self, dims, display, corrected):
        assert count_classes_three_vertices(*dims).total == display
        assert count_classes_three_vertices_corrected(*dims).total == corrected

    def test_branches(self):
        assert count_classes_three_vertices_corrected(1, 1, 2).branch == "low-pair"
        assert count_classes_three_vertices_corrected(1, 2, 2).branch == "high-pair"
        assert count_classes_three_vertices_corrected(2, 2, 2).branch == "all-equal"
        assert count_classes_three_vertices_corrected(1, 2, 3).branch == "distinct"

    def test_unordered_input_rejected(self):
        with pytest.raises(ValueError):
            count_classes_three_vertices_corrected(2, 1, 3)
        with pytest.raises(ValueError):
            count_classes_three_vertices_corrected(0, 1, 1)


class TestClassifyShape:
    def test_families(self):
        omega = DimensionFunction.of(1, 1, 1)
        one = GF2Vector.all_ones(1)
        assert classify_shape(VWDigraph(omega)) == FAMILY_EMPTY
        assert classify_shape(VWDigraph(omega, {(1, 2): one})) == FAMILY_SINGLE
        assert (
            classify_shape(VWDigraph(omega, {(1, 2): one, (1, 3): one}))
            == FAMILY_OUTSTAR
        )
        assert (
            classify_shape(VWDigraph(omega, {(1, 3): one, (2, 3): one}))
            == FAMILY_INSTAR
        )
        assert (
            classify_shape(VWDigraph(omega, {(1, 2): one, (2, 3): one})) == FAMILY_PATH
        )
        assert (
            classify_shape(VWDigraph(omega, {(1, 2): one, (2, 3): one, (1, 3): one}))
            == FAMILY_PATH
        )

    def test_wrong_vertex_count(self):
        with pytest.raises(ValueError):
            classify_shape(VWDigraph(DimensionFunction.of(1, 1)))


class TestBruteBreakdown:
    def test_unit_dimensions(self):
        brute = brute_three_vertex_breakdown(1, 1, 1)
        assert brute.total == 5
        assert brute.per_type == {
            FAMILY_EMPTY: 1,
            FAMILY_SINGLE: 1,
            FAMILY_OUTSTAR: 1,
            FAMILY_INSTAR: 1,
            FAMILY_PATH: 1,
        }
        assert brute.per_type == count_classes_three_vertices(1, 1, 1).per_type

    def test_distinct_dimensions_match_formula(self):
        formula = count_classes_three_vertices(1, 2, 3)
        brute = brute_three_vertex_breakdown(1, 2, 3)
        assert brute.per_type == formula.per_type
        assert brute.total == 48

    def test_cancelling_display_errors_corrected_per_family(self):
        # At (1,1,3) the display's single-edge and out-star terms are both
        # wrong and cancel in the total; the corrected form matches each family.
        display = count_classes_three_vertices(1, 1, 3)
        corrected = count_classes_three_vertices_corrected(1, 1, 3)
        brute = brute_three_vertex_breakdown(1, 1, 3)
        assert brute.total == display.total == 23
        assert display.per_type != brute.per_type
        assert corrected.per_type == brute.per_type
