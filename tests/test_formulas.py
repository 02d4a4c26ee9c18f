import csv
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from test_equivalence import orbits
from wdag import formulas
from wdag.digraph import BudgetError, DimensionFunction
from wdag.equivalence import count_equivalence_classes
from wdag.formulas import (
    FAMILY_EMPTY,
    FAMILY_INSTAR,
    FAMILY_OUTSTAR,
    FAMILY_PATH,
    FAMILY_SINGLE,
    _exact_div,
    _generating_pair,
    _outstar_streams,
    _pair_images,
    _path_images,
    _path_streams,
    _swap_images,
    _top_action,
    _unordered_instar_streams,
    _unordered_outstar_streams,
    _vector_table,
    brute_three_vertex_breakdown,
    count_classes_three_vertices,
    count_classes_three_vertices_corrected,
    count_classes_two_vertices,
    count_outstar_classes,
    count_path_classes,
    count_unordered_instar_classes,
    count_unordered_outstar_classes,
    orbit_count,
    outstar_orbit_oracle,
    outstar_term,
    path_orbit_oracle,
    unordered_instar_orbit_oracle,
    unordered_outstar_orbit_oracle,
)
from wdag.gf2 import permute_bits as _permute_bits
from wdag.permutation import Permutation, all_permutations

# The corrected three-vertex form on every sorted shape with dims <= 9:
# each family, the total and the branch.
CORRECTED_TABLE = Path(__file__).parent / "data" / "three_vertex_corrected.csv"


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

    # n = 8, 255^2 = 65,025 points, is the largest the point budget admits.
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
    def test_oracle_matches(self, n):
        assert outstar_orbit_oracle(n) == count_outstar_classes(n)

    def test_oracle_single_point(self):
        assert outstar_orbit_oracle(1) == 1

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_whole_group_agrees_with_generators(self, n):
        size = ((1 << n) - 1) ** 2
        assert orbit_count(size, _outstar_group_streams(n)) == outstar_orbit_oracle(n)

    def test_oracle_budget(self):
        # 511^2 points; n = 8 has 255^2 = 65,025.
        with pytest.raises(BudgetError) as err:
            outstar_orbit_oracle(9)
        assert (err.value.size, err.value.budget) == (511**2, 2**16)


class TestUnorderedOutstar:
    def test_pinned_values(self):
        values = [count_unordered_outstar_classes(n) for n in range(1, 7)]
        assert values == [1, 2, 5, 7, 12, 16]

    @pytest.mark.parametrize("n", (*range(1, 7), 8))
    def test_oracle_matches(self, n):
        assert unordered_outstar_orbit_oracle(n) == count_unordered_outstar_classes(n)

    @pytest.mark.parametrize("n", (1, 2))
    def test_whole_group_agrees_with_generators(self, n):
        size = ((1 << n) - 1) ** 2
        streams = _unordered_outstar_group_streams(n)
        assert orbit_count(size, streams) == unordered_outstar_orbit_oracle(n)

    def test_every_branch_divides_exactly(self):
        for n in range(1, 17):
            count_unordered_outstar_classes(n)

    def test_oracle_budget(self):
        # 511^2 points; n = 8 has 255^2 = 65,025.
        with pytest.raises(BudgetError) as err:
            unordered_outstar_orbit_oracle(9)
        assert (err.value.size, err.value.budget) == (511**2, 2**16)


class TestUnorderedInstar:
    def test_pinned_values(self):
        values = [count_unordered_instar_classes(n) for n in range(1, 9)]
        assert values == [1, 1, 3, 3, 6, 6, 10, 10]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_oracle_matches(self, n):
        assert unordered_instar_orbit_oracle(n) == count_unordered_instar_classes(n)

    @pytest.mark.parametrize("n", (1, 2))
    def test_whole_group_agrees_with_generators(self, n):
        size = ((1 << n) - 1) ** 2
        streams = _unordered_instar_group_streams(n)
        assert orbit_count(size, streams) == unordered_instar_orbit_oracle(n)

    def test_oracle_budget(self):
        with pytest.raises(BudgetError) as err:
            unordered_instar_orbit_oracle(9)
        assert (err.value.size, err.value.budget) == (511**2, 2**16)
        with pytest.raises(ValueError):
            unordered_instar_orbit_oracle(0)


class TestPathFamily:
    def test_pinned_values(self):
        assert count_path_classes(2, 2) == 3
        assert count_path_classes(1, 1) == 1
        assert count_path_classes(1, 3) == 5

    def test_every_branch_divides_exactly(self):
        for n in range(1, 9):
            for m in range(1, 9):
                count_path_classes(n, m)

    @pytest.mark.parametrize(
        "n,m",
        [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
        # at most 2^16 points, beyond the dimension-5 square; (15, 1) has
        # 32,767 * 1 * 2 = 65,534, the most the point budget admits
        + [(6, 1), (6, 2), (1, 6), (2, 7), (8, 4), (11, 2), (15, 1)],
    )
    def test_oracle_matches(self, n, m):
        assert path_orbit_oracle(n, m) == count_path_classes(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_whole_group_agrees_with_generators(self, n, m):
        size = ((1 << n) - 1) * ((1 << m) - 1) << m
        assert orbit_count(size, _path_group_streams(n, m)) == path_orbit_oracle(n, m)

    @pytest.mark.parametrize(
        "n,m", [*product(range(1, 6), repeat=2), (15, 1), (8, 4)]
    )
    def test_each_table_compiled_once(self, n, m, monkeypatch):
        # One table per generator, plus one identity table per side that
        # the other side's generators share.
        compiled = []

        def counting(sigma, dim):
            compiled.append((sigma, dim))
            return _vector_table(sigma, dim)

        monkeypatch.setattr(formulas, "_vector_table", counting)
        assert path_orbit_oracle(n, m) == count_path_classes(n, m)
        identities = [(Permutation.identity(n + 1), n), (Permutation.identity(m + 1), m)]
        generators = [(s, n) for s in _generating_pair(n + 1)]
        generators += [(b, m) for b in _generating_pair(m + 1)]
        assert sorted(compiled, key=repr) == sorted(identities + generators, key=repr)

    def test_oracle_budget(self):
        # 31 * 63 * 64 points; (8, 4) has 61,200.
        with pytest.raises(BudgetError) as err:
            path_orbit_oracle(5, 6)
        assert (err.value.size, err.value.budget) == (124_992, 2**16)
        assert str(err.value) == (
            "Burnside oracle refused: 124992 points exceed budget 65536"
        )


def instar_classes(n2: int, n3: int) -> int:
    """Classes of the two-edge in-star with source dimensions n2 and n3:
    h(n2) h(n3), h(n) = floor((n+1)/2) the weight classes of one source."""
    return (n2 + 1) // 2 * ((n3 + 1) // 2)


class TestInstar:
    def test_pinned_values(self):
        assert instar_classes(1, 1) == 1
        assert instar_classes(2, 3) == 2

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
            if g.serial in seen or edge_family(g) != FAMILY_INSTAR:
                continue
            report = orbit(g, include_members=True)
            seen.update(m.serial for m in report.members)
            shape = tuple(sorted((i, j) for i, j, _ in report.canonical.edges))
            per_shape[shape] = per_shape.get(shape, 0) + 1
        assert per_shape == {
            ((2, 1), (3, 1)): instar_classes(2, 3),
            ((1, 2), (3, 2)): instar_classes(1, 3),
            ((1, 3), (2, 3)): instar_classes(1, 2),
        }


# The whole group S_{n+1} (times S_{m+1} for the path family, times the swap
# of two equal ends for the unordered families), each element compiled as
# the oracles compile their generators, (1 2) and the (n+1)-cycle.  The
# orbits must not depend on the choice of generators.


def _outstar_group_streams(n):
    for sigma in all_permutations(n + 1):
        table, _ = _vector_table(sigma, n)
        yield sigma, _pair_images(table, table)


def _with_swap(n, streams):
    """Each element of the streams, then each composed with the swap of the
    two weights."""
    swap = list(_swap_images(n))
    for g, images in streams:
        images = list(images)
        yield (g, False), images
        yield (g, True), [swap[y] for y in images]


def _unordered_outstar_group_streams(n):
    return _with_swap(n, _outstar_group_streams(n))


def _unordered_instar_group_streams(n):
    tables = [(sigma, _vector_table(sigma, n)[0]) for sigma in all_permutations(n + 1)]
    return _with_swap(
        n,
        (((s, t), _pair_images(ts, tt)) for s, ts in tables for t, tt in tables),
    )


def _path_group_streams(n, m):
    for sigma in all_permutations(n + 1):
        for beta in all_permutations(m + 1):
            beta_table, _ = _vector_table(beta, m)
            yield (sigma, beta), _path_images(_vector_table(sigma, n), beta_table)


# Reference actions: each oracle's group action applied point by point to
# tuples, recomputing the top-point ingredients for every point.  The oracles
# compile each generator once into an index stream; these check the streams.


def _outstar_act(n):
    def act(sigma: Permutation, x: tuple[int, int]) -> tuple[int, int]:
        bar, marked, corr = _top_action(sigma, n)
        v, w = x
        v2 = _permute_bits(bar, v)
        w2 = _permute_bits(bar, w)
        if marked is not None:
            if (v >> (marked - 1)) & 1:
                v2 ^= corr
            if (w >> (marked - 1)) & 1:
                w2 ^= corr
        return (v2, w2)

    return act


def _unordered_outstar_act(n):
    def act(sigma: Permutation | None, x: tuple[int, int]) -> tuple[int, int]:
        v, w = x
        if sigma is None:  # the sink swap
            return (w, v)
        bar, marked, corr = _top_action(sigma, n)
        v2 = _permute_bits(bar, v)
        w2 = _permute_bits(bar, w)
        if marked is not None:
            if (v >> (marked - 1)) & 1:
                v2 ^= corr
            if (w >> (marked - 1)) & 1:
                w2 ^= corr
        return (v2, w2)

    return act


def _unordered_instar_act(n):
    def one(sigma: Permutation, v: int) -> int:
        bar, marked, corr = _top_action(sigma, n)
        v2 = _permute_bits(bar, v)
        if marked is not None and (v >> (marked - 1)) & 1:
            v2 ^= corr
        return v2

    def act(pair, x: tuple[int, int]) -> tuple[int, int]:
        v, w = x
        if pair is None:  # the source swap
            return (w, v)
        sigma, tau = pair
        return (one(sigma, v), one(tau, w))

    return act


def _path_act(n, m):
    def act(pair, x):
        sigma, beta = pair
        u, w, wp = x
        sbar, smarked, scorr = _top_action(sigma, n)
        bbar, bmarked, bcorr = _top_action(beta, m)
        u_stable = smarked is None or not (u >> (smarked - 1)) & 1
        w_stable = bmarked is None or not (w >> (bmarked - 1)) & 1
        wp_stable = bmarked is None or not (wp >> (bmarked - 1)) & 1
        u2 = _permute_bits(sbar, u)
        if not u_stable:
            u2 ^= scorr
        w2 = _permute_bits(bbar, w)
        if not w_stable:
            w2 ^= bcorr
        if u_stable:
            wp2 = _permute_bits(bbar, wp)
            if not wp_stable:
                wp2 ^= bcorr
        else:
            wp2 = _permute_bits(bbar, w ^ wp)
            if w_stable != wp_stable:
                wp2 ^= bcorr
        return (u2, w2, wp2)

    return act


def _pair_space(n):
    nonzero = range(1, 1 << n)
    return [(v, w) for v in nonzero for w in nonzero]


def _path_space(n, m):
    return [
        (u, w, wp)
        for u in range(1, 1 << n)
        for w in range(1, 1 << m)
        for wp in range(0, 1 << m)
    ]


def _assert_streams_match(streams, space, act) -> list:
    """Every stream maps point i to the index of the reference image of
    space[i], and is a bijection of range(len(space)); returns the
    generators in stream order."""
    index = {x: i for i, x in enumerate(space)}
    gens = []
    for g, images in streams:
        images = list(images)
        assert images == [index[act(g, x)] for x in space], g
        assert sorted(images) == list(range(len(space))), g
        gens.append(g)
    return gens


class TestCompiledActions:
    @pytest.mark.parametrize("whole_group", (False, True))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_outstar(self, n, whole_group):
        streams = _outstar_group_streams(n) if whole_group else _outstar_streams(n)
        gens = _assert_streams_match(streams, _pair_space(n), _outstar_act(n))
        if not whole_group:
            assert gens == _generating_pair(n + 1)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_unordered_outstar(self, n):
        gens = _assert_streams_match(
            _unordered_outstar_streams(n), _pair_space(n), _unordered_outstar_act(n)
        )
        assert gens == [None, *_generating_pair(n + 1)]

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_unordered_instar(self, n):
        gens = _assert_streams_match(
            _unordered_instar_streams(n), _pair_space(n), _unordered_instar_act(n)
        )
        identity = Permutation.identity(n + 1)
        per_source = [
            pair
            for sigma in _generating_pair(n + 1)
            for pair in ((sigma, identity), (identity, sigma))
        ]
        assert gens == [None, *per_source]

    # The whole group on (3,3) is left out: its 576 elements cost about 4 s
    # of reference actions, and elements moving both vertices at once are
    # already checked on (2,3) and (3,2).
    @pytest.mark.parametrize(
        "n,m,whole_group",
        [
            (n, m, whole_group)
            for n, m in product((1, 2, 3), repeat=2)
            for whole_group in (False, True)
            if not (whole_group and n == m == 3)
        ],
    )
    def test_path(self, n, m, whole_group):
        streams = _path_group_streams(n, m) if whole_group else _path_streams(n, m)
        gens = _assert_streams_match(streams, _path_space(n, m), _path_act(n, m))
        if not whole_group:
            id_n = Permutation.identity(n + 1)
            id_m = Permutation.identity(m + 1)
            assert gens == [(s, id_m) for s in _generating_pair(n + 1)] + [
                (id_n, b) for b in _generating_pair(m + 1)
            ]


def _generated_group(generators):
    """Every product of the generators, found breadth first from the identity."""
    found = {Permutation.identity(generators[0].degree)}
    frontier = found
    while frontier:
        frontier = {s.compose(g) for g in frontier for s in generators} - found
        found |= frontier
    return found


class TestGeneratingPair:
    @pytest.mark.parametrize("size", range(2, 8))
    def test_closure_is_the_whole_symmetric_group(self, size):
        assert _generated_group(_generating_pair(size)) == set(all_permutations(size))

    def test_shape(self):
        assert _generating_pair(2) == [Permutation.transposition(2, 1, 2)]
        for size in range(3, 8):
            assert _generating_pair(size) == [
                Permutation.transposition(size, 1, 2),
                Permutation.from_cycles(size, range(1, size + 1)),
            ]


class TestExactDivision:
    def test_exact(self):
        assert _exact_div(48, 48) == 1

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError, match="inexact"):
            _exact_div(49, 48)


class TestOrbitCount:
    def test_component_count(self):
        # Transpositions joining 0-1, 3-4 and 1-3 leave orbits {0,1,3,4}, {2}.
        joins = {"0-1": [1, 0, 2, 3, 4], "3-4": [0, 1, 2, 4, 3], "1-3": [0, 3, 2, 1, 4]}
        assert orbit_count(5, joins.items()) == 2

    @pytest.mark.parametrize("images,held", [([1, 0, 2, 4], 4), ([1, 0, 2, 4, 3, 5], 6)])
    def test_stream_of_the_wrong_length_is_refused(self, images, held):
        streams = [("3-4", [0, 1, 2, 4, 3]), ("bad", images)]
        with pytest.raises(ValueError) as err:
            orbit_count(5, streams)
        assert str(err.value) == f"generator 'bad': stream holds {held} images, expected 5"

    def test_orbit_count_budget_is_the_exact_size(self):
        assert orbit_count(2**16, []) == 2**16
        with pytest.raises(BudgetError) as err:
            orbit_count(2**16 + 1, [])
        assert (err.value.size, err.value.budget) == (2**16 + 1, 2**16)


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

    def test_pinned_table(self):
        with CORRECTED_TABLE.open(encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            pinned = list(reader)
        computed = []
        for dims in combinations_with_replacement(range(1, 10), 3):
            breakdown = count_classes_three_vertices_corrected(*dims)
            row = dict(zip(("n1", "n2", "n3"), dims), **breakdown.per_type)
            row.update(total=breakdown.total, branch=breakdown.branch)
            computed.append({key: str(value) for key, value in row.items()})
        assert len(pinned) == 165
        assert reader.fieldnames == list(computed[0])
        assert computed == pinned

    @pytest.mark.parametrize("dims", list(combinations_with_replacement(range(1, 6), 3)))
    def test_equals_enumeration_per_family(self, dims):
        assert (
            count_classes_three_vertices_corrected(*dims).per_type
            == brute_three_vertex_breakdown(*dims).per_type
        )


def edge_family(g):
    """Family of a three-vertex graph read from its edges, not its poset:
    an in-star is two edges into one sink."""
    edges = [(i, j) for i, j, _ in g.edges]
    if len(edges) < 2:
        return (FAMILY_EMPTY, FAMILY_SINGLE)[len(edges)]
    if len(edges) == 2:
        (a1, b1), (a2, b2) = edges
        if a1 == a2:
            return FAMILY_OUTSTAR
        if b1 == b2:
            return FAMILY_INSTAR
    return FAMILY_PATH


def sweep_breakdown(dims):
    """Classes per family from the whole-space sweep: the reference the
    sliced breakdown is checked against."""
    families = (FAMILY_EMPTY, FAMILY_SINGLE, FAMILY_OUTSTAR, FAMILY_INSTAR, FAMILY_PATH)
    per_type = {family: 0 for family in families}
    for report in orbits(DimensionFunction(dims)):
        per_type[edge_family(report.canonical)] += 1
    return per_type


class TestBruteBreakdown:
    @pytest.mark.parametrize("dims", list(product(range(1, 4), repeat=3)))
    def test_sliced_families_equal_the_sweep(self, dims):
        assert brute_three_vertex_breakdown(*dims).per_type == sweep_breakdown(dims)

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
