import random
import tracemalloc
from collections import Counter
from functools import partial
from operator import attrgetter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod
from typing import Callable, Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CENSUS, census_classes
from wdag import digraph, equivalence
from wdag.digraph import (
    BudgetError,
    DimensionFunction,
    VWDigraph,
    count_acyclic,
    dag_census,
    enumerate_acyclic,
    is_acyclic,
)
from wdag.equivalence import (
    OrbitReport,
    SliceReport,
    count_equivalence_classes,
    facet_generators,
    facet_move,
    facet_permutation_action,
    local_complement,
    orbit,
    permute_out_weights,
    reachability_posets,
    reorder_vertices,
    sigma_k_local_complement,
    sigma_local_complement,
    sliced_orbits,
)
from wdag.formulas import count_classes_three_vertices_corrected, count_classes_two_vertices
from wdag.gf2 import GF2Vector
from wdag.permutation import Permutation, all_permutations, reduce_top

SIGMA = Permutation.from_cycles(3, (1, 2, 3))

SWEEP_SHAPES = [
    *(
        dims
        for m in range(1, 4)
        for dims in combinations_with_replacement(range(1, 4), m)
    ),
    (1, 1, 1, 1),
    (1, 1, 1, 2),
    (1, 1, 2, 2),
]


def graph(dims, edges):
    return VWDigraph(
        DimensionFunction(dims),
        {(i, j): GF2Vector.from_string(w) for i, j, w in edges},
    )


@st.composite
def acyclic_graphs(draw):
    """Edges only forward along a drawn vertex order, on up to four
    vertices of dimension up to 3."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    m = len(dims)
    order = draw(st.permutations(range(1, m + 1)))
    weights = {}
    for a in range(m):
        for b in range(a + 1, m):
            u, v = order[a], order[b]
            bits = draw(st.integers(0, (1 << dims[u - 1]) - 1))
            if bits:
                weights[(u, v)] = GF2Vector(dims[u - 1], bits)
    return VWDigraph(DimensionFunction(tuple(dims)), weights)


def random_acyclic(dims, rng):
    """A graph of shape dims with edges forward along a random vertex order,
    each present with probability 3/4 and of a random nonzero weight."""
    m = len(dims)
    order = rng.sample(range(1, m + 1), m)
    weights = {}
    for a, b in combinations(range(m), 2):
        u, v = order[a], order[b]
        if rng.random() < 0.75:
            weights[(u, v)] = GF2Vector(dims[u - 1], rng.randrange(1, 1 << dims[u - 1]))
    return VWDigraph(DimensionFunction(dims), weights)


def every_move(omega):
    """The facet move of every facet permutation at every vertex, and the
    swap of every two vertices of one dimension: wider than the standard
    generators, which keep only the adjacent ones."""
    m = omega.m
    return [
        *(
            facet_move(v, sigma_full)
            for v in range(1, m + 1)
            for sigma_full in all_permutations(omega.dim(v) + 1)
        ),
        *(
            partial(reorder_vertices, mu=Permutation.transposition(m, p, q))
            for p, q in combinations(range(1, m + 1), 2)
            if omega.dim(p) == omega.dim(q)
        ),
    ]


class TestWorkedExample:
    """Golden four-vertex example, checked edge for edge and bit for bit."""

    def test_sigma_local_complement(self, fig_graph):
        expected = graph(
            (2, 3, 3, 3),
            [
                (1, 2, "01"),
                (1, 3, "11"),
                (1, 4, "11"),
                (4, 3, "011"),
                (4, 2, "111"),
            ],
        )
        assert sigma_local_complement(fig_graph, 4, SIGMA) == expected

    def test_sigma_k_local_complement(self, fig_graph):
        expected = graph(
            (2, 3, 3, 3),
            [(1, 2, "01"), (1, 4, "11"), (4, 3, "011"), (4, 2, "100")],
        )
        assert sigma_k_local_complement(fig_graph, 4, SIGMA, 2) == expected

    def test_plain_lc_at_v4(self, fig_graph):
        # Same cross-pair effect as the sigma move, without relabeling
        # v4's out-weights.
        result = local_complement(fig_graph, 4)
        assert result.weight(1, 2).to_string() == "01"
        assert result.weight(1, 3).to_string() == "11"
        assert result.weight(4, 3).to_string() == "101"

    def test_matrix_action_matches(self, fig_graph):
        sigma_full = Permutation((4, 3, 1, 2))
        assert reduce_top(sigma_full) == SIGMA
        assert sigma_full(4) == 2
        assert facet_permutation_action(fig_graph, 4, sigma_full) == (
            sigma_k_local_complement(fig_graph, 4, SIGMA, 2)
        )


class TestLocalComplement:
    def test_no_in_or_out_neighbors(self):
        g = graph((2, 1), [(1, 2, "10")])
        assert local_complement(g, 2) == g  # no out-neighbors
        assert local_complement(g, 1) == g  # no in-neighbors

    def test_classical_involution_on_all_dags(self):
        omega = DimensionFunction.of(1, 1, 1)
        one = GF2Vector.all_ones(1)
        for edges in dag_census(3):
            g = VWDigraph(omega, {e: one for e in edges})
            for v in (1, 2, 3):
                assert local_complement(local_complement(g, v), v) == g

    def test_sigma_identity_reduces_to_plain(self, fig_graph):
        assert sigma_local_complement(fig_graph, 4, Permutation.identity(3)) == (
            local_complement(fig_graph, 4)
        )

    def test_isolated_vertex_fixed(self):
        g = graph((2, 1, 3), [(1, 2, "10")])
        assert sigma_local_complement(g, 3, Permutation.identity(3)) == g


class TestSigmaKMove:
    def test_unit_dimension_reduces_to_classical(self):
        omega = DimensionFunction.of(1, 1, 1)
        one = GF2Vector.all_ones(1)
        ident = Permutation.identity(1)
        for edges in dag_census(3):
            g = VWDigraph(omega, {e: one for e in edges})
            for v in (1, 2, 3):
                assert sigma_k_local_complement(g, v, ident, 1) == local_complement(g, v)

    def test_involution_exhaustive(self):
        omega = DimensionFunction.of(2, 2)
        for g in enumerate_acyclic(omega):
            for v in (1, 2):
                ident = Permutation.identity(2)
                for k in (1, 2):
                    once = sigma_k_local_complement(g, v, ident, k)
                    assert sigma_k_local_complement(once, v, ident, k) == g

    def test_argument_validation(self, fig_graph):
        with pytest.raises(ValueError):
            sigma_k_local_complement(fig_graph, 4, SIGMA, 4)
        with pytest.raises(ValueError):
            sigma_k_local_complement(fig_graph, 4, Permutation.identity(2), 1)
        with pytest.raises(ValueError):
            sigma_k_local_complement(fig_graph, 9, SIGMA, 1)


# The facet oracle as it was before it permuted only the moved columns:
# every row rebuilt from the key's entries and every row's moved columns
# gathered bit by bit.  Kept as an independent reference.
def reference_facet_action(
    g: VWDigraph, v: int, sigma_full: Permutation
) -> VWDigraph:
    """Apply a permutation of the dim(v)+1 facets of the simplex factor at v.

    Builds the block matrix [I_n | R] whose right part is the reduced
    matrix of g written out in scalar coordinates, permutes the columns
    belonging to v's factor by sigma_full, row-reduces back to the form
    [I_n | R'] over GF(2), and reads the image graph off R'.  This is
    the ground truth the combinatorial moves are checked against:
    sigma_full fixing dim(v)+1 must act as an out-weight permutation,
    anything else as a (sigma, k)-local complementation.
    """
    dim_v = g.omega.dim(v)
    if sigma_full.degree != dim_v + 1:
        raise ValueError(
            f"facet permutation degree {sigma_full.degree}, expected {dim_v + 1}"
        )
    if not is_acyclic(g):
        raise ValueError("the facet action is defined for acyclic graphs only")
    omega = g.omega
    dims = omega.dims
    m = len(dims)
    n = sum(dims)
    starts = [sum(dims[:s]) for s in range(m)]

    # Row starts[s] + c is coordinate c+1 of vertex s+1: its unit bit, and
    # bit n + t when that coordinate of entry (s+1, t+1) of R is 1.
    rows = []
    for s, d in enumerate(dims):
        entries = list(g.key[s * m : (s + 1) * m])
        entries[s] = (1 << d) - 1
        for c in range(d):
            row = 1 << (starts[s] + c)
            for t, bits in enumerate(entries):
                if bits >> c & 1:
                    row |= 1 << (n + t)
            rows.append(row)

    # Facet k of v's factor is column starts[v-1] + k - 1, the last one
    # column n + v - 1; the new facet-k column is the old facet-sigma(k) one.
    cols = [starts[v - 1] + k for k in range(dim_v)] + [n + v - 1]
    moved = sum(1 << col for col in cols)
    sources = [cols[sigma_full(k) - 1] for k in range(1, dim_v + 2)]
    rows = [
        row & ~moved | sum((row >> src & 1) << dst for dst, src in zip(cols, sources))
        for row in rows
    ]

    # Gauss-Jordan the first n columns to the identity.
    for col in range(n):
        mask = 1 << col
        pivot = next((r for r in range(col, n) if rows[r] & mask), None)
        if pivot is None:
            raise ValueError("facet-permuted matrix is singular; input invalid")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r] & mask:
                rows[r] ^= rows[col]

    weights = {}
    for s, d in enumerate(dims):
        for t in range(m):
            bits = sum((rows[starts[s] + c] >> (n + t) & 1) << c for c in range(d))
            if s == t:
                if bits != (1 << d) - 1:
                    raise ValueError("image matrix lost its unit diagonal")
            elif bits:
                weights[(s + 1, t + 1)] = GF2Vector(d, bits)
    return VWDigraph(omega, weights)


class TestMatrixActionOracle:
    def test_identity_fixes(self, fig_graph):
        ident = Permutation.identity(4)
        assert facet_permutation_action(fig_graph, 4, ident) == fig_graph

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2)])
    def test_transposition_is_k_move(self, dims):
        omega = DimensionFunction(dims)
        for g in enumerate_acyclic(omega):
            for v in range(1, omega.m + 1):
                d = omega.dim(v)
                for k in range(1, d + 1):
                    sigma_full = Permutation.transposition(d + 1, k, d + 1)
                    assert facet_permutation_action(g, v, sigma_full) == (
                        sigma_k_local_complement(g, v, Permutation.identity(d), k)
                    )

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (3, 3), (1, 1, 1, 1)])
    def test_full_contract(self, dims):
        omega = DimensionFunction(dims)
        for g in enumerate_acyclic(omega):
            for v in range(1, omega.m + 1):
                d = omega.dim(v)
                for sigma_full in all_permutations(d + 1):
                    bar = reduce_top(sigma_full)
                    if sigma_full(d + 1) == d + 1:
                        expected = permute_out_weights(g, v, bar)
                    else:
                        expected = sigma_k_local_complement(g, v, bar, sigma_full(d + 1))
                    assert facet_permutation_action(g, v, sigma_full) == expected
                    assert facet_move(v, sigma_full)(g) == expected

    @pytest.mark.parametrize(
        "dims",
        [(1, 2), (2, 2), (3, 1), (1, 1, 1, 1)]
        # v first, in the middle and last, and widths up to 4
        + [(3, 2, 1), (2, 1, 2), (2, 2, 2), (1, 4), (4, 1)]
        # pivots from S_6
        + [(5, 1)],
    )
    def test_matches_the_reference_row_reduction(self, dims):
        omega = DimensionFunction(dims)
        for g in enumerate_acyclic(omega):
            for v, d in enumerate(dims, start=1):
                for sigma_full in all_permutations(d + 1):
                    assert facet_permutation_action(g, v, sigma_full) == (
                        reference_facet_action(g, v, sigma_full)
                    )

    def test_reduction_cache_carries_no_shape_or_vertex(self):
        # One entry per facet permutation serves each shape and vertex with
        # that many facets: the same sigma_full interleaved at v = 1 of
        # (2,1), v = 2 of (1,2) and v = 3 of (1,1,2).
        sites = [
            (graph((2, 1), [(2, 1, "1")]), 1),
            (graph((1, 2), [(1, 2, "1")]), 2),
            (graph((1, 1, 2), [(1, 3, "1"), (3, 2, "10"), (1, 2, "1")]), 3),
        ]
        for sigma_full in all_permutations(3):
            for g, v in sites:
                assert facet_permutation_action(g, v, sigma_full) == (
                    reference_facet_action(g, v, sigma_full)
                ), (g.omega.dims, v, sigma_full)
        assert equivalence._facet_inverse.cache_info().maxsize is not None

    def test_degree_validation(self, fig_graph):
        for action in (facet_permutation_action, reference_facet_action):
            with pytest.raises(ValueError, match="facet permutation degree 3, expected 4"):
                action(fig_graph, 4, Permutation.identity(3))

    def test_rejects_cyclic_input(self):
        two_cycle = graph((1, 2), [(1, 2, "1"), (2, 1, "10")])
        for action in (facet_permutation_action, reference_facet_action):
            for v, d in ((1, 1), (2, 2)):
                with pytest.raises(ValueError, match="acyclic"):
                    action(two_cycle, v, Permutation.identity(d + 1))

    def test_memo_follows_the_graph(self):
        # The rows of [I_n | R] are built once per graph and kept for one
        # graph only: interleaved graphs, one key under two shapes, and a
        # cyclic graph between acyclic ones must each get their own rows.
        g1 = graph((1, 2), [(1, 2, "1")])
        g2 = graph((1, 2), [(2, 1, "11")])
        wide = graph((2, 2), [(1, 2, "10")])
        narrow = graph((2, 1), [(1, 2, "10")])
        assert wide.key == narrow.key
        cyclic = graph((1, 2), [(1, 2, "1"), (2, 1, "10")])
        for g in (g1, g2, g1, wide, narrow, wide, g1, cyclic, g2, cyclic, cyclic, g1):
            for v, d in enumerate(g.omega.dims, start=1):
                for sigma_full in all_permutations(d + 1):
                    if g is cyclic:
                        with pytest.raises(ValueError, match="acyclic"):
                            facet_permutation_action(g, v, sigma_full)
                    else:
                        assert facet_permutation_action(g, v, sigma_full) == (
                            reference_facet_action(g, v, sigma_full)
                        )

    def test_degree_checked_before_acyclicity(self):
        two_cycle = graph((1, 2), [(1, 2, "1"), (2, 1, "10")])
        for action in (facet_permutation_action, reference_facet_action):
            with pytest.raises(ValueError, match="facet permutation degree 2, expected 3"):
                action(two_cycle, 2, Permutation.identity(2))

    def test_single_vertex_always_fixed(self):
        g = VWDigraph(DimensionFunction.of(2))
        for sigma_full in all_permutations(3):
            assert facet_permutation_action(g, 1, sigma_full) == g

    def test_right_action_composition_law(self):
        # Applying sigma then tau at one vertex equals one application of
        # sigma∘tau; this is what lets transpositions generate everything.
        omega = DimensionFunction.of(1, 2)
        for g in enumerate_acyclic(omega):
            for v in (1, 2):
                d = omega.dim(v)
                for sigma in all_permutations(d + 1):
                    for tau in all_permutations(d + 1):
                        step = facet_permutation_action(
                            facet_permutation_action(g, v, sigma), v, tau
                        )
                        assert step == facet_permutation_action(
                            g, v, sigma.compose(tau)
                        )

    def test_actions_at_distinct_vertices_commute(self):
        omega = DimensionFunction.of(1, 2)
        for g in enumerate_acyclic(omega):
            for sigma in all_permutations(2):
                for tau in all_permutations(3):
                    one = facet_permutation_action(
                        facet_permutation_action(g, 1, sigma), 2, tau
                    )
                    two = facet_permutation_action(
                        facet_permutation_action(g, 2, tau), 1, sigma
                    )
                    assert one == two


class TestReorderAndWeights:
    def test_identity_reorder(self, fig_graph):
        assert reorder_vertices(fig_graph, Permutation.identity(4)) == fig_graph

    def test_swap_isolated_same_dimension(self):
        g = graph((1, 2, 2), [(2, 1, "10")])
        # v3 is isolated; swapping the two dimension-2 vertices moves the edge.
        swapped = reorder_vertices(g, Permutation.transposition(3, 2, 3))
        assert swapped == graph((1, 2, 2), [(3, 1, "10")])
        empty = VWDigraph(DimensionFunction.of(1, 2, 2))
        assert reorder_vertices(empty, Permutation.transposition(3, 2, 3)) == empty

    def test_reorder_round_trip_random(self):
        rng = random.Random(7)
        omega = DimensionFunction.of(2, 1, 2, 1)
        graphs = [g for _, g in zip(range(40), enumerate_acyclic(omega))]
        mus = [
            Permutation.identity(4),
            Permutation.transposition(4, 1, 3),
            Permutation.transposition(4, 2, 4),
            Permutation.transposition(4, 1, 3).compose(
                Permutation.transposition(4, 2, 4)
            ),
        ]
        for _ in range(30):
            g = rng.choice(graphs)
            mu = rng.choice(mus)
            assert reorder_vertices(reorder_vertices(g, mu), mu.inverse()) == g

    def test_reorder_rejects_dimension_change(self, fig_graph):
        with pytest.raises(ValueError):
            reorder_vertices(fig_graph, Permutation.transposition(4, 1, 2))

    def test_permute_out_weights(self):
        g = graph((2, 1), [(1, 2, "10")])
        swap = Permutation.transposition(2, 1, 2)
        assert permute_out_weights(g, 1, swap) == graph((2, 1), [(1, 2, "01")])
        assert permute_out_weights(permute_out_weights(g, 1, swap), 1, swap) == g


class TestOrbits:
    def test_empty_graph_is_fixed(self):
        g = VWDigraph(DimensionFunction.of(1, 2))
        report = orbit(g, include_members=True)
        assert report.size == 1
        assert report.members == (g,)

    def test_single_edge_pair(self):
        g = graph((1, 1), [(1, 2, "1")])
        report = orbit(g, include_members=True)
        assert report.size == 2
        assert set(report.members) == {g, graph((1, 1), [(2, 1, "1")])}

    def test_zero_count_merging(self):
        # Weights (1,1) and (1,0) on the same edge: zero counts 0 and 1 sum
        # to dimension-1, so one orbit.
        a = graph((2, 3), [(1, 2, "11")])
        b = graph((2, 3), [(1, 2, "10")])
        report = orbit(a, include_members=True)
        assert b in report.members

    def test_canonical_is_lexicographic_least(self):
        g = graph((2, 2), [(1, 2, "11"), (1, 2, "11")][:1])
        report = orbit(g, include_members=True)
        assert report.canonical.serial == min(m.serial for m in report.members)

    def test_membership_symmetric(self):
        g = graph((1, 2), [(2, 1, "10")])
        for move in every_move(g.omega):
            image = move(g)
            back = orbit(image, include_members=True)
            assert g in back.members

    @given(acyclic_graphs())
    def test_packed_keys_unpack_and_reverse_to_serial(self, g):
        # orbit holds each member as its key packed into one int.
        dims = g.omega.dims
        packed = digraph._pack(dims, g.key)
        assert digraph._unpack(dims, packed) == g.key
        places, _, top, _ = digraph._layout(dims)
        # Each position's bits, lowest first, at the width of its dimension.
        spelled = "".join(
            format(bits, f"0{d}b")[::-1] for (_, _, d), bits in zip(places, g.key)
        )
        assert digraph._serial(packed, top) == g.serial == spelled

    @pytest.mark.parametrize("seed", range(12))
    def test_least_serial_is_the_least_string(self, seed):
        # Keys wider than 64 bits; most share their low bits, so the choice
        # is made above them, and a few differ only in the top bit.
        rng = random.Random(seed)
        width = rng.randrange(65, 260)
        tied = rng.randrange(1, width - 1)
        low = rng.getrandbits(tied)
        keys = {rng.getrandbits(width - tied) << tied | low for _ in range(200)}
        keys |= {rng.getrandbits(width) for _ in range(20)}
        keys |= {key ^ 1 << width - 1 for key in rng.sample(sorted(keys), 10)}
        serial = partial(digraph._serial, top=1 << width)
        assert digraph._least_serial(keys) == min(keys, key=serial)
        for key in rng.sample(sorted(keys), 10):
            assert digraph._least_serial([key]) == key
            rest = keys - {key}
            assert digraph._least_serial(rest) == min(rest, key=serial)

    def test_budget_error(self, monkeypatch):
        g = graph((2, 3), [(1, 2, "11")])
        monkeypatch.setattr(equivalence, "ORBIT_BUDGET", 1)
        with pytest.raises(BudgetError) as err:
            orbit(g)
        assert (err.value.size, err.value.budget) == (2, 1)
        assert str(err.value) == "orbit refused: at least 2 members exceed budget 1"

    def test_budget_error_on_the_first_member(self, monkeypatch):
        # A one-member orbit is refused too: g itself counts against the budget.
        monkeypatch.setattr(equivalence, "ORBIT_BUDGET", 0)
        with pytest.raises(BudgetError) as err:
            orbit(VWDigraph(DimensionFunction.of(1)))
        assert (err.value.size, err.value.budget) == (1, 0)
        assert str(err.value) == "orbit refused: at least 1 members exceed budget 0"

    def test_budget_error_while_mapping_facet_orbits(self, monkeypatch, fig_graph):
        # The README graph's facet orbit of 72 fits the budget; its orbit of
        # 432 does not, so the refusal comes while mapping facet orbits.
        monkeypatch.setattr(equivalence, "ORBIT_BUDGET", 100)
        with pytest.raises(BudgetError) as err:
            orbit(fig_graph)
        assert (err.value.size, err.value.budget) == (101, 100)
        assert str(err.value) == "orbit refused: at least 101 members exceed budget 100"

    def test_orbit_maps_facet_orbits_whole(self, monkeypatch, fig_graph):
        # The README graph's orbit is 6 facet orbits of 72.  The closure runs
        # on keys with the compiled moves, so each of the 11 facet generators
        # and the 2 swaps is applied as a public move once, to g, to check
        # its compiled form.
        counts = Counter()

        def counted(name):
            move = getattr(equivalence, name)

            def count(*args, **kwargs):
                counts[name] += 1
                return move(*args, **kwargs)

            monkeypatch.setattr(equivalence, name, count)

        for name in ("permute_out_weights", "sigma_k_local_complement", "reorder_vertices"):
            counted(name)
        assert orbit(fig_graph).size == 432
        facet = counts["permute_out_weights"] + counts["sigma_k_local_complement"]
        assert (facet, counts["reorder_vertices"]) == (11, 2)

    # On (1, 2, 1), (2, 1, 1) and (2, 1, 2) the swapped vertices are not
    # adjacent, or sit beside rows of another width.
    @pytest.mark.parametrize(
        "dims",
        [(1, 2), (2, 2), (2, 3), (1, 1, 2), (1, 2, 2), (1, 1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2)],
    )
    def test_compiled_orbit_equals_the_public_move_closure(self, dims):
        for g in enumerate_acyclic(DimensionFunction(dims)):
            want = reference_orbit(g)
            got = orbit(g, include_members=True)
            assert got == want  # canonical, size and the members in order
            assert orbit(g) == OrbitReport(want.canonical, want.size)

    # Columns of 9 bits and more, wider than one byte.
    @pytest.mark.parametrize("dims", [(9, 2), (12, 1), (2, 10, 1)])
    def test_compiled_steps_on_wide_columns(self, dims):
        rules = equivalence._weight_rules(dims)
        steps, _ = equivalence._packed_moves(dims)
        for v, sigma, k, _, _ in rules:
            d = dims[v - 1]
            if k:
                assert sigma == Permutation.identity(d)
            else:
                assert sigma in [Permutation.transposition(d, t, t + 1) for t in range(1, d)]
        rng = random.Random(20201)
        for _ in range(50):
            g = random_acyclic(dims, rng)
            key = digraph._pack(dims, g.key)
            for (v, sigma, k, _, _), step in zip(rules, steps):
                want = equivalence._public_move(g, v, sigma, k)
                assert step(key) == digraph._pack(dims, want.key)

    def test_compiled_moves_hold_no_table_of_out_weights(self):
        # (16, 1) has 65,536 out-weights at vertex 1; its compiled moves,
        # bit rules on packed keys, take well under 1 MB to build.
        equivalence._weight_rules.cache_clear()
        equivalence._packed_moves.cache_clear()
        tracemalloc.start()
        try:
            equivalence._packed_moves((16, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_facet_moves_look_up_their_public_move_at_call_time(self, monkeypatch, fig_graph):
        # A facet move bound before a wrapper is bound into the module calls
        # the wrapper, with v, sigma and, for a (sigma, k) move, k by keyword.
        lc = facet_move(4, Permutation((4, 3, 1, 2)))
        swap = facet_move(4, Permutation((2, 1, 3, 4)))
        want = [lc(fig_graph), swap(fig_graph)]
        calls = []
        for name in ("permute_out_weights", "sigma_k_local_complement"):
            move = getattr(equivalence, name)

            def record(g, name=name, move=move, **kwargs):
                calls.append((name, kwargs))
                return move(g, **kwargs)

            monkeypatch.setattr(equivalence, name, record)
        assert [lc(fig_graph), swap(fig_graph)] == want
        assert calls == [
            ("sigma_k_local_complement", {"v": 4, "sigma": SIGMA, "k": 2}),
            ("permute_out_weights", {"v": 4, "sigma": Permutation((2, 1, 3))}),
        ]

    def test_free_check_refuses_a_wrong_public_move(self, monkeypatch, fig_graph):
        monkeypatch.setattr(equivalence, "sigma_k_local_complement", lambda g, **_: g)
        with pytest.raises(ArithmeticError, match="compiled facet move"):
            orbit(fig_graph)

    def test_public_moves_are_looked_up_at_call_time(self, monkeypatch):
        # Once the shape's moves are compiled, wrappers bound into the
        # module still see each facet move applied once, to g.
        g = graph((1, 2), [(2, 1, "10")])
        orbit(g)
        counts = Counter()
        for name in ("permute_out_weights", "sigma_k_local_complement"):
            move = getattr(equivalence, name)

            def count(*args, name=name, move=move, **kwargs):
                counts[name] += 1
                return move(*args, **kwargs)

            monkeypatch.setattr(equivalence, name, count)
        orbit(g)
        assert sum(counts.values()) == sum(g.omega.dims)

    @pytest.mark.parametrize("dims", [(2, 2), (1, 1, 2), (1, 2, 2)])
    def test_move_images_equal_validated_graphs(self, dims):
        # Moves build their images with the trusted key constructor; each
        # must be indistinguishable from the same graph built from its edges.
        omega = DimensionFunction(dims)
        for g in enumerate_acyclic(omega):
            for move in every_move(omega):
                img = move(g)
                rebuilt = VWDigraph(omega, img.edges)
                assert img == rebuilt
                assert hash(img) == hash(rebuilt)
                assert img.serial == rebuilt.serial
                assert img.edges == rebuilt.edges

    def test_generators_preserve_acyclicity_spot(self):
        omega = DimensionFunction.of(2, 2)
        for g in enumerate_acyclic(omega):
            for move in every_move(omega):
                assert is_acyclic(move(g))

    @pytest.mark.parametrize(
        "dims", [(1,), (3,), (2, 2), (1, 1, 2, 2), (2, 1, 2, 1), (2, 3, 3, 3), (5, 5, 5)]
    )
    def test_generator_counts(self, dims):
        # d adjacent facet transpositions per vertex of dimension d.
        assert len(facet_generators(DimensionFunction(dims))) == sum(dims)

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3), (1, 1, 2), (1, 2, 2), (2, 1, 2, 1), (1, 1, 1, 1), (2, 2, 2)]
    )
    def test_generators_give_the_whole_group_orbits(self, dims):
        # Closed under every facet move and every element of S_omega, the
        # classes partition the space; the orbit of each class's first
        # member is its whole class, so the orbit of every graph is its
        # class.  On (1, 1, 1, 1) and (2, 2, 2) relabellings carry facet
        # orbits onto other facet orbits.
        omega = DimensionFunction(dims)
        group = [
            partial(reorder_vertices, mu=Permutation(mu))
            for mu in dimension_preserving(dims)
        ]
        moves = every_move(omega) + group
        seen = set()
        for g in enumerate_acyclic(omega):
            if g.key in seen:
                continue
            members, frontier = {g.key: g}, [g]
            while frontier:
                images = (move(h) for h in frontier for move in moves)
                frontier = [h for h in images if members.setdefault(h.key, h) is h]
            seen.update(members)
            assert set(orbit(g, include_members=True).members) == set(members.values())
        assert len(seen) == count_acyclic(omega)


class TestClassCounts:
    def test_two_vertex_counts(self):
        assert count_equivalence_classes(DimensionFunction.of(1, 1)) == 2
        assert count_equivalence_classes(DimensionFunction.of(1, 2)) == 3

    def test_invariance_under_dimension_permutation(self):
        assert count_equivalence_classes(
            DimensionFunction.of(1, 2)
        ) == count_equivalence_classes(DimensionFunction.of(2, 1))
        assert count_equivalence_classes(
            DimensionFunction.of(1, 1, 2)
        ) == count_equivalence_classes(DimensionFunction.of(2, 1, 1))

    def test_three_unit_vertices(self):
        # 25 graphs fall into 5 classes: empty, single edges, out-stars,
        # in-stars, paths with their chorded triangles.
        assert count_equivalence_classes(DimensionFunction.of(1, 1, 1)) == 5

    def test_four_unit_vertices_regression(self):
        # No closed form at four vertices; the census pins the orbit count
        # of the 543 graphs to catch generator regressions.
        assert count_equivalence_classes(DimensionFunction.of(1, 1, 1, 1)) == int(
            census_classes("1,1,1,1")
        )

    @pytest.mark.parametrize("dims", SWEEP_SHAPES)
    def test_orbits_partition_the_space(self, dims):
        omega = DimensionFunction(dims)
        reports = list(orbits(omega))
        assert len(reports) == count_equivalence_classes(omega)
        sizes = [report.size for report in reports]
        members = {key for report in reports for key in report.packed}
        enumerated = sum(1 for _ in enumerate_acyclic(omega))
        assert sum(sizes) == len(members) == count_acyclic(omega) == enumerated
        # Orbit-stabiliser: each orbit size divides the order of the group
        # the generators span, the facet permutations of every vertex times
        # the swaps of equal-dimension vertices.
        group_order = prod(factorial(d + 1) for d in dims) * prod(
            factorial(k) for k in Counter(dims).values()
        )
        assert all(group_order % size == 0 for size in sizes)
        serials = [report.canonical.serial for report in reports]
        assert all(a < b for a, b in zip(serials, serials[1:]))

    def test_orbit_rejects_cyclic_input(self):
        g = VWDigraph(
            DimensionFunction.of(1, 1),
            {(1, 2): GF2Vector.all_ones(1), (2, 1): GF2Vector.all_ones(1)},
        )
        with pytest.raises(ValueError, match="acyclic"):
            orbit(g)


def closure(edges, m):
    """The transitive closure of edges (a, b) on vertices 1..m, as a set."""
    reach = [0] * (m + 1)
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(1, m + 1):  # Warshall: add the paths through vertex k
        for i in range(1, m + 1):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    vertices = range(1, m + 1)
    return frozenset((i, j) for i in vertices for j in vertices if reach[i] >> j & 1)


def dimension_preserving(dims):
    """S_omega by a full scan of the vertex permutations, in lexicographic
    order, 1-indexed images."""
    m = len(dims)
    return [
        p
        for p in permutations(range(1, m + 1))
        if all(dims[p[i] - 1] == dims[i] for i in range(m))
    ]


def poset_classes(dims):
    """The number of distinct closures of all DAGs on the vertices of dims,
    up to dimension-preserving relabelling."""
    m = len(dims)
    group = dimension_preserving(dims)
    labelled = {closure(edges, m) for edges in dag_census(m)}
    return len(
        {
            min(tuple(sorted((p[a - 1], p[b - 1]) for a, b in order)) for p in group)
            for order in labelled
        }
    )


# Every shape with m <= 3 and dimensions <= 3; at m = 4 the sorted shapes
# with dimensions <= 2 and one unsorted one (class counts do not depend on
# the order of the dimensions); five unit vertices.
SLICE_SHAPES = [
    *(dims for m in range(1, 4) for dims in product(range(1, 4), repeat=m)),
    *combinations_with_replacement(range(1, 3), 4),
    (2, 1, 2, 1),
    (1, 1, 1, 1, 1),
]


def _closure(
    g: VWDigraph,
    facet: list[Callable[[VWDigraph], VWDigraph]],
    relabel: list[Callable[[VWDigraph], VWDigraph]],
) -> dict[tuple[int, ...], VWDigraph]:
    """The orbit of g under the facet moves and the relabellings, keyed by
    the members' keys.  The facet orbit of g is closed breadth first.  A
    relabelling maps each facet orbit onto a facet orbit, so each further
    one is the image of a found one's first member, and is mapped whole."""
    budget = equivalence.ORBIT_BUDGET
    refuse = partial(BudgetError, "orbit", "at least {} members", budget + 1, budget)
    seen: dict[tuple[int, ...], VWDigraph] = {g.key: g}
    blocks = [[g]]
    for cur in blocks[0]:  # a queue: it grows while it is read
        for gen in facet:
            img = gen(cur)
            if img.key not in seen:
                seen[img.key] = img
                blocks[0].append(img)
                if len(seen) > budget:
                    raise refuse()
    for block in blocks:
        for mu in relabel:
            if mu(block[0]).key not in seen:
                if len(seen) + len(block) > budget:
                    raise refuse()
                blocks.append(list(map(mu, block)))
                seen.update((h.key, h) for h in blocks[-1])
    return seen


def orbits(omega: DimensionFunction) -> Iterator[OrbitReport]:
    """Every orbit of the acyclic graphs of shape omega once: the
    whole-space sweep.  The reports carry no member graphs; an enumerated
    graph is skipped when its packed key is in an orbit already reported.
    Enumeration runs in serial order, so each orbit is met first at its
    canonical member and the canonical members arrive in strictly
    increasing serial order."""
    pack = partial(digraph._pack, omega.dims)
    seen: set[int] = set()
    for g in enumerate_acyclic(omega):
        if pack(g.key) not in seen:
            report = orbit(g)
            seen |= report.packed
            yield report


def public_facet_moves(omega: DimensionFunction) -> list[Callable[[VWDigraph], VWDigraph]]:
    """The facet generators of omega, each bound as its public move."""
    return [facet_move(v, sigma_full) for v, sigma_full in facet_generators(omega)]


def reference_orbit(g: VWDigraph) -> OrbitReport:
    """orbit as it was before its closure ran on compiled keys: the public
    facet moves and swaps of consecutive vertices of one dimension."""
    m, dims = g.omega.m, g.omega.dims
    swaps = [
        partial(reorder_vertices, mu=Permutation.transposition(m, p, q))
        for p, q in combinations(range(1, m + 1), 2)
        if dims[p - 1] == dims[q - 1] and dims[p - 1] not in dims[p : q - 1]
    ]
    seen = _closure(g, public_facet_moves(g.omega), swaps)
    members = tuple(sorted(seen.values(), key=attrgetter("serial")))
    return OrbitReport(canonical=members[0], size=len(seen), members=members)


# The slicer as it was before its moves were compiled into index maps:
# each slice's keys listed as tuples, each class found by the orbit
# closure with the public moves.  Kept as an independent reference.
def slice_keys(poset):
    """The keys of the slice of P, a product space: no acyclicity test."""
    m = poset.omega.m
    positions = [(a - 1) * m + b - 1 for a, b in poset.relations]
    for chosen in product(*poset._weights()):
        key = [0] * (m * m)
        for p, w in zip(positions, chosen):
            key[p] = w
        yield tuple(key)


def reference_sliced_orbits(omega: DimensionFunction) -> Iterator[SliceReport]:
    """Every class of the acyclic graphs of shape omega once, one poset at
    a time.

    The facet generators keep the closure of the support fixed, so a class
    meets the slice of its poset P in one orbit of the facet generators and
    the reorderings in Aut_omega(P), and its whole orbit is that times
    [S_omega : Aut_omega(P)].  Two checks come free and raise
    ArithmeticError on a failure: each orbit size divides the order of the
    group, prod (d_i+1)! times prod (multiplicity)!, and the sizes sum to
    count_acyclic(omega), after the last report.

    Refuses at the first next(): each slice graph stands for at most
    |S_omega| graphs, so on count_acyclic(omega) / |S_omega| slice graphs,
    first with the graphs forward in one vertex order for count_acyclic
    (which takes 3^m - 2^m steps); then as reachability_posets does; then
    on the exact number of slice graphs, all against digraph.ITEM_BUDGET.
    """
    dims, budget = omega.dims, digraph.ITEM_BUDGET
    relabellings = prod(map(factorial, Counter(dims).values()))
    least = -(-(1 << sum(a * d for a, d in enumerate(sorted(dims)))) // relabellings)
    if least <= budget:
        acyclic = count_acyclic(omega)
        least = -(-acyclic // relabellings)
    if least > budget:
        raise BudgetError("slicing", "at least {} slice graphs", least, budget)
    posets = reachability_posets(omega)
    visits = sum(p.slice_size for p in posets)
    if visits > budget:
        raise BudgetError("slicing", "{} slice graphs", visits, budget)
    group = prod(factorial(d + 1) for d in dims) * relabellings
    facet = public_facet_moves(omega)
    total = 0
    for poset in posets:
        autos = [partial(reorder_vertices, mu=mu) for mu in poset.automorphisms[1:]]
        seen: set[tuple[int, ...]] = set()
        for key in slice_keys(poset):
            if key in seen:
                continue
            first = VWDigraph._from_key(omega, key)
            members = _closure(first, facet, autos)
            seen.update(members)
            size = len(members) * poset.index
            if group % size:
                raise ArithmeticError(
                    f"orbit of {size} graphs does not divide the group order {group}"
                )
            total += size
            yield SliceReport(poset, first, size)
    if total != acyclic:
        raise ArithmeticError(
            f"sliced orbits cover {total} graphs, count_acyclic gives {acyclic}"
        )


class TestSlicing:
    @pytest.mark.parametrize(
        "dims",
        [
            *SLICE_SHAPES,
            (3, 3, 3),
            (5, 5, 5),
            (2, 2, 2, 2),
            (1, 2, 1, 3),
            (1, 1, 1, 1, 2),
        ],
    )
    def test_reports_equal_the_reference_slicer(self, dims):
        omega = DimensionFunction(dims)
        assert list(sliced_orbits(omega)) == list(reference_sliced_orbits(omega))

    @pytest.mark.parametrize("dims", [(1, 2, 3), (2, 2, 2), (1, 1, 2, 2), (2, 1, 2, 1)])
    def test_compiled_maps_equal_the_public_moves(self, dims):
        omega = DimensionFunction(dims)
        rules = equivalence._weight_rules(dims)
        for poset in reachability_posets(omega):
            numbering = equivalence._Slice(poset)
            graphs = [VWDigraph._from_key(omega, numbering.key(x)) for x in range(numbering.size)]
            assert [g.key for g in graphs] == list(slice_keys(poset))
            index = {g.key: x for x, g in enumerate(graphs)}
            for (v, sigma_full), (u, sigma, _, mask, correction) in zip(facet_generators(omega), rules):
                assert u == v
                move = facet_move(v, sigma_full)
                got = numbering.facet_map(v, sigma, mask, correction)
                assert got == [index[move(g).key] for g in graphs]
            for mu in poset.automorphisms[1:]:
                want = [index[reorder_vertices(g, mu).key] for g in graphs]
                assert numbering.relabel_map(numbering.relabelling(mu)) == want

    def test_census_lists_each_shape_once_in_order(self):
        families = [(1, 9), (2, 9), (3, 5), (4, 3), (5, 2)]
        shapes = [
            *(
                dims
                for m, top in families
                for dims in combinations_with_replacement(range(1, top + 1), m)
            ),
            (1,) * 6,
            (1,) * 7,
        ]
        assert [dims for dims, _, _ in CENSUS] == shapes
        assert len(shapes) == 112

    # Tier-1 recomputes a line's classes when the slicer's own lower bound
    # on the slice graphs it visits, ceil(count_acyclic / |S_omega|), is at
    # most 150,000; CI recomputes every line through `wdag count weak --brute`.
    @pytest.mark.parametrize(
        "dims, acyclic, classes", CENSUS, ids=[",".join(map(str, d)) for d, _, _ in CENSUS]
    )
    def test_census_line(self, dims, acyclic, classes):
        omega = DimensionFunction(dims)
        assert count_acyclic(omega) == acyclic
        if omega.m == 2:
            assert count_classes_two_vertices(*dims) == classes
        if omega.m == 3:
            assert count_classes_three_vertices_corrected(*dims).total == classes
        relabellings = prod(map(factorial, Counter(dims).values()))
        if -(-acyclic // relabellings) <= 150_000:
            assert sum(1 for _ in sliced_orbits(omega)) == classes

    @pytest.mark.parametrize("dims", SLICE_SHAPES)
    def test_sliced_count_equals_the_whole_space_sweep(self, dims):
        omega = DimensionFunction(dims)
        assert sum(1 for _ in sliced_orbits(omega)) == count_equivalence_classes(omega)

    @pytest.mark.parametrize("m, want", [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63)])
    def test_posets_on_unit_dimensions(self, m, want):
        dims = (1,) * m
        assert len(reachability_posets(DimensionFunction(dims))) == poset_classes(dims) == want

    @pytest.mark.parametrize(
        "dims, want",
        [
            ((2, 1, 1), 11),
            ((1, 2, 2), 11),
            ((1, 1, 2, 2), 66),
            ((2, 1, 2, 1), 66),
            ((3, 1, 1, 2, 1), 821),
            ((1, 1, 1, 1, 2), 243),
            ((1, 2, 3, 4), 219),
            ((4, 3, 2, 1), 219),
        ],
    )
    def test_posets_on_mixed_dimensions(self, dims, want):
        assert len(reachability_posets(DimensionFunction(dims))) == poset_classes(dims) == want

    @pytest.mark.parametrize(
        "dims", [(1,) * 5, (3, 1, 1, 2, 1), (1, 1, 2, 2), (1, 2, 3, 4), (1, 1, 1, 1, 2)]
    )
    def test_automorphisms_are_a_full_scan(self, dims):
        group = dimension_preserving(dims)
        for poset in reachability_posets(DimensionFunction(dims)):
            related = set(poset.relations)
            fixing = [p for p in group if {(p[a - 1], p[b - 1]) for a, b in related} == related]
            assert [mu.images for mu in poset.automorphisms] == fixing
            assert poset.index * len(fixing) == len(group)

    @pytest.mark.parametrize("dims", [(1,) * 5, (2, 1, 2, 1), (3, 1, 1, 2, 1)])
    def test_posets_are_least_images_in_increasing_order(self, dims):
        m = len(dims)
        group = dimension_preserving(dims)

        def code(relations, p):
            return sum(1 << ((p[a - 1] - 1) * m + p[b - 1] - 1) for a, b in relations)

        posets = reachability_posets(DimensionFunction(dims))
        codes = [code(poset.relations, group[0]) for poset in posets]
        assert codes == sorted(set(codes))
        for poset, least in zip(posets, codes):
            assert least == min(code(poset.relations, p) for p in group)

    def test_six_unit_points_give_the_unlabelled_posets(self):
        assert len(reachability_posets(DimensionFunction((1,) * 6))) == 318

    def test_posets_carry_automorphisms_and_index(self):
        # (2,1,1): the out-star from the dimension-2 vertex to the two unit
        # vertices is fixed by their swap, the edge 1 -> 2 is not.
        posets = {p.relations: p for p in reachability_posets(DimensionFunction.of(2, 1, 1))}
        star, edge = posets[((1, 2), (1, 3))], posets[((1, 2),)]
        assert [mu.images for mu in star.automorphisms] == [(1, 2, 3), (1, 3, 2)]
        assert (star.index, edge.index) == (1, 2)
        assert star.covers == {(1, 2), (1, 3)} and star.slice_size == 9

    @given(acyclic_graphs())
    def test_facet_generators_keep_the_closure(self, g):
        def support_closure(h):
            return closure([(a, b) for a, b, _ in h.edges], h.omega.m)

        for gen in public_facet_moves(g.omega):
            assert support_closure(gen(g)) == support_closure(g)

    def test_orbit_sizes_are_whole_orbits(self):
        omega = DimensionFunction.of(1, 1, 2)
        sliced = sorted(report.size for report in sliced_orbits(omega))
        assert sliced == sorted(report.size for report in orbits(omega))

    def test_wrong_acyclic_count_raises(self, monkeypatch):
        monkeypatch.setattr(equivalence, "count_acyclic", lambda omega: 26)
        with pytest.raises(ArithmeticError, match="cover 25 graphs, count_acyclic gives 26"):
            list(sliced_orbits(DimensionFunction.of(1, 1, 1)))

    def test_budget_is_the_exact_slice_total(self, monkeypatch):
        # (3,3,3) visits 498 slice graphs of its 2,689 acyclic graphs.
        omega = DimensionFunction.of(3, 3, 3)
        assert sum(p.slice_size for p in reachability_posets(omega)) == 498
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 498)
        assert sum(1 for _ in sliced_orbits(omega)) == 24
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 497)
        with pytest.raises(BudgetError) as err:
            next(sliced_orbits(omega))
        assert (err.value.size, err.value.budget) == (498, 497)
        assert str(err.value) == "slicing refused: 498 slice graphs exceed budget 497"

    def test_slicing_refuses_below_the_acyclic_count(self, monkeypatch):
        # (1,)*9: at least ceil(1,213,442,454,842,881 / 9!) slice graphs, since
        # each stands for at most |S_omega| = 9! of the acyclic graphs.  The
        # graphs forward in one order give only ceil(2^36 / 9!) = 189,373.
        monkeypatch.setattr(equivalence, "reachability_posets", None)
        with pytest.raises(BudgetError) as err:
            next(sliced_orbits(DimensionFunction((1,) * 9)))
        assert (err.value.size, err.value.budget) == (3_343_922_109, 10**8)
        assert str(err.value) == (
            "slicing refused: at least 3343922109 slice graphs exceed budget 100000000"
        )

    def test_slicing_refuses_before_counting_acyclic_graphs(self, monkeypatch):
        # (2,1): the graphs forward in the order 1, 2 number 2^2 = 4.
        monkeypatch.setattr(equivalence, "count_acyclic", None)
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 3)
        with pytest.raises(BudgetError) as err:
            next(sliced_orbits(DimensionFunction.of(2, 1)))
        assert str(err.value) == "slicing refused: at least 4 slice graphs exceed budget 3"

    def test_poset_generation_refuses_on_relabellings(self, monkeypatch):
        # (1,1,1,1): |S_omega| = 4! = 24, refused before any poset is grown.
        monkeypatch.setattr(equivalence, "_places", None)
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 23)
        with pytest.raises(BudgetError) as err:
            reachability_posets(DimensionFunction.of(1, 1, 1, 1))
        assert (err.value.size, err.value.budget) == (24, 23)
        assert str(err.value) == "poset generation refused: 24 relabellings exceed budget 23"

    def test_poset_generation_refuses_while_growing(self, monkeypatch):
        # (1,1,1,1): levels 1..4 have 1, 3, 11 and 47 candidates, prefix
        # groups of 1, 2, 6 and 24, and k = 1, 2, 3, 4 vertices of the new
        # vertex's dimension.  Levels 1..3 are bounded by 1 + 1*1 = 2,
        # 3 + 2*2 = 7 and 11 + 4*6 = 35 and scan 2, 7 and 41 items (1, 2 and
        # 5 classes), 50 in all; level 4 by 47 + 12*24 = 335, refused before
        # its prefix group is listed.
        listed, original = [], equivalence._relabellings

        def relabellings(dims):
            listed.append(len(dims))
            return original(dims)

        monkeypatch.setattr(equivalence, "_relabellings", relabellings)
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 300)
        with pytest.raises(BudgetError) as err:
            reachability_posets(DimensionFunction.of(1, 1, 1, 1))
        assert listed == [1, 2, 3]
        assert (err.value.size, err.value.budget) == (335, 300)
        assert str(err.value) == (
            "poset generation refused: at least 335 candidates and images on 4 points"
            " exceed budget 300"
        )

    def test_poset_generation_refuses_while_scanning(self, monkeypatch):
        # (1,1): level 1 scans one candidate and its one image (2).  Level 2
        # is bounded by 3 + 2*2 = 7 and scans the antichain and the chain
        # 2 -> 1 with their two images each (5, 8), then the chain 1 -> 2,
        # already met as an image (9).
        omega = DimensionFunction.of(1, 1)
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 9)
        assert len(reachability_posets(omega)) == 2
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 8)
        with pytest.raises(BudgetError) as err:
            reachability_posets(omega)
        assert (err.value.size, err.value.budget) == (9, 8)
        assert str(err.value) == (
            "poset generation refused: at least 9 candidates and images exceed budget 8"
        )
