import gc
import json
import random
from itertools import combinations, islice, permutations, product

import pytest

from wdag import digraph
from wdag.digraph import (
    BudgetError,
    DimensionFunction,
    VWDigraph,
    VectorMatrix,
    count_acyclic,
    count_dags,
    cycle_sum,
    dag_census,
    derangement_sum,
    dumps_graph,
    enumerate_acyclic,
    graph_from_json,
    graph_from_reduced,
    graph_to_json,
    has_unit_principal_minors,
    is_acyclic,
    reduced_matrix,
    scalar_reduced_matrices,
    specialize,
)
from wdag.equivalence import (
    facet_generators,
    facet_move,
    local_complement,
    permute_out_weights,
    reorder_vertices,
    sigma_k_local_complement,
    sigma_local_complement,
)
from wdag.gf2 import GF2Matrix, GF2Vector, all_principal_minors_one, bit_string, gf2_det
from wdag.permutation import Permutation


_VECTOR_TABLE = {
    d: tuple(GF2Vector(d, bits) for bits in range(1 << d)) for d in (1, 2, 3)
}


def key_edges(g: VWDigraph) -> tuple[tuple[int, int, GF2Vector], ...]:
    """The edges of g by their definition from its key, sorted by (i, j)."""
    dims, m = g.omega.dims, g.omega.m
    return tuple(
        (i, j, GF2Vector(dims[i - 1], g.key[(i - 1) * m + j - 1]))
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        if g.key[(i - 1) * m + j - 1]
    )


def edge_types(edges) -> bool:
    """Whether edges is a tuple of (int, int, GF2Vector) tuples, exactly."""
    return type(edges) is tuple and all(
        type(e) is tuple and tuple(map(type, e)) == (int, int, GF2Vector) for e in edges
    )


def all_vector_matrices(omega: DimensionFunction):
    """Every vector matrix for omega, including non-members."""
    per_entry = [
        _VECTOR_TABLE[omega.dim(i)] for i in range(1, omega.m + 1) for _ in range(omega.m)
    ]
    m = omega.m
    for combo in product(*per_entry):
        rows = tuple(combo[i * m : (i + 1) * m] for i in range(m))
        yield VectorMatrix(omega, rows)


class TestCensus:
    def test_known_counts(self):
        expected = {0: 1, 1: 1, 2: 3, 3: 25, 4: 543, 5: 29281}
        for m, want in expected.items():
            assert count_dags(m) == want
            if m <= 4:
                listing = list(dag_census(m))
                assert len(listing) == want
                assert len(set(listing)) == want

    def test_negative_vertex_counts_are_refused(self):
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            count_dags(-1)
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            next(dag_census(-1))
        assert count_dags(0) == 1
        assert list(dag_census(0)) == [()]

    def test_census_count_match_m5(self):
        assert sum(1 for _ in dag_census(5)) == 29281

    def test_refusal_names_the_dag_count(self):
        with pytest.raises(BudgetError) as err:
            next(dag_census(7))
        assert (err.value.size, err.value.budget) == (1_138_779_265, 10**8)
        assert str(err.value) == (
            "DAG census refused: 1138779265 DAGs exceed budget 100000000"
        )

    def test_refusal_past_sixteen_vertices_names_the_dag_count(self):
        with pytest.raises(BudgetError) as err:
            next(dag_census(17))
        assert err.value.size == count_dags(17)
        assert str(err.value) == (
            f"DAG census refused: {count_dags(17)} DAGs exceed budget 100000000"
        )

    def test_all_members_acyclic_and_minors_one(self):
        # Reduced scalar matrices of all 25 three-vertex DAGs.
        mats = list(scalar_reduced_matrices(3))
        assert len(mats) == 25
        for mat in mats:
            assert gf2_det(mat) == 1
            assert all_principal_minors_one(mat)


class TestGraphBasics:
    def test_acyclicity(self, fig_graph):
        empty = VWDigraph(DimensionFunction.of(1, 1, 1))
        assert is_acyclic(empty)
        assert is_acyclic(fig_graph)
        two_cycle = VWDigraph(
            DimensionFunction.of(1, 1),
            {(1, 2): GF2Vector.all_ones(1), (2, 1): GF2Vector.all_ones(1)},
        )
        assert not is_acyclic(two_cycle)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_acyclicity_agrees_with_dag_census(self, m):
        omega = DimensionFunction((1,) * m)
        one = GF2Vector.all_ones(1)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
        dags = set(dag_census(m))
        for chosen in product((False, True), repeat=len(pairs)):
            support = tuple(pair for pair, keep in zip(pairs, chosen) if keep)
            g = VWDigraph(omega, {pair: one for pair in support})
            assert is_acyclic(g) == (support in dags)

    # A list is unhashable, a float breaks the bit arithmetic, and a bool
    # would be counted as 1.
    @pytest.mark.parametrize(
        "dims, message",
        [
            ([1, 2], "dimensions must be a tuple of ints: [1, 2]"),
            ((2.0, 1), "dimensions must be a tuple of ints: (2.0, 1)"),
            ((True, 2), "dimensions must be a tuple of ints: (True, 2)"),
            ((), "need at least one vertex"),
        ],
    )
    def test_dimensions_it_cannot_serve_are_refused(self, dims, message):
        with pytest.raises(ValueError) as exc:
            DimensionFunction(dims)
        assert str(exc.value) == message

    def test_invariants_enforced(self):
        omega = DimensionFunction.of(2, 1)
        with pytest.raises(ValueError, match="self-loop"):
            VWDigraph(omega, {(1, 1): GF2Vector.all_ones(2)})
        with pytest.raises(ValueError, match="zero vector"):
            VWDigraph(omega, {(1, 2): GF2Vector.zero(2)})
        with pytest.raises(ValueError, match="dimension"):
            VWDigraph(omega, {(1, 2): GF2Vector.all_ones(1)})

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 2, "10")], "edge (0,2) outside 1..2"),
            ([(3, 1, "10")], "edge (3,1) outside 1..2"),
            ([(1, 0, "10")], "edge (1,0) outside 1..2"),
            ([(1, 3, "10")], "edge (1,3) outside 1..2"),
            ([(3, 3, "1")], "edge (3,3) outside 1..2"),
            ([(2, 2, "1")], "self-loop at vertex 2"),
            ([(1, 1, "1")], "self-loop at vertex 1"),
            ([(1, 2, "1")], "edge (1,2) weight has dimension 1, want 2"),
            ([(2, 1, "00")], "edge (2,1) weight has dimension 2, want 1"),
            ([(1, 2, "00")], "edge (1,2) carries the zero vector"),
            ([(1, 2, "10"), (2, 1, "0")], "edge (2,1) carries the zero vector"),
        ],
    )
    @pytest.mark.parametrize("form", [dict, tuple, list, iter])
    def test_every_refusal_and_its_message(self, edges, message, form):
        # The checks run in this order: bounds, self-loop, dimension, zero
        # vector, duplicate; the cases that fail two checks pin the order.
        omega = DimensionFunction.of(2, 1)
        items = [(i, j, GF2Vector.from_string(w)) for i, j, w in edges]
        weights = {(i, j): w for i, j, w in items} if form is dict else form(items)
        with pytest.raises(ValueError) as err:
            VWDigraph(omega, weights)
        assert str(err.value) == message

    @pytest.mark.parametrize("form", [tuple, list, iter])
    def test_duplicate_edge_refused(self, form):
        # A Mapping cannot repeat a key; only an iterable of triples can.
        omega = DimensionFunction.of(2, 1)
        ten, one = GF2Vector.from_string("10"), GF2Vector.from_string("1")
        for items in ([(1, 2, ten), (1, 2, ten)], [(2, 1, one), (1, 2, ten), (2, 1, one)]):
            with pytest.raises(ValueError) as err:
                VWDigraph(omega, form(items))
            assert str(err.value) == f"duplicate edge ({items[0][0]},{items[0][1]})"
        with pytest.raises(ValueError) as err:  # zero vector comes before duplicate
            VWDigraph(omega, form([(1, 2, ten), (1, 2, GF2Vector.zero(2))]))
        assert str(err.value) == "edge (1,2) carries the zero vector"

    @pytest.mark.parametrize("form", [dict, tuple, list, iter])
    def test_accepted_forms_give_one_key(self, form):
        omega = DimensionFunction.of(2, 1, 3)
        items = [
            (3, 1, GF2Vector.from_string("011")),
            (1, 2, GF2Vector.from_string("10")),
            (2, 3, GF2Vector.from_string("1")),
        ]
        weights = {(i, j): w for i, j, w in items} if form is dict else form(items)
        assert VWDigraph(omega, weights).key == (0, 1, 0, 0, 0, 1, 6, 0, 0)

    def test_key_and_derived_views(self):
        omega = DimensionFunction.of(2, 40)
        ten = GF2Vector.from_string("10")
        wide = GF2Vector(40, (1 << 39) | 1)
        g = VWDigraph(omega, [(2, 1, wide), (1, 2, ten)])
        assert g.key == (0, ten.bits, wide.bits, 0)
        assert g.edges == ((1, 2, ten), (2, 1, wide))
        assert g.serial == "00" + "10" + wide.to_string() + "0" * 40
        assert g.weight(1, 2) == ten
        assert g.weight(2, 2) is None and g.weight(3, 1) is None
        assert g.weight(0, 1) is None
        with pytest.raises(ValueError, match="duplicate"):
            VWDigraph(omega, [(1, 2, ten), (1, 2, ten)])

    @pytest.mark.parametrize(
        "dims",
        [(1, 2, 3), (3, 1, 2), (2, 2, 2), (1, 1, 1, 1)],
        ids=lambda dims: ",".join(map(str, dims)),
    )
    def test_edges_are_the_key_weights(self, dims):
        # Every derived view against its definition from the key.
        omega = DimensionFunction(dims)
        m = len(dims)
        for g in enumerate_acyclic(omega):
            assert g.edges == key_edges(g)
            assert g.serial == "".join(
                bit_string(dims[p // m], b) for p, b in enumerate(g.key)
            )
            assert graph_to_json(g)["edges"] == [
                {"from": i, "to": j, "weight": w.to_string()} for i, j, w in g.edges
            ]
            r = reduced_matrix(g)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    bits = (1 << dims[i - 1]) - 1 if i == j else g.key[(i - 1) * m + j - 1]
                    assert r.entry(i, j) == GF2Vector(dims[i - 1], bits)

    @pytest.mark.parametrize(
        "dims",
        [(1, 2, 3), (2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 1, 1)],
        ids=lambda dims: ",".join(map(str, dims)),
    )
    def test_enumerated_graphs_keep_the_canonical_edges(self, dims):
        omega = DimensionFunction(dims)
        for g in enumerate_acyclic(omega):
            edges = g.edges
            assert edges is g.edges  # kept, not rebuilt per read
            assert edges == VWDigraph._from_key(omega, g.key).edges
            assert edge_types(edges)

    def test_other_graphs_derive_their_edges_from_the_key(self):
        omega = DimensionFunction.of(2, 1, 3)
        ten, one, six = GF2Vector(2, 2), GF2Vector(1, 1), GF2Vector(3, 6)
        unsorted = ((3, 1, six), (1, 2, ten), (2, 3, one))
        built = [
            VWDigraph(omega, {(i, j): w for i, j, w in unsorted}),
            VWDigraph(omega, list(unsorted)),
            VWDigraph(omega, unsorted),
            VWDigraph(omega, tuple(list(e) for e in unsorted)),
            VWDigraph(omega, ((3, True, six), (True, 2, ten), (2, 3, one))),
            VWDigraph._from_key(omega, (0, 2, 0, 0, 0, 1, 6, 0, 0)),
        ]
        for g in built:
            assert g.edges == ((1, 2, ten), (2, 3, one), (3, 1, six))
            assert g.edges == key_edges(g)
            assert edge_types(g.edges)
        # Moves, JSON and the reduced matrix start from enumerated graphs,
        # which keep their edges; what they build must not.
        sigma = Permutation.transposition(3, 1, 2)
        mu = Permutation((3, 2, 1))
        for g in islice(enumerate_acyclic(DimensionFunction.of(3, 1, 3)), 3, None, 97):
            moved = [
                local_complement(g, 1),
                permute_out_weights(g, 1, sigma),
                sigma_local_complement(g, 3, sigma),
                sigma_k_local_complement(g, 1, sigma, 2),
                reorder_vertices(g, mu),
                *(facet_move(v, s)(g) for v, s in facet_generators(g.omega)),
                graph_from_json(graph_to_json(g)),
                graph_from_reduced(reduced_matrix(g)),
            ]
            for h in moved:
                assert h.edges == key_edges(h)
                assert edge_types(h.edges)

    def test_reduced_matrix_diagonal(self, fig_graph):
        r = reduced_matrix(fig_graph)
        for v in range(1, 5):
            assert r.entry(v, v) == GF2Vector.all_ones(fig_graph.omega.dim(v))
        assert r.entry(4, 3).to_string() == "101"

    def test_reduced_empty_two_vertices(self):
        omega = DimensionFunction.of(1, 1)
        r = reduced_matrix(VWDigraph(omega))
        assert r.entry(1, 1).to_string() == "1"
        assert r.entry(2, 2).to_string() == "1"
        assert r.entry(1, 2).is_zero and r.entry(2, 1).is_zero

    def test_reduced_rejects_cyclic(self):
        g = VWDigraph(
            DimensionFunction.of(1, 1),
            {(1, 2): GF2Vector.all_ones(1), (2, 1): GF2Vector.all_ones(1)},
        )
        with pytest.raises(ValueError):
            reduced_matrix(g)


# The membership test as it was before it built each row's specializations
# once per matrix: one specialize call per coordinate tuple.  Kept as an
# independent reference; it calls the principal-minor test through
# digraph's binding, as has_unit_principal_minors does.
def reference_has_unit_principal_minors(a: VectorMatrix) -> bool:
    m = a.omega.m
    for i in range(1, m + 1):
        if a.entry(i, i).bits != (1 << a.omega.dim(i)) - 1:
            return False
    for ks in product(*(range(1, a.omega.dim(i) + 1) for i in range(1, m + 1))):
        if not digraph.all_principal_minors_one(specialize(a, ks)):
            return False
    return True


def _row_choices(a: VectorMatrix) -> list[set[int]]:
    """Each row's set of specialized rows, one per coordinate of the row."""
    return [
        {sum((w.bits >> k & 1) << j for j, w in enumerate(row)) for k in range(d)}
        for row, d in zip(a.rows, a.omega.dims)
    ]


def _diagonal_ones(a: VectorMatrix) -> bool:
    omega = a.omega
    return all(
        a.entry(i, i) == GF2Vector.all_ones(omega.dim(i)) for i in range(1, omega.m + 1)
    )


def _support_acyclic(a: VectorMatrix) -> bool:
    """Whether the support of the off-diagonal entries is acyclic.  With a
    diagonal of ones this decides membership independently of any minor: a
    shortest cycle has no chords, so its principal minor in a specialization
    that keeps its entries is det(I + P) = 0 for the cycle's permutation
    matrix P."""
    m = a.omega.m
    one = GF2Vector.all_ones(1)
    support = {
        (i, j): one
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        if i != j and not a.entry(i, j).is_zero
    }
    return is_acyclic(VWDigraph(DimensionFunction((1,) * m), support))


def _seeded_mixed_matrices(dims, count, seed):
    """Matrices with random nonzero entries on about half of the forward
    pairs of a random order; every second one also has one to three
    backward entries, which may close a cycle, and every fifth one a
    diagonal coordinate 0."""
    rng = random.Random(seed)
    omega = DimensionFunction(dims)
    m = omega.m

    def weight(i: int) -> GF2Vector:
        return GF2Vector(omega.dim(i), rng.randrange(1, 1 << omega.dim(i)))

    for index in range(count):
        rank = rng.sample(range(m), m)
        pairs = list(permutations(range(1, m + 1), 2))
        entries = {
            (i, j): weight(i) for i, j in pairs if rank[i - 1] < rank[j - 1] and rng.random() < 0.5
        }
        if index % 2:
            backward = [(i, j) for i, j in pairs if rank[i - 1] > rank[j - 1]]
            for i, j in rng.sample(backward, rng.randint(1, 3)):
                entries[(i, j)] = weight(i)
        for i in range(1, m + 1):
            entries[(i, i)] = GF2Vector.all_ones(omega.dim(i))
        if index % 5 == 0:
            i = rng.randint(1, m)
            d = omega.dim(i)
            entries[(i, i)] = GF2Vector(d, ((1 << d) - 1) ^ (1 << rng.randrange(d)))
        yield VectorMatrix.from_entries(omega, entries)


def _seeded_unit_diagonal_matrices(dims, count, seed):
    """Unit-diagonal matrices with random off-diagonal entries, half of them
    supported on a random acyclic order, so both answers occur."""
    rng = random.Random(seed)
    omega = DimensionFunction(dims)
    m = omega.m
    for index in range(count):
        rank = rng.sample(range(m), m)
        entries = {(i, i): GF2Vector.all_ones(omega.dim(i)) for i in range(1, m + 1)}
        for i, j in permutations(range(1, m + 1), 2):
            if index % 2 == 0 or rank[i - 1] < rank[j - 1]:
                entries[(i, j)] = GF2Vector(omega.dim(i), rng.randrange(1 << omega.dim(i)))
        yield VectorMatrix.from_entries(omega, entries)


class TestMembership:
    @staticmethod
    def _calls_and_answers(monkeypatch, matrices):
        """Per matrix: the answer and the matrices handed to the principal-
        minor test, by has_unit_principal_minors and by the reference."""
        seen = []

        def recording(m):
            seen.append(m)
            return all_principal_minors_one(m)

        monkeypatch.setattr(digraph, "all_principal_minors_one", recording)
        for a in matrices:
            runs = []
            for check in (has_unit_principal_minors, reference_has_unit_principal_minors):
                seen.clear()
                runs.append((check(a), list(seen)))
            yield a, runs

    @staticmethod
    def _check_against_the_reference(monkeypatch, matrices) -> list[bool]:
        """The answers equal the reference's.  The scalar test is called
        only on a matrix whose rows each have one choice, and then once,
        on the one scalar matrix the reference builds."""
        answers = []
        for a, ((answer, calls), (want, want_calls)) in TestMembership._calls_and_answers(
            monkeypatch, matrices
        ):
            assert answer == want
            if all(len(choices) == 1 for choices in _row_choices(a)):
                assert calls == want_calls[:1]
                assert all(call == want_calls[0] for call in want_calls)
            else:
                assert calls == []
            answers.append(answer)
        return answers

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (1, 1, 2)])
    def test_matches_the_reference_on_every_matrix(self, dims, monkeypatch):
        answers = self._check_against_the_reference(
            monkeypatch, all_vector_matrices(DimensionFunction(dims))
        )
        assert set(answers) == {True, False}

    def test_matches_the_reference_on_seeded_matrices(self, monkeypatch):
        answers = self._check_against_the_reference(
            monkeypatch, _seeded_unit_diagonal_matrices((2, 2, 2, 2), 500, seed=25)
        )
        assert 0 < sum(answers) < len(answers)

    @pytest.mark.parametrize(
        "dims, count", [((3, 3, 3), 300), ((1, 2, 3, 4), 200), ((4, 4, 4, 4), 200)]
    )
    def test_matches_the_reference_where_rows_have_many_choices(
        self, dims, count, monkeypatch
    ):
        matrices = list(_seeded_unit_diagonal_matrices(dims, count, seed=39))
        answers = self._check_against_the_reference(monkeypatch, matrices)
        assert 0 < sum(answers) < len(answers)
        # Rows with three or four distinct choices occur, among members too.
        widest = max(
            len(choices)
            for a, answer in zip(matrices, answers)
            if answer
            for choices in _row_choices(a)
        )
        assert widest == max(dims)

    def test_exactly_three_members_for_1_1(self):
        omega = DimensionFunction.of(1, 1)
        members = [a for a in all_vector_matrices(omega) if has_unit_principal_minors(a)]
        assert len(members) == 3

    def test_zero_diagonal_coordinate_fails(self):
        omega = DimensionFunction.of(2, 1)
        a = VectorMatrix.from_entries(
            omega,
            {(1, 1): GF2Vector.from_string("10"), (2, 2): GF2Vector.all_ones(1)},
        )
        assert not has_unit_principal_minors(a)

    @pytest.mark.parametrize(
        "dims",
        # every shape with at most 3 vertices and dimensions at most 2
        [(d,) for d in (1, 2)]
        + list(product((1, 2), repeat=2))
        + list(product((1, 2), repeat=3)),
    )
    def test_membership_iff_support_acyclic(self, dims):
        for a in all_vector_matrices(DimensionFunction(dims)):
            assert has_unit_principal_minors(a) == (_diagonal_ones(a) and _support_acyclic(a))

    @pytest.mark.parametrize("dims", [(3, 3, 3, 3), (1, 2, 3, 4, 5), (2,) * 6])
    def test_membership_iff_support_acyclic_on_seeded_wide_shapes(self, dims):
        seen = set()
        for a in _seeded_mixed_matrices(dims, 300, seed=39):
            diagonal_ones, acyclic = _diagonal_ones(a), _support_acyclic(a)
            assert has_unit_principal_minors(a) == (diagonal_ones and acyclic)
            seen.add((diagonal_ones, acyclic))
        assert len(seen) == 4

    def test_round_trip_exhaustive(self):
        for dims in [(1, 2), (2, 2)]:
            omega = DimensionFunction(dims)
            for g in enumerate_acyclic(omega):
                assert graph_from_reduced(reduced_matrix(g)) == g

    def test_matrix_round_trip(self):
        omega = DimensionFunction.of(1, 2)
        for g in enumerate_acyclic(omega):
            a = reduced_matrix(g)
            assert reduced_matrix(graph_from_reduced(a)) == a

    def test_from_reduced_rejects_nonmember(self):
        omega = DimensionFunction.of(1, 1)
        bad = VectorMatrix.from_entries(
            omega,
            {
                (1, 1): GF2Vector.all_ones(1),
                (2, 2): GF2Vector.all_ones(1),
                (1, 2): GF2Vector.all_ones(1),
                (2, 1): GF2Vector.all_ones(1),
            },
        )
        with pytest.raises(ValueError):
            graph_from_reduced(bad)


def _nonzero_vectors(dim: int) -> list[GF2Vector]:
    vs = [GF2Vector(dim, bits) for bits in range(1, 1 << dim)]
    vs.sort(key=GF2Vector.to_string)
    return vs


def reference_enumeration(omega: DimensionFunction) -> list[VWDigraph]:
    """The former list-and-sort body of enumerate_acyclic, kept verbatim as
    the reference for the streamed order: weight every census DAG, hold
    every graph, sort by serial."""
    choices = {d: _nonzero_vectors(d) for d in set(omega.dims)}
    graphs = []
    for edges in dag_census(omega.m):
        pools = [choices[omega.dim(i)] for i, _ in edges]
        for assignment in product(*pools):
            graphs.append(
                VWDigraph(omega, [(i, j, w) for (i, j), w in zip(edges, assignment)])
            )
    graphs.sort(key=lambda g: g.serial)
    return graphs


def census_count(omega: DimensionFunction) -> int:
    """The former count_acyclic: sum over census DAGs of
    prod_i (2^{dim(i)} - 1)^{outdeg(i)}."""
    total = 0
    for edges in dag_census(omega.m):
        term = 1
        for i, _ in edges:
            term *= (1 << omega.dim(i)) - 1
        total += term
    return total


def pairwise_count(x1, x2, x3):
    # Independent three-vertex count: orient each vertex pair freely and
    # subtract the two directed triangles.
    return (1 + x1 + x2) * (1 + x1 + x3) * (1 + x2 + x3) - 2 * x1 * x2 * x3


class TestCounting:
    def test_single_vertex(self):
        omega = DimensionFunction.of(1)
        assert count_acyclic(omega) == 1
        assert list(enumerate_acyclic(omega)) == [VWDigraph(omega)]

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (1, 3), (3, 3)])
    def test_two_vertices_formula(self, n1, n2):
        omega = DimensionFunction.of(n1, n2)
        expected = 2**n1 + 2**n2 - 1
        assert count_acyclic(omega) == expected
        assert sum(1 for _ in enumerate_acyclic(omega)) == expected

    def test_unit_weights_give_25(self):
        omega = DimensionFunction.of(1, 1, 1)
        assert count_acyclic(omega) == 25
        assert sum(1 for _ in enumerate_acyclic(omega)) == 25

    @pytest.mark.parametrize("dims", [(1, 2, 3), (2, 2, 2), (1, 1, 2), (3, 3, 3)])
    def test_three_vertices_pairwise_oracle(self, dims):
        omega = DimensionFunction(dims)
        xs = [(1 << d) - 1 for d in dims]
        assert count_acyclic(omega) == pairwise_count(*xs)

    def test_enumeration_sorted_and_distinct(self):
        serials = [g.serial for g in enumerate_acyclic(DimensionFunction.of(2, 2))]
        assert serials == sorted(serials)
        assert len(serials) == len(set(serials))

    def test_budget_refusal(self):
        omega = DimensionFunction.of(6, 6, 6, 6)
        with pytest.raises(BudgetError) as err:
            next(enumerate_acyclic(omega))
        assert (err.value.size, err.value.budget) == (1_610_715_496_447, 10**8)
        assert str(err.value) == (
            "enumeration refused: 1610715496447 acyclic graphs exceed budget 100000000"
        )

    def test_budget_is_the_exact_size(self, monkeypatch):
        omega = DimensionFunction.of(2, 2)
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 7)
        assert len(list(enumerate_acyclic(omega))) == 7
        monkeypatch.setattr(digraph, "ITEM_BUDGET", 6)
        with pytest.raises(BudgetError) as err:
            next(enumerate_acyclic(omega))
        assert (err.value.size, err.value.budget) == (7, 6)

    @pytest.mark.parametrize(
        "dims",
        [dims for m in (1, 2, 3, 4) for dims in product((1, 2, 3), repeat=m)]
        + [(1, 1, 1, 1, 1)],
    )
    def test_source_recurrence_equals_census_sum(self, dims):
        omega = DimensionFunction(dims)
        assert count_acyclic(omega) == census_count(omega)

    def test_unit_dimensions_count_the_dags(self):
        for m in range(1, 11):
            assert count_acyclic(DimensionFunction((1,) * m)) == count_dags(m)
        # 3^16 - 2^16 (vertex set, source set) pairs are within the budget.
        with pytest.raises(BudgetError) as err:
            count_acyclic(DimensionFunction((1,) * 17))
        assert (err.value.size, err.value.budget) == (3**17 - 2**17, 10**8)


class TestStreamedEnumeration:
    @pytest.mark.parametrize(
        "dims",
        [dims for m in (1, 2, 3) for dims in product((1, 2, 3), repeat=m)]
        + list(product((1, 2), repeat=4))
        + [(1, 1, 1, 1, 1)],
    )
    def test_same_sequence_as_list_and_sort(self, dims):
        omega = DimensionFunction(dims)
        streamed = list(enumerate_acyclic(omega))
        assert [g.key for g in streamed] == [g.key for g in reference_enumeration(omega)]
        for g in streamed:
            assert g == VWDigraph(omega, g.edges)

    @staticmethod
    def checked_rows(omega, monkeypatch):
        """Enumerate omega, recording the edges of every checked construction."""
        init, rows = VWDigraph.__init__, []

        def counted(g, omega, edges):
            init(g, omega, edges)
            rows.append(edges)

        monkeypatch.setattr(VWDigraph, "__init__", counted)
        return rows, list(enumerate_acyclic(omega))

    def test_every_graph_is_built_through_the_checked_constructor(self, monkeypatch):
        # A graph is assembled from row entries, so each of its rows must be
        # the edges of one checked construction.
        omega = DimensionFunction.of(1, 2, 2)
        rows, graphs = self.checked_rows(omega, monkeypatch)
        assert len(graphs) == count_acyclic(omega)
        checked = set(rows)
        for g in graphs:
            for i in range(1, omega.m + 1):
                assert tuple(e for e in g.edges if e[0] == i) in checked

    @pytest.mark.parametrize("dims, entries", [((1, 2), 7), ((1, 1, 1, 1, 1), 211)])
    def test_every_row_entry_is_built_through_the_checked_constructor(
        self, dims, entries, monkeypatch
    ):
        # (1,2): row 1 has 2 entries; row 2 has 4 below no edge and 1 below 1->2.
        omega = DimensionFunction(dims)
        rows, graphs = self.checked_rows(omega, monkeypatch)
        assert len(rows) == entries
        assert len(graphs) == count_acyclic(omega)
        # Each checked entry is one row's edges, and each graph's edges are
        # checked entries side by side, one per row.
        assert all(len({i for i, _, _ in edges}) <= 1 for edges in rows)
        checked = set(rows)
        for g in graphs:
            for i in range(1, omega.m + 1):
                assert tuple(e for e in g.edges if e[0] == i) in checked

    @pytest.mark.parametrize(
        "weight, message",
        [
            (lambda d, bits: GF2Vector(d, 0), "edge (1,2) carries the zero vector"),
            (
                lambda d, bits: GF2Vector(d + 1, bits),
                "edge (1,2) weight has dimension 3, want 2",
            ),
        ],
        ids=["zero", "wrong-dimension"],
    )
    def test_a_bad_search_weight_is_refused_at_the_first_next(
        self, weight, message, monkeypatch
    ):
        monkeypatch.setattr(digraph, "GF2Vector", weight)
        graphs = enumerate_acyclic(DimensionFunction.of(2, 1))
        with pytest.raises(ValueError) as err:
            next(graphs)
        assert str(err.value) == message
        assert gc.isenabled()

    def test_the_collector_is_left_as_the_caller_set_it(self):
        omega = DimensionFunction.of(2, 1, 2)
        assert sum(1 for _ in enumerate_acyclic(omega)) == count_acyclic(omega)
        assert gc.isenabled()
        gc.disable()
        try:
            assert sum(1 for _ in enumerate_acyclic(omega)) == count_acyclic(omega)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_first_graph_arrives_without_the_rest(self):
        omega = DimensionFunction.of(3, 3, 3, 3)
        assert count_acyclic(omega) == 5_140_479
        assert next(enumerate_acyclic(omega)) == VWDigraph(omega)

    def test_lone_vertex_builds_no_weights(self):
        # 2^63 - 1 weights would never finish; a lone vertex has no free position.
        omega = DimensionFunction.of(63)
        assert list(enumerate_acyclic(omega)) == [VWDigraph(omega)]

    def test_five_five_five_streams(self):
        omega = DimensionFunction.of(5, 5, 5)
        n = sum(1 for _ in enumerate_acyclic(omega))
        assert n == count_acyclic(omega) == 190_465


def reference_cycle_sum(v: GF2Matrix, blocked, i: int) -> int:
    """cycle_sum as it read when it went through every ordering of the
    free vertices, before it walked along nonzero entries only."""
    n = v.n
    blocked_set = set(blocked)
    if i in blocked_set:
        raise ValueError(f"index {i} is blocked")
    if not 1 <= i <= n:
        raise ValueError(f"index {i} outside 1..{n}")
    if any(not 1 <= b <= n for b in blocked_set):
        raise ValueError("blocked set outside 1..n")
    if len(blocked_set) > n - 2:
        raise ValueError("blocked set leaves fewer than one intermediate vertex")
    rest = sorted(set(range(1, n + 1)) - blocked_set - {i})
    acc = 0
    for order in permutations(rest):
        walk = (i,) + order + (i,)
        prod = 1
        for a, b in zip(walk, walk[1:]):
            prod &= v.entry(a, b)
            if not prod:
                break
        acc ^= prod
    return acc


def reference_derangement_sum(v: GF2Matrix) -> int:
    """derangement_sum as it read when it went through every permutation,
    before it walked along nonzero entries only."""
    n = v.n
    acc = 0
    for sigma in permutations(range(n)):
        if any(sigma[i] == i for i in range(n)):
            continue
        prod_bits = 1
        for i in range(n):
            prod_bits &= v.rows[i] >> sigma[i]
            if not prod_bits & 1:
                break
        acc ^= prod_bits & 1
    return acc


def _cycle_sum_matrices():
    for n in range(1, 4):
        for rows in product(range(1 << n), repeat=n):
            yield GF2Matrix(n, rows)
    yield from scalar_reduced_matrices(4)
    rng = random.Random(20)
    for _ in range(500):
        yield GF2Matrix(5, tuple(rng.randrange(1 << 5) for _ in range(5)))
    # Where the walks branch the most: every entry, or three in four, is 1.
    for n in range(4, 8):
        yield GF2Matrix(n, ((1 << n) - 1,) * n)
    for n in (6, 7):
        for _ in range(3):
            rows = (rng.randrange(1 << n) | rng.randrange(1 << n) for _ in range(n))
            yield GF2Matrix(n, tuple(rows))


class TestVanishingSums:
    def test_identity_matrix(self):
        assert derangement_sum(GF2Matrix.identity(3)) == 0
        assert cycle_sum(GF2Matrix.identity(4), (1,), 2) == 0

    def test_non_member_sums_to_one(self):
        assert derangement_sum(GF2Matrix.from_rows([[1, 1], [1, 1]])) == 1

    def test_all_members_n3(self):
        for mat in scalar_reduced_matrices(3):
            assert derangement_sum(mat) == 0
            # blocked={1}, i=2 reduces to the single product v23*v32
            assert cycle_sum(mat, (1,), 2) == mat.entry(2, 3) & mat.entry(3, 2)
            assert cycle_sum(mat, (1,), 2) == 0

    def test_cycle_sum_preconditions(self):
        m = GF2Matrix.identity(3)
        for sums in (cycle_sum, reference_cycle_sum):
            with pytest.raises(ValueError, match="index 1 is blocked"):
                sums(m, (1,), 1)
            with pytest.raises(ValueError, match="fewer than one intermediate vertex"):
                sums(m, (1, 2), 3)
            with pytest.raises(ValueError, match=r"blocked set outside 1\.\.n"):
                sums(m, (0,), 2)
            with pytest.raises(ValueError, match=r"index 4 outside 1\.\.3"):
                sums(m, (), 4)

    def test_derangement_sum_matches_the_reference(self):
        for mat in _cycle_sum_matrices():
            assert derangement_sum(mat) == reference_derangement_sum(mat), mat

    def test_derangement_sum_is_the_determinant_without_the_diagonal(self):
        # Over GF(2) the permanent is the determinant, and zeroing the
        # diagonal leaves only the fixed-point-free permutations.
        for n in range(1, 5):
            off_diagonal = [((1 << n) - 1) ^ 1 << i for i in range(n)]
            for rows in product(range(1 << n), repeat=n):
                mat = GF2Matrix(n, rows)
                zeroed = GF2Matrix(n, tuple(map(int.__and__, rows, off_diagonal)))
                assert derangement_sum(mat) == gf2_det(zeroed), mat

    def test_cycle_sum_reads_blocked_once(self):
        m = GF2Matrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(ValueError, match="index 1 is blocked"):
            cycle_sum(m, iter((1,)), 1)
        assert cycle_sum(m, iter((1,)), 2) == cycle_sum(m, (1,), 2) == 1
        # A repeated vertex is blocked once, as in a set.
        assert cycle_sum(m, (1, 1), 2) == reference_cycle_sum(m, (1, 1), 2) == 1
        with pytest.raises(ValueError, match="index 1 is blocked"):
            cycle_sum(m, (1, 1), 1)

    def test_cycle_sum_matches_the_reference(self):
        for mat in _cycle_sum_matrices():
            vertices = range(1, mat.n + 1)
            for size in range(mat.n - 1):
                for blocked in combinations(vertices, size):
                    for i in vertices:
                        if i not in blocked:
                            assert cycle_sum(mat, blocked, i) == (
                                reference_cycle_sum(mat, blocked, i)
                            ), (mat, blocked, i)


class TestJson:
    def test_rendered_line_edge_cases(self):
        eleven = DimensionFunction((1,) * 10 + (2,))
        one = GF2Vector.all_ones(1)
        labels = VWDigraph(
            eleven,
            [(1, 11, one), (9, 10, one), (10, 11, one), (11, 2, GF2Vector.from_string("01"))],
        )
        wide = VWDigraph(
            DimensionFunction.of(63, 1),
            [(1, 2, GF2Vector(63, 1 << 62 | 1)), (2, 1, one)],
        )
        head = '{"omega": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2], "edges": ['
        assert dumps_graph(labels) == head + (
            '{"from": 1, "to": 11, "weight": "1"}, '
            '{"from": 9, "to": 10, "weight": "1"}, '
            '{"from": 10, "to": 11, "weight": "1"}, '
            '{"from": 11, "to": 2, "weight": "01"}]}'
        )
        assert dumps_graph(VWDigraph(eleven)) == head + "]}"
        assert dumps_graph(wide) == (
            '{"omega": [63, 1], "edges": ['
            f'{{"from": 1, "to": 2, "weight": "1{"0" * 61}1"}}, '
            '{"from": 2, "to": 1, "weight": "1"}]}'
        )

    def test_round_trip(self, fig_graph):
        doc = graph_to_json(fig_graph)
        assert doc["omega"] == [2, 3, 3, 3]
        assert doc["edges"][0] == {"from": 1, "to": 2, "weight": "10"}
        froms = [(e["from"], e["to"]) for e in doc["edges"]]
        assert froms == sorted(froms)
        assert graph_from_json(doc) == fig_graph
        assert graph_from_json(json.loads(dumps_graph(fig_graph))) == fig_graph

    def test_weights_print_as_bit_strings(self):
        omega = DimensionFunction.of(1, 2, 3)
        for g in enumerate_acyclic(omega):
            doc = graph_to_json(g)
            assert doc["edges"] == [
                {"from": i, "to": j, "weight": w.to_string()} for i, j, w in g.edges
            ]

    def test_wide_weight_round_trip(self):
        doc = {"omega": [63, 1], "edges": [{"from": 1, "to": 2, "weight": "1" * 63}]}
        g = graph_from_json(doc)
        assert g.weight(1, 2) == GF2Vector.all_ones(63)
        assert graph_from_json(json.loads(dumps_graph(g))) == g
        assert local_complement(g, 1) == g

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            graph_from_json({"edges": []})
        with pytest.raises(ValueError):
            graph_from_json({"omega": [1, 1], "edges": [{"from": 1, "to": 2}]})
        # JSON numbers that are not integers are refused, not truncated.
        edge = {"from": 1, "to": 2, "weight": "10"}
        assert graph_from_json({"omega": [2, 1], "edges": [edge]}).weight(1, 2)
        for doc in [
            {"omega": [2, 1.7], "edges": []},
            {"omega": [2, 1], "edges": [{**edge, "from": 1.2}]},
            {"omega": [2, 1], "edges": [{**edge, "to": True}]},
            {"omega": "21", "edges": []},
        ]:
            with pytest.raises(ValueError, match="malformed graph document"):
                graph_from_json(doc)
        # A weight is a bit string; an array of bits is refused, not joined.
        for weight in (["1", "0"], ["10"]):
            with pytest.raises(ValueError, match="invalid bit string"):
                graph_from_json({"omega": [2, 1], "edges": [{**edge, "weight": weight}]})
