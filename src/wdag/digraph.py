"""Vector-weighted digraphs on labeled vertices and their reduced matrices.

A weight-dimension map assigns each vertex i a positive dimension d_i;
an edge leaving vertex i carries a nonzero GF(2) vector of dimension
d_i, and the zero vector means "no edge".  Acyclic graphs correspond
one-to-one with vector matrices whose every coordinate specialization
has all principal minors equal to 1 (graph <-> adjacency + all-ones
diagonal).  This module provides that correspondence, exhaustive
enumeration, and the two vanishing-sum checks satisfied by every
reduced scalar matrix.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, combinations, compress, permutations, product
from math import comb
from operator import add, and_, lshift
from typing import Iterable, Iterator, Sequence

from .gf2 import GF2Matrix, GF2Vector, all_principal_minors_one, bit_string

# The most items an exhaustive path here may visit, read at call time:
# graphs to enumerate or list, or (V, S) pairs for count_acyclic.
ITEM_BUDGET = 10**8


class BudgetError(RuntimeError):
    """An exhaustive computation would visit ``size`` items, more than its
    ``budget``; an orbit search reports the members it found so far."""

    def __init__(self, computation: str, items: str, size: int, budget: int):
        self.size = size
        self.budget = budget
        super().__init__(
            f"{computation} refused: {items.format(size)} exceed budget {budget}"
        )


@dataclass(frozen=True)
class DimensionFunction:
    """Weight dimensions per vertex: dims[i-1] is the dimension at vertex i."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) < 1:
            raise ValueError("need at least one vertex")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dimensions must be positive: {self.dims}")

    @property
    def m(self) -> int:
        """Number of vertices; called m throughout because n is reserved
        for the total dimension."""
        return len(self.dims)

    def dim(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"vertex {i} outside 1..{self.m}")
        return self.dims[i - 1]

    @classmethod
    def of(cls, *dims: int) -> "DimensionFunction":
        return cls(tuple(dims))


@dataclass(frozen=True)
class VectorMatrix:
    """Square matrix of GF(2) vectors; row i entries have dimension dim(i)."""

    omega: DimensionFunction
    rows: tuple[tuple[GF2Vector, ...], ...]

    def __post_init__(self) -> None:
        m = self.omega.m
        if len(self.rows) != m or any(len(r) != m for r in self.rows):
            raise ValueError(f"expected {m}x{m} entries")
        for i, row in enumerate(self.rows, start=1):
            want = self.omega.dim(i)
            for v in row:
                if v.dim != want:
                    raise ValueError(f"row {i} entry has dimension {v.dim}, want {want}")

    def entry(self, i: int, j: int) -> GF2Vector:
        m = self.omega.m
        if not (1 <= i <= m and 1 <= j <= m):
            raise ValueError(f"entry ({i},{j}) outside 1..{m}")
        return self.rows[i - 1][j - 1]

    @classmethod
    def from_entries(
        cls, omega: DimensionFunction, entries: Mapping[tuple[int, int], GF2Vector]
    ) -> "VectorMatrix":
        rows = tuple(
            tuple(
                entries.get((i, j), GF2Vector.zero(omega.dim(i)))
                for j in range(1, omega.m + 1)
            )
            for i in range(1, omega.m + 1)
        )
        return cls(omega, rows)


@lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...]) -> tuple[tuple, tuple[int, ...], int, tuple[int, ...]]:
    """For each key position of one shape, its place (i, j, dim(i)) and its
    bit offset in ``serial`` read as one int; the bit just above that int;
    and each position's mask of dim(i) bits.  A position's bit string is its
    bits lowest first, at a fixed width, so the reversed binary of the int
    is ``serial``."""
    m = len(dims)
    places = tuple((p // m + 1, p % m + 1, dims[p // m]) for p in range(m * m))
    starts = tuple(accumulate((d for _, _, d in places), initial=0))
    masks = tuple((1 << d) - 1 for _, _, d in places)
    return places, starts[:-1], 1 << starts[-1], masks


def _pack(dims: tuple[int, ...], key: tuple[int, ...]) -> int:
    """The key of shape dims as one int, each position's bits at its
    offset; ``serial`` is this int's binary below the top bit, reversed."""
    return sum(map(lshift, key, _layout(dims)[1]))


def _serial(packed: int, top: int) -> str:
    """The ``serial`` of a packed key, top being its shape's ``_layout(dims)[2]``."""
    # The top bit keeps the leading zeros; [:2:-1] drops "0b1" and reverses.
    return bin(packed | top)[:2:-1]


def _least_serial(packed: Iterable[int]) -> int:
    """The packed key of least ``serial`` among distinct packed keys of one
    shape, found without building a string: ``serial`` lists bit 0 first,
    so of two keys the lesser has 0 at the lowest bit where they differ."""
    keys = iter(packed)
    least = next(keys)
    for key in keys:
        differ = key ^ least
        if not key & differ & -differ:
            least = key
    return least


def _unpack(dims: tuple[int, ...], packed: int) -> tuple[int, ...]:
    """The key that ``_pack`` packs into packed."""
    _, starts, _, masks = _layout(dims)
    return tuple(map(and_, map(packed.__rshift__, starts), masks))


# One checked GF2Vector per (dimension, bits), shared while recently used;
# sharing is safe because vectors are frozen.
_vector = lru_cache(maxsize=1 << 12)(GF2Vector)
# The same for the bit string of each (dimension, bits) that graph_to_json writes.
_bit_string = lru_cache(maxsize=1 << 12)(bit_string)


class VWDigraph:
    """Immutable weighted digraph; edge (i,j) carries a nonzero vector of dim(i).

    The graph is stored as ``key``, a flat row-major tuple of m*m ints:
    entry (i-1)*m + (j-1) is the bits of the weight of edge (i,j), and 0
    means no edge.  Everything else is derived from the key, except that a
    graph from ``enumerate_acyclic`` also keeps the edge tuple its search
    built from checked rows, which ``edges`` returns as it is.
    """

    __slots__ = ("omega", "key", "_edges")

    def __init__(
        self,
        omega: DimensionFunction,
        weights: Mapping[tuple[int, int], GF2Vector]
        | Iterable[tuple[int, int, GF2Vector]] = (),
    ):
        dims = omega.dims
        m = len(dims)
        key = [0] * (m * m)
        # Enumeration passes a tuple, which skips the slower ABC check.
        if type(weights) is not tuple and isinstance(weights, Mapping):
            weights = [(i, j, w) for (i, j), w in weights.items()]
        for i, j, w in weights:
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError(f"edge ({i},{j}) outside 1..{m}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if w.dim != dims[i - 1]:
                raise ValueError(
                    f"edge ({i},{j}) weight has dimension {w.dim}, want {dims[i - 1]}"
                )
            bits = w.bits
            if not bits:
                raise ValueError(f"edge ({i},{j}) carries the zero vector")
            p = (i - 1) * m + j - 1
            if key[p]:
                raise ValueError(f"duplicate edge ({i},{j})")
            key[p] = bits
        self.omega = omega
        self.key = tuple(key)
        self._edges = None

    @classmethod
    def _from_key(
        cls, omega: DimensionFunction, key: tuple[int, ...], edges: tuple | None = None
    ) -> "VWDigraph":
        """Trusted constructor for keys made inside the library: no checks.
        edges, when given, must be the canonical edge tuple of key; the
        graph keeps it as its ``edges``."""
        g = cls.__new__(cls)
        g.omega = omega
        g.key = key
        g._edges = edges
        return g

    @property
    def edges(self) -> tuple[tuple[int, int, GF2Vector], ...]:
        """Edges (i, j, weight), sorted by (i, j): the tuple the graph keeps
        when it has one (see ``enumerate_acyclic``), else derived from the key."""
        if self._edges is not None:
            return self._edges
        key = self.key
        places = _layout(self.omega.dims)[0]
        return tuple(
            (i, j, _vector(d, bits))
            for (i, j, d), bits in zip(compress(places, key), filter(None, key))
        )

    def weight(self, i: int, j: int) -> GF2Vector | None:
        m = self.omega.m
        bits = self.key[(i - 1) * m + j - 1] if 1 <= i <= m and 1 <= j <= m else 0
        return GF2Vector(self.omega.dims[i - 1], bits) if bits else None

    @property
    def serial(self) -> str:
        """Serialized adjacency matrix; the canonical sort key for graphs."""
        return _serial(_pack(self.omega.dims, self.key), _layout(self.omega.dims)[2])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VWDigraph)
            and self.omega.dims == other.omega.dims
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.omega.dims, self.key))

    def __repr__(self) -> str:
        edges = ", ".join(f"{i}->{j}:{w.to_string()}" for i, j, w in self.edges)
        return f"VWDigraph(dims={self.omega.dims}, [{edges}])"


def is_acyclic(g: VWDigraph) -> bool:
    """Peel sinks off the out-set bitmasks of the key; a cycle leaves a
    nonempty remainder in which no vertex is a sink."""
    m = g.omega.m
    key = g.key
    outs = [sum(1 << j for j in range(m) if key[i * m + j]) for i in range(m)]
    left = (1 << m) - 1
    while left:
        sinks = sum(1 << i for i in range(m) if left >> i & 1 and not outs[i] & left)
        if not sinks:
            return False
        left ^= sinks
    return True


def reduced_matrix(g: VWDigraph) -> VectorMatrix:
    """Adjacency matrix plus the all-ones diagonal; requires an acyclic graph."""
    if not is_acyclic(g):
        raise ValueError("reduced matrix is only defined for acyclic graphs")
    m = g.omega.m
    entries = [
        _vector(d, (1 << d) - 1 if i == j else bits)
        for (i, j, d), bits in zip(_layout(g.omega.dims)[0], g.key)
    ]
    return VectorMatrix(g.omega, tuple(tuple(entries[p : p + m]) for p in range(0, m * m, m)))


def specialize(a: VectorMatrix, ks: Sequence[int]) -> GF2Matrix:
    """Pick coordinate ks[i] in every entry of row i, giving a scalar matrix."""
    m = a.omega.m
    if len(ks) != m:
        raise ValueError(f"expected {m} coordinate indices, got {len(ks)}")
    rows = []
    for i, (row, k) in enumerate(zip(a.rows, ks), start=1):
        if not 1 <= k <= a.omega.dim(i):
            raise ValueError(f"coordinate {k} outside 1..{a.omega.dim(i)} in row {i}")
        shift = k - 1
        bits = 0
        for j, w in enumerate(row):
            bits |= (w.bits >> shift & 1) << j
        rows.append(bits)
    return GF2Matrix(m, tuple(rows))


def has_unit_principal_minors(a: VectorMatrix) -> bool:
    """True iff every coordinate specialization has all principal minors 1."""
    m = a.omega.m
    # Every diagonal coordinate is a 1x1 minor of some specialization.
    for i in range(1, m + 1):
        if a.entry(i, i).bits != (1 << a.omega.dim(i)) - 1:
            return False
    # choices[i][k - 1] is row i + 1 of the specialization picking
    # coordinate k there, as specialize builds it; the specializations are
    # their product, in the order of the coordinate tuples.
    choices = []
    for row, d in zip(a.rows, a.omega.dims):
        picks = [0] * d
        for j, w in enumerate(row):
            bits = w.bits
            while bits:
                low = bits & -bits
                picks[low.bit_length() - 1] |= 1 << j
                bits ^= low
        choices.append(picks)
    for rows in product(*choices):
        if not all_principal_minors_one(GF2Matrix._from_packed(m, rows)):
            return False
    return True


def graph_from_reduced(a: VectorMatrix) -> VWDigraph:
    """Inverse of reduced_matrix: nonzero off-diagonal entries become edges."""
    if not has_unit_principal_minors(a):
        raise ValueError("matrix has a principal minor unequal to 1")
    return VWDigraph(
        a.omega,
        tuple(
            (i, j, w)
            for i, row in enumerate(a.rows, start=1)
            for j, w in enumerate(row, start=1)
            if i != j and w.bits
        ),
    )


# ---------------------------------------------------------------------------
# Exhaustive listing of the underlying unweighted DAGs
# ---------------------------------------------------------------------------


def dag_census(m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every DAG on vertices 1..m exactly once, as a sorted edge tuple.

    Graphs are built layer by layer: the first layer is the source set,
    and each vertex of a later layer draws its in-edges from all earlier
    layers with at least one from the immediately preceding layer.  That
    decomposition is unique, so nothing is repeated.  A negative m, like
    a refusal, raises at the first ``next()``.
    """
    size = count_dags(m)
    if size > ITEM_BUDGET:
        raise BudgetError("DAG census", "{} DAGs", size, ITEM_BUDGET)

    def extend(
        remaining: tuple[int, ...],
        prev: tuple[int, ...],
        earlier: tuple[int, ...],
        edges: tuple[tuple[int, int], ...],
    ) -> Iterator[tuple[tuple[int, int], ...]]:
        if not remaining:
            yield tuple(sorted(edges))
            return
        pool = earlier + prev
        if prev:
            options = [
                subset
                for size in range(1, len(pool) + 1)
                for subset in combinations(pool, size)
                if any(u in prev for u in subset)
            ]
        else:
            options = [()]
        for size in range(1, len(remaining) + 1):
            for layer in combinations(remaining, size):
                rest = tuple(x for x in remaining if x not in layer)
                for choice in product(options, repeat=size):
                    new_edges = edges + tuple(
                        (u, v) for v, ins in zip(layer, choice) for u in ins
                    )
                    yield from extend(rest, layer, pool, new_edges)

    yield from extend(tuple(range(1, m + 1)), (), (), ())


def count_dags(m: int) -> int:
    """Number of DAGs on m labeled vertices, via the layer recurrence."""
    if m < 0:
        raise ValueError(f"vertex count must be nonnegative, got {m}")
    if m == 0:
        return 1
    return sum(
        comb(m, size) * _layered(m - size, size, 0) for size in range(1, m + 1)
    )


@lru_cache(maxsize=None)
def _layered(remaining: int, prev: int, earlier: int) -> int:
    """DAGs on the remaining vertices below a last layer of prev vertices
    and earlier vertices above it."""
    if remaining == 0:
        return 1
    per_vertex = ((1 << prev) - 1) * (1 << earlier)
    return sum(
        comb(remaining, size)
        * per_vertex**size
        * _layered(remaining - size, size, earlier + prev)
        for size in range(1, remaining + 1)
    )


def scalar_reduced_matrices(m: int) -> Iterator[GF2Matrix]:
    """The 0/1 matrices with all principal minors 1: DAG adjacency + identity."""
    for edges in dag_census(m):
        rows = [1 << i for i in range(m)]
        for i, j in edges:
            rows[i - 1] |= 1 << (j - 1)
        yield GF2Matrix(m, tuple(rows))


# ---------------------------------------------------------------------------
# Weighted enumeration and counting
# ---------------------------------------------------------------------------


def _acyclic_rows(omega: DimensionFunction, piece, entry, start: tuple) -> Iterator:
    """The one search behind ``enumerate_acyclic`` and ``enumerate_lines``,
    in one generator frame.

    ``serial`` joins fixed-width strings, one per key position, in
    row-major order, so serial order is the lexicographic order of rows
    1..m.  The search chooses rows 1..m-1 depth first, keeping each
    depth's prefix and reach masks in arrays, and for each choice, in
    increasing ``serial``, yields (prefix, table).  prefix is ``start``
    with the parts of the chosen rows added on, part by part; table lists
    the entries of row m that the choice allows, in serial order, and the
    caller runs through it in place.  A cycle among rows 1..i passes
    through its highest vertex i, so row i may not point at a vertex that
    already reaches i; that set always holds i itself, the diagonal.

    The entries of vertex i that avoid one blocked set are built once, the
    first time the set comes up, in serial order: a product over the row's
    positions of no edge, then each nonzero weight unless the position is
    blocked.  Each is (out-set bitmask, *parts), the parts being what
    ``entry(i, items)`` makes of the row's tuple of ``piece(i, j, bits)``,
    one per edge; each piece is made once per table.  So work done by
    ``entry``, such as checking a row, is done once per row, not once per
    graph.  Payloads are streamed, never stored, and a refusal is raised at
    the first ``next()``.
    """
    size = count_acyclic(omega)
    if size > ITEM_BUDGET:
        raise BudgetError("enumeration", "{} acyclic graphs", size, ITEM_BUDGET)
    dims = omega.dims
    m = len(dims)
    last = m - 1
    weights = {}  # dimension -> the bits of its nonzero weights, by bit string
    allowed = {}  # (vertex index, blocked mask) -> its entries that avoid the mask
    # At depth i, rows 1..i are chosen: prefixes[i] is their parts summed,
    # and reach[i][v] is the mask of the vertices among them that reach v.
    prefixes = [start] * m
    reach = [[0] * m for _ in dims]
    pending = [None] * m  # the rest of each depth's table

    def table(i: int, blocked: int) -> list[tuple]:
        rows = allowed.get((i, blocked))
        if rows is None:
            rows = allowed[i, blocked] = build(i, blocked)
        return rows

    def build(i: int, blocked: int) -> list[tuple]:
        d = dims[i]
        free = [j for j in range(m) if not blocked >> j & 1]
        if free and d not in weights:
            weights[d] = sorted(range(1, 1 << d), key=partial(bit_string, d))
        choices = [[(0, None)] for _ in dims]
        for j in free:
            choices[j] += [(1 << j, piece(i + 1, j + 1, bits)) for bits in weights[d]]
        rows = []
        for row in product(*choices):
            mask, items = 0, ()
            for bit, item in row:
                if bit:
                    mask |= bit
                    items += (item,)
            rows.append((mask, *entry(i + 1, items)))
        return rows

    try:
        if not last:
            yield start, table(0, 1)
            return
        depth, pending[0] = 0, iter(table(0, 1))
        while depth >= 0:
            prefix, below, above = prefixes[depth], reach[depth], reach[depth + 1]
            # Vertex depth+1 and the vertices that reach it.
            into = below[depth] | 1 << depth
            for row in pending[depth]:
                out = row[0]
                # The new row reaches v directly or through an earlier vertex.
                for v in range(depth + 1, m):
                    r = below[v]
                    above[v] = r | into if out >> v & 1 or out & r else r
                up = prefixes[depth + 1] = tuple(map(add, prefix, row[1:]))
                if depth + 1 == last:
                    yield up, table(last, above[last] | 1 << last)
                else:
                    depth += 1
                    pending[depth] = iter(table(depth, above[depth] | 1 << depth))
                    break
            else:
                depth -= 1
    finally:
        allowed.clear()


def enumerate_acyclic(omega: DimensionFunction) -> Iterator[VWDigraph]:
    """Every acyclic weighted digraph exactly once, in increasing ``serial``
    (see ``_acyclic_rows``).

    Each row-table entry is checked once, when its table is built: its
    edges, row-major ``(int, int, GF2Vector)`` triples with one GF2Vector
    per table, position and weight, go through the checked constructor
    ``VWDigraph(omega, edges)``, and the entry keeps them with that one-row
    graph's row of the key.  No check spans two rows: each of the
    constructor's checks reads one edge or one row, and rows share no key
    position.  Acyclicity is the search's.  A graph is then the key prefix
    and the edge prefix of its first m-1 rows plus the last row's entry,
    built by ``VWDigraph._from_key``, and it keeps that edge tuple, already
    the canonical one, as its ``edges``."""
    dims = omega.dims
    m = len(dims)

    def edge(i: int, j: int, bits: int) -> tuple[int, int, GF2Vector]:
        return i, j, GF2Vector(dims[i - 1], bits)

    def checked(i: int, edges: tuple) -> tuple[tuple[int, ...], tuple]:
        return VWDigraph(omega, edges).key[(i - 1) * m : i * m], edges

    new = VWDigraph._from_key
    for (keys, edges), rows in _acyclic_rows(omega, edge, checked, ((), ())):
        for _, segment, fragment in rows:
            yield new(omega, keys + segment, edges + fragment)


def enumerate_lines(omega: DimensionFunction) -> Iterator[str]:
    """``dumps_graph`` of each graph of ``enumerate_acyclic(omega)``, in the
    same order, without building the graphs.  Each row-table edge is
    rendered once, as its edge object and the ", " after it, so a line is
    its rows' fragments side by side between the head and "]}"."""
    dims = omega.dims
    head = dumps_graph(VWDigraph(omega))[:-2]
    # Each edge's object, up to the opening quote of its weight.
    openings = {
        (i, j): f'{{"from": {i}, "to": {j}, "weight": "' for i, j, _ in _layout(dims)[0]
    }

    def edge(i: int, j: int, bits: int) -> str:
        return f'{openings[i, j]}{bit_string(dims[i - 1], bits)}"}}, '

    def joined(i: int, texts: tuple[str, ...]) -> tuple[str]:
        return ("".join(texts),)

    for (body,), rows in _acyclic_rows(omega, edge, joined, ("",)):
        for _, text in rows:
            yield head + (body + text)[:-2] + "]}"


def count_acyclic(omega: DimensionFunction) -> int:
    """Number of acyclic weighted digraphs, by inclusion-exclusion over the
    set S of sources:

        A(V) = sum over nonempty S in V of
               (-1)^{|S|+1} 2^{|V-S| sum_{s in S} d_s} A(V-S),

    since each source may send any vector, zero included, to each vertex
    outside S.  That visits 3^m - 2^m pairs (V, S).
    """
    m = omega.m
    pairs = 3**m - 2**m
    if pairs > ITEM_BUDGET:
        raise BudgetError(
            "count_acyclic", "{} (vertex set, source set) pairs", pairs, ITEM_BUDGET
        )
    full = (1 << m) - 1
    size = [0] * (full + 1)
    dim_sum = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        size[mask] = size[mask ^ low] + 1
        dim_sum[mask] = dim_sum[mask ^ low] + omega.dims[low.bit_length() - 1]
    count = [1] + [0] * full
    for vs in range(1, full + 1):
        total, sources = 0, vs
        while sources:
            rest = vs ^ sources
            term = count[rest] << (size[rest] * dim_sum[sources])
            total += term if size[sources] & 1 else -term
            sources = (sources - 1) & vs
        count[vs] = total
    return count[full]


# ---------------------------------------------------------------------------
# Vanishing sums satisfied by reduced scalar matrices
# ---------------------------------------------------------------------------


def derangement_sum(v: GF2Matrix) -> int:
    """Sum over fixed-point-free permutations of prod_i v[i, sigma(i)], mod 2."""
    rows = v.rows
    acc = 0
    for sigma in permutations(range(v.n)):
        # A fixed point or a zero factor ends the walk; only a full walk counts.
        for i, j in enumerate(sigma):
            if i == j or not rows[i] >> j & 1:
                break
        else:
            acc ^= 1
    return acc


def cycle_sum(v: GF2Matrix, blocked: Iterable[int], i: int) -> int:
    """Sum over orderings of the unblocked vertices of the cyclic product
    v[i,a1] v[a1,a2] ... v[a_last,i], mod 2."""
    n = v.n
    # One pass over blocked, which may be an iterator: bit b - 1 of mask
    # for each blocked b in 1..n.
    mask = 0
    blocks_i = outside = False
    for b in blocked:
        blocks_i |= b == i
        if 1 <= b <= n:
            mask |= 1 << b - 1
        else:
            outside = True
    if blocks_i:
        raise ValueError(f"index {i} is blocked")
    if not 1 <= i <= n:
        raise ValueError(f"index {i} outside 1..{n}")
    if outside:
        raise ValueError("blocked set outside 1..n")
    if mask.bit_count() > n - 2:
        raise ValueError("blocked set leaves fewer than one intermediate vertex")
    # Vertex a is row a - 1; bit b - 1 of it is v[a, b].
    rows = v.rows
    start = i - 1
    taken = mask | 1 << start
    rest = [b for b in range(n) if not taken >> b & 1]
    acc = 0
    for order in permutations(rest):
        a = start
        for b in order:
            if not rows[a] >> b & 1:
                break
            a = b
        else:
            acc ^= rows[a] >> start & 1
    return acc


# ---------------------------------------------------------------------------
# JSON form: {"omega": [...], "edges": [{"from": i, "to": j, "weight": "10"}]}
# ---------------------------------------------------------------------------


def graph_to_json(g: VWDigraph) -> dict:
    key = g.key
    places = _layout(g.omega.dims)[0]
    return {
        "omega": list(g.omega.dims),
        "edges": [
            {"from": i, "to": j, "weight": _bit_string(d, bits)}
            for (i, j, d), bits in zip(compress(places, key), filter(None, key))
        ],
    }


def _json_ints(values) -> tuple[int, ...]:
    """values as a tuple of JSON integers; true and 1.5 are not integers."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise TypeError(f"expected integers, got {list(values)}")
    return values


def graph_from_json(doc: dict) -> VWDigraph:
    try:
        omega = DimensionFunction(_json_ints(doc["omega"]))
        weights = [
            (*_json_ints((e["from"], e["to"])), GF2Vector.from_string(e["weight"]))
            for e in doc.get("edges", [])
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return VWDigraph(omega, weights)


def dumps_graph(g: VWDigraph) -> str:
    """``graph_to_json(g)`` as one JSON line."""
    return json.dumps(graph_to_json(g), separators=(", ", ": "))
