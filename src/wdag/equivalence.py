"""Equivalence of weighted digraphs under vertex reordering, out-weight
permutation, and (sigma, k)-local complementation.

Two acyclic graphs are equivalent when a sequence of the three moves
turns one into the other.  A permutation of the facets at a vertex is
read as (sigma, k) once, and the facet generators of a shape are one
list of weight rules, which `orbit` and the slicer both compile.  An
orbit is a union of facet orbits, which relabellings carry whole onto
each other; `orbit` closes one on packed keys, one int per member.  An
independent oracle realizes each single-vertex move as a facet
permutation acting on the columns of the characteristic matrix followed
by GF(2) row reduction.  Classes are counted by sweeping all acyclic
graphs with `orbit`, or found one reachability poset at a time, inside
the graphs whose support closes to it: the slicer numbers each slice as
a product space, compiles the facet moves and the poset's automorphisms
into index maps, and merges them in a flat union-find.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import combinations, compress, count, permutations
from math import factorial, prod
from operator import add, and_, lt
from typing import Callable, Iterator, Sequence

from . import digraph
from .digraph import (
    BudgetError,
    DimensionFunction,
    VWDigraph,
    count_acyclic,
    enumerate_acyclic,
    is_acyclic,
)
from .gf2 import permute_bits
from .permutation import Permutation, reduce_top

# orbit refuses once it has found more members than this; read at call time.
ORBIT_BUDGET = 10**7


def _row_dim(g: VWDigraph, v: int, sigma: Permutation) -> int:
    """The dimension of vertex v; raises unless v is a vertex of g and
    sigma permutes its weight coordinates."""
    dim_v = g.omega.dim(v)
    if len(sigma.images) != dim_v:
        raise ValueError(
            f"permutation degree {sigma.degree} does not match dimension {dim_v}"
        )
    return dim_v


def _complement(key: Sequence[int], m: int, v: int, mask: int) -> list[int]:
    """A copy of the key of a graph on m vertices with the weight of (u,v)
    added onto (u,w) for every in-neighbor u of v and every out-neighbor w
    whose weight shares a bit with mask.  An edge exists iff its entry is
    nonzero, row v is left as it was, and no loop is ever created (u == w
    is only reachable from a cyclic input)."""
    key = list(key)
    row = (v - 1) * m
    marked = [w for w in range(m) if key[row + w] & mask]
    if marked:
        for u in range(m):
            wuv = key[u * m + v - 1]
            if wuv:
                for w in marked:
                    if w != u:
                        key[u * m + w] ^= wuv
    return key


def _permute_row(
    key: list[int], m: int, v: int, images: tuple[int, ...], mask: int, correction: int
) -> None:
    """Permute every weight in row v of a key in place by images, then add
    correction to those whose original weight shares a bit with mask."""
    for p in range((v - 1) * m, v * m):
        old = key[p]
        if old:
            new = permute_bits(images, old)
            key[p] = new ^ correction if old & mask else new


def _marking(dim_v: int, sigma: Permutation, k: int) -> tuple[int, int]:
    """The mask of coordinate k, which marks the out-weights a (sigma, k)
    move complements, and the all-ones-except correction they gain after
    sigma.  Marked out-weights keep a 1 in coordinate sigma^{-1}(k), so
    they never vanish."""
    return 1 << (k - 1), ((1 << dim_v) - 1) ^ (1 << sigma.images.index(k))


def local_complement(g: VWDigraph, v: int) -> VWDigraph:
    """Add the weight of (u,v) onto (u,w) for every in-neighbor u and
    out-neighbor w of v; an edge exists in the result iff its new weight
    is nonzero."""
    g.omega.dim(v)  # raises unless v is a vertex of g
    return VWDigraph._from_key(g.omega, tuple(_complement(g.key, g.omega.m, v, -1)))


def permute_out_weights(g: VWDigraph, v: int, sigma: Permutation) -> VWDigraph:
    """Apply sigma to the weight of every edge leaving v."""
    _row_dim(g, v, sigma)
    key = list(g.key)
    _permute_row(key, len(g.omega.dims), v, sigma.images, 0, 0)
    return VWDigraph._from_key(g.omega, tuple(key))


def sigma_local_complement(g: VWDigraph, v: int, sigma: Permutation) -> VWDigraph:
    """Local complementation at v followed by permuting v's out-weights."""
    return permute_out_weights(local_complement(g, v), v, sigma)


def sigma_k_local_complement(
    g: VWDigraph, v: int, sigma: Permutation, k: int
) -> VWDigraph:
    """Local complementation restricted to out-edges of v whose k-th weight
    coordinate is 1, combined with a sigma-permutation of v's out-weights
    and an all-ones-except correction on the affected ones.

    Out-edges of v: weight w becomes sigma.w when w_k = 0, and
    sigma.w + (all ones except coordinate sigma^{-1}(k)) when w_k = 1.
    Cross pairs (u,w) with u an in-neighbor and w an out-neighbor gain
    the weight of (u,v) exactly when (weight of (v,w))_k = 1.  An edge
    exists in the result iff its final weight is nonzero.
    """
    dim_v = _row_dim(g, v, sigma)
    if not 1 <= k <= dim_v:
        raise ValueError(f"coordinate {k} outside 1..{dim_v}")
    mask, correction = _marking(dim_v, sigma, k)
    m = g.omega.m
    # Cross pairs never touch row v, so it still holds the original weights.
    key = _complement(g.key, m, v, mask)
    _permute_row(key, m, v, sigma.images, mask, correction)
    return VWDigraph._from_key(g.omega, tuple(key))


def reorder_vertices(g: VWDigraph, mu: Permutation) -> VWDigraph:
    """Relabel vertices: the new weight of (p,q) is the old weight of
    (mu(p), mu(q)).  mu must preserve the dimension of every vertex."""
    dims = g.omega.dims
    m = len(dims)
    images = mu.images
    if len(images) != m:
        raise ValueError(f"permutation degree {mu.degree} does not match {m} vertices")
    for i in range(m):
        if dims[images[i] - 1] != dims[i]:
            raise ValueError(f"reordering does not preserve dimensions at vertex {i + 1}")
    key = g.key
    image = tuple([key[(a - 1) * m + b - 1] for a in images for b in images])
    return VWDigraph._from_key(g.omega, image)


# ---------------------------------------------------------------------------
# Independent oracle: facet permutations acting on characteristic matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _scalar_layout(
    dims: tuple[int, ...]
) -> tuple[tuple[int, ...], int, tuple[tuple[int, int], ...], int, int]:
    """Where [I_n | R] keeps what; n is the total dimension.  Row i is
    coordinate i - starts[s] + 1 of vertex s + 1.  Column t of R is an
    n-bit int over the rows, held at bit t*n of one int with all m
    columns, so entry (s+1, t+1), key position s*m + t, is the bits at
    (shift, mask) = entries[s*m + t].  ones has bit 0 of every column, so
    columns >> i & ones is row i; diagonal is R's all-ones diagonal."""
    m, n = len(dims), sum(dims)
    starts = tuple(sum(dims[:s]) for s in range(m))
    entries = tuple(
        (t * n + start, (1 << d) - 1) for start, d in zip(starts, dims) for t in range(m)
    )
    ones = sum(1 << t * n for t in range(m))
    diagonal = sum(mask << shift for shift, mask in entries[:: m + 1])
    return starts, n, entries, ones, diagonal


@lru_cache(maxsize=1)
def _characteristic_columns(dims: tuple[int, ...], key: tuple[int, ...]) -> int | None:
    """The columns of R in [I_n | R] for the graph with this key, packed
    as _scalar_layout places them, or None when it is cyclic.  Callers
    apply every (v, sigma) to one graph in a row, so one entry is enough."""
    if not is_acyclic(VWDigraph._from_key(DimensionFunction(dims), key)):
        return None
    _, _, entries, _, columns = _scalar_layout(dims)
    for (shift, _), bits in zip(entries, key):
        columns |= bits << shift
    return columns


@lru_cache(maxsize=1 << 12)
def _facet_inverse(images: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int]:
    """A^-1 for the facet permutation with these images, and the column of
    A that holds the old top facet, -1 when none does.  A^-1 is kept as
    the pairs (j, r) where row r of x_v = A^-1 y_v sums row j of y_v.  A
    depends only on the permutation, so one entry serves every shape,
    vertex and graph."""
    dim_v = len(images) - 1
    # Row j of A has bit k when the old facet images[k] column is 1 in
    # v's row j: the unit column of row images[k] - 1, or every row for
    # the top facet, whose column is R's column v.
    a = [0] * dim_v
    top = -1
    for k in range(dim_v):
        if images[k] > dim_v:
            top = k
        else:
            a[images[k] - 1] = 1 << k
    if top >= 0:
        a = [row | 1 << top for row in a]

    # Gauss-Jordan A to the identity, pivots from v's rows, with each row
    # operation applied to inverse, whose row r has bit j once row r of
    # the result has taken in row j of y_v.
    inverse = [1 << r for r in range(dim_v)]
    for c in range(dim_v):
        bit = 1 << c
        if not a[c] & bit:
            pivot = next((r for r in range(c + 1, dim_v) if a[r] & bit), None)
            if pivot is None:
                raise ValueError("facet-permuted matrix is singular; input invalid")
            a[c], a[pivot] = a[pivot], a[c]
            inverse[c], inverse[pivot] = inverse[pivot], inverse[c]
        for r in range(dim_v):
            if r != c and a[r] & bit:
                a[r] ^= a[c]
                inverse[r] ^= inverse[c]
    pairs = tuple(
        (j, r) for r, row in enumerate(inverse) for j in range(dim_v) if row >> j & 1
    )
    return pairs, top


def facet_permutation_action(
    g: VWDigraph, v: int, sigma_full: Permutation
) -> VWDigraph:
    """Apply a permutation of the dim(v)+1 facets of the simplex factor at v.

    The columns of [I_n | R], R the reduced matrix of g written out in
    scalar coordinates, are the facets: facet k <= d = dim(v) of v's
    factor is the unit column of v's coordinate k, facet d+1 is column v
    of R.  The new facet-k column is the old facet-sigma_full(k) one; the
    result is row-reduced back to [I_n | R'] over GF(2) and the image
    graph read off R'.  This is the ground truth the combinatorial moves
    are checked against: sigma_full fixing dim(v)+1 must act as an
    out-weight permutation, anything else as a (sigma, k)-local
    complementation.

    Only v's d columns leave I_n, so over (v's rows, the other rows) the
    left block is M = [[A, 0], [B, I]].  A's columns are distinct unit
    vectors, except that a facet given the old top column gets R's
    all-ones diagonal entry at v; either way A is invertible, and B is
    zero but in that one column, which holds the weights into v.  So
    M^-1 = [[A^-1, 0], [B A^-1, I]], and as the reduced form is unique,
    reducing A alone is exact: every right column y becomes
    x_v = A^-1 y_v on v's rows and y_o + B x_v on the others.  A depends
    only on sigma_full, so it is reduced once per facet permutation.
    """
    dim_v = g.omega.dim(v)
    if sigma_full.degree != dim_v + 1:
        raise ValueError(
            f"facet permutation degree {sigma_full.degree}, expected {dim_v + 1}"
        )
    omega = g.omega
    dims = omega.dims
    columns = _characteristic_columns(dims, g.key)
    if columns is None:
        raise ValueError("the facet action is defined for acyclic graphs only")
    inverse, top = _facet_inverse(sigma_full.images)
    starts, n, entries, ones, diagonal = _scalar_layout(dims)
    start = starts[v - 1]
    if top >= 0:
        # R's column v leaves for A and B; the unit column of the facet
        # the top one goes to takes its place.
        shift = (v - 1) * n
        column_v = columns >> shift & (1 << n) - 1
        into_v = column_v & ~(((1 << dim_v) - 1) << start)
        columns ^= (column_v ^ 1 << start + sigma_full.images[dim_v] - 1) << shift

    # x_v = A^-1 y_v, each row of y_v taken across all m columns at once
    # by one shift and mask.
    rows_v = columns >> start
    columns &= ~(((1 << dim_v) - 1) * ones << start)
    for j, r in inverse:
        columns ^= (rows_v >> j & ones) << start + r
    if top >= 0:
        # x_o = y_o + B x_v: add the weights into v to each column whose
        # x_v has the bit of A's all-ones column.  The product puts one
        # copy of into_v (< 2**n) at bit t*n per such column t.
        columns ^= (columns >> start + top & ones) * into_v

    if columns & diagonal != diagonal:
        raise ValueError("image matrix lost its unit diagonal")
    columns ^= diagonal
    return VWDigraph._from_key(
        omega, tuple([columns >> shift & mask for shift, mask in entries])
    )


# ---------------------------------------------------------------------------
# Generators and orbits
# ---------------------------------------------------------------------------


def _decode(sigma_full: Permutation) -> tuple[Permutation, int]:
    """The permutation sigma_full of the dim(v)+1 facets at a vertex v read
    as (sigma, k): sigma = reduce_top(sigma_full), and k the image of the
    top facet, 0 when sigma_full fixes it."""
    return reduce_top(sigma_full), sigma_full(sigma_full.degree) % sigma_full.degree


def _public_move(g: VWDigraph, v: int, sigma: Permutation, k: int) -> VWDigraph:
    """The public move of (sigma, k) at v: the (sigma, k)-local complementation
    when k != 0, else the out-weight permutation by sigma.  Each is looked up
    at call time, so wrappers bound into this module see it."""
    if k:
        return sigma_k_local_complement(g, v=v, sigma=sigma, k=k)
    return permute_out_weights(g, v=v, sigma=sigma)


def facet_move(v: int, sigma_full: Permutation) -> Callable[[VWDigraph], VWDigraph]:
    """The move by which the permutation sigma_full of the dim(v)+1 facets
    at v acts, as a bound public move.  facet_permutation_action is the
    independent check."""
    sigma, k = _decode(sigma_full)
    return partial(_public_move, v=v, sigma=sigma, k=k)


def facet_generators(omega: DimensionFunction) -> list[tuple[int, Permutation]]:
    """The pairs (v, (t t+1)) of the adjacent transpositions of the d+1
    facets at each vertex v of dimension d, t = 1..d: sum(dims) involutions.
    Their facet moves generate the facet permutations S_{d+1} of every
    vertex, and none of them changes the transitive closure of the support."""
    return [
        (v, Permutation.transposition(d + 1, t, t + 1))
        for v, d in enumerate(omega.dims, start=1)
        for t in range(1, d + 1)
    ]


@lru_cache(maxsize=None)
def _weight_rules(dims: tuple[int, ...]) -> list[tuple[int, Permutation, int, int, int]]:
    """Each facet generator of the shape as (v, sigma, k, mask, correction),
    built once per shape: sigma permutes v's out-weights, and each that
    shares a bit with mask gains correction and adds an in-neighbour's
    weight onto its cross pair; mask and correction are 0 when k = 0."""
    rules = []
    for v, sigma_full in facet_generators(DimensionFunction(dims)):
        sigma, k = _decode(sigma_full)
        rules.append((v, sigma, k, *(_marking(dims[v - 1], sigma, k) if k else (0, 0))))
    return rules


@dataclass(frozen=True)
class OrbitReport:
    canonical: VWDigraph
    size: int
    members: tuple[VWDigraph, ...] | None = None
    # The members' keys, each packed into one int by digraph._pack: orbit's
    # own seen-set, handed over without a copy.
    packed: set[int] = field(default_factory=set, compare=False, repr=False)


def _packed_facet(
    dims: tuple[int, ...], v: int, sigma: Permutation, k: int, mask: int, correction: int
) -> Callable[[int], int]:
    """The rule (v, sigma, k, mask, correction) of _weight_rules on packed
    keys.  Row v's m columns change at once: for k = 0, sigma = (t t+1)
    swaps bits t-1 and t of each; else sigma is the identity and each column
    marked by mask gains correction.  Then each in-neighbour u's weight on
    (u, v) is added, with one multiply, onto every column of row u that the
    old row v marks."""
    m, d = len(dims), dims[v - 1]
    starts = digraph._layout(dims)[1]
    base, row = starts[(v - 1) * m], (1 << m * d) - 1
    ones = sum(1 << j * d for j in range(m))  # bit 0 of every column
    marks = mask * ones
    # Bit t-1 of every column when sigma = (t t+1); lift takes a marked bit to bit 0.
    swap = 0 if k else ones << min(i for i, x in enumerate(sigma.images) if x != i + 1)
    lift = max(k - 1, 0)

    @lru_cache(maxsize=None)
    def additions(marked: int) -> list[tuple[int, int, int]]:
        """For each in-neighbour u, the offset and mask of (u, v), and a
        1 at the offset of each marked column of row u but (u, u)."""
        columns = [j for j in range(m) if marked >> j * d & mask]
        out = []
        for u in range(m):
            spread = sum(1 << starts[u * m + j] for j in columns if j != u)
            if u != v - 1 and spread:
                out.append((starts[u * m + v - 1], (1 << dims[u]) - 1, spread))
        return out

    def step(key: int) -> int:
        seg = key >> base & row
        flip = (seg ^ seg >> 1) & swap
        marked = seg & marks
        key ^= (flip | flip << 1 | (marked >> lift) * correction) << base
        if marked:
            for at, bits, spread in additions(marked):
                # The weight fits its field, so the product carries nothing.
                key ^= (key >> at & bits) * spread
        return key

    return step


def _packed_swap(dims: tuple[int, ...], p: int, q: int) -> Callable[[int], int]:
    """reorder_vertices by the transposition (p q) of two vertices of one
    dimension, on packed keys: masked XOR-swaps of columns p and q, one per
    row width, then of rows p and q.  Rows between p and q may be of other
    widths, so the row distance is read off the rows' offsets."""
    m = len(dims)
    starts = digraph._layout(dims)[1]
    columns: dict[int, int] = {}  # distance -> the fields of column p
    for r, d in enumerate(dims):
        low = starts[r * m + p - 1]
        distance = starts[r * m + q - 1] - low
        columns[distance] = columns.get(distance, 0) | ((1 << d) - 1) << low
    low = starts[(p - 1) * m]
    rows = (starts[(q - 1) * m] - low, ((1 << m * dims[p - 1]) - 1) << low)
    swaps = [*columns.items(), rows]

    def swap(key: int) -> int:
        for distance, fields in swaps:
            t = (key ^ key >> distance) & fields
            key ^= t | t << distance
        return key

    return swap


@lru_cache(maxsize=None)
def _packed_moves(dims: tuple[int, ...]) -> tuple[list, list]:
    """The generators of orbit for one shape, compiled once on packed keys.
    Each facet generator is the step of its rule in _weight_rules, in that
    order.  Each swap of consecutive vertices of one dimension, k-1 for k
    such vertices, which span S_omega, is its step and its permutation mu."""
    m = len(dims)
    steps = [_packed_facet(dims, *rule) for rule in _weight_rules(dims)]
    swaps = [
        (_packed_swap(dims, p, q), Permutation.transposition(m, p, q))
        for p, q in combinations(range(1, m + 1), 2)
        # q is the next vertex after p of its dimension.
        if dims[p - 1] == dims[q - 1] and dims[p - 1] not in dims[p : q - 1]
    ]
    return steps, swaps


def orbit(g: VWDigraph, include_members: bool = False) -> OrbitReport:
    """The orbit of g under the facet generators and the swaps of
    consecutive vertices of one dimension, closed on packed keys: each
    member is one int, its key packed by digraph._pack.

    The facet orbit of g is closed breadth first under the compiled facet
    moves.  A relabelling maps each facet orbit onto a facet orbit, so each
    further one is the image of a found one's first member, and is mapped
    whole through the swap's XOR-swaps.  One check comes free and raises
    ArithmeticError on a failure: each public move, applied once to g,
    gives the packed key its compiled form gives.  The canonical member
    has the least serial, the member's int bit-reversed, and is found from
    the ints, with no string per member.  Graphs are built
    only for it and the members returned; refuses past ORBIT_BUDGET
    members, g counted."""
    if not is_acyclic(g):
        raise ValueError("orbits are computed for acyclic graphs only")
    omega = g.omega
    dims = omega.dims
    pack = partial(digraph._pack, dims)
    key = pack(g.key)
    facet, swaps = _packed_moves(dims)
    for (v, sigma, k, _, _), step in zip(_weight_rules(dims), facet):
        if pack(_public_move(g, v, sigma, k).key) != step(key):
            raise ArithmeticError(f"compiled facet move at vertex {v} disagrees on {g}")
    for swap, mu in swaps:
        if pack(reorder_vertices(g, mu).key) != swap(key):
            raise ArithmeticError(f"compiled swap {mu.images} disagrees on {g}")
    budget = ORBIT_BUDGET
    refuse = partial(BudgetError, "orbit", "at least {} members", budget + 1, budget)
    if budget < 1:
        raise refuse()
    seen = {key}
    blocks = [[key]]
    for cur in blocks[0]:  # a queue: it grows while it is read
        for step in facet:
            img = step(cur)
            if img not in seen:
                seen.add(img)
                blocks[0].append(img)
                if len(seen) > budget:
                    raise refuse()
    for block in blocks:
        for swap, _ in swaps:
            if swap(block[0]) not in seen:
                if len(seen) + len(block) > budget:
                    raise refuse()
                blocks.append(list(map(swap, block)))
                seen.update(blocks[-1])
    del blocks  # lists of seen's members, freed before the canonical search
    if include_members:
        ordered = sorted(seen, key=partial(digraph._serial, top=digraph._layout(dims)[2]))
    else:
        ordered = [digraph._least_serial(seen)]
    graphs = tuple(VWDigraph._from_key(omega, digraph._unpack(dims, k)) for k in ordered)
    return OrbitReport(graphs[0], len(seen), graphs if include_members else None, seen)


def count_equivalence_classes(omega: DimensionFunction) -> int:
    """The number of orbits of the acyclic graphs of shape omega, by the
    whole-space sweep: every graph is enumerated, and orbit runs once per
    class, on the first graph whose packed key no orbit found so far holds."""
    pack = partial(digraph._pack, omega.dims)
    seen: set[int] = set()
    classes = 0
    for g in enumerate_acyclic(omega):
        if pack(g.key) not in seen:
            seen |= orbit(g).packed
            classes += 1
    return classes


# ---------------------------------------------------------------------------
# Slicing by reachability poset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poset:
    """A partial order on the vertices of omega: (a, b) is a relation,
    1-indexed, when a reaches b.  Covers are the relations no third vertex
    splits.  automorphisms is Aut_omega(P), the dimension-preserving
    vertex permutations that fix P, identity first; index is its index
    in S_omega."""

    omega: DimensionFunction
    relations: tuple[tuple[int, int], ...]
    covers: frozenset[tuple[int, int]]
    automorphisms: tuple[Permutation, ...]
    index: int

    def _weights(self) -> list[range]:
        """The weights each relation may carry: nonzero on a cover, any
        weight on every other relation.  Every support then lies between
        the covers and P, so it closes to exactly P."""
        dims = self.omega.dims
        return [range((a, b) in self.covers, 1 << dims[a - 1]) for a, b in self.relations]

    @property
    def slice_size(self) -> int:
        """Number of graphs whose support closes to exactly P."""
        return prod(map(len, self._weights()))


def _relabellings(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """S_omega: the vertex permutations, 0-indexed images, that preserve
    every dimension, identity first."""
    return [
        perm
        for perm in permutations(range(len(dims)))
        if all(dims[w] == d for w, d in zip(perm, dims))
    ]


def _places(key: int, automorphisms: tuple[tuple[int, ...], ...], i: int, m: int) -> Iterator[int]:
    """The posets on 0..i grown from the poset `key` on 0..i-1, as bitmasks
    of positions a*m + b: vertex i goes above a down-set D and below an
    up-set E, every point of D below every point of E.  One place (D, E) per
    orbit of the automorphisms."""
    points = range(i)
    below = [sum(1 << a for a in points if key >> (a * m + x) & 1) for x in points]
    above = [sum(1 << b for b in points if key >> (x * m + b) & 1) for x in points]

    def closed(step: list[int]) -> list[int]:
        return [s for s in range(1 << i) if all(not step[x] & ~s for x in points if s >> x & 1)]

    def move(s: int, perm: tuple[int, ...]) -> int:
        return sum(1 << image for x, image in enumerate(perm) if s >> x & 1)

    ups, seen = closed(above), set()
    for down in closed(below):
        common = reduce(and_, (above[x] for x in points if down >> x & 1), (1 << i) - 1)
        for up in ups:
            if up & ~common or (down, up) in seen:
                continue
            seen.update((move(down, p), move(up, p)) for p in automorphisms)
            grown = sum(1 << (x * m + i) for x in points if down >> x & 1)
            yield key | grown | sum(1 << (i * m + x) for x in points if up >> x & 1)


def reachability_posets(omega: DimensionFunction) -> list[Poset]:
    """One poset on the vertices of omega per class under S_omega, each the
    least image of its class as a bitmask of positions a*m + b, in that
    order.  Posets grow one vertex at a time.  Level i holds the classes of
    posets on 0..i-1 under the prefix group, the dimension-preserving
    relabellings of 0..i-1 (S_omega at i = m), keyed by least image, with
    their automorphisms.  Each class grows at its places into candidates
    for level i+1; deleting vertex i from a poset on 0..i leaves one on
    0..i-1, so every class is met.  A candidate not met before starts a
    class, read off its images: the least, the relabellings onto it, and
    the images that delete vertex i to a key of level i, remembered.

    Refuses past digraph.ITEM_BUDGET: on |S_omega|, first; before each
    level's scan, on C + ceil(C/k) * |prefix group| for C candidates, since
    a class grows from at most k places, one per vertex of 0..i with vertex
    i's dimension; and on the candidates and images scanned."""
    dims = omega.dims
    m = len(dims)
    budget, refuse = digraph.ITEM_BUDGET, partial(BudgetError, "poset generation")
    relabellings = prod(map(factorial, Counter(dims).values()))
    if relabellings > budget:
        raise refuse("{} relabellings", relabellings, budget)
    bit = [1 << p for p in range(m * m)]
    level: dict[int, tuple[tuple[int, ...], ...]] = {0: ((),)}
    scanned = 0
    for i in range(m):
        candidates = [code for key, autos in level.items() for code in _places(key, autos, i, m)]
        order = prod(map(factorial, Counter(dims[: i + 1]).values()))
        k = dims[: i + 1].count(dims[i])
        bound = len(candidates) + -(-len(candidates) // k) * order
        if bound > budget:
            raise refuse(f"at least {{}} candidates and images on {i + 1} points", bound, budget)
        group = _relabellings(dims[: i + 1])
        pairs = permutations(range(i + 1), 2)
        columns = {a * m + b: [bit[p[a] * m + p[b]] for p in group] for a, b in pairs}
        zero = [0] * order
        keep = sum(bit[a * m + b] for a in range(i) for b in range(i))
        grown, met = {}, set()
        for code in candidates:
            known = code in met
            scanned += 1 if known else 1 + order
            if scanned > budget:
                raise refuse("at least {} candidates and images", scanned, budget)
            if known:
                continue
            images = list(map(sum, zip(zero, *(columns[p] for p in columns if code >> p & 1))))
            least = min(images)
            onto = list(compress(group, map(least.__eq__, images)))
            # Remember the images that delete vertex i to a key of level i.
            met.update(compress(images, map(level.__contains__, map(keep.__and__, images))))
            # The automorphisms of the least image are p . g^-1 for p in onto.
            g = onto[0]
            inverse = sorted(range(i + 1), key=g.__getitem__)
            grown[least] = tuple(sorted(tuple(p[x] for x in inverse) for p in onto))
        level = grown
    posets = []
    for key in sorted(level):
        relations = [(a + 1, b + 1) for a in range(m) for b in range(m) if key >> (a * m + b) & 1]
        composite = {(a, c) for a, b in relations for b2, c in relations if b == b2}
        covers = frozenset((a, b) for a, b in relations if (a, b) not in composite)
        automorphisms = tuple(Permutation(tuple(x + 1 for x in p)) for p in level[key])
        index = relabellings // len(automorphisms)
        posets.append(Poset(omega, tuple(relations), covers, automorphisms, index))
    return posets


@dataclass(frozen=True)
class SliceReport:
    """One class: the poset its members close to (up to S_omega), its first
    member in that poset's slice, and the size of its whole orbit."""

    poset: Poset
    representative: VWDigraph
    size: int


def _digitwise(terms: list[list[int]]) -> list[int]:
    """The map x -> sum over j of terms[j][digit j of x], the first digit
    most significant."""
    out = [0]
    for term in terms:
        out = [a + b for a in out for b in term]
    return out


class _Slice:
    """The slice of a poset P numbered as a product space: digit j is the
    weight of relation j of P less its least value (1 on a cover, else 0),
    in radix radices[j], the first relation most significant, so index
    order is slice order.  Moves compile to index maps, lists whose entry
    x is the index of the image of point x."""

    def __init__(self, poset: Poset) -> None:
        weights = poset._weights()
        self.m = poset.omega.m
        self.relations = poset.relations
        self.digit = {relation: j for j, relation in enumerate(poset.relations)}
        self.offsets = [r.start for r in weights]
        self.radices = radices = [len(r) for r in weights]
        self.strides = [prod(radices[j + 1 :]) for j in range(len(radices))]
        self.size = prod(radices)

    def key(self, index: int) -> tuple[int, ...]:
        """The key of the slice point with this index."""
        m = self.m
        key = [0] * (m * m)
        for (a, b), r, s, o in zip(self.relations, self.radices, self.strides, self.offsets):
            key[(a - 1) * m + b - 1] = index // s % r + o
        return tuple(key)

    def _spread(self, digits: list[int], value: Callable[..., int]) -> list[int]:
        """[value(*digits of x at `digits`) for x in the slice], built by
        repeating blocks of equal values."""
        radices, strides = self.radices, self.strides
        chosen = [0] * len(digits)
        role = {j: r for r, j in enumerate(digits)}
        last = max(digits)

        def block(j: int) -> list[int]:
            if j > last:
                return [value(*chosen)] * strides[last]
            if j not in role:
                return block(j + 1) * radices[j]
            parts: list[int] = []
            for x in range(radices[j]):
                chosen[role[j]] = x
                parts += block(j + 1)
            return parts

        first = min(digits)
        return block(first) * (self.size // (strides[first] * radices[first]))

    def facet_map(self, v: int, sigma: Permutation, mask: int, correction: int) -> list[int]:
        """The index map of a rule (v, sigma, mask, correction) of _weight_rules.
        Each digit of row v changes on its own, by _permute_row over its
        range, and each cross pair by a term over the three digits it involves."""
        relations, digit, offsets, strides = self.relations, self.digit, self.offsets, self.strides
        row = [j for j, (a, _) in enumerate(relations) if a == v]
        terms = [[x * s for x in range(r)] for r, s in zip(self.radices, strides)]
        for j in row:
            o, r = offsets[j], self.radices[j]
            weights = list(range(o, o + r))
            _permute_row(weights, r, 1, sigma.images, mask, correction)
            terms[j] = [(w - o) * strides[j] for w in weights]
        out = _digitwise(terms)
        if mask:
            # A cross pair (u, w) gains w_uv where w_vw is marked; it is a
            # relation but no cover of P, since v splits it.
            for a, (u, head) in enumerate(relations):
                if head != v:
                    continue
                for b in row:
                    c = digit[u, relations[b][1]]
                    ua, vb, sc = offsets[a], offsets[b], strides[c]

                    def gain(xa, xb, xc, ua=ua, vb=vb, sc=sc):
                        return sc * ((xc ^ (xa + ua)) - xc) if (xb + vb) & mask else 0

                    out = list(map(add, out, self._spread([a, b, c], gain)))
        return out

    def relabelling(self, mu: Permutation) -> tuple[int, ...]:
        """The digits moved by reorder_vertices with an automorphism mu of
        P: digit j of the image is digit moved[j] of the point."""
        return tuple(self.digit[mu(a), mu(b)] for a, b in self.relations)

    def relabel_map(self, moved: tuple[int, ...]) -> list[int]:
        """The index map of the relabelling that moves the digits so.  It
        only moves digits, so it is a sum of one term per digit."""
        terms: list[list[int]] = [[]] * len(moved)
        for j, i in enumerate(moved):
            terms[i] = [x * self.strides[j] for x in range(self.radices[i])]
        return _digitwise(terms)


def _link(parent: array, image: list[int]) -> None:
    """Join x and image[x] for every x < image[x] in the union-find parent,
    each root linked under the smaller, so a root is its class's least
    index and parent[x] <= x throughout."""
    for x, y in compress(enumerate(image), map(lt, count(), image)):
        # Find both roots, halving the paths.
        while (p := parent[x]) != x:
            parent[x] = p = parent[p]
            x = p
        while (p := parent[y]) != y:
            parent[y] = p = parent[p]
            y = p
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y


def sliced_orbits(omega: DimensionFunction) -> Iterator[SliceReport]:
    """Every class of the acyclic graphs of shape omega once, one poset at
    a time.

    The facet generators keep the closure of the support fixed, so a class
    meets the slice of its poset P in one orbit of the facet generators and
    the reorderings in Aut_omega(P), and its whole orbit is that times
    [S_omega : Aut_omega(P)].  Each slice is numbered as a product space
    and each generator compiled once into an index map; the maps are merged
    one at a time into a union-find over the slice, and each class is
    reported at its first member in slice order.  Two checks come free and
    raise ArithmeticError on a failure: each orbit size divides the order
    of the group, prod (d_i+1)! times prod (multiplicity)!, and the sizes
    sum to count_acyclic(omega), after the last report.

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
    rules = _weight_rules(dims)
    total = 0
    for poset in posets:
        numbering = _Slice(poset)
        parent = array("q", range(numbering.size))
        # One map at a time.  Each map's inverse is among the maps: the
        # facet moves are involutions, the relabellings a group.  A facet
        # move at a vertex with no out-relation, and a relabelling that
        # moves no digit, fix every point.
        tails = {a for a, _ in poset.relations}
        for v, sigma, _, mask, correction in rules:
            if v in tails:
                _link(parent, numbering.facet_map(v, sigma, mask, correction))
        moved = set(map(numbering.relabelling, poset.automorphisms[1:]))
        for digits in moved - {tuple(range(len(poset.relations)))}:
            _link(parent, numbering.relabel_map(digits))
        # parent[x] <= x, so one pass in index order points each at its root.
        # A root is its class's least index, where the Counter first meets
        # it, so the classes come in slice order.
        for x in range(numbering.size):
            parent[x] = parent[parent[x]]
        for root, members in Counter(parent).items():
            size = members * poset.index
            if group % size:
                raise ArithmeticError(
                    f"orbit of {size} graphs does not divide the group order {group}"
                )
            total += size
            yield SliceReport(poset, VWDigraph._from_key(omega, numbering.key(root)), size)
    if total != acyclic:
        raise ArithmeticError(
            f"sliced orbits cover {total} graphs, count_acyclic gives {acyclic}"
        )
