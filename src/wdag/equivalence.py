"""Equivalence of weighted digraphs under vertex reordering, out-weight
permutation, and (sigma, k)-local complementation.

Two acyclic graphs are equivalent when a sequence of the three moves
turns one into the other.  Orbits are computed by breadth-first closure
under a small involutive generating set, and an independent oracle
realizes each single-vertex move as a facet permutation acting on the
full characteristic matrix followed by GF(2) row reduction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from operator import attrgetter
from typing import Callable, Iterator

from .digraph import (
    BudgetError,
    DimensionFunction,
    VWDigraph,
    enumerate_acyclic,
    is_acyclic,
)
from .gf2 import GF2Vector, permute_bits
from .permutation import Permutation

# orbit refuses once it has found more members than this; read at call time.
ORBIT_BUDGET = 10**7


def _check_vertex(g: VWDigraph, v: int) -> int:
    """The dimension of vertex v; raises unless v is a vertex of g."""
    dims = g.omega.dims
    if not 1 <= v <= len(dims):
        raise ValueError(f"vertex {v} outside 1..{len(dims)}")
    return dims[v - 1]


def _complement(g: VWDigraph, v: int, mask: int) -> list[int]:
    """The key of g with the weight of (u,v) added onto (u,w) for every
    in-neighbor u of v and every out-neighbor w whose weight shares a bit
    with mask.  An edge exists iff its entry is nonzero, and no loop is
    ever created (u == w is only reachable from a cyclic input)."""
    m = len(g.omega.dims)
    key = list(g.key)
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


def local_complement(g: VWDigraph, v: int) -> VWDigraph:
    """Add the weight of (u,v) onto (u,w) for every in-neighbor u and
    out-neighbor w of v; an edge exists in the result iff its new weight
    is nonzero."""
    _check_vertex(g, v)
    return VWDigraph._from_key(g.omega, tuple(_complement(g, v, -1)))


def permute_out_weights(g: VWDigraph, v: int, sigma: Permutation) -> VWDigraph:
    """Apply sigma to the weight of every edge leaving v."""
    dim_v = _check_vertex(g, v)
    if len(sigma.images) != dim_v:
        raise ValueError(
            f"permutation degree {sigma.degree} does not match dimension {dim_v}"
        )
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
    dim_v = _check_vertex(g, v)
    if len(sigma.images) != dim_v:
        raise ValueError(
            f"permutation degree {sigma.degree} does not match dimension {dim_v}"
        )
    if not 1 <= k <= dim_v:
        raise ValueError(f"coordinate {k} outside 1..{dim_v}")
    mask = 1 << (k - 1)
    # Cross pairs never touch row v, so it still holds the original weights.
    key = _complement(g, v, mask)
    # Marked out-edges of v keep a 1 in coordinate sigma^{-1}(k), so they
    # never vanish.
    correction = ((1 << dim_v) - 1) ^ (1 << sigma.images.index(k))
    _permute_row(key, len(g.omega.dims), v, sigma.images, mask, correction)
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
    positions = [(a - 1) * m + b - 1 for a in images for b in images]
    return VWDigraph._from_key(g.omega, tuple(map(g.key.__getitem__, positions)))


# ---------------------------------------------------------------------------
# Independent oracle: facet permutations acting on characteristic matrices
# ---------------------------------------------------------------------------


def facet_permutation_action(
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
    dim_v = _check_vertex(g, v)
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


# ---------------------------------------------------------------------------
# Generators and orbits
# ---------------------------------------------------------------------------


def standard_generators(omega: DimensionFunction) -> list[Callable[[VWDigraph], VWDigraph]]:
    """Involutive generating set: dimension-preserving vertex swaps,
    adjacent out-weight transpositions, and identity-(k) local
    complementations, each a public move bound to its arguments.  These
    generate the whole equivalence because each full single-vertex move
    factors into them."""
    m = omega.m
    return [
        *(
            partial(reorder_vertices, mu=Permutation.transposition(m, p, q))
            for p, q in combinations(range(1, m + 1), 2)
            if omega.dim(p) == omega.dim(q)
        ),
        *(
            partial(permute_out_weights, v=v, sigma=Permutation.transposition(d, t, t + 1))
            for v, d in enumerate(omega.dims, start=1)
            for t in range(1, d)
        ),
        *(
            partial(sigma_k_local_complement, v=v, sigma=Permutation.identity(d), k=k)
            for v, d in enumerate(omega.dims, start=1)
            for k in range(1, d + 1)
        ),
    ]


@dataclass(frozen=True)
class OrbitReport:
    canonical: VWDigraph
    size: int
    members: tuple[VWDigraph, ...] | None = None


def orbit(g: VWDigraph, include_members: bool = False) -> OrbitReport:
    """Breadth-first closure of g under the standard generators."""
    if not is_acyclic(g):
        raise ValueError("orbits are computed for acyclic graphs only")
    budget = ORBIT_BUDGET
    gens = standard_generators(g.omega)
    seen: dict[tuple[int, ...], VWDigraph] = {g.key: g}
    frontier = [g]
    while frontier:
        nxt = []
        for cur in frontier:
            for gen in gens:
                img = gen(cur)
                if img.key not in seen:
                    seen[img.key] = img
                    nxt.append(img)
                    if len(seen) > budget:
                        raise BudgetError(
                            "orbit", "at least {} members", len(seen), budget
                        )
        frontier = nxt
    by_serial = attrgetter("serial")
    canonical = min(seen.values(), key=by_serial)
    members = tuple(sorted(seen.values(), key=by_serial)) if include_members else None
    return OrbitReport(canonical=canonical, size=len(seen), members=members)


def orbits(omega: DimensionFunction) -> Iterator[OrbitReport]:
    """Every orbit of the acyclic graphs of shape omega once, with its
    members.  Enumeration runs in serial order, so each orbit is met first
    at its canonical member and the canonical members arrive in strictly
    increasing serial order."""
    seen: set[tuple[int, ...]] = set()
    for g in enumerate_acyclic(omega):
        if g.key not in seen:
            report = orbit(g, include_members=True)
            seen.update(member.key for member in report.members)
            yield report


def count_equivalence_classes(omega: DimensionFunction) -> int:
    """Partition all acyclic weighted digraphs into orbits; return the count."""
    return sum(1 for _ in orbits(omega))
