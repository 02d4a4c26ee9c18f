"""Closed-form class counts for two- and three-vertex shapes, with
independent brute-force Burnside oracles.

The closed forms are evaluated exactly as printed, with every division
checked for exactness.  Each family also has an oracle that partitions
an explicit finite group action into orbits with union-find, so the
formulas are verified without reusing any fixed-point case analysis.
The corrected three-vertex form, the paper's display plus three swap
terms, is also checked family by family against orbit enumeration,
whose classes come from equivalence.sliced_orbits one reachability
poset at a time: the five families are the five posets on three points.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .digraph import BudgetError, DimensionFunction
from .equivalence import sliced_orbits
from .gf2 import permute_bits
from .permutation import Permutation, reduce_top

# orbit_count refuses a space of more points than this; read at call time.
ORACLE_POINT_BUDGET = 2**16


def _exact_div(num: int, den: int) -> int:
    if num % den != 0:
        raise ArithmeticError(f"inexact division {num}/{den}; formula misuse")
    return num // den


def _check_positive(*dims: int) -> None:
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be positive: {dims}")


def _half(n: int) -> int:
    """Number of weight classes of a single edge of dimension n."""
    return (n + 1) // 2


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def count_classes_two_vertices(n1: int, n2: int) -> int:
    """Equivalence classes of weighted digraphs on two vertices of
    dimensions n1, n2."""
    _check_positive(n1, n2)
    if n1 == n2:
        return 1 + _half(n1)
    return 1 + _half(n1) + _half(n2)


def count_outstar_classes(n: int) -> int:
    """Classes of the two-edge out-star whose weights have dimension n,
    under the action at the shared source vertex."""
    _check_positive(n)
    k = n // 2
    if n % 2 == 0:
        return _exact_div(2 * k**3 + 9 * k**2 + k, 6)
    return _exact_div((k + 1) * (k**2 + 5 * k + 3), 3)


def outstar_term(n: int) -> int:
    """The per-vertex cubic from the three-vertex total; equals
    count_outstar_classes(n) identically."""
    _check_positive(n)
    if n % 2 == 0:
        return _exact_div(n**3 + 9 * n**2 + 2 * n, 24)
    return _exact_div((n + 1) * (n**2 + 8 * n + 3), 24)


def count_path_classes(n: int, m: int) -> int:
    """Classes of the merged family: a directed path source->mid->sink
    together with its chorded variants, where the mid vertex has
    dimension n and the source has dimension m."""
    _check_positive(n, m)
    if n % 2 == 0 and m % 2 == 0:
        return _exact_div(n * m * (m**2 + 9 * m + 14), 48)
    if n % 2 == 0:
        return _exact_div(n * (m**3 + 9 * m**2 + 23 * m + 15), 48)
    if m % 2 == 0:
        return _exact_div(n * m * (m**2 + 9 * m + 14) + 3 * m * (m + 2), 48)
    if m % 4 == 1:
        return _exact_div(n * (m**3 + 9 * m**2 + 23 * m + 15) + 3 * (m**2 + 2 * m - 3), 48)
    return _exact_div(n * (m**3 + 9 * m**2 + 23 * m + 15) + 3 * (m**2 + 2 * m + 1), 48)


def count_unordered_outstar_classes(n: int) -> int:
    """Classes of the two-edge out-star with dimension-n weights whose two
    sinks can be swapped (they have equal dimensions).

    Burnside's lemma over the source group times the swap gives
    (f(n) + B(n)) / 2, where f is count_outstar_classes and B(n) is the
    number of swap-twisted fixed points: the mean over the source group
    of the dim-n vectors fixed by the square of the group element.
    """
    _check_positive(n)
    k = (n + 1) // 2
    if n % 2 == 0:
        twisted = _exact_div(k * (k + 3), 2)
    else:
        twisted = _exact_div((k - 1) * (k + 2), 2) + k // 2 + 1
    return _exact_div(count_outstar_classes(n) + twisted, 2)


def count_unordered_instar_classes(n: int) -> int:
    """Classes of the two-edge in-star whose two sources have dimension n
    and can be swapped: unordered pairs of weight classes, h(n)(h(n)+1)/2
    with h(n) = floor((n+1)/2)."""
    _check_positive(n)
    h = _half(n)
    return _exact_div(h * (h + 1), 2)


# ---------------------------------------------------------------------------
# Brute-force Burnside oracles (explicit orbit partition, union-find)
# ---------------------------------------------------------------------------
#
# Each oracle numbers the points of its space 0..size-1 and compiles every
# generator once, into a table of the images of all dim-n vectors.  The
# generator is then a stream of point indices, the image of point 0, 1, ...
# in turn, fed straight into a union-find.  Streams are lazy, so the space
# is never built and at most one generator's images exist at a time.


def orbit_count(size: int, generators: Iterable[tuple[object, Iterable[int]]]) -> int:
    """Orbits of a group action on the points 0..size-1, from generator
    closure with union-find over a flat parent list.  Each generator comes
    as a (generator, images) pair, its images those of points 0, 1, ...,
    size-1 in turn; a stream of any other length is refused."""
    if size > ORACLE_POINT_BUDGET:
        raise BudgetError("Burnside oracle", "{} points", size, ORACLE_POINT_BUDGET)
    parent = list(range(size))
    for generator, images in generators:
        images = iter(images)
        i = -1
        for i, y in zip(range(size), images):
            if i == y:
                continue
            x = i
            while parent[x] != x:  # find with path halving
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[y] = x
        held = i + 1 + sum(1 for _ in images)
        if held != size:
            raise ValueError(
                f"generator {generator!r}: stream holds {held} images, expected {size}"
            )
    return sum(1 for x, p in enumerate(parent) if x == p)


def _top_action(sigma: Permutation, n: int):
    """Ingredients of a top-point permutation acting on dim-n bit vectors:
    (reduced images, marked coordinate or None, all-ones-except correction)."""
    top = sigma(n + 1)
    bar = reduce_top(sigma).images
    if top == n + 1:
        return bar, None, 0
    correction = ((1 << n) - 1) ^ (1 << (sigma.inverse()(n + 1) - 1))
    return bar, top, correction


def _vector_table(sigma: Permutation, n: int) -> tuple[list[int], int]:
    """A top-point permutation compiled for dim-n bit vectors: the image
    T[x] of every x in range(2**n), and the mask of the marked coordinate
    (0 when sigma fixes n+1).  x is outside the stable set iff x & mask."""
    bar, marked, corr = _top_action(sigma, n)
    mask = 0 if marked is None else 1 << (marked - 1)
    table = [permute_bits(bar, x) ^ (corr if x & mask else 0) for x in range(1 << n)]
    return table, mask


def _generating_pair(size: int) -> list[Permutation]:
    """(1 2) and the cycle (1 2 ... size), which generate S_size; at size 2
    the two coincide, so (1 2) alone."""
    swap = Permutation.transposition(size, 1, 2)
    if size == 2:
        return [swap]
    return [swap, Permutation.from_cycles(size, range(1, size + 1))]


def _pair_images(table_v: list[int], table_w: list[int]) -> Iterator[int]:
    """Image stream of (v, w) -> (table_v[v], table_w[w]) on pairs of nonzero
    vectors, where (v, w) is point (v-1)*N + (w-1) and N = len(table_v) - 1."""
    nonzero = len(table_v) - 1
    rows = [(t - 1) * nonzero for t in table_v[1:]]
    cols = [t - 1 for t in table_w[1:]]
    return (row + col for row in rows for col in cols)


def _swap_images(n: int) -> Iterator[int]:
    """Image stream of (v, w) -> (w, v) on pairs of nonzero dim-n vectors."""
    nonzero = (1 << n) - 1
    return (w * nonzero + v for v in range(nonzero) for w in range(nonzero))


def _outstar_streams(n: int):
    """Each generator of the out-star action, with its image stream."""
    for sigma in _generating_pair(n + 1):
        table, _ = _vector_table(sigma, n)
        yield sigma, _pair_images(table, table)


def outstar_orbit_oracle(n: int) -> int:
    """Orbit count of the out-star action on pairs of nonzero dim-n vectors.

    The group of the source vertex acts on both weights at once: inside
    the stable set both are just coordinate-permuted, outside it the
    all-ones-except correction is added componentwise.
    """
    _check_positive(n)
    return orbit_count(((1 << n) - 1) ** 2, _outstar_streams(n))


def _unordered_outstar_streams(n: int):
    """The sink swap (generator None), then the out-star generators."""
    yield None, _swap_images(n)
    yield from _outstar_streams(n)


def unordered_outstar_orbit_oracle(n: int) -> int:
    """Orbit count of the out-star action on pairs of nonzero dim-n vectors,
    with the swap (v, w) -> (w, v) of the two sinks added as a generator.

    The source group acts on each weight as in outstar_orbit_oracle.
    """
    _check_positive(n)
    return orbit_count(((1 << n) - 1) ** 2, _unordered_outstar_streams(n))


def _unordered_instar_streams(n: int):
    """The source swap (generator None), then each source's generators as
    pairs (permutation at the first source, permutation at the second)."""
    yield None, _swap_images(n)
    identity = Permutation.identity(n + 1)
    fixed = list(range(1 << n))
    for sigma in _generating_pair(n + 1):
        table, _ = _vector_table(sigma, n)
        yield (sigma, identity), _pair_images(table, fixed)
        yield (identity, sigma), _pair_images(fixed, table)


def unordered_instar_orbit_oracle(n: int) -> int:
    """Orbit count of the in-star action on pairs (v, w) of nonzero dim-n
    vectors, the weights of two sources of dimension n over one sink.

    Each source's group acts on its own weight alone, and the swap
    (v, w) -> (w, v) of the two sources is added as a generator.
    """
    _check_positive(n)
    return orbit_count(((1 << n) - 1) ** 2, _unordered_instar_streams(n))


def _path_images(sigma_table: tuple[list[int], int], tb: list[int]) -> Iterator[int]:
    """Image stream of one path-family generator (sigma, beta), compiled as
    sigma_table = (ts, mask) and tb, where (u, w, w') is point
    ((u-1)*(2**m - 1) + (w-1)) * 2**m + w'.

    u -> ts[u] and w -> tb[w]; w' -> tb[w'] when u is stable, else
    tb[w + w'].  The marked bit of w + w' is the sum of the marked bits of
    w and w', so tb adds the correction exactly when one of them is marked.
    """
    ts, unstable = sigma_table
    width = len(tb)
    for u in range(1, len(ts)):
        base = (ts[u] - 1) * (width - 1) - 1
        for w in range(1, width):
            row = (base + tb[w]) * width
            if u & unstable:
                yield from (row + tb[w ^ wp] for wp in range(width))
            else:
                yield from (row + t for t in tb)


def _path_streams(n: int, m: int):
    """Each generator (sigma, beta) of the path-family action, with its
    image stream: the mid-vertex pair, then the source's."""
    id_n = Permutation.identity(n + 1)
    id_m = Permutation.identity(m + 1)
    # Each identity table is compiled once and shared by the other side's
    # generators.
    fixed_n = _vector_table(id_n, n)
    fixed_m, _ = _vector_table(id_m, m)
    for sigma in _generating_pair(n + 1):
        yield (sigma, id_m), _path_images(_vector_table(sigma, n), fixed_m)
    for beta in _generating_pair(m + 1):
        beta_table, _ = _vector_table(beta, m)
        yield (id_n, beta), _path_images(fixed_n, beta_table)


def path_orbit_oracle(n: int, m: int) -> int:
    """Orbit count of the path-family action on triples (u, w, w'):
    u a nonzero dim-n vector, w a nonzero dim-m vector, w' any dim-m vector.

    The mid-vertex group acts on u and, when u is outside its stable set,
    replaces w' by w + w'; the source-vertex group acts on w and w'
    separately with the all-ones-except correction on unstable entries.
    """
    _check_positive(n, m)
    size = ((1 << n) - 1) * ((1 << m) - 1) << m
    return orbit_count(size, _path_streams(n, m))


# ---------------------------------------------------------------------------
# Three-vertex totals
# ---------------------------------------------------------------------------

FAMILY_EMPTY = "empty"
FAMILY_SINGLE = "single-edge"
FAMILY_OUTSTAR = "out-star"
FAMILY_INSTAR = "in-star"
FAMILY_PATH = "path-triangle"

# The five posets on three points, keyed by how many vertices their covers
# leave and enter: the antichain, one edge, the out-star, the in-star and
# the chain, whose graphs are the paths and the triangles.
_FAMILY_OF_COVERS = {
    (0, 0): FAMILY_EMPTY,
    (1, 1): FAMILY_SINGLE,
    (1, 2): FAMILY_OUTSTAR,
    (2, 1): FAMILY_INSTAR,
    (2, 2): FAMILY_PATH,
}


@dataclass(frozen=True)
class TripleCountBreakdown:
    """Three-vertex classes by shape family (per_type) and the branch that
    counted them; total is derived from per_type, so they cannot disagree."""

    per_type: dict[str, int]
    branch: str

    @property
    def total(self) -> int:
        return sum(self.per_type.values())


def _triple_breakdown(
    single: int, outstar: int, instar: int, path: int, branch: str
) -> TripleCountBreakdown:
    per_type = {
        FAMILY_EMPTY: 1,
        FAMILY_SINGLE: single,
        FAMILY_OUTSTAR: outstar,
        FAMILY_INSTAR: instar,
        FAMILY_PATH: path,
    }
    return TripleCountBreakdown(per_type, branch)


def _pair_roles(n1: int, n2: int, n3: int) -> tuple[int, int, str]:
    """For sorted dimensions with a repeat: (repeated n, other c, branch
    name); all three equal give c = n."""
    if n1 == n2:
        return n1, n3, "low-pair"
    return n2, n1, "high-pair"


def count_classes_three_vertices(n1: int, n2: int, n3: int) -> TripleCountBreakdown:
    """The paper's piecewise closed-form display for three vertices of
    dimensions n1<=n2<=n3, evaluated verbatim.

    The display covers the all-distinct, low-pair (n1=n2<n3) and all-equal
    shapes; the remaining shape n1<n2=n3 is evaluated by the low-pair
    branch with the repeated value in the first role.  Its equal-dimension
    branches miss the swap of the two equal-dimension vertices, so they
    disagree with orbit enumeration, e.g. 13 against 14 at (1,1,2).
    count_classes_three_vertices_corrected adds the three missed swap terms
    to this display, which is kept as its record.
    """
    if not 1 <= n1 <= n2 <= n3:
        raise ValueError("need 1 <= n1 <= n2 <= n3")
    if n1 < n2 < n3:
        dims = (n1, n2, n3)
        single = sum(2 * _half(n) for n in dims)
        outstar = sum(outstar_term(n) for n in dims)
        instar = sum(
            _half(dims[i]) * _half(dims[j]) for i in range(3) for j in range(i + 1, 3)
        )
        path = sum(
            count_path_classes(dims[i], dims[j])
            for i in range(3)
            for j in range(3)
            if i != j
        )
        return _triple_breakdown(single, outstar, instar, path, "distinct")
    if n1 == n2 == n3:
        return _triple_breakdown(
            _half(n1),
            outstar_term(n1),
            _half(n1) ** 2,
            count_path_classes(n1, n1),
            "all-equal",
        )
    n, c, branch = _pair_roles(n1, n2, n3)
    return _triple_breakdown(
        _half(n) + _half(c),
        outstar_term(n) + outstar_term(c),
        _half(n) * _half(c) + _half(n) ** 2,
        count_path_classes(n, n) + count_path_classes(n, c) + count_path_classes(c, n),
        branch,
    )


def count_classes_three_vertices_corrected(
    n1: int, n2: int, n3: int
) -> TripleCountBreakdown:
    """Swap-aware closed-form class count for three vertices of dimensions
    n1<=n2<=n3: the display (count_classes_three_vertices) plus the three
    swap terms it misses, family by family.

    All-distinct shapes have no swap and keep the display.  Otherwise n is
    the repeated dimension and c the other one (c = n when all three are
    equal), and h(n) = floor((n+1)/2).  An edge between the two dimension-n
    vertices has h(n) classes either way, so single-edge gains h(n) when
    c != n; two dimension-n sinks of one source swap, so out-star gains
    count_unordered_outstar_classes(c) - outstar_term(c); two dimension-n
    sources of one sink swap, so in-star gains
    count_unordered_instar_classes(n) - h(n)**2.  The pair branch relies on
    outstar_term(n) == count_outstar_classes(n) in both parities.
    """
    display = count_classes_three_vertices(n1, n2, n3)
    if display.branch == "distinct":
        return display
    n, c, _ = _pair_roles(n1, n2, n3)
    per_type = display.per_type
    return _triple_breakdown(
        per_type[FAMILY_SINGLE] + (_half(n) if c != n else 0),
        per_type[FAMILY_OUTSTAR] + count_unordered_outstar_classes(c) - outstar_term(c),
        per_type[FAMILY_INSTAR] + count_unordered_instar_classes(n) - _half(n) ** 2,
        per_type[FAMILY_PATH],
        display.branch,
    )


def brute_three_vertex_breakdown(n1: int, n2: int, n3: int) -> TripleCountBreakdown:
    """Orbit-enumeration counterpart of the three-vertex closed forms: tallies
    the classes of equivalence.sliced_orbits per shape family, read off
    the covers of each class's poset."""
    per_type = {family: 0 for family in _FAMILY_OF_COVERS.values()}
    for report in sliced_orbits(DimensionFunction.of(n1, n2, n3)):
        covers = report.poset.covers
        shape = len({a for a, _ in covers}), len({b for _, b in covers})
        per_type[_FAMILY_OF_COVERS[shape]] += 1
    return TripleCountBreakdown(per_type, "brute-force")
