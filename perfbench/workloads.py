"""The benchmark's three workloads: inputs, one timed pass, expected values.

Every workload is a pair of functions.  ``build(seed)`` makes the inputs
and runs before timing starts; ``run(inputs)`` is one timed pass and
returns a mapping from a result label to a JSON-able value.
``expected(inputs)`` gives the value each label must have: pinned values
measured by enumeration at the commit that introduced the benchmark
(``pinned.json``), plus values known by construction for the seeded
membership sample.

Library functions are called through their module (``digraph.orbit``,
not a name imported into this file), so the traced run sees every call
once its wrappers are bound into the ``wdag`` modules.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations, product
from pathlib import Path

from wdag import cli, cyclestats, digraph, equivalence, formulas, permutation
from wdag.digraph import DimensionFunction, VectorMatrix, VWDigraph
from wdag.gf2 import GF2Vector

PINNED_PATH = Path(__file__).with_name("pinned.json")

# ---------------------------------------------------------------------------
# classes: exhaustive orbit partition
# ---------------------------------------------------------------------------

BREAKDOWN_SHAPES = ((1, 1, 2), (1, 2, 3), (2, 3, 3), (3, 3, 3))
PARTITION_SHAPES = ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2))


def _readme_graph() -> VWDigraph:
    """The four-vertex worked example of the README, orbit size 432."""
    return VWDigraph(
        DimensionFunction.of(2, 3, 3, 3),
        {
            (1, 2): GF2Vector.from_string("10"),
            (1, 4): GF2Vector.from_string("11"),
            (4, 3): GF2Vector.from_string("101"),
            (4, 2): GF2Vector.from_string("111"),
        },
    )


def _complete_ones_graph() -> VWDigraph:
    """Every forward edge i<j with the all-ones weight on (3,3,3,3)."""
    omega = DimensionFunction.of(3, 3, 3, 3)
    ones = GF2Vector.all_ones(3)
    return VWDigraph(omega, {(i, j): ones for i in range(1, 5) for j in range(i + 1, 5)})


def _members_digest(members) -> str:
    """Order-independent digest of a set of graphs."""
    docs = sorted(json.dumps(digraph.graph_to_json(g), sort_keys=True) for g in members)
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()


def build_classes(seed: int) -> dict:
    del seed  # exhaustive: the inputs do not depend on the seed
    return {
        "orbits": [("readme (2,3,3,3)", _readme_graph()), ("ones (3,3,3,3)", _complete_ones_graph())]
    }


def run_classes(inputs: dict) -> dict:
    out = {}
    for dims in BREAKDOWN_SHAPES:
        b = formulas.brute_three_vertex_breakdown(*dims)
        out[f"breakdown {dims}"] = {"total": b.total, "per_type": b.per_type}
    for dims in PARTITION_SHAPES:
        out[f"classes {dims}"] = equivalence.count_equivalence_classes(DimensionFunction(dims))
    for name, g in inputs["orbits"]:
        report = equivalence.orbit(g, include_members=True)
        out[f"orbit {name}"] = {"size": report.size, "members": _members_digest(report.members)}
    return out


# ---------------------------------------------------------------------------
# oracles: the checks of `wdag verify --suite all --max-n 6`, through the
# library's public functions
# ---------------------------------------------------------------------------

MAX_N = 6


def build_oracles(seed: int) -> dict:
    del seed  # exhaustive: the inputs do not depend on the seed
    return {"max_n": MAX_N}


def _small_shapes(max_dim: int, max_vertices: int):
    for m in range(1, max_vertices + 1):
        for dims in product(range(1, max_dim + 1), repeat=m):
            yield DimensionFunction(dims)


def _census_agrees(n: int) -> bool:
    census = cyclestats.cycle_type_census(n)

    def tally(pred) -> int:
        return sum(v for t, v in census.items() if pred(t))

    return (
        all(
            tally(lambda t: len(t) == m) == cyclestats.stirling1(n, m)
            for m in range(n + 1)
        )
        and all(
            tally(lambda t: len(t) == m and all(x % d == 0 for x in t))
            == cyclestats.stirling1_all_divisible(d, n, m)
            for d in (1, 2, 3, 4)
            for m in range(n + 1)
        )
        and all(
            tally(lambda t: len(t) == m and sum(1 for x in t if x % 2 == 0) == e)
            == cyclestats.stirling1_by_even(n, m, e)
            for m in range(n + 1)
            for e in range(n // 2 + 1)
        )
    )


def _vanishing_sums_hold(n: int) -> bool:
    for mat in digraph.scalar_reduced_matrices(n):
        if digraph.derangement_sum(mat) != 0:
            return False
        if n >= 3:
            vertices = set(range(1, n + 1))
            for size in range(0, n - 1):
                for blocked in combinations(sorted(vertices), size):
                    for i in sorted(vertices - set(blocked)):
                        if digraph.cycle_sum(mat, blocked, i) != 0:
                            return False
    return True


def _facet_disagreements(dims: tuple[int, ...]) -> list[int]:
    omega = DimensionFunction(dims)
    bad = total = 0
    for g in digraph.enumerate_acyclic(omega):
        for v in range(1, omega.m + 1):
            top_point = omega.dim(v) + 1
            for sigma_full in permutation.all_permutations(top_point):
                total += 1
                image = equivalence.facet_permutation_action(g, v, sigma_full)
                bar = permutation.reduce_top(sigma_full)
                top = sigma_full(top_point)
                if top == top_point:
                    want = equivalence.permute_out_weights(g, v, bar)
                else:
                    want = equivalence.sigma_k_local_complement(g, v, bar, top)
                bad += image != want
    return [bad, total]


def run_oracles(inputs: dict) -> dict:
    max_n = inputs["max_n"]
    out = {}
    # identities
    for name in cyclestats.IDENTITY_NAMES:
        report = cyclestats.verify_identity(name, max_n)
        out[f"identity {name}"] = {"ok": report.ok, "checked": report.checked}
    for n in range(min(max_n, 7) + 1):
        out[f"cycle census n={n}"] = _census_agrees(n)
    # burnside
    for n in range(1, min(max_n, 6) + 1):
        out[f"out-star n={n}"] = [
            formulas.count_outstar_classes(n),
            formulas.outstar_term(n),
            formulas.outstar_orbit_oracle(n),
        ]
    cap = min(max_n, 5)
    for n in range(1, cap + 1):
        for m in range(1, cap + 1):
            out[f"path n={n} m={m}"] = [
                formulas.count_path_classes(n, m),
                formulas.path_orbit_oracle(n, m),
            ]
    for n1 in range(1, min(max_n, 4) + 1):
        for n2 in range(n1, min(max_n, 4) + 1):
            out[f"two-vertex ({n1},{n2})"] = [
                formulas.count_classes_two_vertices(n1, n2),
                equivalence.count_equivalence_classes(DimensionFunction.of(n1, n2)),
            ]
    # matrix action oracle
    for dims in ((1, 2), (2, 2), (1, 2, 3)):
        out[f"facet action {dims}"] = _facet_disagreements(dims)
    # round trip, count vs enumeration, vanishing sums
    for omega in _small_shapes(2, 3):
        out[f"round trip {omega.dims}"] = all(
            digraph.graph_from_reduced(digraph.reduced_matrix(g)) == g
            for g in digraph.enumerate_acyclic(omega)
        )
    for omega in _small_shapes(3, 3):
        out[f"count vs enumeration {omega.dims}"] = [
            digraph.count_acyclic(omega),
            sum(1 for _ in digraph.enumerate_acyclic(omega)),
        ]
    for n in range(2, min(max_n, 4) + 1):
        out[f"vanishing sums n={n}"] = _vanishing_sums_hold(n)
    return out


# ---------------------------------------------------------------------------
# enumerate: enumeration, counting and membership, no orbit work
# ---------------------------------------------------------------------------

CLI_OMEGA = "2,2,2,2"
ENUMERATE_SHAPE = (1, 1, 1, 1, 1)
MEMBERSHIP_SHAPE = (2, 2, 2, 2)
MEMBERSHIP_SAMPLE = 256  # half accepted, half rejected


def _count_shapes():
    for m in range(1, 5):
        yield from product(range(1, 4), repeat=m)


class LineSink(io.TextIOBase):
    """Write-only text stream that counts lines and hashes what it is sent."""

    def __init__(self) -> None:
        super().__init__()
        self.lines = 0
        self._hash = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        self._hash.update(text.encode())
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _random_vector(rng: random.Random, dim: int, nonzero: bool) -> GF2Vector:
    low = 1 if nonzero else 0
    return GF2Vector(dim, rng.randrange(low, 1 << dim))


def _random_acyclic(rng: random.Random, omega: DimensionFunction) -> VWDigraph:
    """Edges only forward along a random vertex order, each with chance 1/2."""
    order = list(range(1, omega.m + 1))
    rng.shuffle(order)
    weights = {}
    for a, b in combinations(range(omega.m), 2):
        if rng.random() < 0.5:
            u, v = order[a], order[b]
            weights[(u, v)] = _random_vector(rng, omega.dim(u), nonzero=True)
    return VWDigraph(omega, weights)


def _random_cyclic_matrix(rng: random.Random, omega: DimensionFunction) -> VectorMatrix:
    """Unit diagonal, random off-diagonal entries, and a directed cycle
    whose entries are all-ones, so every specialization contains it."""
    entries = {}
    for i in range(1, omega.m + 1):
        entries[(i, i)] = GF2Vector.all_ones(omega.dim(i))
        for j in range(1, omega.m + 1):
            if i != j and rng.random() < 0.5:
                entries[(i, j)] = _random_vector(rng, omega.dim(i), nonzero=False)
    cycle = rng.sample(range(1, omega.m + 1), rng.randint(2, omega.m))
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        entries[(u, v)] = GF2Vector.all_ones(omega.dim(u))
    return VectorMatrix.from_entries(omega, entries)


def build_enumerate(seed: int) -> dict:
    rng = random.Random(seed)
    omega = DimensionFunction(MEMBERSHIP_SHAPE)
    sample = []
    for _ in range(MEMBERSHIP_SAMPLE // 2):
        g = _random_acyclic(rng, omega)
        sample.append((digraph.reduced_matrix(g), g))
        sample.append((_random_cyclic_matrix(rng, omega), None))
    rng.shuffle(sample)
    return {"membership": sample}


def run_enumerate(inputs: dict) -> dict:
    out = {}
    sink = LineSink()
    with contextlib.redirect_stdout(sink):
        status = cli.main(["enumerate", "--omega", CLI_OMEGA])
    out[f"cli enumerate {CLI_OMEGA}"] = {
        "status": status,
        "lines": sink.lines,
        "sha256": sink.hexdigest(),
    }
    graphs = edges = 0
    for g in digraph.enumerate_acyclic(DimensionFunction(ENUMERATE_SHAPE)):
        graphs += 1
        edges += len(g.edges)
    out[f"enumerate {ENUMERATE_SHAPE}"] = {"graphs": graphs, "edges": edges}
    for dims in _count_shapes():
        out[f"count_acyclic {dims}"] = digraph.count_acyclic(DimensionFunction(dims))
    for i, (matrix, graph) in enumerate(inputs["membership"]):
        try:
            decoded = digraph.graph_from_reduced(matrix)
        except ValueError:
            out[f"membership {i}"] = "rejected"
        else:
            out[f"membership {i}"] = "accepted" if decoded == graph else "wrong graph"
    return out


# ---------------------------------------------------------------------------
# registry and correctness gate
# ---------------------------------------------------------------------------

WORKLOADS = {
    "classes": (build_classes, run_classes),
    "oracles": (build_oracles, run_oracles),
    "enumerate": (build_enumerate, run_enumerate),
}


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def expected(workload: str, inputs: dict, pinned: dict) -> dict:
    """Every label one pass of the workload must produce, with its value."""
    want = dict(pinned[workload])
    if workload == "enumerate":
        for i, (_, graph) in enumerate(inputs["membership"]):
            want[f"membership {i}"] = "rejected" if graph is None else "accepted"
    return want


def normalize(value):
    """The JSON form of a value, so tuples and lists compare equal."""
    return json.loads(json.dumps(value))


def gate(observed: dict, want: dict) -> list[str]:
    """Labels that fail the check: expected but missing, different from the
    expected value, or produced without an expected value."""
    wrong = [
        label
        for label, value in want.items()
        if label not in observed or normalize(observed[label]) != value
    ]
    return wrong + sorted(set(observed) - set(want))


def cli_lines(observed: dict) -> int:
    """Lines the CLI wrote during a pass, from its results."""
    return sum(v["lines"] for k, v in observed.items() if k.startswith("cli enumerate"))
