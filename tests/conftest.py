from pathlib import Path

import pytest
from hypothesis import strategies as st

from wdag.digraph import DimensionFunction, VWDigraph
from wdag.gf2 import GF2Vector
from wdag.permutation import Permutation

# One line per acceptance criterion, echoed after the run regardless of
# output capturing.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(
            acceptance_lines, key=lambda s: int(s.split(":")[0].rsplit(" ", 1)[1])
        ):
            terminalreporter.write_line(line)


# The class census, read once: one line per sorted shape,
# "dims count_acyclic classes".
CENSUS = [
    (tuple(map(int, dims.split(","))), int(acyclic), int(classes))
    for dims, acyclic, classes in (
        line.split()
        for line in (Path(__file__).parent / "data" / "class_census.txt")
        .read_text(encoding="utf-8")
        .splitlines()
        if not line.startswith("#")
    )
]


def census_classes(dims: str) -> str:
    """The class count pinned for one shape in the census, as printed."""
    shape = tuple(map(int, dims.split(",")))
    for line_dims, _, classes in CENSUS:
        if line_dims == shape:
            return str(classes)
    raise KeyError(dims)


@pytest.fixture
def fig_graph() -> VWDigraph:
    """Worked four-vertex example: dims (2,3,3,3), four edges."""
    return VWDigraph(
        DimensionFunction.of(2, 3, 3, 3),
        {
            (1, 2): GF2Vector.from_string("10"),
            (1, 4): GF2Vector.from_string("11"),
            (4, 3): GF2Vector.from_string("101"),
            (4, 2): GF2Vector.from_string("111"),
        },
    )


def vectors(dim: int) -> st.SearchStrategy[GF2Vector]:
    return st.integers(min_value=0, max_value=(1 << dim) - 1).map(
        lambda bits: GF2Vector(dim, bits)
    )


def permutations_of(n: int) -> st.SearchStrategy[Permutation]:
    return st.permutations(list(range(1, n + 1))).map(lambda xs: Permutation(tuple(xs)))
