"""Exact enumeration of vector-weighted acyclic digraphs over GF(2) and
their equivalence classes under local complementation, with closed-form
counts verified by brute force."""

from .digraph import (
    BudgetError,
    DimensionFunction,
    VWDigraph,
    VectorMatrix,
    count_acyclic,
    enumerate_acyclic,
    graph_from_json,
    graph_to_json,
    is_acyclic,
)
from .equivalence import (
    OrbitReport,
    count_equivalence_classes,
    facet_permutation_action,
    local_complement,
    orbit,
    permute_out_weights,
    reorder_vertices,
    sigma_k_local_complement,
    sigma_local_complement,
)
from .gf2 import GF2Matrix, GF2Vector, gf2_det, gf2_permute
from .permutation import Permutation

__all__ = [
    "BudgetError",
    "DimensionFunction",
    "GF2Matrix",
    "GF2Vector",
    "OrbitReport",
    "Permutation",
    "VWDigraph",
    "VectorMatrix",
    "count_acyclic",
    "count_equivalence_classes",
    "enumerate_acyclic",
    "facet_permutation_action",
    "gf2_det",
    "gf2_permute",
    "graph_from_json",
    "graph_to_json",
    "is_acyclic",
    "local_complement",
    "orbit",
    "permute_out_weights",
    "reorder_vertices",
    "sigma_k_local_complement",
    "sigma_local_complement",
]

__version__ = "0.1.0"
