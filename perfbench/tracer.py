"""Run-time tracing of the wdag layers, bound from outside the library.

``Tracer.install()`` replaces chosen public functions by wrappers at every
binding a ``wdag`` module holds for them, so ``digraph.all_principal_minors_one``
is traced as well as ``gf2.all_principal_minors_one``.  Nothing under
``src/`` is edited; ``uninstall()`` puts the originals back.

Three kinds of wrapper:

* ``span``: one span per call (name, start, end, parent span);
* ``gen``: a generator function, one span per resumption, so the time a
  consumer spends between two items is not charged to the generator;
  items yielded are counted by the name of the span that asked for them;
* ``count``: a bare call counter for functions called millions of times.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

SPAN, GEN, COUNT = "span", "gen", "count"

MOVES = (
    "equivalence.local_complement",
    "equivalence.permute_out_weights",
    "equivalence.sigma_k_local_complement",
    "equivalence.reorder_vertices",
)
PARTITIONS = ("equivalence.count_equivalence_classes", "formulas.brute_three_vertex_breakdown")

# (module, attribute, kind); the span name is the module's last part and the attribute.
TARGETS = (
    ("wdag.gf2", "all_principal_minors_one", SPAN),
    ("wdag.permutation", "reduce_top", COUNT),
    ("wdag.digraph", "VWDigraph.__init__", COUNT),
    ("wdag.digraph", "dag_census", GEN),
    ("wdag.digraph", "enumerate_acyclic", GEN),
    ("wdag.digraph", "count_acyclic", SPAN),
    ("wdag.digraph", "has_unit_principal_minors", SPAN),
    *(("wdag.equivalence", name.split(".")[1], SPAN) for name in MOVES),
    ("wdag.equivalence", "orbit", SPAN),
    ("wdag.equivalence", "count_equivalence_classes", SPAN),
    ("wdag.equivalence", "facet_permutation_action", SPAN),
    ("wdag.formulas", "outstar_orbit_oracle", SPAN),
    ("wdag.formulas", "path_orbit_oracle", SPAN),
    ("wdag.formulas", "brute_three_vertex_breakdown", SPAN),
    ("wdag.cyclestats", "rising_factorial", SPAN),
    ("wdag.cyclestats", "stirling1", SPAN),
    ("wdag.cyclestats", "stirling1_all_divisible", SPAN),
    ("wdag.cyclestats", "stirling1_by_even", SPAN),
    ("wdag.cyclestats", "cycle_type_census", SPAN),
    ("wdag.cyclestats", "verify_identity", SPAN),
    ("wdag.cli", "main", SPAN),
)


# Per-call quantities summed by span name, from (positional args, result).
HOOKS = {
    "equivalence.orbit": lambda args, result: result.size,
    "digraph.has_unit_principal_minors": lambda args, result: int(result),
    # Points of the set each Burnside oracle partitions, as its docstring
    # defines it: pairs of nonzero dim-n vectors; triples (u, w, w').
    "formulas.outstar_orbit_oracle": lambda args, result: ((1 << args[0]) - 1) ** 2,
    "formulas.path_orbit_oracle": lambda args, result: (
        ((1 << args[0]) - 1) * ((1 << args[1]) - 1) * (1 << args[1])
    ),
}


def self_times(parents, durations) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = list(durations)
    for child, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[child]
    return own


class Tracer:
    def __init__(self) -> None:
        self._table: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.sums: defaultdict[str, int] = defaultdict(int)
        # (generator span name, name of the span that consumed the item) -> items
        self.yields: defaultdict[tuple[str, str | None], int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Start a new pass: fresh span arrays (earlier ones stay with whoever
        took them from spans()) and zeroed counts; wrappers stay installed."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts.clear()
        self.sums.clear()
        self.yields.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._table)
            self._table.append(name)
        return self._ids[name]

    def name_of(self, span: int) -> str | None:
        return self._table[self.names[span]] if span >= 0 else None

    # -- wrappers -----------------------------------------------------------

    def _begin(self, nid: int) -> int:
        i = len(self.names)
        self.names.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, func):
        nid = self._name_id(name)
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            i = self._begin(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self._end(i)
            if hook is not None:
                self.sums[name] += hook(args, result)
            return result

        return traced

    def generator(self, name: str, func):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                i = self._begin(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._end(i)
                self.yields[(name, self.name_of(self.parents[i]))] += 1
                yield item

        return traced

    def counter(self, name: str, func):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return traced

    # -- binding ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each of its bindings in the loaded wdag modules."""
        make = {SPAN: self.span, GEN: self.generator, COUNT: self.counter}
        for module_name, attr, kind in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            if "." in attr:  # a method: patch the class
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._rebind(owner, method, make[kind](name, getattr(owner, method)))
                continue
            original = getattr(module, attr)
            wrapper = make[kind](name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "wdag" and not mod_name.startswith("wdag."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, binding, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; spans per parent name."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = self_times(self.parents, durations)
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        under: defaultdict[tuple[str, str | None], int] = defaultdict(int)
        for i, nid in enumerate(self.names):
            name = self._table[nid]
            calls[name] += 1
            total[name] += durations[i]
            self_s[name] += own[i]
            under[(name, self.name_of(self.parents[i]))] += 1
        return {"calls": calls, "total": total, "self": self_s, "under": under}

    def spans(self) -> tuple:
        """This pass's spans as (names, starts, ends, parents) rows, names resolved."""
        table = list(self._table)
        return [table[n] for n in self.names], self.starts, self.ends, self.parents


def write_spans(path, passes) -> None:
    """Write the spans of every traced pass as gzip CSV:
    pass, span, parent, name, start, end (parent -1 is a root)."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("pass,span,parent,name,start_s,end_s\n")
        for index, (names, starts, ends, parents) in enumerate(passes):
            for i, name in enumerate(names):
                out.write(f"{index},{i},{parents[i]},{name},{starts[i]:.9f},{ends[i]:.9f}\n")


def _rate(num: float, seconds: float) -> float:
    return num / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, cli_lines: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  A layer that did not run
    in the pass reports 0."""
    agg = tracer.aggregate()
    calls, total, own, under = agg["calls"], agg["total"], agg["self"], agg["under"]
    counts, sums = tracer.counts, tracer.sums

    def yielded(name: str) -> int:
        return sum(v for (gen, _), v in tracer.yields.items() if gen == name)

    moves = sum(calls[m] for m in MOVES)
    moves_in_orbit = sum(under[(m, "equivalence.orbit")] for m in MOVES)
    enumerated = sum(tracer.yields[("digraph.enumerate_acyclic", p)] for p in PARTITIONS)
    orbits_started = sum(under[("equivalence.orbit", p)] for p in PARTITIONS)
    oracles = ("formulas.outstar_orbit_oracle", "formulas.path_orbit_oracle")
    return {
        "gf2.principal_minor_checks": calls["gf2.all_principal_minors_one"],
        "gf2.principal_minor_checks_per_s": _rate(
            calls["gf2.all_principal_minors_one"], total["gf2.all_principal_minors_one"]
        ),
        "permutation.reduce_top.calls": counts["permutation.reduce_top"],
        "digraph.graphs_built": counts["digraph.VWDigraph.__init__"],
        "digraph.enumerate.graphs_per_s": _rate(
            yielded("digraph.enumerate_acyclic"), total["digraph.enumerate_acyclic"]
        ),
        "digraph.enumerate.self_s": own["digraph.enumerate_acyclic"],
        "digraph.dag_census.dags_per_s": _rate(
            yielded("digraph.dag_census"), total["digraph.dag_census"]
        ),
        "digraph.membership.checks_per_s": _rate(
            calls["digraph.has_unit_principal_minors"],
            total["digraph.has_unit_principal_minors"],
        ),
        "digraph.membership.accept_ratio": _rate(
            sums["digraph.has_unit_principal_minors"],
            calls["digraph.has_unit_principal_minors"],
        ),
        "equivalence.moves.applications": moves,
        "equivalence.moves.per_s": _rate(moves, sum(total[m] for m in MOVES)),
        "equivalence.orbit.members_per_s": _rate(
            sums["equivalence.orbit"], total["equivalence.orbit"]
        ),
        "equivalence.orbit.self_s": own["equivalence.orbit"],
        "equivalence.orbit.new_member_ratio": _rate(sums["equivalence.orbit"], moves_in_orbit),
        "equivalence.classes.skip_ratio": _rate(enumerated - orbits_started, enumerated),
        "equivalence.facet_action.calls_per_s": _rate(
            calls["equivalence.facet_permutation_action"],
            total["equivalence.facet_permutation_action"],
        ),
        "formulas.outstar_oracle.self_s": own["formulas.outstar_orbit_oracle"],
        "formulas.path_oracle.self_s": own["formulas.path_orbit_oracle"],
        "formulas.oracle.elements_per_s": _rate(
            sum(sums[o] for o in oracles), sum(total[o] for o in oracles)
        ),
        "formulas.brute_breakdown.self_s": own["formulas.brute_three_vertex_breakdown"],
        "cyclestats.self_s": sum((v for k, v in own.items() if k.startswith("cyclestats.")), 0.0),
        "cli.enumerate.lines_per_s": _rate(cli_lines, total["cli.main"]),
    }
