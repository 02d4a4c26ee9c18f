"""Command-line front end.

Verbs: count, enumerate, apply, orbit, verify, table.  Results go to
stdout, diagnostics to stderr; exit status is 0 on success, 1 on a
verification failure or exceeded budget, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import chain, combinations, combinations_with_replacement, islice, product
from typing import Iterable, Iterator, Sequence

from . import cyclestats, formulas
from .digraph import (
    BudgetError,
    DimensionFunction,
    count_acyclic,
    count_dags,
    dumps_graph,
    enumerate_acyclic,
    enumerate_lines,
    graph_from_json,
    scalar_reduced_matrices,
    derangement_sum,
    cycle_sum,
    graph_to_json,
    reduced_matrix,
    graph_from_reduced,
    VWDigraph,
)
from .equivalence import (
    facet_move,
    facet_permutation_action,
    local_complement,
    orbit,
    permute_out_weights,
    reorder_vertices,
    sigma_k_local_complement,
    sigma_local_complement,
    sliced_orbits,
)
from .permutation import Permutation, all_permutations


class UsageError(ValueError):
    pass


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"invalid {what} {text!r}") from exc


def _parse_omega(text: str) -> DimensionFunction:
    dims = tuple(_parse_ints(text, "dimension list"))
    try:
        return DimensionFunction(dims)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_graph(path: str) -> VWDigraph:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    doc = json.loads(raw)  # malformed JSON surfaces position info via JSONDecodeError
    return graph_from_json(doc)


@contextmanager
def _all_digits() -> Iterator[None]:
    """Lift the interpreter's limit on the decimal digits of an int, where it
    has one, until the block ends, so that count and table print their exact
    integers in full.  Parsed input keeps the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _cmd_count(args) -> int:
    omega = _parse_omega(args.omega)
    if args.kind == "dj":
        value = count_acyclic(omega)
        source = "formula"
        if args.brute:
            brute = sum(1 for _ in enumerate_acyclic(omega))
            if brute != value:
                print(
                    f"count mismatch: formula {value} vs enumeration {brute}",
                    file=sys.stderr,
                )
                return 1
            source = "formula+brute"
    else:
        formula_value = None
        if omega.m == 2:
            formula_value = formulas.count_classes_two_vertices(*omega.dims)
            formula_source = "formula"
        elif omega.m == 3:
            corrected = formulas.count_classes_three_vertices_corrected(*sorted(omega.dims))
            formula_value, formula_source = corrected.total, "formula (corrected three-vertex form)"
        if formula_value is not None and not args.brute:
            value, source = formula_value, formula_source
        else:
            value, source = sum(1 for _ in sliced_orbits(omega)), "brute"
            if formula_value is not None and formula_value != value:
                print(value)
                print(
                    f"closed form gives {formula_value}, orbit enumeration gives {value}",
                    file=sys.stderr,
                )
                return 1
    with _all_digits():
        print(value)
    print(f"source: {source}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# enumerate / apply / orbit
# ---------------------------------------------------------------------------


# Lines per write of `wdag enumerate`.  One write per line cost about as
# much as rendering the line.  At 64 lines a block the peak memory stays
# that of one write per line; 256 lines, or a copy of each block, added
# 0.15-0.2 MB.
_ENUMERATE_BLOCK = 64


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit must be at least 0, got {args.limit}")
    lines = enumerate_lines(_parse_omega(args.omega))
    # The first line (the empty graph) is pulled before --limit applies, so a
    # refused shape is refused even under --limit 0.
    lines = islice(chain((next(lines),), lines), args.limit)
    write = sys.stdout.write
    while block := list(islice(lines, _ENUMERATE_BLOCK)):
        block.append("")  # so the join ends the last line too, without a copy
        write("\n".join(block))
    return 0


def _int_field(desc: dict, name: str) -> int:
    value = desc[name]
    if type(value) is not int:  # JSON true and 1.5 are not vertices or k
        raise UsageError(
            f"descriptor field {name!r} must be an integer, got {json.dumps(value)}"
        )
    return value


def _perm_field(desc: dict, name: str) -> Permutation:
    images = desc[name]
    if not isinstance(images, list) or any(type(x) is not int for x in images):
        got = json.dumps(images)
        raise UsageError(f"descriptor field {name!r} must be a list of integers, got {got}")
    return Permutation(tuple(images))


# A descriptor field maps to its JSON reader and to the reader of its --flag's
# text: argparse reads an integer flag, _parse_ints the images of a permutation.
_FIELDS = {
    "vertex": (_int_field, int),
    "sigma": (_perm_field, partial(_parse_ints, what="permutation")),
    "k": (_int_field, int),
    "mu": (_perm_field, partial(_parse_ints, what="vertex reordering")),
}

# A `wdag apply` operation maps to its move and to the fields the move takes,
# in the order it takes them.
MOVES = {
    "lc": (local_complement, ("vertex",)),
    "sigma-lc": (sigma_local_complement, ("vertex", "sigma")),
    "sigma-k-lc": (sigma_k_local_complement, ("vertex", "sigma", "k")),
    "permute-weights": (permute_out_weights, ("vertex", "sigma")),
    "reorder": (reorder_vertices, ("mu",)),
}


def _apply_descriptor(g: VWDigraph, desc: dict) -> VWDigraph:
    if not isinstance(desc, dict):
        raise UsageError(f"descriptor {desc!r} is not a JSON object")
    op = desc.get("op")
    if not isinstance(op, str) or op not in MOVES:
        raise UsageError(f"unknown operation {op!r}")
    move, fields = MOVES[op]
    unused = [name for name in desc if name != "op" and name not in fields]
    if unused:
        raise UsageError(f"operation {op!r} takes no field {unused[0]!r}")
    return move(g, *(_FIELDS[name][0](desc, name) for name in fields))


def _cmd_apply(args) -> int:
    g = _load_graph(args.input)
    flags = {name: value for name in _FIELDS if (value := getattr(args, name)) is not None}
    if args.op_json is not None:
        if args.op is not None or flags:
            raise UsageError("--op-json takes neither --op nor a move's flags")
        parsed = json.loads(args.op_json)
        descriptors = parsed if isinstance(parsed, list) else [parsed]
    elif args.op is not None:
        # A flag the operation does not take stays text; _apply_descriptor refuses it first.
        taken = MOVES[args.op][1]
        fields = {name: _FIELDS[name][1](flags[name]) for name in taken if name in flags}
        descriptors = [{"op": args.op, **flags, **fields}]
    else:
        raise UsageError("apply needs --op or --op-json")
    for desc in descriptors:
        try:
            g = _apply_descriptor(g, desc)
        except KeyError as exc:
            raise UsageError(f"descriptor missing field {exc}") from exc
    print(dumps_graph(g))
    return 0


def _cmd_orbit(args) -> int:
    g = _load_graph(args.input)
    report = orbit(g, include_members=args.members)
    doc = {"canonical": graph_to_json(report.canonical), "size": report.size}
    if args.members:
        doc["members"] = [graph_to_json(member) for member in report.members]
    print(json.dumps(doc, separators=(", ", ": ")))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
# A check yields (label, ok, detail) lines for a max_n; a suite is a tuple of
# checks.  The acceptance tests call the same checks.


def _agree(label: str, **sources):
    """The check line for sources that must all be equal: ok when they are,
    and the detail names each source's value, in order."""
    first, *rest = sources.values()
    detail = " ".join(f"{name}={value}" for name, value in sources.items())
    return label, all(value == first for value in rest), detail


def _small_shapes(max_dim: int, max_vertices: int) -> Iterable[DimensionFunction]:
    for m in range(1, max_vertices + 1):
        for dims in product(range(1, max_dim + 1), repeat=m):
            yield DimensionFunction(dims)


def _check_identities(max_n: int):
    for name in cyclestats.IDENTITY_NAMES:
        report = cyclestats.verify_identity(name, max_n)
        yield f"identity {name} (max_n={max_n})", report.ok, "; ".join(
            report.violations[:3]
        )
    for n in range(min(max_n, 7) + 1):
        # Permutations by cycles m, by (m, even cycles e), and by (d, m)
        # with every cycle length divisible by d.
        by_m, by_even, by_d = Counter(), Counter(), Counter()
        for lengths, count in cyclestats.cycle_type_census(n).items():
            m = len(lengths)
            by_m[m] += count
            by_even[m, sum(1 for length in lengths if length % 2 == 0)] += count
            for d in (1, 2, 3, 4):
                if all(length % d == 0 for length in lengths):
                    by_d[d, m] += count
        ok = (
            all(by_m[m] == cyclestats.stirling1(n, m) for m in range(n + 1))
            and all(
                by_d[d, m] == cyclestats.stirling1_all_divisible(d, n, m)
                for d in (1, 2, 3, 4)
                for m in range(n + 1)
            )
            and all(
                by_even[m, e] == cyclestats.stirling1_by_even(n, m, e)
                for m in range(n + 1)
                for e in range(n // 2 + 1)
            )
        )
        yield f"cycle census agreement n={n}", ok, ""


def _check_burnside_oracles(max_n: int):
    for n in range(1, min(max_n, 6) + 1):
        yield _agree(
            f"out-star n={n}",
            closed=formulas.count_outstar_classes(n),
            term=formulas.outstar_term(n),
            oracle=formulas.outstar_orbit_oracle(n),
        )
    for n in range(1, min(max_n, 6) + 1):
        yield _agree(
            f"unordered out-star n={n}",
            closed=formulas.count_unordered_outstar_classes(n),
            oracle=formulas.unordered_outstar_orbit_oracle(n),
        )
        yield _agree(
            f"unordered in-star n={n}",
            closed=formulas.count_unordered_instar_classes(n),
            oracle=formulas.unordered_instar_orbit_oracle(n),
        )
    cap = min(max_n, 5)
    for n, m in product(range(1, cap + 1), repeat=2):
        yield _agree(
            f"path family n={n} m={m}",
            closed=formulas.count_path_classes(n, m),
            oracle=formulas.path_orbit_oracle(n, m),
        )


def _check_two_vertex(max_n: int):
    cap = min(max_n, 5)
    for n1, n2 in product(range(1, cap + 1), repeat=2):
        yield _agree(
            f"two-vertex classes ({n1},{n2})",
            closed=formulas.count_classes_two_vertices(n1, n2),
            brute=sum(1 for _ in sliced_orbits(DimensionFunction.of(n1, n2))),
        )


def _check_facet_action(max_n: int):
    for dims in [(1, 2), (2, 2), (1, 2, 3)]:
        # Each move is bound once per shape; the graphs stay the outer loop,
        # as the oracle keeps the columns of one graph at a time.
        moves = [
            (v, sigma_full, facet_move(v, sigma_full))
            for v, d in enumerate(dims, start=1)
            for sigma_full in all_permutations(d + 1)
        ]
        agree = [
            facet_permutation_action(g, v, sigma_full) == move(g)
            for g in enumerate_acyclic(DimensionFunction(dims))
            for v, sigma_full, move in moves
        ]
        bad = agree.count(False)
        detail = f"{bad}/{len(agree)} disagreements"
        yield f"matrix action vs moves, dims={dims}", bad == 0, detail


def _check_round_trip(max_n: int):
    for omega in _small_shapes(2, 3):
        ok = all(
            graph_from_reduced(reduced_matrix(g)) == g for g in enumerate_acyclic(omega)
        )
        yield f"graph<->matrix round trip dims={omega.dims}", ok, ""


def _check_count_acyclic(max_n: int):
    for omega in _small_shapes(3, 3):
        yield _agree(
            f"count vs enumeration dims={omega.dims}",
            count=count_acyclic(omega),
            enumeration=sum(1 for _ in enumerate_acyclic(omega)),
        )


def _nonvanishing_sum(mat) -> str:
    """Names the first derangement or cycle sum of mat that is not 0."""
    n = mat.n
    vertices = range(1, n + 1)
    where = f"n={n} rows={mat.rows}"
    if derangement_sum(mat) != 0:
        return f"derangement sum, {where}"
    for size in range(n - 1):
        for blocked in combinations(vertices, size):
            for i in vertices:
                if i not in blocked and cycle_sum(mat, blocked, i) != 0:
                    return f"cycle sum blocked={blocked} vertex={i}, {where}"
    return ""


def _check_vanishing_sums(max_n: int):
    for n in range(2, min(max_n, 4) + 1):
        members = list(scalar_reduced_matrices(n))
        failure = next(filter(None, map(_nonvanishing_sum, members)), "")
        dags = count_dags(n)
        yield (
            f"vanishing sums n={n}",
            not failure and len(members) == dags,
            failure or f"{len(members)} members, count_dags({n})={dags}",
        )


def _check_three_vertex_classes(max_n: int):
    for dims in combinations_with_replacement(range(1, min(max_n, 4) + 1), 3):
        yield _agree(
            "three-vertex classes ({},{},{})".format(*dims),
            corrected=formulas.count_classes_three_vertices_corrected(*dims).per_type,
            brute=formulas.brute_three_vertex_breakdown(*dims).per_type,
        )


SUITES = {
    "identities": (_check_identities,),
    "burnside": (_check_burnside_oracles, _check_two_vertex),
    "oracle": (_check_facet_action,),
    "roundtrip": (_check_round_trip, _check_count_acyclic, _check_vanishing_sums),
    "classes": (_check_three_vertex_classes,),
}


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        raise UsageError(f"--max-n must be at least 1, got {args.max_n}")
    chosen = list(SUITES) if args.suite == "all" else [args.suite]
    checks = failures = 0
    for name in chosen:
        lines = (line for check in SUITES[name] for line in check(args.max_n))
        for label, ok, detail in lines:
            checks += 1
            if ok:
                print(f"ok   {name}: {label}")
            else:
                failures += 1
                print(f"FAIL {name}: {label}" + (f" ({detail})" if detail else ""))
    if not checks:
        print("no checks ran")
        return 1
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _three_simplex_rows(max_n: int):
    for dims in combinations_with_replacement(range(1, max_n + 1), 3):
        breakdown = formulas.count_classes_three_vertices_corrected(*dims)
        yield [*dims, breakdown.total, breakdown.branch]


def _cycle_rows(kind: str, value):
    """The rows [kind, n, m, value(n, m)] for 0 <= m <= n <= max_n."""
    return lambda max_n: (
        [kind, n, m, value(n, m)] for n in range(max_n + 1) for m in range(n + 1)
    )


def _cnme_rows(max_n: int):
    for n in range(max_n + 1):
        for m in range(n + 1):
            for e in range(n // 2 + 1):
                yield ["cnme", n, m, e, cyclestats.stirling1_by_even(n, m, e)]


# A family maps to (least --max, header, rows up to --max).
TABLES = {
    "three-simplices": (1, ["n1", "n2", "n3", "total", "branch"], _three_simplex_rows),
    "stirling": (0, ["kind", "n", "m", "value"], _cycle_rows("c", cyclestats.stirling1)),
    "c2": (
        0,
        ["kind", "n", "m", "value"],
        _cycle_rows("c2", partial(cyclestats.stirling1_all_divisible, 2)),
    ),
    "cnme": (0, ["kind", "n", "m", "e", "value"], _cnme_rows),
}


def _cmd_table(args) -> int:
    least, header, rows_up_to = TABLES[args.family]
    if args.max < least:
        raise UsageError(f"--max for {args.family} must be at least {least}, got {args.max}")
    rows = rows_up_to(args.max)
    with _all_digits():
        if args.format == "csv":
            print(",".join(header))
            for row in rows:
                print(",".join(str(x) for x in row))
        else:
            print(json.dumps([dict(zip(header, row)) for row in rows], separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, a bad flag value, an unknown flag or a missing
    verb, are usage errors, which ``main`` reports and returns 2 for
    instead of exiting; --help still prints and exits 0.  Each verb's
    parser is one too, since argparse makes them of the parent's class."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wdag",
        description="Exact enumeration of vector-weighted acyclic digraphs "
        "and their local-complementation equivalence classes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_count = sub.add_parser("count", help="count graphs or equivalence classes")
    p_count.add_argument("kind", choices=["dj", "weak"])
    p_count.add_argument("--omega", required=True, help="dimensions, e.g. 1,2,3")
    p_count.add_argument("--brute", action="store_true")
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list acyclic weighted digraphs as JSON lines")
    p_enum.add_argument("--omega", required=True)
    p_enum.add_argument("--limit", type=int, default=None)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_apply = sub.add_parser("apply", help="apply an equivalence move to a graph")
    p_apply.add_argument("--op", choices=list(MOVES))
    p_apply.add_argument("--op-json", help="JSON descriptor or list of descriptors")
    for name, (_, read_flag) in _FIELDS.items():
        if read_flag is int:
            p_apply.add_argument(f"--{name}", type=int)
        else:
            p_apply.add_argument(f"--{name}", help="one-line images, e.g. 2,3,1")
    p_apply.add_argument("--input", required=True, help="graph JSON path or - for stdin")
    p_apply.set_defaults(func=_cmd_apply)

    p_orbit = sub.add_parser("orbit", help="orbit of a graph under all moves")
    p_orbit.add_argument("--input", required=True)
    p_orbit.add_argument("--members", action="store_true")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_verify.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="emit value tables")
    p_table.add_argument("--family", required=True, choices=list(TABLES))
    p_table.add_argument("--max", type=int, required=True)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.set_defaults(func=_cmd_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # The reader stopped, as `wdag enumerate | head` does: end as --limit
        # would.  The unwritten output is sent to the null device, so the
        # interpreter's final flush of stdout stays quiet.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # an in-memory stream has no descriptor
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    except json.JSONDecodeError as exc:
        print(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
