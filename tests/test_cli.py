import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import census_classes
from wdag import cli, cyclestats, equivalence, formulas
from wdag.cli import main
from wdag.digraph import DimensionFunction, enumerate_acyclic, graph_to_json

FIG_GRAPH = {
    "omega": [2, 3, 3, 3],
    "edges": [
        {"from": 1, "to": 2, "weight": "10"},
        {"from": 1, "to": 4, "weight": "11"},
        {"from": 4, "to": 2, "weight": "111"},
        {"from": 4, "to": 3, "weight": "101"},
    ],
}


def whole_space_sweep(g, include_members=False):
    raise AssertionError("the CLI counts classes by slices, which never call orbit")


@pytest.fixture
def fig_path(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(FIG_GRAPH))
    return str(path)


class TestCount:
    def test_dj_unit_dimensions(self, capsys):
        assert main(["count", "dj", "--omega", "1,1,1"]) == 0
        assert capsys.readouterr().out == "25\n"

    def test_dj_brute_cross_check(self, capsys):
        assert main(["count", "dj", "--omega", "1,2", "--brute"]) == 0
        out, err = capsys.readouterr()
        assert out == "5\n"
        assert "formula+brute" in err

    def test_weak_formula(self, capsys):
        assert main(["count", "weak", "--omega", "1,2"]) == 0
        out, err = capsys.readouterr()
        assert out == "3\n"
        assert "source: formula" in err

    def test_weak_brute_agreement(self, capsys):
        assert main(["count", "weak", "--omega", "1,2", "--brute"]) == 0
        out, err = capsys.readouterr()
        assert out == "3\n"
        assert "source: brute" in err

    @pytest.mark.parametrize("omega,classes", [("1,1,2", "14"), ("3,3,3", "24")])
    def test_weak_three_vertices_corrected_form(self, capsys, omega, classes):
        # The paper's display gives 13 and 26 here; enumeration gives 14 and 24.
        assert main(["count", "weak", "--omega", omega]) == 0
        out, err = capsys.readouterr()
        assert out == classes + "\n"
        assert "source: formula (corrected three-vertex form)" in err

    def test_weak_brute_agrees_with_corrected_form(self, capsys):
        assert main(["count", "weak", "--omega", "1,1,2", "--brute"]) == 0
        out, err = capsys.readouterr()
        assert out == "14\n"
        assert "source: brute" in err

    def test_weak_brute_mismatch_exits_one(self, capsys, monkeypatch):
        wrong = formulas.count_classes_three_vertices(1, 1, 2)
        monkeypatch.setattr(
            formulas, "count_classes_three_vertices_corrected", lambda *dims: wrong
        )
        assert main(["count", "weak", "--omega", "1,1,2", "--brute"]) == 1
        out, err = capsys.readouterr()
        assert out == "14\n"
        assert "closed form gives 13, orbit enumeration gives 14" in err

    def test_weak_four_vertices_is_brute(self, capsys):
        assert main(["count", "weak", "--omega", "1,1,1,1"]) == 0
        assert capsys.readouterr() == (census_classes("1,1,1,1") + "\n", "source: brute\n")

    def test_weak_three_distinct_formula(self, capsys):
        assert main(["count", "weak", "--omega", "1,2,3"]) == 0
        out, err = capsys.readouterr()
        assert out == "48\n"
        assert "source: formula" in err

    def test_weak_brute_counts_by_slices(self, capsys, monkeypatch):
        monkeypatch.setattr(equivalence, "orbit", whole_space_sweep)
        assert main(["count", "weak", "--omega", "1,1,1,1,1"]) == 0
        assert capsys.readouterr() == (census_classes("1,1,1,1,1") + "\n", "source: brute\n")

    def test_weak_refuses_before_growing_posets(self, capsys):
        # Distinct dimensions: S_omega is trivial, so every acyclic graph is a
        # slice graph.  The graphs forward in the order m, ..., 1 number
        # 2^(1*0 + 2*1 + ... + m*(m-1)): 2^168 at m = 8 and 2^112 at m = 7.
        for omega, least in [("1,2,3,4,5,6,7,8", 2**168), ("1,2,3,4,5,6,7", 2**112)]:
            assert main(["count", "weak", "--omega", omega]) == 1
            assert capsys.readouterr() == (
                "",
                f"slicing refused: at least {least} slice graphs exceed budget 100000000\n",
            )

    def test_dj_seven_unit_vertices(self, capsys):
        assert main(["count", "dj", "--omega", "1,1,1,1,1,1,1"]) == 0
        assert capsys.readouterr().out == "1138779265\n"


class TestEnumerate:
    def test_counts_and_order(self, capsys):
        assert main(["enumerate", "--omega", "2,3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2**2 + 2**3 - 1
        docs = [json.loads(line) for line in lines]
        assert all(doc["omega"] == [2, 3] for doc in docs)

    def test_limit(self, capsys):
        assert main(["enumerate", "--omega", "2,3", "--limit", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_limit_streams_a_large_shape(self, capsys):
        # 5,140,479 graphs: within the budget, and only two are built.
        assert main(["enumerate", "--omega", "3,3,3,3", "--limit", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"omega": [3, 3, 3, 3], "edges": []}

    def test_budget_exceeded_exits_one(self, capsys):
        assert main(["enumerate", "--omega", "6,6,6,6"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "enumeration refused: 1610715496447 acyclic graphs exceed budget 100000000\n"
        )

    def test_negative_limit_is_usage_error(self, capsys):
        assert main(["enumerate", "--omega", "1,1", "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err

    def test_limit_zero_still_refuses(self, capsys):
        assert main(["enumerate", "--omega", "6,6,6,6", "--limit", "0"]) == 1
        assert capsys.readouterr() == (
            "",
            "enumeration refused: 1610715496447 acyclic graphs exceed budget 100000000\n",
        )
        assert main(["enumerate", "--omega", "1,1", "--limit", "0"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_lines_across_blocks_equal_the_reference_rendering(self, capsys):
        # 721 lines: more than two blocks, the last one partial.
        reference = [
            json.dumps(graph_to_json(g), separators=(", ", ": ")) + "\n"
            for g in enumerate_acyclic(DimensionFunction.of(2, 2, 3))
        ]
        block = cli._ENUMERATE_BLOCK
        assert len(reference) == 721 > 2 * block
        assert main(["enumerate", "--omega", "2,2,3"]) == 0
        assert capsys.readouterr() == ("".join(reference), "")
        for limit in (block - 1, block, block + 1, 2 * block):
            assert main(["enumerate", "--omega", "2,2,3", "--limit", str(limit)]) == 0
            assert capsys.readouterr() == ("".join(reference[:limit]), "")

    # (63,) has only the empty body; (3,1,2) mixes unsorted dimensions.
    @pytest.mark.parametrize(
        "dims",
        [(1, 1, 2), (1,), (63,), (2, 1), (3, 1, 2), (1, 1, 1, 1, 1)],
        ids=lambda dims: ",".join(map(str, dims)),
    )
    def test_lines_equal_the_reference_rendering(self, capsys, dims):
        assert main(["enumerate", "--omega", ",".join(map(str, dims))]) == 0
        assert capsys.readouterr().out == "".join(
            json.dumps(graph_to_json(g), separators=(", ", ": ")) + "\n"
            for g in enumerate_acyclic(DimensionFunction(dims))
        )

    def test_closed_pipe_ends_quietly(self):
        # `wdag enumerate | head -1`: the reader closes the pipe after one line.
        src = Path(cli.__file__).resolve().parents[1]
        with subprocess.Popen(
            [sys.executable, "-m", "wdag.cli", "enumerate", "--omega", "2,2,2,2"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b'{"omega": [2, 2, 2, 2], "edges": []}\n'
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""


class TestApply:
    def test_sigma_k_lc_golden(self, capsys, fig_path):
        assert (
            main(
                [
                    "apply",
                    "--op",
                    "sigma-k-lc",
                    "--vertex",
                    "4",
                    "--sigma",
                    "2,3,1",
                    "--k",
                    "2",
                    "--input",
                    fig_path,
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "omega": [2, 3, 3, 3],
            "edges": [
                {"from": 1, "to": 2, "weight": "01"},
                {"from": 1, "to": 4, "weight": "11"},
                {"from": 4, "to": 2, "weight": "100"},
                {"from": 4, "to": 3, "weight": "011"},
            ],
        }

    def test_sigma_lc_golden(self, capsys, fig_path):
        assert (
            main(
                [
                    "apply",
                    "--op",
                    "sigma-lc",
                    "--vertex",
                    "4",
                    "--sigma",
                    "2,3,1",
                    "--input",
                    fig_path,
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert {"from": 1, "to": 3, "weight": "11"} in doc["edges"]

    def test_op_json_sequence_round_trip(self, capsys, fig_path):
        ops = json.dumps(
            [
                {"op": "sigma-k-lc", "vertex": 4, "sigma": [1, 2, 3], "k": 2},
                {"op": "sigma-k-lc", "vertex": 4, "sigma": [1, 2, 3], "k": 2},
            ]
        )
        assert main(["apply", "--op-json", ops, "--input", fig_path]) == 0
        assert json.loads(capsys.readouterr().out) == FIG_GRAPH

    def test_reorder(self, capsys, fig_path):
        assert (
            main(
                ["apply", "--op", "reorder", "--mu", "1,3,2,4", "--input", fig_path]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert {"from": 4, "to": 2, "weight": "101"} in doc["edges"]

    def test_unknown_op_usage_error(self, capsys, fig_path):
        assert main(["apply", "--op-json", '{"op": "zap"}', "--input", fig_path]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_op(self, capsys, fig_path):
        assert main(["apply", "--input", fig_path]) == 2

    @pytest.mark.parametrize(
        "op_json",
        [
            "5",
            '["x"]',
            '{"op": "sigma-lc", "vertex": 1, "sigma": 5}',
            '{"op": "lc", "vertex": null}',
            # Refused, not truncated: 1.9 would otherwise act at vertex 1.
            '{"op": "lc", "vertex": 1.9}',
            '{"op": "lc", "vertex": true}',
            '{"op": "sigma-k-lc", "vertex": 1, "sigma": [2, 1, 3], "k": 1.5}',
            '{"op": "sigma-lc", "vertex": 1, "sigma": "21"}',
            '{"op": "permute-weights", "vertex": 1, "sigma": [2.0, 1, 3]}',
            '{"op": "reorder", "mu": [1, 2, 3, true]}',
            '{"op": ["lc"]}',
        ],
    )
    def test_malformed_descriptor_usage_error(self, capsys, fig_path, op_json):
        assert main(["apply", "--op-json", op_json, "--input", fig_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "op_json, message",
        [
            ('{"op": "lc", "vertex": 5}', "vertex 5 outside 1..4"),
            (
                '{"op": "sigma-k-lc", "vertex": 0, "sigma": [1, 2], "k": 1}',
                "vertex 0 outside 1..4",
            ),
            (
                '{"op": "permute-weights", "vertex": 4, "sigma": [2, 1]}',
                "permutation degree 2 does not match dimension 3",
            ),
            (
                '{"op": "sigma-k-lc", "vertex": 1, "sigma": [1, 2, 3], "k": 1}',
                "permutation degree 3 does not match dimension 2",
            ),
            (
                '{"op": "sigma-k-lc", "vertex": 4, "sigma": [1, 2, 3], "k": 4}',
                "coordinate 4 outside 1..3",
            ),
        ],
    )
    def test_move_argument_errors(self, capsys, fig_path, op_json, message):
        assert main(["apply", "--op-json", op_json, "--input", fig_path]) == 2
        assert capsys.readouterr() == ("", message + "\n")

    def test_malformed_json_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"omega": [1, 1]\n')
        assert main(["apply", "--op", "lc", "--vertex", "1", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_array_weight_usage_error(self, capsys, monkeypatch):
        import io

        doc = {"omega": [2, 1], "edges": [{"from": 1, "to": 2, "weight": ["1", "1"]}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["apply", "--op", "lc", "--vertex", "1", "--input", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid bit string ['1', '1']" in captured.err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FIG_GRAPH)))
        assert main(["apply", "--op", "lc", "--vertex", "1", "--input", "-"]) == 0
        assert json.loads(capsys.readouterr().out) == FIG_GRAPH

    # Each descriptor field's value on FIG_GRAPH, in JSON and as flag text.
    FIELD_VALUES = {
        "vertex": (4, "4"),
        "sigma": ([2, 3, 1], "2,3,1"),
        "k": (2, "2"),
        "mu": ([1, 3, 2, 4], "1,3,2,4"),
    }

    @pytest.mark.parametrize("op", list(cli.MOVES))
    def test_flags_and_op_json_agree(self, capsys, fig_path, op):
        fields = cli.MOVES[op][1]
        flags = [arg for name in fields for arg in (f"--{name}", self.FIELD_VALUES[name][1])]
        assert main(["apply", "--op", op, *flags, "--input", fig_path]) == 0
        by_flags = capsys.readouterr()
        op_json = json.dumps({"op": op, **{name: self.FIELD_VALUES[name][0] for name in fields}})
        assert main(["apply", "--op-json", op_json, "--input", fig_path]) == 0
        assert capsys.readouterr() == by_flags
        assert by_flags.out != ""

    def test_op_choices_are_the_moves(self):
        apply = cli.build_parser()._subparsers._group_actions[0].choices["apply"]
        (op,) = [action for action in apply._actions if action.dest == "op"]
        assert op.choices == list(cli.MOVES)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--op-json", '{"op": "sigma-lc", "vertex": 4, "sigma": [2, 3, 1], "k": 2}'],
                "operation 'sigma-lc' takes no field 'k'",
            ),
            (
                ["--op", "lc", "--vertex", "4", "--sigma", "2,3,1"],
                "operation 'lc' takes no field 'sigma'",
            ),
            (
                ["--op-json", '{"op": "reorder", "mu": [1, 3, 2, 4], "vertex": 9}'],
                "operation 'reorder' takes no field 'vertex'",
            ),
            (
                ["--op-json", '{"op": "lc", "vertex": 4, "w": 1}'],
                "operation 'lc' takes no field 'w'",
            ),
            (["--op-json", '{"op": ["lc"]}'], "unknown operation ['lc']"),
            (
                ["--op", "lc", "--vertex", "4", "--op-json", "[]"],
                "--op-json takes neither --op nor a move's flags",
            ),
            (["--op-json", "[]", "--k", "2"], "--op-json takes neither --op nor a move's flags"),
            (
                ["--op", "permute-weights", "--vertex", "4", "--sigma", "2,x"],
                "invalid permutation '2,x'",
            ),
            (["--op", "reorder", "--mu", "1,x,3,4"], "invalid vertex reordering '1,x,3,4'"),
            # A flag the operation does not take is refused before its text is read.
            (["--op", "lc", "--vertex", "4", "--sigma", "x"], "operation 'lc' takes no field 'sigma'"),
        ],
    )
    def test_refused_fields_and_flags(self, capsys, fig_path, argv, message):
        assert main(["apply", *argv, "--input", fig_path]) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


class TestOrbit:
    def test_single_edge_orbit(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {"omega": [1, 1], "edges": [{"from": 1, "to": 2, "weight": "1"}]}
            )
        )
        assert main(["orbit", "--input", str(path), "--members"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 2
        assert len(doc["members"]) == 2
        assert doc["canonical"] == doc["members"][0]

    def test_without_members(self, capsys, fig_path):
        assert main(["orbit", "--input", fig_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "members" not in doc
        assert doc["size"] > 1


class TestVerify:
    def test_identities_suite(self, capsys):
        assert main(["verify", "--suite", "identities", "--max-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_roundtrip_suite(self, capsys):
        assert main(["verify", "--suite", "roundtrip", "--max-n", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_burnside_suite(self, capsys):
        assert main(["verify", "--suite", "burnside", "--max-n", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_burnside_suite_counts_by_slices(self, capsys, monkeypatch):
        monkeypatch.setattr(equivalence, "orbit", whole_space_sweep)
        assert main(["verify", "--suite", "burnside", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok   burnside: two-vertex classes (2,2)" in out
        assert "FAIL" not in out

    def test_classes_suite(self, capsys):
        assert main(["verify", "--suite", "classes", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok   classes: three-vertex classes (1,2,2)" in out
        assert "FAIL" not in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        def broken(max_n):
            yield "broken check", False, "detail"

        monkeypatch.setitem(cli.SUITES, "oracle", (broken,))
        assert main(["verify", "--suite", "oracle"]) == 1
        out = capsys.readouterr().out
        assert "FAIL oracle: broken check (detail)" in out
        assert "1 failure(s)" in out

    def test_agree_needs_every_source_equal(self):
        assert cli._agree("x", a=1, b=1, c=2) == ("x", False, "a=1 b=1 c=2")
        assert cli._agree("y", a={"p": 1}, b={"p": 1}) == ("y", True, "a={'p': 1} b={'p': 1}")

    def test_failing_agreement_names_every_source(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "count_path_classes", lambda n, m: 0)
        assert main(["verify", "--suite", "burnside", "--max-n", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL burnside: path family n=1 m=1 (closed=0 oracle=1)\n" in out

    def test_failing_two_vertex_detail(self, monkeypatch):
        monkeypatch.setattr(formulas, "count_classes_two_vertices", lambda n1, n2: 0)
        assert list(cli._check_two_vertex(1)) == [
            ("two-vertex classes (1,1)", False, "closed=0 brute=2")
        ]

    @pytest.mark.parametrize("suite,max_n", [("classes", "0"), ("burnside", "-3")])
    def test_max_n_below_one_is_usage_error(self, capsys, suite, max_n):
        assert main(["verify", "--suite", suite, "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert "all checks passed" not in captured.out
        assert "--max-n" in captured.err

    def test_no_check_lines_exits_one(self, capsys, monkeypatch):
        def silent(max_n):
            return iter(())

        monkeypatch.setitem(cli.SUITES, "oracle", (silent,))
        assert main(["verify", "--suite", "oracle"]) == 1
        out = capsys.readouterr().out
        assert "all checks passed" not in out
        assert "no checks ran" in out


class TestTable:
    def test_stirling_csv(self, capsys):
        assert main(["table", "--family", "stirling", "--max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kind,n,m,value"
        assert "c,3,2,3" in lines

    def test_c2_csv(self, capsys):
        assert main(["table", "--family", "c2", "--max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "c2,4,2,3" in lines

    def test_cnme_has_e_column(self, capsys):
        assert main(["table", "--family", "cnme", "--max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kind,n,m,e,value"
        assert "cnme,4,2,0,8" in lines

    def test_three_simplices(self, capsys):
        assert main(["table", "--family", "three-simplices", "--max", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n1,n2,n3,total,branch"
        assert "1,1,1,5,all-equal" in lines
        assert "2,2,2,8,all-equal" in lines
        # Corrected totals, where the paper's display gives 13 and 15.
        assert "1,1,2,14,low-pair" in lines
        assert "1,2,2,16,high-pair" in lines

    def test_json_format(self, capsys):
        assert (
            main(["table", "--family", "stirling", "--max", "2", "--format", "json"])
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert {"kind": "c", "n": 2, "m": 1, "value": 1} in rows

    @pytest.mark.parametrize(
        "family, below",
        [
            ("three-simplices", 0),
            ("three-simplices", -2),
            ("stirling", -1),
            ("c2", -1),
            ("cnme", -2),
        ],
    )
    def test_max_below_minimum_is_usage_error(self, capsys, family, below):
        assert main(["table", "--family", family, "--max", str(below)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --max" in captured.err

    @pytest.mark.parametrize("family", list(cli.TABLES))
    def test_registry_family(self, capsys, family):
        least, header, _ = cli.TABLES[family]
        top = str(least + 3)
        assert main(["table", "--family", family, "--max", top]) == 0
        first, *lines = capsys.readouterr().out.splitlines()
        assert main(["table", "--family", family, "--max", top, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert first == ",".join(header)
        assert rows and [list(row) for row in rows] == [header] * len(rows)
        assert [{k: str(v) for k, v in row.items()} for row in rows] == [
            dict(zip(header, line.split(","))) for line in lines
        ]
        assert main(["table", "--family", family, "--max", str(least - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --max" in captured.err

    def test_deterministic_output(self, capsys):
        main(["table", "--family", "three-simplices", "--max", "3"])
        first = capsys.readouterr().out
        main(["table", "--family", "three-simplices", "--max", "3"])
        assert capsys.readouterr().out == first


@pytest.fixture
def digit_limit():
    """The interpreter's limit on the decimal digits of an int, lowered to
    640 for one test and restored after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(before)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no digit limit"
)
class TestDigitLimit:
    """count and table print exact integers past the limit on decimal digits
    and restore it after; parsed graph documents keep it."""

    def test_count_dj_prints_every_digit(self, capsys, digit_limit):
        assert main(["count", "dj", "--omega", "20000,20000"]) == 0
        assert sys.get_int_max_str_digits() == digit_limit
        out, err = capsys.readouterr()
        assert (len(out), err) == (6022, "source: formula\n")
        sys.set_int_max_str_digits(0)  # the fixture restores the limit
        assert out == f"{2**20001 - 1}\n"

    def test_table_csv_prints_every_row(self, capsys, digit_limit):
        # s(320, 1) = 319! has 662 digits; 1 + 321 * 322 / 2 lines in all.
        assert main(["table", "--family", "stirling", "--max", "320"]) == 0
        assert sys.get_int_max_str_digits() == digit_limit
        lines = capsys.readouterr().out.splitlines()
        assert (len(lines), lines[-1]) == (51_682, "c,320,320,1")
        sys.set_int_max_str_digits(0)
        assert f"c,320,1,{cyclestats.stirling1(320, 1)}" in lines
        assert len(str(cyclestats.stirling1(320, 1))) == 662

    def test_table_json_prints_every_row(self, capsys, digit_limit):
        args = ["table", "--family", "stirling", "--max", "320", "--format", "json"]
        assert main(args) == 0
        assert sys.get_int_max_str_digits() == digit_limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        rows = json.loads(out)
        assert len(rows) == 51_681
        assert {"kind": "c", "n": 320, "m": 1, "value": cyclestats.stirling1(320, 1)} in rows

    @pytest.mark.parametrize("verb", [["orbit"], ["apply", "--op", "lc", "--vertex", "1"]])
    def test_graph_documents_keep_the_limit(self, capsys, tmp_path, digit_limit, verb):
        path = tmp_path / "wide.json"
        path.write_text('{"omega": [1, 1' + "0" * 4999 + '], "edges": []}')
        assert main([*verb, "--input", str(path)]) == 2
        assert sys.get_int_max_str_digits() == digit_limit
        out, err = capsys.readouterr()
        assert out == ""
        assert "Exceeds the limit (640 digits)" in err


class TestUsage:
    def test_missing_verb(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr() == (
            "",
            "usage error: the following arguments are required: verb\n",
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["apply", "--op", "lc", "--vertex", "x", "--input", "-"],
                "argument --vertex: invalid int value: 'x'",
            ),
            (["apply", "--op", "zap", "--input", "-"], "argument --op: invalid choice: 'zap'"),
            (["count", "dj", "--omega", "1", "--bogus"], "unrecognized arguments: --bogus"),
            (["count", "--omega", "1"], "the following arguments are required: kind"),
            (["enumerate", "--omega", "1", "--limit", "1.5"], "argument --limit: invalid int"),
        ],
    )
    def test_argument_errors_are_usage_errors(self, capsys, argv, message):
        # Only the start is pinned: newer interpreters list the choices differently.
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["apply", "--help"], ["enumerate", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wdag")

    def test_bad_omega(self, capsys):
        assert main(["count", "dj", "--omega", "1,x"]) == 2
        assert "invalid dimension list" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [["count", "dj"], ["count", "weak"], ["enumerate"]])
    def test_bad_omega_is_a_usage_error(self, capsys, verb):
        assert main([*verb, "--omega", "1,x"]) == 2
        assert capsys.readouterr() == ("", "usage error: invalid dimension list '1,x'\n")
