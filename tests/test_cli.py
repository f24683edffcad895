import argparse
import hashlib
import importlib
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import schubert
from schubert import cli, poly
from schubert.cli import run
from schubert.worked_examples import EXAMPLE_1, EXAMPLE_2, EXAMPLE_4, EXAMPLE_5


def box(cell):
    """A (row, column) pair as the CLI prints a box."""
    return "({},{})".format(*cell)


EXAMPLE_1_DIAGRAM = "\n".join(
    [
        "□ □ □ ● · · ·",
        "□ □ ● · · · ·",
        "● · · · · · ·",
        "· □ · · □ □ ●",
        "· □ · · □ ● ·",
        "· ● · · · · ·",
        "· · · · ● · ·",
        f"corner: {box(EXAMPLE_1['corner'])}",
        f"pivots: {' '.join(map(box, EXAMPLE_1['pivots']))}",
    ]
)


def expansion_of(example, mode):
    """An example's expansion in ``mode`` as the CLI prints it: keyed by
    trimmed texts, ordered by length and then by text."""
    expansion = {schubert.Permutation.parse(p): c for p, c in example["expansions"][mode].items()}
    return {p.text(): expansion[p] for p in sorted(expansion, key=lambda p: (p.length(), p.text()))}


def product_argv(example):
    """The ``product`` command line of an example's truncation problem."""
    n, t = str(example["n"]), str(example["t"])
    return ["product", example["sigma"], example["alpha"], "--n", n, "--t", t]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiagram:
    def test_example_1_snapshot(self, capsys):
        code, out, _ = invoke(capsys, "diagram", EXAMPLE_1["perm"])
        assert code == 0
        assert out == EXAMPLE_1_DIAGRAM + "\n"

    def test_identity(self, capsys):
        code, out, _ = invoke(capsys, "diagram", "1")
        assert code == 0
        assert out == "●\ncorner: none\npivots: none\n"

    def test_no_pivots(self, capsys):
        code, out, _ = invoke(capsys, "diagram", "432156")
        assert code == 0
        assert out.endswith("corner: (3,1)\npivots: none\n")


class TestMarch:
    def test_single_row(self, capsys):
        code, out, _ = invoke(capsys, "march", EXAMPLE_1["perm"], "--rows", "2")
        assert (code, out) == (0, EXAMPLE_1["marches"][2] + "\n")

    def test_steps(self, capsys):
        rows = ",".join(map(str, EXAMPLE_2["rows"]))
        code, out, _ = invoke(capsys, "march", EXAMPLE_2["perm"], "--rows", rows, "--steps")
        assert code == 0
        lines = [f"start {EXAMPLE_2['perm']}"]
        for kind, detail, perm in EXAMPLE_2["steps"]:
            step = f"march {detail}" if kind == "march" else f"add box {box(detail)}"
            lines.append(f"{step} -> {perm}")
        assert out == "\n".join(lines) + "\n"

    def test_non_pivot_row_is_a_precondition_failure(self, capsys):
        for steps in ([], ["--steps"]):  # --steps fails before it prints a step
            code, out, err = invoke(capsys, "march", "4317625", "--rows", "4", *steps)
            assert (code, out) == (3, ""), steps
            assert "pivot" in err

    def test_identity_has_no_marches(self, capsys):
        assert invoke(capsys, "march", "1", "--rows", "1")[0] == 3

    def test_malformed_rows(self, capsys):
        code, _, err = invoke(capsys, "march", "4317625", "--rows", "2;3")
        assert code == 2
        assert "argument --rows:" in err


class TestTree:
    def test_identity_tree(self, capsys):
        code, out, _ = invoke(capsys, "tree", "1", "--t", "1")
        assert (code, out) == (0, "1\n")

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "tree", "132", "--t", "1")
        assert (code, out) == (0, "132\n  --1--> 21\n")

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "tree", "321465", "--t", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["label"] == "321465"
        assert [c["march"] for c in obj["children"]] == [[4]]

    def test_dot_format_byte_stable(self, capsys):
        code1, out1, _ = invoke(capsys, "tree", "321465", "--t", "2", "--format", "dot")
        code2, out2, _ = invoke(capsys, "tree", "321465", "--t", "2", "--format", "dot")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("digraph march_tree {\n")
        assert 'n0 -> n1 [label="4"];' in out1

    def test_node_ceiling_flag(self, capsys):
        code, _, err = invoke(
            capsys, "tree", "34127658", "--t", "4", "--node-ceiling", "3"
        )
        assert code == 4
        assert "resource" in err

    def test_cohomology_mode(self, capsys):
        code, out, _ = invoke(capsys, "tree", "321465", "--t", "2", "--cohomology")
        assert code == 0
        assert "--1,2-->" not in out

    def test_a_reader_that_closes_the_pipe_early_ends_it_quietly(self):
        # About 870 KB of JSON: far more than a pipe holds, so the writer
        # meets the closed pipe.
        env = {**os.environ, "PYTHONPATH": str(Path(schubert.__file__).parents[1])}
        argv = ["tree", "54213987,10,6", "--t", "4", "--format", "json"]
        with subprocess.Popen(
            [sys.executable, "-m", "schubert", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (0, b"")


class TestGroth:
    def test_polynomial_text(self, capsys):
        assert invoke(capsys, "groth", "132")[:2] == (0, "x1 + x2 - x1*x2\n")
        assert invoke(capsys, "groth", "1")[:2] == (0, "1\n")

    def test_truncate_flag(self, capsys):
        assert invoke(capsys, "groth", "132", "--truncate", "1")[:2] == (0, "x1\n")
        assert invoke(capsys, "groth", "132", "--truncate", "0")[:2] == (0, "0\n")

    def test_truncate_past_every_variable(self, capsys):
        huge = "99999999999999999999"
        assert invoke(capsys, "groth", "21", "--truncate", huge) == (0, "x1\n", "")

    def test_negative_truncate_is_a_usage_error(self, capsys):
        assert invoke(capsys, "groth", "132", "--truncate", "-1")[0] == 2

    @pytest.mark.parametrize("truncate", [(), ("--truncate", "5")], ids=["whole", "truncated"])
    def test_a_text_of_several_pieces_is_render_and_a_newline(self, capsys, truncate):
        # 3,432 terms whole: several pieces of the streamed text.
        g = schubert.grothendieck(schubert.Permutation.parse("1,9,8,7,6,5,4,3,2"))
        if truncate:
            g = g.truncate(5)
        assert invoke(capsys, "groth", "1,9,8,7,6,5,4,3,2", *truncate) == (0, g.render() + "\n", "")


class TestMultiply:
    def test_example_4(self, capsys):
        code, out, _ = invoke(capsys, "multiply", EXAMPLE_4["sigma"], EXAMPLE_4["rho"])
        assert code == 0
        assert out == json.dumps(expansion_of(EXAMPLE_4, "K")) + "\n"

    def test_cohomology_restriction(self, capsys):
        code, out, _ = invoke(capsys, "multiply", "321", "132", "--cohomology")
        assert code == 0
        assert json.loads(out) == {"3412": 1, "4213": 1}


class TestProduct:
    def test_example_4(self, capsys):
        code, out, err = invoke(capsys, *product_argv(EXAMPLE_4))
        assert code == 0
        assert json.loads(out) == expansion_of(EXAMPLE_4, "K")
        assert f"rho = {EXAMPLE_4['rho']}" in err

    def test_example_5_cohomology(self, capsys):
        code, out, _ = invoke(capsys, *product_argv(EXAMPLE_5), "--cohomology")
        assert code == 0
        assert json.loads(out) == expansion_of(EXAMPLE_5, "cohomology")

    def test_example_5_k_mode(self, capsys):
        code, out, _ = invoke(capsys, *product_argv(EXAMPLE_5))
        assert code == 0
        assert json.loads(out) == expansion_of(EXAMPLE_5, "K")

    def test_node_ceiling(self, capsys):
        code, _, _ = invoke(
            capsys, "product", "3412", "3214", "--n", "4", "--t", "4",
            "--node-ceiling", "2",
        )
        assert code == 4

    def test_not_a_problem(self, capsys):
        code, _, err = invoke(capsys, "product", "4321", "2143", "--n", "4", "--t", "1")
        assert code == 3
        assert "not a truncation Schubert problem" in err

    def test_an_alpha_without_a_labeled_leaf_is_no_problem_under_any_ceiling(self, capsys):
        # The ceiling counts live labels, and 4321's K tree at t = 2 has none;
        # the root is tested before it is counted, so a ceiling of 0 is no limit.
        argv = ["product", "21", "4321", "--n", "4", "--t", "2", "--node-ceiling"]
        for ceiling in ("0", "1", "2"):
            code, out, err = invoke(capsys, *argv, ceiling)
            assert (code, out) == (3, "")
            assert "(21, 4321, n=4, t=2) is not a truncation Schubert problem" in err
        # A live root under a ceiling of 0 is a resource limit.
        live = ["product", "321", "132", "--n", "3", "--t", "2", "--node-ceiling", "0"]
        code, out, err = invoke(capsys, *live)
        assert (code, out) == (4, "")
        assert err.startswith("resource limit:")

    def test_a_multi_leaf_alpha_under_a_small_ceiling_ends_in_a_documented_code(self, capsys):
        # 2143's tree at t = 2 has three labeled leaves: a ceiling of 0 stops
        # at its root, and any other lets detect reach the branch below it.
        argv = ["product", "21", "2143", "--n", "4", "--t", "2", "--node-ceiling"]
        endings = [invoke(capsys, *argv, str(ceiling)) for ceiling in range(4)]
        assert [(code, out) for code, out, _ in endings] == [(4, "")] + [(3, "")] * 3
        assert endings[0][2] == "resource limit: more than 0 distinct labels\n"

    @pytest.mark.parametrize(
        ("flags", "digest"),
        [
            ((), "09df091d93e7bf68ea63ca313ae1c0e56535ceef6df40924035432dce5d788d5"),
            (("--cohomology",), "148bc66c6ca21cecf77c4818d195a5f91d815294ddd3f9ef9c8d6c346917c229"),
        ],
        ids=["K", "cohomology"],
    )
    def test_the_largest_benchmark_problem_prints_its_pinned_digest(self, capsys, flags, digest):
        argv = ["product", "54321", "54132", "--n", "5", "--t", "4", *flags]
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "rho = 13682457\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_t_out_of_range(self, capsys):
        code, _, _ = invoke(capsys, "product", "321", "132", "--n", "3", "--t", "9")
        assert code == 3


class TestVerifyPaper:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = invoke(capsys, "verify-paper")
        assert code == 0
        assert "all 8 fixtures passed" in out
        assert out.count("ok   ") == 8
        assert "FAIL" not in out
        # Byte for byte, so that a rewrite of a fixture cannot change a line.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fb75375dddb688fa6f1b1eb50606e871465529438e16a48fa05c4e2f2445b604"
        )

    def test_a_wrong_record_fails_its_fixture_only(self, capsys, monkeypatch):
        module = importlib.import_module("schubert.worked_examples")
        monkeypatch.setitem(module.EXAMPLE_4, "rho", "213")
        code, out, _ = invoke(capsys, "verify-paper")
        lines = out.splitlines()
        assert code == 1
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert len(failed) == 1
        assert failed[0].startswith(f"FAIL {module.EXAMPLE_4['name']}: ")
        assert sum(line.startswith("ok   ") for line in lines) == 7
        assert lines[-1] == "1 of 8 fixtures failed"

    def test_a_wrong_tree_record_fails_its_fixture_only(self, capsys, monkeypatch):
        module = importlib.import_module("schubert.worked_examples")
        edges = module.FIGURE_2["edges"]
        assert edges[-1][2] is None
        monkeypatch.setitem(module.FIGURE_2, "edges", edges[:-1])  # one null edge dropped
        code, out, _ = invoke(capsys, "verify-paper")
        lines = out.splitlines()
        assert code == 1
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert failed == [f"FAIL {module.FIGURE_2['name']}: edges"]
        assert sum(line.startswith("ok   ") for line in lines) == 7
        assert lines[-1] == "1 of 8 fixtures failed"

    def test_a_record_the_library_rejects_fails_its_fixture_only(self, capsys, monkeypatch):
        module = importlib.import_module("schubert.worked_examples")
        monkeypatch.setitem(module.EXAMPLE_2, "perm", "21")  # rows 1 and 3 are no pivots
        code, out, _ = invoke(capsys, "verify-paper")
        lines = out.splitlines()
        assert code == 1
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert failed == [
            f"FAIL {module.EXAMPLE_2['name']}: MarchError: rows [1, 3] are not pivot rows of 21"
        ]
        assert sum(line.startswith("ok   ") for line in lines) == 7
        assert lines[-1] == "1 of 8 fixtures failed"

    def test_other_commands_do_not_load_the_data_module(self):
        # A fresh process: this one has loaded every module already.
        script = (
            "import sys; from schubert.cli import run; run(['multiply', '321', '132']); "
            "sys.exit('schubert.worked_examples' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(schubert.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)

    def test_python_m_schubert_runs_the_command(self):
        env = {**os.environ, "PYTHONPATH": str(Path(schubert.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "schubert", "verify-paper"], env=env, capture_output=True
        )
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == (
            "fb75375dddb688fa6f1b1eb50606e871465529438e16a48fa05c4e2f2445b604"
        )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (("diagram", "10"), "perm"),
            (("march", "10", "--rows", "1"), "perm"),
            (("tree", "10", "--t", "1"), "perm"),
            (("groth", "10"), "perm"),
            (("multiply", "10", "21"), "sigma"),
            (("multiply", "21", "10"), "rho"),
            (("product", "10", "21", "--n", "2", "--t", "1"), "sigma"),
            (("product", "21", "10", "--n", "2", "--t", "1"), "alpha"),
            (("diagram", "\uff12\uff11"), "perm"),
            (("multiply", "21", "\u0662\u0661"), "rho"),
        ],
        ids=["diagram", "march", "tree", "groth", "multiply-sigma", "multiply-rho",
             "product-sigma", "product-alpha", "diagram-fullwidth-digits",
             "multiply-arabic-indic-digits"],
    )
    def test_bad_permutation_text(self, capsys, argv, name):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err
        assert f"argument {name}:" in err

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "polish")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert invoke(capsys, "tree", "321465")[0] == 2

    def test_non_positive_levels_are_usage_errors(self, capsys):
        assert invoke(capsys, "tree", "321465", "--t", "0")[0] == 2
        assert invoke(capsys, "tree", "321465", "--t", "-1")[0] == 2
        code, out, err = invoke(capsys, "tree", "321", "--t", "x")
        assert (code, out) == (2, "")
        assert "not an integer" in err
        for flags in (("--n", "0", "--t", "2"), ("--n", "-3", "--t", "2"),
                      ("--n", "3", "--t", "0"), ("--n", "3", "--t", "-2")):
            code, _, err = invoke(capsys, "product", "321", "132", *flags)
            assert code == 2, flags
            assert "error" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("tree", "321465", "--t", "\uff12"), "--t"),
            (("groth", "321", "--truncate", "1_0"), "--truncate"),
            (("march", "4317625", "--rows", "\u0662"), "--rows"),
            (("tree", "321465", "--t", "2", "--node-ceiling", "\uff11\uff10"), "--node-ceiling"),
        ],
        ids=["fullwidth-level", "underscored-truncation", "arabic-indic-row", "fullwidth-ceiling"],
    )
    def test_integers_are_ascii_digits(self, capsys, argv, name):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {name}:" in err

    def test_level_beyond_2n_stays_a_precondition_failure(self, capsys):
        assert invoke(capsys, "product", "321", "132", "--n", "3", "--t", "9")[0] == 3

    def test_negative_node_ceiling_is_a_usage_error(self, capsys):
        assert invoke(capsys, "tree", "321465", "--t", "2", "--node-ceiling", "-5")[0] == 2
        assert invoke(
            capsys, "product", "321", "132", "--n", "3", "--t", "2", "--node-ceiling", "-5"
        )[0] == 2

    def test_groth_of_the_longest_element_of_s40_is_its_staircase(self, capsys):
        longest = ",".join(str(k) for k in range(40, 0, -1))
        code, out, err = invoke(capsys, "groth", longest)
        assert code == 0
        assert out == "*".join(f"x{i}^{40 - i}" for i in range(1, 39)) + "*x39\n"
        assert err == ""

    def test_exponent_ceiling_is_a_resource_limit(self, capsys, monkeypatch):
        module = importlib.import_module("schubert.poly")
        monkeypatch.setattr(module, "MAX_EXPONENT", 1)
        code, out, err = invoke(capsys, "multiply", "321", "132")
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit:")

    def test_window_past_the_exponent_ceiling_is_a_resource_limit(self, capsys):
        window = ",".join(str(k) for k in [*range(2, 258), 1])
        code, out, err = invoke(capsys, "groth", window)
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit:")

    def test_expansion_ceiling_is_a_resource_limit(self, capsys, monkeypatch):
        module = importlib.import_module("schubert.grothendieck")
        monkeypatch.setattr(module, "EXPANSION_ITERATION_CEILING", 2)
        code, out, err = invoke(capsys, "multiply", "321", "132")
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit:")


class TestCeilingFamily:
    @pytest.mark.parametrize(
        "ceiling",
        [
            schubert.ExponentCeilingExceeded,
            schubert.ExpansionCeilingExceeded,
            schubert.NodeCeilingExceeded,
            schubert.OracleCeilingExceeded,
        ],
    )
    def test_every_ceiling_is_a_ceiling_exceeded(self, ceiling):
        assert issubclass(ceiling, schubert.CeilingExceeded)
        assert issubclass(ceiling, RuntimeError)

    def test_a_ceiling_the_cli_has_never_seen_is_a_resource_limit(self, capsys, monkeypatch):
        class WidgetCeilingExceeded(schubert.CeilingExceeded):
            pass

        def read_once(_):
            raise WidgetCeilingExceeded("more than 3 widgets")

        monkeypatch.setattr(cli, "_read_once", read_once)
        assert invoke(capsys, "groth", "132") == (4, "", "resource limit: more than 3 widgets\n")

    def test_running_out_of_memory_is_a_resource_limit(self, capsys, monkeypatch):
        def read_once(_):
            raise MemoryError

        monkeypatch.setattr(cli, "_read_once", read_once)
        assert invoke(capsys, "groth", "132") == (4, "", "resource limit: out of memory\n")

    def test_running_out_of_memory_while_ordering_the_terms_prints_nothing(
        self, capsys, monkeypatch
    ):
        # groth orders every term before it writes the first piece.
        def canonical(_):
            raise MemoryError

        monkeypatch.setattr(poly, "_canonical", canonical)
        outcome = invoke(capsys, "groth", "1,9,8,7,6,5,4,3,2")
        assert outcome == (4, "", "resource limit: out of memory\n")

    @pytest.mark.parametrize(
        "argv",
        [("tree", "321465", "--t", "2"), ("product", "321", "132", "--n", "3", "--t", "2")],
        ids=" ".join,
    )
    def test_the_node_ceiling_is_read_from_no_environment_variable(
        self, capsys, monkeypatch, argv
    ):
        expected = invoke(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setenv("SCHUBERT_NODE_CEILING", "0")
        assert invoke(capsys, *argv) == expected


class TestReadme:
    def test_command_line_examples_print_what_they_show(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [line.split("# -> ") for line in block.splitlines() if "# -> " in line]
        assert len(examples) >= 4
        for command, shown in examples:
            program, *argv = shlex.split(command)
            assert program == "schubert"
            assert invoke(capsys, *argv) == (0, shown + "\n", ""), command

    def test_library_sketch_runs_as_written(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        out = capsys.readouterr().out
        assert f"# rho = {namespace['problem'].rho}\n" in block
        assert out.startswith("digraph march_tree {")
        assert "  n17 [" in out and "n18" not in out  # "nodes n0..n17 in preorder"


class TestPublicSurface:
    def test_every_name_in_all_resolves(self):
        assert len(set(schubert.__all__)) == len(schubert.__all__)
        for name in schubert.__all__:
            assert getattr(schubert, name) is not None, name

    def test_the_public_names_are_pinned(self):
        # Adding or dropping a public name means editing this pin.
        assert tuple(sorted(schubert.__all__)) == (
            "Box", "CeilingExceeded", "DEFAULT_NODE_CEILING", "DEFAULT_ORACLE_WINDOW_CEILING",
            "ExpansionCeilingExceeded", "ExpansionMap", "ExponentCeilingExceeded", "LeafSummary",
            "MarchError", "MarchTree", "NodeCeilingExceeded", "OracleCeilingExceeded",
            "Permutation", "Polynomial", "TruncationProblem", "VerificationReport", "add_box",
            "build_tree", "detect", "diagram", "expand_in_basis", "expansion_to_json",
            "grothendieck", "grothendieck_dd", "k_march", "k_march_steps", "leaf_counts",
            "leaf_summary", "march", "march_boxes", "march_children", "maximal_corner",
            "pivot_rows", "pivots", "render", "schubert", "structure_constants",
            "symmetric_group", "to_dot", "to_json", "to_text", "transition_pair",
            "truncate_grothendieck_via_tree", "truncation_product", "verify",
        )

    def test_a_command_loads_neither_dataclasses_nor_inspect(self):
        # A fresh process: this one has loaded both through pytest.
        script = (
            "import sys; import schubert.cli; schubert.cli.run(['multiply', '321', '132']); "
            "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(schubert.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[-1] == "[]"


COMMANDS = ("diagram", "march", "tree", "groth", "multiply", "product", "verify-paper")
# Positionals and required flags that make each command's argv complete.
COMPLETE = {
    "diagram": ["4317625"],
    "march": ["4317625", "--rows", "2"],
    "tree": ["21", "--t", "1"],
    "groth": ["21"],
    "multiply": ["21", "21"],
    "product": ["21", "21", "--n", "2", "--t", "1"],
    "verify-paper": [],
}


# Every optional flag of each command, with a well-formed value where it takes one.
EVERY_OPTION = {
    "diagram": [],
    "march": ["--steps"],
    "tree": ["--cohomology", "--format", "dot", "--node-ceiling", "7"],
    "groth": ["--truncate", "2"],
    "multiply": ["--cohomology"],
    "product": ["--cohomology", "--node-ceiling", "7"],
    "verify-paper": [],
}
# Argv that give each argument of a command, positionals included, a malformed value.
MALFORMED = {
    "diagram": [["10"]],
    "march": [["10", "--rows", "2"], ["4317625", "--rows", "2;3"],
              ["4317625", "--rows", "2", "--steps=1"]],
    "tree": [["10", "--t", "1"], ["21", "--t", "0"], ["21", "--t", "1", "--cohomology=1"],
             ["21", "--t", "1", "--format", "xml"], ["21", "--t", "1", "--node-ceiling", "-1"]],
    "groth": [["10"], ["21", "--truncate", "-1"], ["21", "--truncate", "x"]],
    "multiply": [["10", "21"], ["21", "10"], ["21", "21", "--cohomology=1"]],
    "product": [["10", "21", "--n", "2", "--t", "1"], ["21", "10", "--n", "2", "--t", "1"],
                ["21", "21", "--n", "0", "--t", "1"], ["21", "21", "--n", "2", "--t", "x"],
                ["21", "21", "--n", "2", "--t", "1", "--cohomology=1"],
                ["21", "21", "--n", "2", "--t", "1", "--node-ceiling", "-5"]],
    "verify-paper": [["extra"], ["--bogus=1"]],
}


# The command line as it was declared before ``cli._COMMANDS`` held the argument
# specs: one builder per command.  Kept as the oracle the table must parse as.
def oracle_mode_flag(p, help=None):
    p.add_argument("--cohomology", dest="mode", action="store_const", const="cohomology",
                   default="K", help=help)


def oracle_perm_argument(p):
    p.add_argument("perm", type=cli._perm)


def oracle_march_arguments(p):
    oracle_perm_argument(p)
    p.add_argument("--rows", type=cli._rows, required=True, help="comma-separated pivot rows")
    p.add_argument("--steps", action="store_true", help="show the march/add-box intermediates")


def oracle_tree_arguments(p):
    oracle_perm_argument(p)
    p.add_argument("--t", type=cli._positive, required=True, help="truncation level")
    oracle_mode_flag(p, "single marches only")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--node-ceiling", type=cli._non_negative, default=cli.DEFAULT_NODE_CEILING)


def oracle_groth_arguments(p):
    oracle_perm_argument(p)
    p.add_argument("--truncate", type=cli._non_negative, default=None, metavar="T")


def oracle_multiply_arguments(p):
    p.add_argument("sigma", type=cli._perm)
    p.add_argument("rho", type=cli._perm)
    oracle_mode_flag(p, "top degree layer only")


def oracle_product_arguments(p):
    p.add_argument("sigma", type=cli._perm)
    p.add_argument("alpha", type=cli._perm)
    p.add_argument("--n", type=cli._positive, required=True)
    p.add_argument("--t", type=cli._positive, required=True)
    oracle_mode_flag(p)
    p.add_argument("--node-ceiling", type=cli._non_negative, default=cli.DEFAULT_NODE_CEILING)


ORACLE_COMMANDS = {
    "diagram": ("ASCII diagram, maximal corner, pivots", oracle_perm_argument),
    "march": ("(K-)march towards a set of pivot rows", oracle_march_arguments),
    "tree": ("build a marching tree", oracle_tree_arguments),
    "groth": ("Grothendieck polynomial (optionally truncated)", oracle_groth_arguments),
    "multiply": ("expand a product of two Grothendieck classes", oracle_multiply_arguments),
    "product": ("detect a truncation problem and expand by marching", oracle_product_arguments),
    "verify-paper": ("re-run the worked example fixtures", lambda p: None),
}


def oracle_parser(name):
    """The oracle's counterpart of ``cli._parser([name])``."""
    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Diagram marching calculus for Schubert structure constants.",
    )
    listing = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listing)
    help, arguments = ORACLE_COMMANDS[name]
    arguments(sub.add_parser(name, help=help))
    return parser


def command_parser(parser, name):
    """The subparser of ``parser`` that parses command ``name``."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def outcome(capsys, parser, argv):
    """The (exit code, stdout, stderr) of parsing argv; code None if it parses."""
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
    else:
        code = None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parity_cases():
    for name in COMMANDS:
        argv = COMPLETE[name]
        yield [name, "--help"]
        if argv:  # every command but verify-paper takes a positional
            yield [name]
            yield [name, "10", *argv[1:]]
        yield [name, *argv, "--bogus"]
        yield [name, *argv, "extra"]


def parse_with_every_command(capsys, argv):
    """What a parser that has all seven subcommands prints and exits with."""
    return outcome(capsys, cli._parser(cli._COMMANDS), argv)


class TestParserParity:
    @pytest.mark.parametrize("argv", list(parity_cases()), ids=" ".join)
    def test_run_parses_as_the_full_parser(self, capsys, argv):
        expected = parse_with_every_command(capsys, argv)
        assert expected[0] in (0, 2)
        assert invoke(capsys, *argv) == expected

    @pytest.mark.parametrize("name", COMMANDS)
    def test_each_command_parses_as_the_parent_declared_it(self, capsys, name):
        ours, oracle = cli._parser([name]), oracle_parser(name)
        pairs = [(ours, oracle), (command_parser(ours, name), command_parser(oracle, name))]
        for parser, expected in pairs:
            assert parser.format_help() == expected.format_help()
            assert parser.format_usage() == expected.format_usage()
        for argv in ([name, *COMPLETE[name]], [name, *COMPLETE[name], *EVERY_OPTION[name]]):
            parsed = vars(ours.parse_args(argv))
            assert parsed.pop("handler") is cli._COMMANDS[name][2]
            assert parsed == vars(oracle.parse_args(argv)), argv
        for argv in MALFORMED[name]:
            expected = outcome(capsys, oracle, [name, *argv])
            assert expected[0] == 2, argv
            assert outcome(capsys, ours, [name, *argv]) == expected

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"]], ids=repr)
    def test_top_level_lists_every_command(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == parse_with_every_command(capsys, argv)
        assert "{" + ",".join(COMMANDS) + "}" in out + err

    def test_unrecognized_option_names_every_command_in_its_usage(self, capsys):
        code, out, err = invoke(capsys, "multiply", "21", "21", "--bogus")
        assert (code, out) == (2, "")
        usage, message = err.split("schubert: error: ")
        assert usage.startswith("usage: schubert [-h]")
        assert "{" + ",".join(COMMANDS) + "} ..." in usage
        assert message == "unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize(
        "argv", [["multiply", "321", "132"], ["multiply", "21", "21", "--bogus"], ["bogus"], []],
        ids=repr,
    )
    def test_console_script_reads_sys_argv_as_run_does(self, capsys, monkeypatch, argv):
        expected = invoke(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["schubert", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == expected


# Tokens that most arguments refuse; some arguments take one or two of them.
MALFORMED_TOKENS = ("0", "x", "1,1", "\uff12", "")


def seeded_value(rng, options):
    """A value for an argument declared with ``options``: mostly one of its
    own kind, sometimes any token at all."""
    kind = options.get("type")
    if rng.random() < 0.15:
        return rng.choice(MALFORMED_TOKENS)
    if "choices" in options:
        return rng.choice(options["choices"])
    if kind is cli._perm:
        window = list(range(1, rng.randint(1, 6) + 1))
        rng.shuffle(window)
        return "".join(map(str, window))
    if kind is cli._rows:
        return ",".join(map(str, sorted(rng.sample(range(1, 7), rng.randint(1, 3)))))
    return str(rng.randint(-2, 9))


def seeded_argv(rng):
    """A command and the arguments it declares in ``cli._COMMANDS``: each
    optional one given half the time, and any one missing now and then."""
    name = rng.choice(COMMANDS)
    argv = [name]
    for flag, options in cli._COMMANDS[name][1]:
        optional = flag.startswith("-") and not options.get("required")
        if rng.random() < (0.5 if optional else 0.05):
            continue
        if flag.startswith("-"):
            argv.append(flag)
        if options.get("action") not in ("store_true", "store_const"):
            argv.append(seeded_value(rng, options))
    return argv


class TestContract:
    def test_seeded_argv_end_in_a_documented_exit_code(self, capsys):
        rng = random.Random(20041)
        cases = {tuple(seeded_argv(rng)) for _ in range(1000)}
        codes, violations = set(), []
        for argv in sorted(cases):
            code, out, err = invoke(capsys, *argv)
            codes.add(code)
            if code not in (0, 2, 3, 4) or "Traceback" in err or (code != 0 and out):
                violations.append((argv, code, out, err))
        assert not violations, violations[:3]
        assert codes == {0, 2, 3, 4}  # the draw reaches every documented ending
