import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import schubert
from schubert import cli
from schubert.cli import run

EXAMPLE_1_DIAGRAM = "\n".join(
    [
        "□ □ □ ● · · ·",
        "□ □ ● · · · ·",
        "● · · · · · ·",
        "· □ · · □ □ ●",
        "· □ · · □ ● ·",
        "· ● · · · · ·",
        "· · · · ● · ·",
        "corner: (5,5)",
        "pivots: (1,4) (2,3) (3,1)",
    ]
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiagram:
    def test_example_1_snapshot(self, capsys):
        code, out, _ = invoke(capsys, "diagram", "4317625")
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
        code, out, _ = invoke(capsys, "march", "4317625", "--rows", "2")
        assert (code, out) == (0, "4517326\n")

    def test_steps(self, capsys):
        code, out, _ = invoke(capsys, "march", "4317625", "--rows", "1,3", "--steps")
        assert code == 0
        assert out == (
            "start 4317625\n"
            "march 1 -> 5317426\n"
            "add box (5,4) -> 5317624\n"
            "march 3 -> 5347126\n"
        )

    def test_non_pivot_row_is_a_precondition_failure(self, capsys):
        code, _, err = invoke(capsys, "march", "4317625", "--rows", "4")
        assert code == 3
        assert "pivot" in err

    def test_identity_has_no_marches(self, capsys):
        assert invoke(capsys, "march", "1", "--rows", "1")[0] == 3

    def test_malformed_rows(self, capsys):
        code, _, _ = invoke(capsys, "march", "4317625", "--rows", "2;3")
        assert code == 2


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

    def test_node_ceiling_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_NODE_CEILING", "3")
        code, _, _ = invoke(capsys, "tree", "34127658", "--t", "4")
        assert code == 4

    def test_cohomology_mode(self, capsys):
        code, out, _ = invoke(capsys, "tree", "321465", "--t", "2", "--cohomology")
        assert code == 0
        assert "--1,2-->" not in out


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


class TestMultiply:
    def test_example_4(self, capsys):
        code, out, _ = invoke(capsys, "multiply", "321", "132")
        assert code == 0
        assert out == '{"3412": 1, "4213": 1, "4312": -1}\n'
        parsed = json.loads(out)
        assert parsed == {"3412": 1, "4213": 1, "4312": -1}

    def test_cohomology_restriction(self, capsys):
        code, out, _ = invoke(capsys, "multiply", "321", "132", "--cohomology")
        assert code == 0
        assert json.loads(out) == {"3412": 1, "4213": 1}


class TestProduct:
    def test_example_4(self, capsys):
        code, out, err = invoke(capsys, "product", "321", "132", "--n", "3", "--t", "2")
        assert code == 0
        assert json.loads(out) == {"3412": 1, "4213": 1, "4312": -1}
        assert "rho = 132" in err

    def test_example_5_cohomology(self, capsys):
        code, out, _ = invoke(
            capsys, "product", "41352", "4321", "--n", "5", "--t", "7", "--cohomology"
        )
        assert code == 0
        assert json.loads(out) == {"413569827": 1, "413629857": 1}

    def test_example_5_k_mode(self, capsys):
        code, out, _ = invoke(capsys, "product", "41352", "4321", "--n", "5", "--t", "7")
        assert code == 0
        assert json.loads(out) == {"413569827": 1, "413629857": 1, "413659827": -1}

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


class TestUsageErrors:
    def test_bad_permutation_text(self, capsys):
        code, _, err = invoke(capsys, "diagram", "10")
        assert code == 2
        assert "error" in err

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "polish")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert invoke(capsys, "tree", "321465")[0] == 2

    def test_non_positive_levels_are_usage_errors(self, capsys):
        assert invoke(capsys, "tree", "321465", "--t", "0")[0] == 2
        assert invoke(capsys, "tree", "321465", "--t", "-1")[0] == 2
        for flags in (("--n", "0", "--t", "2"), ("--n", "-3", "--t", "2"),
                      ("--n", "3", "--t", "0"), ("--n", "3", "--t", "-2")):
            code, _, err = invoke(capsys, "product", "321", "132", *flags)
            assert code == 2, flags
            assert "error" in err

    def test_level_beyond_2n_stays_a_precondition_failure(self, capsys):
        assert invoke(capsys, "product", "321", "132", "--n", "3", "--t", "9")[0] == 3

    def test_negative_node_ceiling_is_a_usage_error(self, capsys, monkeypatch):
        assert invoke(capsys, "tree", "321465", "--t", "2", "--node-ceiling", "-5")[0] == 2
        assert invoke(
            capsys, "product", "321", "132", "--n", "3", "--t", "2", "--node-ceiling", "-5"
        )[0] == 2
        monkeypatch.setenv("SCHUBERT_NODE_CEILING", "-5")
        code, _, err = invoke(capsys, "tree", "321465", "--t", "2")
        assert code == 2
        assert "SCHUBERT_NODE_CEILING" in err

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

        def grothendieck(_):
            raise WidgetCeilingExceeded("more than 3 widgets")

        monkeypatch.setattr(cli, "grothendieck", grothendieck)
        assert invoke(capsys, "groth", "132") == (4, "", "resource limit: more than 3 widgets\n")

    def test_only_commands_with_a_node_ceiling_read_its_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHUBERT_NODE_CEILING", "-5")
        assert invoke(capsys, "multiply", "321", "132") == (
            0, '{"3412": 1, "4213": 1, "4312": -1}\n', ""
        )
        assert invoke(capsys, "product", "321", "132", "--n", "3", "--t", "2") == (
            2, "", "error: SCHUBERT_NODE_CEILING: must be at least 0, got -5\n"
        )


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
