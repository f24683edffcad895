"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selfcheck.py

The file name keeps these tests out of the library's own suite: the
smoke test starts about a hundred worker processes and takes ~30 s.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import schubert  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_runs_every_workload_and_check():
    out = _run("--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("ok   ") == 2 * len(workloads.WORKLOADS)


def test_result_line_has_the_contract_keys():
    out = _run("--workload", "march-s5", "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    *_, stamp_line, result_line = out.stdout.splitlines()
    assert set(json.loads(stamp_line)["stamp"]) >= {"python", "cpu", "nproc", "git_commit", "seed"}
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}


def test_traced_run_writes_readable_spans():
    out = _run("--workload", "verify-sweep", "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == set(tracer.UNITS)
    assert metrics["poly.mul"]["value"] > 0 and metrics["trace.overhead"]["value"] > 0
    _, spans = tracer.read_spans(BENCH / "traces" / "verify-sweep" / "round.spans")
    layers = {name.split(".")[0] for name, *_ in spans}
    assert {"bench", "truncation", "trees", "diagram", "permutations", "poly", "grothendieck"} <= layers
    assert all(-1 <= parent < k and start <= end for k, (_, parent, start, end) in enumerate(spans))


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "verify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 5) == workloads.inputs(name, 5)
        assert workloads.inputs(name, 5) != workloads.inputs(name, 6)
    sweep = workloads.verify_sweep_inputs(5)
    assert len({(s, a) for s, a, _ in sweep}) == len(sweep) == 24 * 24
    march = workloads.march_s5_inputs(5)
    problems = [case for case in march if len(case) == 2]
    assert len(problems) == len(set(problems)) == workloads.MARCH_PROBLEMS
    assert [case[:2] for case in march if len(case) == 3] == list(workloads.MARCH_EXPORTS)
    commands = workloads.cli_multiply_inputs(5)
    assert len(commands) == 40 and sum(c[0] == "multiply" for c in commands) == workloads.CLI_PRODUCTS


def test_brion_and_sum_checks_reject_bad_expansions():
    good = {"421356": 1, "341256": 1, "431256": -1}
    assert workloads.expansion_fault(good, 4) is None
    assert workloads.expansion_fault({**good, "431256": 1}, 4) is not None
    assert workloads.expansion_fault({"421356": 1, "341256": -1, "431256": 1}, 4) is not None


def test_polynomial_reader_matches_the_library_renderer():
    for text in ("132", "1432", "4321", "2413"):
        poly = schubert.grothendieck(schubert.Permutation.parse(text))
        assert workloads.parse_polynomial(poly.render()) == dict(poly.terms())


def test_checker_rejects_a_wrong_groth_output():
    checker = workloads.Checker(schubert)
    right = {"code": 0, "stdout": "x1 + x2 - x1*x2"}
    assert checker.check("cli-multiply", ["groth", "132"], right) is None
    wrong = {"code": 0, "stdout": "x1 + x2 + x1*x2"}
    assert checker.check("cli-multiply", ["groth", "132"], wrong) is not None
    truncated = {"code": 0, "stdout": "x1 + x2"}
    assert checker.check("cli-multiply", ["groth", "132", "--truncate", "1"], truncated) is not None


def test_checker_rejects_a_wrong_march_output():
    checker = workloads.Checker(schubert)
    case = ("321", "132")
    output = {"t": 2, "rho": "132", "K": {"4213": 1, "3412": 1, "4312": -1}, "H": {"4213": 1, "3412": 1}}
    assert checker.check("march-s5", case, output) is None
    assert checker.check("march-s5", case, {**output, "H": {"4213": 1}}) is not None
    assert checker.check("march-s5", case, {**output, "K": {"4213": 1}, "H": {"4213": 1}}) is not None
