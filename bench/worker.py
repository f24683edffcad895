"""One worker process: set up, announce readiness, run operations, report.

    python3 bench/worker.py round WORKLOAD SEED [--smoke] [--probe] [--spans PATH]
    python3 bench/worker.py command ARGV_JSON [--spans PATH]

A ``round`` worker builds its workload's inputs from the seed and runs
every operation once, in order, with cold caches.  A ``command`` worker
runs one ``schubert`` command line through ``schubert.cli.run``.  Both
print one JSON line when set-up is done and one JSON line with the
results at the end.  ``--spans`` traces the run (see ``tracer.py``) and
writes the spans to PATH; ``--probe`` stops after set-up.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import schubert  # noqa: E402
import schubert.cli  # noqa: E402

if not Path(schubert.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"schubert was imported from {schubert.__file__}, not from {ROOT / 'src'}")

GROTHENDIECK = sys.modules["schubert.grothendieck"].grothendieck


REFERENCE_EVERY_S = 1.0


def _ready() -> None:
    print(json.dumps({"ready": True}), flush=True)


def reference_seconds() -> float:
    """One timing of a fixed pure-Python loop of dict and integer work.

    Rounds interleave it with their operations, and run.py scales each
    round's times by it, so that a host that is slow for a minute does not
    read as a slow library.  The cyclic garbage collector is held off while
    it runs: a collection would walk every object the library still holds
    (its caches, the round's trees), and tie the loop's time to them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(100_000):
            key = (i & 1023, i & 7)
            table[key] = table.get(key, 0) + i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _verify_sweep_op(case):
    lib = schubert
    sigma, alpha, t = case
    problem = lib.detect(sigma, alpha, 4, t)
    return None if problem is None else (problem, lib.verify(problem, "K"))


def _smallest_problem(sigma, alpha):
    """The truncation problem at the smallest admissible level t."""
    for t in range(max(1, sigma.last_descent() or 0), 11):
        problem = schubert.detect(sigma, alpha, 5, t)
        if problem is not None:
            return problem
    raise RuntimeError(f"({sigma}, {alpha}) is no truncation problem at any level")


def _march_s5_op(case):
    lib = schubert
    problem = _smallest_problem(*case[:2])
    if len(case) == 3:
        tree = lib.build_tree(problem.star_root(), problem.t, "K")
        return lib.to_json(tree), lib.to_dot(tree)
    return problem, lib.truncation_product(problem, "K"), lib.truncation_product(problem, "cohomology")


def _texts(expansion) -> dict[str, int]:
    return {perm.text(): c for perm, c in expansion.items()}


def _run_ops(op, cases, tracer) -> tuple[list[float], list, list, list[float]]:
    """Time each operation, with the reference loop about once a second
    between operations; an exception fails that operation only."""
    if tracer is not None:
        op = tracer.span("bench.op", op)
    clock = time.perf_counter
    seconds, results, errors = [], [], []
    references = [reference_seconds()]
    since = 0.0
    for case in cases:
        start = clock()
        try:
            result, error = op(case), None
        except Exception as exc:  # one failed operation must not end the round
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds.append(clock() - start)
        results.append(result)
        errors.append(error)
        since += seconds[-1]
        if since >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            since = 0.0
    references.append(reference_seconds())
    return seconds, results, errors, references


def round_worker(workload: str, seed: int, smoke: bool, probe: bool, tracer) -> dict:
    import workloads

    P = schubert.Permutation
    raw = workloads.inputs(workload, seed, smoke)
    cases = [tuple(P.parse(x) if isinstance(x, str) and x != "export" else x for x in c) for c in raw]
    _ready()
    if probe:
        return {}
    if tracer is not None:
        tracer.install()
    op = _verify_sweep_op if workload == "verify-sweep" else _march_s5_op
    seconds, results, errors, references = _run_ops(op, cases, tracer)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = []
    for case, result in zip(cases, results):
        if result is None:
            outputs.append(None)
        elif workload == "verify-sweep":
            problem, report = result
            outputs.append(
                {
                    "rho": problem.rho.text(),
                    "match": report.match,
                    "tree": _texts(report.tree_expansion),
                    "oracle": _texts(report.oracle_expansion),
                }
            )
        elif len(case) == 3:
            outputs.append({"json": result[0], "dot": result[1]})
        else:
            problem, k_expansion, h_expansion = result
            outputs.append(
                {"t": problem.t, "rho": problem.rho.text(), "K": _texts(k_expansion), "H": _texts(h_expansion)}
            )
    return {
        "cases": raw,
        "seconds": seconds,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": peak,
        "reference_s": references,
    }


def command_worker(argv: list[str], tracer) -> dict:
    _ready()
    if tracer is not None:
        tracer.install()
    run = schubert.cli.run
    if tracer is not None:
        run = tracer.span("bench.op", run)
    reference = reference_seconds()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code, error = run(argv), None
        except Exception as exc:  # reported as a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.counters["cli.stdout_bytes"] += len(stdout.getvalue().encode())
    if code not in (0, None) and error is None:
        error = f"exit code {code}: {stderr.getvalue().strip()}"
    return {
        "cases": [argv],
        "seconds": [seconds],
        "outputs": [{"code": code, "stdout": stdout.getvalue()}],
        "errors": [error],
        "peak_rss_mb": peak,
        "reference_s": [reference],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="kind", required=True)
    r = sub.add_parser("round")
    r.add_argument("workload", choices=("verify-sweep", "march-s5"))
    r.add_argument("seed", type=int)
    r.add_argument("--smoke", action="store_true")
    r.add_argument("--probe", action="store_true")
    r.add_argument("--spans", type=Path)
    c = sub.add_parser("command")
    c.add_argument("argv", type=json.loads)
    c.add_argument("--spans", type=Path)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        # Imported only here, so that set-up times do not include it.
        import tracer as tracing

        tracer = tracing.Tracer()
    if args.kind == "round":
        result = round_worker(args.workload, args.seed, args.smoke, args.probe, tracer)
        if args.probe:
            return 0
    else:
        result = command_worker(args.argv, tracer)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, GROTHENDIECK)
        tracer.write(args.spans, {"kind": args.kind, "argv": sys.argv[1:]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
