"""Benchmark of the schubert library: three workloads, one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness 10 [--workload NAME ...] [--seconds S]
    python3 bench/run.py --smoke
    python3 bench/run.py --list-inputs --workload NAME --seed N

Load is a closed loop from this one process: it starts one worker at a
time and each worker runs one operation at a time.  Every round starts
a fresh worker (for cli-multiply, one per command), so caches are cold.
A run makes ``--seconds`` // (nominal round time) rounds, at least one,
each of the same seeded operations.  Each round's times are scaled by a
reference loop run between its operations (see ``REFERENCE_S``), and
each operation is timed by its fastest round.  With ``--trace 1`` a run
makes one plain and one traced round instead.  Outputs of every round
are checked after the timed phase.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it stamps the run with interpreter, CPU, nproc, commit and seed.
The exit code is 0 only when no operation failed and every check held.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
TRACES = BENCH / "traces"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# The reference loop's time (worker.reference_seconds) on the machine the
# bounds were set on, in a quiet moment.  Every time a round measures is
# scaled by REFERENCE_S over the loop's mean time in that round, so a
# figure reads as on that machine at that speed.
REFERENCE_S = 0.025
# Seconds one round takes on the reference machine (README); a run makes
# seconds // this many rounds, and at least one.
NOMINAL_ROUND_S = {"verify-sweep": 11.0, "cli-multiply": 26.0, "march-s5": 9.0}
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float, dict]:
    """Start a worker; return the seconds until it was ready, and its result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,  # unbuffered, so communicate() sees all that follows the ready line
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not ready.strip():
        message = err.decode(errors="replace").strip()[-2000:]
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}: {message}")
    return setup, (json.loads(out.splitlines()[-1]) if out.strip() else {})


def run_round(workload: str, seed: int, smoke: bool, spans: Path | None) -> dict:
    """One round: every operation once, with cold caches."""
    traced = [] if spans is None else ["--spans", str(spans)]
    if workload != "cli-multiply":
        extra = ["--smoke"] if smoke else []
        setup, result = spawn(["round", workload, str(seed), *extra, *traced])
        result["setups"] = [setup]
        result["layers"] = [result["layers"]] if spans else []
        return result
    merged = {"cases": [], "seconds": [], "outputs": [], "errors": [], "setups": [], "layers": [], "reference_s": []}
    peak = 0.0
    for k, argv in enumerate(workloads.inputs(workload, seed, smoke)):
        if spans is not None:
            traced = ["--spans", str(spans.with_name(f"{spans.stem}-{k:02d}.spans"))]
        setup, result = spawn(["command", json.dumps(argv), *traced])
        for key in ("cases", "seconds", "outputs", "errors", "reference_s"):
            merged[key].extend(result[key])
        merged["setups"].append(setup)
        if spans is not None:
            merged["layers"].append(result["layers"])
        peak = max(peak, result["peak_rss_mb"])
    merged["peak_rss_mb"] = peak
    return merged


def tail_percentile(per_round: int) -> int:
    """The highest whole percentile with at least ten operations of a round beyond it."""
    return max(50, math.floor(100 * (per_round - 10) / per_round))


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    distribution.  With 40 operations a single order statistic moves with
    the noise of one or two operations; this estimate averages several.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) if 0 < t < 1 else 0.0

    per = max(1, 20_000 // n)  # grid points per order statistic
    steps = n * per
    cdf, previous = [0.0], density(0.0)
    for j in range(1, steps + 1):
        current = density(j / steps)
        cdf.append(cdf[-1] + (previous + current) / (2 * steps))
        previous = current
    return sum((cdf[(i + 1) * per] - cdf[i * per]) * x for i, x in enumerate(ordered)) / cdf[-1]


def stamp(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check(workload: str, rounds: list[dict]) -> tuple[int, list[str], list[str]]:
    """Attempted operations, the failed ones, and the wrong outputs of the others."""
    sys.path.insert(0, str(ROOT / "src"))
    import schubert

    checker = workloads.Checker(schubert)
    attempted, failed, wrong = 0, [], []
    for result in rounds:
        for case, output, error in zip(result["cases"], result["outputs"], result["errors"]):
            attempted += 1
            if error is not None:
                failed.append(f"failed {case}: {error}")
            elif (fault := checker.check(workload, case, output)) is not None:
                wrong.append(f"wrong {case}: {fault}")
    return attempted, failed, wrong


def measure(args) -> tuple[dict, list[dict]]:
    """Run the rounds; with tracing, one plain and one traced round."""
    count = 1 if args.smoke or args.trace else max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    rounds = [run_round(args.workload, args.seed, args.smoke, None) for _ in range(count)]

    if args.trace:
        shutil.rmtree(TRACES / args.workload, ignore_errors=True)
        spans = TRACES / args.workload / "round.spans"
        traced = run_round(args.workload, args.seed, args.smoke, spans)
        plain, traced_s = (sum(r["seconds"]) * host_factor(r) for r in (rounds[0], traced))
        return tracing.finish(tracing.merge(traced["layers"]), traced_s / plain), rounds + [traced]

    factors = [host_factor(r) for r in rounds]
    setups = [s * f for r, f in zip(rounds, factors) for s in r["setups"]]
    while len(setups) < SETUP_SAMPLES:
        extra = ["--smoke"] if args.smoke else []
        setups.append(spawn(["round", args.workload, str(args.seed), "--probe", *extra])[0] * factors[-1])
    # Every round repeats the same operations, so each operation's fastest
    # round is its time with the least interference from the machine.
    best = [min(t * f for t, f in zip(times, factors)) for times in zip(*(r["seconds"] for r in rounds))]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * quantile(best, 0.5),
        "op_tail_ms": 1e3 * quantile(best, tail_percentile(len(best)) / 100),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, rounds


def host_factor(result: dict) -> float:
    """REFERENCE_S over the reference loop's mean time during the round."""
    return REFERENCE_S / statistics.mean(result["reference_s"])


def run_once(args) -> int:
    metrics, rounds = measure(args)
    attempted, failed, wrong = check(args.workload, rounds)
    for fault in (failed + wrong)[:20]:
        print(fault, file=sys.stderr)
    info = stamp(args)
    info.update(
        rounds=len(rounds),
        ops_per_round=len(rounds[0]["seconds"]),
        host_slowdown=[round(1 / host_factor(r), 3) for r in rounds],
    )
    if not args.trace:
        info["tail_percentile"] = tail_percentile(len(rounds[0]["seconds"]))
    print(json.dumps({"stamp": info}))
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not (failed or wrong) else 1


def steadiness(args) -> int:
    """Run each workload on several seeds and print each metric's median and spread."""
    summary, status = {}, 0
    for workload in args.workload_list:
        results = []
        for seed in range(1, args.steadiness + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if not out.stdout.strip():
                print(f"{workload} seed {seed} printed no result: {out.stderr[-2000:]}", file=sys.stderr)
                return 1
            line = json.loads(out.stdout.splitlines()[-1])
            if out.returncode != 0 or line["failed"] or not line["correct"]:
                # The spreads are still printed, but a failed run makes them unfit for setting bounds.
                print(f"{workload} seed {seed} FAILED (exit {out.returncode}): {out.stderr[-2000:]}",
                      file=sys.stderr)
                status = 1
            results.append(line)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0}
            print(f"  {name:42s} median {median:12.6g}  spread {rows[name]['spread']:.3f}")
        shares = {r["failed"] / r["attempted"] for r in results}
        summary[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                             "correct": all(r["correct"] for r in results)}
    print(json.dumps({"steadiness": summary}))
    return status


def smoke(args) -> int:
    """Every workload, traced and untraced, on reduced inputs; checks included."""
    status = 0
    for workload in args.workload_list:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", "0", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = json.loads(out.stdout.splitlines()[-1]) if out.stdout.strip() else {}
            wanted = tracing.UNITS if trace else END_TO_END_UNITS
            ok = (out.returncode == 0 and line.get("correct") is True and line.get("failed") == 0
                  and set(line.get("metrics", {})) == set(wanted))
            status |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace} "
                  f"attempted={line.get('attempted')} failed={line.get('failed')}")
            if not ok:
                print(out.stderr[-3000:], file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, one round")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run each workload on seeds 1..RUNS and print medians and spreads")
    parser.add_argument("--list-inputs", action="store_true", help="print the inputs of a seed")
    args = parser.parse_args(argv)
    args.workload_list = args.workload or list(workloads.WORKLOADS)

    if not (ROOT / "src" / "schubert" / "__init__.py").is_file():
        print(f"no schubert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.list_inputs:
        for workload in args.workload_list:
            for case in workloads.inputs(workload, args.seed, args.smoke):
                print(json.dumps([workload, case]))
        return 0
    if args.steadiness:
        return steadiness(args)
    if args.smoke and not args.workload:
        return smoke(args)
    if args.workload is None or len(args.workload) != 1:
        parser.error("a run needs exactly one --workload")
    args.workload = args.workload[0]
    try:
        return run_once(args)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
