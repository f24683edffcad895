"""Regenerate the candidate pools the benchmark draws its inputs from.

    python3 bench/make_pools.py

``cli_pool.json`` holds products for cli-multiply.  Random pairs
(sigma, rho) from S_6 and S_7 are drawn with a fixed generator seed; the
size of each product's expansion in the Grothendieck basis decides
whether it is kept, up to a fixed number per size band.  Every band has
hundreds of terms or more, and most pairs have 250-500.  A pair whose
polynomial product has more term pairs (len G_sigma x len G_rho) than
its band allows is skipped, so that a round of cli-multiply, with 35
products among its 40 commands, fits in a run.  Membership therefore
depends only on the generator seed.  Each kept pair is then timed as
``schubert multiply`` in a fresh interpreter, so its cost includes cold
caches as in the benchmark; the least of three timings is kept, being
the one least slowed by other load.

``march_pool.json`` holds distinct random pairs (sigma, alpha) from
S_5 x S_5 with the number of nodes of their K and cohomology marching
trees at the smallest admissible level: the work of one march-s5
operation, counted exactly.  Rows are [sigma, alpha, nodes].

The benchmark sorts a pool by that cost and draws one pair from each of
a fixed number of equal-size strata, so every seed gets a batch with the
same spread of costs and the end-to-end metrics vary little between
seeds.  The costs are used for nothing else: outputs are checked by
properties and oracles, never against stored answers.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

GENERATOR_SEED = 20040715
# (lowest, highest) number of basis terms in the expansion, how many pairs
# to keep in that band, and the most term pairs a kept pair may have.
# The caps keep the cheaper products of each band, 0.1-1.3 s each cold.
# Products with 1000-1500 terms take about 2 s each, so the pool keeps two
# of them and every seed draws one.  Products with about 2000 terms or
# more take 4-30 s each and are left out.
CLI_BANDS = ((250, 500, 52, 4_000), (500, 1000, 16, 4_000), (1000, 1500, 2, 6_500))
MARCH_PAIRS = 2400


def _random_perm(rng: random.Random, n: int):
    from schubert import Permutation

    return Permutation(tuple(rng.sample(range(1, n + 1), n)))


def _cold_seconds(sigma: str, rho: str) -> float:
    code = (
        "import sys, time, io, contextlib\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from schubert.cli import run\n"
        "start = time.perf_counter()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run(['multiply', {sigma!r}, {rho!r}])\n"
        "print(time.perf_counter() - start if code == 0 else -1)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    seconds = float(out.stdout.strip())
    if seconds < 0:
        raise RuntimeError(f"multiply {sigma} {rho} failed")
    return seconds


def cli_pool() -> dict:
    from schubert import grothendieck, structure_constants

    rng = random.Random(GENERATOR_SEED)
    kept: dict[tuple, list[tuple[str, str, int]]] = {band: [] for band in CLI_BANDS}
    seen = set()
    while open_bands := [band for band in CLI_BANDS if len(kept[band]) < band[2]]:
        sigma, rho = _random_perm(rng, rng.choice((6, 7))), _random_perm(rng, rng.choice((6, 7)))
        term_pairs = len(grothendieck(sigma)) * len(grothendieck(rho))
        if (sigma, rho) in seen or term_pairs > max(band[3] for band in open_bands):
            continue
        seen.add((sigma, rho))
        terms = len(structure_constants(sigma, rho))
        for band in open_bands:
            low, high, _, cap = band
            if low <= terms < high and term_pairs <= cap:
                kept[band].append((sigma.text(), rho.text(), terms))
    pairs = []
    for band in kept.values():
        for sigma, rho, terms in band:
            cost = min(_cold_seconds(sigma, rho) for _ in range(3))
            pairs.append({"sigma": sigma, "rho": rho, "terms": terms, "cost_ms": round(1e3 * cost, 1)})
    pairs.sort(key=lambda e: (e["cost_ms"], e["sigma"], e["rho"]))
    return {
        "generator_seed": GENERATOR_SEED,
        "bands": [list(b) for b in CLI_BANDS],
        "band_columns": ["lowest terms", "highest terms", "pairs", "most term pairs"],
        "pairs": pairs,
    }


def march_pool() -> dict:
    from schubert import build_tree, detect

    rng = random.Random(GENERATOR_SEED)
    seen = set()
    pairs = []
    while len(pairs) < MARCH_PAIRS:
        sigma, alpha = _random_perm(rng, 5), _random_perm(rng, 5)
        if (sigma, alpha) in seen:
            continue
        seen.add((sigma, alpha))
        t = max(1, sigma.last_descent() or 0)
        while (problem := detect(sigma, alpha, 5, t)) is None:
            t += 1
        nodes = sum(
            sum(1 for _ in build_tree(problem.star_root(), t, mode).nodes())
            for mode in ("K", "cohomology")
        )
        pairs.append([sigma.text(), alpha.text(), nodes])
    pairs.sort(key=lambda e: (e[2], e[0], e[1]))
    return {"generator_seed": GENERATOR_SEED, "columns": ["sigma", "alpha", "nodes"], "pairs": pairs}


def main() -> int:
    started = time.perf_counter()
    for name, make in (("cli", cli_pool), ("march", march_pool)):
        pool = make()
        path = BENCH / f"{name}_pool.json"
        rows = ",\n".join("  " + json.dumps(p) for p in pool.pop("pairs"))
        head = json.dumps(pool)[:-1]
        path.write_text(f'{head}, "pairs": [\n{rows}\n]}}\n')
        print(f"{path.name}: {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
