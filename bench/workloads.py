"""The three workloads: inputs made from a seed, and checks of outputs.

Inputs are built here in plain Python, without importing ``schubert``,
so that the same seed gives the same inputs whatever the library does.
The operations themselves run in ``worker.py``.  The checks below read
the outputs back and test them against properties and oracles, never
against stored answers.
"""
from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent

WORKLOADS = ("verify-sweep", "cli-multiply", "march-s5")

# The polynomial oracle of march-s5 is checked only where rho's window is
# at most this; a window-10 rho (about one problem in nine) can take 15 s
# per product, which no run can afford.  Those problems keep the sum,
# sign and cohomology checks.
MARCH_ORACLE_WINDOW = 9
# Two of the largest K trees of S_5 x S_5 (about 20k nodes each), exported
# in every round whatever the seed, so that the cost of a materialised
# tree, and the memory it takes, are the same from seed to seed.
MARCH_EXPORTS = (("54213", "54321"), ("54321", "53421"))
MARCH_NODE_CAP = 20_000
MARCH_PROBLEMS = 240
# cli-multiply: products, one per cost stratum of cli_pool.json, and
# truncated groth commands; with the large groth, 40 commands, enough for
# a tail percentile with ten commands beyond it.
CLI_PRODUCTS = 35
CLI_TRUNCATED = 4
LARGE_GROTH = "1,11,10,9,8,7,6,5,4,3,2"
SMOKE_LARGE_GROTH = "1,8,7,6,5,4,3,2"


# -- permutations as plain tuples --------------------------------------------


def text(window: tuple[int, ...]) -> str:
    """The library's text form of a window (trailing fixed points kept)."""
    if not window:
        return "1"
    if all(v <= 9 for v in window):
        return "".join(map(str, window))
    return ",".join(map(str, window))


def trim(values: tuple[int, ...]) -> tuple[int, ...]:
    while values and values[-1] == len(values):
        values = values[:-1]
    return values


def window_of(perm: str) -> tuple[int, ...]:
    return trim(tuple(int(v) for v in perm.split(",")) if "," in perm else tuple(map(int, perm)))


def length(perm: str) -> int:
    w = window_of(perm)
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def star_text(sigma: str, alpha: str, n: int) -> str:
    """sigma *_n alpha: sigma on 1..n, alpha shifted by n on n+1..2n."""
    def padded(perm: str) -> tuple[int, ...]:
        w = window_of(perm)
        return w + tuple(range(len(w) + 1, n + 1))

    return text(trim(padded(sigma) + tuple(n + v for v in padded(alpha))))


def last_descent(window: tuple[int, ...]) -> int:
    return max((i + 1 for i in range(len(window) - 1) if window[i] > window[i + 1]), default=0)


def lehmer_code(perm: str) -> tuple[int, ...]:
    w = window_of(perm)
    code = [sum(1 for v in w[i + 1 :] if v < w[i]) for i in range(len(w))]
    while code and code[-1] == 0:
        code.pop()
    return tuple(code)


# -- inputs -------------------------------------------------------------------


def verify_sweep_inputs(seed: int, smoke: bool = False) -> list[tuple[str, str, int]]:
    """Every (sigma, alpha) in S_4 x S_4 once, each with one seeded level t.

    The level is Latin-balanced: t runs through sigma's admissible range
    max(1, last descent) .. 8 along a seeded cyclic order, so every sigma
    and every alpha meets low and high levels alike.  The oracle cost
    grows steeply with t, and this balance keeps the cost of a round
    nearly the same for every seed.
    """
    rng = random.Random(f"verify-sweep:{seed}")
    perms = list(itertools.permutations(range(1, 5)))
    shift_sigma = rng.sample(range(len(perms)), len(perms))
    shift_alpha = rng.sample(range(len(perms)), len(perms))
    cases = []
    for i, sigma in enumerate(perms):
        levels = range(max(1, last_descent(sigma)), 9)
        for j, alpha in enumerate(perms):
            t = levels[(shift_sigma[i] + shift_alpha[j]) % len(levels)]
            cases.append((text(sigma), text(alpha), t))
    rng.shuffle(cases)
    return cases[:12] if smoke else cases


def _strata(pool: list, count: int, rng: random.Random) -> list:
    """One random entry from each of ``count`` equal slices of a cost-sorted pool."""
    return [rng.choice(pool[k * len(pool) // count : (k + 1) * len(pool) // count]) for k in range(count)]


def march_s5_inputs(seed: int, smoke: bool = False) -> list[tuple]:
    """One S_5 pair from each of 240 node-count strata of the march pool,
    then the export cases (sigma, alpha, "export").

    Pairs whose two trees together exceed the export trees' size are left
    out of the draw: the exports stand for the largest trees, and a single
    such pair (up to 86k nodes) would swing a round's run time by a third.
    """
    rng = random.Random(f"march-s5:{seed}")
    pool = json.loads((BENCH / "march_pool.json").read_text())["pairs"]
    pool = [(sigma, alpha) for sigma, alpha, nodes in pool if nodes <= MARCH_NODE_CAP]
    pairs = _strata(pool, 10 if smoke else MARCH_PROBLEMS, rng)
    rng.shuffle(pairs)
    if smoke:
        return pairs + [(*pairs[0], "export")]
    return pairs + [(sigma, alpha, "export") for sigma, alpha in MARCH_EXPORTS]


def cli_multiply_inputs(seed: int, smoke: bool = False) -> list[list[str]]:
    """One multiply per cost stratum of the pool, a few truncated groth
    commands over S_6, and one large groth: 40 commands."""
    rng = random.Random(f"cli-multiply:{seed}")
    pool = json.loads((BENCH / "cli_pool.json").read_text())["pairs"]
    commands = [["multiply", p["sigma"], p["rho"]] for p in _strata(pool, 4 if smoke else CLI_PRODUCTS, rng)]
    for _ in range(1 if smoke else CLI_TRUNCATED):
        while True:
            w = tuple(rng.sample(range(1, 7), 6))
            if last_descent(w) >= 2:
                break
        commands.append(["groth", text(w), "--truncate", str(rng.randrange(1, last_descent(w)))])
    commands.append(["groth", SMOKE_LARGE_GROTH if smoke else LARGE_GROTH])
    rng.shuffle(commands)
    return commands


def inputs(workload: str, seed: int, smoke: bool = False) -> list:
    return {
        "verify-sweep": verify_sweep_inputs,
        "march-s5": march_s5_inputs,
        "cli-multiply": cli_multiply_inputs,
    }[workload](seed, smoke)


# -- checks -------------------------------------------------------------------


class Checker:
    """Checks outputs against properties and the library's independent
    oracles.  Oracle answers are kept, since every round repeats the same
    inputs."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self._oracle: dict = {}

    def _structure_constants(self, sigma: str, rho: str) -> dict[str, int]:
        key = (sigma, rho)
        if key not in self._oracle:
            P = self.lib.Permutation
            expansion = self.lib.structure_constants(P.parse(sigma), P.parse(rho))
            self._oracle[key] = {p.text(): c for p, c in expansion.items()}
        return self._oracle[key]

    def check(self, workload: str, case, output) -> str | None:
        """None when the output is right, else what is wrong."""
        return getattr(self, "_" + workload.replace("-", "_"))(case, output)

    def _verify_sweep(self, case, output) -> str | None:
        sigma, alpha, t = case
        if output is None:
            P = self.lib.Permutation
            tree = self.lib.build_tree(P.parse(alpha).stabilize(4), t, "K")
            labeled = sum(self.lib.leaf_summary(tree).counts.values())
            return None if labeled != 1 else "detect missed a truncation problem"
        if not output["match"]:
            return "report does not match"
        if output["tree"] != output["oracle"]:
            return "tree and oracle expansions differ"
        base = length(sigma) + length(output["rho"])
        return expansion_fault(output["tree"], base)

    def _march_s5(self, case, output) -> str | None:
        if len(case) == 3:
            return self._export(case, output)
        sigma = case[0]
        base = length(sigma) + length(output["rho"])
        fault = expansion_fault(output["K"], base)
        if fault:
            return fault
        top = {w: c for w, c in output["K"].items() if length(w) == base}
        if output["H"] != top:
            return "cohomology expansion is not the top layer of the K expansion"
        if len(window_of(output["rho"])) <= MARCH_ORACLE_WINDOW:
            if output["K"] != self._structure_constants(sigma, output["rho"]):
                return "K expansion differs from the structure-constant oracle"
        return None

    def _export(self, case, output) -> str | None:
        sigma, alpha, _ = case
        base = length(sigma) + length(alpha)
        root = json.loads(output["json"])
        if root["label"] != star_text(sigma, alpha, 5):
            return "exported tree is not rooted at the star product"
        nodes = 0
        leaves: dict[str, int] = {}
        pending = [root]
        while pending:
            node = pending.pop()
            nodes += 1
            pending.extend(node["children"])
            if not node["children"] and node["label"] is not None:
                label = node["label"]
                sign = -1 if (base - length(label)) % 2 else 1
                leaves[label] = leaves.get(label, 0) + sign
        fault = expansion_fault(leaves, base)
        if fault:
            return f"leaves of the exported tree: {fault}"
        dot_nodes = len(re.findall(r"^  n\d+ \[label=", output["dot"], re.M))
        dot_edges = len(re.findall(r"^  n\d+ -> n\d+ ", output["dot"], re.M))
        if (dot_nodes, dot_edges) != (nodes, nodes - 1):
            return "DOT export does not have the tree's nodes and edges"
        return None

    def _cli_multiply(self, argv, output) -> str | None:
        if output["code"] != 0:
            return f"exit code {output['code']}"
        if argv[0] == "multiply":
            expansion = json.loads(output["stdout"])
            return expansion_fault(expansion, length(argv[1]) + length(argv[2]))
        perm = argv[1]
        terms = parse_polynomial(output["stdout"])
        window = len(window_of(perm))
        if "--truncate" in argv:
            t = int(argv[argv.index("--truncate") + 1])
            expected = {e: c for e, c in self._dd(perm).terms() if len(e) <= t}
            return None if terms == expected else "truncation differs from divided differences"
        if sum(terms.values()) != 1:
            return "G_w(1,...,1) is not 1"
        low = min(sum(e) for e in terms)
        if low != length(perm):
            return "lowest degree is not the length"
        if terms.get(lehmer_code(perm)) != 1:
            return "Lehmer monomial does not have coefficient 1"
        if window <= 6 and terms != dict(self._dd(perm).terms()):
            return "differs from the divided-difference construction"
        return None

    def _dd(self, perm: str):
        return self.lib.grothendieck_dd(self.lib.Permutation.parse(perm), 6)


def expansion_fault(expansion: dict[str, int], base: int) -> str | None:
    """Sum 1, and Brion's sign law: sign of c_w is (-1)^(length(w) - base)."""
    if sum(expansion.values()) != 1:
        return "coefficients do not sum to 1"
    for w, c in expansion.items():
        if c == 0 or (c > 0) != ((length(w) - base) % 2 == 0):
            return f"coefficient {c} of {w} breaks the Brion sign law"
    return None


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_polynomial(rendered: str) -> dict[tuple[int, ...], int]:
    """Read ``x1 + x2 - x1*x2`` back into {trimmed exponent: coefficient}."""
    terms: dict[tuple[int, ...], int] = {}
    for sign, body in re.findall(r"(-?)\s*([^\s+-]+)", rendered.replace("- ", "-")):
        coeff = -1 if sign else 1
        powers: dict[int, int] = {}
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"unreadable factor {factor!r}")
            i = int(match.group(1))
            powers[i] = powers.get(i, 0) + int(match.group(2) or 1)
        exponent = tuple(powers.get(i, 0) for i in range(1, max(powers, default=0) + 1))
        terms[exponent] = terms.get(exponent, 0) + coeff
    return {e: c for e, c in terms.items() if c}
