"""The benchmark's workloads: each op's argv and its reference answer.

    python3 perfbench/workloads.py WORKLOAD SEED DIR

writes the workload's seeded edge-list inputs into DIR and prints one JSON
object: the ops (name, argv, checker name, reference, timeout, and the op
whose stdout it must repeat, if any), the SHA-256 of each input and the
numpy version used for the references. It runs in its own process so that
numpy and sympy never load into the process that times the ops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import inputs as gen
import reference as ref

OP_TIMEOUT_S = 30.0
VERIFY_TIMEOUT_S = 60.0


def op(name: str, argv, check: str, want=None, timeout_s: float = OP_TIMEOUT_S,
       same_as: str | None = None) -> dict:
    return {"name": name, "argv": [str(a) for a in argv], "check": check, "want": want,
            "timeout_s": timeout_s, "same_as": same_as}


class Inputs:
    """Edge-list files generated from the seed, with their SHA-256."""

    def __init__(self, directory: Path, seed: int) -> None:
        self.directory = directory
        self.seed = seed
        self.sha256: dict[str, str] = {}

    def edge_list(self, name: str) -> tuple[str, int, list[tuple[int, int]]]:
        n, edges = gen.make_input(name, self.seed)
        text = gen.edge_list_text(n, edges)
        path = self.directory / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        self.sha256[name] = gen.sha256_text(text)
        return str(path), n, edges


def verify_corpus(inputs: Inputs) -> list[dict]:
    del inputs  # the corpus is pinned inside lapstats
    return [
        op("verify-j1", ["verify"], "verify", timeout_s=VERIFY_TIMEOUT_S),
        op("verify-j2", ["verify", "--jobs", 2], "verify", timeout_s=VERIFY_TIMEOUT_S,
           same_as="verify-j1"),
    ]


def family_scale(inputs: Inputs) -> list[dict]:
    del inputs  # closed-form families take no generated input
    ref.self_check_families(("path", "star", "complete", "complete_bipartite", "wheel"))

    def diagnose(name: str, family: str, params: tuple[int, ...]) -> dict:
        return op(name, ["diagnose", "--family", family, "--n", ",".join(map(str, params))],
                  "rows", [ref.family_row(family, params)])

    ladder = (1000, 4000, 10000)
    return [
        diagnose("diag-path", "path", (3000,)),
        diagnose("diag-star", "star", (3000,)),
        op("stats-complete", ["stats", "--family", "complete", "--n", 2000], "stats",
           ref.stats_payload("complete", (2000,))),
        diagnose("diag-kmm", "complete_bipartite", (500, 500)),
        op("sweep-wheel-j2",
           ["sweep", "--family", "wheel", "--ladder", ",".join(map(str, ladder)), "--jobs", 2],
           "rows", [ref.family_row("wheel", (r,)) for r in ladder]),
        op("coeffs-path-csv",
           ["coeffs", "--family", "path", "--n", 2000, "--closed-form", "--format", "csv"],
           "coeffs_csv", ref.path_coefficients(2000)),
    ]


def unstructured_mid(inputs: Inputs) -> list[dict]:
    def coeffs(name: str, graph: str, signless: bool) -> dict:
        path, n, edges = inputs.edge_list(graph)
        want = ref.charpoly_coefficients(ref.laplacian(n, edges, signless))
        return op(name, ["coeffs", "--edge-list", path] + (["--signless"] if signless else []),
                  "coeffs_json", want)

    def diagnose(name: str, graph: str) -> dict:
        path, n, edges = inputs.edge_list(graph)
        return op(name, ["diagnose", "--edge-list", path], "rows", [ref.edge_list_row(n, edges)])

    path, n, edges = inputs.edge_list("rr96")
    return [
        coeffs("coeffs-rr64", "rr64", signless=False),
        coeffs("coeffs-rt48-signless", "rt48", signless=True),
        # 60 and 128 vertices sit either side of diagnose's exact-charpoly cap (64)
        diagnose("diag-rt60", "rt60"),
        diagnose("diag-rr128", "rr128"),
        op("spectrum-rr96-csv", ["spectrum", "--edge-list", path, "--format", "csv"],
           "spectrum_csv", ref.eigenvalues(ref.laplacian(n, edges))),
    ]


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "family-scale": family_scale,
    "unstructured-mid": unstructured_mid,
}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        print(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DIR", file=sys.stderr)
        return 2
    inputs = Inputs(Path(argv[2]), int(argv[1]))
    ops = WORKLOADS[argv[0]](inputs)
    json.dump({"ops": ops, "inputs": inputs.sha256, "numpy": np.__version__}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
