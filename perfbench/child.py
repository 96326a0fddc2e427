"""Work the runner does in a fresh interpreter.

    python3 perfbench/child.py setup <workload> <seed>
        Build the workload's inputs, then time importing the ``mcdm`` modules
        it uses plus one warm-up operation; prints the seconds.
    python3 perfbench/child.py oracle rank-large <seed>
        Print the pure-Python oracle's weights and TOPSIS result for the
        rank-large matrix as JSON.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import gen
from checks import load_oracle
from workloads import WORKLOADS, RankLarge

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(repr(WORKLOADS[workload](ROOT, seed).setup_probe()))
        return 0
    if mode == "oracle" and workload == RankLarge.name:
        oracle = load_oracle(ROOT)
        _, criteria, rows = gen.matrix_lists(seed, workload, *gen.RANK_LARGE_SHAPE)
        weights = oracle.std_dev_weights_oracle(rows, True)
        s_plus, s_minus, closeness, _ = oracle.topsis_oracle(rows, [d for _, d in criteria], weights)
        print(json.dumps({"weights": weights, "s_plus": s_plus, "s_minus": s_minus, "closeness": closeness}))
        return 0
    print(f"usage: {__doc__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
