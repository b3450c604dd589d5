"""Regenerate data/random_dfa_reference.json with the oracle path.

Computes the verdict of every (n, m, generator seed) in the random-dfa
pool with `oracle.reference_wheeler`, reusing verdicts already in the
file. Run from the repository root after changing `RANDOM_LADDER`:

    PYTHONPATH=src python3 perfbench/make_reference.py

On a 2-vCPU VM a dense n=1000 instance needs about 24 s and 1.8 GB, so
the pool stops at dense n=700.
"""

from __future__ import annotations

import json
import sys
import time

from oracle import reference_wheeler
from workloads import REFERENCE_PATH, SIGMA, random_dfa_key, random_dfa_pool

from wheelerlang import random_dfa


def main() -> int:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            known = json.load(fh)["wheeler"]
    except FileNotFoundError:
        known = {}
    verdicts = {}
    for n, m, g in random_dfa_pool():
        key = random_dfa_key(n, m, g)
        if key not in known:
            t0 = time.perf_counter()
            known[key] = reference_wheeler(random_dfa(n, m, SIGMA, g))
            print(f"{key}: {known[key]} ({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
        verdicts[key] = known[key]
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "sigma": "".join(SIGMA.symbols),
                "oracle": "minimize + compute_rank_table(prune=False) + build_full_square + DFS",
                "wheeler": verdicts,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
