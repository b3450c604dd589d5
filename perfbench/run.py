"""wheelerlang benchmark: time to verdict, memory and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random-dfa --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics of untraced passes; `--trace 1`
prints the per-layer metrics of a traced run (see README.md). Each
workload runs in a child interpreter with PYTHONHASHSEED derived from the
workload and seed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the same figures for people, plus every failing instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the same names as workloads.WORKLOADS; this process never imports wheelerlang
WORKLOADS = ("random-dfa", "ov")
# a run must end within 180 s; every child shares this budget
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def hash_seed(workload: str, seed: int, salt: str = "") -> int:
    digest = hashlib.sha256(f"{workload}/{seed}{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env(hashseed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def check_package(path: str) -> None:
    if Path(path).resolve().parent != SRC / "wheelerlang":
        raise BenchError(f"imported wheelerlang from {path}, not from {SRC}")


def run_worker(
    workload: str, seed: int, seconds: float, mode: str, hashseed: int, deadline: float
) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    # the worker leads its own process group, so that the set-up probes it
    # spawns end with it on every way out
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        env=child_env(hashseed),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) ran past the {RUN_BUDGET_S} s budget") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{workload} worker ({mode}) printed no result") from None
    check_package(result["wheelerlang"])
    return result


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def best_times(result: dict, key: str = "times") -> list[float]:
    """Each instance's best time to verdict over its passes.

    The host's speed drifts in phases of a few seconds, and a slow phase only
    ever adds time; the fastest of an instance's passes, spread over the whole
    run, is the estimate that moves least with it (as with timeit's best-of-k).
    """
    return [min(r[key]) for r in result["instances"] if r[key]]


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    times = best_times(result)
    if not times:
        raise BenchError("no instance reached a verdict")
    q = quartiles(times)
    attempted = result["attempted"]
    return {
        "setup_s": (statistics.median(result["setup"]), "s"),
        "wall_s": (sum(times), "s"),
        "verdict_s_p50": (q[1], "s"),
        "verdict_s_p75": (q[2], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - len(result["failures"])) / attempted, "ratio"),
    }


def per_layer(result: dict, drift: dict) -> dict[str, tuple[float, str]]:
    """Medians over the traced passes of per-pass layer sums."""

    def med(get) -> float:
        return statistics.median(get(t) for t in result["traces"])

    def dur(name: str) -> float:
        return med(lambda t: t["duration"].get(name, 0.0))

    def count(name: str) -> int:
        return int(med(lambda t: t["counts"].get(name, 0)))

    recs = [r for r in result["instances"] if "n_min" in r]

    def total(key: str) -> int:
        return sum(r[key] for r in recs)

    peel = dur("bigsquare.peel")
    array_m2 = med(lambda t: t["array_pair_transitions"])
    witnesses = {r["name"]: r.get("witness") for r in recs}
    drifted = sum(
        1 for r in drift["instances"] if "n_min" in r and r.get("witness") != witnesses.get(r["name"])
    )
    out = {
        "automata.parse_s": (dur("automata.parse"), "s"),
        "automata.trim_s": (dur("automata.trim"), "s"),
        "regex.parse_s": (dur("regex.parse"), "s"),
        "regex.compile_s": (dur("regex.compile"), "s"),
        "minimize.minimize_s": (dur("minimize.minimize"), "s"),
        "minimize.n_min": (total("n_min"), "count"),
        "intervals.rank_table_s": (dur("intervals.rank_table"), "s"),
        "intervals.fixpoint_depth": (count("fixpoint_depth"), "count"),
        "intervals.width_estimate_s": (dur("intervals.width_estimate"), "s"),
        "intervals.width": (total("width"), "count"),
        "square.build_s": (dur("square.build"), "s"),
        "square.peel_s": (dur("square.peel"), "s"),
        "square.witness_s": (dur("square.witness"), "s"),
        "bigsquare.pair_codes_s": (dur("bigsquare.pair_codes"), "s"),
        "bigsquare.count_transitions_s": (dur("bigsquare.count_transitions"), "s"),
        "bigsquare.peel_s": (peel, "s"),
        "bigsquare.peel_transitions_per_s": (array_m2 / peel if peel > 0 else 0.0, "1/s"),
        "bigsquare.residue_pairs": (count("residue_pairs"), "count"),
        "bigsquare.witness_s": (dur("bigsquare.witness"), "s"),
        "recognize.self_s": (med(lambda t: t["self"].get("recognize", 0.0)), "s"),
        "recognize.untimed_s": (med(lambda t: t["untimed"]), "s"),
        "recognize.pairs": (total("pairs"), "count"),
        "recognize.pair_transitions": (total("pair_transitions"), "count"),
        "recognize.witness_len": (
            sum(len(r["witness"][0]) for r in recs if r.get("witness")),
            "count",
        ),
        "recognize.witness_hashseed_drift": (drifted, "count"),
        "slope.wall_vs_mp": (result["slope"], "1"),
        "trace.overhead_s": (
            sum(
                min(r["traced_times"]) - min(r["times"])
                for r in result["instances"]
                if r["times"] and r["traced_times"]
            ),
            "s",
        ),
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (SRC / "wheelerlang" / "__init__.py").is_file():
        print(f"error: no wheelerlang package under {SRC}", file=sys.stderr)
        return 2
    hashseed = hash_seed(args.workload, args.seed)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            result = run_worker(args.workload, args.seed, args.seconds, "trace", hashseed, deadline)
            drift_seed = hash_seed(args.workload, args.seed, "/drift")
            drift = run_worker(
                args.workload, args.seed, args.seconds, "witness", drift_seed, deadline
            )
        else:
            result = run_worker(args.workload, args.seed, args.seconds, "measure", hashseed, deadline)
        for f in result["failures"]:
            print(f"FAILED {f['instance']} (pass {f['pass']}): {f['reason']}")
        metrics = per_layer(result, drift) if args.trace else end_to_end(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"]
    failed = len(result["failures"])
    n_inst = len(result["instances"])
    print(f"workload {args.workload}  seed {args.seed}  PYTHONHASHSEED {hashseed}")
    if args.trace:
        print(f"second PYTHONHASHSEED {drift_seed} (witness drift)")
        if result["absent"]:
            print("absent spans (names not bound in wheelerlang.recognize): " + ", ".join(result["absent"]))
    print(
        f"{n_inst} instances x {len(result['walls'])} untraced passes"
        + (f" + {len(result['traced_walls'])} traced" if args.trace else "")
        + f"; wall_s and verdict percentiles over {len(best_times(result))} per-instance best times"
    )
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} instance runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
