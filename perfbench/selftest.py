"""Self-test of the benchmark's generators, answer checks and tracer.

Run from the repository root (about a minute):

    PYTHONPATH=src python3 perfbench/selftest.py

Exits non-zero on the first failed check. The file is not named test_*.py,
so the package's pytest suite does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import spans
import workloads
from oracle import reference_wheeler
from worker import Corpus, run_instance

from wheelerlang import compile_regex, parse_regex, random_dfa

HERE = Path(__file__).resolve().parent

DIGEST = (
    "import hashlib, sys, workloads\n"
    "h = hashlib.sha256()\n"
    "for i in workloads.instances(sys.argv[1], int(sys.argv[2])):\n"
    "    h.update(f'{i.name}|{i.text}|{i.wheeler}'.encode())\n"
    "print(h.hexdigest())\n"
)


def digest(workload: str, seed: int, hashseed: int) -> str:
    """Corpus digest computed in a fresh interpreter with the given hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", DIGEST, workload, str(seed)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.strip()


def check_generators_deterministic() -> None:
    for w in workloads.WORKLOADS:
        a = digest(w, 3, 1)
        assert a == digest(w, 3, 2), f"{w}: corpus depends on the hash seed"
        assert a != digest(w, 4, 1), f"{w}: seeds 3 and 4 give the same corpus"
        local = hashlib.sha256()
        for i in workloads.instances(w, 3):
            local.update(f"{i.name}|{i.text}|{i.wheeler}".encode())
        assert local.hexdigest() == a, f"{w}: corpus differs between interpreters"
        n = len(workloads.instances(w, 3))
        assert n >= 40, f"{w}: {n} instances, need 40 for a p75 with ten samples beyond"
    print("ok  generators are deterministic per seed and independent of the hash seed")


def check_flipped_answer_fails() -> None:
    regex = [i for i in workloads.random_dfa_instances(1) if i.kind == "regex"]
    items = regex[:1] + workloads.ov_instances(1)[:1]
    corpus = Corpus(items)
    corpus.run_pass(0)
    assert not corpus.failures, corpus.failures
    flipped = Corpus([replace(i, wheeler=not i.wheeler) for i in items])
    flipped.run_pass(0)
    assert len(flipped.failures) == len(items), flipped.failures
    assert len(flipped.failures) / flipped.attempted > 0
    print("ok  a flipped expected answer counts in fail_ratio")


def check_families_against_oracle() -> None:
    rng = workloads.random.Random(0)
    for family in {family for family, _ in workloads.REGEX_PATTERNS}:
        for size in range(1, 13):
            pattern, wheeler = workloads.regex_pattern(family, size, rng)
            got = reference_wheeler(compile_regex(parse_regex(pattern)))
            assert got == wheeler, f"{family} size {size}: oracle says {got}"
    reference = workloads.load_reference()
    checked = 0
    for n, m, g in workloads.random_dfa_pool():
        if n <= 160:
            key = workloads.random_dfa_key(n, m, g)
            got = reference_wheeler(random_dfa(n, m, workloads.SIGMA, g))
            assert reference[key] == got, f"stored verdict of {key} disagrees with the oracle"
            checked += 1
    print(f"ok  regex families and {checked} stored random-dfa verdicts agree with the oracle")


def check_tracer() -> None:
    tracer = spans.Tracer()
    spans.TRACED["no_such_helper"] = "bigsquare.gone"
    try:
        tracer.install()
        module = tracer.module
        inst = workloads.ov_instances(1)[0]
        run_instance(inst, tracer, 0)
    finally:
        tracer.uninstall()
        del spans.TRACED["no_such_helper"]
    assert tracer.absent == ["no_such_helper"], tracer.absent
    assert not any(hasattr(getattr(module, n), "__wrapped__") for n in spans.TRACED)
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["automata.parse", "recognize"], [s.name for s in top]
    rec = tracer.spans.index(top[1])
    inner = {s.name for s in tracer.spans if s.parent == rec}
    assert {"automata.trim", "minimize.minimize", "intervals.rank_table", "bigsquare.peel"} <= inner, inner
    duration, self_time, _ = tracer.totals()
    assert 0 <= self_time["recognize"] <= duration["recognize"]
    print("ok  tracer nests spans under recognize, restores the module, reports absent names")


def main() -> int:
    check_generators_deterministic()
    check_flipped_answer_fails()
    check_families_against_oracle()
    check_tracer()
    return 0


if __name__ == "__main__":
    sys.exit(main())
