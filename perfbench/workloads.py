"""Seeded input corpora for the two benchmark workloads.

Every corpus is a list of `Instance`s in the text form `wheelerlang check`
receives (DFA text or a regex pattern), each with the verdict it must get
from a reference that is not `recognize`:

- random-dfa: `random_dfa` over {a, b, c}. The ladder runs from set-engine
  sizes (n_min < 256) up to n = 1000. Dense instances (m = 3n) are
  non-Wheeler with a large residue and a witness walk; sparse ones
  (m = 1.2n) are Wheeler with a small square. Each ladder rung has a fixed
  pool of generator seeds whose verdicts were computed once by the oracle
  path (`make_reference.py`) and are stored in `data/random_dfa_reference.json`;
  the workload seed picks which pool members a run uses. Five small regex
  patterns with answers known by hand ride along, so that the regex front
  end is measured: b^k(aa)* (non-Wheeler), b^k a* and literal strings
  (Wheeler, as every finite language is).
- ov: the paper's orthogonal-vectors reduction, planted-yes beside
  sampled-no instances, some rewritten onto {0, 1}. Up to about half a
  million pairs (N=16) on a sparse pair graph with an empty or tiny
  residue. The reference is `ov_bruteforce`, and every witness must decode
  to an orthogonal pair.

All ov sizes keep n_min >= 256, so the set engine runs only on random-dfa.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from wheelerlang import (
    Alphabet,
    OvDfaLayout,
    OvInstance,
    build_ov_dfa,
    ov_bruteforce,
    random_dfa,
    random_ov_instance,
    serialize_automaton,
    to_binary_alphabet,
)

WORKLOADS = ("random-dfa", "ov")

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "random_dfa_reference.json"

SIGMA = Alphabet(("a", "b", "c"))

# (n, m, instances per run); every rung draws from a pool of POOL_FACTOR
# times as many generator seeds. Sorted by time, the 18 sparse and set-engine
# instances and the five regex patterns come first, then the 29 dense n=270
# ones on the array engine, which hold p50 and p75. The set engine's pure-Python loops slowed by up to
# 1.6x when the shared host was busy, against 1.2x for the array engine, so
# the quantiles sit on the array engine. The whole corpus is kept to about
# 5 s, so that a run times every instance in several passes spread over it
RANDOM_LADDER = (
    (150, 180, 2),
    (300, 360, 2),
    (700, 840, 2),
    (1000, 1200, 2),
    (40, 120, 2),
    (80, 240, 7),
    (120, 360, 1),
    (270, 810, 29),
    (400, 1200, 1),
)
POOL_FACTOR = 4

# (N, d, force, binary alphabet, instances per run); a sampled-no instance
# needs d of about 2 log2(N) / log2(4/3) or more. The 22 three-letter N=8
# instances hold p50 and the ten binary N=8 ones hold p75
OV_LADDER = (
    (4, 8, "yes", True, 3),
    (4, 8, "no", True, 3),
    (8, 12, "yes", False, 11),
    (8, 12, "no", False, 11),
    (8, 12, "yes", True, 5),
    (8, 12, "no", True, 5),
    (16, 20, "yes", False, 1),
    (16, 20, "no", False, 1),
)

# (family, size) of the regex patterns in random-dfa; all of them run faster
# than the dense n=270 class. The letters of a literal come from the seed
REGEX_PATTERNS = (
    ("bk-aa-star", 60),
    ("bk-a-star", 60),
    ("literal", 400),
    ("literal", 550),
    ("literal", 700),
)


@dataclass(frozen=True)
class Instance:
    """One input as `wheelerlang check` receives it, plus its known verdict."""

    name: str
    kind: str  # "dfa" or "regex"
    text: str
    wheeler: bool
    ov: tuple[OvInstance, OvDfaLayout, int] | None = None  # (instance, layout, 3-letter n)


def random_dfa_key(n: int, m: int, gen_seed: int) -> str:
    return f"{n}/{m}/{gen_seed}"


def random_dfa_pool() -> list[tuple[int, int, int]]:
    """Every (n, m, generator seed) a run can draw; the reference covers these."""
    return [
        (n, m, g) for n, m, count in RANDOM_LADDER for g in range(POOL_FACTOR * count)
    ]


def load_reference() -> dict[str, bool]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["wheeler"]


def random_dfa_instances(seed: int) -> list[Instance]:
    reference = load_reference()
    rng = random.Random(f"random-dfa/{seed}")
    out = []
    for n, m, count in RANDOM_LADDER:
        for g in sorted(rng.sample(range(POOL_FACTOR * count), count)):
            a = random_dfa(n, m, SIGMA, g)
            out.append(
                Instance(
                    f"random n={n} m={m} g={g}",
                    "dfa",
                    serialize_automaton(a),
                    reference[random_dfa_key(n, m, g)],
                )
            )
    for family, size in REGEX_PATTERNS:
        pattern, wheeler = regex_pattern(family, size, rng)
        out.append(Instance(f"{family} size={size}", "regex", pattern, wheeler))
    return out


def ov_instances(seed: int) -> list[Instance]:
    rng = random.Random(f"ov/{seed}")
    out = []
    for size, dim, force, binary, count in OV_LADDER:
        for _ in range(count):
            inst_seed = rng.randrange(2**31)
            force_k = rng.choice(("yes", "no")) if force == "any" else force
            inst = random_ov_instance(size, dim, inst_seed, force=force_k)
            a, layout = build_ov_dfa(inst)
            found, _ = ov_bruteforce(inst)
            text = serialize_automaton(to_binary_alphabet(a) if binary else a)
            out.append(
                Instance(
                    f"ov N={size} d={dim} {force_k}{' binary' if binary else ''} s={inst_seed}",
                    "dfa",
                    text,
                    not found,
                    (inst, layout, a.n),
                )
            )
    return out


def regex_pattern(family: str, size: int, rng: random.Random) -> tuple[str, bool]:
    """(pattern, Wheeler?) for one member of a hand-solved family."""
    if family == "bk-aa-star":
        return "b" * size + "(aa)*", False
    if family == "bk-a-star":
        return "b" * size + "a*", True
    if family == "literal":
        # every finite language is Wheeler
        return "".join(rng.choice("ab") for _ in range(size)), True
    raise ValueError(f"unknown regex family {family!r}")


def instances(workload: str, seed: int) -> list[Instance]:
    if workload == "random-dfa":
        return random_dfa_instances(seed)
    if workload == "ov":
        return ov_instances(seed)
    raise ValueError(f"unknown workload {workload!r}")
