"""Orthogonal-vectors hardness instances and their DFA encoding.

For an instance (A, B) of N binary d-vectors each, the generated DFA has
one non-simple cycle per vector; two cycles can read the same string
exactly when the corresponding vectors are orthogonal, and the wiring
guarantees that matched cycle nodes have intersecting co-lex intervals.
The language is therefore non-Wheeler iff the instance has an orthogonal
pair.  The DFA is reverse-deterministic, hence minimal, and an optional
transformation rewrites it onto the binary alphabet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automata import Alphabet, Automaton, FormatError
from .square import Witness

OV_ALPHABET = Alphabet(("0", "1", "#"))


@dataclass(frozen=True)
class OvInstance:
    """Two sets of N d-bit vectors; N a power of two, the A side duplicate-free."""

    size: int
    dim: int
    a_vectors: tuple[tuple[int, ...], ...]
    b_vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size < 1 or self.size & (self.size - 1):
            raise ValueError(f"N={self.size} is not a power of two")
        if self.dim < 1:
            raise ValueError("vector dimension must be positive")
        for side in (self.a_vectors, self.b_vectors):
            if len(side) != self.size:
                raise ValueError("vector count does not match N")
            for vec in side:
                if len(vec) != self.dim or any(b not in (0, 1) for b in vec):
                    raise ValueError(f"bad vector {vec!r}")
        if len(set(self.a_vectors)) != self.size:
            raise ValueError("vectors in A must be distinct")

    @property
    def ell(self) -> int:
        return self.size.bit_length() - 1


def ov_bruteforce(inst: OvInstance) -> tuple[bool, tuple[int, int] | None]:
    """Quadratic scan; returns the lexicographically first orthogonal
    (r, s) as 1-based indices, or (False, None)."""
    for r, a in enumerate(inst.a_vectors, start=1):
        for s, b in enumerate(inst.b_vectors, start=1):
            if all(x * y == 0 for x, y in zip(a, b)):
                return True, (r, s)
    return False, None


def random_ov_instance(
    size: int, dim: int, seed: int, force: str = "any"
) -> OvInstance:
    """Reproducible random instance; force='yes' plants an orthogonal pair,
    force='no' rejection-samples until none exists."""
    if force not in ("yes", "no", "any"):
        raise ValueError(f"bad force mode {force!r}")
    if size > 2**dim:
        raise ValueError(f"cannot draw {size} distinct vectors of {dim} bits")
    rng = random.Random(seed)

    def to_bits(x: int) -> tuple[int, ...]:
        return tuple((x >> (dim - 1 - t)) & 1 for t in range(dim))

    def draw() -> OvInstance:
        a = tuple(to_bits(x) for x in rng.sample(range(2**dim), size))
        b = tuple(to_bits(rng.randrange(2**dim)) for _ in range(size))
        return OvInstance(size, dim, a, b)

    if force == "no":
        for _ in range(1000):
            inst = draw()
            if not ov_bruteforce(inst)[0]:
                return inst
        raise ValueError(f"could not sample a NO instance for N={size}, d={dim}")

    inst = draw()
    if force == "yes":
        r = rng.randrange(size)
        s = rng.randrange(size)
        planted = tuple(
            0 if inst.a_vectors[r][t] else rng.randrange(2) for t in range(dim)
        )
        b = list(inst.b_vectors)
        b[s] = planted
        inst = OvInstance(size, dim, inst.a_vectors, tuple(b))
    return inst


def parse_ov_instance(text: str) -> OvInstance:
    """Read the `N d` header plus N+N rows of 0/1 strings."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise FormatError("empty instance file")
    head = rows[0].split()
    if len(head) != 2 or not all(tok.isdigit() for tok in head):
        raise FormatError(f"line 1: expected 'N d', got {rows[0]!r}")
    size, dim = int(head[0]), int(head[1])
    if len(rows) != 1 + 2 * size:
        raise FormatError(f"expected {2 * size} vector rows, found {len(rows) - 1}")

    def to_vec(row: str) -> tuple[int, ...]:
        if len(row) != dim or any(ch not in "01" for ch in row):
            raise FormatError(f"bad vector row {row!r}")
        return tuple(int(ch) for ch in row)

    a = tuple(to_vec(r) for r in rows[1 : 1 + size])
    b = tuple(to_vec(r) for r in rows[1 + size :])
    return OvInstance(size, dim, a, b)


def serialize_ov_instance(inst: OvInstance) -> str:
    rows = [f"{inst.size} {inst.dim}"]
    rows += ["".join(map(str, v)) for v in inst.a_vectors]
    rows += ["".join(map(str, v)) for v in inst.b_vectors]
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class OvDfaLayout:
    """State-id bookkeeping for the four regions of the generated DFA."""

    size: int
    dim: int
    ell: int
    source: int
    final: int
    x_leaves: tuple[int, ...]
    y_leaves: tuple[int, ...]
    x_prime: tuple[int, ...]
    x_dprime: tuple[int, ...]
    a_hat_prime: tuple[int, ...]
    y_prime: tuple[int, ...]
    b_hat_prime: tuple[int, ...]
    a_cycles: tuple[tuple[int, ...], ...]
    b_cycles: tuple[tuple[int, ...], ...]
    t_leaves: tuple[int, ...]
    z_leaves: tuple[int, ...]

    def rho(self, i: int) -> str:
        """MSB-first ell-bit encoding of i-1, for 1-based cycle index i."""
        return _rho(i, self.ell)


def _rho(i: int, ell: int) -> str:
    return format(i - 1, "b").zfill(ell) if ell else ""


def build_ov_dfa(inst: OvInstance) -> tuple[Automaton, OvDfaLayout]:
    """The reduction DFA over {0, 1, #} plus the region layout."""
    n_vec, d, ell = inst.size, inst.dim, inst.ell
    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    transitions: set[tuple[int, str, int]] = set()

    # complete binary out-tree of depth ell+1; leaf 0.rho(i) is x_i, 1.rho(j) is y_j
    paths = [""]
    for depth in range(ell + 1):
        paths += [w + b for w in paths if len(w) == depth for b in "01"]
    out_id = {w: fresh() for w in sorted(paths, key=lambda w: (len(w), w))}
    for w in paths:
        if len(w) <= ell:
            transitions.add((out_id[w], "0", out_id[w + "0"]))
            transitions.add((out_id[w], "1", out_id[w + "1"]))
    x_leaves = tuple(out_id["0" + _rho(i, ell)] for i in range(1, n_vec + 1))
    y_leaves = tuple(out_id["1" + _rho(j, ell)] for j in range(1, n_vec + 1))

    # intermediate region: two bracketing paths (00 and 11) into each A-side
    # entry, a single 01 path into each B-side entry
    x_prime = tuple(fresh() for _ in range(n_vec))
    x_dprime = tuple(fresh() for _ in range(n_vec))
    a_hat_prime = tuple(fresh() for _ in range(n_vec))
    y_prime = tuple(fresh() for _ in range(n_vec))
    b_hat_prime = tuple(fresh() for _ in range(n_vec))
    for i in range(n_vec):
        transitions.add((x_leaves[i], "1", x_prime[i]))
        transitions.add((x_prime[i], "1", a_hat_prime[i]))
        transitions.add((x_leaves[i], "0", x_dprime[i]))
        transitions.add((x_dprime[i], "0", a_hat_prime[i]))
        transitions.add((y_leaves[i], "0", y_prime[i]))
        transitions.add((y_prime[i], "1", b_hat_prime[i]))

    # one cycle of d+ell+1 nodes per vector
    a_cycles = tuple(tuple(fresh() for _ in range(d + ell + 1)) for _ in range(n_vec))
    b_cycles = tuple(tuple(fresh() for _ in range(d + ell + 1)) for _ in range(n_vec))

    # complete binary in-tree of depth ell+1 rooted at the unique final state;
    # node(w) spells w on its way to the root
    in_id = {w: fresh() for w in sorted(paths, key=lambda w: (len(w), w))}
    for w in paths:
        if w:
            transitions.add((in_id[w], w[0], in_id[w[1:]]))
    t_leaves = tuple(in_id[_rho(i, ell) + "0"] for i in range(1, n_vec + 1))
    z_leaves = tuple(in_id[_rho(j, ell) + "1"] for j in range(1, n_vec + 1))

    for i in range(n_vec):
        cyc = a_cycles[i]
        transitions.add((a_hat_prime[i], "0", cyc[0]))
        for r in range(d):
            transitions.add((cyc[r], str(inst.a_vectors[i][r]), cyc[r + 1]))
        for r in range(ell):
            transitions.add((cyc[d + r], "0", cyc[d + r + 1]))
            transitions.add((cyc[d + r], "1", cyc[d + r + 1]))
        transitions.add((cyc[-1], "#", cyc[0]))
        transitions.add((cyc[-1], "0", t_leaves[i]))

    for j in range(n_vec):
        cyc = b_cycles[j]
        transitions.add((b_hat_prime[j], "0", cyc[0]))
        for r in range(d):
            transitions.add((cyc[r], "0", cyc[r + 1]))
            if inst.b_vectors[j][r] == 0:
                transitions.add((cyc[r], "1", cyc[r + 1]))
        word = _rho(j + 1, ell)
        for r in range(ell):
            transitions.add((cyc[d + r], word[r], cyc[d + r + 1]))
        transitions.add((cyc[-1], "#", cyc[0]))
        transitions.add((cyc[-1], "0", z_leaves[j]))

    automaton = Automaton(
        next_id,
        frozenset(transitions),
        out_id[""],
        frozenset([in_id[""]]),
        OV_ALPHABET,
    )
    layout = OvDfaLayout(
        size=n_vec,
        dim=d,
        ell=ell,
        source=out_id[""],
        final=in_id[""],
        x_leaves=x_leaves,
        y_leaves=y_leaves,
        x_prime=x_prime,
        x_dprime=x_dprime,
        a_hat_prime=a_hat_prime,
        y_prime=y_prime,
        b_hat_prime=b_hat_prime,
        a_cycles=a_cycles,
        b_cycles=b_cycles,
        t_leaves=t_leaves,
        z_leaves=z_leaves,
    )
    return automaton, layout


def to_binary_alphabet(a: Automaton) -> Automaton:
    """Rewrite a {0,1,#} automaton onto {0,1}: 0 -> 00, 1 -> 11, # -> 101.

    Fresh path states are numbered after the original states in
    transition-sorted order, so serialization is reproducible.
    """
    bad = set(a.alphabet.symbols) - {"0", "1", "#"}
    if bad:
        raise ValueError(f"alphabet symbols {sorted(bad)} outside 0/1/#")
    next_id = a.n
    transitions: set[tuple[int, str, int]] = set()
    ordered = sorted(a.transitions, key=lambda t: (t[0], a.alphabet.pos(t[1]), t[2]))
    for u, c, v in ordered:
        if c == "#":
            f1, f2 = next_id, next_id + 1
            next_id += 2
            transitions.add((u, "1", f1))
            transitions.add((f1, "0", f2))
            transitions.add((f2, "1", v))
        else:
            f = next_id
            next_id += 1
            transitions.add((u, c, f))
            transitions.add((f, c, v))
    return Automaton(
        next_id, frozenset(transitions), a.source, a.finals, Alphabet(("0", "1"))
    )


def decode_witness(layout: OvDfaLayout, w: Witness) -> tuple[int, int]:
    """Map a witness cycle back to the 1-based (r, s) vector indices.

    Both tracks of the cycle must each stay inside a single generated
    cycle, one from each side; anything else is a hard error.
    """
    owner: dict[int, tuple[str, int]] = {}
    for i, cyc in enumerate(layout.a_cycles, start=1):
        for q in cyc:
            owner[q] = ("A", i)
    for j, cyc in enumerate(layout.b_cycles, start=1):
        for q in cyc:
            owner[q] = ("B", j)

    def classify(states: set[int]) -> tuple[str, int]:
        tags = {owner.get(q) for q in states}
        if len(tags) != 1 or None in tags:
            raise ValueError(f"witness track not confined to one cycle: {sorted(states)}")
        return tags.pop()

    left = classify({u for u, _ in w.cycle})
    right = classify({v for _, v in w.cycle})
    if left[0] == "A" and right[0] == "B":
        return left[1], right[1]
    if left[0] == "B" and right[0] == "A":
        return right[1], left[1]
    raise ValueError(f"witness pairs two {left[0]}-side cycles")
