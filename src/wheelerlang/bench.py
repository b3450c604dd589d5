"""Benchmark harness: recognizer runtime versus m times the width estimate."""

from __future__ import annotations

import csv
import math
import string
from dataclasses import dataclass, fields
from typing import Iterable, Sequence, TextIO

from .automata import Alphabet, random_dfa
from .recognize import recognize

DEFAULT_GRID = tuple(500 * 2**i for i in range(6))

CSV_COLUMNS = (
    "n",
    "m",
    "seed",
    "n_min",
    "m_min",
    "width_estimate",
    "ms_trim",
    "ms_minimize",
    "ms_rank_table",
    "ms_square",
    "ms_acyclicity",
    "ms_witness",
    "ms_total",
)


@dataclass(frozen=True)
class BenchRow:
    """One pipeline run: sizes, width estimate, per-stage wall times."""

    n: int
    m: int
    seed: int
    n_min: int
    m_min: int
    width_estimate: int
    ms_trim: float
    ms_minimize: float
    ms_rank_table: float
    ms_square: float
    ms_acyclicity: float
    ms_witness: float
    ms_total: float


def run_bench(
    sizes: Sequence[int],
    edges_per_state: float = 3.0,
    sigma_size: int = 3,
    seeds: Sequence[int] = (0,),
) -> list[BenchRow]:
    """One row per (size, seed); generation and serialization are untimed.

    The default configuration is the six-point doubling grid with three
    edges per state over a three-letter alphabet.
    """
    if not sizes:
        raise ValueError("need at least one size")
    if sigma_size < 1 or sigma_size > len(string.ascii_lowercase):
        raise ValueError(f"bad alphabet size {sigma_size}")
    sigma = Alphabet(tuple(string.ascii_lowercase[:sigma_size]))

    rows = []
    for n in sizes:
        m = int(round(edges_per_state * n))
        for seed in seeds:
            a = random_dfa(n, m, sigma, seed)
            report = recognize(a)
            t = report.timings_ms
            rows.append(
                BenchRow(
                    n=n,
                    m=m,
                    seed=seed,
                    n_min=report.n_min,
                    m_min=report.m_min,
                    width_estimate=report.width_estimate,
                    ms_trim=t["trim"],
                    ms_minimize=t["minimize"],
                    ms_rank_table=t["rank_table"],
                    ms_square=t["square"],
                    ms_acyclicity=t["acyclicity"],
                    ms_witness=t["witness"],
                    ms_total=t["total"],
                )
            )
    return rows


def write_csv(rows: Iterable[BenchRow], out: TextIO) -> None:
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, f.name) for f in fields(BenchRow)])


def averaged_grid(rows: Sequence[BenchRow]) -> list[tuple[float, float]]:
    """Per size: (m * width_estimate, mean total ms), sorted by the first."""
    by_n: dict[int, list[BenchRow]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row)
    points = []
    for group in by_n.values():
        x = sum(r.m * r.width_estimate for r in group) / len(group)
        y = sum(r.ms_total for r in group) / len(group)
        points.append((x, y))
    points.sort()
    return points


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / var
