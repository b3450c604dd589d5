"""Command line interface: check, gen-ov, bench."""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .automata import parse_automaton, serialize_automaton
from .bench import DEFAULT_GRID, run_bench, write_csv
from .ovgen import (
    build_ov_dfa,
    ov_bruteforce,
    parse_ov_instance,
    random_ov_instance,
    to_binary_alphabet,
)
from .recognize import recognize
from .regex import compile_regex, parse_regex


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wheelerlang",
        description="Decide whether a regular language is Wheeler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the recognizer on a DFA file or a regex")
    src = check.add_mutually_exclusive_group(required=True)
    src.add_argument("--dfa", metavar="PATH", help="automaton document to check")
    src.add_argument("--regex", metavar="PATTERN", help="regular expression to check")
    check.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    check.add_argument("--quiet", action="store_true", help="suppress the verdict line")

    gen = sub.add_parser("gen-ov", help="emit the DFA encoding an orthogonal-vectors instance")
    inp = gen.add_mutually_exclusive_group(required=True)
    inp.add_argument(
        "--random",
        nargs=3,
        type=int,
        metavar=("N", "D", "SEED"),
        help="random instance: set size (power of two), dimension, seed",
    )
    inp.add_argument("--file", metavar="PATH", help="read an instance file")
    gen.add_argument("--force", choices=["yes", "no"], help="plant or exclude an orthogonal pair")
    gen.add_argument("--binary-alphabet", action="store_true", help="rewrite onto the 0/1 alphabet")
    gen.add_argument("--solve", action="store_true", help="print the brute-force verdict")
    gen.add_argument("--out", metavar="PATH", help="write the automaton here instead of stdout")

    bench = sub.add_parser("bench", help="time the recognizer on random DFAs")
    bench.add_argument("--sizes", default=",".join(map(str, DEFAULT_GRID)), help="comma-separated state counts")
    bench.add_argument("--edge-factor", type=float, default=3.0, help="edges per state")
    bench.add_argument("--sigma", type=int, default=3, help="alphabet size")
    bench.add_argument("--seeds", default="0", help="comma-separated generator seeds")
    bench.add_argument("--csv", metavar="PATH", help="write rows here instead of stdout")
    return parser


def _run_check(args: argparse.Namespace) -> int:
    if args.dfa is not None:
        with open(args.dfa, encoding="utf-8") as fh:
            automaton = parse_automaton(fh.read())
        mode = "dfa"
    else:
        automaton = compile_regex(parse_regex(args.regex))
        mode = "regex"
    report = recognize(automaton, input_mode=mode)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    if not args.quiet:
        print("wheeler" if report.wheeler else "non-wheeler")
    return 0 if report.wheeler else 1


def _run_gen_ov(args: argparse.Namespace) -> int:
    if args.random is not None:
        n, d, seed = args.random
        inst = random_ov_instance(n, d, seed, force=args.force or "any")
    else:
        if args.force:
            raise ValueError("--force only applies to --random instances")
        with open(args.file, encoding="utf-8") as fh:
            inst = parse_ov_instance(fh.read())
    if args.solve:
        found, pair = ov_bruteforce(inst)
        print(f"orthogonal-pair {pair[0]} {pair[1]}" if found else "no-orthogonal-pair")
    automaton, _ = build_ov_dfa(inst)
    if args.binary_alphabet:
        automaton = to_binary_alphabet(automaton)
    doc = serialize_automaton(automaton)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    seeds = [int(tok) for tok in args.seeds.split(",") if tok]
    rows = run_bench(sizes, args.edge_factor, args.sigma, seeds)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return 0


def _raised_in(exc: BaseException) -> str:
    """Innermost function outside numpy that `exc` passed through."""
    frames = traceback.extract_tb(exc.__traceback__)
    numpy_dir = Path(np.__file__).parent
    own = [f for f in frames if not Path(f.filename).is_relative_to(numpy_dir)]
    return (own or frames)[-1].name


def cli_main(argv: list[str]) -> int:
    """Exit codes: 0 wheeler / success, 1 non-wheeler, 2 usage, input or internal error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "gen-ov":
            return _run_gen_ov(args)
        return _run_bench(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is the "non-wheeler" verdict, so no failure may reach it
        message = str(exc).partition("\n")[0]
        print(f"error: {type(exc).__name__} in {_raised_in(exc)}: {message}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
