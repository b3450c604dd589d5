import ast
import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from wheelerlang import (
    build_full_square,
    compile_regex,
    compute_rank_table,
    is_acyclic,
    minimize,
    parse_automaton,
    parse_regex,
    recognize,
    trim,
    verify_witness,
)
from wheelerlang.cli import cli_main
from util import random_automaton


def test_known_verdicts(aa_star_dfa):
    report = recognize(aa_star_dfa)
    assert not report.wheeler
    assert report.witness is not None and report.witness.labels == "aa"
    for pattern in ("a*", "ab*", "(a|b)*"):
        assert recognize(compile_regex(parse_regex(pattern))).wheeler, pattern


def test_a_star_report_shape():
    report = recognize(compile_regex(parse_regex("a*")))
    assert report.wheeler and report.square_states == 0 and report.witness is None
    assert report.n_min == 1 and report.m_min == 1


def test_verdict_depends_only_on_the_language():
    rng = random.Random(71)
    for _ in range(150):
        a = random_automaton(rng, n_max=10)
        minimal, _ = minimize(a)
        assert recognize(a).wheeler == recognize(minimal).wheeler


def test_agrees_with_full_square_pipeline():
    rng = random.Random(73)
    witnesses = 0
    for _ in range(300):
        a = random_automaton(rng, n_max=12)
        report = recognize(a)
        a_min, _ = minimize(a)
        if a_min.n == 0:
            assert report.wheeler
            continue
        t = compute_rank_table(a_min)
        full = build_full_square(a_min, t)
        assert report.wheeler == is_acyclic(full)
        assert (report.square_states, report.square_transitions) == (full.n2, full.m2)
        if report.witness is not None:
            witnesses += 1
            assert verify_witness(a_min, t, report.witness)
    assert witnesses > 50


def test_report_invariants():
    rng = random.Random(79)
    for _ in range(200):
        a = random_automaton(rng, n_max=10)
        report = recognize(a)
        assert report.wheeler == (report.witness is None)
        assert report.square_states == 0 or report.square_states <= 2 * report.n_min * (
            report.width_estimate - 1
        )
        assert report.n == a.n and report.m == a.m
        assert report.width_estimate >= 1
        assert set(report.timings_ms) == {
            "trim",
            "minimize",
            "rank_table",
            "square",
            "acyclicity",
            "witness",
            "total",
        }
        assert report.timings_ms["total"] >= sum(
            v for k, v in report.timings_ms.items() if k != "total"
        )
        if report.witness is not None:
            a_min, _ = minimize(a)
            assert verify_witness(a_min, compute_rank_table(a_min), report.witness)


def test_empty_language_is_wheeler():
    a = parse_automaton("dfa\nalphabet a\nstates 2\nsource 0\nfinals\ntransitions 1\n0 a 1\n")
    report = recognize(a)
    assert report.wheeler and report.n_min == 0 and report.square_states == 0
    assert report.width_estimate == 1


def test_rejects_nondeterministic_input():
    nfa = parse_automaton(
        "nfa\nalphabet a\nstates 2\nsource 0\nfinals 1\ntransitions 2\n0 a 0\n0 a 1\n"
    )
    with pytest.raises(ValueError):
        recognize(nfa)


def test_json_dict_is_stable():
    report = recognize(compile_regex(parse_regex("(aa)*")), input_mode="regex")
    blob = report.to_json_dict()
    assert set(blob) == {
        "wheeler",
        "n",
        "m",
        "n_min",
        "m_min",
        "width_estimate",
        "square_states",
        "square_transitions",
        "witness",
        "timings_ms",
        "input_mode",
    }
    assert blob["input_mode"] == "regex"
    assert blob["witness"]["labels"] == "aa"
    assert json.dumps(blob)  # serializable


# --- CLI surface ---


def test_cli_check_regex_verdicts(capsys):
    assert cli_main(["check", "--regex", "(aa)*"]) == 1
    assert capsys.readouterr().out.strip() == "non-wheeler"
    assert cli_main(["check", "--regex", "a*"]) == 0
    assert capsys.readouterr().out.strip() == "wheeler"
    # no literals: the minimum DFA is one final state over an empty alphabet
    assert cli_main(["check", "--regex", "()"]) == 0
    assert capsys.readouterr().out.strip() == "wheeler"


def test_cli_check_dfa_file(tmp_path, capsys, aa_star_dfa):
    from wheelerlang import serialize_automaton

    path = tmp_path / "aa.txt"
    path.write_text(serialize_automaton(aa_star_dfa))
    assert cli_main(["check", "--dfa", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "non-wheeler"


def test_cli_check_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli_main(["check", "--regex", "(aa)*", "--json", str(out), "--quiet"]) == 1
    assert capsys.readouterr().out == ""
    blob = json.loads(out.read_text())
    assert blob["wheeler"] is False and blob["witness"]["labels"] == "aa"


def test_cli_error_exits(tmp_path, capsys):
    assert cli_main(["check", "--dfa", str(tmp_path / "missing.txt")]) == 2
    assert cli_main(["check", "--regex", "(unbalanced"]) == 2
    assert cli_main(["check"]) == 2
    assert cli_main(["nonsense"]) == 2
    nfa = tmp_path / "weird.txt"
    nfa.write_text("nfa\nalphabet a\nstates 2\nsource 0\nfinals 1\ntransitions 2\n0 a 0\n0 a 1\n")
    assert cli_main(["check", "--dfa", str(nfa)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_deep_regex_nesting_is_an_input_error(capsys):
    # the first overflows the parser, the second parses and overflows compilation
    for pattern in ("(" * 3000 + "a" + ")" * 3000, "a" + "*" * 3000):
        assert cli_main(["check", "--regex", pattern]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "recursion depth" not in err


def check_stage_failure_exits_2(monkeypatch, capsys, stage) -> None:
    # exit 1 would read as the "non-wheeler" verdict
    monkeypatch.setattr(importlib.import_module("wheelerlang.recognize"), stage.__name__, stage)
    assert cli_main(["check", "--regex", "(aa)*"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert stage.__name__ in captured.err and "Traceback" not in captured.err


def test_cli_memory_error_exits_2(monkeypatch, capsys):
    def pair_codes(*args):
        raise MemoryError("Unable to allocate 1.49 GiB for an array with shape (200000001,)")

    check_stage_failure_exits_2(monkeypatch, capsys, pair_codes)


def test_cli_unexpected_exception_exits_2(monkeypatch, capsys):
    def _kahn_residue_codes(*args):
        raise IndexError("index 7 is out of bounds for axis 0 with size 7")

    check_stage_failure_exits_2(monkeypatch, capsys, _kahn_residue_codes)


def test_cli_quiet_keeps_exit_code(capsys):
    assert cli_main(["check", "--regex", "(aa)*", "--quiet"]) == 1
    assert capsys.readouterr().out == ""


def test_cli_witness_independent_of_hash_seed(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wheelerlang
    from wheelerlang import Alphabet, random_dfa, serialize_automaton

    dfa = tmp_path / "dense.txt"
    dfa.write_text(serialize_automaton(random_dfa(300, 900, Alphabet(("a", "b", "c")), 5)))
    blobs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"report{hashseed}.json"
        env = dict(
            os.environ,
            PYTHONHASHSEED=hashseed,
            PYTHONPATH=str(Path(wheelerlang.__file__).parents[1]),
        )
        cmd = [sys.executable, "-m", "wheelerlang", "check", "--dfa", str(dfa), "--json", str(out)]
        assert subprocess.run(cmd, env=env, capture_output=True, timeout=120).returncode == 1
        blobs.append(json.loads(out.read_text()))
    assert blobs[0]["n_min"] >= 256
    assert blobs[0]["witness"] == blobs[1]["witness"] is not None


def test_traced_stage_names_are_bound_in_recognize(monkeypatch):
    # the benchmark's tracer wraps these names; a renamed stage would read 0
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    module = importlib.import_module("wheelerlang.recognize")
    assert [name for name in spans.TRACED if not hasattr(module, name)] == []


def test_perfbench_names_from_wheelerlang_resolve():
    # the benchmark and its oracle import these; a name moved out of the
    # package would break them without failing any other test
    names = []
    for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wheelerlang"):
                names += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "wheelerlang":
                names.append((path.name, "wheelerlang", node.attr))
    assert {module for _, module, _ in names} >= {"wheelerlang", "wheelerlang.bench"}
    missing = [n for n in names if not hasattr(importlib.import_module(n[1]), n[2])]
    assert missing == []
