"""End-to-end command-line checks: exit codes, report round-trips, and the
gen / solve / verify pipeline on real files."""

import json
import subprocess
import sys

import pytest

from lcltrees.cli import main
from lcltrees.fixtures import random_problem, three_coloring
from lcltrees.pathstates import classify, parse_report
from lcltrees.problems import (
    EdgeConfig,
    InternalError,
    Label,
    LclProblem,
    VertexConfig,
    serialize_problem,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- classify ----------------------------------------------------------------------


def test_classify_three_coloring_is_in(capsys):
    code, out, _ = run_cli(capsys, "classify", "--problem", "three-coloring")
    assert code == 0
    assert "IN LOCAL(O(log n)) = BAIRE" in out
    assert "minimal ell: 3" in out


def test_classify_two_coloring_is_definitively_not(capsys):
    code, out, _ = run_cli(capsys, "classify", "--problem", "two-coloring")
    assert code == 0
    assert "NOT in LOCAL(O(log n))" in out
    assert "(exhaustive)" in out


def test_classify_json_report_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--problem", "three-coloring", "--format", "json"
    )
    assert code == 0
    assert parse_report(out) == classify(three_coloring(), 4096)


def test_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise InternalError("path witness backtrack picked an inadmissible state")

    monkeypatch.setattr("lcltrees.cli.classify", broken)
    code, out, err = run_cli(capsys, "classify", "--problem", "three-coloring")
    assert code == 4
    assert err == "internal error: path witness backtrack picked an inadmissible state\n"
    assert "Traceback" not in out + err


def test_classify_reads_problem_files(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(serialize_problem(random_problem(6)))
    code, out, _ = run_cli(capsys, "classify", "--problem", str(path))
    assert code == 0
    assert "NOT in LOCAL" in out


def test_budget_flag_and_env_var_yield_inconclusive(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "classify", "--problem", "two-coloring", "--budget", "1"
    )
    assert code == 3
    assert "INCONCLUSIVE" in out
    monkeypatch.setenv("LCLTREES_BUDGET", "1")
    code, out, _ = run_cli(capsys, "classify", "--problem", "two-coloring")
    assert code == 3


def test_huge_config_set_with_tiny_budget_is_inconclusive(tmp_path, capsys):
    # nothing connects without edge configs, and 2^10 - 1 subsets dwarf the budget
    labels = tuple(Label(i, n) for i, n in enumerate("abc"))
    every = frozenset(
        VertexConfig.of((i, j, k))
        for i in range(3)
        for j in range(i, 3)
        for k in range(j, 3)
    )
    problem = LclProblem(3, labels, every, frozenset())
    path = tmp_path / "wide.json"
    path.write_text(serialize_problem(problem))
    code, out, _ = run_cli(
        capsys, "classify", "--problem", str(path), "--budget", "5"
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


def test_classify_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--problem", "nosuch.json")
    assert code == 2
    assert "error:" in err


# --- the gen / solve / verify pipeline ----------------------------------------------


def test_pipeline_gen_solve_verify(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    lab = tmp_path / "lab.json"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "1000", "--seed", "1", "--output", str(tree)
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "solve", "--problem", "three-coloring",
        "--tree", str(tree), "--output", str(lab),
    )
    assert code == 0
    assert "auto-classified" in out
    assert "labeling is valid" in out
    code, out, _ = run_cli(
        capsys,
        "verify", "--problem", "three-coloring",
        "--tree", str(tree), "--labeling", str(lab),
    )
    assert code == 0
    assert "labeling is valid" in out


def test_verify_locates_a_corrupted_label(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    lab = tmp_path / "lab.json"
    run_cli(capsys, "gen", "--n", "50", "--seed", "2", "--output", str(tree))
    run_cli(
        capsys,
        "solve", "--problem", "three-coloring",
        "--tree", str(tree), "--output", str(lab),
    )
    doc = json.loads(lab.read_text())
    cur = doc[3]["ports"][0]
    doc[3]["ports"][0] = "a" if cur != "a" else "b"
    lab.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys,
        "verify", "--problem", "three-coloring",
        "--tree", str(tree), "--labeling", str(lab),
    )
    assert code == 1
    assert "vertex 3" in out


def test_solve_with_explicit_subset_skips_classification(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    sub = tmp_path / "subset.json"
    lab = tmp_path / "lab.json"
    run_cli(capsys, "gen", "--n", "80", "--seed", "3", "--output", str(tree))
    sub.write_text('[["a","a","a"],["b","b","b"],["c","c","c"]]')
    code, out, _ = run_cli(
        capsys,
        "solve", "--problem", "three-coloring", "--tree", str(tree),
        "--subset", str(sub), "--ell", "3", "--output", str(lab),
    )
    assert code == 0
    assert "auto-classified" not in out
    assert "labeling is valid" in out


@pytest.mark.parametrize("rows", ["[5]", '["aaa"]'])
def test_solve_rejects_subset_rows_that_are_not_arrays(tmp_path, capsys, rows):
    tree = tmp_path / "tree.json"
    sub = tmp_path / "subset.json"
    run_cli(capsys, "gen", "--n", "10", "--output", str(tree))
    sub.write_text(rows)
    code, out, err = run_cli(
        capsys,
        "solve", "--problem", "three-coloring", "--tree", str(tree),
        "--subset", str(sub), "--ell", "3",
    )
    assert code == 2
    assert "label-name arrays" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("value", ["5", "null", "false", "1.5"])
def test_classify_rejects_config_lists_that_are_not_arrays(tmp_path, capsys, value):
    for key in ("vertex_configs", "edge_configs"):
        doc = {"delta": 3, "labels": ["a"], "vertex_configs": [], "edge_configs": []}
        doc[key] = json.loads(value)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "--problem", str(path))
        assert code == 2
        assert f"{key} must be a list" in err
        assert "Traceback" not in out + err


def test_solve_requires_subset_and_ell_together(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run_cli(capsys, "gen", "--n", "10", "--output", str(tree))
    code, _, err = run_cli(
        capsys, "solve", "--problem", "three-coloring",
        "--tree", str(tree), "--ell", "3",
    )
    assert code == 2
    assert "go together" in err


def test_solve_refuses_problems_without_full_subsets(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run_cli(capsys, "gen", "--n", "10", "--output", str(tree))
    code, _, err = run_cli(
        capsys, "solve", "--problem", "two-coloring", "--tree", str(tree)
    )
    assert code == 1
    assert "no ell-full subset" in err


def test_solve_reports_the_witness_for_a_bad_subset(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    sub = tmp_path / "subset.json"
    run_cli(capsys, "gen", "--n", "10", "--model", "path", "--output", str(tree))
    sub.write_text('[["a","a","a"],["b","b","b"]]')
    code, _, err = run_cli(
        capsys,
        "solve", "--problem", "two-coloring", "--tree", str(tree),
        "--subset", str(sub), "--ell", "4",
    )
    assert code == 1
    assert "not ell-full" in err


def test_solve_through_a_toast(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    lab = tmp_path / "lab.json"
    run_cli(capsys, "gen", "--n", "120", "--seed", "9", "--output", str(tree))
    code, out, _ = run_cli(
        capsys,
        "solve", "--problem", "perfect-matching", "--tree", str(tree),
        "--toast", "10", "--centers", "60", "--output", str(lab),
    )
    assert code == 0
    assert "labeling is valid" in out
    code, _, _ = run_cli(
        capsys,
        "verify", "--problem", "perfect-matching",
        "--tree", str(tree), "--labeling", str(lab),
    )
    assert code == 0


# --- gen and decompose ---------------------------------------------------------------


def test_gen_is_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / x for x in ("a.json", "b.json", "c.json"))
    run_cli(capsys, "gen", "--n", "64", "--seed", "5", "--output", str(a))
    run_cli(capsys, "gen", "--n", "64", "--seed", "5", "--output", str(b))
    run_cli(capsys, "gen", "--n", "64", "--seed", "6", "--output", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_decompose_dump_matches_the_path_example(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run_cli(capsys, "gen", "--n", "10", "--model", "path", "--output", str(tree))
    code, out, _ = run_cli(
        capsys, "decompose", "--tree", str(tree), "--gamma", "1", "--ell", "4"
    )
    assert code == 0
    want = ["0 R 1"] + [f"{v} C 1" for v in range(1, 9)] + ["9 R 1"]
    assert out.splitlines() == want


# --- classes and oracle ----------------------------------------------------------------


def test_classes_prints_the_census(capsys):
    code, out, _ = run_cli(
        capsys,
        "classes", "--problem", "perfect-matching",
        "--max-size", "6", "--samples", "2",
    )
    assert code == 0
    assert "rooted classes:" in out
    assert "ell_pump bound:" in out


def test_oracle_solve_exit_codes(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    run_cli(capsys, "gen", "--n", "6", "--model", "path", "--output", str(tree))
    code, out, _ = run_cli(
        capsys, "oracle", "solve", "--problem", "perfect-matching", "--tree", str(tree)
    )
    assert code == 0
    assert "found" in out

    empty = tmp_path / "empty.json"
    labels = (Label(0, "a"),)
    empty.write_text(
        serialize_problem(LclProblem(3, labels, frozenset(), frozenset()))
    )
    code, out, _ = run_cli(
        capsys, "oracle", "solve", "--problem", str(empty), "--tree", str(tree)
    )
    assert code == 1
    assert "none" in out

    big = tmp_path / "big.json"
    run_cli(capsys, "gen", "--n", "20", "--output", str(big))
    code, out, _ = run_cli(
        capsys, "oracle", "solve", "--problem", "perfect-matching", "--tree", str(big)
    )
    assert code == 3
    assert "unknown" in out


def test_oracle_connects_exit_codes(capsys):
    base = ["oracle", "connects", "--problem", "two-coloring"]
    code, out, _ = run_cli(
        capsys, *base, "--a1", "a", "--c1", "a,a,a", "--a2", "b", "--c2", "b,b,b",
        "--k", "4",
    )
    assert (code, "yes" in out) == (0, True)
    code, out, _ = run_cli(
        capsys, *base, "--a1", "a", "--c1", "a,a,a", "--a2", "a", "--c2", "a,a,a",
        "--k", "4",
    )
    assert (code, "no" in out) == (1, True)
    code, out, _ = run_cli(
        capsys, *base, "--a1", "a", "--c1", "a,a,a", "--a2", "b", "--c2", "b,b,b",
        "--k", "9", "--budget", "1",
    )
    assert (code, "unknown" in out) == (3, True)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lcltrees.cli", "classify", "--problem", "three-coloring"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "minimal ell: 3" in proc.stdout
