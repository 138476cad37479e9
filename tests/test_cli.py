"""End-to-end command-line checks: exit codes, report round-trips, and the
gen / solve / verify pipeline on real files."""

import argparse
import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcltrees import problems, solver, trees
from lcltrees.cli import main
from lcltrees.fixtures import perfect_matching, random_problem, three_coloring
from lcltrees.pathstates import classify, parse_report
from lcltrees.problems import (
    EdgeConfig,
    HalfEdgeLabeling,
    InternalError,
    Label,
    LclProblem,
    VertexConfig,
    serialize_problem,
)
from lcltrees.trees import PortTree


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


def test_a_malformed_budget_env_var_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("LCLTREES_BUDGET", "x")
    code, out, err = run_cli(capsys, "classify", "--problem", "two-coloring")
    assert (code, out) == (2, "")
    assert err == "error: LCLTREES_BUDGET must be an integer, got 'x'\n"
    # the variable is read only when --budget is absent
    code, out, _ = run_cli(
        capsys, "classify", "--problem", "two-coloring", "--budget", "1"
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


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


def test_tree_with_a_huge_delta_is_an_input_error(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text('{"n": 1, "delta": 9223372036854775808, "edges": []}')
    code, out, err = run_cli(
        capsys, "solve", "--problem", "three-coloring", "--tree", str(tree)
    )
    assert code == 2
    assert "delta must be an integer in 3..64" in err
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


def test_solve_through_a_toast_verifies_it_once(tmp_path, monkeypatch):
    """build_toast verifies the toast it returns, so the CLI does not verify
    it again; output, exit codes and labeling bytes are those of the library
    calls, and every rejection keeps its message."""
    tree_path, lab = tmp_path / "tree.json", tmp_path / "lab.json"
    quiet_cli("gen", "--n", "120", "--seed", "9", "--output", str(tree_path))
    calls = []
    verify = solver.verify_toast

    def counting_verify(tree, toast):
        calls.append(toast)
        return verify(tree, toast)

    monkeypatch.setattr(solver, "verify_toast", counting_verify)
    solve = ["solve", "--problem", "perfect-matching", "--tree", str(tree_path)]

    code, text = quiet_cli(*solve, "--toast", "10", "--centers", "60", "--output", str(lab))
    assert (code, len(calls)) == (0, 1)
    tree, problem = trees.parse_tree(tree_path.read_text()), perfect_matching()
    report = classify(problem, 4096)
    toast = solver.build_toast(tree, 10, [60])
    labeling = solver.solve_toast(problem, report.subset, report.minimal_ell, tree, toast)
    assert lab.read_text() == problems.serialize_labeling(labeling, problem)
    assert text == (
        f"auto-classified: {report.verdict}, ell={report.minimal_ell}\n"
        f"labeled 120 vertices with {len(report.subset)} configs at ell={report.minimal_ell}\n"
        "labeling is valid\n"
    )

    rejected = [
        (["--toast", "10", "--centers", "60,63"],
         "error: cannot satisfy the q-gap between the centers' balls; "
         "retry with fewer or farther-apart centers\n"),
        (["--toast", "4", "--centers", "60"],
         f"error: toast gap 4 is below 2*ell+2 = {2 * report.minimal_ell + 2}\n"),
    ]
    for flags, message in rejected:
        calls.clear()
        code, text = quiet_cli(*solve, *flags)
        assert (code, len(calls)) == (2, 1)
        assert text.endswith(message)


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


CONNECTS = ["connects", "--problem", "two-coloring", "--a1", "a", "--c1", "a,a,a",
            "--a2", "b", "--c2", "b,b,b"]


@pytest.mark.parametrize(
    "argv,n,said",
    [
        (["solve", "--problem", "perfect-matching", "--tree", "TREE"], 20,
         "unknown (n 20 exceeds --max-vertices 12)"),
        (["solve", "--problem", "perfect-matching", "--tree", "TREE", "--budget", "1"], 6,
         "unknown (--budget 1 steps ran out)"),
        ([*CONNECTS, "--k", "1500"], None, "unknown (k 1500 exceeds --max-vertices 12)"),
        ([*CONNECTS, "--k", "9", "--budget", "1"], None, "unknown (--budget 1 steps ran out)"),
    ],
    ids=["solve-vertices", "solve-budget", "connects-vertices", "connects-budget"],
)
def test_oracle_unknown_names_the_bound_that_stopped_it(tmp_path, capsys, argv, n, said):
    tree = tmp_path / "tree.json"
    if n is not None:
        run_cli(capsys, "gen", "--n", str(n), "--model", "path", "--output", str(tree))
    argv = [str(tree) if a == "TREE" else a for a in argv]
    code, out, _ = run_cli(capsys, "oracle", *argv)
    assert (code, out) == (3, f"oracle: {said}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["connects", "--problem", "two-coloring", "--a1", "a", "--c1", "a,a,a",
         "--a2", "b", "--c2", "b,b,b", "--k", "1500"],
        ["connects", "--problem", "two-coloring", "--a1", "a", "--c1", "a,a,a",
         "--a2", "b", "--c2", "b,b,b", "--k", "1500", "--max-vertices", "2000"],
        ["solve", "--problem", "perfect-matching", "--tree", "PATH",
         "--max-vertices", "5000"],
    ],
    ids=["connects-over-budget", "connects-long", "solve-long"],
)
def test_oracle_answers_long_paths_without_a_traceback(tmp_path, capsys, argv):
    """Paths far longer than the interpreter's recursion limit."""
    tree = tmp_path / "path.json"
    run_cli(capsys, "gen", "--n", "3000", "--model", "path", "--output", str(tree))
    argv = [str(tree) if a == "PATH" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "lcltrees.cli", "oracle", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 1, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("oracle: ")


# --- hostile input files ------------------------------------------------------------


def quiet_cli(*argv):
    """main() with stdout and stderr captured: (exit code, everything printed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(list(argv))
    return code, out.getvalue()


def input_files(folder):
    """A problem, tree, subset and labeling file that solve and verify accept."""
    files = {kind: folder / f"{kind}.json" for kind in ("problem", "tree", "subset", "labeling")}
    files["problem"].write_text(serialize_problem(three_coloring()))
    files["subset"].write_text('[["a","a","a"],["b","b","b"],["c","c","c"]]')
    quiet_cli("gen", "--n", "12", "--seed", "4", "--output", str(files["tree"]))
    code, _ = quiet_cli(*commands_reading(files, "subset")[0], "--output", str(files["labeling"]))
    assert code == 0
    return files


def commands_reading(files, kind):
    """The solve and verify command lines that read the file of this kind."""
    problem, tree, subset, labeling = map(str, files.values())
    solve = ["solve", "--problem", problem, "--tree", tree, "--subset", subset, "--ell", "3"]
    verify = ["verify", "--problem", problem, "--tree", tree, "--labeling", labeling]
    return {"subset": [solve], "labeling": [verify]}.get(kind, [solve, verify])


def test_solve_and_verify_never_build_port_tuples(tmp_path, monkeypatch):
    files = input_files(tmp_path)

    def refuse(_tree):
        raise AssertionError("tree.ports was built")

    monkeypatch.setattr(PortTree, "ports", property(refuse))
    for argv in commands_reading(files, "tree"):
        code, text = quiet_cli(*argv)
        assert code == 0, text
        assert "labeling is valid" in text


def test_solve_and_verify_never_build_neighbor_lists(tmp_path, monkeypatch):
    files = input_files(tmp_path)

    def refuse(_tree):
        raise AssertionError("the tree's neighbor lists were built")

    monkeypatch.setattr(PortTree, "_adjacent", property(refuse))
    monkeypatch.setattr(PortTree, "_offsets", property(refuse))
    for argv in commands_reading(files, "tree"):
        code, text = quiet_cli(*argv)
        assert code == 0, text
        assert "labeling is valid" in text


def test_solve_and_verify_never_build_labeling_port_tuples(tmp_path, monkeypatch):
    files = input_files(tmp_path)

    def refuse(_labeling):
        raise AssertionError("labeling.ports was built")

    monkeypatch.setattr(HalfEdgeLabeling, "ports", property(refuse))
    for argv in commands_reading(files, "tree"):
        code, text = quiet_cli(*argv)
        assert code == 0, text
        assert "labeling is valid" in text


def test_verify_scans_a_gen_tree_and_a_solve_labeling_without_json_loads(tmp_path, monkeypatch):
    files = input_files(tmp_path)

    def refuse(*_args, **_kwargs):
        raise AssertionError("load_json was called")

    # the fixture name keeps the problem file, which load_json reads, out of it
    monkeypatch.setattr(problems, "load_json", refuse)
    monkeypatch.setattr(trees, "load_json", refuse)
    tree, labeling = str(files["tree"]), str(files["labeling"])
    code, text = quiet_cli(
        "verify", "--problem", "three-coloring", "--tree", tree, "--labeling", labeling
    )
    assert code == 0, text
    assert "labeling is valid" in text


@pytest.mark.parametrize("half", [["--subset", "subset.json"], ["--ell", "3"]])
def test_solve_reports_a_lone_subset_or_ell_before_reading_any_file(tmp_path, half):
    missing = str(tmp_path / "missing.json")
    code, text = quiet_cli("solve", "--problem", missing, "--tree", missing, *half)
    assert code == 2
    assert text == "error: --subset and --ell go together\n"


def test_solve_reports_centers_without_a_toast_before_reading_any_file(tmp_path):
    missing = str(tmp_path / "missing.json")
    code, text = quiet_cli("solve", "--problem", missing, "--tree", missing, "--centers", "3")
    assert code == 2
    assert text == "error: --centers needs --toast\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--toast", "0"], "toast gap q must be at least 2"),
        (["--toast", "1", "--centers", "3"], "toast gap q must be at least 2"),
        (["--toast", "4", "--centers", "a"],
         "--centers must be comma-separated vertex ids, got 'a'"),
        (["--toast", "4", "--centers", "1,,2"],
         "--centers must be comma-separated vertex ids, got '1,,2'"),
    ],
)
def test_solve_reports_a_bad_toast_or_centers_before_reading_any_file(tmp_path, flags, message):
    missing = str(tmp_path / "missing.json")
    code, text = quiet_cli("solve", "--problem", missing, "--tree", missing, *flags)
    assert code == 2
    assert text == f"error: {message}\n"


def test_a_flag_pair_command_line_builds_no_parser(tmp_path, monkeypatch):
    files = input_files(tmp_path)
    problem, tree = str(files["problem"]), str(files["tree"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out = str(tmp_path / "out")
    connects = ["--a1", "a", "--c1", "a,a,a", "--a2", "b", "--c2", "b,b,b", "--k", "4"]
    flag_pairs = [
        ["classify", "--problem", "two-coloring"],
        commands_reading(files, "subset")[0] + ["--output", out],
        commands_reading(files, "labeling")[0],
        ["gen", "--n", "12", "--output", out],
        ["decompose", "--tree", tree, "--gamma", "1", "--ell", "4", "--output", out],
        ["classes", "--problem", "perfect-matching", "--max-size", "4", "--samples", "2"],
    ]
    for argv in flag_pairs:
        built.clear()
        code, text = quiet_cli(*argv)
        assert code == 0, text
        assert built == [], (argv, built)
    # oracle's nested subcommands take the full parser: lcltrees, its seven
    # subcommands and oracle's two
    for argv in (
        ["oracle", "solve", "--problem", problem, "--tree", tree],
        ["oracle", "connects", "--problem", "two-coloring", *connects],
    ):
        built.clear()
        code, text = quiet_cli(*argv)
        assert code == 0, text
        assert built[0] == "lcltrees" and len(built) == 10, (argv, built)


@pytest.mark.parametrize("kind", ["problem", "tree", "subset", "labeling"])
def test_an_integer_too_long_to_read_is_an_input_error(tmp_path, kind):
    files = input_files(tmp_path)
    files[kind].write_text("[" + "7" * 5000 + "]")
    for argv in commands_reading(files, kind):
        code, text = quiet_cli(*argv)
        assert code == 2
        assert "error: an integer has too many digits to read" in text


@pytest.mark.parametrize("kind", ["problem", "tree", "subset", "labeling"])
def test_deeply_nested_json_is_an_input_error(tmp_path, kind):
    files = input_files(tmp_path)
    files[kind].write_text("[" * 100_000)
    for argv in commands_reading(files, kind):
        code, text = quiet_cli(*argv)
        assert code == 2
        assert "error: document nests too deeply to parse" in text
        assert "Traceback" not in text


@pytest.mark.parametrize("kind", ["tree", "labeling"])
def test_a_bad_utf8_byte_past_the_first_slice_is_reported_at_its_place_in_the_file(
    tmp_path, kind
):
    files = input_files(tmp_path)
    quiet_cli("gen", "--n", "2000", "--seed", "4", "--output", str(files["tree"]))
    code, _ = quiet_cli(*commands_reading(files, "subset")[0], "--output", str(files["labeling"]))
    assert code == 0
    data = bytearray(files[kind].read_bytes())
    at = 3 * problems._SLICE + 5
    assert len(data) > at + problems._SLICE
    data[at] = 0xFF
    files[kind].write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as whole:
        files[kind].read_text(encoding="utf-8")
    assert f"position {at}:" in str(whole.value)
    for argv in commands_reading(files, kind):
        assert quiet_cli(*argv) == (2, f"error: {whole.value}\n")


# arbitrary bytes, or one opening repeated up to far past the parser's nesting limit
hostile_bytes = st.binary(max_size=80) | st.builds(
    lambda opening, times: opening * times,
    st.sampled_from([b"[", b'{"n": ', b"[1, "]),
    st.integers(0, 100_000),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(kind=st.sampled_from(["problem", "tree", "subset", "labeling"]), data=hostile_bytes)
def test_arbitrary_bytes_in_any_input_file_exit_2(tmp_path, kind, data):
    files = input_files(tmp_path)
    files[kind].write_bytes(data)
    for argv in commands_reading(files, kind):
        code, text = quiet_cli(*argv)
        assert code == 2, text
        assert "Traceback" not in text


@pytest.mark.parametrize("module", ("lcltrees.cli", "lcltrees"))
def test_module_entry_point_runs(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "classify", "--problem", "three-coloring"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "minimal ell: 3" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", module, "classify", "--problem", "no-such-problem"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
