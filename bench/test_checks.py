"""The benchmark's output checks catch corrupted outputs.

    python3 -m pytest bench/test_checks.py

Each test takes a genuine lcltrees output, confirms the check accepts it,
then corrupts it the way a faulty program could and confirms the check
rejects it.
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from lcltrees import (  # noqa: E402
    PoledTree,
    TreeGenSpec,
    classify,
    gen_tree,
    h_table,
    serialize_labeling,
    serialize_problem,
    serialize_report,
    serialize_tree,
    solve_log,
)
from lcltrees.fixtures import perfect_matching, random_problem, three_coloring  # noqa: E402


def docs(problem, report=None):
    doc = json.loads(serialize_problem(problem))
    return doc, json.loads(serialize_report(report or classify(problem)))


def first_random(verdict_prefix):
    for seed in range(100):
        problem = random_problem(seed, num_labels=4, max_vertex_configs=6)
        report = classify(problem)
        if report.verdict.startswith(verdict_prefix):
            return problem, report
    raise AssertionError("no such problem among the first 100 seeds")


def test_corrupted_labeling_is_caught():
    problem = perfect_matching()
    report = classify(problem)
    tree = gen_tree(TreeGenSpec(n=60, delta=3, seed=4))
    labeling = solve_log(problem, report.subset, report.minimal_ell, tree)
    doc, rep = docs(problem, report)
    tree_doc = json.loads(serialize_tree(tree))
    lab_doc = json.loads(serialize_labeling(labeling, problem))
    assert checks.check_labeling(doc, rep["subset"], tree_doc, lab_doc) == []

    # swap the M port with a U port that faces a real edge: every vertex
    # multiset stays allowed, but two edges now pair M with U
    edge = tree_doc["edges"][0]
    ports = lab_doc[edge["u"]]["ports"]
    other = next(p for p in range(3) if ports[p] != ports[edge["pu"]])
    ports[edge["pu"]], ports[other] = ports[other], ports[edge["pu"]]
    assert checks.check_labeling(doc, rep["subset"], tree_doc, lab_doc)

    # a multiset outside the subset
    lab_doc[5]["ports"] = ["M", "M", "U"]
    assert any("not in the subset" in f
               for f in checks.check_labeling(doc, rep["subset"], tree_doc, lab_doc))


def test_flipped_verdicts_are_caught():
    problem, report = first_random("IN")
    doc, rep = docs(problem, report)
    assert checks.check_report(doc, rep, plain=True) == []
    # claim NOT with the exhaustive count a real NOT would carry: only the
    # plain search can tell
    rep.update(verdict="NOT in LOCAL(O(log n))", subset=None, minimal_ell=None,
               certificate=None, subsets_examined=2 ** len(doc["vertex_configs"]) - 1)
    assert checks.check_report(doc, rep, plain=True) == [
        "NOT, but a plain search finds an ell-full subset"
    ]

    problem, report = first_random("NOT")
    doc, rep = docs(problem, report)
    assert checks.check_report(doc, rep, plain=True) == []
    rep.update(verdict="IN LOCAL(O(log n)) = BAIRE", subset=doc["vertex_configs"][:1],
               minimal_ell=3, certificate={"index": 1, "period": 1})
    assert checks.check_report(doc, rep, plain=True)

    doc, rep = docs(three_coloring())
    assert checks.check_report(doc, rep, expect="IN", expect_ell=3) == []
    assert checks.check_report(doc, rep, expect="NOT")
    rep["minimal_ell"] = 4
    assert checks.check_report(doc, rep, expect="IN", expect_ell=3)


def test_flipped_table_bits_are_caught():
    for problem in (three_coloring(), perfect_matching(), random_problem(9, num_labels=3, max_vertex_configs=6)):
        doc = json.loads(serialize_problem(problem))
        tree = gen_tree(TreeGenSpec(n=5, delta=3, seed=2))
        spare = [v for v in range(tree.n) if tree.real_degree(v) < 3]
        poled = PoledTree(tree, (spare[0], spare[-1]))
        table = h_table(problem, poled)
        want = checks.enumerated_bits(doc, tree.ports, poled.poles)
        assert checks.check_table(table.bits, want, "t") == []
        for bit in (0, len(table.interface_space()) - 1):
            assert checks.check_table(table.bits ^ (1 << bit), want, "t")

    tree = gen_tree(TreeGenSpec(n=80, delta=3, seed=3))
    leaf = next(v for v in range(tree.n) if tree.real_degree(v) == 1)
    table = h_table(three_coloring(), PoledTree(tree, (leaf,)))
    mono = checks.monochrome_bits(3, table.arities)
    assert table.bits == mono
    assert checks.check_table(table.bits ^ 0b10, mono, "t")
