import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
from lcltrees.oracle import (
    UNKNOWN,
    OracleBudget,
    OracleResult,
    brute_force_connects,
    brute_force_solve,
)
from lcltrees.problems import EdgeConfig, Label, LclProblem, VertexConfig, is_valid_labeling
from lcltrees.trees import TreeGenSpec, gen_tree

from conftest import path_tree, star_tree

MUU = VertexConfig.of([0, 1, 1])


def test_budget_validation():
    with pytest.raises(ValueError):
        OracleBudget(max_vertices=0)
    with pytest.raises(ValueError):
        OracleBudget(max_steps=-1)


def test_unknown_is_not_a_bool():
    with pytest.raises(TypeError):
        bool(UNKNOWN)


def test_solve_empty_vertex_configs_has_no_solution():
    empty = LclProblem(
        3,
        (Label(0, "a"),),
        frozenset(),
        frozenset({EdgeConfig.of(0, 0)}),
    )
    assert brute_force_solve(empty, path_tree(2)) == OracleResult("none")


def test_solve_raises_on_an_invalid_result_under_python_O():
    # the oracle's check of its own answer must survive -O, which strips asserts
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from types import SimpleNamespace\n"
        "import lcltrees.oracle as oracle\n"
        "from lcltrees.fixtures import three_coloring\n"
        "from lcltrees.problems import InternalError\n"
        "from lcltrees.trees import TreeGenSpec, gen_tree\n"
        "oracle.is_valid_labeling = lambda *args: SimpleNamespace(ok=False)\n"
        "path = gen_tree(TreeGenSpec(n=3, delta=3, seed=0, model='path'))\n"
        "try:\n"
        "    oracle.brute_force_solve(three_coloring(), path)\n"
        "except InternalError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_solve_matching_single_vertex(matching):
    result = brute_force_solve(matching, path_tree(1))
    assert result.status == "found"
    assert result.labeling.ports == ((0, 1, 1),)


def test_solve_matching_two_vertices(matching):
    tree = path_tree(2)
    result = brute_force_solve(matching, tree)
    assert result.status == "found"
    assert is_valid_labeling(matching, tree, result.labeling).ok


def test_solve_two_coloring_star(coloring2):
    result = brute_force_solve(coloring2, star_tree(4))
    assert result.status == "found"


def test_solve_three_coloring_path(coloring3):
    tree = path_tree(6)
    result = brute_force_solve(coloring3, tree)
    assert result.status == "found"
    assert is_valid_labeling(coloring3, tree, result.labeling).ok


def test_solve_reports_unknown_when_over_budget(coloring3):
    assert brute_force_solve(coloring3, path_tree(13)).status == "unknown"
    tight = OracleBudget(max_vertices=12, max_steps=3)
    assert brute_force_solve(coloring3, path_tree(8), tight).status == "unknown"


def test_solve_detects_unsatisfiable():
    # single config all-a but edges forbid {a, a}: any tree with an edge fails
    problem = LclProblem(
        3,
        (Label(0, "a"), Label(1, "b")),
        frozenset({VertexConfig.of([0, 0, 0])}),
        frozenset({EdgeConfig.of(0, 1)}),
    )
    assert brute_force_solve(problem, path_tree(2)).status == "none"
    assert brute_force_solve(problem, path_tree(1)).status == "found"


def test_connects_validates_inputs(matching):
    sub = frozenset({MUU})
    other = VertexConfig.of([0, 0, 0])
    with pytest.raises(ValueError, match="not in subset"):
        brute_force_connects(matching, sub, 0, other, 0, MUU, 4)
    with pytest.raises(ValueError, match="label not in"):
        brute_force_connects(matching, frozenset({MUU}), 2, MUU, 0, MUU, 4)
    with pytest.raises(ValueError, match="at least two"):
        brute_force_connects(matching, sub, 0, MUU, 0, MUU, 1)


def test_connects_matching_row_frozen(matching):
    # M..M row over k=2..10 alternates only at the start: [T, F, T, T, ...]
    sub = frozenset({MUU})
    row = [brute_force_connects(matching, sub, 0, MUU, 0, MUU, k) for k in range(2, 11)]
    assert row == [True, False, True, True, True, True, True, True, True]
    row_mu = [brute_force_connects(matching, sub, 0, MUU, 1, MUU, k) for k in range(2, 11)]
    assert row_mu == [False, True, True, True, True, True, True, True, True]
    row_uu = [brute_force_connects(matching, sub, 1, MUU, 1, MUU, k) for k in range(2, 11)]
    assert row_uu == [True] * 9


def test_connects_two_coloring_parity(coloring2):
    aaa, bbb = VertexConfig.of([0, 0, 0]), VertexConfig.of([1, 1, 1])
    sub = frozenset({aaa, bbb})
    for k in range(2, 11):
        same = brute_force_connects(coloring2, sub, 0, aaa, 0, aaa, k)
        cross = brute_force_connects(coloring2, sub, 0, aaa, 1, bbb, k)
        assert same == (k % 2 == 1)
        assert cross == (k % 2 == 0)


def test_connects_unknown_on_tiny_budget(coloring3):
    aaa = VertexConfig.of([0, 0, 0])
    sub = frozenset(coloring3.vertex_configs)
    tiny = OracleBudget(max_steps=1)
    assert brute_force_connects(coloring3, sub, 0, aaa, 0, aaa, 9, tiny) is UNKNOWN


def test_connects_unknown_past_the_vertex_budget(coloring2):
    aaa, bbb = VertexConfig.of([0, 0, 0]), VertexConfig.of([1, 1, 1])
    sub = frozenset({aaa, bbb})
    assert brute_force_connects(coloring2, sub, 0, aaa, 1, bbb, 12) is True
    assert brute_force_connects(coloring2, sub, 0, aaa, 1, bbb, 13) is UNKNOWN
    short = OracleBudget(max_vertices=1)
    assert brute_force_connects(coloring2, sub, 0, aaa, 1, bbb, 2, short) is UNKNOWN


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=2, max_value=7),
    data=st.data(),
)
def test_connects_is_symmetric_under_path_reversal(seed, k, data):
    problem = random_problem(seed)
    cfgs = sorted(problem.vertex_configs)
    sub = frozenset(cfgs)
    c1 = data.draw(st.sampled_from(cfgs))
    c2 = data.draw(st.sampled_from(cfgs))
    a1 = data.draw(st.sampled_from(c1.distinct()))
    a2 = data.draw(st.sampled_from(c2.distinct()))
    lhs = brute_force_connects(problem, sub, a1, c1, a2, c2, k)
    rhs = brute_force_connects(problem, sub, a2, c2, a1, c1, k)
    assert lhs == rhs


def test_connects_depends_only_on_facing_labels(coloring3):
    # endpoint configs only gate which labels may face the path; the answer
    # is a function of (a1, a2, k) once membership holds
    aaa, bbb, ccc = sorted(coloring3.vertex_configs)
    sub = frozenset({aaa, bbb, ccc})
    for k in range(2, 8):
        base = brute_force_connects(coloring3, sub, 0, aaa, 1, bbb, k)
        again = brute_force_connects(coloring3, sub, 0, aaa, 1, bbb, k)
        assert base == again
    # k=2 is exactly the edge relation
    assert brute_force_connects(coloring3, sub, 0, aaa, 1, bbb, 2) is True
    assert brute_force_connects(coloring3, sub, 0, aaa, 0, aaa, 2) is False
