import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
from lcltrees.problems import (
    EdgeConfig,
    HalfEdgeLabeling,
    Label,
    LclProblem,
    ProblemFormatError,
    VertexConfig,
    is_valid_labeling,
    parse_labeling,
    parse_problem,
    serialize_labeling,
    serialize_problem,
)

from conftest import json_documents, names, path_tree


def test_vertex_config_canonical_order():
    assert VertexConfig.of([2, 0, 1]).labels == (0, 1, 2)
    with pytest.raises(ValueError):
        VertexConfig((2, 0, 1))


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6))
def test_vertex_config_of_is_order_insensitive(labels):
    assert VertexConfig.of(labels) == VertexConfig.of(sorted(labels, reverse=True))
    assert VertexConfig.of(labels).labels == tuple(sorted(labels))


def test_vertex_config_multiset_ops():
    c = VertexConfig.of([0, 1, 1])
    assert c.count(1) == 2
    assert c.distinct() == (0, 1)
    assert c.minus(1) == (0, 1)
    assert c.minus(1, 1) == (0,)
    with pytest.raises(ValueError):
        c.minus(2)


def test_edge_config_canonical():
    assert EdgeConfig.of(2, 1).labels == (1, 2)
    with pytest.raises(ValueError):
        EdgeConfig((2, 1))


def test_problem_validation_rejects_bad_input():
    labs = (Label(0, "a"), Label(1, "b"))
    good_v = frozenset({VertexConfig.of([0, 0, 0])})
    good_e = frozenset({EdgeConfig.of(0, 1)})
    with pytest.raises(ValueError):
        LclProblem(2, labs, good_v, good_e)
    with pytest.raises(ValueError):
        LclProblem(3, (Label(0, "a"), Label(0, "a")), good_v, good_e)
    with pytest.raises(ValueError):
        LclProblem(3, labs, frozenset({VertexConfig.of([0, 0])}), good_e)
    with pytest.raises(ValueError):
        LclProblem(3, labs, frozenset({VertexConfig.of([0, 0, 7])}), good_e)


def test_fixture_shapes():
    c3 = three_coloring()
    assert c3.delta == 3
    assert len(c3.vertex_configs) == 3
    assert len(c3.edge_configs) == 3
    c2 = two_coloring()
    assert len(c2.vertex_configs) == 2
    assert len(c2.edge_configs) == 1
    m = perfect_matching()
    assert len(m.vertex_configs) == 1
    assert m.edge_ok(0, 0) and m.edge_ok(1, 1) and not m.edge_ok(0, 1)


def test_edge_ok_is_a_bool_lookup_of_the_edge_configs():
    for seed in range(40):
        for num_labels in (3, 4, 5):
            problem = random_problem(seed, num_labels=num_labels)
            for a in range(num_labels):
                for b in range(num_labels):
                    ok = problem.edge_ok(a, b)
                    assert type(ok) is bool
                    assert ok == (EdgeConfig.of(a, b) in problem.edge_configs)
                    assert problem.edge_matrix[a, b] == ok


def test_random_problem_reproducible_and_bounded():
    a = random_problem(6)
    b = random_problem(6)
    assert a == b
    assert a.num_labels == 3 and len(a.vertex_configs) <= 5


def test_problem_roundtrip():
    for problem in (three_coloring(), two_coloring(), perfect_matching(), random_problem(4)):
        text = serialize_problem(problem)
        assert parse_problem(text) == problem
        assert serialize_problem(parse_problem(text)) == text


def test_parse_problem_reports_position_on_syntax_error():
    with pytest.raises(ProblemFormatError, match=r"line 2, column"):
        parse_problem('{"delta": 3,\n "labels": [}')


@pytest.mark.parametrize(
    "text,match",
    [
        ("[]", "JSON object"),
        ('{"delta": 3}', "missing key"),
        ('{"delta": 2, "labels": ["a"], "vertex_configs": [], "edge_configs": []}', "delta"),
        (
            '{"delta": 3, "labels": ["a", "a"], "vertex_configs": [], "edge_configs": []}',
            "duplicate label",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": [["a", "a"]], "edge_configs": []}',
            "exactly delta",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": [["a", "a", "b"]], "edge_configs": []}',
            "unknown label",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": [], "edge_configs": [["a"]]}',
            "exactly two",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": 5, "edge_configs": []}',
            "vertex_configs must be a list",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": null, "edge_configs": []}',
            "vertex_configs must be a list",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": [], "edge_configs": false}',
            "edge_configs must be a list",
        ),
        (
            '{"delta": 3, "labels": ["a"], "vertex_configs": [], "edge_configs": 1.5}',
            "edge_configs must be a list",
        ),
    ],
)
def test_parse_problem_semantic_errors(text, match):
    with pytest.raises(ProblemFormatError, match=match):
        parse_problem(text)


def test_valid_labeling_on_path(coloring3):
    tree = path_tree(4)
    # a - b - a - b along the path, ports beyond the path keep the vertex color
    lab = HalfEdgeLabeling(
        (
            (0, 0, 0),
            (1, 1, 1),
            (0, 0, 0),
            (1, 1, 1),
        )
    )
    report = is_valid_labeling(coloring3, tree, lab)
    assert report.ok
    assert report.describe(coloring3) == "labeling is valid"


def test_invalid_labeling_locates_violations(coloring3):
    tree = path_tree(3)
    lab = HalfEdgeLabeling(((0, 0, 0), (0, 1, 1), (1, 1, 1)))
    report = is_valid_labeling(coloring3, tree, lab)
    assert not report.ok
    assert [v for v, _ in report.vertex_violations] == [1]
    # vertex 0 port 0 and vertex 1 port 0 share the edge; both carry label a
    assert (0, 0, 1, 0, 0, 0) in report.edge_violations
    assert (1, 1, 2, 0, 1, 1) in report.edge_violations
    text = report.describe(coloring3)
    assert "vertex 1" in text and "edge 0:0 -- 1:0" in text


def test_labeling_size_mismatch_raises(coloring3):
    tree = path_tree(3)
    with pytest.raises(ValueError, match="vertices"):
        is_valid_labeling(coloring3, tree, HalfEdgeLabeling(((0, 0, 0),)))
    with pytest.raises(ValueError, match="ports"):
        is_valid_labeling(coloring3, tree, HalfEdgeLabeling(((0, 0), (0, 0), (0, 0))))


def test_labeling_roundtrip(matching):
    lab = HalfEdgeLabeling(((0, 1, 1), (0, 1, 1)))
    text = serialize_labeling(lab, matching)
    assert parse_labeling(text, matching) == lab


@pytest.mark.parametrize(
    "text,match",
    [
        ("{}", "JSON list"),
        ("[]", "empty"),
        ('[{"vertex": 0, "ports": ["M", "U"]}]', "exactly delta"),
        ('[{"vertex": 0, "ports": ["M", "U", "Q"]}]', "no label named"),
        (
            '[{"vertex": 0, "ports": ["M", "U", "U"]}, {"vertex": 0, "ports": ["M", "U", "U"]}]',
            "twice",
        ),
        ('[{"vertex": 1, "ports": ["M", "U", "U"]}]', "0..n-1"),
    ],
)
def test_parse_labeling_errors(matching, text, match):
    with pytest.raises(ProblemFormatError, match=match):
        parse_labeling(text, matching)


@settings(max_examples=300, deadline=None)
@given(
    json_documents(
        "delta",
        "labels",
        "vertex_configs",
        "edge_configs",
        delta=st.integers(3, 4),
        labels=st.lists(names, min_size=1, max_size=3, unique=True),
        vertex_configs=st.lists(st.lists(names, min_size=3, max_size=3), max_size=3),
        edge_configs=st.lists(st.lists(names, min_size=2, max_size=2), max_size=3),
    )
)
def test_parse_problem_raises_only_format_errors(doc):
    try:
        parse_problem(json.dumps(doc))
    except ProblemFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        json_documents(
            "vertex",
            "ports",
            vertex=st.integers(0, 3),
            ports=st.lists(st.sampled_from(["M", "U"]), min_size=3, max_size=3),
        ),
        max_size=4,
    )
)
def test_parse_labeling_raises_only_format_errors(doc):
    try:
        parse_labeling(json.dumps(doc), perfect_matching())
    except ProblemFormatError:
        pass


def test_package_source_holds_no_assert_statements():
    # python -O strips asserts, so runtime invariants raise InternalError
    src = Path(__file__).resolve().parents[1] / "src" / "lcltrees"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
