import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees.problems import InternalError
from lcltrees.trees import (
    PortTree,
    TreeBuilder,
    TreeFormatError,
    TreeGenSpec,
    ball,
    bfs_tree,
    components,
    distance,
    distances,
    gen_tree,
    ordered_path,
    parse_tree,
    serialize_tree,
)

from conftest import json_documents, path_tree, star_tree


def test_single_vertex_tree():
    t = gen_tree(TreeGenSpec(n=1, delta=3, seed=0, model="path"))
    assert t.n == 1
    assert t.real_degree(0) == 0
    assert list(t.edges()) == []


def test_path_shape():
    t = path_tree(5)
    assert [t.real_degree(v) for v in range(5)] == [1, 2, 2, 2, 1]
    assert t.neighbors(2) == [1, 3]
    assert t.port_to(2, 1) == 0 and t.port_to(2, 3) == 1


def test_star_shape_and_cap():
    t = star_tree(4)
    assert t.real_degree(0) == 3
    assert all(t.real_degree(v) == 1 for v in range(1, 4))
    with pytest.raises(ValueError, match="star"):
        star_tree(5)


def test_caterpillar_degrees_bounded():
    t = gen_tree(TreeGenSpec(n=11, delta=3, seed=0, model="caterpillar"))
    assert t.n == 11
    assert max(t.real_degree(v) for v in range(t.n)) <= 3


def test_uniform_attachment_deterministic():
    spec = TreeGenSpec(n=60, delta=3, seed=42)
    a, b = gen_tree(spec), gen_tree(spec)
    assert a == b
    assert serialize_tree(a) == serialize_tree(b)
    c = gen_tree(TreeGenSpec(n=60, delta=3, seed=43))
    assert c != a


@given(
    n=st.integers(min_value=1, max_value=80),
    delta=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_uniform_attachment_valid(n, delta, seed):
    # PortTree validation enforces connectivity, edge count, and symmetry
    t = gen_tree(TreeGenSpec(n=n, delta=delta, seed=seed))
    assert t.n == n
    assert sum(t.real_degree(v) for v in range(n)) == 2 * (n - 1)
    assert max(t.real_degree(v) for v in range(n)) <= delta


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown tree model"):
        gen_tree(TreeGenSpec(n=3, delta=3, seed=0, model="ladder"))


def test_distance_and_ball():
    t = path_tree(6)
    assert distance(t, 0, 5) == 5
    assert distance(t, 2, 2) == 0
    assert ball(t, 2, 1) == frozenset({1, 2, 3})
    assert ball(t, 0, 10) == frozenset(range(6))


def test_bfs_tree_orders_by_distance_and_records_parents():
    t = path_tree(5)
    order, parent = bfs_tree(t, [2])
    assert order == [2, 1, 3, 0, 4]
    assert parent == {2: None, 1: 2, 3: 2, 0: 1, 4: 3}
    # confined to a vertex set, the walk stops at its edge
    order, parent = bfs_tree(t, [3], within={2, 3, 4})
    assert order == [3, 2, 4]
    assert parent == {3: None, 2: 3, 4: 3}
    order, _ = bfs_tree(star_tree(4), [1, 2])
    assert order == [1, 2, 0, 3]


def test_components_order_by_smallest_vertex():
    t = path_tree(8)
    # a disconnected set, listed out of order, with a single-vertex component
    assert components(t, [7, 3, 2, 5, 0, 1]) == [[0, 1, 2, 3], [5], [7]]
    assert components(t, {4}) == [[4]]
    assert components(t, []) == []
    assert components(star_tree(4), [3, 0, 1]) == [[0, 1, 3]]


def test_ordered_path_starts_at_the_smaller_endpoint():
    assert ordered_path(path_tree(8), {5, 3, 4}) == [3, 4, 5]
    assert ordered_path(path_tree(8), [6]) == [6]
    assert ordered_path(star_tree(4), [2, 0, 1]) == [1, 0, 2]
    with pytest.raises(InternalError, match="must induce a path"):
        ordered_path(path_tree(8), {1, 3})


def test_distances_from_several_sources_within_a_set():
    t = path_tree(7)
    assert distances(t, [0, 6]) == {0: 0, 6: 0, 1: 1, 5: 1, 2: 2, 4: 2, 3: 3}
    assert distances(t, [2], within={1, 2, 3, 4}) == {2: 0, 1: 1, 3: 1, 4: 2}


def test_tree_roundtrip():
    for spec in (
        TreeGenSpec(n=1, delta=3, seed=0, model="path"),
        TreeGenSpec(n=7, delta=3, seed=0, model="caterpillar"),
        TreeGenSpec(n=25, delta=4, seed=9),
    ):
        t = gen_tree(spec)
        assert parse_tree(serialize_tree(t)) == t


def test_parse_tree_syntax_error_position():
    with pytest.raises(TreeFormatError, match="line 1"):
        parse_tree("{bad")


def test_parse_tree_semantic_errors():
    with pytest.raises(TreeFormatError, match="missing key"):
        parse_tree('{"n": 2, "delta": 3}')
    with pytest.raises(TreeFormatError, match="list 1 edges"):
        parse_tree('{"n": 2, "delta": 3, "edges": []}')
    with pytest.raises(TreeFormatError, match="cycle"):
        parse_tree(
            '{"n": 3, "delta": 3, "edges": ['
            '{"u": 0, "pu": 0, "v": 1, "pv": 0},'
            '{"u": 1, "pu": 1, "v": 0, "pv": 1}]}'
        )
    with pytest.raises(TreeFormatError, match="assigned twice"):
        parse_tree(
            '{"n": 3, "delta": 3, "edges": ['
            '{"u": 0, "pu": 0, "v": 1, "pv": 0},'
            '{"u": 0, "pu": 0, "v": 2, "pv": 0}]}'
        )


def test_port_tree_rejects_asymmetry_and_disconnection():
    rows = [[None] * 3 for _ in range(2)]
    rows[0][0] = (1, 0)
    rows[1][0] = (0, 1)  # points back at the wrong port
    with pytest.raises(ValueError, match="asymmetry"):
        PortTree(3, tuple(tuple(r) for r in rows))

    b = TreeBuilder(4, 3)
    b.add_edge(0, 1)
    b.add_edge(2, 3)
    b.add_edge(2, 3)  # double edge keeps the count right but splits the graph
    with pytest.raises(TreeFormatError, match="disconnected"):
        b.build()


def test_builder_degree_cap():
    b = TreeBuilder(6, 3)
    for v in range(1, 4):
        b.add_edge(0, v)
    with pytest.raises(TreeFormatError, match="delta"):
        b.add_edge(0, 4)


_EDGE_KEYS = ("u", "pu", "v", "pv")


@settings(max_examples=300, deadline=None)
@given(
    json_documents(
        "n",
        "delta",
        "edges",
        n=st.integers(1, 4),
        delta=st.integers(3, 4),
        edges=st.lists(
            json_documents(*_EDGE_KEYS, **dict.fromkeys(_EDGE_KEYS, st.integers(0, 4))),
            max_size=3,
        ),
    )
)
def test_parse_tree_raises_only_format_errors(doc):
    try:
        parse_tree(json.dumps(doc))
    except TreeFormatError:
        pass
