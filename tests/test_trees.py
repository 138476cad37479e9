import json
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees.problems import _BLOCK
from lcltrees.trees import (
    MAX_DELTA,
    PortTree,
    TreeFormatError,
    TreeGenSpec,
    ball,
    bfs_tree,
    components,
    distance,
    distances,
    gen_tree,
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
    # a vertex outside the tree is refused, not wrapped around or indexed past
    t = path_tree(10)
    for v, radius in ((-1, 2), (10, 1), (-11, 0)):
        with pytest.raises(ValueError, match=f"vertex {v} is outside the tree"):
            ball(t, v, radius)
    for u, v in ((0, 10), (10, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside the tree"):
            distance(t, u, v)


def test_ball_is_every_vertex_within_the_radius():
    for model in ("path", "caterpillar", "uniform-attachment-capped"):
        t = gen_tree(TreeGenSpec(n=300, delta=3, seed=4, model=model))
        for v in (0, 17, 299):
            dist = distances(t, [v])
            for radius in (-1, 0, 1, 3, 10**9):
                want = frozenset(u for u, d in dist.items() if d <= radius)
                assert ball(t, v, radius) == want


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


def test_serialize_tree_matches_json_dumps_byte_for_byte():
    # the writer renders _BLOCK edges at a time: trees of a block's edges
    # less one, exactly, and one more
    blocks = tuple((n, 3) for n in (_BLOCK, _BLOCK + 1, _BLOCK + 2))
    for model in ("path", "star", "caterpillar", "uniform-attachment-capped"):
        for n, delta in ((1, 3), (2, 3), (4, 3), (37, 4), (300, 5), *blocks):
            if model == "star" and n > delta + 1:
                continue
            t = gen_tree(TreeGenSpec(n=n, delta=delta, seed=n, model=model))
            doc = {
                "n": t.n,
                "delta": t.delta,
                "edges": [{"u": u, "pu": pu, "v": v, "pv": pv} for u, pu, v, pv in t.edges()],
            }
            assert serialize_tree(t).encode() == (json.dumps(doc, indent=2) + "\n").encode()


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


def test_parse_tree_caps_delta():
    assert MAX_DELTA == 64
    for delta in (MAX_DELTA + 1, 2**31, 2**63):
        with pytest.raises(TreeFormatError, match=f"3..{MAX_DELTA}"):
            parse_tree(json.dumps({"n": 1, "delta": delta, "edges": []}))
    t = parse_tree(json.dumps({"n": 1, "delta": MAX_DELTA, "edges": []}))
    assert t.delta == MAX_DELTA
    with pytest.raises(TreeFormatError, match="above the maximum"):
        gen_tree(TreeGenSpec(n=2, delta=2**63, seed=0, model="path"))


def test_port_tree_caps_delta():
    for delta in (MAX_DELTA + 1, 100):
        with pytest.raises(TreeFormatError, match=f"delta {delta} is above the maximum 64"):
            PortTree(delta, [[None] * delta])
    assert PortTree(MAX_DELTA, [[None] * MAX_DELTA]).delta == MAX_DELTA


@pytest.mark.parametrize("model", ("path", "star", "caterpillar", "uniform-attachment-capped"))
def test_gen_tree_refuses_a_delta_below_three(model):
    # a caterpillar with delta 0 once looked forever for a leg with a free port
    for n, delta in ((1, 2), (2, 0), (3, 1), (5, -1)):
        with pytest.raises(TreeFormatError, match="delta must be at least 3"):
            gen_tree(TreeGenSpec(n=n, delta=delta, seed=0, model=model))


def test_neighbors_are_fresh_lists_in_port_order():
    t = gen_tree(TreeGenSpec(n=40, delta=4, seed=2))
    for v in range(t.n):
        expect = [tgt[0] for tgt in t.ports[v] if tgt is not None]
        got = t.neighbors(v)
        assert got == expect and t.real_degree(v) == len(expect)
        got.append(-1)  # a caller's edit must not reach the tree
        assert t.neighbors(v) == expect


def test_port_tree_rejects_asymmetry_and_disconnection():
    rows = [[None] * 3 for _ in range(2)]
    rows[0][0] = (1, 0)
    rows[1][0] = (0, 1)  # points back at the wrong port
    with pytest.raises(ValueError, match="asymmetry"):
        PortTree(3, tuple(tuple(r) for r in rows))

    # a double edge keeps the count right but splits the graph
    rows = [[(1, 0), None, None], [(0, 0), None, None]]
    rows += [[(3, 0), (3, 1), None], [(2, 0), (2, 1), None]]
    with pytest.raises(ValueError, match="disconnected"):
        PortTree(3, rows)


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


def test_an_integer_too_long_to_read_is_a_format_error():
    for text in (
        '{"n": %s, "delta": 3, "edges": []}' % ("7" * 5000),
        json.dumps({"n": 2, "delta": 3, "edges": [{"u": 0, "pu": 0, "v": 1, "pv": 0}]},
                   indent=2).replace('"v": 1', '"v": ' + "1" * 5000),
    ):
        with pytest.raises(TreeFormatError, match="too many digits"):
            parse_tree(text)


# --- connectivity ---------------------------------------------------------------


def walk_spans(graph) -> bool:
    """Whether a walk from vertex 0 reaches every vertex: the check that
    PortTree._spans replaced, kept as its reference."""
    rows = graph.nbr.tolist()
    seen = bytearray(graph.n)
    seen[0] = 1
    stack = [0]
    for v in stack:
        for u in rows[v]:
            if u >= 0 and not seen[u]:
                seen[u] = 1
                stack.append(u)
    return len(stack) == graph.n


def port_graph(n, delta, edges):
    """The graph on these edges, each end on its vertex's next free port,
    with port arrays but none of a tree's checks."""
    nbr = np.full((n, delta), -1, np.int32)
    back = np.full((n, delta), -1, np.int32)
    degree = [0] * n
    for u, v in edges:
        pu, pv = degree[u], degree[v]
        nbr[u, pu], back[u, pu], nbr[v, pv], back[v, pv] = v, pv, u, pu
        degree[u] += 1
        degree[v] += 1
    graph = PortTree.__new__(PortTree)
    graph._fill(delta, nbr, back)
    return graph


def id_orders(n, rng):
    """Vertex ids along a path: sorted, reversed, zig-zag and random."""
    ids = list(range(n))
    zigzag = [ids[i // 2] if i % 2 == 0 else ids[n - 1 - i // 2] for i in range(n)]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    return {"sorted": ids, "reversed": ids[::-1], "zig-zag": zigzag, "random": shuffled}


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 17, 1000, 100_000))
def test_spans_matches_a_walk_on_paths_in_any_id_order(n):
    for name, order in id_orders(n, Random(n)).items():
        edges = list(zip(order, order[1:]))
        path = port_graph(n, 3, edges)
        assert path._spans() and walk_spans(path), name
        if n >= 5:
            # drop an edge past the middle, close a triangle at the start:
            # still n - 1 edges, now in two components
            m = n // 2 + 1
            split = port_graph(n, 3, edges[:m] + edges[m + 1 :] + [(order[0], order[2])])
            assert not split._spans() and not walk_spans(split), name


@pytest.mark.parametrize("model,n,delta", [("star", 65, 64), ("caterpillar", 5001, 4)])
def test_spans_matches_a_walk_on_a_star_and_a_caterpillar(model, n, delta):
    edges = [(u, v) for u, _, v, _ in gen_tree(TreeGenSpec(n, delta, 0, model)).edges()]
    # the last edge's leaf moves away: its other end doubles one of its edges
    a, _ = edges[-1]
    degree = Counter(x for edge in edges for x in edge)
    w = next(x for edge in edges[:-1] if a in edge for x in edge if x != a and degree[x] < delta)
    split = edges[:-1] + [(a, w)]
    relabel = list(range(n))
    Random(n).shuffle(relabel)
    for ids in (list(range(n)), relabel):
        tree = port_graph(n, delta, [(ids[u], ids[v]) for u, v in edges])
        assert tree._spans() and walk_spans(tree)
        graph = port_graph(n, delta, [(ids[u], ids[v]) for u, v in split])
        assert not graph._spans() and not walk_spans(graph)


def edge_docs(*edges):
    return [dict(zip(("u", "pu", "v", "pv"), edge)) for edge in edges]


@pytest.mark.parametrize(
    "n,edges,cycle",
    [
        # 0 - 1 twice, on ports 0 and 1 of each; vertex 2 alone
        (3, edge_docs((0, 0, 1, 0), (0, 1, 1, 1)), "0 -- 1"),
        # the triangle 0 - 1 - 2; vertex 3 alone
        (4, edge_docs((0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 0, 1)), "2 -- 0"),
    ],
    ids=["doubled edge", "cycle and a lone vertex"],
)
def test_a_doubled_edge_and_a_cycle_beside_a_lone_vertex_are_refused(n, edges, cycle):
    rows = [[None] * 3 for _ in range(n)]
    for e in edges:
        rows[e["u"]][e["pu"]] = (e["v"], e["pv"])
        rows[e["v"]][e["pv"]] = (e["u"], e["pu"])
    with pytest.raises(ValueError) as got:
        PortTree(3, tuple(map(tuple, rows)))
    assert str(got.value) == "tree is disconnected"
    doc = {"n": n, "delta": 3, "edges": edges}
    for text in (json.dumps(doc), json.dumps(doc, indent=2) + "\n"):
        with pytest.raises(TreeFormatError) as got:
            parse_tree(text)
        assert str(got.value) == f"cycle detected at edge {cycle}"
