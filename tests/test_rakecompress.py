"""Rake-and-compress decompositions: the raw process, the post-processed
layered form, its structural invariants, and the depth bounds."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees.fixtures import three_coloring, two_coloring
from lcltrees.problems import HalfEdgeLabeling, InternalError
from lcltrees.rakecompress import (
    LayeredDecomposition,
    RawDecomposition,
    _cut_blocks,
    _Forest,
    check_layered_invariants,
    decompose,
    post_process,
)
from lcltrees.solver import NotEllFullError, solve_on_decomposition
from lcltrees.trees import PortTree, TreeGenSpec, components, gen_tree

from conftest import path_tree, star_tree
from reference import (
    RefTreeBuilder,
    blocks_of,
    layering,
    ref_ordered_path,
    ref_post_process,
    ref_solve_on_decomposition,
)


# --- raw process ----------------------------------------------------------------


def test_raw_star_rakes_twice():
    raw = decompose(star_tree(4), gamma=1, ell=4)
    assert raw.layers == (
        ("R", frozenset({1, 2, 3})),
        ("C", frozenset()),
        ("R", frozenset({0})),
    )
    assert raw.depth == 2


def test_raw_path_compresses_the_interior():
    raw = decompose(path_tree(10), gamma=1, ell=4)
    assert raw.layers == (
        ("R", frozenset({0, 9})),
        ("C", frozenset(range(1, 9))),
    )
    assert raw.depth == 2


def test_raw_single_vertex():
    raw = decompose(path_tree(1), gamma=1, ell=4)
    assert raw.layers == (("R", frozenset({0})),)
    assert raw.depth == 1


def test_raw_multi_rake_gamma():
    # gamma=2: the second rake of iteration 1 takes the freshly exposed leaves
    raw = decompose(path_tree(10), gamma=2, ell=4)
    assert raw.layers == (
        ("R", frozenset({0, 1, 8, 9})),
        ("C", frozenset(range(2, 8))),
    )
    assert raw.depth == 2


@pytest.mark.parametrize("gamma,ell", [(0, 4), (1, 0), (-1, 4)])
def test_raw_rejects_nonpositive_params(gamma, ell):
    with pytest.raises(ValueError):
        decompose(path_tree(4), gamma=gamma, ell=ell)


def test_raw_layers_must_partition():
    tree = path_tree(3)
    with pytest.raises(ValueError, match="partition"):
        RawDecomposition(tree, 1, 4, (("R", frozenset({0, 1})),), 1)
    with pytest.raises(ValueError, match="overlap"):
        RawDecomposition(
            tree, 1, 4, (("R", frozenset({0, 1})), ("C", frozenset({1, 2}))), 1
        )
    with pytest.raises(ValueError, match="kind"):
        RawDecomposition(tree, 1, 4, (("X", frozenset({0, 1, 2})),), 1)


# --- post-processing ------------------------------------------------------------


def test_layered_path10_trims_the_run_ends():
    decomp = post_process(path_tree(10), 4)
    assert decomp.rake_layers == (frozenset({0, 9}), frozenset({1, 8}))
    assert decomp.compress_layers == (frozenset(range(2, 8)),)
    assert decomp.depth == 2
    assert check_layered_invariants(decomp) == []


def test_layered_nine_vertex_run_splits_four_four():
    # interior run of 9 -> blocks {2..5} and {7..10} with separator 6 promoted
    decomp = post_process(path_tree(13), 4)
    assert blocks_of(decomp) == (((2, 3, 4, 5), (7, 8, 9, 10)),)
    assert decomp.compress_layers == (frozenset({2, 3, 4, 5, 7, 8, 9, 10}),)
    with pytest.raises(AttributeError):
        decomp.compress_layers = (frozenset(),)  # a view of the layers
    assert decomp.rake_layers == (frozenset({0, 12}), frozenset({1, 6, 11}))
    comps = sorted(sorted(c) for c in components(decomp.tree, decomp.compress_layers[0]))
    assert comps == [[2, 3, 4, 5], [7, 8, 9, 10]]
    assert check_layered_invariants(decomp) == []


def test_layered_adjacent_low_pair_promotes_one():
    decomp = post_process(path_tree(2), 4)
    assert decomp.rake_layers == (frozenset({0}), frozenset({1}))
    assert decomp.compress_layers == (frozenset(),)


def test_layered_pendant_singleton_erodes():
    # at ell'=1 a lone degree-1 run vertex has one alive anchor, not two;
    # it must be left for later rakes rather than compressed
    spec = TreeGenSpec(n=10, delta=4, seed=1, model="uniform-attachment-capped")
    decomp = post_process(gen_tree(spec), 1)
    assert decomp.compress_layers[0] == frozenset({1})
    assert check_layered_invariants(decomp) == []


def test_layered_short_run_erodes_instead_of_compressing():
    # the trimmed core {2,3} is below ell', so the path erodes rake by rake
    decomp = post_process(path_tree(6), 4)
    assert decomp.rake_layers == (
        frozenset({0, 5}),
        frozenset({1, 4}),
        frozenset({2}),
        frozenset({3}),
    )
    assert decomp.compress_layers == (frozenset(), frozenset(), frozenset())
    assert check_layered_invariants(decomp) == []


def test_post_process_rejects_nonpositive_ell_prime():
    for ell_prime in (0, -1):
        with pytest.raises(ValueError, match="ell_prime must be positive"):
            post_process(path_tree(10), ell_prime)


def test_layered_shape_validation():
    tree = path_tree(4)
    with pytest.raises(ValueError, match="one fewer compress"):
        layering(tree, 2, (frozenset({0, 1, 2, 3}),), ((),))
    with pytest.raises(ValueError, match="overlap"):
        layering(tree, 2, (frozenset({0, 1, 2}), frozenset({2, 3})), ((),))
    with pytest.raises(ValueError, match="partition"):
        layering(tree, 2, (frozenset({0, 1}), frozenset({3})), ((),))
    # every vertex is ranked as it is listed, so listing one twice overlaps
    rake = (frozenset({0, 3}), frozenset())
    for blocks in (((1, 2, 1),), ((1,), (2, 1))):
        with pytest.raises(ValueError, match="overlap"):
            layering(tree, 2, rake, (blocks,))
    with pytest.raises(ValueError, match="overlap"):
        layering(tree, 2, (frozenset({0, 3}), frozenset({2})), (((1, 2),),))
    # the same faults in a raw layering: overlap, a missing vertex, a vertex
    # outside the tree, and a vertex listed twice, outside the tree or not
    faults = [
        ("overlap", [("R", {0, 1, 2}), ("C", {2, 3})]),
        ("partition", [("R", {0, 1}), ("C", {3})]),
        ("partition", [("R", {0, 1, 2, 3, 4})]),
        ("partition", [("R", {-1, 0, 1}), ("C", {2, 3})]),
        ("overlap", [("R", {0, 3}), ("C", {1, 2}), ("R", {1})]),
        ("overlap", [("R", {0, 3, 7}), ("C", {1, 2, 7})]),
    ]
    for message, layers in faults:
        with pytest.raises(ValueError, match=message):
            RawDecomposition(tree, 1, 2, tuple((k, frozenset(v)) for k, v in layers), 2)
    # an id that is no integer within int64 is refused in either class, and
    # an empty layer is no fault
    for odd in (1.5, 2**70):
        with pytest.raises(ValueError, match="partition"):
            RawDecomposition(path_tree(3), 1, 1, (("R", frozenset({0, odd, 2})),), 1)
        with pytest.raises(ValueError, match="partition"):
            LayeredDecomposition(path_tree(3), 1, (np.array([0, odd, 2]),), ())
    RawDecomposition(tree, 1, 2, (("R", frozenset()), ("C", frozenset(range(4)))), 2)
    # the block sizes of a compress layer add up to its vertices
    layers = (np.array([0, 3]), np.array([1, 2]), np.array([], np.int64))
    for sizes in ([1], [3, -1], [2, 1]):
        with pytest.raises(ValueError, match="block sizes"):
            LayeredDecomposition(tree, 2, layers, (np.array(sizes),))
    assert LayeredDecomposition(tree, 2, layers, (np.array([1, 1]),)).depth == 2
    # a layer or a block-size entry that is no 1-D integer array is refused
    # before solving meets it
    rake = (np.array([0, 6]), np.array([1, 5]))
    for layer in ([2, 3, 4], np.array([[2, 3, 4]]), np.array([2.0, 3.0, 4.0]), np.array([], float)):
        with pytest.raises(ValueError, match="1-D integer arrays"):
            LayeredDecomposition(path_tree(7), 2, (rake[0], layer, rake[1]), (np.array([3]),))
    for sizes in ([3], np.array([[3]]), np.array([3.0]), np.array([True])):
        with pytest.raises(ValueError, match="1-D integer arrays"):
            LayeredDecomposition(path_tree(7), 2, (rake[0], np.array([2, 3, 4]), rake[1]), (sizes,))


def test_layer_lookup_and_ranks():
    decomp = post_process(path_tree(10), 4)
    assert decomp.layer_of(0) == ("R", 1)
    assert decomp.layer_of(2) == ("C", 1)
    assert decomp.layer_of(1) == ("R", 2)
    assert decomp.rank_of(0) == 1
    assert decomp.rank_of(2) == 2
    assert decomp.rank_of(1) == 3


def test_layer_lookup_rejects_vertices_outside_the_tree():
    decomp = post_process(path_tree(10), 4)
    for v in (10, -1):
        with pytest.raises(ValueError, match="in no layer"):
            decomp.layer_of(v)
        with pytest.raises(ValueError, match="in no layer"):
            decomp.rank_of(v)


def test_ranks_follow_the_layers_and_vertices_outside_the_tree_are_refused():
    tree = path_tree(4)
    for outside in (4, -1):
        with pytest.raises(ValueError, match="partition"):
            layering(tree, 2, (frozenset({0, 1, 2, 3, outside}),), ())
    # vertex 7 listed twice overlaps before it fails to partition
    with pytest.raises(ValueError, match="overlap"):
        layering(tree, 2, (frozenset({0, 3, 7}), frozenset({2})), (((1, 7),),))
    n = 3000
    decomp = post_process(gen_tree(TreeGenSpec(n=n, delta=3, seed=7)), 3)
    want = {}
    for first, layers in ((1, decomp.rake_layers), (2, decomp.compress_layers)):
        for i, layer in enumerate(layers):
            want.update(dict.fromkeys(layer, first + 2 * i))
    assert [decomp.rank_of(v) for v in range(n)] == [want[v] for v in range(n)]
    for v in (-n, -n - 1, -1, n, n + 1):
        with pytest.raises(ValueError, match=f"vertex {v} in no layer"):
            decomp.rank_of(v)
        with pytest.raises(ValueError, match=f"vertex {v} in no layer"):
            decomp.layer_of(v)


def test_determinism():
    spec = TreeGenSpec(n=400, delta=3, seed=11, model="uniform-attachment-capped")
    a = post_process(gen_tree(spec), 4)
    b = post_process(gen_tree(spec), 4)
    assert a.rake_layers == b.rake_layers
    assert a.compress_layers == b.compress_layers


def test_equal_decompositions_hash_equal():
    a, b = post_process(path_tree(10), 2), post_process(path_tree(10), 2)
    assert a == b and hash(a) == hash(b)
    # arrays of another integer type compare equal, so they hash equal too
    narrow = LayeredDecomposition(
        a.tree, 2, tuple(x.astype(np.int32) for x in a.layers), tuple(x.astype(np.int32) for x in a.sizes)
    )
    assert narrow == a and hash(narrow) == hash(a)
    assert len({a, b, narrow, post_process(path_tree(10), 3), post_process(path_tree(11), 2)}) == 3


# --- runs by pointer doubling ------------------------------------------------------


def built_tree(n, edges, delta=3):
    b = RefTreeBuilder(n, delta)
    for u, v in edges:
        b.add_edge(u, v)
    return PortTree(delta, b.build().ports)


def runs_of(tree):
    """Each run vertex with its run's smaller-id and larger-id ends, its
    distance from the smaller-id end and its run's length."""
    pool, first, last, pos, length = _Forest(tree).runs()
    columns = (pool, pool[first], pool[last], pos, length)
    return list(zip(*(column.tolist() for column in columns)))


# lone leaves 1, 2, 7, 10, 11 (residual degree 1), a run 3-4-5 whose two
# ends keep residual degree 2, and a lone vertex 8 of residual degree 2
ANCHORED = (
    12,
    [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (8, 9), (9, 10), (9, 11)],
)


def test_runs_rank_each_vertex_from_the_smaller_id_end():
    assert runs_of(path_tree(1)) == [(0, 0, 0, 0, 1)]
    assert runs_of(path_tree(2)) == [(0, 0, 1, 0, 2), (1, 0, 1, 1, 2)]
    # the star's center has degree 3, so each leaf is a run of its own
    assert runs_of(star_tree(4)) == [(v, v, v, 0, 1) for v in (1, 2, 3)]
    # ids that do not rise along the path: 3 - 0 - 4 - 1 - 2
    winding = built_tree(5, [(3, 0), (0, 4), (4, 1), (1, 2)])
    assert runs_of(winding) == [
        (0, 2, 3, 3, 5), (1, 2, 3, 1, 5), (2, 2, 3, 0, 5), (3, 2, 3, 4, 5), (4, 2, 3, 2, 5)
    ]
    assert runs_of(built_tree(*ANCHORED)) == [
        (1, 1, 1, 0, 1),
        (2, 2, 2, 0, 1),
        (3, 3, 5, 0, 3),
        (4, 3, 5, 1, 3),
        (5, 3, 5, 2, 3),
        (7, 7, 7, 0, 1),
        (8, 8, 8, 0, 1),
        (10, 10, 10, 0, 1),
        (11, 11, 11, 0, 1),
    ]


def test_runs_rank_a_path_longer_than_any_power_of_two_it_crosses():
    n = 2**17 + 3
    tree = path_tree(n)
    assert runs_of(tree) == [(v, 0, n - 1, v, n) for v in range(n)]
    assert post_process(tree, 2) == ref_post_process(tree, 2)


def test_run_ends_of_residual_degree_two_stay_in_the_core():
    # the 3-4-5 core splits one, separator, one at ell' = 1 and stays whole
    # at ell' = 2; the lone vertex 8 is a block only while ell' = 1
    tree = built_tree(*ANCHORED)
    forest = _Forest(tree)
    assert [x.tolist() for x in _cut_blocks(forest, 1)] == [[3, 5, 8], [1, 1, 1]]
    assert sorted(forest.alive.tolist()) == [0, 1, 2, 4, 6, 7, 9, 10, 11]
    assert [x.tolist() for x in _cut_blocks(_Forest(tree), 2)] == [[3, 4, 5], [3]]
    for ell_prime in (1, 2, 3):
        assert post_process(tree, ell_prime) == ref_post_process(tree, ell_prime)


# --- carried blocks -------------------------------------------------------------

HANDOVER_SIZES = (1, 2, 3, 7, 60, 613, 5000)
HANDOVER_MODELS = ("path", "caterpillar", "uniform-attachment-capped")
# sha256 of every layer of the sweep below, as the walk-based post_process
# (before it handed over its blocks) produced them
LAYER_DIGESTS = {
    "path": "7bc8e5261113b679cd162fd7a58b0232330b7de2a3b0b8cfa572a418d78745eb",
    "caterpillar": "06390933bd045864dda798a775770cab98602ea4af6afa2d4aaf850f22d02e07",
    "uniform-attachment-capped": "b58305def67279fedf1c21b4cbec1e8dbb791e2d9ed2344cd880ef96e16f9e69",
}


@pytest.mark.parametrize("model", HANDOVER_MODELS)
def test_post_process_hands_over_the_blocks_a_walk_finds(model):
    digest = hashlib.sha256()
    for n in HANDOVER_SIZES:
        tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
        for ell_prime in (1, 2, 3, 4):
            decomp = post_process(tree, ell_prime)
            for layer in decomp.rake_layers + decomp.compress_layers:
                digest.update(repr(sorted(layer)).encode())
            for layer, blocks in zip(decomp.compress_layers, blocks_of(decomp)):
                walked = [ref_ordered_path(tree, c) for c in components(tree, layer)]
                assert [list(b) for b in blocks] == walked
    assert digest.hexdigest() == LAYER_DIGESTS[model]


@pytest.mark.parametrize("model", HANDOVER_MODELS)
def test_hand_built_decomposition_finds_its_blocks_and_solves(model, coloring3):
    # a decomposition rebuilt by hand from post_process's rake layers and
    # blocks is the same decomposition; three-coloring is ell-full from
    # ell = 3, so every ell' can be solved
    tree = gen_tree(TreeGenSpec(n=900, delta=3, seed=2, model=model))
    subset = sorted(coloring3.vertex_configs)
    for ell_prime in (1, 2, 3, 4):
        carried = post_process(tree, ell_prime)
        by_hand = layering(tree, ell_prime, carried.rake_layers, blocks_of(carried))
        assert by_hand == carried
        assert by_hand.compress_layers == carried.compress_layers
        assert solve_on_decomposition(coloring3, subset, by_hand) == (
            solve_on_decomposition(coloring3, subset, carried)
        )


def test_block_out_of_path_order_is_refused(coloring3):
    # the layer {2, 3, 4} is sound as a vertex set, but the checker and the
    # solver both read the blocks in the order given
    tree = path_tree(7)
    rake = (frozenset({0, 6}), frozenset({1, 5}))
    subset = sorted(coloring3.vertex_configs)
    in_order = layering(tree, 2, rake, (((2, 3, 4),),))
    assert check_layered_invariants(in_order) == []
    solve_on_decomposition(coloring3, subset, in_order)
    for blocks in (((2, 4, 3),), ((2, 3, 4), ())):
        decomp = layering(tree, 2, rake, (blocks,))
        assert decomp.compress_layers == in_order.compress_layers
        assert decomp != in_order
        assert any("is not a path" in msg for msg in check_layered_invariants(decomp))
        with pytest.raises(InternalError, match="must induce a path"):
            solve_on_decomposition(coloring3, subset, decomp)


def test_compress_layer_that_is_no_path_is_reported_and_refused(coloring3):
    # the whole star as one block: the checker says why, and the solver
    # refuses it instead of filling a star as a path
    star = star_tree(4)
    decomp = layering(star, 2, (frozenset(), frozenset()), (((0, 1, 2, 3),),))
    assert any("is not a path" in msg for msg in check_layered_invariants(decomp))
    with pytest.raises(InternalError, match="must induce a path"):
        solve_on_decomposition(coloring3, sorted(coloring3.vertex_configs), decomp)


def test_first_failing_block_decides_the_exception():
    # on the path 0..8, rake layer {2, 5} takes the free row (all a), so
    # block (3, 4) needs a 4-vertex path from a to a, which two-coloring
    # lacks, and block (6, 8) is no path
    coloring2 = two_coloring()
    subset = sorted(coloring2.vertex_configs)
    rake = (frozenset({0, 1, 7}), frozenset({2, 5}))
    no_witness_first = layering(path_tree(9), 2, rake, (((3, 4), (6, 8)),))
    errors = []
    for solve in (solve_on_decomposition, ref_solve_on_decomposition):
        with pytest.raises(NotEllFullError) as err:
            solve(coloring2, subset, no_witness_first)
        errors.append((err.value.kind, err.value.detail))
    assert errors[0] == errors[1]
    assert errors[0][0] == "path-extension" and errors[0][1]["k"] == 4
    no_path_first = layering(path_tree(9), 2, rake, (((6, 8), (3, 4)),))
    for solve in (solve_on_decomposition, ref_solve_on_decomposition):
        with pytest.raises(InternalError, match="must induce a path"):
            solve(coloring2, subset, no_path_first)


def test_layers_that_hold_an_edge_are_refused(coloring3):
    # the vertex-by-vertex solver labeled these in whichever order it
    # visited them; a whole-layer pass refuses them
    subset = sorted(coloring3.vertex_configs)
    rake_edge = layering(path_tree(3), 1, (frozenset({0, 1, 2}),), ())
    assert isinstance(ref_solve_on_decomposition(coloring3, subset, rake_edge), HalfEdgeLabeling)
    with pytest.raises(InternalError, match="rake layer must be an independent set"):
        solve_on_decomposition(coloring3, subset, rake_edge)
    # blocks (1,) and (5,) are adjacent: the second saw the first labeled
    tree = built_tree(6, [(0, 1), (1, 2), (1, 5), (5, 4), (2, 3)])
    rake = (frozenset({3}), frozenset({0, 2, 4}))
    touching = layering(tree, 1, rake, (((1,), (5,)),))
    assert isinstance(ref_solve_on_decomposition(coloring3, subset, touching), HalfEdgeLabeling)
    with pytest.raises(InternalError, match="blocks of one layer must not touch"):
        solve_on_decomposition(coloring3, subset, touching)


def test_block_whose_interior_touches_a_later_vertex_is_refused(coloring3):
    # block (1, 2, 3) of the path 0..4 touches 0 and 4 at its ends and the
    # pendant vertex 5 in its middle, so no path witness labels it
    tree = built_tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    decomp = layering(tree, 2, (frozenset(), frozenset({0, 4, 5})), (((1, 2, 3),),))
    with pytest.raises(
        InternalError, match="must touch exactly two labeled vertices, one at each end"
    ):
        solve_on_decomposition(coloring3, sorted(coloring3.vertex_configs), decomp)
    assert check_layered_invariants(decomp) == [
        "compress layer 1 block [1, 2, 3] does not have exactly 2 later contacts, one at each end"
    ]


# --- invariant checker ----------------------------------------------------------


def test_checker_flags_dependent_rake_layer():
    tree = path_tree(4)
    decomp = layering(tree, 2, (frozenset({0, 1}), frozenset({2, 3})), ((),))
    bad = check_layered_invariants(decomp)
    assert any("not independent" in msg for msg in bad)


def test_checker_flags_missing_compress_contacts():
    # both outside neighbors of the compress path sit in lower layers
    tree = path_tree(4)
    decomp = layering(tree, 2, (frozenset({0, 3}), frozenset()), (((1, 2),),))
    bad = check_layered_invariants(decomp)
    assert any("later contacts" in msg for msg in bad)


def test_checker_flags_undersized_compress_block():
    tree = path_tree(7)
    decomp = layering(
        tree, 4, (frozenset({0, 6}), frozenset({1, 5})), (((2, 3, 4),),)
    )
    bad = check_layered_invariants(decomp)
    assert any("size 3" in msg for msg in bad)


def test_checker_flags_too_many_later_neighbors():
    # raking the star center first leaves three later-layer neighbors
    tree = star_tree(4)
    decomp = layering(tree, 2, (frozenset({0}), frozenset({1, 2, 3})), ((),))
    bad = check_layered_invariants(decomp)
    assert any("3 later neighbors" in msg for msg in bad)


def test_checker_accepts_every_post_processed_output():
    for n in (1, 2, 3, 7, 24, 90):
        for ell_prime in (1, 2, 4):
            decomp = post_process(path_tree(n), ell_prime)
            assert check_layered_invariants(decomp) == []
            decomp = post_process(star_tree(min(n, 4)), ell_prime)
            assert check_layered_invariants(decomp) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    delta=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    ell_prime=st.sampled_from([1, 2, 4, 5]),
)
def test_invariants_hold_on_random_trees(n, delta, seed, ell_prime):
    spec = TreeGenSpec(n=n, delta=delta, seed=seed, model="uniform-attachment-capped")
    decomp = post_process(gen_tree(spec), ell_prime)
    assert check_layered_invariants(decomp) == []


# --- checker and solver agree ------------------------------------------------------


def assert_checker_and_solver_agree(problem, decomp):
    """The checker reports no fault but block sizes exactly when the solver
    fills the layering; three-coloring has a witness for every block."""
    faults = [msg for msg in check_layered_invariants(decomp) if "has size" not in msg]
    try:
        solve_on_decomposition(problem, sorted(problem.vertex_configs), decomp)
    except InternalError as err:
        assert faults, f"the solver refuses a layering the checker passes: {err}"
    else:
        assert not faults, f"the solver fills a layering the checker faults: {faults}"


# the layerings this file builds by hand: (tree, ell', rake layers, blocks)
HAND_MADE = [
    (path_tree(7), 2, ({0, 6}, {1, 5}), [[(2, 3, 4)]]),
    (path_tree(7), 2, ({0, 6}, {1, 5}), [[(2, 4, 3)]]),
    (path_tree(7), 2, ({0, 6}, {1, 5}), [[(2, 3, 4), ()]]),
    (path_tree(7), 4, ({0, 6}, {1, 5}), [[(2, 3, 4)]]),
    (star_tree(4), 2, ((), ()), [[(0, 1, 2, 3)]]),
    (star_tree(4), 2, ({0}, {1, 2, 3}), [[]]),
    (path_tree(9), 2, ({0, 1, 7}, {2, 5}), [[(3, 4), (6, 8)]]),
    (path_tree(9), 2, ({0, 1, 7}, {2, 5}), [[(6, 8), (3, 4)]]),
    (path_tree(3), 1, ({0, 1, 2},), []),
    (built_tree(6, [(0, 1), (1, 2), (1, 5), (5, 4), (2, 3)]), 1, ({3}, {0, 2, 4}), [[(1,), (5,)]]),
    (built_tree(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]), 2, ((), {0, 4, 5}), [[(1, 2, 3)]]),
    (path_tree(4), 2, ({0, 1}, {2, 3}), [[]]),
    (path_tree(4), 2, ({0, 3}, ()), [[(1, 2)]]),
    (path_tree(4), 2, ({0, 3}, {1}), [[(2,)]]),
]


@pytest.mark.parametrize("case", range(len(HAND_MADE)))
def test_checker_and_solver_agree_on_hand_made_layerings(case, coloring3):
    tree, ell_prime, rake, blocks = HAND_MADE[case]
    assert_checker_and_solver_agree(coloring3, layering(tree, ell_prime, rake, blocks))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    model=st.sampled_from(["path", "caterpillar", "uniform-attachment-capped"]),
    seed=st.integers(min_value=0, max_value=1000),
    ell_prime=st.sampled_from([1, 2, 3]),
    data=st.data(),
)
def test_checker_and_solver_agree_on_mutated_layerings(n, model, seed, ell_prime, data):
    # one vertex moves to another layer (into a block or as a block of its
    # own), or two vertices of one block swap places
    decomp = post_process(gen_tree(TreeGenSpec(n=n, delta=3, seed=seed, model=model)), ell_prime)
    rake = [layer.tolist() for layer in decomp.layers[0::2]]
    blocks = [[list(b) for b in layer] for layer in blocks_of(decomp)]
    long_blocks = [b for layer in blocks for b in layer if len(b) > 1]
    if long_blocks and data.draw(st.booleans(), label="swap"):
        block = data.draw(st.sampled_from(long_blocks), label="block")
        i, j = data.draw(st.lists(st.integers(0, len(block) - 1), min_size=2, max_size=2, unique=True))
        block[i], block[j] = block[j], block[i]
    elif len(decomp.layers) > 1:
        v = data.draw(st.integers(0, n - 1), label="vertex")
        r = decomp.rank_of(v)
        if r % 2:
            rake[r // 2].remove(v)
        else:
            layer = blocks[r // 2 - 1]
            layer[:] = [[u for u in b if u != v] for b in layer]
        to = data.draw(st.integers(1, len(decomp.layers)).filter(lambda t: t != r), label="to")
        if to % 2:
            rake[to // 2].append(v)
        else:
            layer = blocks[to // 2 - 1]
            at = data.draw(st.integers(0, len(layer)), label="block")
            if at == len(layer) or data.draw(st.booleans(), label="alone"):
                layer.insert(at, [v])
            else:
                layer[at].insert(data.draw(st.integers(0, len(layer[at])), label="place"), v)
    assert_checker_and_solver_agree(three_coloring(), layering(decomp.tree, ell_prime, rake, blocks))


# --- depth -----------------------------------------------------------------------


def test_short_paths_take_one_and_two_rake_layers():
    assert post_process(path_tree(1), 1).depth == 1
    assert post_process(path_tree(10), 4).depth == 2


def test_complete_binary_tree_depth():
    n = 1023
    edges = [(v, 2 * v + k) for v in range(n // 2) for k in (1, 2)]
    decomp = post_process(built_tree(n, edges), 4)
    assert decomp.depth <= 4 * math.log2(n)
    assert decomp.depth == 10  # regression pin; any <= bound value is acceptable
    assert check_layered_invariants(decomp) == []


def test_depth_grows_logarithmically():
    # absolute bound holds per sample; the doubling increment is stable only
    # for the seed-averaged depth (single samples jump by more)
    seeds = range(10)
    mean_depth = []
    for k in range(7, 15):
        n = 2**k
        depths = []
        for seed in seeds:
            spec = TreeGenSpec(
                n=n, delta=3, seed=seed, model="uniform-attachment-capped"
            )
            decomp = post_process(gen_tree(spec), 4)
            assert decomp.depth <= 4 * math.log2(n) + 4
            depths.append(decomp.depth)
        mean_depth.append(sum(depths) / len(depths))
    for smaller, bigger in zip(mean_depth, mean_depth[1:]):
        assert bigger - smaller <= 3
