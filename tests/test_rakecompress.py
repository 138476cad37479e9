"""Rake-and-compress decompositions: the raw process, the post-processed
layered form, its structural invariants, and the depth bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees.rakecompress import (
    LayeredDecomposition,
    RawDecomposition,
    check_layered_invariants,
    decompose,
    post_process,
    simulated_rounds,
)
from lcltrees.trees import TreeBuilder, TreeGenSpec, components, gen_tree

from conftest import path_tree, star_tree


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
    assert decomp.compress_layers == (frozenset({2, 3, 4, 5, 7, 8, 9, 10}),)
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
        LayeredDecomposition(tree, 2, (frozenset({0, 1, 2, 3}),), (frozenset(),))
    with pytest.raises(ValueError, match="overlap"):
        LayeredDecomposition(
            tree, 2, (frozenset({0, 1, 2}), frozenset({2, 3})), (frozenset(),)
        )
    with pytest.raises(ValueError, match="partition"):
        LayeredDecomposition(
            tree, 2, (frozenset({0, 1}), frozenset({3})), (frozenset(),)
        )


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


def test_labeling_order_walks_outward():
    decomp = post_process(path_tree(13), 4)
    order = [(kind, i) for kind, i, _ in decomp.labeling_order()]
    assert order == [("R", 2), ("C", 1), ("R", 1)]
    layers = [layer for _, _, layer in decomp.labeling_order()]
    assert layers == [
        decomp.rake_layers[1],
        decomp.compress_layers[0],
        decomp.rake_layers[0],
    ]


def test_determinism():
    spec = TreeGenSpec(n=400, delta=3, seed=11, model="uniform-attachment-capped")
    a = post_process(gen_tree(spec), 4)
    b = post_process(gen_tree(spec), 4)
    assert a.rake_layers == b.rake_layers
    assert a.compress_layers == b.compress_layers


# --- invariant checker ----------------------------------------------------------


def test_checker_flags_dependent_rake_layer():
    tree = path_tree(4)
    decomp = LayeredDecomposition(
        tree, 2, (frozenset({0, 1}), frozenset({2, 3})), (frozenset(),)
    )
    bad = check_layered_invariants(decomp)
    assert any("not independent" in msg for msg in bad)


def test_checker_flags_missing_compress_contacts():
    # both outside neighbors of the compress path sit in lower layers
    tree = path_tree(4)
    decomp = LayeredDecomposition(
        tree, 2, (frozenset({0, 3}), frozenset()), (frozenset({1, 2}),)
    )
    bad = check_layered_invariants(decomp)
    assert any("later contacts" in msg for msg in bad)


def test_checker_flags_undersized_compress_block():
    tree = path_tree(7)
    decomp = LayeredDecomposition(
        tree, 4, (frozenset({0, 6}), frozenset({1, 5})), (frozenset({2, 3, 4}),)
    )
    bad = check_layered_invariants(decomp)
    assert any("size 3" in msg for msg in bad)


def test_checker_flags_too_many_later_neighbors():
    # raking the star center first leaves three later-layer neighbors
    tree = star_tree(4)
    decomp = LayeredDecomposition(
        tree, 2, (frozenset({0}), frozenset({1, 2, 3})), (frozenset(),)
    )
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


# --- depth and rounds -----------------------------------------------------------


def test_simulated_rounds_formula():
    decomp = post_process(path_tree(10), 4)
    assert simulated_rounds(decomp) == (1 + 4 + 4) * 2 == 18
    single = post_process(path_tree(1), 1)
    assert single.depth == 1
    assert simulated_rounds(single) == 6


def test_complete_binary_tree_depth():
    n = 1023
    builder = TreeBuilder(n, 3)
    for v in range(n // 2):
        builder.add_edge(v, 2 * v + 1)
        builder.add_edge(v, 2 * v + 2)
    decomp = post_process(builder.build(), 4)
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
