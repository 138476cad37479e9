"""Constructive solvers: decomposition-driven labeling, certified
refutations, and the toast extension algorithm."""

import random

import numpy as np
import pytest

from lcltrees import solver
from lcltrees.fixtures import random_problem, three_coloring, two_coloring
from lcltrees.oracle import brute_force_connects, brute_force_solve
from lcltrees.pathstates import VERDICT_LOGN, classify
from lcltrees.problems import (
    EdgeConfig,
    Label,
    LclProblem,
    VertexConfig,
    is_valid_labeling,
)
from lcltrees.rakecompress import LayeredDecomposition, post_process
from lcltrees.solver import (
    NotEllFullError,
    Toast,
    _Assigner,
    build_partner_table,
    build_toast,
    piece_boundary,
    solve_log,
    solve_on_decomposition,
    solve_toast,
    verify_toast,
)
from lcltrees.trees import PortTree, TreeGenSpec, ball, distances, gen_tree

import reference
from conftest import path_tree, star_tree


def full_subset(problem):
    return sorted(problem.vertex_configs)


def lonely_problem():
    """Single config shows only label a, but edges accept only {a,b}."""
    return LclProblem(
        delta=3,
        labels=(Label(0, "a"), Label(1, "b")),
        vertex_configs=frozenset({VertexConfig.of([0, 0, 0])}),
        edge_configs=frozenset({EdgeConfig.of(0, 1)}),
    )


def uniform_tree(n, seed, delta=3):
    return gen_tree(
        TreeGenSpec(n=n, delta=delta, seed=seed, model="uniform-attachment-capped")
    )


def assert_solved(problem, tree, labeling, subset):
    report = is_valid_labeling(problem, tree, labeling)
    assert report.ok, report.describe(problem)
    allowed = set(subset)
    for v in range(tree.n):
        assert labeling.vertex_config(v) in allowed


# --- partner table ----------------------------------------------------------------


def test_partner_table_prefers_smallest_answer(coloring3):
    aaa, bbb, _ = full_subset(coloring3)
    table = build_partner_table(coloring3, full_subset(coloring3))
    assert table == {0: (bbb, 1), 1: (aaa, 0), 2: (aaa, 0)}


def test_partner_table_hole_is_a_certified_refutation():
    prob = lonely_problem()
    with pytest.raises(NotEllFullError) as err:
        build_partner_table(prob, full_subset(prob))
    assert err.value.kind == "missing-partner"
    assert err.value.detail["label"] == 0


# --- solve_log --------------------------------------------------------------------


def test_single_vertex_takes_smallest_config(coloring3):
    labeling = solve_log(coloring3, full_subset(coloring3), 3, path_tree(1))
    assert labeling.ports == ((0, 0, 0),)


def test_two_vertex_matching(matching):
    tree = path_tree(2)
    labeling = solve_log(matching, full_subset(matching), 4, tree)
    assert labeling.ports == ((0, 1, 1), (0, 1, 1))
    assert_solved(matching, tree, labeling, full_subset(matching))


def test_large_tree_three_coloring(coloring3):
    tree = uniform_tree(1000, seed=7)
    labeling = solve_log(coloring3, full_subset(coloring3), 3, tree)
    report = is_valid_labeling(coloring3, tree, labeling)
    assert report.ok
    assert report.vertex_violations == () and report.edge_violations == ()


@pytest.mark.parametrize("model", ["path", "caterpillar", "uniform-attachment-capped"])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 47, 200])
def test_soundness_across_shapes(matching, coloring3, model, n):
    for problem, ell in ((coloring3, 3), (matching, 4)):
        subset = full_subset(problem)
        tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
        labeling = solve_log(problem, subset, ell, tree)
        assert_solved(problem, tree, labeling, subset)


def test_random_problem_with_full_subset(random4):
    subset = full_subset(random4)
    for n in (5, 60, 300):
        tree = uniform_tree(n, seed=n + 1)
        labeling = solve_log(random4, subset, 2, tree)
        assert_solved(random4, tree, labeling, subset)


def test_proper_subset_discipline():
    # random seed 5 classifies IN via 2 of its 5 configs; the output must
    # never touch the other three
    problem = random_problem(5)
    by_name = {
        tuple(problem.name_of(a) for a in c): c for c in problem.vertex_configs
    }
    subset = [by_name[("x", "x", "x")], by_name[("x", "z", "z")]]
    assert len(subset) < len(problem.vertex_configs)
    for n in (4, 33, 120):
        tree = uniform_tree(n, seed=n)
        labeling = solve_log(problem, subset, 3, tree)
        assert_solved(problem, tree, labeling, subset)


def test_solver_is_deterministic(matching):
    tree = uniform_tree(240, seed=5)
    first = solve_log(matching, full_subset(matching), 4, tree)
    second = solve_log(matching, full_subset(matching), 4, tree)
    assert first.ports == second.ports


def test_oracle_agrees_solutions_exist(matching, coloring3):
    # both routes on every small tree: the subset is ell-full, so the
    # constructive solver and the exhaustive search must both succeed
    for n in range(1, 13):
        for model in ("path", "caterpillar", "uniform-attachment-capped"):
            tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=3, model=model))
            for problem, ell in ((matching, 4), (coloring3, 3)):
                labeling = solve_log(problem, full_subset(problem), ell, tree)
                assert is_valid_labeling(problem, tree, labeling).ok
                assert brute_force_solve(problem, tree).status == "found"


def test_missing_partner_refutation_via_solver():
    prob = lonely_problem()
    with pytest.raises(NotEllFullError) as err:
        solve_log(prob, full_subset(prob), 2, path_tree(5))
    assert err.value.kind == "missing-partner"


def test_path_extension_refutation_is_oracle_confirmed(coloring2):
    subset = full_subset(coloring2)
    with pytest.raises(NotEllFullError) as err:
        solve_log(coloring2, subset, 4, path_tree(10))
    e = err.value
    assert e.kind == "path-extension"
    assert e.detail["k"] == 4
    # the counterexample is real: the oracle rejects the same endpoints
    confirmed = brute_force_connects(
        coloring2,
        frozenset(subset),
        e.detail["a1"],
        e.detail["c1"],
        e.detail["a2"],
        e.detail["c2"],
        e.detail["k"],
    )
    assert confirmed is False


def test_input_validation(coloring3):
    tree = path_tree(4)
    with pytest.raises(ValueError, match="nonempty"):
        solve_log(coloring3, [], 3, tree)
    with pytest.raises(ValueError, match="not in the problem"):
        solve_log(coloring3, [VertexConfig.of([0, 0, 1])], 3, tree)
    with pytest.raises(ValueError, match="at least 2"):
        solve_log(coloring3, full_subset(coloring3), 1, tree)
    wide = three_coloring(delta=4)
    with pytest.raises(ValueError, match="delta"):
        solve_log(wide, full_subset(wide), 3, tree)


def test_solving_on_a_decomposition_checks_inputs_as_solve_log_does(coloring3):
    wide = gen_tree(TreeGenSpec(n=50, delta=4, seed=1, model="uniform-attachment-capped"))
    decomp = post_process(path_tree(4), 1)
    cases = [
        (full_subset(coloring3), post_process(wide, 2), "tree delta differs from problem delta"),
        ([], decomp, "subset must be nonempty"),
        ([VertexConfig.of([0, 0, 1])], decomp, r"config \(0, 0, 1\) not in the problem"),
    ]
    for subset, layered, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_on_decomposition(coloring3, subset, layered)
    # rows of label names are taken as solve_log takes them
    names = [[coloring3.labels[i].name for i in c.labels] for c in full_subset(coloring3)]
    assert solve_on_decomposition(coloring3, names, decomp) == solve_log(
        coloring3, full_subset(coloring3), 3, path_tree(4)
    )


# --- witness memo -----------------------------------------------------------------


def count_witness_calls(monkeypatch, module=solver):
    """Record the keys module asks extend_path for."""
    calls = []
    real = module.extend_path

    def counting(problem, subset, *key):
        calls.append(key)
        return real(problem, subset, *key)

    monkeypatch.setattr(module, "extend_path", counting)
    return calls


def solve_without_memo(problem, subset, ell, tree):
    """The per-vertex reference solver, which asks for a witness per block."""
    return reference.ref_solve_on_decomposition(
        problem, subset, reference.ref_post_process(tree, max(1, ell - 2))
    )


@pytest.mark.parametrize("model", ["path", "caterpillar", "uniform-attachment-capped"])
def test_witness_memo_asks_once_per_key_and_changes_nothing(
    monkeypatch, matching, coloring3, model
):
    tree = gen_tree(TreeGenSpec(n=3000, delta=3, seed=8, model=model))
    for problem, ell in ((matching, 4), (coloring3, 3)):
        subset = full_subset(problem)
        with monkeypatch.context() as m:
            uncached = count_witness_calls(m, reference)
            expected = solve_without_memo(problem, subset, ell, tree)
        sizes = post_process(tree, max(1, ell - 2)).sizes
        assert len(uncached) == sum(len(layer) for layer in sizes)
        with monkeypatch.context() as m:
            cached = count_witness_calls(m)
            labeling = solve_log(problem, subset, ell, tree)
        assert len(cached) == len(set(cached))
        assert set(cached) == set(uncached)
        assert len(cached) < len(uncached)
        assert labeling == expected


def test_witness_memo_keeps_the_refutation(coloring2):
    subset = full_subset(coloring2)
    tree = path_tree(40)
    errors = []
    for solve in (solve_without_memo, solve_log):
        with pytest.raises(NotEllFullError) as err:
            solve(coloring2, subset, 4, tree)
        errors.append((err.value.kind, err.value.detail))
    assert errors[0] == errors[1]
    assert errors[0][0] == "path-extension"


def test_witness_memo_remembers_a_missing_witness(monkeypatch, coloring2):
    # a key without a witness is asked once; every later block with that
    # key raises again from the memo
    subset = full_subset(coloring2)
    calls = count_witness_calls(monkeypatch)
    asg = _Assigner(coloring2, path_tree(8), subset)
    asg.place_answers(np.array([0, 3, 4, 7]), np.full(4, -1))
    for block in ((1, 2), (5, 6)):
        with pytest.raises(NotEllFullError) as err:
            asg.compress(np.array(block), np.array([len(block)]))
        assert err.value.kind == "path-extension"
    assert len(calls) == 1


def test_solve_log_labels_without_per_vertex_walks(monkeypatch, matching):
    # the layering and the labeling read the port arrays a layer at a time
    tree = uniform_tree(10_000, seed=3)
    calls = []
    real = PortTree.neighbors

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(PortTree, "neighbors", counting)
    labeling = solve_log(matching, full_subset(matching), 4, tree)
    assert calls == []
    assert "ports" not in vars(tree)
    monkeypatch.undo()
    assert_solved(matching, tree, labeling, full_subset(matching))


def test_solve_log_builds_no_layer_set(monkeypatch, matching):
    # solving reads the layering's vertex arrays; the vertex-set views are
    # for checkers and readers
    trees = (uniform_tree(5000, seed=4), path_tree(5000))
    want = [solve_log(matching, full_subset(matching), 4, tree) for tree in trees]

    def refuse(self):
        raise AssertionError("a layer's vertex set was built")

    for view in ("rake_layers", "compress_layers"):
        monkeypatch.setattr(LayeredDecomposition, view, property(refuse))
    assert [solve_log(matching, full_subset(matching), 4, tree) for tree in trees] == want


# --- differential sweep -----------------------------------------------------------


def sweep_trees():
    for n in range(1, 7):
        for model in ("path", "caterpillar", "uniform-attachment-capped"):
            yield gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
    for n in range(1, 5):
        yield star_tree(n)
    for n, model in ((45, "path"), (61, "caterpillar"), (120, "uniform-attachment-capped")):
        yield gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))


def sweep_toast(tree, q):
    """A toast with two balls when their gap allows, else one, else none."""
    for centers in ([0, tree.n - 1], [tree.n // 2], []):
        try:
            return build_toast(tree, q, centers)
        except ValueError:
            continue
    raise AssertionError("the whole tree alone is always a toast")


def test_differential_sweep_over_random_problems():
    solved = 0
    for seed in range(60):
        problem = random_problem(seed)
        report = classify(problem)
        if report.verdict != VERDICT_LOGN:
            continue
        subset = [
            VertexConfig.of(problem.label_by_name(name).id for name in row)
            for row in report.subset
        ]
        ell = report.minimal_ell
        restricted = LclProblem(
            problem.delta, problem.labels, frozenset(subset), problem.edge_configs
        )
        for tree in sweep_trees():
            toast = sweep_toast(tree, 2 * ell + 2)
            for labeling in (
                solve_log(problem, report.subset, ell, tree),
                solve_toast(problem, report.subset, ell, tree, toast),
            ):
                assert_solved(problem, tree, labeling, subset)
            if tree.n <= 6:
                assert brute_force_solve(restricted, tree).status == "found"
            solved += 1
    assert solved == 45 * 25


# --- toast structure --------------------------------------------------------------


def test_toast_type_validation():
    with pytest.raises(ValueError, match="at least 2"):
        Toast(1, (frozenset({0}),))
    with pytest.raises(ValueError, match="at least one piece"):
        Toast(4, ())
    with pytest.raises(ValueError, match="nonempty"):
        Toast(4, (frozenset(),))


def test_piece_boundary_cases():
    tree = path_tree(10)
    assert piece_boundary(tree, frozenset(range(10))) == frozenset()
    assert piece_boundary(tree, frozenset(range(3, 8))) == frozenset({3, 7})
    assert piece_boundary(tree, frozenset({5})) == frozenset({5})
    for piece, v in (({-1, 0}, -1), ({10}, 10), ({3, 4, 11}, 11), ({2**70, 3}, 2**70)):
        with pytest.raises(ValueError, match=f"vertex {v} is outside the tree"):
            piece_boundary(tree, frozenset(piece))


def test_verify_toast_accepts_sound_family():
    tree = path_tree(40)
    toast = Toast(
        4, (frozenset(ball(tree, 10, 4)), frozenset(ball(tree, 30, 4)), frozenset(range(40)))
    )
    assert verify_toast(tree, toast) == []


def test_verify_toast_catches_structural_faults():
    tree = path_tree(40)
    whole = frozenset(range(40))

    bad = verify_toast(tree, Toast(4, (ball(tree, 10, 4),)))
    assert any("whole tree" in msg for msg in bad)

    bad = verify_toast(tree, Toast(4, (ball(tree, 10, 4), ball(tree, 14, 4), whole)))
    assert any("overlap without nesting" in msg for msg in bad)

    # disjoint but their boundaries sit 3 < q apart
    bad = verify_toast(tree, Toast(4, (ball(tree, 5, 2), ball(tree, 12, 2), whole)))
    assert any("boundary gap 3" in msg for msg in bad)

    bad = verify_toast(tree, Toast(4, (whole, whole)))
    assert any("duplicate" in msg for msg in bad)

    bad = verify_toast(tree, Toast(4, (frozenset({0, 5}), whole)))
    assert any("disconnected" in msg for msg in bad)


def test_toast_pieces_outside_the_tree_are_violations(matching):
    tree = path_tree(20)
    whole = frozenset(range(20))
    for piece in (frozenset({19, 20}), frozenset({-1, 0}), frozenset({2**70, 3})):
        toast = Toast(6, (piece, whole))
        # as sets the two still overlap without nesting; no gap is measured
        assert verify_toast(tree, toast) == [
            "piece 0 holds a vertex outside the tree",
            "pieces 0 and 1 overlap without nesting",
        ]
        with pytest.raises(ValueError, match="piece 0 holds a vertex outside the tree"):
            solve_toast(matching, full_subset(matching), 2, tree, toast)
    bad = verify_toast(tree, Toast(6, (frozenset({20}),)))
    assert bad == [
        "piece 0 holds a vertex outside the tree",
        "no piece covers the whole tree, so some pair is uncovered",
    ]


def test_build_toast_single_center():
    tree = path_tree(40)
    toast = build_toast(tree, 4, [20])
    assert toast.pieces == (frozenset(range(16, 25)), frozenset(range(40)))
    assert verify_toast(tree, toast) == []


def test_build_toast_two_far_centers():
    tree = path_tree(40)
    toast = build_toast(tree, 4, [10, 30])
    assert len(toast.pieces) == 3
    inner = toast.pieces[:2]
    assert not (inner[0] & inner[1])
    assert verify_toast(tree, toast) == []


def test_build_toast_swallows_oversized_balls():
    tree = path_tree(40)
    toast = build_toast(tree, 45, [20])
    assert toast.pieces == (frozenset(range(40)),)


def test_build_toast_dedupes_repeated_centers():
    tree = path_tree(40)
    assert len(build_toast(tree, 4, [10, 10]).pieces) == 2


def test_build_toast_rejects_close_centers():
    tree = path_tree(40)
    with pytest.raises(ValueError, match="cannot satisfy the q-gap"):
        build_toast(tree, 4, [10, 13])
    with pytest.raises(ValueError, match="out of range"):
        build_toast(tree, 4, [40])


def reference_toast_pieces(tree, q, centers):
    """build_toast's pieces by the pair rule it once kept beside verify_toast:
    None when two balls neither nest nor keep their boundaries q apart."""
    everything = frozenset(range(tree.n))
    pieces = []
    for c in centers:
        piece = ball(tree, c, q)
        if piece != everything and piece not in pieces:
            pieces.append(piece)

    def clash(a, b):
        if not (a <= b or b <= a or not (a & b)):
            return True
        ba, bb = piece_boundary(tree, a), piece_boundary(tree, b)
        if not ba or not bb:
            return False
        dist = distances(tree, bb)
        return min(dist[v] for v in ba) < q

    if any(clash(a, b) for i, a in enumerate(pieces) for b in pieces[:i]):
        return None
    return tuple(pieces) + (everything,)


def test_build_toast_refuses_exactly_what_the_pair_rule_refuses():
    outcomes = {"built": 0, "refused": 0}
    for model in ("path", "caterpillar", "uniform-attachment-capped"):
        for n in (1, 2, 5, 13, 40, 97, 180, 300):
            tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
            rng = random.Random(n)
            for ell in (2, 3, 4):
                for q in range(2 * ell + 2, 2 * ell + 5):
                    for _ in range(3):
                        centers = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
                        expected = reference_toast_pieces(tree, q, centers)
                        if expected is None:
                            with pytest.raises(ValueError, match="cannot satisfy the q-gap"):
                                build_toast(tree, q, centers)
                            outcomes["refused"] += 1
                        else:
                            assert build_toast(tree, q, centers).pieces == expected
                            outcomes["built"] += 1
    assert min(outcomes.values()) > 50


# --- solve_toast ------------------------------------------------------------------


def test_solve_toast_trivial_whole_piece(matching):
    tree = path_tree(30)
    toast = Toast(10, (frozenset(range(30)),))
    labeling = solve_toast(matching, full_subset(matching), 4, tree, toast)
    assert_solved(matching, tree, labeling, full_subset(matching))


def test_solve_toast_nested_pieces(coloring3):
    tree = path_tree(40)
    toast = build_toast(tree, 8, [20])
    labeling = solve_toast(coloring3, full_subset(coloring3), 3, tree, toast)
    assert_solved(coloring3, tree, labeling, full_subset(coloring3))


def test_solve_toast_region_between_two_pieces(matching):
    # the final region touches both finished balls, forcing the reserved
    # segment + path witness branch
    tree = path_tree(45)
    toast = build_toast(tree, 10, [5, 39])
    labeling = solve_toast(matching, full_subset(matching), 4, tree, toast)
    assert_solved(matching, tree, labeling, full_subset(matching))


def test_solve_toast_rejects_small_gap(matching):
    tree = path_tree(30)
    toast = Toast(8, (frozenset(range(30)),))
    with pytest.raises(ValueError, match="below 2\\*ell\\+2"):
        solve_toast(matching, full_subset(matching), 4, tree, toast)


def test_solve_toast_rejects_unsound_toast(matching):
    tree = path_tree(30)
    toast = Toast(10, (frozenset(ball(tree, 5, 3)),))
    with pytest.raises(ValueError, match="not valid"):
        solve_toast(matching, full_subset(matching), 4, tree, toast)


def test_solve_toast_is_deterministic(coloring3):
    tree = uniform_tree(150, seed=9)
    toast = Toast(8, (frozenset(range(150)),))
    first = solve_toast(coloring3, full_subset(coloring3), 3, tree, toast)
    second = solve_toast(coloring3, full_subset(coloring3), 3, tree, toast)
    assert first.ports == second.ports


def test_solve_toast_generated_sweep(matching, coloring3):
    # constructed toasts over random trees; centers that cannot keep the
    # q-gap are skipped until twenty sound toasts have been solved
    solved = 0
    seed = 0
    while solved < 20:
        seed += 1
        rng = random.Random(seed)
        n = rng.randrange(30, 201)
        tree = uniform_tree(n, seed=seed)
        centers = [rng.randrange(n) for _ in range(2)]
        problem, ell = (matching, 4) if seed % 2 else (coloring3, 3)
        q = 2 * ell + 2
        try:
            toast = build_toast(tree, q, centers)
        except ValueError:
            continue
        assert verify_toast(tree, toast) == []
        labeling = solve_toast(problem, full_subset(problem), ell, tree, toast)
        assert_solved(problem, tree, labeling, full_subset(problem))
        solved += 1
    assert seed < 200
