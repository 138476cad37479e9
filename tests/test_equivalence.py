"""Poled-tree extendability tables: the one-pass builder against an
exhaustive labeling enumerator and a per-interface tree DP, concatenation,
replacement splicing, pumping decompositions, and the sampled class census."""

import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees import equivalence
from lcltrees.equivalence import (
    HTable,
    PoledTree,
    check_replacement,
    class_census,
    concat_bipolar,
    h_table,
    pumping_decompose,
)
from lcltrees.fixtures import (
    perfect_matching,
    random_problem,
    three_coloring,
    two_coloring,
)
from lcltrees.trees import PortTree, TreeGenSpec, gen_tree

from conftest import path_tree, star_tree
from reference import RefTreeBuilder

FIXTURES = [three_coloring, two_coloring, perfect_matching]


def single_vertex(delta=3):
    return PortTree(delta, [[None] * delta])


def random_tree(n, seed):
    spec = TreeGenSpec(n=n, delta=3, seed=seed, model="uniform-attachment-capped")
    return gen_tree(spec)


# --- independent reference: exhaustive enumeration --------------------------------


def all_arrangements(problem):
    """Every per-port label tuple whose multiset is an allowed configuration."""
    arrs = set()
    for config in problem.vertex_configs:
        arrs.update(permutations(config.labels))
    return sorted(arrs)


def brute_table(problem, poled):
    """Table built by enumerating whole-tree labelings, no interface DP."""
    tree = poled.tree
    fixed_at = {}
    for v, p, lab in poled.fixed:
        fixed_at.setdefault(v, []).append((p, lab))
    base = all_arrangements(problem)
    choices = [
        [
            arr
            for arr in base
            if all(arr[p] == lab for p, lab in fixed_at.get(v, ()))
        ]
        for v in range(tree.n)
    ]
    # BFS order so each vertex after the first meets an assigned neighbor
    order = [0]
    parent = {0: None}
    for v in order:
        for u in tree.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    realized = set()
    assign = {}

    def walk(i):
        if i == len(order):
            realized.add(
                tuple(
                    tuple(
                        sorted(
                            assign[v][p]
                            for p in range(tree.delta)
                            if tree.ports[v][p] is None
                        )
                    )
                    for v in poled.poles
                )
            )
            return
        v = order[i]
        for arr in choices[v]:
            ok = True
            for p in range(tree.delta):
                hit = tree.ports[v][p]
                if hit is None:
                    continue
                w, q = hit
                if w in assign and not problem.edge_ok(arr[p], assign[w][q]):
                    ok = False
                    break
            if ok:
                assign[v] = arr
                walk(i + 1)
                del assign[v]

    walk(0)
    shape = HTable(problem.num_labels, poled.arities(), 0)
    bits = 0
    for key in realized:
        bits |= 1 << shape.index_of(key)
    return HTable(problem.num_labels, poled.arities(), bits)


# --- reference: one tree DP per interface tuple -----------------------------------


def reference_table(problem, poled):
    """Table built by a full-tree DP for every interface tuple in turn."""
    shape = HTable(problem.num_labels, poled.arities(), 0)
    bits = 0
    for idx, interfaces in enumerate(shape.interface_space()):
        if reference_extendable(problem, poled, interfaces):
            bits |= 1 << idx
    return HTable(problem.num_labels, poled.arities(), bits)


def reference_extendable(problem, poled, interfaces):
    """One DP pass rooted at the first pole: can the whole tree be labeled?"""
    tree = poled.tree
    root = poled.poles[0]
    pole_of = {v: i for i, v in enumerate(poled.poles)}
    fixed_at = {}
    for v, p, lab in poled.fixed:
        fixed_at.setdefault(v, []).append((p, lab))
    order = [root]
    parent = {root: None}
    for v in order:
        for u in tree.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    children = {v: [u for u in order if parent[u] == v] for v in order}

    def contains(big, small):
        return all(big[k] >= n for k, n in small.items())

    def assign(pool, kid_ok, forced, j, want, need):
        if j == len(kid_ok):
            leftover = +pool
            return leftover == want if want is not None else contains(leftover, need)
        choices = [forced[j]] if forced[j] is not None else sorted(kid_ok[j])
        for m in choices:
            if pool[m] > 0 and m in kid_ok[j]:
                pool[m] -= 1
                found = assign(pool, kid_ok, forced, j + 1, want, need)
                pool[m] += 1
                if found:
                    return True
        return False

    feasible_up = {}
    for v in reversed(order):
        kids = children[v]
        kid_ok = [
            {m for m in range(problem.num_labels)
             if any(problem.edge_ok(m, b) for b in feasible_up[c])}
            for c in kids
        ]
        forced_kid = [None] * len(kids)
        forced_parent = None
        fixed_virtual = []
        for p, lab in fixed_at.get(v, ()):
            target = tree.ports[v][p]
            if target is None:
                fixed_virtual.append(lab)
            elif target[0] == parent[v]:
                forced_parent = lab
            else:
                forced_kid[kids.index(target[0])] = lab
        want = Counter(interfaces[pole_of[v]]) if v in pole_of else None
        need = Counter(fixed_virtual)
        if want is not None and not contains(want, need):
            if v == root:
                return False
            feasible_up[v] = set()
            continue

        def fits(labels, up):
            pool = Counter(labels)
            if up is not None:
                if pool[up] == 0:
                    return False
                pool[up] -= 1
            return assign(pool, kid_ok, forced_kid, 0, want, need)

        if v == root:
            return any(fits(c.labels, None) for c in problem.vertex_configs)
        feasible_up[v] = {
            up
            for up in range(problem.num_labels)
            if forced_parent in (None, up)
            and any(fits(c.labels, up) for c in problem.vertex_configs)
        }
    raise AssertionError("the root ends the walk")


GRID_TREES = [
    ("single", lambda: single_vertex()),
    ("path2", lambda: path_tree(2)),
    ("path3", lambda: path_tree(3)),
    ("path5", lambda: path_tree(5)),
    ("star4", lambda: star_tree(4)),
    ("random8", lambda: random_tree(8, seed=3)),
    ("random10", lambda: random_tree(10, seed=5)),
]


@pytest.mark.parametrize("make_problem", FIXTURES)
@pytest.mark.parametrize(
    "make_tree", [m for _, m in GRID_TREES], ids=[n for n, _ in GRID_TREES]
)
def test_table_matches_exhaustive_enumeration(make_problem, make_tree):
    problem = make_problem()
    tree = make_tree()
    eligible = [v for v in range(tree.n) if tree.real_degree(v) < tree.delta]
    pole_choices = [(eligible[0],)]
    if len(eligible) > 1:
        pole_choices.append((eligible[0], eligible[-1]))
    for poles in pole_choices:
        poled = PoledTree(tree, poles)
        assert h_table(problem, poled) == brute_table(problem, poled)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_table_matches_enumeration_on_random_trees(seed):
    rng = random.Random(seed)
    problem = FIXTURES[seed % 3]()
    tree = random_tree(rng.randrange(1, 7), seed=seed)
    eligible = [v for v in range(tree.n) if tree.real_degree(v) < 3]
    if len(eligible) > 1 and seed % 2:
        poles = (eligible[0], eligible[-1])
    else:
        poles = (eligible[0],)
    poled = PoledTree(tree, poles)
    assert h_table(problem, poled) == brute_table(problem, poled)


def random_poled_tree(rng):
    """1-24 vertices, 1-3 poles anywhere eligible, up to 3 fixed ports."""
    n = rng.randint(1, 24)
    tree = random_tree(n, seed=rng.randrange(10**6))
    eligible = [v for v in range(n) if tree.real_degree(v) < tree.delta]
    poles = tuple(rng.sample(eligible, rng.randint(1, min(3, len(eligible)))))
    ports = rng.sample([(v, p) for v in range(n) for p in range(tree.delta)], 3)
    fixed = tuple((v, p, rng.randrange(3)) for v, p in ports[: rng.randint(0, 3)])
    return PoledTree(tree, poles, fixed)


def test_one_pass_table_matches_the_per_interface_dp():
    rng = random.Random(20261018)
    seen = Counter()
    for seed in range(60):
        problem = random_problem(seed, num_labels=3, max_vertex_configs=6)
        for _ in range(3):
            poled = random_poled_tree(rng)
            table = h_table(problem, poled)
            assert table == reference_table(problem, poled), (seed, poled)
            if poled.tree.n <= 4:  # enumeration grows too fast beyond
                assert table == brute_table(problem, poled), (seed, poled)
            tree = poled.tree
            seen["interior pole"] += any(tree.real_degree(v) >= 2 for v in poled.poles)
            seen["poles=3"] += len(poled.poles) == 3
            seen["fixed real"] += any(tree.ports[v][p] for v, p, _ in poled.fixed)
            seen["fixed virtual at a pole"] += any(
                tree.ports[v][p] is None and v in poled.poles for v, p, _ in poled.fixed
            )
            seen["some yes, some no"] += 0 < table.bits < (1 << len(table.interface_space())) - 1
    # the sweep must reach every case it is meant to cover
    assert min(seen.values()) >= 5, seen
    assert len(seen) == 5, seen


@pytest.mark.parametrize("at", [0, 1], ids=["root-pole", "other-pole"])
def test_pole_interface_contradicting_a_fixed_virtual_label(coloring3, at):
    tree = path_tree(3)
    poles = (0, 2)
    pole = poles[at]
    spare = [p for p in range(3) if tree.ports[pole][p] is None]
    poled = PoledTree(tree, poles, fixed=((pole, spare[0], 1),))
    table = h_table(coloring3, poled)
    assert table == reference_table(coloring3, poled)
    assert table == brute_table(coloring3, poled)
    # a colouring vertex is monochrome, so the pinned pole shows (1, 1) only;
    # the middle vertex avoids 1, and the other pole takes any colour
    want = set()
    for c in range(3):
        pair = [(c, c), (c, c)]
        pair[at] = (1, 1)
        want.add(tuple(pair))
    assert set(table.yes_interfaces()) == want


# --- frozen small tables -----------------------------------------------------------


def test_single_vertex_table_lists_the_configurations(coloring3, coloring2, matching):
    t3 = h_table(coloring3, PoledTree(single_vertex(), (0,)))
    assert t3.arities == (3,)
    assert t3.yes_interfaces() == (((0, 0, 0),), ((1, 1, 1),), ((2, 2, 2),))
    t2 = h_table(coloring2, PoledTree(single_vertex(), (0,)))
    assert t2.yes_interfaces() == (((0, 0, 0),), ((1, 1, 1),))
    tm = h_table(matching, PoledTree(single_vertex(), (0,)))
    assert tm.yes_interfaces() == (((0, 1, 1),),)


def test_two_coloring_edge_wants_opposite_monochromatic_poles(coloring2):
    table = h_table(coloring2, PoledTree(path_tree(2), (0, 1)))
    assert table.arities == (2, 2)
    assert set(table.yes_interfaces()) == {
        ((0, 0), (1, 1)),
        ((1, 1), (0, 0)),
    }


def test_matching_leaf_pole_needs_an_unmatched_slot(matching):
    table = h_table(matching, PoledTree(path_tree(2), (0,)))
    assert table.yes_interfaces() == (((0, 1),), ((1, 1),))


def test_fixed_virtual_label_narrows_the_table(coloring3):
    tree = path_tree(3)
    spare = next(p for p in range(3) if tree.ports[1][p] is None)
    poled = PoledTree(tree, (0, 2), fixed=((1, spare, 0),))
    table = h_table(coloring3, poled)
    assert table == brute_table(coloring3, poled)
    # the middle vertex is pinned to color 0, so both poles avoid it
    assert set(table.yes_interfaces()) == {
        ((1, 1), (1, 1)),
        ((1, 1), (2, 2)),
        ((2, 2), (1, 1)),
        ((2, 2), (2, 2)),
    }


def test_fixed_real_port_pins_a_half_edge(matching):
    tree = path_tree(3)
    real = next(p for p in range(3) if tree.ports[1][p] is not None)
    poled = PoledTree(tree, (0, 2), fixed=((1, real, 0),))
    assert h_table(matching, poled) == brute_table(matching, poled)


# --- table mechanics and validation ------------------------------------------------


def test_interface_indexing_round_trips(coloring3):
    table = h_table(coloring3, PoledTree(path_tree(2), (0, 1)))
    space = table.interface_space()
    assert len(space) == 36
    for i, interfaces in enumerate(space):
        assert table.index_of(interfaces) == i
    assert table.lookup((1, 0), (0, 1)) == table.lookup((0, 1), (0, 1))
    with pytest.raises(ValueError, match="wrong number"):
        table.index_of(((0, 0),))
    with pytest.raises(ValueError, match="size"):
        table.lookup((0, 0, 0), (1, 1))


def test_interface_labels_outside_the_problem_raise_value_error(coloring3):
    rooted = h_table(coloring3, PoledTree(path_tree(1), (0,)))
    two_poles = h_table(coloring3, PoledTree(path_tree(2), (0, 1)))
    for bad in ((5, 0, 0), (-1, 1, 2)):
        with pytest.raises(ValueError, match="outside 0..2"):
            rooted.lookup(bad)
    with pytest.raises(ValueError, match="outside 0..2"):
        two_poles.lookup((0, 1), (3, 1))


def test_tables_with_different_pole_shapes_never_compare_equal(coloring3):
    rooted = h_table(coloring3, PoledTree(single_vertex(), (0,)))
    leaf = h_table(coloring3, PoledTree(path_tree(2), (0,)))
    assert rooted != leaf
    assert rooted == h_table(coloring3, PoledTree(single_vertex(), (0,)))


def test_poled_tree_validates_poles_and_fixed_ports():
    tree = star_tree(4)
    with pytest.raises(ValueError, match="at least one pole"):
        PoledTree(tree, ())
    with pytest.raises(ValueError, match="distinct"):
        PoledTree(tree, (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        PoledTree(tree, (9,))
    with pytest.raises(ValueError, match="no residual ports"):
        PoledTree(tree, (0,))
    with pytest.raises(ValueError, match="bad position"):
        PoledTree(tree, (1,), fixed=((1, 7, 0),))
    with pytest.raises(ValueError, match="fixed twice"):
        PoledTree(tree, (1,), fixed=((2, 1, 0), (2, 1, 1)))


def test_table_builder_validates_inputs(coloring3):
    wide = path_tree(2, delta=4)
    with pytest.raises(ValueError, match="delta"):
        h_table(coloring3, PoledTree(wide, (0,)))
    pinned = PoledTree(path_tree(2), (0,), fixed=((1, 2, 9),))
    with pytest.raises(ValueError, match="label id"):
        h_table(coloring3, pinned)


# --- concatenation ------------------------------------------------------------------


@pytest.mark.parametrize("make_problem", FIXTURES)
def test_concat_matches_the_joined_path_table(make_problem):
    problem = make_problem()
    t1 = h_table(problem, PoledTree(single_vertex(), (0,)))
    for k in (2, 3, 4):
        joined = PoledTree(path_tree(k), (0, k - 1))
        assert concat_bipolar(problem, [t1] * k) == brute_table(problem, joined)


@pytest.mark.parametrize("make_problem", FIXTURES)
def test_concat_handles_interior_pieces_with_children(make_problem):
    problem = make_problem()
    t1 = h_table(problem, PoledTree(single_vertex(), (0,)))
    t2 = h_table(problem, PoledTree(path_tree(2), (0,)))
    # single -- path2's root -- single builds a star with poles at two leaves
    got = concat_bipolar(problem, [t1, t2, t1])
    want = brute_table(problem, PoledTree(star_tree(4), (1, 3)))
    assert got == want


def test_concat_of_one_piece_is_the_rooted_table(coloring3):
    t1 = h_table(coloring3, PoledTree(single_vertex(), (0,)))
    assert concat_bipolar(coloring3, [t1]) == t1


def test_concat_rejects_unusable_members(coloring3, coloring2):
    t1 = h_table(coloring3, PoledTree(single_vertex(), (0,)))
    with pytest.raises(ValueError, match="at least one"):
        concat_bipolar(coloring3, [])
    narrow = h_table(coloring3, PoledTree(path_tree(3), (1,)))
    with pytest.raises(ValueError, match="cannot host"):
        concat_bipolar(coloring3, [narrow, t1])
    bipolar = h_table(coloring3, PoledTree(path_tree(2), (0, 1)))
    with pytest.raises(ValueError, match="single-pole"):
        concat_bipolar(coloring3, [bipolar, t1])
    other = h_table(coloring2, PoledTree(single_vertex(), (0,)))
    with pytest.raises(ValueError, match="label count"):
        concat_bipolar(coloring3, [t1, other])


# --- replacement --------------------------------------------------------------------


def induced_copy(tree, u):
    """Standalone tree on the vertex subset u, original ports kept."""
    u = sorted(u)
    idx = {v: i for i, v in enumerate(u)}
    builder = RefTreeBuilder(len(u), tree.delta)
    for a, pa, b, pb in tree.edges():
        if a in idx and b in idx:
            builder.add_edge_at(idx[a], pa, idx[b], pb)
    return PortTree(tree.delta, builder.build().ports), idx


def test_replacing_a_leaf_with_a_leaf_keeps_the_table(coloring3):
    host = PoledTree(path_tree(5), (0,))
    repl = PoledTree(single_vertex(), (0,))
    assert check_replacement(coloring3, host, {4}, (4,), repl) is True


def test_replacement_remaps_host_poles_inside_the_cut(coloring3):
    host = PoledTree(path_tree(3), (0,))
    repl = PoledTree(path_tree(2), (0, 1))
    assert check_replacement(coloring3, host, {0, 1}, (0, 1), repl) is True


@pytest.mark.parametrize("make_problem", FIXTURES)
def test_equal_class_subtree_of_another_size_swaps_in(make_problem):
    problem = make_problem()
    t3 = h_table(problem, PoledTree(path_tree(3), (0,)))
    t5 = h_table(problem, PoledTree(path_tree(5), (0,)))
    assert t3 == t5
    host = PoledTree(path_tree(9), (0,))
    repl = PoledTree(path_tree(5), (0,))
    assert check_replacement(problem, host, {6, 7, 8}, (6,), repl) is True


def test_unequal_class_replacement_is_caught(coloring3):
    host = PoledTree(path_tree(2), (0,))
    pinned = PoledTree(single_vertex(), (0,), fixed=((0, 0, 0),))
    plain = PoledTree(single_vertex(), (0,))
    assert h_table(coloring3, pinned) != h_table(coloring3, plain)
    assert check_replacement(coloring3, host, {1}, (1,), pinned) is False


def test_replacement_cut_conditions_are_validated(coloring3):
    host = PoledTree(path_tree(5), (0,))
    leaf = PoledTree(single_vertex(), (0,))
    pair = PoledTree(path_tree(2), (0, 1))
    with pytest.raises(ValueError, match="nonempty"):
        check_replacement(coloring3, host, set(), (), leaf)
    with pytest.raises(ValueError, match="inside u"):
        check_replacement(coloring3, host, {4}, (3,), leaf)
    with pytest.raises(ValueError, match="delta differs"):
        wide = PoledTree(path_tree(2, delta=4), (0,))
        check_replacement(coloring3, host, {4}, (4,), wide)
    with pytest.raises(ValueError, match="pole count"):
        check_replacement(coloring3, host, {4}, (4,), pair)
    with pytest.raises(ValueError, match="connected"):
        check_replacement(coloring3, host, {0, 2}, (0, 2), pair)
    with pytest.raises(ValueError, match="boundary vertex 3"):
        check_replacement(coloring3, host, {3, 4}, (4,), leaf)
    with pytest.raises(ValueError, match="host pole 0"):
        repl = PoledTree(path_tree(2), (0,))
        check_replacement(coloring3, host, {0, 1}, (1,), repl)
    with pytest.raises(ValueError, match="degree mismatch at position 0"):
        repl = PoledTree(path_tree(2), (0,))
        check_replacement(coloring3, host, {4}, (4,), repl)


def replacement_sweep(trials=100, seed=20260815):
    """Seeded equal-class replacement trials; returns (true_count, nontrivial)."""
    rng = random.Random(seed)
    problems = [make() for make in FIXTURES]
    passes = nontrivial = 0
    for trial in range(trials):
        problem = problems[trial % 3]
        n = rng.randrange(4, 10)
        tree = random_tree(n, seed=rng.randrange(10**6))
        eligible = [v for v in range(n) if tree.real_degree(v) < 3]
        host = PoledTree(tree, (rng.choice(eligible),))
        # grow a proper connected subset to carve out
        start = rng.randrange(n)
        u = {start}
        goal = rng.randrange(1, n)
        frontier = [start]
        while frontier and len(u) < goal:
            v = frontier.pop(rng.randrange(len(frontier)))
            for w in tree.neighbors(v):
                if w not in u and len(u) < goal:
                    u.add(w)
                    frontier.append(w)
        boundary = {v for v in u for w in tree.neighbors(v) if w not in u}
        s_prime = tuple(sorted(boundary | ({host.poles[0]} & u)))
        induced, idx = induced_copy(tree, u)
        identity = PoledTree(induced, tuple(idx[v] for v in s_prime))
        target = h_table(problem, identity)
        degrees = [induced.real_degree(p) for p in identity.poles]
        replacement = identity
        for _attempt in range(8):
            m = rng.randrange(1, 9)
            cand_tree = random_tree(m, seed=rng.randrange(10**6))
            used = set()
            poles = []
            for d in degrees:
                pick = next(
                    (
                        v
                        for v in range(m)
                        if v not in used and cand_tree.real_degree(v) == d
                    ),
                    None,
                )
                if pick is None:
                    break
                used.add(pick)
                poles.append(pick)
            else:
                cand = PoledTree(cand_tree, tuple(poles))
                if h_table(problem, cand) == target:
                    if cand_tree.n != induced.n:
                        nontrivial += 1
                    replacement = cand
                    break
        if check_replacement(problem, host, u, s_prime, replacement) is True:
            passes += 1
    return passes, nontrivial


def test_random_equal_class_replacements_hold():
    passes, nontrivial = replacement_sweep(100)
    assert passes == 100
    # the sweep must exercise genuinely different replacement shapes
    assert nontrivial >= 10


# --- pumping ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_problem,expected",
    [(three_coloring, (3, 4)), (two_coloring, (2, 4)), (perfect_matching, (4, 5))],
    ids=["coloring3", "coloring2", "matching"],
)
def test_pumping_finds_the_first_repeated_prefix(make_problem, expected):
    problem = make_problem()
    t1 = h_table(problem, PoledTree(single_vertex(), (0,)))
    assert pumping_decompose(problem, [t1] * 8) == expected


def test_single_piece_lists_never_pump(coloring3):
    t1 = h_table(coloring3, PoledTree(single_vertex(), (0,)))
    assert pumping_decompose(coloring3, [t1]) is None


@pytest.mark.parametrize("make_problem", FIXTURES)
def test_pumped_repetitions_keep_the_table(make_problem):
    problem = make_problem()
    t1 = h_table(problem, PoledTree(single_vertex(), (0,)))
    tables = [t1] * 8
    a, b = pumping_decompose(problem, tables)
    head, loop, tail = tables[:a], tables[a:b], tables[b:]
    want = concat_bipolar(problem, head + loop + tail)
    for i in range(4):
        assert concat_bipolar(problem, head + loop * i + tail) == want


def test_pumping_works_on_mixed_piece_lists(matching):
    t1 = h_table(matching, PoledTree(single_vertex(), (0,)))
    t2 = h_table(matching, PoledTree(path_tree(2), (0,)))
    tables = [t1, t2, t1, t2, t1, t2, t1, t2]
    found = pumping_decompose(matching, tables)
    assert found is not None
    a, b = found
    assert 1 <= a < b <= len(tables)
    head, loop, tail = tables[:a], tables[a:b], tables[b:]
    want = concat_bipolar(matching, tables)
    for i in range(4):
        assert concat_bipolar(matching, head + loop * i + tail) == want


# --- census -------------------------------------------------------------------------


@pytest.mark.parametrize("max_size", [12, 20])
@pytest.mark.parametrize("make_problem", FIXTURES)
def test_census_saturates_on_three_rooted_classes(make_problem, max_size):
    report = class_census(make_problem(), max_size=max_size, seed=0, samples_per_size=5)
    assert report.class1_count == 3
    assert report.class2_count == 4
    assert report.ell_pump_bound == 5
    assert report.cumulative_class1[:3] == (1, 2, 3)
    assert set(report.cumulative_class1[3:]) == {3}
    text = report.describe()
    assert "rooted classes: 3" in text
    assert "empirical ell_pump bound: 5" in text


@pytest.fixture
def computed_steps(monkeypatch):
    """The key of every vertex step _VertexStep computes, in order."""
    computed = []
    compute = equivalence._VertexStep._compute

    def counting_compute(self, *key):
        computed.append(key)
        return compute(self, *key)

    monkeypatch.setattr(equivalence._VertexStep, "_compute", counting_compute)
    return computed


@pytest.mark.parametrize("make_problem", FIXTURES + [lambda: random_problem(4)])
def test_census_computes_each_vertex_step_once(make_problem, computed_steps):
    """Every table of a census shares the problem's _VertexStep, whose memo
    depends only on the problem: no step is computed twice."""
    report = class_census(make_problem(), max_size=7, seed=1, samples_per_size=4)
    assert report.class1_count > 0
    assert set(Counter(computed_steps).values()) == {1}


def test_standalone_tables_share_the_problems_vertex_step(coloring3, computed_steps):
    # the second path repeats the first's far end, so its table meets steps
    # the first one computed
    for n in (6, 9):
        h_table(coloring3, PoledTree(path_tree(n), (0,)))
    assert computed_steps
    assert set(Counter(computed_steps).values()) == {1}


def test_census_validates_sizes(coloring3):
    with pytest.raises(ValueError, match="positive"):
        class_census(coloring3, 0)
