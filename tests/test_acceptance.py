"""Acceptance gate: eight end-to-end criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""

import math
import random
import time
from itertools import combinations

from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
from lcltrees.oracle import UNKNOWN, brute_force_connects
from lcltrees.pathstates import (
    VERDICT_LOGN,
    VERDICT_NOT,
    build_state_graph,
    classify,
    compute_periodicity,
    connects,
    verify_periodicity,
)
from lcltrees.problems import is_valid_labeling
from lcltrees.rakecompress import check_layered_invariants, post_process
from lcltrees.solver import build_toast, solve_log, solve_toast, verify_toast
from lcltrees.trees import TreeGenSpec, gen_tree

from test_equivalence import FIXTURES, GRID_TREES, brute_table, replacement_sweep
from lcltrees.equivalence import PoledTree, concat_bipolar, h_table, pumping_decompose


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _grown(n, seed, delta=3):
    spec = TreeGenSpec(n=n, delta=delta, seed=seed, model="uniform-attachment-capped")
    return gen_tree(spec)


def test_criterion_1_three_coloring_classification():
    start = time.perf_counter()
    problem = three_coloring()
    report = classify(problem)
    elapsed = time.perf_counter() - start
    full = {tuple(problem.name_of(x) for x in c) for c in problem.vertex_configs}
    ok = (
        report.verdict == VERDICT_LOGN
        and report.subset is not None
        and set(report.subset) == full
        and report.minimal_ell == 3
        and elapsed < 1.0
    )
    _report(1, ok, f"3-coloring IN with the full config set, ell=3, {elapsed:.3f}s")


def test_criterion_2_two_coloring_definitive_not():
    start = time.perf_counter()
    problem = two_coloring()
    report = classify(problem)
    elapsed = time.perf_counter() - start
    # the refutation rests on eventual periodicity of the state graph,
    # not on any path-length cutoff: the certificate must check out
    graph = build_state_graph(problem, problem.vertex_configs)
    cert = compute_periodicity(graph)
    ok = (
        report.verdict == VERDICT_NOT
        and report.exhaustive
        and verify_periodicity(graph, cert)
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"2-coloring NOT (exhaustive), certificate index {cert.index} "
        f"period {cert.period}, {elapsed:.3f}s",
    )


def test_criterion_3_matching_classifies_and_solves():
    problem = perfect_matching()
    report = classify(problem)
    class_ok = report.verdict == VERDICT_LOGN and report.minimal_ell == 4
    subset = sorted(problem.vertex_configs)
    runs = violations = 0
    for n in (100, 1000):
        for i in range(50):
            tree = _grown(n, seed=1000 * n + i)
            labeling = solve_log(problem, subset, 4, tree)
            if not is_valid_labeling(problem, tree, labeling).ok:
                violations += 1
            runs += 1
    ok = class_ok and runs == 100 and violations == 0
    _report(3, ok, f"matching IN with ell=4; {runs} solves, {violations} violations")


def test_criterion_4_connects_agrees_with_the_oracle():
    start = time.perf_counter()
    problems = [
        three_coloring(),
        two_coloring(),
        perfect_matching(),
        random_problem(4),
        random_problem(6),
    ]
    checks = unknowns = mismatches = 0
    for problem in problems:
        cfgs = sorted(problem.vertex_configs)
        for r in range(1, len(cfgs) + 1):
            for sub in combinations(cfgs, r):
                subset = frozenset(sub)
                graph = build_state_graph(problem, subset)
                for c1 in sub:
                    for a1 in c1.distinct():
                        for c2 in sub:
                            for a2 in c2.distinct():
                                for k in range(2, 10):
                                    got = connects(graph, a1, c1, a2, c2, k)
                                    want = brute_force_connects(
                                        problem, subset, a1, c1, a2, c2, k
                                    )
                                    checks += 1
                                    if want is UNKNOWN:
                                        unknowns += 1
                                    elif got != want:
                                        mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and unknowns == 0 and elapsed < 300
    _report(
        4,
        ok,
        f"{checks} connects checks across 5 problems, {mismatches} mismatches, "
        f"{unknowns} budget misses, {elapsed:.1f}s",
    )


def test_criterion_5_decomposition_invariants_and_depth():
    rng = random.Random(5)
    bad_invariants = depth_breaks = 0
    for i in range(200):
        n = rng.randrange(2, 2**14 + 1)
        delta = rng.choice([3, 4])
        tree = _grown(n, seed=rng.randrange(10**9), delta=delta)
        ell_prime = i % 3 + 1
        decomp = post_process(tree, ell_prime)
        if check_layered_invariants(decomp):
            bad_invariants += 1
        if decomp.depth > 4 * math.log2(n) + 4:
            depth_breaks += 1
    # doubling family: growth bound realized on the mean depth over ten seeds
    growth_ok = True
    prev = None
    for k in range(7, 14):
        depths = []
        for s in range(10):
            tree = _grown(2**k, seed=s)
            decomp = post_process(tree, 2)
            depths.append(decomp.depth)
            if decomp.depth > 4 * k + 4:
                depth_breaks += 1
        mean = sum(depths) / len(depths)
        if prev is not None and mean - prev > 3:
            growth_ok = False
        prev = mean
    ok = bad_invariants == 0 and depth_breaks == 0 and growth_ok
    _report(
        5,
        ok,
        f"200 trees clean ({bad_invariants} invariant hits, {depth_breaks} depth "
        f"bound breaks); doubling-family mean depth grows <= 3 per doubling: {growth_ok}",
    )


def test_criterion_6_solver_soundness_grid():
    cases = [(three_coloring(), 3), (perfect_matching(), 4)]
    total = failures = 0
    for problem, ell in cases:
        subset = sorted(problem.vertex_configs)
        allowed = set(subset)
        for n in (10, 100, 1000, 10_000):
            for i in range(50):
                tree = _grown(n, seed=n * 7 + i)
                labeling = solve_log(problem, subset, ell, tree)
                valid = is_valid_labeling(problem, tree, labeling).ok
                subset_only = all(
                    labeling.vertex_config(v) in allowed for v in range(n)
                )
                deterministic = True
                if i < 5:
                    deterministic = solve_log(problem, subset, ell, tree) == labeling
                total += 1
                if not (valid and subset_only and deterministic):
                    failures += 1
    _report(
        6,
        failures == 0,
        f"{total} solves across n in {{10, 100, 1000, 10000}}: valid, "
        f"subset-only, deterministic; failures={failures}",
    )


def test_criterion_7_toast_solver():
    cases = [(perfect_matching(), 4), (three_coloring(), 3)]
    built = bad = 0
    seed = 0
    while built < 20:
        seed += 1
        assert seed < 400, "toast construction stalled"
        problem, ell = cases[built % 2]
        q = 2 * ell + 2
        n = 40 + (seed * 13) % 161
        tree = _grown(n, seed=seed)
        rng = random.Random(seed)
        centers = rng.sample(range(n), 2)
        try:
            toast = build_toast(tree, q, centers)
        except ValueError:
            continue
        if verify_toast(tree, toast):
            bad += 1
        subset = sorted(problem.vertex_configs)
        labeling = solve_toast(problem, subset, ell, tree, toast)
        if not is_valid_labeling(problem, tree, labeling).ok:
            bad += 1
        built += 1
    _report(7, bad == 0, f"{built} toasts (q = 2*ell+2, n <= 200) solved and validated")


def test_criterion_8_equivalence_machinery():
    table_mismatches = tables = 0
    for make_problem in FIXTURES:
        problem = make_problem()
        for _name, make_tree in GRID_TREES:
            tree = make_tree()
            eligible = [
                v for v in range(tree.n) if tree.real_degree(v) < tree.delta
            ]
            pole_choices = [(eligible[0],)]
            if len(eligible) > 1:
                pole_choices.append((eligible[0], eligible[-1]))
            for poles in pole_choices:
                poled = PoledTree(tree, poles)
                tables += 1
                if h_table(problem, poled) != brute_table(problem, poled):
                    table_mismatches += 1

    trials_true, nontrivial = replacement_sweep(100)

    pump_ok = True
    for make_problem in FIXTURES:
        problem = make_problem()
        t1 = h_table(problem, PoledTree(gen_tree(TreeGenSpec(1, 3, 0)), (0,)))
        pieces = [t1] * 8
        a, b = pumping_decompose(problem, pieces)
        head, loop, tail = pieces[:a], pieces[a:b], pieces[b:]
        want = concat_bipolar(problem, head + loop + tail)
        for i in range(4):
            if concat_bipolar(problem, head + loop * i + tail) != want:
                pump_ok = False

    ok = table_mismatches == 0 and trials_true == 100 and pump_ok
    _report(
        8,
        ok,
        f"{tables} tables equal exhaustive enumeration; replacement trials "
        f"{trials_true}/100 true ({nontrivial} size-changing); pump property "
        f"holds for i in 0..3: {pump_ok}",
    )
