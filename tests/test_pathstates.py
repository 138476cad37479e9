import json
import os
import subprocess
import sys
from itertools import combinations, islice, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcltrees.pathstates as pathstates
from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
from lcltrees.oracle import UNKNOWN, brute_force_connects
from lcltrees.pathstates import (
    VERDICT_INCONCLUSIVE,
    VERDICT_LOGN,
    VERDICT_NOT,
    ClassificationReport,
    PeriodicityCertificate,
    build_state_graph,
    classify,
    compute_periodicity,
    connects,
    extend_path,
    find_ell_full_set,
    is_ell_full,
    minimal_ell,
    parse_report,
    render_report,
    serialize_report,
    verify_periodicity,
)
from lcltrees.problems import (
    EdgeConfig,
    HalfEdgeLabeling,
    Label,
    LclProblem,
    VertexConfig,
    is_valid_labeling,
)

from conftest import PADDINGS, SMALL_NOT_PADDING, padded_two_coloring, path_tree
from reference import RefStateGraph

AAA = VertexConfig.of([0, 0, 0])
BBB = VertexConfig.of([1, 1, 1])
CCC = VertexConfig.of([2, 2, 2])
MUU = VertexConfig.of([0, 1, 1])


def all_nonempty_subsets(problem):
    """In find_ell_full_set's search order: largest first, then lexicographic."""
    cfgs = problem.sorted_configs()
    for r in range(len(cfgs), 0, -1):
        yield from combinations(cfgs, r)


def test_state_graph_is_sorted(coloring3):
    g = build_state_graph(coloring3, coloring3.vertex_configs)
    assert [s.config for s in g.states] == [AAA, BBB, CCC]
    assert [s.out_label for s in g.states] == [0, 1, 2]
    assert g.labels == (0, 1, 2)
    # proper coloring steps exactly between distinct colors
    ref = RefStateGraph(coloring3, coloring3.vertex_configs)
    assert np.array_equal(ref.step, ~np.eye(3, dtype=bool))
    _assert_connects_like_reference(g, ref)


def test_state_graph_rejects_foreign_config(coloring3):
    with pytest.raises(ValueError, match="not in the problem"):
        build_state_graph(coloring3, [MUU])


def test_periodicity_three_coloring(coloring3):
    g = build_state_graph(coloring3, coloring3.vertex_configs)
    cert = compute_periodicity(g)
    assert cert == PeriodicityCertificate(index=2, period=1)
    assert verify_periodicity(g, cert)


def test_periodicity_two_coloring(coloring2):
    g = build_state_graph(coloring2, coloring2.vertex_configs)
    cert = compute_periodicity(g)
    assert cert == PeriodicityCertificate(index=0, period=2)
    assert verify_periodicity(g, cert)


def test_periodicity_matching(matching):
    g = build_state_graph(matching, [MUU])
    ref = RefStateGraph(matching, [MUU])
    assert ref.step.tolist() == [[False, True], [True, True]]
    _assert_connects_like_reference(g, ref)
    cert = compute_periodicity(g)
    assert cert == PeriodicityCertificate(index=2, period=1)
    assert verify_periodicity(g, cert)


def test_periodicity_empty_subset(coloring3):
    g = build_state_graph(coloring3, [])
    assert compute_periodicity(g) == PeriodicityCertificate(index=0, period=1)


def test_verify_periodicity_rejects_wrong_certificate(coloring2):
    g = build_state_graph(coloring2, coloring2.vertex_configs)
    assert not verify_periodicity(g, PeriodicityCertificate(index=0, period=4))
    assert not verify_periodicity(g, PeriodicityCertificate(index=1, period=2))


def test_verify_periodicity_rejects_impossible_certificates(coloring3):
    g = build_state_graph(coloring3, coloring3.vertex_configs)
    for index, period in ((-1, 1), (-3, 4), (2, 0), (0, -1)):
        assert not verify_periodicity(g, PeriodicityCertificate(index, period))
    # only plain ints: (2, 1) holds, so each of these differs from it in type alone
    for index, period in ((1.5, 1), ("2", 1), (2, True), (2.0, 1), (None, 1), (2, "1")):
        assert not verify_periodicity(g, PeriodicityCertificate(index, period))
    # a report read back from JSON carries whatever certificate it holds
    text = serialize_report(classify(coloring3)).replace('"index": 2', '"index": -1')
    cert = parse_report(text).certificate
    assert cert == PeriodicityCertificate(-1, 1)
    assert not verify_periodicity(g, cert)


def test_verify_periodicity_reads_the_definitions_not_the_masks(coloring3):
    # moves in which every label's takers are the whole subset make the
    # step all-true, so the masks certify (1, 1) where the graph has (2, 1)
    g = build_state_graph(coloring3, coloring3.vertex_configs)
    g.moves = tuple((senders, g.mask) for senders, _ in g.moves)
    assert g.certificate() == PeriodicityCertificate(1, 1)
    assert not verify_periodicity(g, g.certificate())
    assert verify_periodicity(g, PeriodicityCertificate(2, 1))


def test_connects_validates_inputs(coloring3):
    g = build_state_graph(coloring3, [AAA, BBB])
    with pytest.raises(ValueError, match="not in subset"):
        connects(g, 2, CCC, 0, AAA, 4)
    with pytest.raises(ValueError, match="label not in config"):
        connects(g, 1, AAA, 0, AAA, 4)
    with pytest.raises(ValueError, match="at least two"):
        connects(g, 0, AAA, 0, AAA, 1)


def test_reach_reduces_through_the_certificate(matching):
    g = build_state_graph(matching, [MUU])
    assert g.certificate() == PeriodicityCertificate(2, 1)
    # only (MUU, U) takes a facing M in, and an in-label U leaves room for
    # either out-label, so both states are reachable from one step on
    first = [g.reach(0, m) for m in range(4)]
    assert first == [0b10, 0b11, 0b11, 0b11]
    assert g.reach(0, 10**9) == first[2]
    with pytest.raises(ValueError, match="nonnegative"):
        g.reach(0, -1)


def test_connects_matches_oracle_on_all_fixture_grids(
    coloring3, coloring2, matching, random4, random6
):
    # dual route: matrix-power reachability vs definitional brute force
    for problem in (coloring3, coloring2, matching, random4, random6):
        for subset in all_nonempty_subsets(problem):
            g = build_state_graph(problem, subset)
            sub = frozenset(subset)
            for k in range(2, 10):
                for s1 in g.states:
                    for s2 in g.states:
                        fast = connects(g, s1.out_label, s1.config, s2.out_label, s2.config, k)
                        slow = brute_force_connects(
                            problem, sub, s1.out_label, s1.config, s2.out_label, s2.config, k
                        )
                        assert slow is not UNKNOWN
                        assert fast == slow, (subset, s1, s2, k)


def test_is_ell_full_frozen_values(coloring3, coloring2, matching):
    full3 = sorted(coloring3.vertex_configs)
    assert not is_ell_full(coloring3, full3, 2)
    assert is_ell_full(coloring3, full3, 3)
    assert is_ell_full(coloring3, full3, 7)
    assert not is_ell_full(coloring3, [AAA, BBB], 3)
    for ell in range(2, 13):
        assert not is_ell_full(coloring2, coloring2.vertex_configs, ell)
    assert not is_ell_full(matching, [MUU], 3)
    assert is_ell_full(matching, [MUU], 4)


def test_is_ell_full_rejects_bad_ell(coloring3):
    with pytest.raises(ValueError, match="ell"):
        is_ell_full(coloring3, [AAA], 1)


def test_empty_subset_is_vacuously_full(coloring3):
    assert is_ell_full(coloring3, [], 2)


def test_minimal_ell_frozen_values(coloring3, coloring2, matching):
    assert minimal_ell(coloring3, coloring3.vertex_configs) == 3
    assert minimal_ell(coloring3, [AAA]) is None
    assert minimal_ell(coloring2, coloring2.vertex_configs) is None
    assert minimal_ell(matching, [MUU]) == 4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=1, max_value=8), data=st.data())
def test_ell_fullness_is_monotone_in_ell(seed, data):
    problem = random_problem(seed)
    cfgs = problem.sorted_configs()
    subset = data.draw(
        st.lists(st.sampled_from(cfgs), min_size=1, max_size=len(cfgs), unique=True)
    )
    ell = data.draw(st.integers(min_value=2, max_value=8))
    if is_ell_full(problem, subset, ell):
        assert is_ell_full(problem, subset, ell + 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=1, max_value=8), data=st.data())
def test_minimal_ell_is_tight(seed, data):
    problem = random_problem(seed)
    cfgs = problem.sorted_configs()
    subset = data.draw(
        st.lists(st.sampled_from(cfgs), min_size=1, max_size=len(cfgs), unique=True)
    )
    ell = minimal_ell(problem, subset)
    if ell is not None:
        assert is_ell_full(problem, subset, ell)
        if ell > 2:
            assert not is_ell_full(problem, subset, ell - 1)


def test_find_ell_full_set_three_coloring(coloring3):
    result = find_ell_full_set(coloring3)
    assert result.subset == tuple(sorted(coloring3.vertex_configs))
    assert result.ell == 3
    assert result.exhaustive
    assert result.subsets_examined == 1  # the full set is tried first


def test_find_ell_full_set_two_coloring_definitive_no(coloring2):
    result = find_ell_full_set(coloring2)
    assert result.subset is None
    assert result.exhaustive
    assert result.subsets_examined == 3  # all nonempty subsets


def test_find_ell_full_set_matching(matching):
    result = find_ell_full_set(matching)
    assert result.subset == (MUU,)
    assert result.ell == 4
    assert result.exhaustive


def test_find_ell_full_set_budget_exhaustion(coloring2):
    result = find_ell_full_set(coloring2, max_subsets=2)
    assert result.subset is None
    assert not result.exhaustive
    assert result.subsets_examined == 2
    with pytest.raises(ValueError, match="budget"):
        find_ell_full_set(coloring2, max_subsets=0)


def _witness_to_labeling(problem, witness, a1, c1, a2, c2, k):
    """Lay the witness onto the k-path tree; endpoint ports face inward first."""
    rows = [(a1,) + c1.minus(a1)]
    for config, ports in witness:
        rows.append(ports)
    rows.append((a2,) + c2.minus(a2))
    assert len(rows) == k
    return HalfEdgeLabeling(tuple(rows))


def test_extend_path_witnesses_validate_on_path_trees(matching, coloring3):
    for problem, subset in ((matching, [MUU]), (coloring3, sorted(coloring3.vertex_configs))):
        g = build_state_graph(problem, subset)
        for k in range(2, 9):
            for s1 in g.states:
                for s2 in g.states:
                    a1, c1 = s1.out_label, s1.config
                    a2, c2 = s2.out_label, s2.config
                    witness = extend_path(problem, subset, a1, c1, a2, c2, k)
                    should = connects(g, a1, c1, a2, c2, k)
                    assert (witness is not None) == should
                    if witness is None:
                        continue
                    assert len(witness) == k - 2
                    for config, ports in witness:
                        assert config in subset
                        assert VertexConfig.of(ports) == config
                    if k >= 2:
                        lab = _witness_to_labeling(problem, witness, a1, c1, a2, c2, k)
                        report = is_valid_labeling(problem, path_tree(k), lab)
                        assert report.ok, report.describe(problem)


def test_extend_path_is_deterministic(matching):
    first = extend_path(matching, [MUU], 0, MUU, 0, MUU, 8)
    second = extend_path(matching, [MUU], 0, MUU, 0, MUU, 8)
    assert first == second


def test_extend_path_k2_edge_cases(matching):
    assert extend_path(matching, [MUU], 0, MUU, 0, MUU, 2) == []
    assert extend_path(matching, [MUU], 0, MUU, 1, MUU, 2) is None


_CORRUPT_MOVES = (
    "import lcltrees.pathstates as pathstates\n"
    "from lcltrees.fixtures import perfect_matching\n"
    "from lcltrees.problems import InternalError, VertexConfig\n"
    "build = pathstates.build_state_graph\n"
    "def corrupted(problem, subset):\n"
    "    g = build(problem, subset)\n"
    "    g.moves = tuple((senders, g.mask) for senders, _ in g.moves)\n"
    "    return g\n"
    "pathstates.build_state_graph = corrupted\n"
    "muu = VertexConfig.of([0, 1, 1])\n"
    "try:\n"
    "    pathstates.extend_path(perfect_matching(), [muu], 0, muu, 0, muu, 5)\n"
    "except InternalError as e:\n"
    "    print(e)\n"
)


def test_extend_path_raises_when_backtrack_breaks_the_step_relation():
    # moves in which every state takes every label in make the step all-true,
    # so the backtrack puts (MUU, M) after (MUU, M), which no in-label
    # admits; that must raise even under python -O, which strips asserts
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_MOVES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "inadmissible" in proc.stdout


def test_classify_builds_a_state_graph_only_inside_the_fixpoint(monkeypatch):
    built = []
    build = pathstates.build_state_graph

    def counting(problem, subset):
        built.append(tuple(subset))
        return build(problem, subset)

    monkeypatch.setattr(pathstates, "build_state_graph", counting)
    problems = [three_coloring(), two_coloring(), perfect_matching()]
    problems += [random_problem(seed) for seed in range(20)]
    problems += [random_problem(seed, num_labels=4, max_vertex_configs=8) for seed in range(20)]
    verdicts = set()
    skipped = 0
    for problem in problems:
        built.clear()
        report = classify(problem)
        verdicts.add(report.verdict)
        # exactly the examined subsets inside the fixpoint, in search order
        live = problem.state_table.live_configs
        examined = list(islice(all_nonempty_subsets(problem), report.subsets_examined))
        assert built == [s for s in examined if live.issuperset(s)]
        skipped += report.subsets_examined - len(built)
        if report.verdict == VERDICT_LOGN:
            # the certificate is the found subset's, built once during the search
            assert report.certificate == build(problem, built[-1]).certificate()
    assert verdicts == {VERDICT_LOGN, VERDICT_NOT}
    assert skipped > 0

    built.clear()
    report = classify(padded_two_coloring("abpq", PADDINGS[-1]))
    assert report.verdict == VERDICT_NOT
    assert report.subsets_examined == 2**12 - 1
    assert len(built) == 3


def test_every_ell_full_subset_lies_inside_the_liveness_fixpoint():
    found = trimmed = 0
    for num_labels in (3, 4):
        for seed in range(80):
            problem = random_problem(seed, num_labels=num_labels, max_vertex_configs=6)
            live = problem.state_table.live_configs
            trimmed += len(live) < len(problem.vertex_configs)
            for subset in all_nonempty_subsets(problem):
                if pathstates._minimal_ell(build_state_graph(problem, subset)) is not None:
                    found += 1
                    assert live.issuperset(subset)
    # the check means something only if both sides occur often
    assert found > 1000
    assert trimmed > 30


def test_liveness_fixpoint_is_idempotent():
    for num_labels in (3, 4, 5):
        for seed in range(60):
            problem = random_problem(seed, num_labels=num_labels, max_vertex_configs=8)
            live = problem.state_table.live_configs
            kept = LclProblem(problem.delta, problem.labels, live, problem.edge_configs)
            assert kept.state_table.live_configs == live


@pytest.mark.parametrize("padding", PADDINGS + (SMALL_NOT_PADDING,))
def test_padded_two_colorings_trim_to_the_two_colors(padding):
    for names in ("abpq", "qpba", "pbqa", "abpqr", "rqpba"):
        problem = padded_two_coloring(names, padding)
        live = {tuple(problem.name_of(x) for x in c) for c in problem.state_table.live_configs}
        assert live == {("a", "a", "a"), ("b", "b", "b")}


def test_an_edgeless_problem_trims_to_nothing():
    labels = tuple(Label(i, n) for i, n in enumerate("ab"))
    configs = frozenset(VertexConfig.of(c) for c in ((0, 0, 0), (0, 0, 1), (1, 1, 1)))
    problem = LclProblem(3, labels, configs, frozenset())
    assert problem.state_table.live_configs == frozenset()
    assert classify(problem).verdict == VERDICT_NOT


def test_classify_three_coloring_report(coloring3):
    report = classify(coloring3)
    assert report.verdict == VERDICT_LOGN
    assert report.subset == (("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"))
    assert report.minimal_ell == 3
    assert report.certificate == PeriodicityCertificate(2, 1)
    assert report.exhaustive


def test_classify_two_coloring_report(coloring2):
    report = classify(coloring2)
    assert report.verdict == VERDICT_NOT
    assert report.subset is None
    assert report.exhaustive
    assert report.subsets_examined == 3


def test_classify_inconclusive_on_budget(coloring2):
    report = classify(coloring2, max_subsets=1)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert not report.exhaustive


def test_report_roundtrip(coloring3, coloring2, matching):
    for problem in (coloring3, coloring2, matching):
        report = classify(problem)
        text = serialize_report(report)
        assert parse_report(text) == report
        human = render_report(report)
        assert report.verdict in human


@pytest.mark.parametrize(
    "key,value",
    [
        ("verdict", None),
        ("subset", "abc"),
        ("subset", [["a", 1]]),
        ("minimal_ell", 3.0),
        ("certificate", [2, 1]),
        ("index", 1.5),
        ("index", "2"),
        ("period", True),
        ("period", None),
        ("exhaustive", 1),
        ("subsets_examined", False),
        ("budget", "4096"),
    ],
)
def test_parse_report_names_a_missing_or_mistyped_key(coloring3, key, value):
    doc = json.loads(serialize_report(classify(coloring3)))
    owner = doc["certificate"] if key in ("index", "period") else doc
    owner[key] = value
    with pytest.raises(ValueError, match=f"report key '{key}'"):
        parse_report(json.dumps(doc))
    del owner[key]
    with pytest.raises(ValueError, match=f"report has no key '{key}'"):
        parse_report(json.dumps(doc))


def test_report_mentions_certificate(matching):
    human = render_report(classify(matching))
    assert "minimal ell: 4" in human
    assert "index 2" in human and "period 1" in human


# --- against the state graph built pair by pair (tests/reference.py) ---


def _assert_connects_like_reference(g, ref):
    """connects agrees with the reference's powers for every pair of subset
    labels and every k in 2..K+P+3, past the certificate's cycle."""
    k_max = ref.cert.index + ref.cert.period + 3
    for a1, a2 in product(g.labels, repeat=2):
        c1 = next(c for c in g.subset if a1 in c)
        c2 = next(c for c in g.subset if a2 in c)
        for k in range(2, k_max + 1):
            assert connects(g, a1, c1, a2, c2, k) == ref.connects(a1, a2, k), (a1, a2, k)


def _assert_matches_reference(problem, subset):
    g = build_state_graph(problem, subset)
    ref = RefStateGraph(problem, subset)
    assert g.states == ref.states
    assert g.certificate() == ref.cert
    _assert_connects_like_reference(g, ref)
    k, p = ref.cert.index, ref.cert.period
    for ell in range(2, k + p + 4):
        assert is_ell_full(problem, subset, ell) == ref.is_ell_full(ell), ell
    assert minimal_ell(problem, subset) == ref.minimal_ell()
    return g


def test_table_slices_match_pairwise_reference_on_every_subset():
    problems = [three_coloring(), two_coloring(), perfect_matching()]
    problems += [random_problem(seed) for seed in range(50)]
    for problem in problems:
        for subset in all_nonempty_subsets(problem):
            _assert_matches_reference(problem, subset)


def test_table_belongs_to_its_problem_not_to_its_configs():
    # same labels and configs, different edge sets: each problem must slice
    # its own table, whichever of the two builds its table first
    every_pair = frozenset(EdgeConfig.of(a, b) for a in range(3) for b in range(a, 3))
    for loose_first in (False, True):
        proper = three_coloring()
        loose = LclProblem(proper.delta, proper.labels, proper.vertex_configs, every_pair)
        for problem in (loose, proper) if loose_first else (proper, loose):
            for subset in all_nonempty_subsets(problem):
                _assert_matches_reference(problem, subset)
        full = proper.sorted_configs()
        assert not np.array_equal(RefStateGraph(proper, full).step, RefStateGraph(loose, full).step)
        assert build_state_graph(proper, full).certificate() == PeriodicityCertificate(2, 1)
        assert build_state_graph(loose, full).certificate() == PeriodicityCertificate(1, 1)
        assert minimal_ell(proper, full) == 3
        assert minimal_ell(loose, full) == 2
