"""The array-backed trees, the column route of parse_tree, the row-indexed
labelings with their check and the scan route of parse_labeling, the
one-walk verify_toast, the whole-layer
rake-and-compress layering and labeling, the extendability tables with
their one-mask pole-free subtrees and per-problem vertex steps, the subtree
splice on edge columns, the trimmed
subset search with its path witnesses and the command-line parser against
the versions kept in tests/reference.py."""

import contextlib
import io
import json
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltrees import cli, problems, trees
from lcltrees.equivalence import (
    PoledTree,
    _splice,
    check_replacement,
    class_census,
    concat_bipolar,
    h_table,
    pumping_decompose,
)
from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
from lcltrees.pathstates import (
    VERDICT_INCONCLUSIVE,
    VERDICT_LOGN,
    VERDICT_NOT,
    build_state_graph,
    classify,
    extend_path,
    find_ell_full_set,
    is_ell_full,
    serialize_report,
    verify_periodicity,
)
from lcltrees.problems import (
    EdgeConfig,
    HalfEdgeLabeling,
    InternalError,
    Label,
    LclProblem,
    ProblemFormatError,
    VertexConfig,
    is_valid_labeling,
    parse_labeling,
    serialize_labeling,
)
from lcltrees.rakecompress import decompose, post_process
from lcltrees.solver import (
    NotEllFullError,
    Toast,
    piece_boundary,
    solve_log,
    solve_on_decomposition,
    solve_toast,
    verify_toast,
)
from lcltrees.trees import (
    PortTree,
    TreeFormatError,
    TreeGenSpec,
    ball,
    bfs_tree,
    distances,
    gen_tree,
    parse_tree,
    serialize_tree,
)

from conftest import PADDINGS, SMALL_NOT_PADDING, json_documents, padded_two_coloring, path_tree
from reference import (
    RefPortTree,
    RefStateGraph,
    blocks_of,
    ref_build_parser,
    ref_class_census,
    ref_classify,
    ref_concat_bipolar,
    ref_extend_path,
    ref_find_ell_full_set,
    ref_gen_tree,
    ref_h_table,
    ref_decompose,
    ref_is_valid_labeling,
    ref_parse_labeling,
    ref_parse_tree,
    ref_piece_boundary,
    ref_post_process,
    ref_pumping_decompose,
    ref_solve_on_decomposition,
    ref_check_replacement,
    ref_solve_toast,
    ref_splice,
    ref_verify_toast,
)
import test_equivalence
from test_equivalence import induced_copy, replacement_sweep

MODELS = ("path", "caterpillar", "uniform-attachment-capped", "star")
SIZES = (1, 2, 3, 4, 5, 6, 17, 100, 641, 2000)


def assert_same_tree(tree: PortTree, ref: RefPortTree) -> None:
    assert (tree.n, tree.delta) == (ref.n, ref.delta)
    assert tree.ports == ref.ports
    assert list(tree.edges()) == list(ref.edges())
    for v in range(tree.n):
        assert tree.neighbors(v) == ref.neighbors(v)
        assert tree.real_degree(v) == ref.real_degree(v)
        for u in ref.neighbors(v):
            assert tree.port_to(v, u) == ref.port_to(v, u)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("delta", (3, 4, 5))
def test_generated_and_parsed_trees_match_the_reference(model, delta):
    for n in SIZES:
        if model == "star" and n > delta + 1:
            continue
        spec = TreeGenSpec(n=n, delta=delta, seed=n * delta, model=model)
        tree, ref = gen_tree(spec), ref_gen_tree(spec)
        assert_same_tree(tree, ref)
        assert tree == PortTree(delta, ref.ports)
        text = serialize_tree(tree)
        parsed, ref_parsed = parse_tree(text), ref_parse_tree(text)
        assert parsed == tree
        assert_same_tree(parsed, ref_parsed)


def _path_doc(n=6):
    """A path 0 - 1 - ... - n-1, every vertex on its ports 0 and 1."""
    edges = [{"u": v, "pu": 1 if v else 0, "v": v + 1, "pv": 0} for v in range(n - 1)]
    return {"n": n, "delta": 3, "edges": edges}


def _single_faults():
    """Documents that each break exactly one rule, named by the rule."""
    out = []

    def case(name, change):
        doc = _path_doc()
        change(doc["edges"])
        out.append((name, doc))

    case("missing key", lambda e: e[2].pop("pv"))
    case("not an object", lambda e: e.__setitem__(3, [1, 2, 3, 4]))
    case("float field", lambda e: e[1].__setitem__("pu", 1.0))
    case("string field", lambda e: e[3].__setitem__("v", "4"))
    case("vertex too large", lambda e: e[2].__setitem__("v", 6))
    case("negative vertex", lambda e: e[4].__setitem__("u", -1))
    case("huge vertex", lambda e: e[1].__setitem__("u", 2**70))
    case("huge port", lambda e: e[1].__setitem__("pv", 2**70))
    case("self-loop", lambda e: e[2].update(u=3, pu=2, v=3, pv=1))
    case("port too large", lambda e: e[3].__setitem__("pv", 3))
    case("negative port", lambda e: e[0].__setitem__("pu", -1))
    # vertex 2 already uses port 0 for edge 1 - 2
    case("port assigned twice", lambda e: e[2].__setitem__("pu", 0))
    # 0 - 2 closes the cycle 0 - 1 - 2 and cuts vertex 5 off
    case("cycle", lambda e: e[4].update(u=0, pu=1, v=2, pv=2))
    case("multi-edge", lambda e: e[4].update(u=1, pu=2, v=2, pv=2))
    return out


@pytest.mark.parametrize("name,doc", _single_faults(), ids=[n for n, _ in _single_faults()])
def test_a_single_fault_raises_the_reference_message(name, doc):
    text = json.dumps(doc)
    with pytest.raises(TreeFormatError) as want:
        ref_parse_tree(text)
    with pytest.raises(TreeFormatError) as got:
        parse_tree(text)
    assert str(got.value) == str(want.value)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 1000),
    changes=st.lists(
        st.tuples(
            st.integers(0, 10**6), st.integers(0, 2), st.integers(-1, 13), st.integers(-1, 3)
        ),
        min_size=1,
        max_size=2,
    ),
)
def test_port_rows_fail_like_the_reference(n, seed, changes):
    """One changed port gives the reference's message; two, its error type."""
    rows = [list(row) for row in gen_tree(TreeGenSpec(n=n, delta=3, seed=seed)).ports]
    for slot, p, u, q in changes:
        rows[slot % n][p] = None if u < 0 else (u, q)
    ports = tuple(map(tuple, rows))
    try:
        want = RefPortTree(3, ports)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            PortTree(3, ports)
        if len(changes) == 1:
            assert str(got.value) == str(e)
        return
    assert_same_tree(PortTree(3, ports), want)


_EDGE_KEYS = ("u", "pu", "v", "pv")


@settings(max_examples=400, deadline=None)
@given(
    json_documents(
        "n",
        "delta",
        "edges",
        n=st.integers(1, 5),
        delta=st.integers(3, 4),
        edges=st.lists(
            json_documents(*_EDGE_KEYS, **dict.fromkeys(_EDGE_KEYS, st.integers(-1, 5))),
            max_size=4,
        ),
    )
)
def test_any_document_parses_or_fails_like_the_reference(doc):
    for text in (json.dumps(doc), indented(doc)):
        try:
            want = ref_parse_tree(text)
        except TreeFormatError:
            with pytest.raises(TreeFormatError):
                parse_tree(text)
            continue
        assert_same_tree(parse_tree(text), want)


# --- the column route of parse_tree ---------------------------------------------


def indented(doc) -> str:
    """The document in the layout serialize_tree and lcltrees gen write."""
    return json.dumps(doc, indent=2) + "\n"


def both_routes(text: str) -> tuple:
    """The text, and the text as an open file, which the parsers read in slices."""
    return text, io.StringIO(text)


def takes_column_route(text: str) -> bool:
    text_route, file_route = (trees._scan_edges(doc) is not None for doc in both_routes(text))
    assert text_route == file_route
    return text_route


def assert_same_arrays(tree: PortTree, ref: RefPortTree) -> None:
    """tree's port arrays hold exactly ref's ports."""
    assert (tree.n, tree.delta) == (ref.n, ref.delta)
    for v, row in enumerate(ref.ports):
        want = [(-1, -1) if tgt is None else tgt for tgt in row]
        assert list(zip(tree.nbr[v].tolist(), tree.back[v].tolist())) == want


def assert_fails_alike(text: str) -> None:
    with pytest.raises(TreeFormatError) as want:
        ref_parse_tree(text)
    for doc in both_routes(text):
        with pytest.raises(TreeFormatError) as got:
            parse_tree(doc)
        assert str(got.value) == str(want.value)


# slice lengths: one that cuts every few edges, and the parser's own
SLICES = (200, trees._SLICE)


@pytest.mark.parametrize("slice_chars", SLICES)
@pytest.mark.parametrize("model", ("path", "caterpillar", "uniform-attachment-capped"))
def test_generated_trees_take_the_column_route_to_the_reference_arrays(
    model, slice_chars, monkeypatch
):
    monkeypatch.setattr(trees, "_SLICE", slice_chars)
    for n in (*range(1, 12), 100, 641, 2000, 5000):
        text = serialize_tree(gen_tree(TreeGenSpec(n=n, delta=4, seed=n, model=model)))
        assert takes_column_route(text)
        assert_same_arrays(parse_tree(text), ref_parse_tree(text))


def test_a_tree_past_several_slices_matches_the_reference():
    text = serialize_tree(gen_tree(TreeGenSpec(n=20_000, delta=3, seed=5)))
    assert len(text) > 5 * trees._SLICE
    assert takes_column_route(text)
    assert_same_arrays(parse_tree(text), ref_parse_tree(text))


@pytest.mark.parametrize("slice_chars", SLICES)
@pytest.mark.parametrize("name,doc", _single_faults(), ids=[n for n, _ in _single_faults()])
def test_a_single_fault_in_gen_layout_raises_the_reference_message(
    name, doc, slice_chars, monkeypatch
):
    monkeypatch.setattr(trees, "_SLICE", slice_chars)
    assert_fails_alike(indented(doc))


def edges_before_cut(text: str) -> int:
    """How many edges the first slice of text holds."""
    start = text.index("[\n") + 2
    cut = text.find(trees._CUT, start + trees._SLICE)
    assert cut > 0
    return text.count("    {\n", start, cut)


@pytest.mark.parametrize("side", (0, 1), ids=("last-before-cut", "first-after-cut"))
@pytest.mark.parametrize(
    "fault,change",
    [
        # vertex k reaches vertex k - 1 on its port 0 already
        ("port assigned twice", dict(pu=0)),
        ("port too large", dict(pv=3)),
        ("self-loop", None),
    ],
)
def test_a_fault_beside_a_slice_cut_raises_the_reference_message(fault, change, side):
    doc = _path_doc(9000)
    k = edges_before_cut(indented(doc)) - 1 + side
    edge = doc["edges"][k]
    edge.update(change or dict(v=edge["u"]))
    text = indented(doc)
    # every change keeps each number's length, so the cut stays put
    assert edges_before_cut(text) - 1 + side == k
    assert takes_column_route(text)
    assert_fails_alike(text)


def cut_markers(text: str, start: int, cut: str, size: int) -> list[int]:
    """Where the scan cuts the record list that starts at start into slices,
    reading size characters at a time: at the first cut marker at least
    size characters past each slice's start."""
    found, pos = [], start
    while (at := text.find(cut, pos + size)) >= 0:
        found.append(at)
        pos = at + 3
    return found


def split_cut_marker(text: str, start: int, cut: str) -> tuple[int, int]:
    """A read size, and a cut marker past the first slice that two reads of
    that size split: the scan reads the document from its start in pieces
    of the size, so such a marker straddles a multiple of it."""
    for size in range(150, 1000):
        for at in cut_markers(text, start, cut, size)[1:]:
            if at // size != (at + len(cut) - 1) // size:
                return size, at
    raise AssertionError("no read size splits a cut marker")


@pytest.mark.parametrize("side", (0, 1), ids=("last-before-cut", "first-after-cut"))
@pytest.mark.parametrize(
    "fault,change",
    [("port assigned twice", dict(pu=0)), ("port too large", dict(pv=3)), ("self-loop", None)],
)
def test_a_fault_in_a_later_slice_beside_a_split_cut_marker_raises_the_reference_message(
    fault, change, side, monkeypatch
):
    doc = _path_doc(80)
    text = indented(doc)
    start = text.index("[\n") + 2
    size, at = split_cut_marker(text, start, trees._CUT)
    monkeypatch.setattr(trees, "_SLICE", size)
    assert len(text) > 3 * size
    assert takes_column_route(text)
    for route in both_routes(text):
        assert_same_arrays(parse_tree(route), ref_parse_tree(text))
    k = text.count("    {\n", start, at) - 1 + side
    edge = doc["edges"][k]
    edge.update(change or dict(v=edge["u"]))
    faulty = indented(doc)
    # every change keeps each number's length, so the cuts stay put
    cuts = cut_markers(text, start, trees._CUT, size)
    assert cut_markers(faulty, start, trees._CUT, size) == cuts
    assert takes_column_route(faulty)
    assert_fails_alike(faulty)


def near_gen_layout():
    """Texts near gen's layout, each with whether the column route takes
    it; every other one takes the JSON route."""
    doc = _path_doc(5)
    text = indented(doc)
    edge = '"v": 1,'
    assert text.count(edge) == 1

    def number(value):
        return text.replace(edge, f'"v": {value},')

    def leading_zero(key):
        return text.replace(f'"{key}": 0', f'"{key}": 00', 1)

    reordered = dict(doc, edges=[dict(reversed(e.items())) for e in doc["edges"]])
    return {
        "crlf": (text.replace("\n", "\r\n"), False),
        "no final newline": (text[:-1], False),
        "compact": (json.dumps(doc), False),
        "reordered keys": (indented(reordered), False),
        "reordered header": (indented({"delta": 3, "n": 5, "edges": doc["edges"]}), False),
        "leading zero": (number("01"), False),
        "leading zero in u": (leading_zero("u"), False),
        "leading zero in pu": (leading_zero("pu"), False),
        "leading zero in pv": (leading_zero("pv"), False),
        "minus zero": (number("-0"), False),
        "negative": (number("-1"), False),
        "18 digits": (number("1" + "0" * 17), True),
        "10**18 - 1": (number(10**18 - 1), True),
        "19 digits": (number("1" + "0" * 18), False),
        "leading zero and 19 digits in one edge": (
            leading_zero("u").replace(edge, f'"v": {10**18},'), False
        ),
        "beyond int64": (number("9" * 19), False),
        "5,000 digits": (number("1" * 5000), False),
        "exponent": (number("1e0"), False),
        "true": (number("true"), False),
        "tab": (text.replace('"v": 1', '"v":\t1'), False),
        "no space after a colon": (text.replace('"u": 3', '"u":3'), False),
        "extra key": (indented(dict(doc, extra=1)), False),
        "digit in a key": (text.replace('"pu"', '"p1u"', 1), False),
        "digit in the indentation": (text.replace('      "v"', '   1  "v"', 1), False),
    }


@pytest.mark.parametrize("name", sorted(near_gen_layout()))
def test_near_gen_layout_takes_the_recorded_route_and_gives_the_json_result(name):
    text, scanned = near_gen_layout()[name]
    assert takes_column_route(text) == scanned
    if name == "5,000 digits":
        with pytest.raises(ValueError, match="integer string conversion"):
            ref_parse_tree(text)
        with pytest.raises(TreeFormatError, match="too many digits"):
            parse_tree(text)
        return
    try:
        want = ref_parse_tree(text)
    except TreeFormatError:
        assert_fails_alike(text)
        return
    for doc in both_routes(text):
        assert_same_tree(parse_tree(doc), want)


# --- labelings ------------------------------------------------------------------


def wide_problem() -> LclProblem:
    """Two labels at delta 40: base-3 config numbers overflow int64."""
    labels = (Label(0, "x"), Label(1, "y"))
    configs = frozenset(VertexConfig.of([0] * k + [1] * (40 - k)) for k in (0, 1, 39, 40))
    return LclProblem(40, labels, configs, frozenset({EdgeConfig.of(0, 1)}))


def empty_problem() -> LclProblem:
    """No vertex config allowed at all."""
    return LclProblem(3, (Label(0, "x"),), frozenset(), frozenset({EdgeConfig.of(0, 0)}))


def corrupt(labeling: HalfEdgeLabeling, rng: Random, num_labels: int, count: int):
    """The labeling with count ports set to ids in and out of range, and to
    fractions, which name no label."""
    rows = [list(row) for row in labeling.ports]
    pool = list(range(num_labels)) + [-1, -2, num_labels, num_labels + 3, 2**70, -(2**70), 1.5]
    for _ in range(count):
        v = rng.randrange(len(rows))
        rows[v][rng.randrange(len(rows[v]))] = rng.choice(pool)
    return HalfEdgeLabeling(tuple(map(tuple, rows)))


@pytest.mark.parametrize("model", ("path", "caterpillar", "uniform-attachment-capped"))
def test_labeling_reports_match_the_reference(model):
    rng = Random(model)
    problems = [three_coloring(), perfect_matching(), random_problem(4), random_problem(6)]
    for n in (1, 2, 9, 150, 1200):
        tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
        ref_tree = RefPortTree(tree.delta, tree.ports)
        for problem in problems:
            # three-coloring from the solver is valid; elsewhere configs in turn
            cfgs = problem.sorted_configs()
            base = (
                solve_log(problem, cfgs, 3, tree)
                if problem is problems[0]
                else HalfEdgeLabeling(tuple(cfgs[v % len(cfgs)].labels for v in range(n)))
            )
            for count in (0, 1, 5, n):
                lab = corrupt(base, rng, problem.num_labels, count)
                want = ref_is_valid_labeling(problem, ref_tree, lab)
                assert is_valid_labeling(problem, tree, lab) == want


def test_labeling_reports_match_beyond_int64_keys_and_without_configs():
    rng = Random(7)
    tree = gen_tree(TreeGenSpec(n=60, delta=40, seed=1))
    ref_tree = RefPortTree(tree.delta, tree.ports)
    problem = wide_problem()
    for count in (0, 3, 200):
        rows = tuple(tuple(rng.choice((0, 1, 1, 1)) for _ in range(40)) for _ in range(60))
        lab = corrupt(HalfEdgeLabeling(rows), rng, 2, count)
        want = ref_is_valid_labeling(problem, ref_tree, lab)
        assert is_valid_labeling(problem, tree, lab) == want
    tree = gen_tree(TreeGenSpec(n=5, delta=3, seed=1))
    lab = HalfEdgeLabeling(((0, 0, 0),) * 5)
    want = ref_is_valid_labeling(empty_problem(), RefPortTree(3, tree.ports), lab)
    assert is_valid_labeling(empty_problem(), tree, lab) == want
    assert len(want.vertex_violations) == 5 and not want.edge_violations


def test_labeling_shape_errors_match_the_reference():
    problem = three_coloring()
    tree = gen_tree(TreeGenSpec(n=4, delta=3, seed=0, model="path"))
    ref_tree = RefPortTree(3, tree.ports)
    for rows in (((0, 0, 0),) * 3, ((0, 0, 0), (0, 0), (0, 0, 0, 0), (0, 0, 0))):
        lab = HalfEdgeLabeling(rows)
        with pytest.raises(ValueError) as want:
            ref_is_valid_labeling(problem, ref_tree, lab)
        with pytest.raises(ValueError) as got:
            is_valid_labeling(problem, tree, lab)
        assert str(got.value) == str(want.value)


def reindexed(labeling: HalfEdgeLabeling) -> HalfEdgeLabeling:
    """The same labeling with its rows stored in reverse order."""
    last = len(labeling.rows) - 1
    return HalfEdgeLabeling._of_rows(labeling.rows[::-1], last - labeling.row_of)


def in_range(labeling: HalfEdgeLabeling, num_labels: int) -> bool:
    return all(type(x) is int and 0 <= x < num_labels for row in labeling.rows for x in row)


@pytest.mark.parametrize("model", ("path", "caterpillar", "uniform-attachment-capped"))
def test_built_solved_and_parsed_labelings_compare_equal_and_report_alike(model):
    rng = Random(model)
    problems = [three_coloring(), perfect_matching(), random_problem(4), random_problem(6)]
    for n in (1, 2, 9, 150, 1200):
        tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
        for problem in problems:
            cfgs = problem.sorted_configs()
            solved = problem is problems[0]
            base = (
                solve_log(problem, cfgs, 3, tree)
                if solved
                else HalfEdgeLabeling(tuple(cfgs[v % len(cfgs)].labels for v in range(n)))
            )
            for count in (0, 1, 5, n):
                lab = corrupt(base, rng, problem.num_labels, count)
                report = is_valid_labeling(problem, tree, lab)
                forms = [reindexed(lab)]
                if solved and count == 0:
                    forms.append(base)
                if in_range(lab, problem.num_labels):
                    forms.append(parse_labeling(serialize_labeling(lab, problem), problem))
                for form in forms:
                    assert form == lab and lab == form
                    assert form.ports == lab.ports
                    assert is_valid_labeling(problem, tree, form) == report


def test_empty_and_ragged_labelings_keep_their_text_and_shape_errors():
    problem = three_coloring()
    tree = gen_tree(TreeGenSpec(n=2, delta=3, seed=0))
    ref_tree = RefPortTree(3, tree.ports)
    for rows in ((), ((), (0, 1, 2))):
        lab = HalfEdgeLabeling(rows)
        doc = [
            {"vertex": v, "ports": [problem.name_of(x) for x in row]} for v, row in enumerate(rows)
        ]
        assert serialize_labeling(lab, problem) == json.dumps(doc, indent=2) + "\n"
        with pytest.raises(ValueError) as want:
            ref_is_valid_labeling(problem, ref_tree, lab)
        with pytest.raises(ValueError) as got:
            is_valid_labeling(problem, tree, lab)
        assert str(got.value) == str(want.value)


# --- labeling files ---------------------------------------------------------------


def odd_names_problem() -> LclProblem:
    """Names that json.dumps escapes, or writes as they are though no JSON
    writer must."""
    names = ['a"b', "c\\d", "é", "", "\u2713", "\U0001f600", "tab\there", "\n"]
    return LclProblem(
        3,
        tuple(Label(i, name) for i, name in enumerate(names)),
        frozenset({VertexConfig.of([0, 1, 2])}),
        frozenset({EdgeConfig.of(0, 1)}),
    )


def random_labeling(problem: LclProblem, n: int, rng: Random) -> HalfEdgeLabeling:
    k = problem.num_labels
    return HalfEdgeLabeling(
        tuple(tuple(rng.randrange(k) for _ in range(problem.delta)) for _ in range(n))
    )


def takes_scan_route(text: str, problem: LclProblem) -> bool:
    text_route, file_route = (
        problems._scan_labeling(doc, problem) is not None for doc in both_routes(text)
    )
    assert text_route == file_route
    return text_route


def labeling_outcome(parse, text: str, problem: LclProblem):
    """The labeling, or the format error's message."""
    try:
        return parse(text, problem)
    except ProblemFormatError as e:
        return str(e)


def assert_parses_alike(text: str, problem: LclProblem) -> None:
    want = labeling_outcome(ref_parse_labeling, text, problem)
    for doc in both_routes(text):
        got = labeling_outcome(parse_labeling, doc, problem)
        assert type(got) is type(want) and got == want


LABELING_PROBLEMS = [three_coloring(), two_coloring(), perfect_matching(), perfect_matching(5)]
LABELING_PROBLEMS += [random_problem(seed) for seed in range(20)] + [odd_names_problem()]


def test_written_labelings_take_the_scan_route_to_the_reference_labeling():
    rng = Random(13)
    for problem in LABELING_PROBLEMS:
        for n in (1, 2, 37):
            text = serialize_labeling(random_labeling(problem, n, rng), problem)
            assert takes_scan_route(text, problem)
            assert_parses_alike(text, problem)
    for problem in (three_coloring(), perfect_matching()):
        tree = gen_tree(TreeGenSpec(n=500, delta=3, seed=2))
        report = classify(problem)
        lab = solve_log(problem, report.subset, report.minimal_ell, tree)
        text = serialize_labeling(lab, problem)
        assert takes_scan_route(text, problem)
        assert_parses_alike(text, problem)


def test_a_labeling_past_several_slices_matches_the_reference():
    problem = perfect_matching()
    text = serialize_labeling(random_labeling(problem, 12_000, Random(5)), problem)
    assert len(text) > 3 * problems._SLICE
    assert takes_scan_route(text, problem)
    assert_parses_alike(text, problem)


@pytest.mark.parametrize("shift", (-1, 0, 1))
def test_a_record_on_a_slice_cut_matches_the_reference(shift, monkeypatch):
    problem = odd_names_problem()
    text = serialize_labeling(random_labeling(problem, 300, Random(shift)), problem)
    # the slice from the list's start at offset 2 reaches a record boundary exactly
    boundary = text.index(problems._CUT, 5000)
    monkeypatch.setattr(problems, "_SLICE", boundary - 2 + shift)
    assert takes_scan_route(text, problem)
    assert_parses_alike(text, problem)
    monkeypatch.setattr(problems, "_SLICE", 150)
    assert takes_scan_route(text, problem)
    assert_parses_alike(text, problem)


def near_labeling_layout():
    """Texts near the writer's layout for perfect matching: valid or not,
    each gives the reference's labeling or message."""
    problem = perfect_matching()
    lab = HalfEdgeLabeling(((0, 1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 1, 1)))
    text = serialize_labeling(lab, problem)
    doc = json.loads(text)
    vertex = '"vertex": 2,'
    assert text.count(vertex) == 1

    def number(value):
        return text.replace(vertex, f'"vertex": {value},')

    def shifted(by):
        return json.dumps([dict(e, vertex=e["vertex"] + by) for e in doc], indent=2) + "\n"

    shuffled = doc[:]
    Random(1).shuffle(shuffled)
    return {
        "shuffled": (json.dumps(shuffled, indent=2) + "\n", True),
        "repeated vertex": (number(1), False),
        "missing vertex": (json.dumps(doc[:2] + doc[3:], indent=2) + "\n", False),
        "ids from 1": (shifted(1), False),
        "unknown name": (text.replace('"M"', '"Q"', 1), False),
        "escaped name": (text.replace('"U"', '"\\u0055"', 1), False),
        "crlf": (text.replace("\n", "\r\n"), False),
        "no final newline": (text[:-1], False),
        "trailing spaces": (text.replace(",\n", ",  \n", 1), False),
        "leading zero": (number("01"), False),
        "leading zero, same id": (number("02"), False),
        "blank line first": ("[\n\n" + text[2:], False),
        "two ports": (text.replace(',\n      "U"\n    ]', "\n    ]", 1), False),
        "four ports": (text.replace('"U"\n    ]', '"U",\n      "U"\n    ]', 1), False),
        "19 digits": (number("1" + "0" * 18), False),
        "18 digits": (number("1" + "0" * 17), False),
        "minus sign": (number("-2"), False),
        "plus sign": (number("+2"), False),
        "space before the comma": (number("2 "), False),
        "vertex twice": (text.replace(vertex, f'{vertex}\n    {vertex}'), False),
        "vertex twice, then another id": (text.replace(vertex, f'{vertex}\n    "vertex": 7,'), False),
        "5,000 digits": (number("7" * 5000), False),
        "trailing comma": (text[:-3] + ",\n]\n", False),
        "trailing comma and newline": (text[:-3] + ",\n\n]\n", False),
        "compact": (json.dumps(doc), False),
        "empty list": ("[]\n", False),
        "empty written list": ("[\n]\n", False),
    }


@pytest.mark.parametrize("name", sorted(near_labeling_layout()))
def test_near_labeling_layout_parses_like_the_reference(name):
    text, scanned = near_labeling_layout()[name]
    problem = perfect_matching()
    assert takes_scan_route(text, problem) == scanned
    assert_parses_alike(text, problem)


@pytest.mark.parametrize("side", (0, 1), ids=("last-before-cut", "first-after-cut"))
@pytest.mark.parametrize("fault", ("unknown name", "repeated vertex", "spacing"))
def test_a_labeling_fault_in_a_later_slice_beside_a_split_cut_marker_parses_like_the_reference(
    fault, side, monkeypatch
):
    problem = perfect_matching()
    text = serialize_labeling(random_labeling(problem, 80, Random(side)), problem)
    size, at = split_cut_marker(text, 2, problems._CUT)
    monkeypatch.setattr(problems, "_SLICE", size)
    assert len(text) > 3 * size
    assert takes_scan_route(text, problem)
    assert_parses_alike(text, problem)
    # the record just before or just after the marker
    begin = text.rindex("  {\n", 0, at) if side == 0 else at + 3
    end = text.index("\n  }", begin) + 4
    record = text[begin:end]
    vertex = json.loads(record)["vertex"]
    name = '"M"' if '"M"' in record else '"U"'
    changed = {
        "unknown name": record.replace(name, '"Q"', 1),
        "repeated vertex": record.replace(f'"vertex": {vertex},', f'"vertex": {vertex ^ 1},'),
        "spacing": record.replace('"ports": [', '"ports" :['),
    }[fault]
    assert changed != record and len(changed) == len(record)
    faulty = text[:begin] + changed + text[end:]
    assert cut_markers(faulty, 2, problems._CUT, size) == cut_markers(text, 2, problems._CUT, size)
    assert not takes_scan_route(faulty, problem)
    assert_parses_alike(faulty, problem)


@pytest.mark.parametrize("name", ("vertex", 'vertex": 12', '"vertex": 3,', '": 45'))
def test_label_names_like_the_id_marker_take_the_scan_route(name):
    labels = tuple(Label(i, s) for i, s in enumerate((name, "x", "y")))
    problem = LclProblem(
        3, labels, frozenset({VertexConfig.of([0, 1, 2])}), frozenset({EdgeConfig.of(0, 1)})
    )
    text = serialize_labeling(random_labeling(problem, 40, Random(name)), problem)
    assert takes_scan_route(text, problem)
    assert_parses_alike(text, problem)


FUZZ_CHARS = '0123456789 ,:"[]{}\n\\MUabvertxpos-'


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(("delete", "insert", "replace")),
    st.integers(0, 10**6),
    st.sampled_from(FUZZ_CHARS),
    st.sampled_from((0, 1)),
)
def test_one_changed_character_parses_like_the_reference(change, at, char, which):
    problem = (perfect_matching(), odd_names_problem())[which]
    text = serialize_labeling(random_labeling(problem, 4, Random(which)), problem)
    i = at % (len(text) + (change == "insert"))
    tail = text[i:] if change == "insert" else text[i + 1 :]
    text = text[:i] + ("" if change == "delete" else char) + tail
    assert_parses_alike(text, problem)


def tree_outcome(parse, doc):
    """The tree's ports, or the format error's message."""
    try:
        tree = parse(doc)
    except TreeFormatError as e:
        return str(e)
    return tree.n, tree.delta, tree.ports


# what the scans split and read at: digits, signs, and the JSON punctuation
SCAN_FUZZ_CHARS = '0123456789":, \n[]\\-'


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(("delete", "insert", "replace")),
    st.integers(0, 10**6),
    st.sampled_from(SCAN_FUZZ_CHARS),
    st.sampled_from(("labeling", "tree")),
)
def test_one_changed_character_in_a_written_document_parses_like_the_reference(
    change, at, char, kind
):
    problem = odd_names_problem()
    text = (
        serialize_labeling(random_labeling(problem, 12, Random(3)), problem)
        if kind == "labeling"
        else serialize_tree(gen_tree(TreeGenSpec(n=12, delta=3, seed=3)))
    )
    i = at % (len(text) + (change == "insert"))
    tail = text[i:] if change == "insert" else text[i + 1 :]
    text = text[:i] + ("" if change == "delete" else char) + tail
    if kind == "labeling":
        assert_parses_alike(text, problem)
        return
    want = tree_outcome(ref_parse_tree, text)
    with mock.patch.object(trees, "_scan_edges", lambda doc: None):
        read_whole = tree_outcome(parse_tree, text)
    # the reference checks edge by edge, so of two faults it may name another;
    # both routes must give what the document read whole gives
    assert type(read_whole) is type(want) and (isinstance(want, str) or read_whole == want)
    for doc in both_routes(text):
        assert tree_outcome(parse_tree, doc) == read_whole


# --- toasts ---------------------------------------------------------------------


@pytest.mark.parametrize("model", ("path", "caterpillar", "uniform-attachment-capped"))
def test_verify_toast_reports_match_the_reference(model):
    rng = Random(model)
    seen = {"clean": 0, "nesting": 0, "gap": 0, "disconnected": 0}
    seen.update({"gap below q": 0, "gap at q": 0, "gap above q": 0})
    for n in (12, 40, 200):
        tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=n, model=model))
        everything = frozenset(range(n))
        for _ in range(25):
            # balls of random radius: nested, disjoint, overlapping or too
            # close; now and then a scattered set or no top piece
            pieces = [
                ball(tree, rng.randrange(n), rng.randrange(1, 6))
                for _ in range(rng.randrange(1, 6))
            ]
            if rng.random() < 0.2:
                pieces.append(frozenset(rng.sample(range(n), 3)))
            if rng.random() < 0.8:
                pieces.append(everything)
            toast = Toast(rng.randrange(2, 7), tuple(pieces))
            want = ref_verify_toast(tree, toast)
            assert verify_toast(tree, toast) == want
            for piece in pieces:
                assert piece_boundary(tree, piece) == ref_piece_boundary(tree, piece)
            seen["clean"] += not want and len(set(pieces) - {everything}) >= 2
            for kind in ("nesting", "gap", "disconnected"):
                seen[kind] += any(kind in line for line in want)
        # a vertex at gap q - 1, q, q + 1 and as far as the tree allows from
        # a ball's boundary: the edges of the capped frontier
        inner = ball(tree, n // 3, 2)
        dist = distances(tree, ref_piece_boundary(tree, inner))
        for q in (2, 3, 5):
            for gap in (q - 1, q, q + 1, max(dist.values())):
                far = [v for v in range(n) if dist[v] == gap and v not in inner]
                if far:
                    toast = Toast(q, (inner, frozenset(far[:1]), everything))
                    want = ref_verify_toast(tree, toast)
                    assert verify_toast(tree, toast) == want
                    assert any("gap" in line for line in want) == (gap < q)
                    seen[f"gap {'below' if gap < q else 'at' if gap == q else 'above'} q"] += 1
    # sound toasts of disjoint balls, overlapping, too-close and
    # disconnected pieces, and gaps on both sides of q, all occurred
    assert min(seen.values()) > 0, seen


# --- layering and layer labeling --------------------------------------------------

LAYER_SIZES = (1, 2, 3, 4, 5, 6, 7, 17, 100, 641, 2000, 5000)


def layer_trees(delta, largest=LAYER_SIZES[-1]):
    for model in MODELS:
        for n in LAYER_SIZES:
            if n <= largest and not (model == "star" and n > delta + 1):
                yield gen_tree(TreeGenSpec(n=n, delta=delta, seed=n, model=model))


@pytest.mark.parametrize("delta", (3, 4, 5))
def test_layerings_match_the_reference(delta):
    for tree in layer_trees(delta):
        for ell_prime in (1, 2, 3, 4):
            got, want = post_process(tree, ell_prime), ref_post_process(tree, ell_prime)
            assert got.rake_layers == want.rake_layers
            assert blocks_of(got) == blocks_of(want)
            assert got == want  # the same arrays: rake layers ascending, blocks in order
            for gamma in (1, 2):
                raw = decompose(tree, gamma, ell_prime)
                assert raw == ref_decompose(tree, gamma, ell_prime)


def outcome(solve, problem, subset, decomp):
    """The labeling, or the refutation's kind, message and detail."""
    try:
        return solve(problem, subset, decomp)
    except NotEllFullError as e:
        return (e.kind, str(e), e.detail)


def in_problems():
    """The fixtures with all their configs, then every random problem of
    seeds 0..59 that classify puts in the O(log n) class, with its subset;
    each with the largest tree size to label."""
    for delta in (3, 4, 5):
        for problem in (three_coloring(delta), perfect_matching(delta), two_coloring(delta)):
            yield problem, problem.sorted_configs(), LAYER_SIZES[-1]
    for seed in range(60):
        problem = random_problem(seed)
        report = classify(problem)
        if report.verdict == VERDICT_LOGN:
            rows = report.subset
            subset = [VertexConfig.of(problem.label_by_name(x).id for x in r) for r in rows]
            yield problem, subset, 100


def test_layer_labelings_and_refutations_match_the_reference():
    seen = {"labelings": 0, "refutations": 0}
    for problem, subset, largest in in_problems():
        for tree in layer_trees(problem.delta, largest):
            for ell_prime in (1, 2, 3, 4):
                decomp = post_process(tree, ell_prime)
                want = outcome(ref_solve_on_decomposition, problem, subset, decomp)
                assert outcome(solve_on_decomposition, problem, subset, decomp) == want
                seen["refutations" if isinstance(want, tuple) else "labelings"] += 1
    assert min(seen.values()) > 100, seen


def toast_outcome(solve, problem, subset, ell, tree, toast):
    """The labeling's ports, or the exception's type, message and detail."""
    try:
        return (HalfEdgeLabeling, solve(problem, subset, ell, tree, toast).ports)
    except NotEllFullError as e:
        return (NotEllFullError, e.kind, str(e), e.detail)
    except (ValueError, InternalError) as e:
        return (type(e), str(e))


def test_toast_labelings_and_refutations_match_the_reference():
    """Every problem of in_problems on path, caterpillar and uniform trees
    (up to 5000 vertices for the fixtures, 641 for the random problems),
    ell 2 and 3 at q = 2ell+2 and 2ell+5, one to three balls of random
    radius up to q, centered in successive id ranges, under the whole
    tree."""
    rng = Random(12)
    seen = {"labelings": 0, "refutations": 0, "unsound": 0}
    for problem, subset, largest in in_problems():
        for model in ("path", "caterpillar", "uniform-attachment-capped"):
            for n in (17, 100, 641, 5000) if largest >= 5000 else (17, 100, 641):
                tree = gen_tree(TreeGenSpec(n=n, delta=problem.delta, seed=n, model=model))
                everything = frozenset(range(n))
                for ell, q in rng.sample([(2, 6), (2, 9), (3, 8), (3, 11)], 2):
                    k = rng.randint(1, 3)
                    centers = [rng.randrange(i * n // k, (i + 1) * n // k) for i in range(k)]
                    balls = (ball(tree, c, rng.randint(1, q)) for c in centers)
                    pieces = tuple(dict.fromkeys(b for b in balls if b != everything))
                    toast = Toast(q, pieces + (everything,))
                    want = toast_outcome(ref_solve_toast, problem, subset, ell, tree, toast)
                    assert toast_outcome(solve_toast, problem, subset, ell, tree, toast) == want
                    kind = {HalfEdgeLabeling: "labelings", ValueError: "unsound"}
                    seen[kind.get(want[0], "refutations")] += 1
    assert min(seen.values()) >= 10, seen


# --- extendability tables ----------------------------------------------------------


TREE_MODELS = ("path", "caterpillar", "uniform-attachment-capped", "star")


def random_poled_tree(rng: Random, delta: int, num_labels: int) -> PoledTree:
    """A small tree with 1-3 poles and 0-4 fixed labels on random ports."""
    n = rng.randint(1, 13)
    model = rng.choice(TREE_MODELS if n <= delta + 1 else TREE_MODELS[:3])
    tree = gen_tree(TreeGenSpec(n=n, delta=delta, seed=rng.randrange(10**6), model=model))
    open_vertices = [v for v in range(n) if tree.real_degree(v) < delta]
    poles = rng.sample(open_vertices, min(len(open_vertices), rng.randint(1, 3)))
    ports = [(v, p) for v in range(n) for p in range(delta)]
    fixed = tuple(
        (v, p, rng.randrange(num_labels))
        for v, p in rng.sample(ports, min(len(ports), rng.randint(0, 4)))
    )
    return PoledTree(tree, tuple(poles), fixed)


def fixed_roles(poled: PoledTree) -> set[tuple[str, bool]]:
    """(virtual, parent or child port, whether its vertex is a pole or an
    ancestor of one) for each fixed label, the tree rooted at the first pole."""
    tree = poled.tree
    _order, parent = bfs_tree(tree, [poled.poles[0]])
    polar = set()
    for v in poled.poles:
        while v is not None:
            polar.add(v)
            v = parent[v]
    roles = set()
    for v, p, _lab in poled.fixed:
        u = tree.port_neighbors(v)[p]
        role = "virtual" if u < 0 else "parent" if u == parent[v] else "child"
        roles.add((role, v in polar))
    return roles


def test_tables_match_the_reference_on_random_problems_and_poles():
    rng = Random(15)
    roles, pole_counts = set(), set()
    for case in range(400):
        delta = 3 if case % 4 else 4
        num_labels = rng.randint(2, 4)
        problem = random_problem(
            rng.randrange(10**6), delta=delta, num_labels=num_labels, max_vertex_configs=6
        )
        poled = random_poled_tree(rng, delta, num_labels)
        assert h_table(problem, poled) == ref_h_table(problem, poled), (case, poled)
        roles |= fixed_roles(poled)
        pole_counts.add(len(poled.poles))
    assert pole_counts == {1, 2, 3}
    assert roles == {(r, polar) for r in ("virtual", "parent", "child") for polar in (True, False)}


@pytest.mark.parametrize("make_problem", (three_coloring, two_coloring, perfect_matching))
def test_censuses_match_the_reference(make_problem):
    problem = make_problem()
    for max_size in range(1, 8):
        for seed in (0, 3):
            got = class_census(problem, max_size, seed=seed)
            assert got == ref_class_census(problem, max_size, seed=seed), (max_size, seed)


def test_random_problem_censuses_match_the_reference():
    for seed in range(12):
        problem = random_problem(seed, num_labels=3, max_vertex_configs=6)
        assert class_census(problem, 5, seed=seed, samples_per_size=3) == ref_class_census(
            problem, 5, seed=seed, samples_per_size=3
        )


def concat_problems():
    """The fixtures, then random problems at 3 labels (delta 3) and at 4
    labels (delta 3 and 4), the latter giving roots of arity 2 to 4."""
    yield from (three_coloring(), two_coloring(), perfect_matching())
    for seed in range(8):
        yield random_problem(seed, num_labels=3, max_vertex_configs=6)
        yield random_problem(50 + seed, num_labels=4, max_vertex_configs=8)
        yield random_problem(90 + seed, delta=4, num_labels=4, max_vertex_configs=8)


def rooted_tables(problem, rng):
    """The distinct tables of small trees rooted at an open vertex of arity >= 2."""
    tables = {}
    for n in range(1, 8):
        for _ in range(3):
            spec = TreeGenSpec(
                n=n, delta=problem.delta, seed=rng.randrange(10**6),
                model="uniform-attachment-capped",
            )
            tree = gen_tree(spec)
            for v in range(n):
                if tree.delta - tree.real_degree(v) >= 2:
                    tables[h_table(problem, PoledTree(tree, (v,)))] = None
    return list(tables)


def concat_outcome(run, problem, tables):
    """The result, or the type and text of the error run raises."""
    try:
        return run(problem, tables)
    except ValueError as e:
        return (ValueError, str(e))


def test_concatenations_and_pumping_match_the_reference():
    rng = Random(24)
    arities, pumped = set(), 0
    for problem in concat_problems():
        pool = rooted_tables(problem, rng)
        arities |= {t.arities[0] for t in pool}
        for k in range(1, 7):
            for _ in range(4):
                tables = [rng.choice(pool) for _ in range(k)]
                want = ref_concat_bipolar(problem, tables)
                assert concat_bipolar(problem, tables) == want, (problem, tables)
        for length in range(1, 13):
            # two or three distinct pieces, so that prefixes come to repeat
            few = rng.sample(pool, min(len(pool), rng.randint(2, 3)))
            tables = [rng.choice(few) for _ in range(length)]
            want = ref_pumping_decompose(problem, tables)
            assert pumping_decompose(problem, tables) == want, (problem, tables)
            pumped += want is not None
    assert arities == {2, 3, 4}
    assert pumped >= 100


def test_concatenation_errors_match_the_reference():
    problem = three_coloring()
    wide = h_table(problem, PoledTree(path_tree(2), (0,)))
    narrow = h_table(problem, PoledTree(path_tree(3), (1,)))
    bipolar = h_table(problem, PoledTree(path_tree(2), (0, 1)))
    foreign = h_table(random_problem(3, num_labels=4), PoledTree(path_tree(2), (0,)))
    cases = [
        [],
        [narrow],
        [wide, narrow],
        [bipolar, wide],
        [wide, foreign],
        [wide] * 10 + [narrow],  # the bad piece comes after the first repeat
        [wide] * 10 + [foreign],
    ]
    for tables in cases:
        for run, ref in (
            (concat_bipolar, ref_concat_bipolar),
            (pumping_decompose, ref_pumping_decompose),
        ):
            want = concat_outcome(ref, problem, tables)
            assert concat_outcome(run, problem, tables) == want, (run, tables)
            # every case is an error but an empty pumping list, which has no repeat
            assert want is None if (run, tables) == (pumping_decompose, []) else want[0] is ValueError


# --- subtree replacement ------------------------------------------------------------


def splice_outcome(splice, host, u, s_prime, repl):
    """The spliced tree, or the type and text of the error splice raises."""
    try:
        return splice(host, u, tuple(s_prime), repl)
    except ValueError as e:
        return type(e), str(e)


def random_cut(rng: Random, host: PoledTree) -> tuple[set[int], list[int]]:
    """A vertex set grown from a random vertex, and its boundary vertices
    plus the host poles inside it; now and then one of the two is spoiled."""
    tree = host.tree
    start = rng.randrange(tree.n)
    u, frontier, goal = {start}, [start], rng.randint(1, tree.n)
    while frontier and len(u) < goal:
        v = frontier.pop(rng.randrange(len(frontier)))
        for w in tree.neighbors(v):
            if w not in u and len(u) < goal:
                u.add(w)
                frontier.append(w)
    s_prime = {v for v in u for w in tree.neighbors(v) if w not in u}
    s_prime |= set(host.poles) & u
    fault = rng.random()
    if fault < 0.1:
        u.add(rng.randrange(tree.n))  # perhaps a second component
    elif fault < 0.2 and s_prime:
        s_prime.discard(rng.choice(sorted(s_prime)))
    elif fault < 0.3:
        # one more pole inside u, no fault, where a replacement pole can
        # keep a spare port
        roomy = [v for v in sorted(u) if sum(w in u for w in tree.neighbors(v)) < tree.delta]
        s_prime.add(rng.choice(roomy))
    order = sorted(s_prime)
    rng.shuffle(order)
    return u, order


def random_replacement(rng: Random, tree, u, s_prime, num_labels: int) -> PoledTree:
    """A small tree whose poles have the inside degrees of s_prime in u, or
    u's own induced tree when eight draws find none; 0-3 fixed labels.  A
    poled tree needs a pole, so an empty s_prime gets a random one."""
    if not s_prime:
        return random_poled_tree(rng, tree.delta, num_labels)
    degrees = [sum(w in u for w in tree.neighbors(v)) for v in s_prime]
    for _ in range(8):
        m = rng.randint(1, 9)
        cand = gen_tree(TreeGenSpec(n=m, delta=tree.delta, seed=rng.randrange(10**6)))
        free = list(range(m))
        rng.shuffle(free)
        poles = []
        for d in degrees:
            pick = next((v for v in free if cand.real_degree(v) == d), None)
            if pick is None:
                break
            free.remove(pick)
            poles.append(pick)
        else:
            break
    else:
        cand, idx = induced_copy(tree, u)
        poles = [idx[v] for v in s_prime]
    ports = [(v, p) for v in range(cand.n) for p in range(cand.delta)]
    fixed = tuple(
        (v, p, rng.randrange(num_labels))
        for v, p in rng.sample(ports, min(len(ports), rng.randint(0, 3)))
    )
    return PoledTree(cand, tuple(poles), fixed)


def test_splices_and_replacements_match_the_reference(monkeypatch):
    # the corpus of replacement_sweep, recorded as it runs
    cases = []

    def recording(problem, host, u, s_prime, repl):
        cases.append((problem, host, u, s_prime, repl))
        return check_replacement(problem, host, u, s_prime, repl)

    monkeypatch.setattr(test_equivalence, "check_replacement", recording)
    replacement_sweep(100)
    monkeypatch.undo()
    assert len(cases) == 100
    # random hosts and replacements with fixed labels, some cuts spoiled
    rng = Random(16)
    while len(cases) < 500:
        delta = rng.choice((3, 3, 4))
        problem = random_problem(
            rng.randrange(10**6), delta=delta, num_labels=3, max_vertex_configs=6
        )
        host = random_poled_tree(rng, delta, 3)
        u, s_prime = random_cut(rng, host)
        repl = random_replacement(rng, host.tree, u, s_prime, 3)
        if rng.random() < 0.05:
            repl = random_poled_tree(rng, delta, 3)  # most likely the wrong shape
        cases.append((problem, host, u, s_prime, repl))
    seen = Counter()
    for problem, host, u, s_prime, repl in cases:
        got = splice_outcome(_splice, host, u, s_prime, repl)
        assert got == splice_outcome(ref_splice, host, u, s_prime, repl), (host, u, s_prime)
        if isinstance(got, PoledTree):
            answer = check_replacement(problem, host, u, s_prime, repl)
            assert answer == ref_check_replacement(problem, host, u, s_prime, repl)
            seen[answer] += 1
        else:
            seen[got[1].split()[0]] += 1
    # equal and unequal tables, and the cut faults, all occurred
    assert {True, False, "u", "boundary", "pole"} <= set(seen), seen


# --- the trimmed subset search -------------------------------------------------------


def classify_corpus(num_labels):
    """Random problems of seeds 0..199 with num_labels labels; the fixtures
    and the padded two-colorings ride along with the 3-label ones."""
    most = 5 if num_labels == 3 else 8
    problems = [
        random_problem(seed, num_labels=num_labels, max_vertex_configs=most)
        for seed in range(200)
    ]
    if num_labels == 3:
        problems += [three_coloring(), two_coloring(), perfect_matching()]
        problems += [padded_two_coloring(names, p) for p in PADDINGS for names in ("abpq", "qbap")]
        problems += [
            padded_two_coloring(names, SMALL_NOT_PADDING)
            for names in list(permutations("abpqr"))[::12]
        ]
    return problems


@pytest.mark.parametrize("num_labels", (3, 4, 5))
def test_classify_reports_match_the_exhaustive_search(num_labels):
    verdicts = []
    for i, problem in enumerate(classify_corpus(num_labels)):
        report = classify(problem)
        assert serialize_report(report) == serialize_report(ref_classify(problem))
        verdicts.append(report.verdict)
        # budgets that run out before, at and after the subset the search settles on
        if i % 7 == 0 or len(problem.vertex_configs) > 5:
            for budget in (1, 2, 5, 64):
                report = classify(problem, budget)
                assert serialize_report(report) == serialize_report(ref_classify(problem, budget))
                verdicts.append(report.verdict)
    assert {VERDICT_LOGN, VERDICT_NOT, VERDICT_INCONCLUSIVE} <= set(verdicts)


def eight_label_problem(seed: int) -> LclProblem:
    """12 random configs over eight labels at delta 3, with 6 random edge pairs."""
    rng = Random(seed)
    every = [VertexConfig(c) for c in combinations_with_replacement(range(8), 3)]
    pairs = [EdgeConfig((i, j)) for i in range(8) for j in range(i, 8)]
    labels = tuple(Label(i, x) for i, x in enumerate("abcdefgh"))
    return LclProblem(3, labels, frozenset(rng.sample(every, 12)), frozenset(rng.sample(pairs, 6)))


def eight_cycle_problem() -> LclProblem:
    """Every config over eight labels, edges around a cycle: 288 states, past 64 bits."""
    labels = tuple(Label(i, x) for i, x in enumerate("abcdefgh"))
    every = frozenset(VertexConfig(c) for c in combinations_with_replacement(range(8), 3))
    return LclProblem(3, labels, every, frozenset(EdgeConfig.of(i, (i + 1) % 8) for i in range(8)))


def test_the_search_matches_the_exhaustive_search_on_a_stress_corpus():
    problems = [
        random_problem(seed, num_labels=5, max_vertex_configs=16) for seed in range(1000, 1060)
    ]
    problems += [
        random_problem(seed, delta=4, num_labels=5, max_vertex_configs=15)
        for seed in range(2000, 2040)
    ]
    # seed 0 settles on 6 of 12 configs after 2,357 subsets; seed 8 is a NOT
    problems += [eight_label_problem(0), eight_label_problem(8), eight_cycle_problem()]
    found = 0
    for problem in problems:
        result = find_ell_full_set(problem)
        assert result == ref_find_ell_full_set(problem)
        if result.subset is None:
            continue
        found += 1
        # the matrix-product check, and the graph built pair by pair
        assert verify_periodicity(build_state_graph(problem, result.subset), result.certificate)
        pairwise = RefStateGraph(problem, result.subset)
        assert (pairwise.cert, pairwise.minimal_ell()) == (result.certificate, result.ell)
    assert 0 < found < len(problems)


def test_ell_fullness_matches_the_reference_at_every_ell():
    """is_ell_full reads the minimal ell, ell-fullness being monotone in ell;
    the reference tests each ell on its own power sequence."""
    problems = [three_coloring(), two_coloring(), perfect_matching()]
    problems += [random_problem(seed, num_labels=3) for seed in range(60)]
    problems += [random_problem(seed, num_labels=4) for seed in range(40)]
    pairs = held = 0
    for problem in problems:
        configs = problem.sorted_configs()
        for size in range(len(configs), 0, -1):
            for subset in combinations(configs, size):
                ref = RefStateGraph(problem, subset)
                for ell in range(2, ref.cert.index + ref.cert.period + 6):
                    full = is_ell_full(problem, subset, ell)
                    assert full == ref.is_ell_full(ell), (problem, subset, ell)
                    pairs += 1
                    held += full
    assert pairs > 8000 and 0 < held < pairs


@pytest.mark.parametrize(
    "problem",
    [three_coloring(), two_coloring(), perfect_matching()]
    + [random_problem(seed) for seed in range(20)],
)
def test_path_witnesses_match_the_matrix_backtrack(problem):
    configs = problem.sorted_configs()
    for size in range(len(configs), 0, -1):
        for subset in combinations(configs, size):
            ref = RefStateGraph(problem, subset)
            labels = sorted({a for c in subset for a in c})
            for a1, a2 in product(labels, repeat=2):
                c1 = next(c for c in subset if a1 in c)
                c2 = next(c for c in subset if a2 in c)
                for k in range(2, 13):
                    assert extend_path(problem, subset, a1, c1, a2, c2, k) == ref_extend_path(
                        ref, a1, a2, k
                    ), (subset, a1, a2, k)


# --- the command-line parser ---------------------------------------------------------


def parse_outcome(parse, argv):
    """What parse(argv) gives: printed text and exit code, or the namespace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


def same_parse(argv):
    """main's own parse of argv matches the reference parser's."""
    argv = list(argv)
    ref = ref_build_parser().parse_args
    assert parse_outcome(cli.parse_args, argv) == parse_outcome(ref, argv)


ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--foo"],
    ["--foo", "classify", "--problem", "x"],
    ["--", "classify", "--problem", "x"],
    ["classify"],
    ["classify", "--problem"],
    ["classify", "--problem", "x"],
    ["classify", "--prob", "x", "--b", "7", "--format", "json", "--output", "o"],
    ["classify", "--problem", "x", "--format", "xml"],
    ["classify", "--problem", "x", "--budget", "many"],
    ["classify", "--problem", "x", "--bogus"],
    ["classify", "--problem", "x", "solve"],
    ["classify", "--problem", "solve", "--budget", "3"],
    ["solve", "--problem", "x"],
    ["solve", "--problem", "x", "--tree", "t", "--subset", "s", "--ell", "3", "--toast", "4",
     "--centers", "1,2", "--budget", "9", "--output", "o"],
    ["verify", "--problem", "x", "--tree", "t"],
    ["verify", "--problem", "x", "--tree", "t", "--labeling", "l"],
    ["gen", "--n", "abc"],
    ["gen", "--n", "5", "--model", "tree"],
    ["gen", "--n", "5", "--delta", "4", "--seed", "2", "--model", "path", "--output", "o"],
    ["decompose", "--tree", "t", "--gamma", "1"],
    ["decompose", "--tree", "t", "--gamma", "1", "--ell", "2", "--output", "o"],
    ["classes", "--problem", "x"],
    ["classes", "--problem", "x", "--max-size", "3", "--seed", "1", "--samples", "2",
     "--format", "json"],
    ["oracle"],
    ["oracle", "bogus"],
    ["oracle", "solve", "--problem", "x"],
    ["oracle", "solve", "--problem", "x", "--tree", "t", "--max-vertices", "9"],
    ["oracle", "connects", "--problem", "x", "--a1", "a", "--c1", "a,a,a", "--a2", "b",
     "--c2", "b,b,b", "--k", "4", "--subset", "s", "--budget", "10"],
    ["oracle", "connects", "--problem", "x", "--k", "4"],
    ["solve", "classify", "--problem", "x"],
    # leftovers after a command that parsed, reported under the top-level usage
    ["verify", "--problem", "x", "--tree", "t", "--labeling", "l", "extra"],
    ["gen", "--n", "5", "--", "extra"],
    ["oracle", "solve", "--problem", "x", "--tree", "t", "extra"],
    ["oracle", "connects", "--problem", "x", "--a1", "a", "--c1", "a", "--a2", "b",
     "--c2", "b", "--k", "2", "--bogus", "1"],
    # `--` after the command name
    ["classify", "--"],
    ["classify", "--", "--problem", "x"],
    ["classify", "--problem", "x", "--"],
    ["oracle", "--", "solve", "--problem", "x", "--tree", "t"],
    # help at the end of a complete command line
    ["classify", "--problem", "x", "-h"],
    ["decompose", "--tree", "t", "--gamma", "1", "--ell", "2", "--help"],
    ["oracle", "solve", "--problem", "x", "--tree", "t", "-h"],
    # the edges of the quick route: what it must leave to the full parser, and
    # values it takes as argparse does
    ["gen", "--n", "5", "--seed", "-3"],
    ["gen", "--n=5"],
    ["gen", "--n", "5", "--seed", "2", "--n", "6"],
    ["gen", "--n", "x", "--n", "6"],
    ["classify", "--problem", ""],
    ["classify", "--problem", "-"],
    ["classify", "--problem", "-x"],
    ["classify", "--problem", "x", "--output", "--format"],
    ["gen", "--n", " 7"],
    ["gen", "--n", "\u0663"],
    ["gen", "--n", "5", "--model", "Path"],
    ["gen", "--delta", "4", "--model", "path"],
    ["classes", "--problem", "x", "--max-size"],
    ["classes", "--max-size", "3", "--format", "json"],
]
HELP = [[cmd, "--help"] for cmd, _, _ in cli.SUBCOMMANDS]
HELP += [["oracle", "solve", "-h"], ["oracle", "connects", "--help"]]


@pytest.mark.parametrize("columns", ("80", "200"))
def test_help_and_usage_errors_match_the_reference_parser(columns, monkeypatch):
    # argparse wraps help to $COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    for argv in ARGVS + HELP:
        same_parse(argv)


TOKENS = [cmd for cmd, _, _ in cli.SUBCOMMANDS] + [
    "-h", "--", "--problem", "--tree", "--budget", "--ell", "--n", "--format", "json",
    "--model", "path", "--a1", "--k", "--max-vertices", "--output", "x", "3", "-1", "--bogus",
    "--seed", "--n=3", "", "-",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=8))
def test_any_command_line_parses_like_the_reference_parser(argv):
    same_parse(argv)
