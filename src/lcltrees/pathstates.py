"""Path feasibility and the ell-full condition.

A subset of vertex configs is ell-full when every pair of configs, with
every choice of facing labels at the two path endpoints, can be joined by a
correctly labeled path of k vertices for every k >= ell, using only subset
configs on the interior.  Walking a path one interior vertex at a time only
needs the previous vertex's forward label, so interior feasibility is a
walk in a finite state graph and long-path behavior is settled by the
eventual periodicity of its boolean adjacency powers.

Whether a state may follow a vertex depends only on the label that vertex
sent, never on the subset.  So each problem tabulates that relation once
over all of its states (StateTable, cached on the problem), and a subset's
state graph, entry rows and exit vectors are index slices of the table.
The ell-full test then makes one pass over the power cycle: for each
exponent m up to index + period - 1 it records whether entry . step^m .
exit is all-true, and every ell is decided from the all-true suffix of
those flags.

Before the search, each problem trims its configs once, on the table.  In
the graph of the configs still kept, a state is forward-live when a walk
from it reaches a cycle and backward-live when a cycle reaches it; a config
goes when one of its labels a has no forward-live state in entry_row(a) or
no backward-live state in exit_vector(a), and the trim repeats until no
config goes.  It is sound:
  - an ell-full S joins every pair of its labels by walks of every length
    k >= ell, so those walks start at forward-live and end at backward-live
    states of graph(S);
  - graph(S) is an induced subgraph of graph(T) for every T containing S,
    so those states stay live in T, and no config of S is ever dropped;
  - so every ell-full subset lies inside the fixpoint.
The search still runs over every subset in the same order and charges each
to the budget, but settles one outside the fixpoint without a state graph.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .problems import InternalError, LclProblem, VertexConfig

VERDICT_LOGN = "IN LOCAL(O(log n)) = BAIRE"
VERDICT_NOT = "NOT in LOCAL(O(log n))"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class PathState:
    """Interior vertex snapshot: its config and the label it sends forward."""

    config: VertexConfig
    out_label: int


@dataclass(frozen=True)
class PeriodicityCertificate:
    """step^k == step^(index + (k - index) % period) for all k >= index."""

    index: int
    period: int


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int32) @ b.astype(np.int32)) > 0


class StateTable:
    """Every path state of a problem, in sorted-config order, with its transitions.

    admit[p, i] holds when some in-label of state i's config matches label
    p across an edge and leaves room for the state's out-label; out[i] is
    that out-label, span[c] the indices of config c's states, and edge the
    problem's edge matrix.  Build it through problem.state_table.
    """

    def __init__(self, problem: LclProblem):
        states: list[PathState] = []
        self.span: dict[VertexConfig, range] = {}
        for c in problem.sorted_configs():
            start = len(states)
            states.extend(PathState(c, a) for a in c.distinct())
            self.span[c] = range(start, len(states))
        self.states = tuple(states)
        self.out = np.array([s.out_label for s in states], dtype=np.intp)
        # inlet[i, a]: state i may take label a in and still send its out-label
        inlet = np.zeros((len(states), problem.num_labels), dtype=bool)
        for i, s in enumerate(states):
            for a in s.config.distinct():
                inlet[i, a] = s.config.count(a) >= (2 if a == s.out_label else 1)
        self.edge = problem.edge_matrix
        self.admit = _bool_matmul(self.edge, inlet.T)

    @cached_property
    def live_configs(self) -> frozenset[VertexConfig]:
        """The configs the liveness trim keeps: every ell-full subset's superset."""
        configs = list(self.span)
        starts = np.array([self.span[c].start for c in configs], dtype=np.intp)
        sizes = [len(self.span[c]) for c in configs]
        kept = np.ones(len(self.states), dtype=bool)
        while True:
            picked = np.flatnonzero(kept)
            step = self.admit[self.out[picked, None], picked]
            forward = np.zeros_like(kept)
            forward[picked[_walks_forever(step)]] = True
            backward = np.zeros_like(kept)
            backward[picked[_walks_forever(step.T)]] = True
            # label a may face the path: some forward-live state admits it,
            # and some backward-live state sends a label that edges with it
            ok = (self.admit & forward).any(axis=1) & self.edge[self.out[backward]].any(axis=0)
            stays = np.logical_and.reduceat(ok[self.out] & kept, starts)
            now = np.repeat(stays, sizes)
            if np.array_equal(now, kept):
                return frozenset(c for c, s in zip(configs, stays) if s)
            kept = now


def _walks_forever(step: np.ndarray) -> np.ndarray:
    """Mask of the states that some walk of every length starts from.

    Peels the states with no successor left until none goes; what stays
    is exactly the set of states from which a walk reaches a cycle.
    """
    live = np.ones(len(step), dtype=bool)
    while True:
        now = live & step[:, live].any(axis=1)
        if np.array_equal(now, live):
            return live
        live = now


class PathStateGraph:
    """States (config, out_label) over a config subset, with step relation.

    step[(c, a) -> (c', a')] holds when some in-label of c' matches a across
    an edge and leaves room for a' in c'.  Entry rows share the same formula
    with the endpoint's facing label in place of a; exit only checks the
    edge relation against the far endpoint's facing label.  All three are
    slices of the problem's StateTable at the subset's state indices.
    """

    def __init__(self, problem: LclProblem, subset: Iterable[VertexConfig]):
        self.problem = problem
        self.table = problem.state_table
        self.subset = tuple(sorted(set(subset)))
        picked: list[int] = []
        for c in self.subset:
            span = self.table.span.get(c)
            if span is None:
                raise ValueError(f"config {c.labels} not in the problem")
            picked.extend(span)
        self.picked = np.array(picked, dtype=np.intp)
        self.states = tuple(self.table.states[i] for i in picked)
        self.out = self.table.out[self.picked]
        self.step = self.table.admit[self.out[:, None], self.picked]
        self._powers: Optional[list[np.ndarray]] = None
        self._cert: Optional[PeriodicityCertificate] = None

    @cached_property
    def index(self) -> dict[tuple[VertexConfig, int], int]:
        return {(s.config, s.out_label): i for i, s in enumerate(self.states)}

    def entry_row(self, a1: int) -> np.ndarray:
        return self.table.admit[a1, self.picked]

    def exit_vector(self, a2: int) -> np.ndarray:
        return self.table.edge[self.out, a2]

    def certificate(self) -> PeriodicityCertificate:
        if self._cert is None:
            self._compute_periodicity()
        return self._cert

    def _compute_periodicity(self) -> None:
        n = len(self.states)
        powers = [np.eye(n, dtype=bool)]
        seen = {powers[0].tobytes(): 0}
        while True:
            nxt = _bool_matmul(powers[-1], self.step)
            key = nxt.tobytes()
            if key in seen:
                first = seen[key]
                self._cert = PeriodicityCertificate(first, len(powers) - first)
                self._powers = powers
                return
            seen[key] = len(powers)
            powers.append(nxt)

    def power(self, m: int) -> np.ndarray:
        """step^m, reduced through the periodicity certificate."""
        if m < 0:
            raise ValueError("matrix power must be nonnegative")
        cert = self.certificate()
        if m < len(self._powers):
            return self._powers[m]
        return self._powers[cert.index + (m - cert.index) % cert.period]


def build_state_graph(problem: LclProblem, subset: Iterable[VertexConfig]) -> PathStateGraph:
    return PathStateGraph(problem, subset)


def compute_periodicity(graph: PathStateGraph) -> PeriodicityCertificate:
    return graph.certificate()


def verify_periodicity(graph: PathStateGraph, cert: PeriodicityCertificate) -> bool:
    """Recompute powers from scratch and confirm the certified repetition.

    Nothing in the package calls it: it is the independent reference that
    certificates from compute_periodicity and classify are checked against.
    """
    n = len(graph.states)
    a = np.eye(n, dtype=bool)
    prefix = []
    for _ in range(cert.index + cert.period):
        prefix.append(a)
        a = _bool_matmul(a, graph.step)
    if not np.array_equal(a, prefix[cert.index]):
        return False
    # minimality: no earlier repetition anywhere in the prefix
    for i in range(len(prefix)):
        for j in range(i + 1, len(prefix)):
            if np.array_equal(prefix[i], prefix[j]):
                return False
    return True


def _check_endpoint(graph: PathStateGraph, a: int, c: VertexConfig, who: str) -> None:
    if c not in graph.subset:
        raise ValueError(f"{who} config {c.labels} not in subset")
    if a not in c:
        raise ValueError(f"{who} label not in config")


def connects(
    graph: PathStateGraph, a1: int, c1: VertexConfig, a2: int, c2: VertexConfig, k: int
) -> bool:
    """Is there a k-vertex path labeling with facing labels a1, a2?

    Endpoint configs gate only which labels may face the path; interior
    vertices draw configs from the graph's subset.
    """
    _check_endpoint(graph, a1, c1, "first endpoint")
    _check_endpoint(graph, a2, c2, "second endpoint")
    if k < 2:
        raise ValueError("paths need at least two vertices")
    if k == 2:
        return graph.problem.edge_ok(a1, a2)
    entry = graph.entry_row(a1)
    exit_ = graph.exit_vector(a2)
    reach = _bool_matmul(entry[None, :], graph.power(k - 3))[0]
    return bool(np.any(reach & exit_))


def _ell_scan(graph: PathStateGraph) -> tuple[bool, int]:
    """The one pass behind every ell-full test of a graph.

    With L the labels the subset's states send and K, P the certificate's
    index and period, full[m] says whether entry . step^m . exit is all-true
    over L x L, for m in 0..K+P-1; every larger m repeats a matrix of the
    cycle K..K+P-1.  Returns whether every pair in L may share an edge (the
    2-vertex paths) and the start of full's all-true suffix.
    """
    cert = graph.certificate()
    labels = np.flatnonzero(np.bincount(graph.out))
    edge = graph.table.edge
    pairs_ok = bool(edge[labels[:, None], labels].all())
    entry = graph.table.admit[labels[:, None], graph.picked]
    exit_ = edge[graph.out[:, None], labels]
    tables = _bool_matmul(_bool_matmul(entry, np.stack(graph._powers)), exit_)
    full = tables.reshape(cert.index + cert.period, -1).all(axis=1)
    bad = np.flatnonzero(~full)
    return pairs_ok, int(bad[-1]) + 1 if bad.size else 0


def _is_ell_full(graph: PathStateGraph, ell: int) -> bool:
    if ell < 2:
        raise ValueError("ell must be at least 2")
    pairs_ok, start = _ell_scan(graph)
    if ell == 2 and not pairs_ok:
        return False
    # the exponents m >= max(0, ell-3) reach exactly the powers from
    # min(ell-3, K) to the end of the cycle, since m >= K repeats K..K+P-1
    return min(max(0, ell - 3), graph.certificate().index) >= start


def is_ell_full(problem: LclProblem, subset: Iterable[VertexConfig], ell: int) -> bool:
    return _is_ell_full(build_state_graph(problem, subset), ell)


def _minimal_ell(graph: PathStateGraph) -> Optional[int]:
    # the smallest ell that _is_ell_full accepts: ell = 2 needs the whole
    # cycle and every edge pair, ell >= 3 needs ell-3 >= start, and no ell
    # does once the suffix misses the cycle's start K
    pairs_ok, start = _ell_scan(graph)
    if start == 0 and pairs_ok:
        return 2
    if start > graph.certificate().index:
        return None
    return start + 3


def minimal_ell(problem: LclProblem, subset: Iterable[VertexConfig]) -> Optional[int]:
    """Smallest ell for which the subset is ell-full, or None."""
    return _minimal_ell(build_state_graph(problem, subset))


@dataclass(frozen=True)
class SubsetSearchResult:
    subset: Optional[tuple[VertexConfig, ...]]
    ell: Optional[int]
    exhaustive: bool
    subsets_examined: int
    certificate: Optional[PeriodicityCertificate] = None  # the found subset's


def find_ell_full_set(problem: LclProblem, max_subsets: int = 4096) -> SubsetSearchResult:
    """Search nonempty config subsets, largest first, for an ell-full one.

    exhaustive means the outcome is definitive: either a subset was found,
    or every nonempty subset was ruled out.  A result with no subset and
    exhaustive=False only says the budget ran out.

    Only subsets inside the liveness fixpoint (StateTable.live_configs)
    can be ell-full (see the module docstring), so only they get a state
    graph.  subsets_examined still counts every subset settled in search
    order and charged to the budget, whether or not it needed a graph.
    """
    if max_subsets < 1:
        raise ValueError("subset budget must be positive")
    configs = problem.sorted_configs()
    live = problem.state_table.live_configs
    examined = 0
    for size in range(len(configs), 0, -1):
        for combo in combinations(configs, size):
            if examined >= max_subsets:
                return SubsetSearchResult(None, None, False, examined)
            examined += 1
            if not live.issuperset(combo):
                continue
            graph = build_state_graph(problem, combo)
            ell = _minimal_ell(graph)
            if ell is not None:
                return SubsetSearchResult(
                    tuple(combo), ell, True, examined, graph.certificate()
                )
    return SubsetSearchResult(None, None, True, examined)


def extend_path(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    a1: int,
    c1: VertexConfig,
    a2: int,
    c2: VertexConfig,
    k: int,
) -> Optional[list[tuple[VertexConfig, tuple[int, ...]]]]:
    """Explicit witness for connects: the k-2 interior vertices in order.

    Each entry is (config, ports) where ports[0] is the label facing the
    previous vertex, ports[1] the label facing the next one, and the rest
    of the config sits on the remaining ports in ascending order.  Returns
    None when no witness exists.  Deterministic: smallest states win.
    """
    graph = build_state_graph(problem, subset)
    _check_endpoint(graph, a1, c1, "first endpoint")
    _check_endpoint(graph, a2, c2, "second endpoint")
    if k < 2:
        raise ValueError("paths need at least two vertices")
    if k == 2:
        return [] if problem.edge_ok(a1, a2) else None

    reach = [graph.entry_row(a1)]
    for _ in range(k - 3):
        reach.append(_bool_matmul(reach[-1][None, :], graph.step)[0])
    final_ok = reach[-1] & graph.exit_vector(a2)
    if not final_ok.any():
        return None

    picks = [int(np.argmax(final_ok))]
    for t in range(k - 3, 0, -1):
        nxt = picks[-1]
        options = reach[t - 1] & graph.step[:, nxt]
        picks.append(int(np.argmax(options)))
    picks.reverse()

    witness = []
    prev_out = a1
    for idx in picks:
        state = graph.states[idx]
        c = state.config
        in_label = None
        for cand in c.distinct():
            if not problem.edge_ok(prev_out, cand):
                continue
            if c.count(cand) >= (2 if cand == state.out_label else 1):
                in_label = cand
                break
        if in_label is None:
            raise InternalError("path witness backtrack picked an inadmissible state")
        rest = c.minus(in_label, state.out_label)
        witness.append((c, (in_label, state.out_label) + rest))
        prev_out = state.out_label
    return witness


# --- classification reports ---------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    subset: Optional[tuple[tuple[str, ...], ...]]
    minimal_ell: Optional[int]
    certificate: Optional[PeriodicityCertificate]
    exhaustive: bool
    subsets_examined: int
    budget: int


def classify(problem: LclProblem, max_subsets: int = 4096) -> ClassificationReport:
    result = find_ell_full_set(problem, max_subsets)
    if result.subset is not None:
        names = tuple(
            tuple(problem.name_of(x) for x in c) for c in result.subset
        )
        return ClassificationReport(
            VERDICT_LOGN,
            names,
            result.ell,
            result.certificate,
            True,
            result.subsets_examined,
            max_subsets,
        )
    verdict = VERDICT_NOT if result.exhaustive else VERDICT_INCONCLUSIVE
    return ClassificationReport(
        verdict, None, None, None, result.exhaustive, result.subsets_examined, max_subsets
    )


def serialize_report(report: ClassificationReport) -> str:
    doc = {
        "verdict": report.verdict,
        "subset": [list(c) for c in report.subset] if report.subset is not None else None,
        "minimal_ell": report.minimal_ell,
        "certificate": (
            {"index": report.certificate.index, "period": report.certificate.period}
            if report.certificate is not None
            else None
        ),
        "exhaustive": report.exhaustive,
        "subsets_examined": report.subsets_examined,
        "budget": report.budget,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_report(text: str) -> ClassificationReport:
    doc = json.loads(text)
    cert = doc["certificate"]
    return ClassificationReport(
        verdict=doc["verdict"],
        subset=(
            tuple(tuple(c) for c in doc["subset"]) if doc["subset"] is not None else None
        ),
        minimal_ell=doc["minimal_ell"],
        certificate=(
            PeriodicityCertificate(cert["index"], cert["period"]) if cert else None
        ),
        exhaustive=doc["exhaustive"],
        subsets_examined=doc["subsets_examined"],
        budget=doc["budget"],
    )


def render_report(report: ClassificationReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    if report.subset is not None:
        pretty = ", ".join("{" + " ".join(c) + "}" for c in report.subset)
        lines.append(f"ell-full subset: {pretty}")
        lines.append(f"minimal ell: {report.minimal_ell}")
        lines.append(
            f"periodicity certificate: index {report.certificate.index}, "
            f"period {report.certificate.period}"
        )
    lines.append(
        f"subsets examined: {report.subsets_examined} of budget {report.budget}"
        + (" (exhaustive)" if report.exhaustive else " (budget exhausted)")
    )
    return "\n".join(lines) + "\n"
