"""Path feasibility and the ell-full condition.

A subset of vertex configs is ell-full when every pair of configs, with
every choice of facing labels at the two path endpoints, can be joined by a
correctly labeled path of k vertices for every k >= ell, using only subset
configs on the interior.  Walking a path one interior vertex at a time only
needs the previous vertex's forward label, so interior feasibility is a
walk in a finite state graph and long-path behavior is settled by the
eventual periodicity of its boolean adjacency powers.

Each problem numbers its states once (StateTable, cached on the problem);
a set of states is a Python int with bit i for state i.  The states that
may follow a vertex depend only on the label l it sent, so per label the
table keeps outmask[l], the states that send l, admit[l], the states that
may take l in, and exitmask[l], the states whose out-label may share an
edge with l.  With P a subset's states, a walk steps from the states M by
the per-label step identity step(M) = OR{admit[l] : M & outmask[l]} & P,
at most |labels| int operations however many states there are.  Row i of
step^m (m >= 1) is step^(m-1)(admit[l] & P) for the label l state i sends,
so the powers are tuples of one row per sent label and repeat exactly when
those tuples do.  A graph holds masks only: connects asks whether
entry(a1) . step^(k-3) meets exitmask[a2], and verify_periodicity, the
independent check, builds its bool matrix from the definitions rather than
from the masks.  The ell-full test makes one pass over the power cycle,
recording for each exponent m up to index + period - 1 whether every entry
row stepped m times meets every exit mask; every ell is decided from the
all-true suffix of those flags.

Before the search, each problem trims its configs once, on the table.  In
the graph of the configs still kept, a state is forward-live when a walk
from it reaches a cycle and backward-live when a cycle reaches it; a config
goes when one of its labels a has no forward-live state in admit[a] or no
backward-live state in exitmask[a], until no config goes.  It is sound: an
ell-full S joins every pair of its labels by walks of every length k >= ell,
which start at forward-live and end at backward-live states of graph(S);
graph(S) is an induced subgraph of graph(T) for every T containing S, so
those states stay live in T and every ell-full subset lies inside the
fixpoint.  The search still runs over every subset in the same order and
charges each to the budget, but settles one outside the fixpoint without a
state graph.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Any, Iterable, Optional

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


def _members(mask: int) -> list[int]:
    """The positions of mask's set bits, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _step(moves: Iterable[tuple[int, int]], states: int) -> int:
    """The union of the second masks of the pairs whose first mask meets states."""
    reached = 0
    for first, second in moves:
        if states & first:
            reached |= second
    return reached


def _walks_forever(live: int, moves: list[tuple[int, int]]) -> int:
    """The states of live that a walk of every length starts from, for moves
    pairing each label's takers with its senders (the other way round: ends
    at).  Peels the states with no successor left until none goes."""
    while (now := _step(moves, live) & live) != live:
        live = now
    return live


class StateTable:
    """Every path state of a problem, in sorted-config order; state i is bit i.

    mask_of[c] holds config c's states; outmask, admit and exitmask are the
    per-label masks of the module docstring, where a state admits l when an
    in-label that edges with l leaves room for its out-label.  Build it
    through problem.state_table.
    """

    def __init__(self, problem: LclProblem):
        partners, ids = problem.partner_masks, range(problem.num_labels)
        states: list[PathState] = []
        inlets = []  # per state, the mask of in-labels that leave room for its out-label
        self.mask_of: dict[VertexConfig, int] = {}
        self.outmask = [0] * problem.num_labels
        for c in problem.sorted_configs():
            start, labels = len(states), c.distinct()
            held = sum(1 << b for b in labels)
            for a in labels:
                self.outmask[a] |= 1 << len(states)
                states.append(PathState(c, a))
                inlets.append(held if c.count(a) > 1 else held & ~(1 << a))
            self.mask_of[c] = (1 << len(states)) - (1 << start)
        self.states = tuple(states)
        self.admit = [sum(1 << i for i, t in enumerate(inlets) if t & partners[l]) for l in ids]
        sends = [(1 << l, m) for l, m in enumerate(self.outmask)]
        self.exitmask = [_step(sends, partners[l]) for l in ids]

    @cached_property
    def live_configs(self) -> frozenset[VertexConfig]:
        """The configs the liveness trim keeps: every ell-full subset's superset."""
        labels = range(len(self.outmask))
        # each config with the mask of its states and the mask of its labels
        configs = [(c, m, sum(1 << a for a in c.distinct())) for c, m in self.mask_of.items()]
        kept = (1 << len(self.states)) - 1
        while True:
            moves = [(self.outmask[l] & kept, self.admit[l] & kept) for l in labels]
            forward = _walks_forever(kept, [(t, s) for s, t in moves])
            backward = _walks_forever(kept, moves)
            # label a may face the path: some forward-live state admits it,
            # and some backward-live state sends a label that edges with it
            ok = sum(
                1 << a for a in labels if self.admit[a] & forward and self.exitmask[a] & backward
            )
            now = sum(mask for _c, mask, held in configs if mask & kept and not held & ~ok)
            if now == kept:
                return frozenset(c for c, mask, _ in configs if mask & kept)
            kept = now


class PathStateGraph:
    """States (config, out_label) over a config subset, held as masks.

    mask holds the subset's states in the problem's StateTable, labels the
    labels they send (ascending), and moves the pairs (outmask[l] & mask,
    admit[l] & mask) for those labels: state (c', a') may follow a state
    that sends a when some in-label of c' edges with a and leaves room for
    a' in c'.  reach(a, m) is the mask entry(a) . step^m, the states a walk
    entered by facing label a can be at after m steps.
    """

    def __init__(self, problem: LclProblem, subset: Iterable[VertexConfig]):
        self.problem = problem
        self.table = table = problem.state_table
        self.subset = tuple(sorted(set(subset)))
        mask = 0
        for c in self.subset:
            held = table.mask_of.get(c)
            if held is None:
                raise ValueError(f"config {c.labels} not in the problem")
            mask |= held
        self.mask = mask
        self.states = tuple(table.states[i] for i in _members(mask))
        self.labels = tuple(l for l, senders in enumerate(table.outmask) if senders & mask)
        self.moves = tuple((table.outmask[l] & mask, table.admit[l] & mask) for l in self.labels)
        # _reach[m][j]: the states entry . step^m reaches from labels[j]
        self._reach: Optional[list[tuple[int, ...]]] = None
        self._cert: Optional[PeriodicityCertificate] = None

    def certificate(self) -> PeriodicityCertificate:
        if self._cert is None:
            self._compute_periodicity()
        return self._cert

    def _compute_periodicity(self) -> None:
        # step^m for m >= 1 is the tuple of rows _reach[m - 1]; the identity
        # is such a tuple only when every label has one state, its own bit
        ident = tuple(senders for senders, _ in self.moves)
        seen = {ident: 0} if all(s & (s - 1) == 0 for s in ident) else {}
        rows = tuple(takers for _, takers in self.moves)
        reach = []
        while rows not in seen:
            reach.append(rows)
            seen[rows] = len(reach)
            rows = tuple(_step(self.moves, r) for r in rows)
        reach.append(rows)
        self._cert = PeriodicityCertificate(seen[rows], len(reach) - seen[rows])
        self._reach = reach

    def reach(self, a: int, m: int) -> int:
        """entry(a) . step^m for a label a in labels, m reduced through the
        periodicity certificate."""
        if m < 0:
            raise ValueError("step count must be nonnegative")
        cert = self.certificate()
        if m >= cert.index + cert.period:
            m = cert.index + (m - cert.index) % cert.period
        return self._reach[m][self.labels.index(a)]


def build_state_graph(problem: LclProblem, subset: Iterable[VertexConfig]) -> PathStateGraph:
    return PathStateGraph(problem, subset)


def compute_periodicity(graph: PathStateGraph) -> PeriodicityCertificate:
    return graph.certificate()


def verify_periodicity(graph: PathStateGraph, cert: PeriodicityCertificate) -> bool:
    """Recompute powers from scratch and confirm the certified repetition.

    Nothing in the package calls it: it is the independent reference that
    certificates from compute_periodicity and classify are checked against.
    It reads only the graph's problem and subset, not its masks: the states
    are (c, a) for c in the subset and a in c.distinct(), and (c, a) steps
    to (c', a') when some in-label b of c' has edge_ok(a, b) and
    c'.count(b) > (b == a').
    """
    if {type(cert.index), type(cert.period)} != {int} or cert.index < 0 or cert.period < 1:
        return False
    states = [(c, a) for c in graph.subset for a in c.distinct()]
    step = np.array(
        [
            [
                any(graph.problem.edge_ok(a, b) and c.count(b) > (b == out) for b in c.distinct())
                for c, out in states
            ]
            for _, a in states
        ],
        dtype=np.int32,
    ).reshape(len(states), len(states))
    a = np.eye(len(states), dtype=bool)
    prefix = []
    for _ in range(cert.index + cert.period):
        prefix.append(a)
        a = (a.astype(np.int32) @ step) > 0
    if not np.array_equal(a, prefix[cert.index]):
        return False
    # minimality: no earlier repetition anywhere in the prefix
    return len({p.tobytes() for p in prefix}) == len(prefix)


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
    return bool(graph.reach(a1, k - 3) & graph.table.exitmask[a2])


def _ell_scan(graph: PathStateGraph) -> tuple[bool, int]:
    """The one pass behind every ell-full test of a graph.

    With L the labels the subset's states send and K, P the certificate's
    index and period, full[m] says whether entry . step^m . exit is all-true
    over L x L, for m in 0..K+P-1 (larger m repeat the cycle K..K+P-1): row
    j of _reach[m], entry(L[j]) . step^m, must meet every exit mask.
    Returns whether every pair in L may share an edge (the 2-vertex paths)
    and the start of full's all-true suffix.
    """
    graph.certificate()  # fills graph._reach
    partners = graph.problem.partner_masks
    held = sum(1 << l for l in graph.labels)
    pairs_ok = all(partners[l] & held == held for l in graph.labels)
    exits = [graph.table.exitmask[l] for l in graph.labels]
    for m in range(len(graph._reach) - 1, -1, -1):
        if not all(row & x for row in graph._reach[m] for x in exits):
            return pairs_ok, m + 1
    return pairs_ok, 0


def is_ell_full(problem: LclProblem, subset: Iterable[VertexConfig], ell: int) -> bool:
    least = minimal_ell(problem, subset)
    if ell < 2:
        raise ValueError("ell must be at least 2")
    # ell-fullness is monotone in ell, so it holds from the minimal ell on
    return least is not None and least <= ell


def _minimal_ell(graph: PathStateGraph) -> Optional[int]:
    # ell = 2 needs every edge pair and the whole cycle all-true; ell >= 3
    # needs the powers from min(ell-3, K) on (m >= K repeats K..K+P-1) in the
    # all-true suffix, so ell-3 >= start, and no ell does once start > K
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

    reach = [graph.table.admit[a1] & graph.mask]
    for _ in range(k - 3):
        reach.append(_step(graph.moves, reach[-1]))
    final_ok = reach[-1] & graph.table.exitmask[a2]
    if not final_ok:
        return None

    # the smallest state that ends the path, then back through the smallest
    # state of each reach mask that sends a label the next pick takes in
    back = [(takers, senders) for senders, takers in graph.moves]
    picks = [_lowest(final_ok)]
    for t in range(k - 3, 0, -1):
        options = reach[t - 1] & _step(back, 1 << picks[-1])
        if not options:
            raise InternalError("path witness backtrack found no predecessor")
        picks.append(_lowest(options))
    picks.reverse()

    witness = []
    prev_out = a1
    for idx in picks:
        c, out = graph.table.states[idx].config, graph.table.states[idx].out_label
        # the smallest in-label that edges with prev_out and leaves room for out
        fits = (b for b in c.distinct() if problem.edge_ok(prev_out, b) and c.count(b) > (b == out))
        in_label = next(fits, None)
        if in_label is None:
            raise InternalError("path witness backtrack picked an inadmissible state")
        witness.append((c, (in_label, out) + c.minus(in_label, out)))
        prev_out = out
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
        names = tuple(tuple(map(problem.name_of, c)) for c in result.subset)
        return ClassificationReport(
            VERDICT_LOGN, names, result.ell, result.certificate, True,
            result.subsets_examined, max_subsets,
        )
    verdict = VERDICT_NOT if result.exhaustive else VERDICT_INCONCLUSIVE
    return ClassificationReport(
        verdict, None, None, None, result.exhaustive, result.subsets_examined, max_subsets
    )


def serialize_report(report: ClassificationReport) -> str:
    # the keys in field order, the certificate as {"index", "period"}
    cert = report.certificate
    doc = {**vars(report), "certificate": vars(cert) if cert is not None else None}
    return json.dumps(doc, indent=2) + "\n"


def parse_report(text: str) -> ClassificationReport:
    """The report serialize_report wrote; ValueError names the first key
    that is missing or holds a value of another type."""
    doc, none = json.loads(text), type(None)

    def get(d: object, key: str, *types: type) -> Any:
        if not isinstance(d, dict) or key not in d:
            raise ValueError(f"report has no key {key!r}")
        if type(d[key]) not in types:
            raise ValueError(f"report key {key!r} holds a {type(d[key]).__name__}")
        return d[key]

    verdict, subset = get(doc, "verdict", str), get(doc, "subset", list, none)
    if any(type(c) is not list or not set(map(type, c)) <= {str} for c in subset or ()):
        raise ValueError("report key 'subset' holds a config that is no list of names")
    ell, cert = get(doc, "minimal_ell", int, none), get(doc, "certificate", dict, none)
    if cert is not None:
        cert = PeriodicityCertificate(get(cert, "index", int), get(cert, "period", int))
    return ClassificationReport(
        verdict, tuple(map(tuple, subset)) if subset is not None else None, ell, cert,
        get(doc, "exhaustive", bool), get(doc, "subsets_examined", int), get(doc, "budget", int),
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
