"""Constructive solvers driven by an ell-full config subset.

solve_log labels a finite tree along a rake-and-compress layering: isolated
rake vertices take the smallest subset config, rake vertices seeing one
earlier-labeled neighbor answer it through a partner table, and compress
blocks are filled in by explicit path witnesses.  solve_toast does the same
inner-to-outer along a toast (a laminar family of well-separated pieces).
Both raise a certified refutation when the subset turns out not to be
ell-full, and both only ever read the subset, never the full config list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .pathstates import extend_path
from .problems import HalfEdgeLabeling, InternalError, LclProblem, VertexConfig
from .rakecompress import LayeredDecomposition, post_process, simulated_rounds
# unused here; kept because bench/worker.py wraps solver.decompose when tracing
from .rakecompress import decompose  # noqa: F401
from .trees import PortTree, ball, bfs_tree, components, distances

class NotEllFullError(Exception):
    """Carries a concrete counterexample to the subset being ell-full."""

    def __init__(self, kind: str, message: str, **detail):
        super().__init__(message)
        self.kind = kind
        self.detail = detail


def build_partner_table(
    problem: LclProblem, subset: Iterable[VertexConfig]
) -> dict[int, tuple[VertexConfig, int]]:
    """For each label a subset config can show, the smallest (config, label)
    answering it across an edge.  A hole refutes ell-fullness for every ell:
    no path can even leave a vertex facing that label."""
    cfgs = sorted(set(subset))
    table: dict[int, tuple[VertexConfig, int]] = {}
    labels = sorted({a for c in cfgs for a in c.distinct()})
    for a in labels:
        found = None
        for c in cfgs:
            for b in c.distinct():
                if problem.edge_ok(a, b):
                    found = (c, b)
                    break
            if found:
                break
        if found is None:
            raise NotEllFullError(
                "missing-partner",
                f"no subset config can face label {problem.name_of(a)} across an edge; "
                f"the subset is not ell-full for any ell",
                label=a,
            )
        table[a] = found
    return table


def _coerce_config(problem: LclProblem, item) -> VertexConfig:
    """Accept a VertexConfig or a row of label names (as classify reports them)."""
    if isinstance(item, VertexConfig):
        return item
    try:
        return VertexConfig.of(problem.label_by_name(str(name)).id for name in item)
    except KeyError as e:
        raise ValueError(str(e.args[0])) from e


def _check_solver_inputs(
    problem: LclProblem, subset: Iterable[VertexConfig], ell: int, tree: PortTree
) -> list[VertexConfig]:
    cfgs = sorted({_coerce_config(problem, c) for c in subset})
    if not cfgs:
        raise ValueError("subset must be nonempty")
    for c in cfgs:
        if c not in problem.vertex_configs:
            raise ValueError(f"config {c.labels} not in the problem")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if tree.delta != problem.delta:
        raise ValueError("tree delta differs from problem delta")
    return cfgs


class _Assigner:
    """Shared port bookkeeping for both solvers."""

    def __init__(self, problem: LclProblem, tree: PortTree, cfgs: list[VertexConfig]):
        self.problem = problem
        self.tree = tree
        self.cfgs = cfgs
        self.partner = build_partner_table(problem, cfgs)
        self.ports: list[Optional[list[int]]] = [None] * tree.n
        # extend_path results by (a1, c1, a2, c2, k), None included: a
        # witness depends on nothing else, and blocks repeat a few keys
        self.witnesses: dict[tuple, Optional[list]] = {}

    def labeled(self, v: int) -> bool:
        return self.ports[v] is not None

    def facing(self, u: int, v: int) -> int:
        """Label on u's port toward v; u must be labeled."""
        return self.ports[u][self.tree.port_to(u, v)]

    def config_of(self, v: int) -> VertexConfig:
        return VertexConfig.of(self.ports[v])

    def place(self, v: int, directed: dict[int, int], config: VertexConfig) -> None:
        """Set v's ports: directed maps neighbor -> label, leftovers ascend."""
        rest = list(config.labels)
        for lab in directed.values():
            rest.remove(lab)
        it = iter(rest)
        row = []
        for u in self.tree.port_neighbors(v):
            lab = directed.get(u)
            row.append(next(it) if lab is None else lab)
        self.ports[v] = row

    def place_free(self, v: int) -> None:
        self.place(v, {}, self.cfgs[0])

    def place_answering(self, v: int, u: int) -> None:
        """Label v from its single labeled neighbor u via the partner table."""
        a = self.facing(u, v)
        config, b = self.partner[a]
        self.place(v, {u: b}, config)

    def fill_path(self, prev: int, path: Sequence[int], nxt: int) -> None:
        """Witness-label the interior path between labeled prev and nxt."""
        a1, c1 = self.facing(prev, path[0]), self.config_of(prev)
        a2, c2 = self.facing(nxt, path[-1]), self.config_of(nxt)
        k = len(path) + 2
        key = (a1, c1, a2, c2, k)
        if key in self.witnesses:
            witness = self.witnesses[key]
        else:
            witness = self.witnesses[key] = extend_path(self.problem, self.cfgs, *key)
        if witness is None:
            raise NotEllFullError(
                "path-extension",
                f"no {k}-vertex path joins facing labels "
                f"{self.problem.name_of(a1)} and {self.problem.name_of(a2)} "
                f"inside the subset; the subset is not ell-full",
                a1=a1,
                c1=c1,
                a2=a2,
                c2=c2,
                k=k,
            )
        for j, (config, wports) in enumerate(witness):
            v = path[j]
            before = prev if j == 0 else path[j - 1]
            after = nxt if j == len(path) - 1 else path[j + 1]
            self.place(v, {before: wports[0], after: wports[1]}, config)

    def result(self) -> HalfEdgeLabeling:
        if any(row is None for row in self.ports):
            raise InternalError("a vertex was left unlabeled")
        return HalfEdgeLabeling(tuple(tuple(row) for row in self.ports))


def solve_log(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    ell: int,
    tree: PortTree,
) -> HalfEdgeLabeling:
    """Label the tree along a layered decomposition with ell' = max(1, ell-2).

    The subset may hold VertexConfigs or rows of label names, as classify
    reports them.  Deterministic.  Raises NotEllFullError with a concrete
    counterexample if the subset is not ell-full, ValueError on
    inconsistent inputs.
    """
    cfgs = _check_solver_inputs(problem, subset, ell, tree)
    ell_prime = max(1, ell - 2)
    decomp = post_process(tree, ell_prime)
    return solve_on_decomposition(problem, cfgs, decomp)


def solve_on_decomposition(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    decomp: LayeredDecomposition,
) -> HalfEdgeLabeling:
    cfgs = sorted(set(subset))
    tree = decomp.tree
    asg = _Assigner(problem, tree, cfgs)
    for kind, i, verts in decomp.labeling_order():
        if kind == "R":
            for v in sorted(verts):
                done = [u for u in tree.neighbors(v) if asg.labeled(u)]
                if len(done) > 1:
                    raise InternalError("rake vertex sees several labeled neighbors")
                if done:
                    asg.place_answering(v, done[0])
                else:
                    asg.place_free(v)
            continue
        for block in decomp.blocks[i - 1]:
            # a tree has no chords, so distinct vertices each adjacent to the
            # next induce a path
            if not block or any(b not in tree.neighbors(a) for a, b in zip(block, block[1:])):
                raise InternalError("compress block must induce a path")
            # the block's own vertices are still unlabeled, so every labeled
            # neighbor of an end lies outside the block
            ends = block[:1] if len(block) == 1 else (block[0], block[-1])
            contacts = [(v, u) for v in ends for u in tree.neighbors(v) if asg.labeled(u)]
            if len(contacts) != 2 or contacts[0][0] != block[0] or contacts[1][0] != block[-1]:
                raise InternalError(
                    "compress block must touch exactly two labeled vertices, one at each end"
                )
            asg.fill_path(contacts[0][1], block, contacts[1][1])
    return asg.result()


# --- rounds accounting --------------------------------------------------------


@dataclass(frozen=True)
class RoundsReport:
    n: int
    depth: int
    ell_prime: int
    simulated_rounds: int
    ratio: Optional[float]

    def describe(self) -> str:
        head = (
            f"n={self.n} depth={self.depth} ell'={self.ell_prime} "
            f"rounds={self.simulated_rounds}"
        )
        if self.ratio is None:
            return head
        return f"{head} rounds/log2(n)={self.ratio:.2f}"


def round_report(
    problem: LclProblem, tree: PortTree, decomposition: LayeredDecomposition
) -> RoundsReport:
    """Distributed cost model: each layer spends one rake round, ell' rounds
    scanning runs, and a constant promotion pass."""
    if problem.delta != tree.delta:
        raise ValueError("problem and tree disagree on delta")
    if decomposition.tree != tree:
        raise ValueError("decomposition was built on a different tree")
    n = tree.n
    rounds = simulated_rounds(decomposition)
    ratio = rounds / math.log2(n) if n >= 2 else None
    return RoundsReport(n, decomposition.depth, decomposition.ell_prime, rounds, ratio)


# --- toasts -------------------------------------------------------------------


@dataclass(frozen=True)
class Toast:
    q: int
    pieces: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("toast gap q must be at least 2")
        if not self.pieces:
            raise ValueError("toast needs at least one piece")
        if any(not p for p in self.pieces):
            raise ValueError("toast pieces must be nonempty")


def piece_boundary(tree: PortTree, piece: frozenset[int]) -> frozenset[int]:
    """Members adjacent to the outside; empty for the whole vertex set."""
    return frozenset(
        v for v in piece if any(u not in piece for u in tree.neighbors(v))
    )


def verify_toast(tree: PortTree, toast: Toast) -> list[str]:
    """Violation descriptions; empty when the toast is structurally sound."""
    bad = []
    everything = frozenset(range(tree.n))
    pieces = toast.pieces
    if len(set(pieces)) != len(pieces):
        bad.append("duplicate piece")
    for idx, piece in enumerate(pieces):
        if len(components(tree, piece)) > 1:
            bad.append(f"piece {idx} is disconnected")
    if everything not in pieces:
        bad.append("no piece covers the whole tree, so some pair is uncovered")
    boundaries = [piece_boundary(tree, p) for p in pieces]
    # one walk per boundary that has a later piece to measure against
    dists = [distances(tree, bd) if bd else {} for bd in boundaries[:-1]]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            a, b = pieces[i], pieces[j]
            if not (a <= b or b <= a or not (a & b)):
                bad.append(f"pieces {i} and {j} overlap without nesting")
                continue
            if not boundaries[i] or not boundaries[j]:
                continue
            gap = min(dists[i][v] for v in boundaries[j])
            if gap < toast.q:
                bad.append(
                    f"pieces {i} and {j} have boundary gap {gap}, want >= {toast.q}"
                )
    return bad


def build_toast(tree: PortTree, q: int, centers: Iterable[int]) -> Toast:
    """One radius-q ball per center, plus the whole tree on top.

    A ball that already swallows the whole tree collapses into the top
    piece.  Two balls that neither nest nor keep their boundaries q apart
    make a sound toast impossible at this q: verify_toast decides that, and
    build_toast raises a ValueError the caller can fix with fewer or
    farther-apart centers.
    """
    everything = frozenset(range(tree.n))
    pieces: list[frozenset[int]] = []
    for c in centers:
        if not 0 <= c < tree.n:
            raise ValueError(f"center {c} out of range")
        piece = ball(tree, c, q)
        if piece != everything and piece not in pieces:
            pieces.append(piece)
    toast = Toast(q, tuple(pieces) + (everything,))
    if verify_toast(tree, toast):
        raise ValueError(
            "cannot satisfy the q-gap between the centers' balls; "
            "retry with fewer or farther-apart centers"
        )
    return toast


def solve_toast(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    ell: int,
    tree: PortTree,
    toast: Toast,
) -> HalfEdgeLabeling:
    """Label the tree piece by piece, inner pieces first.

    Requires q >= 2*ell + 2 so that every region component adjacent to two
    or more finished pieces has a root at distance >= ell from all of them.
    """
    cfgs = _check_solver_inputs(problem, subset, ell, tree)
    if toast.q < 2 * ell + 2:
        raise ValueError(f"toast gap {toast.q} is below 2*ell+2 = {2 * ell + 2}")
    problems_found = verify_toast(tree, toast)
    if problems_found:
        raise ValueError("toast is not valid: " + "; ".join(problems_found))
    asg = _Assigner(problem, tree, cfgs)

    for piece in sorted(toast.pieces, key=lambda p: (len(p), sorted(p))):
        region = [v for v in piece if not asg.labeled(v)]
        for comp in components(tree, region):
            _label_region_component(asg, ell, set(comp))
    return asg.result()


def _label_region_component(asg: _Assigner, ell: int, comp: set[int]) -> None:
    tree = asg.tree
    contacts = []  # (v inside, b outside already labeled)
    for v in sorted(comp):
        for b in tree.neighbors(v):
            if b not in comp and asg.labeled(b):
                contacts.append((v, b))
    if len(contacts) <= 1:
        root = contacts[0][0] if contacts else min(comp)
    else:
        # two or more finished pieces touch this component: reserve an
        # ell-segment behind each contact and fill those by path witnesses,
        # greedy elsewhere
        mindist = distances(tree, [v for v, _ in contacts], comp)
        root = max(comp, key=lambda v: (mindist[v], -v))
        if mindist[root] < ell:
            raise InternalError("q-gap should leave room for every reservation")
    order, parent = bfs_tree(tree, [root], comp)
    if len(order) != len(comp):
        raise InternalError("region component must be connected")
    if len(contacts) <= 1:
        for v in order:
            if v == root:
                if contacts:
                    asg.place_answering(v, contacts[0][1])
                else:
                    asg.place_free(v)
            else:
                asg.place_answering(v, parent[v])
        return

    segment_of: dict[int, int] = {}
    segments: list[list[int]] = []
    for i, (v, _b) in enumerate(contacts):
        seg = [v]
        while len(seg) < ell:
            seg.append(parent[seg[-1]])
        for x in seg:
            if x in segment_of or x == root:
                raise InternalError("reserved segments must not overlap or hold the root")
            segment_of[x] = i
        segments.append(seg)
    for v in order:
        if asg.labeled(v):
            continue
        i = segment_of.get(v)
        if i is None:
            if v == root:
                asg.place_free(v)
            else:
                asg.place_answering(v, parent[v])
        else:
            seg = segments[i]
            # v is the segment vertex nearest the root, so its parent is done
            path = list(reversed(seg))
            if path[0] != v or not asg.labeled(parent[v]):
                raise InternalError("a reserved segment must hang off a labeled vertex")
            asg.fill_path(parent[v], path, contacts[i][1])
