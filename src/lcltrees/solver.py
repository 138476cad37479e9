"""Constructive solvers driven by an ell-full config subset.

solve_log labels a finite tree along a rake-and-compress layering: isolated
rake vertices take the smallest subset config, rake vertices seeing one
earlier-labeled neighbor answer it through a partner table, and compress
blocks are filled in by explicit path witnesses.  It labels a whole layer
per step in array passes: a rake layer is one gather through a (facing
label, port) table, a compress layer one witness lookup per distinct block
key and one gather of witness rows.  solve_toast labels inner-to-outer
along a toast (a laminar family of well-separated pieces) with the same
passes: a breadth-first level answers its parents in one gather.
Both raise a certified refutation when the subset turns out not to be
ell-full, and both only ever read the subset, never the full config list.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from typing import Iterable, Optional

import numpy as np

from .pathstates import extend_path
from .problems import HalfEdgeLabeling, InternalError, LclProblem, VertexConfig
from .rakecompress import NOT_A_PATH, LayeredDecomposition, post_process, read_blocks
# unused here; kept because bench/worker.py wraps solver.decompose when tracing
from .rakecompress import decompose  # noqa: F401
from .trees import (
    PortTree, ball, bfs_tree, capped_distances, components, distances, inward_ports
)

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
        return VertexConfig.of(problem.label_by_name(name).id for name in item)
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
    """Port bookkeeping for both solvers.

    Every labeled vertex holds one row, its labels in port order: rows lists
    the distinct rows and row[v] indexes v's row, -1 while v is unlabeled.
    Three tables decide every row: the free row (the smallest subset config,
    ascending), answer[a, p] for a vertex answering label a across its port
    p, and the witness rows by (witness, position, port before, port after).
    Both solvers write rows only through place_answers (each vertex answers
    one labeled neighbor, or is free) and compress (blocks by witnesses).
    """

    def __init__(self, problem: LclProblem, tree: PortTree, cfgs: list[VertexConfig]):
        self.problem = problem
        self.tree = tree
        self.cfgs = cfgs
        self._config_index = {c: i for i, c in enumerate(cfgs)}
        self.rows: list[tuple[int, ...]] = []
        self._row_ids: dict[tuple[int, ...], int] = {}
        self._row_config: list[int] = []  # index into cfgs
        self._table = np.empty((0, tree.delta), np.int64)  # rows as an array
        # one extra slot, always -1, answers the -1 of a virtual port
        self.row = np.full(tree.n + 1, -1, np.int64)
        self.free = self._row({}, cfgs[0])
        # the extra last column, all free rows, answers port -1: no neighbor
        self.answer = np.full((problem.num_labels, tree.delta + 1), self.free, np.int64)
        for a, (config, b) in build_partner_table(problem, cfgs).items():
            for p in range(tree.delta):
                self.answer[a, p] = self._row({p: b}, config)
        # extend_path results, None included, each found once per key
        # (a1, c1, a2, c2, k) with c1 and c2 as indices into cfgs: a witness
        # depends on nothing else, and blocks repeat a few keys
        self.witnesses: dict[tuple[int, ...], int] = {}  # key -> index in _found
        self._found: list[Optional[list]] = []
        self._witness_rows: dict[tuple[int, int, int, int], int] = {}

    def _row(self, directed: dict[int, int], config: VertexConfig) -> int:
        """The row putting directed's label on each of its ports and the
        rest of config ascending on the others."""
        rest = list(config.labels)
        for lab in directed.values():
            rest.remove(lab)
        it = iter(rest)
        row = tuple(directed[p] if p in directed else next(it) for p in range(self.tree.delta))
        rid = self._row_ids.get(row)
        if rid is None:
            rid = self._row_ids[row] = len(self.rows)
            self.rows.append(row)
            self._row_config.append(self._config_index[config])
        return rid

    def _labels(self, verts: np.ndarray, ports: np.ndarray) -> np.ndarray:
        """The label on each given port of each given labeled vertex."""
        if len(self._table) != len(self.rows):
            self._table = np.array(self.rows, np.int64)
        return self._table[self.row[verts], ports]

    def _witness(self, key: tuple[int, ...]) -> int:
        """The memo index of the witness for key; NotEllFullError when
        there is none."""
        w = self.witnesses.get(key)
        if w is None:
            a1, c1, a2, c2, k = key
            w = self.witnesses[key] = len(self._found)
            self._found.append(
                extend_path(self.problem, self.cfgs, a1, self.cfgs[c1], a2, self.cfgs[c2], k)
            )
        if self._found[w] is None:
            a1, c1, a2, c2, k = key
            raise NotEllFullError(
                "path-extension",
                f"no {k}-vertex path joins facing labels "
                f"{self.problem.name_of(a1)} and {self.problem.name_of(a2)} "
                f"inside the subset; the subset is not ell-full",
                a1=a1,
                c1=self.cfgs[c1],
                a2=a2,
                c2=self.cfgs[c2],
                k=k,
            )
        return w

    def _witness_row(self, w: int, j: int, before: int, after: int) -> int:
        """Row of the j-th path vertex of witness w, whose ports toward the
        vertices before and after it are the given ones."""
        key = (w, j, before, after)
        rid = self._witness_rows.get(key)
        if rid is None:
            config, wports = self._found[w][j]
            rid = self._witness_rows[key] = self._row(
                {before: wports[0], after: wports[1]}, config
            )
        return rid

    def place_answers(self, verts: np.ndarray, ports: np.ndarray) -> None:
        """Label each vertex to answer the labeled neighbor on its given
        port, or with the free row where the port is -1."""
        tree = self.tree
        # port -1 reads the last port, whose label answer[:, -1] ignores
        facing = self._labels(tree.nbr[verts, ports], tree.back[verts, ports])
        self.row[verts] = self.answer[facing, ports]

    def rake(self, verts: np.ndarray) -> None:
        """Label a rake layer: a vertex with no labeled neighbor takes the
        free row, one with a single labeled neighbor answers it.  A layer
        holding an edge is refused, since its order would decide the rows."""
        nbr = self.tree.nbr[verts]
        inside = np.zeros(self.tree.n + 1, bool)
        inside[verts] = True
        if inside[nbr].any():
            raise InternalError("rake layer must be an independent set")
        done = self.row[nbr] >= 0
        count = done.sum(axis=1)
        if (count > 1).any():
            raise InternalError("rake vertex sees several labeled neighbors")
        self.place_answers(verts, np.where(count > 0, done.argmax(axis=1), -1))

    def compress(self, flat: np.ndarray, sizes: np.ndarray) -> None:
        """Label a compress layer, blocks of the given sizes one after
        another in flat, by path witnesses, one per distinct key.

        Blocks joined by an edge are refused, since their order would
        decide the rows.  Otherwise the first block, in layer order, that
        read_blocks finds at fault or that has no witness decides the
        exception.
        """
        if not sizes.size:
            return
        tree = self.tree
        touching, fault, before, after = read_blocks(tree, flat, sizes, self.row >= 0)
        if touching:
            raise InternalError("compress blocks of one layer must not touch")
        failed = np.flatnonzero(fault)
        stop = failed[0] if failed.size else sizes.size
        # the blocks before the first failure ask for their witnesses
        starts = np.cumsum(sizes) - sizes
        first = starts[:stop]
        last = first + sizes[:stop] - 1
        config = np.array(self._row_config, np.int64)
        columns = []
        for v, p in ((flat[first], before[first]), (flat[last], after[last])):
            # an end's labeled neighbor u: u's label facing the end, u's config
            u = tree.nbr[v, p]
            columns += [self._labels(u, tree.back[v, p]), config[self.row[u]]]
        keys = np.stack(columns + [sizes[:stop] + 2], axis=1)
        distinct, seen_at, key_of = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        witness = np.empty(len(distinct), np.int64)
        for d in np.argsort(seen_at):
            witness[d] = self._witness(tuple(distinct[d].tolist()))
        if stop < sizes.size:
            if fault[stop] == NOT_A_PATH:
                raise InternalError("compress block must induce a path")
            raise InternalError(
                "compress block must touch exactly two labeled vertices, one at each end"
            )
        w = np.repeat(witness[key_of.ravel()], sizes)
        j = np.arange(flat.size) - np.repeat(starts, sizes)
        code = ((w * sizes.max() + j) * tree.delta + before) * tree.delta + after
        _, one, row_of = np.unique(code, return_index=True, return_inverse=True)
        rids = [
            self._witness_row(*args)
            for args in zip(*(x[one].tolist() for x in (w, j, before, after)))
        ]
        self.row[flat] = np.array(rids, np.int64)[row_of.ravel()]

    def result(self) -> HalfEdgeLabeling:
        """The labeling of the rows some vertex holds, in the order they were made."""
        row = self.row[:-1]
        if (row < 0).any():
            raise InternalError("a vertex was left unlabeled")
        used = np.bincount(row, minlength=len(self.rows)) > 0
        rows = tuple(compress(self.rows, used.tolist()))
        return HalfEdgeLabeling._of_rows(rows, (np.cumsum(used) - 1)[row])


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
    """Label decomp's tree along its layers, outermost rake layer last.

    Takes the subset as solve_log does and raises ValueError on the inputs
    solve_log refuses; the ell checked is ell' + 2, which the decomposition
    serves.  Raises NotEllFullError if the subset is not ell-full.
    """
    cfgs = _check_solver_inputs(problem, subset, decomp.ell_prime + 2, decomp.tree)
    asg = _Assigner(problem, decomp.tree, cfgs)
    for j in reversed(range(len(decomp.layers))):
        if j % 2:
            asg.compress(decomp.layers[j], decomp.sizes[j // 2])
        else:
            asg.rake(decomp.layers[j])
    return asg.result()


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
    """Members adjacent to the outside; empty for the whole vertex set.
    Raises ValueError for a member outside the tree."""
    outside = [v for v in piece if not 0 <= v < tree.n]
    if outside:
        raise ValueError(f"vertex {min(outside)} is outside the tree")
    verts = np.fromiter(piece, np.int64, len(piece))
    return frozenset(verts[~inward_ports(tree, verts).all(axis=1)].tolist())


def verify_toast(tree: PortTree, toast: Toast) -> list[str]:
    """Violation descriptions; empty when the toast is structurally sound.

    A piece (a forest, as every vertex set of a tree) is connected when it
    holds |piece| - 1 edges.  Only gaps below q are reported, so q - 1
    frontier steps measure them; none is measured to a piece outside the tree.
    """
    bad = []
    pieces = toast.pieces
    if len(set(pieces)) != len(pieces):
        bad.append("duplicate piece")
    boundaries = []
    for idx, piece in enumerate(pieces):
        verts = np.fromiter((v if 0 <= v < tree.n else -1 for v in piece), np.int64, len(piece))
        if verts.min() < 0:
            bad.append(f"piece {idx} holds a vertex outside the tree")
            boundaries.append(verts[:0])
            continue
        inward = inward_ports(tree, verts)
        if inward.sum() - (tree.nbr[verts] < 0).sum() != 2 * len(verts) - 2:
            bad.append(f"piece {idx} is disconnected")
        boundaries.append(verts[~inward.all(axis=1)])
    if frozenset(range(tree.n)) not in pieces:
        bad.append("no piece covers the whole tree, so some pair is uncovered")
    near = [capped_distances(tree, bd, toast.q) for bd in boundaries[:-1]]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            a, b = pieces[i], pieces[j]
            if not (a <= b or b <= a or not (a & b)):
                bad.append(f"pieces {i} and {j} overlap without nesting")
                continue
            if not boundaries[i].size or not boundaries[j].size:
                continue
            gap = int(near[i][boundaries[j]].min())
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
    return _solve_toast(problem, subset, ell, tree, toast, verified=False)


def _solve_toast(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    ell: int,
    tree: PortTree,
    toast: Toast,
    verified: bool,
) -> HalfEdgeLabeling:
    """solve_toast; verified says that verify_toast has already passed this
    toast on this tree, as it has every toast build_toast returns."""
    cfgs = _check_solver_inputs(problem, subset, ell, tree)
    if toast.q < 2 * ell + 2:
        raise ValueError(f"toast gap {toast.q} is below 2*ell+2 = {2 * ell + 2}")
    problems_found = [] if verified else verify_toast(tree, toast)
    if problems_found:
        raise ValueError("toast is not valid: " + "; ".join(problems_found))
    asg = _Assigner(problem, tree, cfgs)
    for piece in sorted(toast.pieces, key=lambda p: (len(p), sorted(p))):
        verts = np.fromiter(piece, np.int64, len(piece))
        for comp in components(tree, verts[asg.row[verts] < 0].tolist()):
            _label_region_component(asg, ell, comp)
    return asg.result()


def _label_region_component(asg: _Assigner, ell: int, comp: list[int]) -> None:
    """Label a component of unlabeled vertices one breadth-first level at a
    time from its root: the contact vertex, or with two or more contacts the
    vertex farthest from them, with an ell-vertex segment reserved behind
    each.  A segment is a compress block, listed top to contact, at its top's
    level."""
    tree = asg.tree
    within = set(comp)
    # comp is unlabeled, so every labeled neighbor lies outside it
    at, port = np.nonzero(asg.row[tree.nbr[comp]] >= 0)
    contacts = [comp[i] for i in at.tolist()]
    root, root_port = (contacts[0], int(port[0])) if contacts else (min(comp), -1)
    if len(contacts) > 1:
        mindist = distances(tree, contacts, within)
        root, root_port = min(mindist, key=lambda v: (-mindist[v], v)), -1
        if mindist[root] < ell:
            raise InternalError("q-gap should leave room for every reservation")
    order, parent = bfs_tree(tree, [root], within)
    if len(order) != len(within):
        raise InternalError("region component must be connected")
    depth = {root: 0}
    for v, u in islice(parent.items(), 1, None):
        depth[v] = depth[u] + 1
    segments = []
    for v in contacts if len(contacts) > 1 else ():
        seg = [v]
        while len(seg) < ell:
            seg.append(parent[seg[-1]])
        segments.append(seg[::-1])  # top to contact
    reserved = list(chain.from_iterable(segments))
    if len(set(reserved)) < len(reserved) or root in reserved:
        raise InternalError("reserved segments must not overlap or hold the root")
    at_top = {seg[0]: seg for seg in segments}
    walk = np.array(order)
    blocks_at: dict[int, list[list[int]]] = {}
    for top in walk[np.isin(walk, list(at_top))].tolist():
        blocks_at.setdefault(depth[top], []).append(at_top[top])
    above = np.fromiter(islice(parent.values(), 1, None), np.int64, len(order) - 1)
    ports = np.append(root_port, (tree.nbr[walk[1:]] == above[:, None]).argmax(axis=1))
    level = np.fromiter(depth.values(), np.int64, len(order))
    keep = ~np.isin(walk, reserved)
    bounds = np.cumsum(np.append(0, keep))[np.flatnonzero(np.diff(level, prepend=-1, append=-1))]
    walk, ports, bounds = walk[keep], ports[keep], bounds.tolist()
    for lev, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a < b:
            asg.place_answers(walk[a:b], ports[a:b])
        if lev in blocks_at:
            asg.compress(np.concatenate(blocks_at[lev]), np.full(len(blocks_at[lev]), ell))
