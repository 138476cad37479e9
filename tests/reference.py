"""Plain per-item versions of code the package now runs on arrays.

These are the tree, labeling and toast checks as they stood before PortTree
moved to port arrays, kept as they were apart from their names: a tree of
(neighbor, port) tuples checked port by port, a builder checking each edge
as it comes, the edge-by-edge parser, the vertex-by-vertex labeling check,
verify_toast walking from piece i's boundary once per later piece, and
piece_boundary testing each member's neighbors against the piece.

Then the rake-and-compress layering and layer-by-layer labeling as they
stood before both moved to whole-layer array passes: a residual forest of
Python sets walked vertex by vertex, decompose, post_process, and
solve_on_decomposition placing one vertex at a time.  The only change
beyond names is that the assigner keeps no witness memo, so it asks
extend_path once per compress block.

Then three pieces as they stood before smaller versions replaced them:
the subset search that builds a state graph for every subset it examines
(with the classify that wraps it), the command-line parser that adds every
subcommand's arguments whatever the command line names, and ordered_path,
the walk that lists a block's vertices from its smaller-id endpoint.  With
the search, the state graph as it stood before it moved to a per-problem
table of label masks (RefStateGraph): a step matrix filled pair by pair
from the definitions, its own power sequence, and connects and ell-fullness
read from those powers; and extend_path as it stood then: reach vectors by
boolean matrix products over that step matrix, and a backtrack that takes
np.argmax of each candidate vector.  Neither reads the package's masks.

Then solve_toast as it stood before it labeled through the solver's
array passes: each region component walked from its root, one vertex at a
time, through _RefAssigner's per-vertex methods (which place the same rows
the package's assigner placed vertex by vertex), reserved segments filled
by path witnesses as the walk reaches them.

Then parse_labeling as it stood before labelings were row-indexed and the
writer's layout got a scan route: json.loads, then one record at a time.

Then h_table and class_census as they stood before a pole-free subtree
became one label mask: every vertex holds its up-label sets as a dict of
offsets, and every table of a census builds its own vertex step.  That
step (RefVertexStep) is the one from before label sets became int masks:
each configuration a Counter, the child edges given labels from it one by
one.  With them, concat_bipolar and pumping_decompose as they stood before
both became one fold over the pieces: boolean relations over an edge_ok
matrix, and pumping that concatenates every prefix afresh.

Then the subtree splice behind check_replacement as it stood before it
built its edge columns directly: a builder fed edge by edge, each boundary
edge's port found by scanning the outside vertex's port row.

The differential tests hold the package to their results.

Last, two helpers that move between a LayeredDecomposition's vertex arrays
and the vertex sets and blocks that hand-made layerings are written in:
layering builds one, blocks_of reads each compress layer's blocks back.
"""
from __future__ import annotations

import argparse
import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from random import Random
from itertools import accumulate, combinations, product, zip_longest
from typing import Collection, Iterable, Iterator, Optional, Sequence

import numpy as np

from lcltrees import cli
from lcltrees.equivalence import (
    CensusReport,
    HTable,
    PoledTree,
    _multisets,
)
from lcltrees.pathstates import (
    VERDICT_LOGN,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    ClassificationReport,
    PathState,
    PeriodicityCertificate,
    SubsetSearchResult,
    _minimal_ell,
    build_state_graph,
    extend_path,
)
from lcltrees.problems import (
    HalfEdgeLabeling,
    InternalError,
    LclProblem,
    ProblemFormatError,
    ValidityReport,
    VertexConfig,
    load_json,
)
from lcltrees.rakecompress import LayeredDecomposition, RawDecomposition
from lcltrees.solver import (
    NotEllFullError,
    Toast,
    _check_solver_inputs,
    build_partner_table,
)
from lcltrees.trees import (
    MAX_DELTA,
    PortTree,
    TreeFormatError,
    TreeGenSpec,
    bfs_tree,
    components,
    distances,
    gen_tree,
)

PortTarget = Optional[tuple[int, int]]


@dataclass(frozen=True)
class RefPortTree:
    delta: int
    ports: tuple[tuple[PortTarget, ...], ...]

    def __post_init__(self) -> None:
        if self.delta < 3:
            raise ValueError("delta must be at least 3")
        n = len(self.ports)
        if n == 0:
            raise ValueError("tree must have at least one vertex")
        edge_count = 0
        for v, row in enumerate(self.ports):
            if len(row) != self.delta:
                raise ValueError(f"vertex {v} has {len(row)} ports, want {self.delta}")
            for p, tgt in enumerate(row):
                if tgt is None:
                    continue
                u, q = tgt
                if not (0 <= u < n) or not (0 <= q < self.delta):
                    raise ValueError(f"port {v}:{p} points outside the tree")
                if self.ports[u][q] != (v, p):
                    raise ValueError(f"port asymmetry at {v}:{p} vs {u}:{q}")
                edge_count += 1
        if edge_count != 2 * (n - 1):
            raise ValueError(f"tree on {n} vertices must have {n - 1} edges")
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for tgt in self.ports[v]:
                if tgt is not None and tgt[0] not in seen:
                    seen.add(tgt[0])
                    queue.append(tgt[0])
        if len(seen) != n:
            raise ValueError("tree is disconnected")

    @property
    def n(self) -> int:
        return len(self.ports)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(t[0] for t in row if t is not None) for row in self.ports)

    def neighbors(self, v: int) -> list[int]:
        return list(self._adjacency[v])

    def real_degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def port_to(self, u: int, v: int) -> int:
        for p, tgt in enumerate(self.ports[u]):
            if tgt is not None and tgt[0] == v:
                return p
        raise ValueError(f"no edge from {u} to {v}")

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        for u, row in enumerate(self.ports):
            for pu, tgt in enumerate(row):
                if tgt is not None and u < tgt[0]:
                    yield u, pu, tgt[0], tgt[1]


class RefTreeBuilder:
    def __init__(self, n: int, delta: int):
        if delta > MAX_DELTA:
            raise TreeFormatError(f"delta {delta} is above the maximum {MAX_DELTA}")
        self.n = n
        self.delta = delta
        self._ports: list[list[PortTarget]] = [[None] * delta for _ in range(n)]
        self._degree = [0] * n

    def degree(self, v: int) -> int:
        return self._degree[v]

    def add_edge(self, u: int, v: int) -> None:
        self.add_edge_at(u, self._next_free(u), v, self._next_free(v))

    def add_edge_at(self, u: int, pu: int, v: int, pv: int) -> None:
        if u == v:
            raise TreeFormatError(f"self-loop at vertex {u}")
        for w, p in ((u, pu), (v, pv)):
            if not (0 <= w < self.n) or not (0 <= p < self.delta):
                raise TreeFormatError(f"port {w}:{p} out of range")
            if self._ports[w][p] is not None:
                raise TreeFormatError(f"port {w}:{p} assigned twice")
        self._ports[u][pu] = (v, pv)
        self._ports[v][pv] = (u, pu)
        self._degree[u] += 1
        self._degree[v] += 1

    def _next_free(self, v: int) -> int:
        for p in range(self.delta):
            if self._ports[v][p] is None:
                return p
        raise TreeFormatError(f"vertex {v} already has delta = {self.delta} edges")

    def build(self) -> RefPortTree:
        try:
            return RefPortTree(self.delta, tuple(tuple(row) for row in self._ports))
        except ValueError as e:
            raise TreeFormatError(str(e)) from e


def ref_gen_tree(spec: TreeGenSpec) -> RefPortTree:
    n, delta = spec.n, spec.delta
    if n < 1:
        raise ValueError("n must be positive")
    b = RefTreeBuilder(n, delta)
    if spec.model == "path":
        for v in range(1, n):
            b.add_edge(v - 1, v)
    elif spec.model == "star":
        if n > delta + 1:
            raise ValueError(f"star on {n} vertices needs delta >= {n - 1}")
        for v in range(1, n):
            b.add_edge(0, v)
    elif spec.model == "caterpillar":
        spine = (n + 1) // 2
        for v in range(1, spine):
            b.add_edge(v - 1, v)
        leg = 0
        for v in range(spine, n):
            while b.degree(leg) >= delta:
                leg = (leg + 1) % spine
            b.add_edge(leg, v)
            leg = (leg + 1) % spine
    elif spec.model == "uniform-attachment-capped":
        rng = Random(spec.seed)
        eligible = [0]
        for v in range(1, n):
            i = rng.randrange(len(eligible))
            parent = eligible[i]
            b.add_edge(parent, v)
            if b.degree(parent) >= delta:
                eligible[i] = eligible[-1]
                eligible.pop()
            eligible.append(v)
    else:
        raise ValueError(f"unknown tree model {spec.model!r}")
    return b.build()


def ref_parse_tree(text: str) -> RefPortTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TreeFormatError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise TreeFormatError("tree document must be a JSON object")
    for key in ("n", "delta", "edges"):
        if key not in doc:
            raise TreeFormatError(f"missing key {key!r}")
    n, delta = doc["n"], doc["delta"]
    if not isinstance(n, int) or n < 1:
        raise TreeFormatError("n must be a positive integer")
    if not isinstance(delta, int) or not 3 <= delta <= MAX_DELTA:
        raise TreeFormatError(f"delta must be an integer in 3..{MAX_DELTA}")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise TreeFormatError("edges must be a list")
    if len(edges) != n - 1:
        raise TreeFormatError(f"tree on {n} vertices must list {n - 1} edges")
    b = RefTreeBuilder(n, delta)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in edges:
        if not isinstance(row, dict) or any(k not in row for k in ("u", "pu", "v", "pv")):
            raise TreeFormatError(f"edge {row!r} needs keys u, pu, v, pv")
        u, pu, v, pv = row["u"], row["pu"], row["v"], row["pv"]
        if any(not isinstance(x, int) for x in (u, pu, v, pv)):
            raise TreeFormatError(f"edge {row!r} has non-integer fields")
        if not (0 <= u < n and 0 <= v < n):
            raise TreeFormatError(f"edge {row!r} has vertex out of range")
        ru, rv = find(u), find(v)
        if u != v and ru == rv:
            raise TreeFormatError(f"cycle detected at edge {u} -- {v}")
        parent[ru] = rv
        b.add_edge_at(u, pu, v, pv)
    return b.build()


def ref_is_valid_labeling(
    problem: LclProblem, tree: RefPortTree, labeling: HalfEdgeLabeling
) -> ValidityReport:
    if labeling.n != tree.n:
        raise ValueError(f"labeling has {labeling.n} vertices, tree has {tree.n}")
    if tree.delta != problem.delta:
        raise ValueError("tree delta differs from problem delta")
    vertex_bad = []
    for v in range(tree.n):
        if len(labeling.ports[v]) != problem.delta:
            raise ValueError(f"vertex {v} has {len(labeling.ports[v])} ports, want {problem.delta}")
        cfg = labeling.vertex_config(v)
        if cfg not in problem.vertex_configs:
            vertex_bad.append((v, cfg))
    edge_bad = []
    for u, pu, v, pv in tree.edges():
        a = labeling.ports[u][pu]
        b = labeling.ports[v][pv]
        if not problem.edge_ok(a, b):
            edge_bad.append((u, pu, v, pv, a, b))
    return ValidityReport(tuple(vertex_bad), tuple(edge_bad))


def ref_piece_boundary(tree, piece: frozenset[int]) -> frozenset[int]:
    """Members adjacent to the outside; empty for the whole vertex set."""
    return frozenset(
        v for v in piece if any(u not in piece for u in tree.neighbors(v))
    )


def ref_verify_toast(tree, toast: Toast) -> list[str]:
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
    boundaries = [ref_piece_boundary(tree, p) for p in pieces]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            a, b = pieces[i], pieces[j]
            if not (a <= b or b <= a or not (a & b)):
                bad.append(f"pieces {i} and {j} overlap without nesting")
                continue
            if not boundaries[i] or not boundaries[j]:
                continue
            dist = distances(tree, boundaries[i])
            gap = min(dist[v] for v in boundaries[j])
            if gap < toast.q:
                bad.append(
                    f"pieces {i} and {j} have boundary gap {gap}, want >= {toast.q}"
                )
    return bad


class _RefResidual:
    """Mutable residual forest during either process."""

    def __init__(self, tree: PortTree):
        self.tree = tree
        self.alive: set[int] = set(range(tree.n))
        self.deg = [tree.real_degree(v) for v in range(tree.n)]

    def remove(self, removed: set[int]) -> None:
        for v in removed:
            self.alive.discard(v)
        for v in removed:
            for u in self.tree.neighbors(v):
                if u in self.alive:
                    self.deg[u] -= 1

    def low_degree(self, cap: int) -> set[int]:
        return {v for v in self.alive if self.deg[v] <= cap}

    def alive_neighbors(self, v: int) -> list[int]:
        return [u for u in self.tree.neighbors(v) if u in self.alive]

    def runs(self) -> list[list[int]]:
        """Components of the degree-<=2 residual subgraph, each ordered as a
        path starting from its smaller-id endpoint, ordered by their
        smallest vertex."""
        pool = self.low_degree(2)
        runs = []
        far_ends: set[int] = set()
        # every run is a path, and one walk from the first of its endpoints
        # in id order lists it in path order
        for v in sorted(pool):
            if v not in far_ends and sum(u in pool for u in self.tree.neighbors(v)) <= 1:
                run, _ = bfs_tree(self.tree, [v], pool)
                far_ends.add(run[-1])
                runs.append(run)
        runs.sort(key=min)
        return runs


def ref_decompose(tree: PortTree, gamma: int, ell: int) -> RawDecomposition:
    """The unmodified process: gamma rakes then one compress, repeated."""
    if gamma < 1 or ell < 1:
        raise ValueError("gamma and ell must be positive")
    res = _RefResidual(tree)
    layers: list[tuple[str, frozenset[int]]] = []
    iteration = 0
    depth = 0
    while res.alive:
        iteration += 1
        raked: set[int] = set()
        for _ in range(gamma):
            if not res.alive:
                break
            low = res.low_degree(1)
            res.remove(low)
            raked |= low
        layers.append(("R", frozenset(raked)))
        if not res.alive:
            depth = iteration
            break
        compressed: set[int] = set()
        for comp in res.runs():
            if len(comp) >= ell:
                compressed |= set(comp)
        res.remove(compressed)
        layers.append(("C", frozenset(compressed)))
        if not res.alive:
            # the next iteration's rakes find nothing left to do
            depth = iteration + 1
            break
    return RawDecomposition(tree, gamma, ell, tuple(layers), depth)


def ref_post_process(tree: PortTree, ell_prime: int) -> LayeredDecomposition:
    """Layered decomposition satisfying the solver's three invariants."""
    if ell_prime < 1:
        raise ValueError("ell_prime must be positive")
    res = _RefResidual(tree)
    rake_layers: list[frozenset[int]] = []
    blocks: list[Blocks] = []
    while res.alive:
        low = res.low_degree(1)
        raked = set()
        for v in low:
            partner: Optional[int] = None
            for u in res.alive_neighbors(v):
                if u in low:
                    partner = u
            if partner is None or v < partner:
                raked.add(v)
        res.remove(raked)
        rake_layers.append(frozenset(raked))
        if not res.alive:
            break
        cut: list[list[int]] = []
        for run in res.runs():
            # an end keeps its place when it has an alive neighbor outside
            # the run (a lone vertex: two), i.e. when its residual degree is 2
            start = 0 if res.deg[run[0]] == 2 else 1
            stop = len(run) - (0 if res.deg[run[-1]] == 2 else 1)
            core = run[start:stop]
            if len(core) < ell_prime:
                continue  # erodes under later rakes instead
            pos = 0
            while len(core) - pos > 2 * ell_prime:
                cut.append(core[pos : pos + ell_prime])
                pos += ell_prime + 1  # the separator stays behind
            cut.append(core[pos:])
        res.remove({v for block in cut for v in block})
        blocks.append(
            tuple(sorted((tuple(b) if b[0] < b[-1] else tuple(b[::-1]) for b in cut), key=min))
        )
    return layering(tree, ell_prime, rake_layers, blocks)


# A compress layer's blocks: each block's vertices along its path from the
# smaller-id endpoint, blocks ordered by their smallest vertex.
Blocks = tuple[tuple[int, ...], ...]


def layering(
    tree: PortTree,
    ell_prime: int,
    rake_layers: Sequence[Collection[int]],
    blocks: Sequence[Sequence[Sequence[int]]],
) -> LayeredDecomposition:
    """The LayeredDecomposition with these rake layers, each listed
    ascending, and these compress layers, each its blocks one after another
    in the order given."""
    rake = [np.array(sorted(layer), np.int64) for layer in rake_layers]
    compress = [np.array([v for b in layer for v in b], np.int64) for layer in blocks]
    sizes = tuple(np.array([len(b) for b in layer], np.int64) for layer in blocks)
    layers = tuple(x for pair in zip_longest(rake, compress) for x in pair if x is not None)
    return LayeredDecomposition(tree, ell_prime, layers, sizes)


def blocks_of(decomp: LayeredDecomposition) -> tuple[Blocks, ...]:
    """Each compress layer's blocks, cut from its vertex array by its sizes."""
    out = []
    for verts, sizes in zip(decomp.layers[1::2], decomp.sizes):
        flat, ends = verts.tolist(), list(accumulate(sizes.tolist(), initial=0))
        out.append(tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:])))
    return tuple(out)


class _RefAssigner:
    """Shared port bookkeeping for both solvers."""

    def __init__(self, problem: LclProblem, tree: PortTree, cfgs: list[VertexConfig]):
        self.problem = problem
        self.tree = tree
        self.cfgs = cfgs
        self.partner = build_partner_table(problem, cfgs)
        self.ports: list[Optional[list[int]]] = [None] * tree.n

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
        witness = extend_path(self.problem, self.cfgs, a1, c1, a2, c2, k)
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


def ref_solve_on_decomposition(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    decomp: LayeredDecomposition,
) -> HalfEdgeLabeling:
    cfgs = sorted(set(subset))
    tree = decomp.tree
    asg = _RefAssigner(problem, tree, cfgs)
    blocks = blocks_of(decomp)
    # from the last layer removed to the first: R_L, C_{L-1}, R_{L-1}, ..., R_1
    for j in reversed(range(len(decomp.layers))):
        if j % 2 == 0:
            for v in sorted(decomp.layers[j].tolist()):
                done = [u for u in tree.neighbors(v) if asg.labeled(u)]
                if len(done) > 1:
                    raise InternalError("rake vertex sees several labeled neighbors")
                if done:
                    asg.place_answering(v, done[0])
                else:
                    asg.place_free(v)
            continue
        for block in blocks[j // 2]:
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


def ref_solve_toast(
    problem: LclProblem,
    subset: Iterable[VertexConfig],
    ell: int,
    tree: PortTree,
    toast: Toast,
) -> HalfEdgeLabeling:
    """Label the tree piece by piece, inner pieces first."""
    cfgs = _check_solver_inputs(problem, subset, ell, tree)
    if toast.q < 2 * ell + 2:
        raise ValueError(f"toast gap {toast.q} is below 2*ell+2 = {2 * ell + 2}")
    problems_found = ref_verify_toast(tree, toast)
    if problems_found:
        raise ValueError("toast is not valid: " + "; ".join(problems_found))
    asg = _RefAssigner(problem, tree, cfgs)

    for piece in sorted(toast.pieces, key=lambda p: (len(p), sorted(p))):
        region = [v for v in piece if not asg.labeled(v)]
        for comp in components(tree, region):
            _ref_label_region_component(asg, ell, set(comp))
    return asg.result()


def _ref_label_region_component(asg: _RefAssigner, ell: int, comp: set[int]) -> None:
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


# --- the subset search, the parser and the path walk ----------------------------


def ref_find_ell_full_set(problem: LclProblem, max_subsets: int = 4096) -> SubsetSearchResult:
    if max_subsets < 1:
        raise ValueError("subset budget must be positive")
    configs = problem.sorted_configs()
    examined = 0
    for size in range(len(configs), 0, -1):
        for combo in combinations(configs, size):
            if examined >= max_subsets:
                return SubsetSearchResult(None, None, False, examined)
            examined += 1
            graph = build_state_graph(problem, combo)
            ell = _minimal_ell(graph)
            if ell is not None:
                return SubsetSearchResult(
                    tuple(combo), ell, True, examined, graph.certificate()
                )
    return SubsetSearchResult(None, None, True, examined)


def ref_classify(problem: LclProblem, max_subsets: int = 4096) -> ClassificationReport:
    result = ref_find_ell_full_set(problem, max_subsets)
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


def ref_admits(problem: LclProblem, prev_out: int, state: PathState) -> bool:
    """May state follow a vertex that sent prev_out: does some in-label of
    its config edge with prev_out and leave room for its out-label?"""
    c = state.config
    for a_in in c.distinct():
        if not problem.edge_ok(prev_out, a_in):
            continue
        need = 2 if a_in == state.out_label else 1
        if c.count(a_in) >= need:
            return True
    return False


class RefStateGraph:
    """The state graph built pair by pair, with its own power sequence."""

    def __init__(self, problem: LclProblem, subset: Iterable[VertexConfig]):
        self.problem = problem
        self.states = tuple(
            PathState(c, a) for c in sorted(set(subset)) for a in c.distinct()
        )
        n = len(self.states)
        self.step = np.zeros((n, n), dtype=bool)
        for j, s in enumerate(self.states):
            for i in range(n):
                self.step[i, j] = ref_admits(problem, self.states[i].out_label, s)
        self.powers = [np.eye(n, dtype=bool)]
        seen = {self.powers[0].tobytes(): 0}
        while True:
            nxt = (self.powers[-1].astype(int) @ self.step.astype(int)) > 0
            if nxt.tobytes() in seen:
                first = seen[nxt.tobytes()]
                self.cert = PeriodicityCertificate(first, len(self.powers) - first)
                break
            seen[nxt.tobytes()] = len(self.powers)
            self.powers.append(nxt)

    def power(self, m: int) -> np.ndarray:
        if m < len(self.powers):
            return self.powers[m]
        k, p = self.cert.index, self.cert.period
        return self.powers[k + (m - k) % p]

    def entry_row(self, a1: int) -> np.ndarray:
        return np.array([ref_admits(self.problem, a1, s) for s in self.states], dtype=bool)

    def exit_vector(self, a2: int) -> np.ndarray:
        return np.array(
            [self.problem.edge_ok(s.out_label, a2) for s in self.states], dtype=bool
        )

    def connects(self, a1: int, a2: int, k: int) -> bool:
        """Is there a k-vertex path with facing labels a1, a2?"""
        if k == 2:
            return self.problem.edge_ok(a1, a2)
        reach = (self.entry_row(a1).astype(int) @ self.power(k - 3).astype(int)) > 0
        return bool((reach & self.exit_vector(a2)).any())

    def is_ell_full(self, ell: int) -> bool:
        labels = sorted({s.out_label for s in self.states})
        if not labels:
            return True
        if ell == 2 and not all(
            self.problem.edge_ok(a1, a2) for a1 in labels for a2 in labels
        ):
            return False
        entry = np.stack([self.entry_row(a) for a in labels]).astype(int)
        exit_ = np.stack([self.exit_vector(a) for a in labels], axis=1).astype(int)
        k, p = self.cert.index, self.cert.period
        m0 = max(0, ell - 3)
        for m in range(m0, max(k + p - 1, m0 + p - 1) + 1):
            if not ((entry @ self.power(m).astype(int) @ exit_) > 0).all():
                return False
        return True

    def minimal_ell(self) -> Optional[int]:
        for ell in range(2, self.cert.index + self.cert.period + 3):
            if self.is_ell_full(ell):
                return ell
        return None


def ref_extend_path(
    graph: RefStateGraph, a1: int, a2: int, k: int
) -> Optional[list[tuple[VertexConfig, tuple[int, ...]]]]:
    """extend_path's witness for endpoints it accepts, on the reference
    graph's matrices."""
    problem = graph.problem
    if k == 2:
        return [] if problem.edge_ok(a1, a2) else None
    step = graph.step.astype(np.int32)
    reach = [graph.entry_row(a1)]
    for _ in range(k - 3):
        reach.append((reach[-1].astype(np.int32) @ step) > 0)
    final_ok = reach[-1] & graph.exit_vector(a2)
    if not final_ok.any():
        return None

    picks = [int(np.argmax(final_ok))]
    for t in range(k - 3, 0, -1):
        options = reach[t - 1] & graph.step[:, picks[-1]]
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


def ref_build_parser() -> argparse.ArgumentParser:
    _add_problem, _add_format = cli._add_problem, cli._add_format
    parser = argparse.ArgumentParser(
        prog="lcltrees",
        description="Classify and solve locally checkable labelings on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide the ell-full condition")
    _add_problem(p)
    p.add_argument("--budget", type=int, help=f"max subsets to try (${cli.BUDGET_ENV})")
    _add_format(p)
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("solve", help="label a tree with the log-round solver")
    _add_problem(p)
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--subset", help="subset file (JSON arrays of label names)")
    p.add_argument("--ell", type=int, help="ell for the given subset")
    p.add_argument("--toast", type=int, help="solve via a toast with this gap q")
    p.add_argument("--centers", help="comma-separated toast ball centers")
    p.add_argument("--budget", type=int, help="subset budget for auto-classify")
    p.add_argument("--output", help="labeling file to write (default stdout)")
    p.set_defaults(func=cli.cmd_solve)

    p = sub.add_parser("verify", help="check a labeling against a problem")
    _add_problem(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--labeling", required=True)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("gen", help="generate a tree deterministically")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--model",
        default="uniform-attachment-capped",
        choices=["path", "star", "caterpillar", "uniform-attachment-capped"],
    )
    p.add_argument("--output", help="tree file to write (default stdout)")
    p.set_defaults(func=cli.cmd_gen)

    p = sub.add_parser("decompose", help="dump rake/compress layers per vertex")
    p.add_argument("--tree", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cli.cmd_decompose)

    p = sub.add_parser("classes", help="census of extendability classes")
    _add_problem(p)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=6)
    _add_format(p)
    p.set_defaults(func=cli.cmd_classes)

    p = sub.add_parser("oracle", help="brute-force reference checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("solve", help="exhaustive labeling search")
    _add_problem(q)
    q.add_argument("--tree", required=True)
    q.add_argument("--max-vertices", type=int, default=12)
    q.add_argument("--budget", type=int, default=2_000_000, help="max search steps")
    q.add_argument("--output", help="write the labeling if one is found")
    q.set_defaults(func=cli.cmd_oracle_solve)

    q = osub.add_parser("connects", help="path extendability between two configs")
    _add_problem(q)
    q.add_argument("--subset", help="subset file; defaults to all of the configs")
    q.add_argument("--a1", required=True, help="facing label at the left endpoint")
    q.add_argument("--c1", required=True, help="left endpoint config, comma names")
    q.add_argument("--a2", required=True)
    q.add_argument("--c2", required=True)
    q.add_argument("--k", type=int, required=True, help="path length in vertices")
    q.add_argument("--max-vertices", type=int, default=12)
    q.add_argument("--budget", type=int, default=2_000_000, help="max search steps")
    q.set_defaults(func=cli.cmd_oracle_connects)

    return parser


def ref_ordered_path(tree: PortTree, vertices: Collection[int]) -> list[int]:
    """The vertices along the path they induce, from its smaller-id endpoint.

    Raises InternalError when they induce no path.
    """
    within = set(vertices)
    order, _ = bfs_tree(tree, [min(within)], within)
    # the vertex reached last is an endpoint, and a walk from an endpoint
    # reaches each vertex of a path from the one before it
    order, parent = bfs_tree(tree, [order[-1]], within)
    if len(order) != len(within) or any(
        parent[v] != u for u, v in zip(order, order[1:])
    ):
        raise InternalError("vertex set must induce a path")
    return order if order[0] < order[-1] else order[::-1]


def ref_parse_labeling(text: str, problem: LclProblem) -> HalfEdgeLabeling:
    doc = load_json(text)
    if not isinstance(doc, list):
        raise ProblemFormatError("labeling document must be a JSON list")
    rows: dict[int, tuple[int, ...]] = {}
    # label ids by row of names: a labeling repeats a few rows many times
    ids_of: dict[tuple, tuple[int, ...]] = {}
    for entry in doc:
        if not isinstance(entry, dict) or "vertex" not in entry or "ports" not in entry:
            raise ProblemFormatError(f"labeling entry {entry!r} needs vertex and ports")
        v = entry["vertex"]
        if not isinstance(v, int) or v < 0:
            raise ProblemFormatError(f"bad vertex id {v!r}")
        if v in rows:
            raise ProblemFormatError(f"vertex {v} listed twice")
        names = entry["ports"]
        if not isinstance(names, list) or len(names) != problem.delta:
            raise ProblemFormatError(f"vertex {v}: ports must list exactly delta labels")
        key = tuple(names)
        try:
            ids = ids_of.get(key)
        except TypeError:  # an unhashable name, which names no label
            ids = None
        if ids is None:
            try:
                ids = ids_of[key] = tuple(problem.label_by_name(s).id for s in names)
            except KeyError as e:
                raise ProblemFormatError(f"vertex {v}: {e.args[0]}") from e
        rows[v] = ids
    if not rows:
        raise ProblemFormatError("labeling is empty")
    n = len(rows)
    # the ids are distinct and nonnegative, so they are 0..n-1 when the largest is n-1
    if max(rows) != n - 1:
        raise ProblemFormatError("vertex ids must be exactly 0..n-1")
    return HalfEdgeLabeling(tuple(map(rows.__getitem__, range(n))))


def ref_h_table(problem: LclProblem, poled: PoledTree) -> HTable:
    tree = poled.tree
    if tree.delta != problem.delta:
        raise ValueError("tree delta differs from problem delta")
    for _v, _p, lab in poled.fixed:
        if not 0 <= lab < problem.num_labels:
            raise ValueError(f"fixed label id {lab} out of range")
    arities = poled.arities()
    nl = problem.num_labels
    spaces = [_multisets(nl, size) for size in arities]
    # offset of an interface tuple = sum of index * stride over the poles
    strides = [1] * len(spaces)
    for i in range(len(spaces) - 2, -1, -1):
        strides[i] = strides[i + 1] * len(spaces[i + 1])
    root = poled.poles[0]
    pole_of = {v: i for i, v in enumerate(poled.poles)}
    fixed_at: dict[int, list[tuple[int, int]]] = {}
    for v, p, lab in poled.fixed:
        fixed_at.setdefault(v, []).append((p, lab))

    order, parent = bfs_tree(tree, [root])
    children: dict[int, list[int]] = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)

    step = RefVertexStep(problem)
    every = (1 << nl) - 1
    # reach[v]: feasible up-label mask -> offsets of the interfaces giving it
    reach: dict[int, dict[int, list[int]]] = {}
    for v in reversed(order):
        kids = children[v]
        kid_mask = [every] * len(kids)  # a fixed real port narrows its child
        parent_mask = every
        fixed_virtual = []
        for p, lab in fixed_at.get(v, ()):  # route fixed ports to their role
            u = tree.port_neighbors(v)[p]
            if u < 0:
                fixed_virtual.append(lab)
            elif u == parent[v]:
                parent_mask = 1 << lab
            else:
                kid_mask[kids.index(u)] = 1 << lab
        need = tuple(sorted(fixed_virtual))
        if v in pole_of:
            i = pole_of[v]
            # an interface that contradicts the fixed labels fits nowhere
            wants = [
                (want, j * strides[i])
                for j, want in enumerate(spaces[i])
                if _contains(Counter(want), Counter(need))
            ]
        else:
            wants = [(None, 0)]
        is_root = v == root
        here: dict[int, list[int]] = {}
        for combo in product(*(reach.pop(c).items() for c in kids)):
            kid_ok = tuple(sorted(
                step.kid_ok(child_ups) & narrow
                for (child_ups, _), narrow in zip(combo, kid_mask)
            ))
            offsets = None
            for want, base in wants:
                ups = step(kid_ok, want, need, is_root) & parent_mask
                if not ups:
                    continue
                if offsets is None:
                    offsets = [0]
                    for _child_ups, offs in combo:
                        offsets = [a + b for a in offsets for b in offs]
                here.setdefault(ups, []).extend(base + o for o in offsets)
        reach[v] = here
    bits = 0
    for offs in reach[root].values():
        for o in offs:
            bits |= 1 << o
    return HTable(nl, arities, bits)


class RefVertexStep:
    """h_table's vertex step with its label multisets held as Counters."""

    def __init__(self, problem: LclProblem):
        self.configs = [Counter(c.labels) for c in problem.vertex_configs]
        self.partners = problem.partner_masks
        self.memo: dict[tuple, int] = {}
        self.kid_ok_memo: dict[int, int] = {}

    def kid_ok(self, child_ups: int) -> int:
        ok = self.kid_ok_memo.get(child_ups)
        if ok is None:
            ok = 0
            for b, partners in enumerate(self.partners):
                if child_ups >> b & 1:
                    ok |= partners
            self.kid_ok_memo[child_ups] = ok
        return ok

    def __call__(
        self,
        kid_ok: tuple[int, ...],
        want: Optional[tuple[int, ...]],
        need: tuple[int, ...],
        is_root: bool,
    ) -> int:
        key = (kid_ok, want, need, is_root)
        ups = self.memo.get(key)
        if ups is None:
            ups = self._compute(kid_ok, want, need, is_root)
            self.memo[key] = ups
        return ups

    def _compute(self, kid_ok, want, need, is_root) -> int:
        choices = [
            [m for m in range(mask.bit_length()) if mask >> m & 1] for mask in kid_ok
        ]
        want_c = Counter(want) if want is not None else None
        need_c = Counter(need)
        ups = 0
        for config in self.configs:
            pool = Counter(config)
            if is_root:
                if _assign_children(pool, choices, 0, want_c, need_c):
                    return 1
                continue
            for up in config:
                if ups >> up & 1:
                    continue
                pool[up] -= 1
                if _assign_children(pool, choices, 0, want_c, need_c):
                    ups |= 1 << up
                pool[up] += 1
        return ups


def _contains(big: Counter, small: Counter) -> bool:
    return all(big[k] >= n for k, n in small.items())


def _assign_children(
    pool: Counter,
    choices: list[list[int]],
    j: int,
    want_virtual: Optional[Counter],
    need_virtual: Counter,
) -> bool:
    """Give each child edge a label from pool; leftovers are the virtuals."""
    if j == len(choices):
        leftover = +pool
        if want_virtual is not None:
            return leftover == want_virtual
        return _contains(leftover, need_virtual)
    for m in choices[j]:
        if pool[m] > 0:
            pool[m] -= 1
            if _assign_children(pool, choices, j + 1, want_virtual, need_virtual):
                pool[m] += 1
                return True
            pool[m] += 1
    return False


def ref_concat_bipolar(problem: LclProblem, tables: Sequence[HTable]) -> HTable:
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one rooted table")
    nl = problem.num_labels
    for t in tables:
        if len(t.arities) != 1:
            raise ValueError("concatenation takes rooted (single-pole) tables")
        if t.num_labels != nl:
            raise ValueError("table label count differs from problem")
        if t.arities[0] < 2:
            raise ValueError(
                f"root arity {t.arities[0]} cannot host a path edge and a pole"
            )
    if len(tables) == 1:
        return tables[0]

    edge_ok = [
        [problem.edge_ok(a, b) for b in range(nl)] for a in range(nl)
    ]
    # interior piece i admits (incoming y, outgoing x) iff some padding of
    # free leftovers makes its rooted table say yes
    interior: list[list[list[bool]]] = []
    for t in tables[1:-1]:
        spare = t.arities[0] - 2
        rel = [[False] * nl for _ in range(nl)]
        for y in range(nl):
            for x in range(nl):
                rel[y][x] = any(
                    t.lookup(sorted((y, x) + r)) for r in _multisets(nl, spare)
                )
        interior.append(rel)

    first, last = tables[0], tables[-1]
    s_size, t_size = first.arities[0] - 1, last.arities[0] - 1
    result = HTable(nl, (s_size, t_size), 0)
    bits = 0
    for i_s in _multisets(nl, s_size):
        forward = [first.lookup(sorted(i_s + (x,))) for x in range(nl)]
        for rel in interior:
            forward = [
                any(
                    forward[xp] and edge_ok[xp][y] and rel[y][x]
                    for xp in range(nl)
                    for y in range(nl)
                )
                for x in range(nl)
            ]
        for i_t in _multisets(nl, t_size):
            ok = any(
                forward[x] and edge_ok[x][y] and last.lookup(sorted(i_t + (y,)))
                for x in range(nl)
                for y in range(nl)
            )
            if ok:
                bits |= 1 << result.index_of((i_s, i_t))
    return HTable(nl, (s_size, t_size), bits)


def ref_pumping_decompose(
    problem: LclProblem, tables: Sequence[HTable]
) -> Optional[tuple[int, int]]:
    tables = list(tables)
    prefixes = [
        ref_concat_bipolar(problem, tables[:j]) for j in range(1, len(tables) + 1)
    ]
    for b in range(2, len(tables) + 1):
        for a in range(1, b):
            if prefixes[a - 1] == prefixes[b - 1]:
                return (a, b)
    return None


def ref_class_census(
    problem: LclProblem,
    max_size: int,
    seed: int = 0,
    samples_per_size: int = 6,
) -> CensusReport:
    if max_size < 1 or samples_per_size < 1:
        raise ValueError("census sizes must be positive")
    class1: list[HTable] = []
    cumulative = []
    for size in range(1, max_size + 1):
        for i in range(samples_per_size):
            spec = TreeGenSpec(
                n=size,
                delta=problem.delta,
                seed=seed * 100_003 + size * 101 + i,
                model="uniform-attachment-capped",
            )
            tree = gen_tree(spec)
            for v in range(size):
                if tree.real_degree(v) < tree.delta:
                    table = ref_h_table(problem, PoledTree(tree, (v,)))
                    if table not in class1:
                        class1.append(table)
        cumulative.append(len(class1))
    wide = [t for t in class1 if t.arities[0] >= 2]
    class2: list[HTable] = []
    for t1 in wide:
        for t2 in wide:
            table = ref_concat_bipolar(problem, [t1, t2])
            if table not in class2:
                class2.append(table)
    return CensusReport(
        max_size=max_size,
        samples_per_size=samples_per_size,
        class1_count=len(class1),
        class2_count=len(class2),
        ell_pump_bound=len(class2) + 1,
        cumulative_class1=tuple(cumulative),
    )


def ref_splice(
    poled: PoledTree,
    u: Iterable[int],
    s_prime: tuple[int, ...],
    repl: PoledTree,
) -> PoledTree:
    tree = poled.tree
    u_set = frozenset(u)
    if not u_set or not u_set <= set(range(tree.n)):
        raise ValueError("u must be a nonempty subset of the vertices")
    if len(set(s_prime)) != len(s_prime) or not set(s_prime) <= u_set:
        raise ValueError("s_prime must be distinct vertices inside u")
    if repl.tree.delta != tree.delta:
        raise ValueError("replacement delta differs")
    if len(repl.poles) != len(s_prime):
        raise ValueError("replacement pole count differs from s_prime")

    inside_deg = {
        v: sum(1 for w in tree.neighbors(v) if w in u_set) for v in u_set
    }
    if len(components(tree, u_set)) > 1:
        raise ValueError("u must induce a connected subtree")
    boundary = [
        (v, w)
        for v in sorted(u_set)
        for w in tree.neighbors(v)
        if w not in u_set
    ]
    for v, _w in boundary:
        if v not in s_prime:
            raise ValueError(f"boundary vertex {v} of u is not in s_prime")
    for p in poled.poles:
        if p in u_set and p not in s_prime:
            raise ValueError(f"host pole {p} inside u is not in s_prime")
    for i, v in enumerate(s_prime):
        have = repl.tree.real_degree(repl.poles[i])
        if inside_deg[v] != have:
            raise ValueError(
                f"pole degree mismatch at position {i}: {inside_deg[v]} != {have}"
            )

    keep = sorted(set(range(tree.n)) - u_set)
    new_id = {v: i for i, v in enumerate(keep)}
    offset = len(keep)
    builder = RefTreeBuilder(offset + repl.tree.n, tree.delta)
    for a, pa, b, pb in tree.edges():
        if a in new_id and b in new_id:
            builder.add_edge_at(new_id[a], pa, new_id[b], pb)
    for a, pa, b, pb in repl.tree.edges():
        builder.add_edge_at(offset + a, pa, offset + b, pb)
    free_ports = {
        i: [
            p
            for p in range(tree.delta)
            if repl.tree.port_neighbors(repl.poles[i])[p] < 0
        ]
        for i in range(len(s_prime))
    }
    for v, w in sorted(boundary, key=lambda e: (e[1], tree.port_to(e[1], e[0]))):
        i = s_prime.index(v)
        builder.add_edge_at(
            new_id[w],
            tree.port_to(w, v),
            offset + repl.poles[i],
            free_ports[i].pop(0),
        )
    new_poles = tuple(
        new_id[p] if p in new_id else offset + repl.poles[s_prime.index(p)]
        for p in poled.poles
    )
    new_fixed = tuple(
        (new_id[v], p, lab) for v, p, lab in poled.fixed if v in new_id
    ) + tuple((offset + v, p, lab) for v, p, lab in repl.fixed)
    built = builder.build()
    return PoledTree(PortTree(built.delta, built.ports), new_poles, new_fixed)


def ref_check_replacement(
    problem: LclProblem,
    poled: PoledTree,
    u: Iterable[int],
    s_prime: Sequence[int],
    replacement: PoledTree,
) -> bool:
    spliced = ref_splice(poled, u, tuple(s_prime), replacement)
    return ref_h_table(problem, spliced) == ref_h_table(problem, poled)
