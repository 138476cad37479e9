"""Finite trees with ports, viewed as subtrees of the Delta-regular tree.

Every vertex owns delta numbered ports.  A port either carries a real edge
(it points at a neighbor and the neighbor's port pointing back) or is
virtual: the missing continuation into the infinite tree.

A PortTree keeps its ports in two int32 arrays of shape (n, delta): nbr[v, p]
is the neighbor on port p of v and back[v, p] that neighbor's port leading
back, both -1 on a virtual port.  Whoever fills the arrays checks what it
wrote, once: parse_tree (and the splice that replaces a subtree, through
the same edge-column checks) that ports lie in range, that no edge is a
self-loop and that no port is used twice; the tuple constructor that ports
lie in range and that each edge is seen from both ends; gen_tree, which
gives each new vertex's edge the next free ports, nothing more.  Every tree
then passes one shared check: n - 1 edges, and connectivity decided by hook
and shortcut over the arrays, in O(log n) whole-array rounds.  The neighbor
lists and .ports, the same ports as rows of (neighbor, port) pairs and None,
are built only when first read.

A tree by hand is PortTree(delta, ports), its rows of (neighbor, port)
pairs and None, or parse_tree on a document listing its edges.

parse_tree reads a document in exactly the layout serialize_tree writes
column by column, without json.loads, a slice at a time from the text or
from an open file; every other document is read whole and goes through
json.loads.  Both routes end in the same checks on the edge columns, so a
document gives the same tree, or the same error, by either route.
tree_chunks writes the layout a block of edges at a time, and
serialize_tree joins its pieces.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from random import Random
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

import numpy as np

from .problems import (
    _BLOCK,
    _LEAST,
    _NUMBER,
    _SLICE,
    Document,
    InternalError,
    _reader,
    _scanned,
    _slices,
    _whole,
    load_json,
)

PortTarget = Optional[tuple[int, int]]  # (neighbor, neighbor's port) or None

# Largest delta a tree may be built with.  delta sizes every vertex's port
# row before any edge is read, so without a cap a one-line document can ask
# for gigabytes; 64 lies far above the 3..5 the bundled problems use.
MAX_DELTA = 64


class TreeFormatError(ValueError):
    """Malformed tree document."""


class PortTree:
    """A tree whose vertices own delta ports each; read-only once built."""

    def __init__(self, delta: int, ports: Sequence[Sequence[PortTarget]]) -> None:
        """The tree whose port p of vertex v leads to ports[v][p]: a
        (neighbor, neighbor's port) pair, or None for a virtual port."""
        n = len(ports)
        if delta < 3:
            raise ValueError("delta must be at least 3")
        if delta > MAX_DELTA:
            raise TreeFormatError(f"delta {delta} is above the maximum {MAX_DELTA}")
        if n == 0:
            raise ValueError("tree must have at least one vertex")
        nbr: list[int] = []
        back: list[int] = []
        outside = None  # the first port pointing outside the tree
        for v, row in enumerate(ports):
            if len(row) != delta:
                raise ValueError(f"vertex {v} has {len(row)} ports, want {delta}")
            for p, tgt in enumerate(row):
                u, q = (-1, -1) if tgt is None else tgt
                ints = isinstance(u, int) and isinstance(q, int)
                if tgt is not None and not (ints and 0 <= u < n and 0 <= q < delta):
                    outside = outside or (v, p)
                    u = q = -1
                nbr.append(u)
                back.append(q)
        self._fill(delta, np.array(nbr, np.int32), np.array(back, np.int32))
        # the rows were written independently, so each edge must be seen
        # from both of its ends; the first bad port, row by row, is reported
        v, p = np.nonzero(self.nbr >= 0)
        u, q = self.nbr[v, p], self.back[v, p]
        bad = np.flatnonzero((self.nbr[u, q] != v) | (self.back[u, q] != p))
        if outside and not (bad.size and (v[bad[0]], p[bad[0]]) < outside):
            raise ValueError(f"port {outside[0]}:{outside[1]} points outside the tree")
        if bad.size:
            k = bad[0]
            raise ValueError(f"port asymmetry at {v[k]}:{p[k]} vs {u[k]}:{q[k]}")
        self._check_tree()

    @classmethod
    def _of_arrays(cls, delta: int, nbr: np.ndarray, back: np.ndarray) -> "PortTree":
        """A tree from symmetric (n, delta) port arrays, n >= 1 and delta >= 3,
        whose entries lie in range; raises ValueError unless they form a tree."""
        tree = cls.__new__(cls)
        tree._fill(delta, nbr.astype(np.int32, copy=False), back.astype(np.int32, copy=False))
        tree._check_tree()
        return tree

    def _fill(self, delta: int, nbr: np.ndarray, back: np.ndarray) -> None:
        self.delta = delta
        self.nbr = nbr.reshape(-1, delta)
        self.back = back.reshape(-1, delta)
        self.nbr.flags.writeable = self.back.flags.writeable = False

    def _check_tree(self) -> None:
        n = self.n
        if np.count_nonzero(self.nbr >= 0) != 2 * (n - 1):
            raise ValueError(f"tree on {n} vertices must have {n - 1} edges")
        if not self._spans():
            raise ValueError("tree is disconnected")

    def _spans(self) -> bool:
        """Whether the edges join every vertex into one component.

        Hook and shortcut (Shiloach and Vishkin): every root hooks onto the
        smallest root across the edges leaving its component, then pointer
        jumping takes every vertex to its root.  A root never hooks onto a
        larger id, so each component's root is its smallest vertex, and each
        round merges every component that has an edge out of it with
        another, so O(log n) rounds end it.
        """
        n = self.n
        u, p = np.nonzero(self.nbr > np.arange(n, dtype=np.int32)[:, None])  # each edge once
        u, v = u.astype(np.int32), self.nbr[u, p]
        del p
        root = np.arange(n, dtype=np.int32)
        while True:
            ru, rv = root[u], root[v]
            cross = ru != rv
            if not cross.any():
                return not root.any()
            if not cross.all():  # edges inside a component stay inside it
                u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while True:
                up = root[root]
                if np.array_equal(up, root):
                    break
                root = up

    @property
    def n(self) -> int:
        return len(self.nbr)

    @cached_property
    def ports(self) -> tuple[tuple[PortTarget, ...], ...]:
        """ports[v][p]: (neighbor, neighbor's port), or None on a virtual port."""
        return tuple(
            tuple(None if u < 0 else (u, q) for u, q in zip(nrow, brow))
            for nrow, brow in zip(self.nbr.tolist(), self.back.tolist())
        )

    @cached_property
    def _port_rows(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.nbr.tolist()))

    def port_neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbor on each port of v in port order, -1 on a virtual port."""
        return self._port_rows[v]

    @cached_property
    def _adjacent(self) -> list[int]:
        """The neighbors of every vertex in port order, one flat list."""
        return self.nbr[self.nbr >= 0].tolist()

    @cached_property
    def _offsets(self) -> list[int]:
        """Where each vertex's neighbors start in _adjacent, and the end."""
        return [0] + np.cumsum(fold_ports(np.add, self.nbr >= 0, np.int64)).tolist()

    def neighbors(self, v: int) -> list[int]:
        return self._adjacent[self._offsets[v] : self._offsets[v + 1]]

    def real_degree(self, v: int) -> int:
        return self._offsets[v + 1] - self._offsets[v]

    def port_to(self, u: int, v: int) -> int:
        """Port index of u whose edge goes to v."""
        row = self._port_rows[u]
        if v < 0 or v not in row:
            raise ValueError(f"no edge from {u} to {v}")
        return row.index(v)

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each real edge once, from its end u < v, as the arrays u, pu, v,
        pv, in the order of u and then of pu."""
        u, pu = np.nonzero(self.nbr > np.arange(self.n, dtype=np.int32)[:, None])
        return u, pu, self.nbr[u, pu], self.back[u, pu]

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Each real edge once, as (u, pu, v, pv) with u < v."""
        return zip(*(c.tolist() for c in self.edge_columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortTree):
            return NotImplemented
        return (
            self.delta == other.delta
            and np.array_equal(self.nbr, other.nbr)
            and np.array_equal(self.back, other.back)
        )

    def __hash__(self) -> int:
        return hash((self.delta, self.nbr.tobytes(), self.back.tobytes()))

    def __repr__(self) -> str:
        return f"PortTree(delta={self.delta}, n={self.n})"


@dataclass(frozen=True)
class TreeGenSpec:
    n: int
    delta: int
    seed: int
    model: str = "uniform-attachment-capped"


def gen_tree(spec: TreeGenSpec) -> PortTree:
    """Deterministic tree generator; same spec, same tree.

    Every model attaches vertex v = 1..n-1 to an earlier parent by an edge
    on the next free port of each end: port 0 of v, and at the parent the
    port after the edges it already has, which is its degree.
    """
    n, delta = spec.n, spec.delta
    if n < 1:
        raise ValueError("n must be positive")
    if delta > MAX_DELTA:
        raise TreeFormatError(f"delta {delta} is above the maximum {MAX_DELTA}")
    if delta < 3:
        raise TreeFormatError("delta must be at least 3")
    if spec.model == "path":
        parents = list(range(n - 1))
        ports = [min(v, 1) for v in parents]
    elif spec.model == "star":
        if n > delta + 1:
            raise ValueError(f"star on {n} vertices needs delta >= {n - 1}")
        parents = [0] * (n - 1)
        ports = list(range(n - 1))
    elif spec.model == "caterpillar":
        spine = (n + 1) // 2
        parents = list(range(spine - 1))
        ports = [min(v, 1) for v in parents]
        degree = [2] * spine  # the spine path's edges
        degree[0] = degree[-1] = 1 if spine > 1 else 0
        leg = 0
        for v in range(spine, n):
            while degree[leg] >= delta:
                leg = (leg + 1) % spine
            parents.append(leg)
            ports.append(degree[leg])
            degree[leg] += 1
            leg = (leg + 1) % spine
    elif spec.model == "uniform-attachment-capped":
        rng = Random(spec.seed)
        eligible = [0]
        degree = [1] * n  # every vertex but 0 holds its parent edge on arrival
        degree[0] = 0
        parents, ports = [], []
        for v in range(1, n):
            i = rng.randrange(len(eligible))
            parent = eligible[i]
            parents.append(parent)
            ports.append(degree[parent])
            degree[parent] += 1
            if degree[parent] >= delta:
                eligible[i] = eligible[-1]
                eligible.pop()
            eligible.append(v)
    else:
        raise ValueError(f"unknown tree model {spec.model!r}")
    up, port, kid = np.array(parents, np.int64), np.array(ports, np.int64), np.arange(1, n)
    nbr = np.full((n, delta), -1, np.int32)
    back = np.full((n, delta), -1, np.int32)
    nbr[kid, 0], back[kid, 0] = up, port
    nbr[up, port], back[up, port] = kid, 0
    return PortTree._of_arrays(delta, nbr, back)


def bfs_tree(
    tree: PortTree, roots: Iterable[int], within: Optional[Collection[int]] = None
) -> tuple[list[int], dict[int, Optional[int]]]:
    """Breadth-first order from roots, and the vertex each was reached from.

    Roots map to None.  With within given, the walk stays inside that vertex
    set; the caller checks that it reached all of it.
    """
    parent: dict[int, Optional[int]] = dict.fromkeys(roots)
    order = list(parent)
    for v in order:
        for u in tree.neighbors(v):
            if u not in parent and (within is None or u in within):
                parent[u] = v
                order.append(u)
    return order, parent


def components(tree: PortTree, vertices: Iterable[int]) -> list[list[int]]:
    """Components of the subgraph the vertices induce, ordered by their
    smallest vertex; each lists its vertices breadth-first from that one."""
    left = set(vertices)
    comps = []
    for v in sorted(left):
        if v in left:
            order, _ = bfs_tree(tree, [v], left)
            left.difference_update(order)
            comps.append(order)
    return comps


def distances(
    tree: PortTree, sources: Iterable[int], within: Optional[Collection[int]] = None
) -> dict[int, int]:
    """Distance from the nearest source to each vertex the walk reaches,
    staying inside within when it is given."""
    order, parent = bfs_tree(tree, sources, within)
    dist: dict[int, int] = {}
    for v in order:
        p = parent[v]
        dist[v] = 0 if p is None else dist[p] + 1
    return dist


def _check_vertex(tree: PortTree, v: int) -> None:
    if not 0 <= v < tree.n:
        raise ValueError(f"vertex {v} is outside the tree")


def distance(tree: PortTree, u: int, v: int) -> int:
    _check_vertex(tree, u)
    _check_vertex(tree, v)
    return distances(tree, [u])[v]


def capped_distances(tree: PortTree, sources: np.ndarray, cap: int) -> np.ndarray:
    """Distance from the nearest source to each vertex, cap standing for
    cap or more: at most cap - 1 frontier steps over the port arrays."""
    cap = min(cap, tree.n)  # no distance in a tree reaches n
    dist = np.full(tree.n + 1, cap)
    dist[sources] = dist[-1] = 0  # the spare slot answers port -1
    frontier = sources
    for d in range(1, cap):
        reached = tree.nbr[frontier].ravel()
        frontier = np.unique(reached[dist[reached] == cap])
        if not frontier.size:
            break
        dist[frontier] = d
    return dist[:-1]


def ball(tree: PortTree, v: int, radius: int) -> frozenset[int]:
    _check_vertex(tree, v)
    dist = capped_distances(tree, np.array([v]), radius + 1)
    return frozenset(np.flatnonzero(dist <= radius).tolist())


def inward_ports(tree: PortTree, verts: np.ndarray) -> np.ndarray:
    """Whether each port of the given distinct vertices of the tree stays
    among them, as virtual ports do: a (len(verts), delta) mask whose False
    entries are the edges leaving the set.  A vertex's degree inside the set
    is its True entries less its virtual ports."""
    inside = np.zeros(tree.n + 1, bool)
    inside[verts] = inside[-1] = True  # the spare slot answers port -1
    return inside[tree.nbr[verts]]


def fold_ports(ufunc: np.ufunc, rows: np.ndarray, dtype: Optional[type] = None) -> np.ndarray:
    """Each row's ufunc reduction, in dtype (by default rows'), as one pass per
    column of the (m, delta) array: numpy reduces along axis 1 row by row."""
    out = rows[:, 0].astype(dtype or rows.dtype)
    for p in range(1, rows.shape[1]):
        ufunc(out, rows[:, p], out=out)
    return out


# --- file format -------------------------------------------------------------
#
# {"n": N, "delta": D, "edges": [{"u": u, "pu": pu, "v": v, "pv": pv}, ...]}
# Ports not listed are virtual.
#
# parse_tree gets the edge columns u, pu, v, pv by one of two routes and
# checks them with the same array checks.  Text in exactly the layout
# serialize_tree writes (json.dumps(doc, indent=2) plus a newline, integers
# of at most 18 digits) is scanned: regexes check the layout slice by slice
# as problems._slices reads it, and numpy reads a slice's integers in one
# pass from its colon projection, the ":" before each number and the digits,
# about a quarter of the text, then checks them canonical.  Any other text,
# valid or not, is read whole and goes through json.loads.


_EDGE_KEYS = ("u", "pu", "v", "pv")
_edge_fields = itemgetter(*_EDGE_KEYS)

_HEAD = re.compile(f'\\{{\n  "n": ({_NUMBER}),\n  "delta": ({_NUMBER}),\n  "edges": \\[')
_EDGE = "    \\{{\n{}\n    \\}}".format(
    ",\n".join(f'      "{key}": [0-9]+' for key in _EDGE_KEYS)
)
_EDGES = re.compile(f"{_EDGE}(?:,\n{_EDGE})*")
_NO_EDGES = "]\n}\n"
_TAIL = "\n  ]\n}\n"
# a cut marker between two edges
_CUT = "},\n    {\n"
_INT32_MAX = np.iinfo(np.int32).max
# the colon projection: every byte but an ASCII digit or ":" deleted, and
# ":" made a space, leaves a space before each field's number
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")
_NOT_DIGIT_OR_COLON = bytes(c for c in range(256) if not 48 <= c <= 58)


def _scan_edges(doc: Document) -> Optional[tuple[int, int, np.ndarray]]:
    """n, delta and the (m, 4) columns u, pu, v, pv of a document in exactly
    serialize_tree's layout; None for any other text."""
    read = _reader(doc)
    text = read(_SLICE)
    head = _HEAD.match(text)
    if head is None:
        return None
    text = text[head.end() :]
    columns = [np.zeros(0, np.int32)]
    if text.startswith("]"):
        if text + read(_SLICE) != _NO_EDGES:
            return None
    elif not text.startswith("\n"):
        return None
    else:
        for block in _slices(read, _SLICE, text[1:], _CUT, _TAIL):
            if block is None or _EDGES.fullmatch(block) is None:
                return None
            numbers = block.encode("ascii").translate(_COLON_TO_SPACE, _NOT_DIGIT_OR_COLON)
            part = np.fromstring(numbers, np.int64, sep=" ")
            # canonical: below 10**18 (an int64 overflow reads as 2**63 - 1), no leading zeros
            digits = np.searchsorted(_LEAST, part, "right").sum()
            if part.max() >= 10**18 or digits != len(numbers) - part.size:
                return None
            # int32 unless a field is too large for it, which concatenate keeps
            columns.append(part.astype(np.int32) if part.max() <= _INT32_MAX else part)
    return int(head[1]), int(head[2]), np.concatenate(columns).reshape(-1, 4)


def parse_tree(doc: Document) -> PortTree:
    """The tree a document describes, from its text or a text file open at
    its start; TreeFormatError names the first fault of the first check it
    fails: keys, field types, vertex range, self-loop, port range, a port
    used twice, a cycle."""
    scanned = _scanned(_scan_edges, doc)
    if scanned is not None:
        n, delta, e = scanned
        if n >= 1 and 3 <= delta <= MAX_DELTA and len(e) == n - 1:
            return _tree_of_columns(n, delta, e)
    # every other document, and the faults of header and edge count
    doc = load_json(_whole(doc), TreeFormatError)
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
    try:
        fields = list(map(_edge_fields, edges))
    except (KeyError, TypeError):
        row = next(
            r for r in edges if not isinstance(r, dict) or any(k not in r for k in _EDGE_KEYS)
        )
        raise TreeFormatError(f"edge {row!r} needs keys u, pu, v, pv") from None
    if not set(map(type, chain.from_iterable(fields))) <= {int, bool}:
        row = next(r for r, f in zip(edges, fields) if not all(isinstance(x, int) for x in f))
        raise TreeFormatError(f"edge {row!r} has non-integer fields")
    values = chain.from_iterable(fields)
    try:
        e = np.fromiter(values, np.int64, 4 * len(fields))
    except OverflowError:  # a field beyond int64 lies outside every range
        values = (min(max(x, -1), n + delta) for x in chain.from_iterable(fields))
        e = np.fromiter(values, np.int64, 4 * len(fields))
    return _tree_of_columns(n, delta, e.reshape(-1, 4), edges.__getitem__)


def _tree_of_columns(
    n: int, delta: int, e: np.ndarray, edge: Optional[Callable[[int], dict]] = None
) -> PortTree:
    """The tree whose edges are the rows u, pu, v, pv of e, n >= 1 and delta
    in range; edge(i) is edge i as the document gives it, for messages, by
    default row i of e.  Checks vertex range, self-loops, port range, ports
    used twice and cycles in that order, each over all edges at once."""
    u, pu, v, pv = e.T
    edge = edge or (lambda i: dict(zip(_EDGE_KEYS, e[i].tolist())))

    def first(mask: np.ndarray) -> Optional[int]:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else None

    def end(k: int) -> str:
        """End k % 2 of edge k // 2 as vertex:port, as the document gives it."""
        fields = _edge_fields(edge(k // 2))
        return "{}:{}".format(*fields[k % 2 * 2 : k % 2 * 2 + 2])

    i = first((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if i is not None:
        raise TreeFormatError(f"edge {edge(i)!r} has vertex out of range")
    i = first(u == v)
    if i is not None:
        raise TreeFormatError(f"self-loop at vertex {edge(i)['u']}")
    # ends are numbered in document order: u0, v0, u1, v1, ...
    firsts = [first((ports < 0) | (ports >= delta)) for ports in (pu, pv)]
    bad = [2 * i + k for k, i in enumerate(firsts) if i is not None]
    if bad:
        raise TreeFormatError(f"port {end(min(bad))} out of range")
    su, sv = u * np.int64(delta) + pu, v * np.int64(delta) + pv
    nbr = np.full(n * delta, -1, np.int32)
    back = np.full(n * delta, -1, np.int32)
    nbr[su], nbr[sv], back[su], back[sv] = v, u, pv, pu
    if np.count_nonzero(nbr >= 0) != 2 * len(e):
        slot = np.stack([su, sv], axis=1).ravel()
        order = np.argsort(slot, kind="stable")
        i = int(order[1:][slot[order[1:]] == slot[order[:-1]]].min())
        raise TreeFormatError(f"port {end(i)} assigned twice")
    del su, sv  # free the slots before the connectivity check
    try:
        return PortTree._of_arrays(delta, nbr.reshape(-1, delta), back.reshape(-1, delta))
    except ValueError:
        # n - 1 edges that miss a vertex close a cycle
        u, v = _first_cycle_edge(n, u.tolist(), v.tolist())
        raise TreeFormatError(f"cycle detected at edge {u} -- {v}") from None


def _first_cycle_edge(n: int, us: list[int], vs: list[int]) -> tuple[int, int]:
    """The first edge, in list order, joining two vertices the edges before
    it already connect."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(us, vs):
        ru, rv = find(u), find(v)
        if ru == rv:
            return u, v
        parent[ru] = rv
    raise InternalError("a graph with n - 1 edges that misses a vertex has a cycle")


def tree_chunks(tree: PortTree) -> Iterator[str]:
    """The tree document as json.dumps(doc, indent=2) writes it, byte for
    byte, in pieces of at most _BLOCK edges, each rendered from slices of
    the edge columns."""
    yield f'{{\n  "n": {tree.n},\n  "delta": {tree.delta},\n  "edges": '
    columns = tree.edge_columns()
    m = len(columns[0])
    if not m:
        yield "[]\n}\n"
        return
    yield "[\n"
    for start in range(0, m, _BLOCK):
        if start:
            yield ",\n"
        edges = zip(*(c[start : start + _BLOCK].tolist() for c in columns))
        yield ",\n".join(
            f'    {{\n      "u": {u},\n      "pu": {pu},\n'
            f'      "v": {v},\n      "pv": {pv}\n    }}'
            for u, pu, v, pv in edges
        )
    yield _TAIL


def serialize_tree(tree: PortTree) -> str:
    """The tree document as json.dumps(doc, indent=2) writes it, byte for byte."""
    return "".join(tree_chunks(tree))
