"""Finite trees with ports, viewed as subtrees of the Delta-regular tree.

Every vertex owns delta numbered ports.  A port either carries a real edge
(it points at a neighbor and the neighbor's port pointing back) or is
virtual: the missing continuation into the infinite tree.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Collection, Iterable, Iterator, Optional

from .problems import InternalError

PortTarget = Optional[tuple[int, int]]  # (neighbor, neighbor's port) or None


class TreeFormatError(ValueError):
    """Malformed tree document."""


@dataclass(frozen=True)
class PortTree:
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

    def neighbors(self, v: int) -> list[int]:
        return [tgt[0] for tgt in self.ports[v] if tgt is not None]

    def real_degree(self, v: int) -> int:
        return sum(1 for tgt in self.ports[v] if tgt is not None)

    def port_to(self, u: int, v: int) -> int:
        """Port index of u whose edge goes to v."""
        for p, tgt in enumerate(self.ports[u]):
            if tgt is not None and tgt[0] == v:
                return p
        raise ValueError(f"no edge from {u} to {v}")

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Each real edge once, as (u, pu, v, pv) with u < v."""
        for u, row in enumerate(self.ports):
            for pu, tgt in enumerate(row):
                if tgt is not None and u < tgt[0]:
                    yield u, pu, tgt[0], tgt[1]


class TreeBuilder:
    """Accumulates edges, assigning each endpoint its next free port."""

    def __init__(self, n: int, delta: int):
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

    def build(self) -> PortTree:
        try:
            return PortTree(self.delta, tuple(tuple(row) for row in self._ports))
        except ValueError as e:
            raise TreeFormatError(str(e)) from e


@dataclass(frozen=True)
class TreeGenSpec:
    n: int
    delta: int
    seed: int
    model: str = "uniform-attachment-capped"


def gen_tree(spec: TreeGenSpec) -> PortTree:
    """Deterministic tree generator; same spec, same tree."""
    n, delta = spec.n, spec.delta
    if n < 1:
        raise ValueError("n must be positive")
    b = TreeBuilder(n, delta)
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


def ordered_path(tree: PortTree, vertices: Collection[int]) -> list[int]:
    """The vertices along the path they induce, from its smaller-id endpoint.

    Raises InternalError when they induce no path: callers pass sets that
    the tree's shape makes paths.
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


def distances_from(tree: PortTree, v: int) -> list[int]:
    dist = distances(tree, [v])
    return [dist[u] for u in range(tree.n)]


def distance(tree: PortTree, u: int, v: int) -> int:
    return distances_from(tree, u)[v]


def ball(tree: PortTree, v: int, radius: int) -> frozenset[int]:
    dist = distances_from(tree, v)
    return frozenset(u for u in range(tree.n) if dist[u] <= radius)


# --- file format -------------------------------------------------------------
#
# {"n": N, "delta": D, "edges": [{"u": u, "pu": pu, "v": v, "pv": pv}, ...]}
# Ports not listed are virtual.


def parse_tree(text: str) -> PortTree:
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
    if not isinstance(delta, int) or delta < 3:
        raise TreeFormatError("delta must be an integer >= 3")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise TreeFormatError("edges must be a list")
    if len(edges) != n - 1:
        raise TreeFormatError(f"tree on {n} vertices must list {n - 1} edges")
    b = TreeBuilder(n, delta)
    parent = list(range(n))  # union-find, cycle check before the builder runs

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


def serialize_tree(tree: PortTree) -> str:
    doc = {
        "n": tree.n,
        "delta": tree.delta,
        "edges": [
            {"u": u, "pu": pu, "v": v, "pv": pv} for u, pu, v, pv in tree.edges()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
