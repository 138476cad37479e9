"""Rake-and-compress decompositions of finite trees.

Rake removes leaves and isolated vertices; compress removes runs (components
of the residual degree-<=2 subgraph) of at least ell vertices.  decompose
records that process verbatim.  post_process runs it on its own, with one
rake per layer, compress runs of at least ell' vertices, and three extra
rules so the layer structure supports sequential labeling:

  * of two adjacent rake candidates the higher id waits one layer, so rake
    layers are independent sets;
  * compress runs are cut into blocks of ell' to 2*ell' vertices and the
    single separator between blocks waits (it rakes away next layer), so
    every removed run ends at exactly two strictly-later vertices;
  * a run endpoint with no surviving outside neighbor waits too, and a run
    whose trimmed core drops under ell' is left to erode under later rakes.

A LayeredDecomposition stores each compress layer as the blocks
post_process cut, each block its path from the smaller-id endpoint, so the
solver fills them without walking the tree to find them again; the layer's
vertex set, compress_layers, is derived from the blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .trees import PortTree, bfs_tree, components


@dataclass(frozen=True)
class RawDecomposition:
    tree: PortTree
    gamma: int
    ell: int
    layers: tuple[tuple[str, frozenset[int]], ...]
    depth: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for kind, verts in self.layers:
            if kind not in ("R", "C"):
                raise ValueError(f"bad layer kind {kind!r}")
            if seen & verts:
                raise ValueError("layers overlap")
            seen |= verts
        if seen != set(range(self.tree.n)):
            raise ValueError("layers do not partition the tree's vertices")


# A compress layer's blocks: each block's vertices along its path from the
# smaller-id endpoint, blocks ordered by their smallest vertex.
Blocks = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LayeredDecomposition:
    tree: PortTree
    ell_prime: int
    rake_layers: tuple[frozenset[int], ...]
    # one Blocks per compress layer; the blocks are the layer
    blocks: tuple[Blocks, ...]
    # each compress layer's vertex set, derived from its blocks
    compress_layers: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    # vertex -> rank: 2i-1 in rake layer R_i, 2i in compress layer C_i
    _rank: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.rake_layers) - 1:
            raise ValueError("expected one fewer compress layer than rake layers")
        compress = [[v for block in blocks for v in block] for blocks in self.blocks]
        rank: dict[int, int] = {}
        for first, layers in ((1, self.rake_layers), (2, compress)):
            for i, layer in enumerate(layers):
                for v in layer:
                    if v in rank:
                        raise ValueError("layers overlap")
                    rank[v] = first + 2 * i
        if rank.keys() != set(range(self.tree.n)):
            raise ValueError("layers do not partition the tree's vertices")
        object.__setattr__(self, "compress_layers", tuple(map(frozenset, compress)))
        object.__setattr__(self, "_rank", rank)

    @property
    def depth(self) -> int:
        return len(self.rake_layers)

    def layer_of(self, v: int) -> tuple[str, int]:
        r = self.rank_of(v)
        return ("R", (r + 1) // 2) if r % 2 else ("C", r // 2)

    def rank_of(self, v: int) -> int:
        if v not in self._rank:
            raise ValueError(f"vertex {v} in no layer")
        return self._rank[v]

    def labeling_order(self) -> Iterator[tuple[str, int, frozenset[int]]]:
        """Layers from last removed to first: R_L, C_{L-1}, R_{L-1}, ..., R_1."""
        yield ("R", self.depth, self.rake_layers[-1])
        for i in range(self.depth - 1, 0, -1):
            yield ("C", i, self.compress_layers[i - 1])
            yield ("R", i, self.rake_layers[i - 1])


class _Residual:
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


def decompose(tree: PortTree, gamma: int, ell: int) -> RawDecomposition:
    """The unmodified process: gamma rakes then one compress, repeated."""
    if gamma < 1 or ell < 1:
        raise ValueError("gamma and ell must be positive")
    res = _Residual(tree)
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


def post_process(tree: PortTree, ell_prime: int) -> LayeredDecomposition:
    """Layered decomposition satisfying the solver's three invariants."""
    if ell_prime < 1:
        raise ValueError("ell_prime must be positive")
    res = _Residual(tree)
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
    return LayeredDecomposition(tree, ell_prime, tuple(rake_layers), tuple(blocks))


# accounts for the constant number of communication rounds a distributed
# implementation spends per layer promoting ids (a ruling-set style pass)
PROMOTION_ROUNDS = 4


def simulated_rounds(decomp: LayeredDecomposition) -> int:
    """Analytic round count: one rake pass, ell' run-scanning passes, and a
    constant promotion pass per layer."""
    return (1 + decomp.ell_prime + PROMOTION_ROUNDS) * decomp.depth


def check_layered_invariants(decomp: LayeredDecomposition) -> list[str]:
    """Empty list when all three structural invariants hold."""
    tree = decomp.tree
    bad: list[str] = []
    rank = decomp._rank

    for i, layer in enumerate(decomp.rake_layers, start=1):
        for v in layer:
            for u in tree.neighbors(v):
                if u in layer and v < u:
                    bad.append(f"rake layer {i} not independent: edge {v} -- {u}")
            later = [u for u in tree.neighbors(v) if rank[u] > rank[v]]
            if len(later) > 1:
                bad.append(f"vertex {v} in rake layer {i} has {len(later)} later neighbors")

    lo, hi = decomp.ell_prime, 2 * decomp.ell_prime
    for i, layer in enumerate(decomp.compress_layers, start=1):
        for comp in map(set, components(tree, layer)):
            k = len(comp)
            inner_deg = {v: sum(1 for u in tree.neighbors(v) if u in comp) for v in comp}
            if any(d > 2 for d in inner_deg.values()) or sum(
                inner_deg.values()
            ) != 2 * (k - 1):
                bad.append(f"compress layer {i} component {sorted(comp)} is not a path")
                continue
            if not lo <= k <= hi:
                bad.append(
                    f"compress layer {i} component {sorted(comp)} has size {k}, "
                    f"want [{lo}, {hi}]"
                )
            ends = [v for v in comp if inner_deg[v] <= 1]
            crank = 2 * i
            contacts = [
                (u, v)
                for v in comp
                for u in tree.neighbors(v)
                if u not in comp and rank[u] > crank
            ]
            if len(contacts) != 2 or len({u for u, _ in contacts}) != 2:
                bad.append(
                    f"compress layer {i} component {sorted(comp)} has "
                    f"{len(contacts)} later contacts, want exactly 2"
                )
                continue
            touched = [v for _, v in contacts]
            if any(v not in ends for v in touched):
                bad.append(
                    f"compress layer {i} component {sorted(comp)}: later neighbor "
                    f"attaches to a non-endpoint"
                )
            if k >= 2 and touched[0] == touched[1]:
                bad.append(
                    f"compress layer {i} component {sorted(comp)}: both later "
                    f"neighbors attach to the same endpoint"
                )
    return bad
