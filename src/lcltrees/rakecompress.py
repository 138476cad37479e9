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

Both processes run on one residual forest held as arrays over the tree's
port arrays, a whole layer per step: a rake layer is one mask over the
residual degrees, and the runs are ranked by pointer doubling over their
half-edges (Miller and Reif's tree contraction), after which post_process
cuts every run's blocks by arithmetic on the positions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count
from typing import Collection, Iterable, Iterator

import numpy as np

from .trees import PortTree, components, inward_ports


@dataclass(frozen=True)
class RawDecomposition:
    tree: PortTree
    gamma: int
    ell: int
    layers: tuple[tuple[str, frozenset[int]], ...]
    depth: int

    def __post_init__(self) -> None:
        for kind, _ in self.layers:
            if kind not in ("R", "C"):
                raise ValueError(f"bad layer kind {kind!r}")
        _rank_layers(self.tree.n, enumerate((verts for _, verts in self.layers), 1))


def _rank_layers(n: int, layers: Iterable[tuple[int, Collection[int]]]) -> np.ndarray:
    """The rank of each of the n vertices from (rank, vertices) layers, every
    rank positive; raises ValueError when a vertex is listed twice, in one
    layer or in two, and then when the layers miss a vertex or list one
    outside the tree."""
    rank = np.zeros(n, np.int64)
    outside: set[int] = set()  # listed vertices that are not the tree's
    listed = 0
    for r, layer in layers:
        verts = np.fromiter(layer, np.int64, len(layer))
        inside = (verts >= 0) & (verts < n)
        rank[verts[inside]] = r
        outside.update(verts[~inside].tolist())
        listed += len(layer)
    placed = np.count_nonzero(rank)
    # a vertex listed twice is counted once
    if listed != placed + len(outside):
        raise ValueError("layers overlap")
    if outside or placed != n:
        raise ValueError("layers do not partition the tree's vertices")
    return rank


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
    # rank of each vertex: 2i-1 in rake layer R_i, 2i in compress layer C_i
    _rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.rake_layers) - 1:
            raise ValueError("expected one fewer compress layer than rake layers")
        compress = [[v for block in blocks for v in block] for blocks in self.blocks]
        layers = chain(zip(count(1, 2), self.rake_layers), zip(count(2, 2), compress))
        rank = _rank_layers(self.tree.n, layers)
        rank.flags.writeable = False
        object.__setattr__(self, "compress_layers", tuple(map(frozenset, compress)))
        object.__setattr__(self, "_rank", rank)

    @property
    def depth(self) -> int:
        return len(self.rake_layers)

    def layer_of(self, v: int) -> tuple[str, int]:
        r = self.rank_of(v)
        return ("R", (r + 1) // 2) if r % 2 else ("C", r // 2)

    def rank_of(self, v: int) -> int:
        if not 0 <= v < self.tree.n:
            raise ValueError(f"vertex {v} in no layer")
        return int(self._rank[v])

    def labeling_order(self) -> Iterator[tuple[str, int, frozenset[int]]]:
        """Layers from last removed to first: R_L, C_{L-1}, R_{L-1}, ..., R_1."""
        yield ("R", self.depth, self.rake_layers[-1])
        for i in range(self.depth - 1, 0, -1):
            yield ("C", i, self.compress_layers[i - 1])
            yield ("R", i, self.rake_layers[i - 1])


class _Forest:
    """The residual forest during either process, as arrays over the tree's
    port arrays: the alive vertices in ascending order, an alive mask, and
    every vertex's residual degree.  Each step reads or removes a whole set
    of vertices at once."""

    def __init__(self, tree: PortTree):
        self.tree = tree
        self.alive = np.arange(tree.n)
        # one extra slot, always False, answers the -1 of a virtual port
        self.mask = np.ones(tree.n + 1, bool)
        self.mask[-1] = False
        self.deg = np.count_nonzero(tree.nbr >= 0, axis=1)

    def low_degree(self, cap: int) -> np.ndarray:
        return self.alive[self.deg[self.alive] <= cap]

    def remove(self, removed: np.ndarray) -> None:
        self.mask[removed] = False
        self.alive = self.alive[self.mask[self.alive]]
        nbr = self.tree.nbr[removed].ravel()
        np.subtract.at(self.deg, nbr[nbr >= 0], 1)

    def runs(self) -> tuple[np.ndarray, ...]:
        """The vertices of the degree-<=2 residual subgraph, whose components
        (runs) are paths, ascending; and for each, as indices into them, its
        run's smaller-id and larger-id endpoints, then its distance from the
        smaller-id endpoint and its run's length.

        Each run is ranked by pointer doubling over its half-edges: a
        half-edge jumps to the end of its direction in O(log length) passes,
        counting the hops, which gives every vertex its distance to both ends.
        """
        pool = self.low_degree(2)
        k = pool.size
        index = np.full(self.tree.n + 1, -1)
        index[pool] = np.arange(k)
        rows = index[self.tree.nbr[pool]]
        # side 0 holds a vertex's larger-index run neighbor, side 1 the other
        # one; -1 where there is none
        side0 = rows.max(axis=1, initial=-1)
        side1 = np.where(rows >= 0, rows, k).min(axis=1, initial=k)
        sides = np.stack([side0, np.where(side1 < side0, side1, -1)], axis=1)
        # half-edge 2i + s leaves vertex i on side s and continues through
        # its target on the side that does not lead back; a jump to 2k has
        # reached the end.  A missing half-edge ends where it starts.
        target = sides.ravel()
        source = np.arange(2 * k) >> 1
        real = target >= 0
        at = np.where(real, target, 0)
        onward = 2 * at + (sides[at, 0] == source)
        goes_on = real & (sides[onward >> 1, onward & 1] >= 0)
        jump = np.where(goes_on, onward, 2 * k)
        hops = real.astype(np.int64)
        end = np.where(real, target, source)
        active = np.flatnonzero(goes_on)
        while active.size:
            via = jump[active]
            hops[active] += hops[via]
            end[active] = end[via]
            jump[active] = jump[via]
            active = active[jump[active] < 2 * k]
        end0, end1 = end[0::2], end[1::2]
        pos = np.where(end0 < end1, hops[0::2], hops[1::2])
        length = hops[0::2] + hops[1::2] + 1
        return pool, np.minimum(end0, end1), np.maximum(end0, end1), pos, length


def decompose(tree: PortTree, gamma: int, ell: int) -> RawDecomposition:
    """The unmodified process: gamma rakes then one compress, repeated."""
    if gamma < 1 or ell < 1:
        raise ValueError("gamma and ell must be positive")
    res = _Forest(tree)
    layers: list[tuple[str, frozenset[int]]] = []
    iteration = 0
    depth = 0
    while res.alive.size:
        iteration += 1
        raked: list[int] = []
        for _ in range(gamma):
            if not res.alive.size:
                break
            low = res.low_degree(1)
            res.remove(low)
            raked += low.tolist()
        layers.append(("R", frozenset(raked)))
        if not res.alive.size:
            depth = iteration
            break
        pool, _, _, _, length = res.runs()
        compressed = pool[length >= ell]
        res.remove(compressed)
        layers.append(("C", frozenset(compressed.tolist())))
        if not res.alive.size:
            # the next iteration's rakes find nothing left to do
            depth = iteration + 1
            break
    return RawDecomposition(tree, gamma, ell, tuple(layers), depth)


def post_process(tree: PortTree, ell_prime: int) -> LayeredDecomposition:
    """Layered decomposition satisfying the solver's three invariants."""
    if ell_prime < 1:
        raise ValueError("ell_prime must be positive")
    res = _Forest(tree)
    rake_layers: list[frozenset[int]] = []
    blocks: list[Blocks] = []
    while res.alive.size:
        low = res.low_degree(1)
        rows = tree.nbr[low]
        # a candidate's one alive neighbor, -1 if it has none
        partner = np.where(res.mask[rows], rows, -1).max(axis=1, initial=-1)
        waits = (partner >= 0) & (partner < low) & (res.deg[partner] <= 1)
        raked = low[~waits]
        res.remove(raked)
        rake_layers.append(frozenset(raked.tolist()))
        if not res.alive.size:
            break
        blocks.append(_cut_blocks(res, ell_prime))
    return LayeredDecomposition(tree, ell_prime, tuple(rake_layers), tuple(blocks))


def _cut_blocks(res: _Forest, ell_prime: int) -> Blocks:
    """Cut the residual's runs into one compress layer's blocks, removing
    them: each run's core, ell' to 2*ell' vertices per block with one
    separator left between blocks."""
    pool, first, last, pos, length = res.runs()
    # an end keeps its place when it has an alive neighbor outside the run
    # (a lone vertex: two), i.e. when its residual degree is 2
    trim_first = res.deg[pool[first]] != 2
    trim_last = res.deg[pool[last]] != 2
    size = length - trim_first - trim_last
    at = pos - trim_first  # position in the core
    # blocks cut before the last, each followed by a separator; a core under
    # ell' vertices erodes under later rakes instead
    cuts = (size - ell_prime) // (ell_prime + 1)
    in_block = (
        (size >= ell_prime)
        & (at >= 0)
        & (at < size)
        & ((at % (ell_prime + 1) < ell_prime) | (at >= cuts * (ell_prime + 1)))
    )
    chosen = np.flatnonzero(in_block)
    if not chosen.size:
        return ()
    chosen = chosen[np.lexsort((at[chosen], first[chosen]))]
    verts = pool[chosen]
    run, block = first[chosen], np.minimum(at[chosen] // (ell_prime + 1), cuts[chosen])
    new = np.ones(verts.size, bool)
    new[1:] = (run[1:] != run[:-1]) | (block[1:] != block[:-1])
    starts = np.flatnonzero(new)
    stops = np.append(starts[1:], verts.size)
    # list each block from its smaller-id endpoint
    of = np.cumsum(new) - 1
    i = np.arange(verts.size)
    flip = (verts[starts] > verts[stops - 1])[of]
    verts = verts[np.where(flip, starts[of] + stops[of] - 1 - i, i)]
    res.remove(verts)
    flat = verts.tolist()
    spans = list(zip(starts.tolist(), stops.tolist()))
    by_min = np.argsort(np.minimum.reduceat(verts, starts)).tolist()
    return tuple(tuple(flat[spans[b][0] : spans[b][1]]) for b in by_min)


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
    rank = decomp._rank.tolist()

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
        verts = np.fromiter(layer, np.int64, len(layer))
        # a vertex's degree inside the layer is its degree inside its component
        inner = inward_ports(tree, verts).sum(axis=1) - (tree.nbr[verts] < 0).sum(axis=1)
        inner_deg = dict(zip(verts.tolist(), inner.tolist()))
        for comp in map(set, components(tree, layer)):
            k = len(comp)
            degs = [inner_deg[v] for v in comp]
            if max(degs) > 2 or sum(degs) != 2 * (k - 1):
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
