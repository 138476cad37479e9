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

A LayeredDecomposition holds layers, one int64 vertex array per rank R_1,
C_1, ..., R_L (a rake layer ascending, a compress layer the blocks
post_process cut, ordered by smallest vertex, each from its smaller-id end),
and sizes, each compress layer's block sizes; rake_layers and
compress_layers, the layers as vertex sets, are views built on first read.

Both processes run on one residual forest held as arrays over the tree's
port arrays, a whole layer per step: a rake layer is one mask over the
residual degrees, and the runs are ranked by pointer doubling over their
half-edges (Miller and Reif's tree contraction), after which post_process
cuts every run's blocks by arithmetic on the positions.

The solver and check_layered_invariants read a compress layer's blocks
through one function, read_blocks, so they judge a layering alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable

import numpy as np

from .trees import PortTree


@dataclass(frozen=True)
class RawDecomposition:
    tree: PortTree
    gamma: int
    ell: int
    layers: tuple[tuple[str, frozenset[int]], ...]
    depth: int
    # rank of each vertex: j + 1 in layers[j]
    rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for kind, _ in self.layers:
            if kind not in ("R", "C"):
                raise ValueError(f"bad layer kind {kind!r}")
        object.__setattr__(self, "rank", _rank_layers(self.tree.n, (v for _, v in self.layers)))


def _rank_layers(n: int, layers: Iterable[Collection[int]]) -> np.ndarray:
    """The read-only rank of each of the n vertices, r in the r-th layer
    counting from 1; raises ValueError when a vertex is listed twice, in one
    layer or in two, and then when the layers miss a vertex or list one
    outside the tree or an id that is no integer within int64."""
    rank = np.zeros(n, np.int64)
    outside: set[int] = set()  # listed vertices that are not the tree's
    listed = 0
    for r, layer in enumerate(layers, 1):
        verts = layer if isinstance(layer, np.ndarray) else np.array(list(layer))
        if verts.size and not np.can_cast(verts.dtype, np.int64):
            raise ValueError("layers do not partition the tree's vertices")
        verts = verts.astype(np.int64, copy=False)
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
    rank.flags.writeable = False
    return rank


@dataclass(frozen=True)
class LayeredDecomposition:
    tree: PortTree
    ell_prime: int
    layers: tuple[np.ndarray, ...]  # R_1, C_1, ..., R_L as the module docstring has them
    sizes: tuple[np.ndarray, ...]
    # rank of each vertex: 2i-1 in rake layer R_i, 2i in compress layer C_i
    _rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.layers) != 2 * len(self.sizes) + 1:
            raise ValueError("expected one fewer compress layer than rake layers")
        for a in self.layers + self.sizes:
            if not isinstance(a, np.ndarray) or a.ndim != 1 or a.dtype.kind not in "iu":
                raise ValueError("layers and block sizes must be 1-D integer arrays, "
                                 "the layers a partition of the tree's vertices")
        for sizes, verts in zip(self.sizes, self.layers[1::2]):
            if (sizes < 0).any() or sizes.sum() != len(verts):
                raise ValueError("block sizes do not add up to their compress layer")
        object.__setattr__(self, "_rank", _rank_layers(self.tree.n, self.layers))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayeredDecomposition):
            return NotImplemented
        ours, theirs = self.layers + self.sizes, other.layers + other.sizes
        same = (self.tree, self.ell_prime, len(ours)) == (other.tree, other.ell_prime, len(theirs))
        return same and all(map(np.array_equal, ours, theirs))

    def __hash__(self) -> int:
        # equal arrays of different integer types hash alike, as they compare
        arrays = (a.astype(np.int64, copy=False).tobytes() for a in self.layers + self.sizes)
        return hash((self.tree, self.ell_prime, *arrays))

    @cached_property
    def rake_layers(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(layer.tolist()) for layer in self.layers[0::2])

    @cached_property
    def compress_layers(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(layer.tolist()) for layer in self.layers[1::2])

    @property
    def depth(self) -> int:
        return len(self.sizes) + 1

    def layer_of(self, v: int) -> tuple[str, int]:
        r = self.rank_of(v)
        return ("R", (r + 1) // 2) if r % 2 else ("C", r // 2)

    def rank_of(self, v: int) -> int:
        if not 0 <= v < self.tree.n:
            raise ValueError(f"vertex {v} in no layer")
        return int(self._rank[v])


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
    layers: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    while res.alive.size:
        low = res.low_degree(1)
        rows = tree.nbr[low]
        # a candidate's one alive neighbor, -1 if it has none
        partner = np.where(res.mask[rows], rows, -1).max(axis=1, initial=-1)
        waits = (partner >= 0) & (partner < low) & (res.deg[partner] <= 1)
        raked = low[~waits]
        res.remove(raked)
        layers.append(raked)
        if not res.alive.size:
            break
        verts, block_sizes = _cut_blocks(res, ell_prime)
        layers.append(verts)
        sizes.append(block_sizes)
    return LayeredDecomposition(tree, ell_prime, tuple(layers), tuple(sizes))


def _cut_blocks(res: _Forest, ell_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut the residual's runs into one compress layer's blocks, removing
    them: each run's core, ell' to 2*ell' vertices per block with one
    separator left between blocks.  Returns the layer and its block sizes."""
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
    chosen = chosen[np.lexsort((at[chosen], first[chosen]))]
    verts = pool[chosen]
    run, block = first[chosen], np.minimum(at[chosen] // (ell_prime + 1), cuts[chosen])
    new = np.ones(verts.size, bool)
    new[1:] = (run[1:] != run[:-1]) | (block[1:] != block[:-1])
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=verts.size)
    # the blocks by smallest vertex, each listed from its smaller-id endpoint
    by_min = np.argsort(np.minimum.reduceat(verts, starts))
    sizes = lengths[by_min]
    of = np.repeat(by_min, sizes)
    step = np.arange(verts.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    flip = verts[starts] > verts[starts + lengths - 1]
    verts = verts[np.where(flip[of], starts[of] + lengths[of] - 1 - step, starts[of] + step)]
    res.remove(verts)
    return verts, sizes


# read_blocks' fault codes; 0 is a sound block
NOT_A_PATH, BAD_CONTACTS = 1, 2


def read_blocks(
    tree: PortTree, flat: np.ndarray, sizes: np.ndarray, later: np.ndarray
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """Read a compress layer, blocks of the given sizes one after another in
    flat, against later, the vertices labeled before it as a mask with a
    spare False slot for port -1.  Returns whether two blocks touch; a fault
    code per block, NOT_A_PATH when it is no path in the order listed, else
    BAD_CONTACTS when it does not touch exactly two later vertices, one at
    each end; and each vertex's ports toward its block's vertices before and
    after it, at a sound block's ends the ports of their later neighbors (a
    lone vertex: the smaller before, the larger after)."""
    of = np.repeat(np.arange(sizes.size), sizes)
    owner = np.full(tree.n + 1, -1)
    owner[flat] = of
    rows = tree.nbr[flat]
    touch = owner[rows]
    touching = bool(((touch >= 0) & (touch != of[:, None])).any())
    ahead = np.flatnonzero(of[1:] == of[:-1])
    hit = rows[ahead] == flat[ahead + 1, None]
    after = np.full(flat.size, -1)
    before = np.full(flat.size, -1)
    after[ahead] = hit.argmax(axis=1)
    before[ahead + 1] = tree.back[flat[ahead], after[ahead]]
    # a tree has no chords, so distinct vertices each adjacent to the next
    # induce a path
    fault = np.where(sizes > 0, 0, NOT_A_PATH)
    fault[of[ahead[~hit.any(axis=1)]]] = NOT_A_PATH
    # no block vertex is later, so every later neighbor lies outside
    seen = later[rows]
    count = seen.sum(axis=1)
    path = np.flatnonzero(fault == 0)
    first = (np.cumsum(sizes) - sizes)[path]
    last = first + sizes[path] - 1
    ends_ok = (np.bincount(of, count, sizes.size)[path] == 2) & (
        (first == last) | ((count[first] == 1) & (count[last] == 1))
    )
    fault[path[~ends_ok]] = BAD_CONTACTS
    first, last = first[ends_ok], last[ends_ok]
    before[first] = seen[first].argmax(axis=1)
    after[last] = tree.delta - 1 - seen[last, ::-1].argmax(axis=1)
    return touching, fault, before, after


def check_layered_invariants(decomp: LayeredDecomposition) -> list[str]:
    """Faults layer by layer from the first removed, none when the layering
    is sound.  A later vertex lies in a higher layer, labeled earlier by the
    solver.  A rake layer must be independent, each vertex with at most one
    later neighbor; a compress layer must pass read_blocks, as the solver
    reads it, and hold ell' to 2*ell' vertices per block."""
    tree = decomp.tree
    # the spare slot answers port -1
    rank = np.append(decomp._rank, 0)
    lo, hi = decomp.ell_prime, 2 * decomp.ell_prime
    bad: list[str] = []
    for r, verts in enumerate(decomp.layers, 1):
        i = (r + 1) // 2
        if r % 2:
            nbr = tree.nbr[verts]
            seen = rank[nbr]
            at, port = np.nonzero(seen == r)
            for v, u in zip(verts[at].tolist(), nbr[at, port].tolist()):
                if v < u:
                    bad.append(f"rake layer {i} not independent: edge {v} -- {u}")
            count = (seen > r).sum(axis=1)
            for v, k in zip(verts[count > 1].tolist(), count[count > 1].tolist()):
                bad.append(f"vertex {v} in rake layer {i} has {k} later neighbors")
            continue
        sizes = decomp.sizes[i - 1]
        touching, fault, _, _ = read_blocks(tree, verts, sizes, rank > r)
        if touching:
            bad.append(f"compress layer {i} has blocks that touch")
        starts = np.cumsum(sizes) - sizes
        for b in np.flatnonzero((fault != 0) | (sizes < lo) | (sizes > hi)).tolist():
            k = int(sizes[b])
            head = f"compress layer {i} block {verts[starts[b]:starts[b] + k].tolist()}"
            if fault[b] == NOT_A_PATH:
                bad.append(f"{head} is not a path")
            if not lo <= k <= hi:
                bad.append(f"{head} has size {k}, want [{lo}, {hi}]")
            if fault[b] == BAD_CONTACTS:
                bad.append(f"{head} does not have exactly 2 later contacts, one at each end")
    return bad
