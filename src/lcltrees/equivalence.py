"""Extendability tables for poled trees and the machinery built on them.

A poled tree designates vertices with spare ports.  Its h table answers, for
every way of labeling the virtual half-edges around the poles, whether the
rest of the tree can be labeled correctly.  Trees with equal tables are
interchangeable inside any larger tree (check_replacement), concatenations
of rooted trees into a bipolar path are determined by the member tables
(concat_bipolar), and a repeated prefix table yields a pumpable
decomposition (pumping_decompose).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .problems import LclProblem
from .trees import PortTree, TreeGenSpec, _tree_of_columns, bfs_tree, gen_tree, inward_ports


@lru_cache(maxsize=None)
def _multisets(num_labels: int, size: int) -> tuple[tuple[int, ...], ...]:
    """All sorted label tuples of the given size, lexicographic."""
    return tuple(combinations_with_replacement(range(num_labels), size))


@lru_cache(maxsize=None)
def _multiset_index(num_labels: int, size: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(_multisets(num_labels, size))}


@dataclass(frozen=True)
class PoledTree:
    """A tree with ordered poles and optional fixed half-edge labels.

    fixed entries are (vertex, port, label); a fixed virtual port pins one
    leftover label at that vertex, a fixed real port pins the half-edge.
    """

    tree: PortTree
    poles: tuple[int, ...]
    fixed: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.poles:
            raise ValueError("need at least one pole")
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("poles must be distinct")
        for v in self.poles:
            if not 0 <= v < self.tree.n:
                raise ValueError(f"pole {v} out of range")
            if self.tree.real_degree(v) >= self.tree.delta:
                raise ValueError(f"pole {v} has no residual ports")
        seen = set()
        for v, p, _lab in self.fixed:
            if not 0 <= v < self.tree.n or not 0 <= p < self.tree.delta:
                raise ValueError(f"fixed label at bad position {v}:{p}")
            if (v, p) in seen:
                raise ValueError(f"port {v}:{p} fixed twice")
            seen.add((v, p))

    def arities(self) -> tuple[int, ...]:
        return tuple(
            self.tree.delta - self.tree.real_degree(v) for v in self.poles
        )


@dataclass(frozen=True)
class HTable:
    """Dense extendability table over canonical interface enumeration.

    Bit j of bits answers the j-th element of the mixed-radix enumeration
    over per-pole label multisets.  The arity signature is part of the
    identity: tables over different pole shapes never compare equal.
    """

    num_labels: int
    arities: tuple[int, ...]
    bits: int

    def index_of(self, interfaces: Sequence[Iterable[int]]) -> int:
        if len(interfaces) != len(self.arities):
            raise ValueError("wrong number of pole interfaces")
        idx = 0
        for size, interface in zip(self.arities, interfaces):
            key = tuple(sorted(interface))
            if len(key) != size:
                raise ValueError(f"interface {key} has size != {size}")
            pos = _multiset_index(self.num_labels, size).get(key)
            if pos is None:
                raise ValueError(f"interface {key} has a label outside 0..{self.num_labels - 1}")
            idx = idx * len(_multisets(self.num_labels, size)) + pos
        return idx

    def lookup(self, *interfaces: Iterable[int]) -> bool:
        return bool(self.bits >> self.index_of(interfaces) & 1)

    def interface_space(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """All interface tuples in enumeration order."""
        return tuple(
            product(*(_multisets(self.num_labels, size) for size in self.arities))
        )

    def yes_interfaces(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(
            x for i, x in enumerate(self.interface_space()) if self.bits >> i & 1
        )


def h_table(problem: LclProblem, poled: PoledTree) -> HTable:
    """Extendability of every pole-interface choice, in one bottom-up pass.

    The tree is rooted at the first pole.  Each vertex maps the interfaces
    of the poles in its subtree to the set of labels it can show its parent.
    A subtree without poles gives every interface the same set, so it is
    held as that one label mask.  A polar vertex (a pole or an ancestor of
    one) holds the map inverted, as label set (a bitmask) -> offsets of
    those interfaces in the table's enumeration, and drops interfaces whose
    set is empty since no labeling completes them; it combines the product
    of its children's entries, a pole-free child being the one entry
    (mask, [0]), with its own interface space if it is a pole.
    """
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
    polar: set[int] = set()
    for v in poled.poles:
        while v is not None and v not in polar:
            polar.add(v)
            v = parent[v]

    step = problem.vertex_step
    kid_ok = step.kid_ok
    every = (1 << nl) - 1
    # reach[v]: the up-label mask of a pole-free subtree, or for a polar
    # vertex feasible up-label mask -> offsets of the interfaces giving it
    reach: dict[int, int | dict[int, list[int]]] = {}
    for v in reversed(order):
        kids = children[v]
        kid_mask = [every] * len(kids)  # a fixed real port narrows its child
        parent_mask = every
        need: tuple[int, ...] = ()
        if v in fixed_at:  # route fixed ports to their role
            fixed_virtual = []
            for p, lab in fixed_at[v]:
                u = tree.port_neighbors(v)[p]
                if u < 0:
                    fixed_virtual.append(lab)
                elif u == parent[v]:
                    parent_mask = 1 << lab
                else:
                    kid_mask[kids.index(u)] = 1 << lab
            need = tuple(sorted(fixed_virtual))
        if v not in polar:
            oks = [kid_ok(reach.pop(c)) & narrow for c, narrow in zip(kids, kid_mask)]
            oks.sort()
            reach[v] = step(tuple(oks), None, need, False) & parent_mask
            continue
        if v in pole_of:
            i = pole_of[v]
            # an interface that contradicts the fixed labels fits nowhere
            wants = [
                (want, j * strides[i])
                for j, want in enumerate(spaces[i])
                if _less(want, need) is not None
            ]
        else:
            wants = [(None, 0)]
        is_root = v == root
        entries = [
            reach.pop(c).items() if c in polar else ((reach.pop(c), [0]),)
            for c in kids
        ]
        here: dict[int, list[int]] = {}
        for combo in product(*entries):
            oks = tuple(sorted(
                kid_ok(child_ups) & narrow
                for (child_ups, _), narrow in zip(combo, kid_mask)
            ))
            offsets = None
            for want, base in wants:
                ups = step(oks, want, need, is_root) & parent_mask
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


class _VertexStep:
    """The per-vertex step of h_table, built once per problem
    (problem.vertex_step) and shared by every table of it, since its memo
    depends only on the problem.

    Called with the label sets each child edge admits on this vertex's side
    (fixed child labels already applied), the wanted virtual multiset of a
    pole or None, the fixed virtual labels, and whether this is the root.
    Returns the mask of labels the vertex can show its parent, or at the
    root 1 when some configuration fits and 0 otherwise.  Child order does
    not matter, so callers pass the child sets sorted.
    """

    def __init__(self, problem: LclProblem):
        self.configs = [c.labels for c in problem.vertex_configs]
        self.partners = problem.partner_masks
        self.memo: dict[tuple, int] = {}
        self.kid_ok_memo: dict[int, int] = {}

    def kid_ok(self, child_ups: int) -> int:
        """Labels this side of an edge may take, given the child's label mask."""
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
        # a pole's virtual ports take exactly want, any other vertex's keep at
        # least need; the child and parent edges draw their labels from the
        # rest, which at a pole they use up, as the arities add up to delta
        ups = 0
        for config in self.configs:
            pool = _less(config, need if want is None else want)
            if pool is None:
                continue
            if is_root:
                if _fits(kid_ok, pool):
                    return 1
                continue
            for up in pool:
                if not ups >> up & 1 and _fits(kid_ok, _less(pool, (up,))):
                    ups |= 1 << up
        return ups


def _less(big: Sequence[int], small: Iterable[int]) -> Optional[list[int]]:
    """The multiset big less small, order kept, or None if small is not in big."""
    rest = list(big)
    for label in small:
        if label not in rest:
            return None
        rest.remove(label)
    return rest


def _fits(kid_ok: Sequence[int], pool: list[int]) -> bool:
    """Whether each child edge can take its own label of the sorted pool
    that its mask admits."""
    if not kid_ok:
        return True
    first, rest = kid_ok[0], kid_ok[1:]
    for i, label in enumerate(pool):
        if first >> label & 1 and (i == 0 or pool[i - 1] != label):
            if _fits(rest, pool[:i] + pool[i + 1:]):
                return True
    return False


# --- concatenation ----------------------------------------------------------------


def concat_bipolar(problem: LclProblem, tables: Sequence[HTable]) -> HTable:
    """Table of the bipolar tree formed by joining the roots into a path.

    The members are rooted tables; every root needs residual arity >= 2
    to accommodate the path edges.  k=1 returns the rooted table itself,
    the single pole playing both endpoint roles.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one rooted table")
    for table in _prefix_tables(problem, tables):
        pass
    return table


def _prefix_tables(problem: LclProblem, tables: list[HTable]) -> Iterator[HTable]:
    """The table of each prefix of the path, the first piece's own first.

    Every table is checked before the first is yielded.  The fold keeps,
    per interface of the first pole, the mask of labels the path so far may
    show the next piece across the joining edge; kid_ok steps that mask over
    the edge.  A piece that takes label y there ends the path with its
    interfaces less y, or passes on any other label x of them to the next
    edge, the rest of its interface being free padding.
    """
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
    if not tables:
        return
    yield tables[0]
    kid_ok = problem.vertex_step.kid_ok
    s_size = tables[0].arities[0] - 1
    index = _multiset_index(nl, s_size)
    shows = [0] * len(index)
    for y, rest in _splits(tables[0]):
        shows[index[rest]] |= 1 << y
    for t in tables[1:]:
        t_size = t.arities[0] - 1
        index = _multiset_index(nl, t_size)
        ends, passes = [0] * nl, [0] * nl  # by the label y taken on the edge in
        for y, rest in _splits(t):
            ends[y] |= 1 << index[rest]
            for x in rest:
                passes[y] |= 1 << x
        takes = [kid_ok(show) for show in shows]
        bits = 0
        for i, take in enumerate(takes):
            bits |= _gather(ends, take) << i * len(index)
        yield HTable(nl, (s_size, t_size), bits)
        shows = [_gather(passes, take) for take in takes]


def _splits(table: HTable) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(y, the interface less y) for each yes interface of a rooted table
    and each distinct label y in it."""
    for i, interface in enumerate(_multisets(table.num_labels, table.arities[0])):
        if table.bits >> i & 1:
            for j, y in enumerate(interface):
                if j == 0 or interface[j - 1] != y:
                    yield y, interface[:j] + interface[j + 1:]


def _gather(by_label: list[int], mask: int) -> int:
    """The union of by_label[y] over the labels y in mask."""
    out = 0
    for y, m in enumerate(by_label):
        if mask >> y & 1:
            out |= m
    return out


# --- replacement ------------------------------------------------------------------


def check_replacement(
    problem: LclProblem,
    poled: PoledTree,
    u: Iterable[int],
    s_prime: Sequence[int],
    replacement: PoledTree,
) -> bool:
    """Splice replacement in for the induced subtree on u and compare tables.

    u and s_prime describe the poled subtree being cut out: every boundary
    vertex of u and every pole of the host inside u must appear in s_prime,
    and replacement's poles must match s_prime's inside-degrees one by one.
    """
    spliced = _splice(poled, u, tuple(s_prime), replacement)
    return h_table(problem, spliced) == h_table(problem, poled)


def _splice(
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

    verts = np.array(sorted(u_set), np.int64)
    inward = inward_ports(tree, verts)
    inside_deg = inward.sum(axis=1) - (tree.nbr[verts] < 0).sum(axis=1)
    # a forest on |u| vertices is one tree when it has |u| - 1 edges
    if inside_deg.sum() != 2 * (len(verts) - 1):
        raise ValueError("u must induce a connected subtree")
    # the edges leaving u: its vertex v, the outside vertex w and w's port
    at, port = np.nonzero(~inward)
    v_out = verts[at]
    w_out, pw_out = tree.nbr[v_out, port], tree.back[v_out, port]
    slot = {v: i for i, v in enumerate(s_prime)}
    for v in v_out.tolist():
        if v not in slot:
            raise ValueError(f"boundary vertex {v} of u is not in s_prime")
    for p in poled.poles:
        if p in u_set and p not in slot:
            raise ValueError(f"host pole {p} inside u is not in s_prime")
    degree_of = dict(zip(verts.tolist(), inside_deg.tolist()))
    for i, v in enumerate(s_prime):
        have = repl.tree.real_degree(repl.poles[i])
        if degree_of[v] != have:
            raise ValueError(
                f"pole degree mismatch at position {i}: {degree_of[v]} != {have}"
            )

    kept = np.ones(tree.n, bool)
    kept[verts] = False
    offset = int(kept.sum())
    new_id = np.where(kept, np.cumsum(kept) - 1, -1)  # -1 inside u
    # host edges between kept vertices, renumbered; replacement edges, offset
    host = _edge_rows(tree)
    host[:, ::2] = new_id[host[:, ::2]]
    host = host[(host[:, ::2] >= 0).all(axis=1)]
    inner = _edge_rows(repl.tree)
    inner[:, ::2] += offset
    # each edge leaving u, in (outside vertex, its port) order, takes its
    # pole's next free port in the replacement
    free = [
        iter([p for p, x in enumerate(repl.tree.port_neighbors(pole)) if x < 0])
        for pole in repl.poles
    ]
    order = np.lexsort((pw_out, w_out))
    reattached = [
        (new_id[w], pw, offset + repl.poles[slot[v]], next(free[slot[v]]))
        for v, w, pw in zip(
            v_out[order].tolist(), w_out[order].tolist(), pw_out[order].tolist()
        )
    ]
    edges = np.concatenate([host, inner, np.array(reattached, np.int64).reshape(-1, 4)])
    new_poles = tuple(
        int(new_id[p]) if new_id[p] >= 0 else offset + repl.poles[slot[p]]
        for p in poled.poles
    )
    new_fixed = tuple(
        (int(new_id[v]), p, lab) for v, p, lab in poled.fixed if new_id[v] >= 0
    ) + tuple((offset + v, p, lab) for v, p, lab in repl.fixed)
    spliced = _tree_of_columns(offset + repl.tree.n, tree.delta, edges)
    return PoledTree(spliced, new_poles, new_fixed)


def _edge_rows(tree: PortTree) -> np.ndarray:
    """The tree's edges as (m, 4) rows u, pu, v, pv."""
    return np.array(list(tree.edges()), np.int64).reshape(-1, 4)


# --- pumping ----------------------------------------------------------------------


def pumping_decompose(
    problem: LclProblem, tables: Sequence[HTable]
) -> Optional[tuple[int, int]]:
    """First (a, b) with equal concatenated-prefix tables, scanning b upward.

    The one-piece prefix never matches a longer one (different signature),
    so any result has 2 <= a < b and splits the list into X, Y, Z with Y
    pumpable.
    """
    seen: dict[HTable, int] = {}
    for b, table in enumerate(_prefix_tables(problem, list(tables)), start=1):
        a = seen.setdefault(table, b)
        if a != b:
            return (a, b)
    return None


# --- census -----------------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    """Distinct table counts observed over sampled rooted trees."""

    max_size: int
    samples_per_size: int
    class1_count: int
    class2_count: int
    ell_pump_bound: int
    cumulative_class1: tuple[int, ...]

    def describe(self) -> str:
        sizes = ", ".join(
            f"{n}:{c}" for n, c in enumerate(self.cumulative_class1, start=1)
        )
        return (
            f"rooted classes: {self.class1_count} "
            f"(cumulative by tree size: {sizes})\n"
            f"bipolar classes from pairwise concatenation: {self.class2_count}\n"
            f"empirical ell_pump bound: {self.ell_pump_bound}"
        )


def class_census(
    problem: LclProblem,
    max_size: int,
    seed: int = 0,
    samples_per_size: int = 6,
) -> CensusReport:
    """Sample rooted trees up to max_size, with every eligible pole, and
    count distinct tables; bipolar classes come from pairwise concatenation
    of the rooted tables that can host path edges."""
    if max_size < 1 or samples_per_size < 1:
        raise ValueError("census sizes must be positive")
    # first-seen order; HTable is frozen, so hashable
    class1: dict[HTable, None] = {}
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
                    class1[h_table(problem, PoledTree(tree, (v,)))] = None
        cumulative.append(len(class1))
    wide = [t for t in class1 if t.arities[0] >= 2]
    class2 = {concat_bipolar(problem, [t1, t2]): None for t1 in wide for t2 in wide}
    return CensusReport(
        max_size=max_size,
        samples_per_size=samples_per_size,
        class1_count=len(class1),
        class2_count=len(class2),
        ell_pump_bound=len(class2) + 1,
        cumulative_class1=tuple(cumulative),
    )
