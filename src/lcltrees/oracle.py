"""Brute-force reference implementations.

Everything here works straight from the definitions by exhaustive search,
shares only the problem/tree data model with the faster modules, and answers
with an explicit UNKNOWN when a budget runs out instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Union

from .problems import (
    HalfEdgeLabeling,
    InternalError,
    LclProblem,
    VertexConfig,
    is_valid_labeling,
)
from .trees import PortTree, bfs_tree


class _Unknown:
    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        raise TypeError("UNKNOWN is not a truth value; compare with `is`")


UNKNOWN = _Unknown()
OracleAnswer = Union[bool, _Unknown]


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 12
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        if self.max_vertices < 1 or self.max_steps < 1:
            raise ValueError("budget bounds must be positive")


@dataclass(frozen=True)
class OracleResult:
    status: str  # "found" | "none" | "unknown"
    labeling: Optional[HalfEdgeLabeling] = None


class _OutOfBudget(Exception):
    pass


class _Counter:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _OutOfBudget


def brute_force_solve(
    problem: LclProblem, tree: PortTree, budget: OracleBudget = OracleBudget()
) -> OracleResult:
    """Exhaustive search over all port labelings, pruned edge by edge."""
    if tree.delta != problem.delta:
        raise ValueError("tree delta differs from problem delta")
    if tree.n > budget.max_vertices:
        return OracleResult("unknown")

    arrangements = sorted(
        {perm for c in problem.vertex_configs for perm in permutations(c.labels)}
    )
    if not arrangements:
        return OracleResult("none")

    # BFS order guarantees each later vertex has exactly one earlier neighbor,
    # so pruning only ever needs the edge back to it.
    order, _ = bfs_tree(tree, [0])

    assigned: dict[int, tuple[int, ...]] = {}
    counter = _Counter(budget.max_steps)

    nbr, back = tree.nbr.tolist(), tree.back.tolist()

    def consistent(v: int, ports: tuple[int, ...]) -> bool:
        # a virtual port's -1 is never assigned
        for p, (u, q) in enumerate(zip(nbr[v], back[v])):
            if u in assigned and not problem.edge_ok(ports[p], assigned[u][q]):
                return False
        return True

    def search(i: int) -> Optional[HalfEdgeLabeling]:
        if i == len(order):
            return HalfEdgeLabeling(tuple(assigned[v] for v in range(tree.n)))
        v = order[i]
        for ports in arrangements:
            counter.tick()
            if consistent(v, ports):
                assigned[v] = ports
                found = search(i + 1)
                if found is not None:
                    return found
                del assigned[v]
        return None

    try:
        labeling = search(0)
    except _OutOfBudget:
        return OracleResult("unknown")
    if labeling is None:
        return OracleResult("none")
    if not is_valid_labeling(problem, tree, labeling).ok:
        raise InternalError("oracle produced an invalid labeling")
    return OracleResult("found", labeling)


def brute_force_connects(
    problem: LclProblem,
    subset: frozenset[VertexConfig],
    a1: int,
    c1: VertexConfig,
    a2: int,
    c2: VertexConfig,
    k: int,
    budget: OracleBudget = OracleBudget(),
) -> OracleAnswer:
    """Can a k-vertex path carry the endpoints' facing labels a1, a2?

    Interior vertices take configs from the subset, spending one label on
    each path edge; endpoint configs c1, c2 only assert a1 in c1, a2 in c2.
    Searches all interior assignments recursively, first success wins.
    """
    for c in (c1, c2):
        if c not in subset:
            raise ValueError(f"config {c.labels} not in subset")
    if a1 not in c1 or a2 not in c2:
        raise ValueError("endpoint label not in its config")
    if k < 2:
        raise ValueError("paths need at least two vertices")
    if k == 2:
        return problem.edge_ok(a1, a2)

    configs = sorted(subset)
    counter = _Counter(budget.max_steps)

    def search(position: int, prev_out: int) -> bool:
        if position == k - 1:
            return problem.edge_ok(prev_out, a2)
        for c in configs:
            for in_label in c.distinct():
                counter.tick()
                if not problem.edge_ok(prev_out, in_label):
                    continue
                rest = c.minus(in_label)
                for out_label in sorted(set(rest)):
                    if search(position + 1, out_label):
                        return True
        return False

    try:
        return search(1, a1)
    except _OutOfBudget:
        return UNKNOWN
