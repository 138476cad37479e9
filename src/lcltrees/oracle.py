"""Brute-force reference implementations.

Everything here works straight from the definitions by exhaustive search,
shares only the problem/tree data model with the faster modules, and answers
with an explicit UNKNOWN when a budget runs out instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional, Union

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

    def search() -> Optional[HalfEdgeLabeling]:
        # depth-first over order, tried[i] counting the arrangements taken at
        # depth i; a loop rather than recursion, as trees outgrow the stack
        tried = [0] * len(order)
        i = 0
        while i < len(order):
            v = order[i]
            while tried[i] < len(arrangements):
                ports = arrangements[tried[i]]
                tried[i] += 1
                counter.tick()
                if consistent(v, ports):
                    assigned[v] = ports
                    i += 1
                    break
            else:
                if i == 0:
                    return None
                tried[i] = 0
                i -= 1
                del assigned[order[i]]
        return HalfEdgeLabeling(tuple(assigned[v] for v in range(tree.n)))

    try:
        labeling = search()
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
    Searches all interior assignments depth first, first success wins;
    paths longer than budget.max_vertices answer UNKNOWN.
    """
    for c in (c1, c2):
        if c not in subset:
            raise ValueError(f"config {c.labels} not in subset")
    if a1 not in c1 or a2 not in c2:
        raise ValueError("endpoint label not in its config")
    if k < 2:
        raise ValueError("paths need at least two vertices")
    if k > budget.max_vertices:
        return UNKNOWN
    if k == 2:
        return problem.edge_ok(a1, a2)

    configs = sorted(subset)
    counter = _Counter(budget.max_steps)

    def outs(prev_out: int) -> Iterator[int]:
        """The out labels of the next vertex that can face prev_out."""
        for c in configs:
            for in_label in c.distinct():
                counter.tick()
                if problem.edge_ok(prev_out, in_label):
                    yield from sorted(set(c.minus(in_label)))

    # stack[j] yields the choices of interior vertex j+1, depth first
    stack = [outs(a1)]
    try:
        while stack:
            out_label = next(stack[-1], None)
            if out_label is None:
                stack.pop()
            elif len(stack) < k - 2:
                stack.append(outs(out_label))
            elif problem.edge_ok(out_label, a2):
                return True
    except _OutOfBudget:
        return UNKNOWN
    return False
