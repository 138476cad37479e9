"""LCL problems on Delta-regular trees.

A problem is a finite label alphabet together with the allowed size-Delta
vertex multisets and the allowed size-2 edge multisets.  A labeling assigns
one label to every port (half-edge) of every vertex; virtual ports count
toward the vertex constraint but have no edge constraint.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from .pathstates import StateTable


class ProblemFormatError(ValueError):
    """Malformed problem or labeling document."""


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in lcltrees, never bad input."""


@dataclass(frozen=True, order=True)
class Label:
    id: int
    name: str


@dataclass(frozen=True, order=True)
class VertexConfig:
    """Unordered multiset of label ids, stored as a sorted tuple."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.labels)) != self.labels:
            raise ValueError("vertex config labels must be sorted")

    @staticmethod
    def of(labels: Iterable[int]) -> "VertexConfig":
        return VertexConfig(tuple(sorted(labels)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: int) -> bool:
        return label in self.labels

    def count(self, label: int) -> int:
        return self.labels.count(label)

    def distinct(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.labels)))

    def minus(self, *removed: int) -> tuple[int, ...]:
        """Multiset difference; raises if a removed label is not present."""
        left = list(self.labels)
        for r in removed:
            left.remove(r)
        return tuple(left)


@dataclass(frozen=True, order=True)
class EdgeConfig:
    """Unordered pair of label ids, stored as a sorted 2-tuple."""

    labels: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.labels) != 2 or tuple(sorted(self.labels)) != self.labels:
            raise ValueError("edge config must be a sorted pair")

    @staticmethod
    def of(a: int, b: int) -> "EdgeConfig":
        return EdgeConfig((min(a, b), max(a, b)))


@dataclass(frozen=True)
class LclProblem:
    delta: int
    labels: tuple[Label, ...]
    vertex_configs: frozenset[VertexConfig]
    edge_configs: frozenset[EdgeConfig]

    def __post_init__(self) -> None:
        if self.delta < 3:
            raise ValueError("delta must be at least 3")
        ids = [lab.id for lab in self.labels]
        if ids != list(range(len(self.labels))):
            raise ValueError("label ids must be 0..|labels|-1 in order")
        names = [lab.name for lab in self.labels]
        if len(set(names)) != len(names):
            raise ValueError("label names must be unique")
        for c in self.vertex_configs:
            if len(c) != self.delta:
                raise ValueError(f"vertex config {c.labels} has size != delta")
            self._check_ids(c.labels)
        for e in self.edge_configs:
            self._check_ids(e.labels)

    def _check_ids(self, ids: Iterable[int]) -> None:
        for i in ids:
            if not 0 <= i < len(self.labels):
                raise ValueError(f"label id {i} out of range")

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def name_of(self, label_id: int) -> str:
        return self.labels[label_id].name

    def label_by_name(self, name: str) -> Label:
        for lab in self.labels:
            if lab.name == name:
                return lab
        raise KeyError(f"no label named {name!r}")

    @cached_property
    def _edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            pair for e in self.edge_configs for pair in (e.labels, e.labels[::-1])
        )

    def edge_ok(self, a: int, b: int) -> bool:
        return (a, b) in self._edge_pairs

    @cached_property
    def edge_matrix(self) -> np.ndarray:
        """edge_matrix[a, b] holds when labels a and b may share an edge."""
        m = np.zeros((self.num_labels, self.num_labels), dtype=bool)
        for a, b in self._edge_pairs:
            m[a, b] = True
        m.flags.writeable = False
        return m

    @cached_property
    def state_table(self) -> "StateTable":
        """Every path state of the problem with its transitions, built once."""
        from .pathstates import StateTable  # pathstates imports this module

        return StateTable(self)

    def sorted_configs(self) -> list[VertexConfig]:
        return sorted(self.vertex_configs)


@dataclass(frozen=True)
class HalfEdgeLabeling:
    """ports[v][p] is the label id on port p of vertex v."""

    ports: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.ports)

    def vertex_config(self, v: int) -> VertexConfig:
        return VertexConfig.of(self.ports[v])


@dataclass(frozen=True)
class ValidityReport:
    vertex_violations: tuple[tuple[int, VertexConfig], ...]
    edge_violations: tuple[tuple[int, int, int, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.vertex_violations and not self.edge_violations

    def describe(self, problem: LclProblem) -> str:
        if self.ok:
            return "labeling is valid"
        lines = []
        for v, cfg in self.vertex_violations:
            names = [problem.name_of(x) for x in cfg]
            lines.append(f"vertex {v}: port multiset {{{', '.join(names)}}} not allowed")
        for u, pu, v, pv, a, b in self.edge_violations:
            lines.append(
                f"edge {u}:{pu} -- {v}:{pv}: pair "
                f"{{{problem.name_of(a)}, {problem.name_of(b)}}} not allowed"
            )
        return "\n".join(lines)


def is_valid_labeling(problem: LclProblem, tree, labeling: HalfEdgeLabeling) -> ValidityReport:
    """Check every vertex multiset and every real edge pair.

    Virtual ports participate in vertex configs only.  The tree argument is a
    PortTree; vertex count and delta must match the labeling and the problem.
    """
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


# --- file formats -----------------------------------------------------------
#
# problem: {"delta": D, "labels": [...names...],
#           "vertex_configs": [[name]*D, ...], "edge_configs": [[name, name], ...]}
# labeling: [{"vertex": v, "ports": [name]*D}, ...]


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def parse_problem(text: str) -> LclProblem:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    for key in ("delta", "labels", "vertex_configs", "edge_configs"):
        if key not in doc:
            raise ProblemFormatError(f"missing key {key!r}")
    delta = doc["delta"]
    if not isinstance(delta, int) or delta < 3:
        raise ProblemFormatError("delta must be an integer >= 3")
    raw_labels = doc["labels"]
    if not isinstance(raw_labels, list) or not raw_labels:
        raise ProblemFormatError("labels must be a nonempty list of names")
    if any(not isinstance(s, str) for s in raw_labels):
        raise ProblemFormatError("label names must be strings")
    if len(set(raw_labels)) != len(raw_labels):
        raise ProblemFormatError("duplicate label name")
    by_name = {s: i for i, s in enumerate(raw_labels)}

    def name_to_id(s: object, where: str) -> int:
        if not isinstance(s, str) or s not in by_name:
            raise ProblemFormatError(f"{where}: unknown label {s!r}")
        return by_name[s]

    for key in ("vertex_configs", "edge_configs"):
        if not isinstance(doc[key], list):
            raise ProblemFormatError(f"{key} must be a list")
    vcfgs = set()
    for row in doc["vertex_configs"]:
        if not isinstance(row, list) or len(row) != delta:
            raise ProblemFormatError(f"vertex config {row!r} must list exactly delta labels")
        vcfgs.add(VertexConfig.of(name_to_id(s, "vertex config") for s in row))
    ecfgs = set()
    for row in doc["edge_configs"]:
        if not isinstance(row, list) or len(row) != 2:
            raise ProblemFormatError(f"edge config {row!r} must list exactly two labels")
        a, b = (name_to_id(s, "edge config") for s in row)
        ecfgs.add(EdgeConfig.of(a, b))
    labels = tuple(Label(i, s) for i, s in enumerate(raw_labels))
    try:
        return LclProblem(delta, labels, frozenset(vcfgs), frozenset(ecfgs))
    except ValueError as e:
        raise ProblemFormatError(str(e)) from e


def serialize_problem(problem: LclProblem) -> str:
    doc = {
        "delta": problem.delta,
        "labels": [lab.name for lab in problem.labels],
        "vertex_configs": [
            [problem.name_of(x) for x in c] for c in problem.sorted_configs()
        ],
        "edge_configs": [
            [problem.name_of(x) for x in e.labels] for e in sorted(problem.edge_configs)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_labeling(text: str, problem: LclProblem) -> HalfEdgeLabeling:
    doc = _load_json(text)
    if not isinstance(doc, list):
        raise ProblemFormatError("labeling document must be a JSON list")
    rows: dict[int, tuple[int, ...]] = {}
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
        try:
            rows[v] = tuple(problem.label_by_name(s).id for s in names)
        except KeyError as e:
            raise ProblemFormatError(f"vertex {v}: {e.args[0]}") from e
    if not rows:
        raise ProblemFormatError("labeling is empty")
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise ProblemFormatError("vertex ids must be exactly 0..n-1")
    return HalfEdgeLabeling(tuple(rows[v] for v in range(n)))


def serialize_labeling(labeling: HalfEdgeLabeling, problem: LclProblem) -> str:
    doc = [
        {"vertex": v, "ports": [problem.name_of(x) for x in labeling.ports[v]]}
        for v in range(labeling.n)
    ]
    return json.dumps(doc, indent=2) + "\n"
