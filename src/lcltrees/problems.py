"""LCL problems on Delta-regular trees.

A problem is a finite label alphabet together with the allowed size-Delta
vertex multisets and the allowed size-2 edge multisets.  A labeling assigns
one label to every port (half-edge) of every vertex; virtual ports count
toward the vertex constraint but have no edge constraint.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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

    @cached_property
    def _label_of_name(self) -> dict[str, Label]:
        return {lab.name: lab for lab in self.labels}

    def label_by_name(self, name: str) -> Label:
        try:
            return self._label_of_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name names no label
            raise KeyError(f"no label named {name!r}") from None

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
    The labels go into one array, and both checks run column-wise over it:
    each vertex's sorted labels become one base-(|labels|+1) number looked up
    among the allowed configs' numbers, and each real edge's two labels are
    read from the tree's port arrays and looked up in edge_matrix.
    """
    if labeling.n != tree.n:
        raise ValueError(f"labeling has {labeling.n} vertices, tree has {tree.n}")
    if tree.delta != problem.delta:
        raise ValueError("tree delta differs from problem delta")
    rows, n, delta = labeling.ports, tree.n, problem.delta
    if set(map(len, rows)) != {delta}:
        v = next(v for v, row in enumerate(rows) if len(row) != delta)
        raise ValueError(f"vertex {v} has {len(rows[v])} ports, want {delta}")
    labels = _label_array(rows, n * delta, problem.num_labels)

    # id num_labels stands for every id out of range, so its rows match no
    # config; base**delta, above every row's number, ends the allowed list
    base = problem.num_labels + 1
    dtype = np.int64 if base**delta <= np.iinfo(np.int64).max else object
    weights = np.array([base**j for j in reversed(range(delta))], dtype=dtype)
    configs = np.array([c.labels for c in problem.vertex_configs], dtype=dtype)
    allowed = np.sort(np.append(configs.reshape(-1, delta) @ weights, base**delta))
    keys = np.sort(labels.reshape(n, delta), axis=1).astype(dtype) @ weights
    vertex_bad = np.flatnonzero(allowed[np.searchsorted(allowed, keys)] != keys)

    # each real edge once, from its end u < v, in port-array order as
    # tree.edges() lists it; slot s is port s % delta of vertex s // delta
    nbr, back = tree.nbr.ravel().astype(np.intp), tree.back.ravel()
    slot_u = np.flatnonzero(nbr > np.arange(n * delta) // delta)
    slot_v = nbr[slot_u] * delta + back[slot_u]
    pairs = np.zeros((base, base), dtype=bool)
    pairs[:-1, :-1] = problem.edge_matrix
    bad = ~pairs[labels[slot_u], labels[slot_v]]
    u, pu = divmod(slot_u[bad], delta)
    v, pv = divmod(slot_v[bad], delta)
    return ValidityReport(
        tuple((x, VertexConfig.of(rows[x])) for x in vertex_bad.tolist()),
        tuple(
            (a, pa, b, pb, rows[a][pa], rows[b][pb])
            for a, pa, b, pb in zip(u.tolist(), pu.tolist(), v.tolist(), pv.tolist())
        ),
    )


def _label_array(rows: tuple[tuple[int, ...], ...], size: int, num_labels: int) -> np.ndarray:
    """The label ids port by port in one flat array, num_labels in place of
    every id that is not an integer in 0..num_labels-1."""
    try:
        # array("q") refuses, where numpy would truncate, a float or a string
        flat = np.frombuffer(array("q", chain.from_iterable(rows)), np.int64)
    except (TypeError, OverflowError):  # an id that is no label anyway
        ids = chain.from_iterable(rows)
        ok = (x if isinstance(x, int) and 0 <= x < num_labels else -1 for x in ids)
        flat = np.fromiter(ok, np.int64, size)
    flat[(flat < 0) | (flat >= num_labels)] = num_labels
    return flat


# --- file formats -----------------------------------------------------------
#
# problem: {"delta": D, "labels": [...names...],
#           "vertex_configs": [[name]*D, ...], "edge_configs": [[name, name], ...]}
# labeling: [{"vertex": v, "ports": [name]*D}, ...]


def load_json(text: str, error: type[ValueError] = ProblemFormatError) -> object:
    """The JSON value in text; a syntax error, nesting too deep to parse, or
    an integer with more digits than int() converts, raises error instead."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise error("document nests too deeply to parse") from None
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise error("an integer has too many digits to read") from None


def parse_problem(text: str) -> LclProblem:
    doc = load_json(text)
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


def serialize_labeling(labeling: HalfEdgeLabeling, problem: LclProblem) -> str:
    """The labeling as json.dumps(doc, indent=2) writes it, byte for byte,
    built in one pass: each label name is escaped once and each distinct
    port row is rendered once."""
    names = [json.dumps(lab.name) for lab in problem.labels]
    rows: dict[tuple[int, ...], str] = {}
    parts = []
    for v, row in enumerate(labeling.ports):
        text = rows.get(row)
        if text is None:
            listed = ",\n      ".join(names[x] for x in row)
            text = rows[row] = f"[\n      {listed}\n    ]" if row else "[]"
        parts.append(f'  {{\n    "vertex": {v},\n    "ports": {text}\n  }}')
    if not parts:
        return "[]\n"
    return "[\n" + ",\n".join(parts) + "\n]\n"
