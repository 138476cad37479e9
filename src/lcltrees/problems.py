"""LCL problems on Delta-regular trees.

A problem is a finite label alphabet together with the allowed size-Delta
vertex multisets and the allowed size-2 edge multisets.  A labeling assigns
one label to every port (half-edge) of every vertex; virtual ports count
toward the vertex constraint but have no edge constraint.

A HalfEdgeLabeling is row-indexed: its distinct port rows as tuples, plus
one int64 array holding each vertex's index into them.  The solver and
parse_labeling build labelings in this form, and is_valid_labeling and
serialize_labeling handle each distinct row once and reach the vertices
through the index array; the per-vertex tuples are built only when read.
parse_labeling scans the layout serialize_labeling writes without
json.loads, a slice at a time from the text or from an open file, and
reads every other document whole through json.loads; both routes give the
same labeling, and only the second raises messages.  labeling_chunks
writes the layout a block of records at a time, and serialize_labeling
joins its pieces.
"""
from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from .equivalence import _VertexStep
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
    def partner_masks(self) -> tuple[int, ...]:
        """partner_masks[a] has bit b set when labels a and b may share an edge."""
        masks = [0] * self.num_labels
        for a, b in self._edge_pairs:
            masks[a] |= 1 << b
        return tuple(masks)

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

    @cached_property
    def vertex_step(self) -> "_VertexStep":
        """h_table's memoized vertex step, shared by every table of the problem."""
        from .equivalence import _VertexStep  # equivalence imports this module

        return _VertexStep(self)

    def sorted_configs(self) -> list[VertexConfig]:
        return sorted(self.vertex_configs)


class HalfEdgeLabeling:
    """A label id on every port of every vertex, each distinct row stored once.

    rows holds the distinct port rows as tuples, every one of them some
    vertex's, and row_of, a read-only int64 array, indexes each vertex's row
    in rows: rows[row_of[v]][p] is the label id on port p of vertex v.  The
    per-vertex tuples, .ports, are built only when first read.  Two
    labelings are equal when their ports are.
    """

    def __init__(self, ports: Iterable[Sequence[int]]) -> None:
        """The labeling whose vertex v carries the row ports[v].  Rows are
        kept as given, ragged or not; rows that compare equal while holding
        values of other types (1 and 1.0, say) stay apart."""
        ids: dict[tuple, int] = {}
        row_of = [
            ids.setdefault((row, tuple(map(type, row))), len(ids)) for row in map(tuple, ports)
        ]
        self._fill(tuple(row for row, _ in ids), np.array(row_of, np.int64))

    @classmethod
    def _of_rows(cls, rows: tuple[tuple[int, ...], ...], row_of: np.ndarray) -> "HalfEdgeLabeling":
        """The labeling of distinct rows, each some vertex's, and the int64
        index of every vertex's row."""
        labeling = cls.__new__(cls)
        labeling._fill(rows, row_of)
        return labeling

    def _fill(self, rows: tuple[tuple[int, ...], ...], row_of: np.ndarray) -> None:
        self.rows = rows
        self.row_of = row_of
        self.row_of.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.row_of)

    @cached_property
    def ports(self) -> tuple[tuple[int, ...], ...]:
        """ports[v][p]: the label id on port p of vertex v."""
        return tuple(map(self.rows.__getitem__, self.row_of.tolist()))

    def vertex_config(self, v: int) -> VertexConfig:
        return VertexConfig.of(self.rows[self.row_of[v]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HalfEdgeLabeling):
            return NotImplemented
        if self.n != other.n:
            return False
        # each pair of rows, one in self and one in other, that a vertex holds
        width = max(len(other.rows), 1)
        mine, theirs = divmod(np.unique(self.row_of * width + other.row_of), width)
        return all(self.rows[i] == other.rows[j] for i, j in zip(mine.tolist(), theirs.tolist()))

    def __hash__(self) -> int:
        return hash(self.ports)

    def __repr__(self) -> str:
        return f"HalfEdgeLabeling(rows={self.rows!r}, row_of={self.row_of!r})"


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
    Each distinct row is checked once, for its length and its config: its
    sorted labels become one base-(|labels|+1) number looked up among the
    allowed configs' numbers, and every vertex takes its row's verdict.  Each
    real edge's two labels are gathered from the rows through row_of at the
    tree's port arrays and looked up in edge_matrix.
    """
    if labeling.n != tree.n:
        raise ValueError(f"labeling has {labeling.n} vertices, tree has {tree.n}")
    if tree.delta != problem.delta:
        raise ValueError("tree delta differs from problem delta")
    rows, row_of, delta = labeling.rows, labeling.row_of, problem.delta
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    wrong = np.flatnonzero(lengths[row_of] != delta)
    if wrong.size:
        v = int(wrong[0])
        raise ValueError(f"vertex {v} has {lengths[row_of[v]]} ports, want {delta}")
    table = _label_array(rows, len(rows) * delta, problem.num_labels).reshape(-1, delta)

    # id num_labels stands for every id out of range, so its rows match no
    # config; base**delta, above every row's number, ends the allowed list
    base = problem.num_labels + 1
    dtype = np.int64 if base**delta <= np.iinfo(np.int64).max else object
    weights = np.array([base**j for j in reversed(range(delta))], dtype=dtype)
    configs = np.array([c.labels for c in problem.vertex_configs], dtype=dtype)
    allowed = np.sort(np.append(configs.reshape(-1, delta) @ weights, base**delta))
    keys = np.sort(table, axis=1).astype(dtype) @ weights
    vertex_bad = np.flatnonzero((allowed[np.searchsorted(allowed, keys)] != keys)[row_of])

    u, pu, v, pv = tree.edge_columns()  # each real edge once, as tree.edges() lists it
    pairs = np.zeros((base, base), dtype=bool)
    pairs[:-1, :-1] = problem.edge_matrix
    bad = ~pairs[table[row_of[u], pu], table[row_of[v], pv]]
    u, pu, v, pv = u[bad], pu[bad], v[bad], pv[bad]
    return ValidityReport(
        tuple(
            (x, VertexConfig.of(rows[r]))
            for x, r in zip(vertex_bad.tolist(), row_of[vertex_bad].tolist())
        ),
        tuple(
            (a, pa, b, pb, rows[ra][pa], rows[rb][pb])
            for a, pa, b, pb, ra, rb in zip(
                *(x.tolist() for x in (u, pu, v, pv, row_of[u], row_of[v]))
            )
        ),
    )


def _label_array(rows: tuple[tuple[int, ...], ...], size: int, num_labels: int) -> np.ndarray:
    """The label ids of the rows port by port in one flat array, num_labels
    in place of every id that is not an integer in 0..num_labels-1."""
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
#
# parse_labeling gets a labeling by one of two routes.  Text in exactly the
# layout serialize_labeling writes (json.dumps(doc, indent=2) plus a
# newline, vertex ids of at most 18 digits, in any order) is scanned: each
# slice is split at its vertex ids, one int64 array per slice, and each
# distinct text between ids is decoded once and checked against what the
# writer renders for its row.  Any other text, valid or not, goes through
# json.loads and the record-by-record checks, which alone raise messages.
#
# Tree and labeling documents are read and written in slices, so that a
# large one is never held whole: a parser takes the text or an open text
# file, and the scan pulls _SLICE characters at a time from either; only a
# document that leaves the layout is read whole, for json.loads.  The
# writers yield their text _BLOCK records at a time.

# an unsigned integer as json.dumps writes it, short enough for int64
_NUMBER = "(?:0|[1-9][0-9]{0,17})"

# Characters a scan reads at a time; a slice of the record list is cut at
# the first record boundary this far past its start.  A slice's text, its
# digits and the text carried to the next slice stay below glibc's 128 KiB
# mmap threshold, so they reuse heap memory rather than fresh pages: on
# 10^4- to 3*10^4-vertex files, 16 to 64 KiB parsed fastest, 8 KiB paid
# per-slice regex and numpy calls, and 128 and 256 KiB were up to a third
# slower.
_SLICE = 1 << 15
# Records a writer renders into one piece of text.
_BLOCK = 1 << 9

# a document: its text, or a text file open at its start
Document = str | IO[str]
T = TypeVar("T")


def _reader(doc: Document) -> Callable[[int], str]:
    """read(size) over the document: its next size characters, "" at its end."""
    if not isinstance(doc, str):
        return doc.read
    pos = 0

    def read(size: int) -> str:
        nonlocal pos
        pos += size
        return doc[pos - size : pos]

    return read


def _scanned(scan: Callable[..., Optional[T]], doc: Document, *args: object) -> Optional[T]:
    """scan(doc, *args); None also when the file holds bytes that are not
    UTF-8, which _whole reads again and reports with their place in the
    whole file, as a whole read does."""
    try:
        return scan(doc, *args)
    except UnicodeDecodeError:
        return None


def _whole(doc: Document) -> str:
    """The document's whole text."""
    if isinstance(doc, str):
        return doc
    doc.seek(0)
    return doc.read()


def _slices(
    read: Callable[[int], str], size: int, text: str, cut: str, tail: str
) -> Iterator[Optional[str]]:
    """The record list that text begins and read(size) continues, slice by
    slice; then None unless the list ends in tail, which the last slice
    leaves off.

    Each slice but the last ends with the "}" of the first cut marker (a
    record's closing brace, the ",\n" that joins it to the next, and the
    next one's opening) at least size characters past the slice's start,
    and the next slice begins past that ",\n".  A slice is matched as a
    whole: a repeat holds a backtracking point per record until it ends,
    so one match over the whole list would grow with the number of records.
    """
    at = size  # where the search for the next cut marker starts
    while True:
        found = text.find(cut, at)
        if found >= 0:
            yield text[: found + 1]
            text, at = text[found + 3 :], size
            continue
        more = read(size)
        if not more:
            break
        at = max(size, len(text) - len(cut) + 1)
        text += more
    yield text[: -len(tail)] if text.endswith(tail) else None


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


def parse_labeling(doc: Document, problem: LclProblem) -> HalfEdgeLabeling:
    """The labeling a document gives, from its text or a text file open at
    its start; ProblemFormatError names the first fault: the document's
    type, an entry's keys, a vertex id, a repeated vertex, a row's length or
    an unknown label, in record order, then an empty list or ids other than
    0..n-1."""
    scanned = _scanned(_scan_labeling, doc, problem)
    if scanned is not None:
        return scanned
    doc = load_json(_whole(doc))
    if not isinstance(doc, list):
        raise ProblemFormatError("labeling document must be a JSON list")
    # each vertex's index into rows: a labeling repeats a few rows many times
    row_of: dict[int, int] = {}
    rows: list[tuple[int, ...]] = []
    row_ids: dict[tuple, int] = {}  # row of names -> index into rows
    for entry in doc:
        if not isinstance(entry, dict) or "vertex" not in entry or "ports" not in entry:
            raise ProblemFormatError(f"labeling entry {entry!r} needs vertex and ports")
        v = entry["vertex"]
        if not isinstance(v, int) or v < 0:
            raise ProblemFormatError(f"bad vertex id {v!r}")
        if v in row_of:
            raise ProblemFormatError(f"vertex {v} listed twice")
        names = entry["ports"]
        if not isinstance(names, list) or len(names) != problem.delta:
            raise ProblemFormatError(f"vertex {v}: ports must list exactly delta labels")
        key = tuple(names)
        try:
            r = row_ids.get(key)
        except TypeError:  # an unhashable name, which names no label
            r = None
        if r is None:
            try:
                rows.append(tuple(problem.label_by_name(s).id for s in names))
            except KeyError as e:
                raise ProblemFormatError(f"vertex {v}: {e.args[0]}") from e
            r = row_ids[key] = len(rows) - 1
        row_of[v] = r
    if not row_of:
        raise ProblemFormatError("labeling is empty")
    n = len(row_of)
    # the ids are distinct and nonnegative, so they are 0..n-1 when the largest is n-1
    if max(row_of) != n - 1:
        raise ProblemFormatError("vertex ids must be exactly 0..n-1")
    return HalfEdgeLabeling._of_rows(
        tuple(rows), np.fromiter(map(row_of.__getitem__, range(n)), np.int64, n)
    )


# a cut marker between two records
_CUT = "},\n  {\n"
_OPEN, _PORTS, _CLOSE = "  {\n    ", ',\n    "ports": ', "\n  }"
_VERTEX, _NEXT = _OPEN + '"vertex": ', ",\n" + _OPEN
_FIRST, _SEP, _LAST = "[\n      ", ",\n      ", "\n    ]"
_ID = re.compile('"vertex": ([0-9]*)')
# the least canonical id of each digit count from 1 to 18
_LEAST = np.array([0] + [10**k for k in range(1, 18)], np.int64)


def _tail(names: list[str], row: Sequence[int]) -> str:
    """A record's text after its vertex id, as the writer renders the row;
    names[x] is label x as json.dumps writes it."""
    listed = _SEP.join(names[x] for x in row)
    return f"{_PORTS}{_FIRST}{listed}{_LAST}{_CLOSE}" if row else f"{_PORTS}[]{_CLOSE}"


def _scan_labeling(doc: Document, problem: LclProblem) -> Optional[HalfEdgeLabeling]:
    """The labeling of a document in exactly serialize_labeling's layout,
    with at least one record and vertex ids 0..n-1 in any order; None for
    any other text.

    A slice, with the next record's head appended, splits at the vertex ids
    into the head of its first record, then after each id that record's
    tail and the next one's head.  The ids must be canonical decimals of at
    most 18 digits.  Each distinct tail is decoded once, at the separators
    between names (a name as json.dumps writes it holds no newline), and
    kept only if it is byte for byte what _tail renders for its row.
    """
    read = _reader(doc)
    text = read(_SLICE)
    if not text.startswith("[\n"):
        return None
    row_ids: dict[str, int] = {}  # a tail and the next head -> index into rows
    vertices, row_of = [], []
    for block in _slices(read, _SLICE, text[2:], _CUT, "\n]\n"):
        if block is None:
            return None
        pieces = _ID.split(block + _NEXT)
        if pieces[0] != _OPEN:  # also when no id splits the slice
            return None
        ids, tails = pieces[1::2], pieces[2::2]
        digits = np.fromiter(map(len, ids), np.int64, len(ids))
        if digits.min() < 1 or digits.max() > 18:
            return None
        vertices.append(np.fromstring(" ".join(ids), np.int64, sep=" "))
        if (vertices[-1] < _LEAST[digits - 1]).any():  # a leading zero
            return None
        for piece in dict.fromkeys(tails):
            row_ids.setdefault(piece, len(row_ids))
        row_of.append(np.fromiter(map(row_ids.__getitem__, tails), np.int64, len(tails)))
    vertex = np.concatenate(vertices)
    n = len(vertex)
    if vertex.max() >= n:
        return None
    listed = np.zeros(n, bool)
    listed[vertex] = True
    if not listed.all():
        return None
    names = [json.dumps(lab.name) for lab in problem.labels]
    by_name = {name: x for x, name in enumerate(names)}
    rows, listing = [], slice(len(_PORTS + _FIRST), -len(_LAST + _CLOSE + _NEXT))
    for piece in row_ids:
        row = tuple(map(by_name.get, piece[listing].split(_SEP)))
        if len(row) != problem.delta or None in row or _tail(names, row) + _NEXT != piece:
            return None
        rows.append(row)
    ordered = np.empty(n, np.int64)
    ordered[vertex] = np.concatenate(row_of)
    return HalfEdgeLabeling._of_rows(tuple(rows), ordered)


def labeling_chunks(labeling: HalfEdgeLabeling, problem: LclProblem) -> Iterator[str]:
    """The labeling as json.dumps(doc, indent=2) writes it, byte for byte,
    in pieces of at most _BLOCK records: each label name is escaped once,
    each distinct row rendered once, and each vertex's record is one
    f-string.  The rows are rendered before the first piece is asked for."""
    names = [json.dumps(lab.name) for lab in problem.labels]
    return _labeling_pieces([_tail(names, row) for row in labeling.rows], labeling.row_of)


def _labeling_pieces(tails: list[str], row_of: np.ndarray) -> Iterator[str]:
    if not len(row_of):
        yield "[]\n"
        return
    yield "[\n"
    for start in range(0, len(row_of), _BLOCK):
        if start:
            yield ",\n"
        of_vertex = map(tails.__getitem__, row_of[start : start + _BLOCK].tolist())
        yield ",\n".join(f"{_VERTEX}{v}{tail}" for v, tail in enumerate(of_vertex, start))
    yield "\n]\n"


def serialize_labeling(labeling: HalfEdgeLabeling, problem: LclProblem) -> str:
    """The labeling as json.dumps(doc, indent=2) writes it, byte for byte."""
    return "".join(labeling_chunks(labeling, problem))
