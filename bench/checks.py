"""Output checks that share no code with lcltrees.

Every checker works on plain data: JSON documents as the command line
writes them, or tuples.  None of them imports the package under test, so a
fault in the measured code cannot hide itself by also being in its check.
Each returns a list of the faults it found; an empty list means correct.

A problem document is {"delta", "labels", "vertex_configs", "edge_configs"}
with label names; a tree document is {"n", "delta", "edges": [{u, pu, v,
pv}]}; a labeling document is [{"vertex", "ports"}]; a classify report is
the JSON the `classify --format json` command prints.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from typing import Optional

VERDICT_IN_PREFIX = "IN "
VERDICT_NOT_PREFIX = "NOT "


class PlainProblem:
    """A problem as label ids: sorted config tuples and unordered edge pairs."""

    def __init__(self, doc: dict):
        self.delta = doc["delta"]
        self.labels = list(doc["labels"])
        self.id_of = {name: i for i, name in enumerate(self.labels)}
        self.configs = sorted(
            {tuple(sorted(self.id_of[x] for x in row)) for row in doc["vertex_configs"]}
        )
        self.pairs = {
            (min(a, b), max(a, b))
            for a, b in ((self.id_of[x], self.id_of[y]) for x, y in doc["edge_configs"])
        }

    def edge_ok(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.pairs

    def config_of_names(self, names) -> tuple[int, ...]:
        return tuple(sorted(self.id_of[x] for x in names))


# --- the ell-full condition, with bitmask rows ----------------------------------
#
# An interior path vertex is a state (config, label sent forward).  State t
# may follow a vertex sending label p when some in-label b of t's config
# pairs with p across the edge and the config still holds t's out-label once
# b is taken.  A k-vertex path (k >= 3) with facing labels a1, a2 exists iff
# entry(a1) * step^(k-3) meets exit(a2).


class _PathGraph:
    def __init__(self, problem: PlainProblem, subset):
        self.problem = problem
        self.states = [(c, a) for c in subset for a in sorted(set(c))]
        self.labels = sorted({a for c in subset for a in c})
        self.step = [self.entry(out) for _c, out in self.states]
        self.index, self.period, self.powers = _periodicity(self.step)

    def _admits(self, prev_out: int, config, out: int) -> bool:
        return any(
            self.problem.edge_ok(prev_out, b) and config.count(b) >= (2 if b == out else 1)
            for b in set(config)
        )

    def entry(self, a1: int) -> int:
        return sum(
            1 << j for j, (c, out) in enumerate(self.states) if self._admits(a1, c, out)
        )

    def exit(self, a2: int) -> int:
        return sum(
            1 << j for j, (_c, out) in enumerate(self.states) if self.problem.edge_ok(out, a2)
        )

    def power(self, m: int) -> tuple[int, ...]:
        if m < len(self.powers):
            return self.powers[m]
        return self.powers[self.index + (m - self.index) % self.period]

    def full(self, ell: int) -> bool:
        """Every facing-label pair joins through every path of >= ell vertices."""
        ok = self.problem.edge_ok
        if ell <= 2 and not all(ok(a, b) for a in self.labels for b in self.labels):
            return False
        m0 = max(0, ell - 3)
        m_hi = max(self.index + self.period - 1, m0 + self.period - 1)
        entries = [self.entry(a) for a in self.labels]
        exits = [self.exit(a) for a in self.labels]
        for m in range(m0, m_hi + 1):
            rows = self.power(m)
            for e in entries:
                reach = _row_times(e, rows)
                if not all(reach & x for x in exits):
                    return False
        return True

    def minimal_ell(self) -> Optional[int]:
        # from ell = index + period + 2 on, the exponent window is the whole
        # cycle, so fullness no longer changes with ell
        for ell in range(2, self.index + self.period + 3):
            if self.full(ell):
                return ell
        return None


def _row_times(row: int, rows: tuple[int, ...]) -> int:
    acc = 0
    while row:
        low = row & -row
        acc |= rows[low.bit_length() - 1]
        row ^= low
    return acc


def _periodicity(step: list[int]) -> tuple[int, int, list[tuple[int, ...]]]:
    """(index, period, powers) of the boolean powers of step."""
    cur = tuple(1 << i for i in range(len(step)))
    seen = {cur: 0}
    powers = [cur]
    while True:
        cur = tuple(_row_times(r, step) for r in cur)
        if cur in seen:
            return seen[cur], len(powers) - seen[cur], powers
        seen[cur] = len(powers)
        powers.append(cur)


def plain_search(problem: PlainProblem) -> Optional[tuple[tuple, int]]:
    """Some (subset, minimal ell) with the subset ell-full, or None; exhaustive."""
    configs = problem.configs
    for size in range(len(configs), 0, -1):
        for subset in combinations(configs, size):
            ell = _PathGraph(problem, subset).minimal_ell()
            if ell is not None:
                return subset, ell
    return None


def check_report(
    problem_doc: dict,
    report: dict,
    *,
    expect: Optional[str] = None,
    expect_ell: Optional[int] = None,
    plain: bool = False,
) -> list[str]:
    """Faults in one classify report.

    expect is "IN" or "NOT", and expect_ell the minimal ell, where theory
    fixes them.  plain asks for the verdict to be re-derived here: an IN
    subset must be ell-full at exactly the reported minimal ell with the
    reported periodicity, and a NOT must survive an exhaustive search of
    every subset.
    """
    problem = PlainProblem(problem_doc)
    verdict = report["verdict"]
    bad = []
    if verdict.startswith(VERDICT_IN_PREFIX):
        kind = "IN"
    elif verdict.startswith(VERDICT_NOT_PREFIX):
        kind = "NOT"
    else:
        return [f"verdict {verdict!r} is not definitive"]
    if expect is not None and kind != expect:
        bad.append(f"verdict {kind}, theory says {expect}")
    if expect_ell is not None and report["minimal_ell"] != expect_ell:
        bad.append(f"minimal ell {report['minimal_ell']}, theory says {expect_ell}")
    if not report["exhaustive"]:
        bad.append("a definitive verdict must come from an exhaustive search")
    if kind == "NOT":
        want = 2 ** len(problem.configs) - 1
        if report["subsets_examined"] != want:
            bad.append(f"NOT after {report['subsets_examined']} subsets, want {want}")
        if plain and plain_search(problem) is not None:
            bad.append("NOT, but a plain search finds an ell-full subset")
        return bad
    try:
        subset = sorted({problem.config_of_names(row) for row in report["subset"]})
    except (KeyError, TypeError):
        return bad + ["IN subset names unknown labels"]
    if not subset or any(c not in problem.configs for c in subset):
        return bad + ["IN subset is empty or holds configs outside the problem"]
    if plain:
        graph = _PathGraph(problem, subset)
        if graph.minimal_ell() != report["minimal_ell"]:
            bad.append(
                f"IN with ell {report['minimal_ell']}, plain check gives {graph.minimal_ell()}"
            )
        cert = report["certificate"] or {}
        if (cert.get("index"), cert.get("period")) != (graph.index, graph.period):
            bad.append(f"certificate {cert}, plain powers repeat at {graph.index}+{graph.period}")
    return bad


# --- labelings ---------------------------------------------------------------------


def check_labeling(
    problem_doc: dict, subset_names, tree_doc: dict, labeling_doc: list
) -> list[str]:
    """Every vertex multiset lies in the subset, every real edge pair in the problem."""
    problem = PlainProblem(problem_doc)
    n, delta = tree_doc["n"], tree_doc["delta"]
    subset = {tuple(sorted(row)) for row in subset_names}
    allowed = {tuple(sorted(problem.labels[x] for x in c)) for c in problem.configs}
    if not subset <= allowed:
        return ["reported subset holds configs outside the problem"]
    ports: list[Optional[list]] = [None] * n
    bad = []
    for entry in labeling_doc:
        v = entry["vertex"]
        if not (isinstance(v, int) and 0 <= v < n) or ports[v] is not None:
            return [f"labeling lists vertex {v!r} out of range or twice"]
        if len(entry["ports"]) != delta:
            return [f"vertex {v} has {len(entry['ports'])} ports, want {delta}"]
        ports[v] = entry["ports"]
    if any(row is None for row in ports):
        return ["labeling misses vertices"]
    for v, row in enumerate(ports):
        if tuple(sorted(row)) not in subset:
            bad.append(f"vertex {v}: {sorted(row)} not in the subset")
    for e in tree_doc["edges"]:
        a, b = ports[e["u"]][e["pu"]], ports[e["v"]][e["pv"]]
        if a not in problem.id_of or b not in problem.id_of:
            bad.append(f"edge {e['u']}-{e['v']}: unknown label")
        elif not problem.edge_ok(problem.id_of[a], problem.id_of[b]):
            bad.append(f"edge {e['u']}-{e['v']}: pair {{{a}, {b}}} not allowed")
    return bad[:5]


# --- extendability tables -------------------------------------------------------------
#
# Bit j of a table answers the j-th interface tuple, enumerated in mixed
# radix over the poles, each pole's multisets of its spare-port labels in
# lexicographic order.


def interfaces(num_labels: int, arities) -> list[tuple[tuple[int, ...], ...]]:
    return list(
        product(*(combinations_with_replacement(range(num_labels), a) for a in arities))
    )


def monochrome_bits(num_labels: int, arities) -> int:
    """Bits of the interface tuples whose every pole is monochrome."""
    return sum(
        1 << j
        for j, tup in enumerate(interfaces(num_labels, arities))
        if all(len(set(x)) == 1 for x in tup)
    )


def enumerated_bits(problem_doc: dict, ports, poles) -> int:
    """Table of a poled tree by enumerating the labels on every real half-edge.

    ports[v][p] is (neighbor, neighbor port) or None for a spare port.  For
    each labeling of the real half-edges with allowed edge pairs, every
    vertex needs a config holding its real labels; a pole's leftover labels
    are its interface, a non-pole's leftovers sit on free spare ports.
    """
    problem = PlainProblem(problem_doc)
    n = len(ports)
    edges = [
        (u, pu, tgt[0], tgt[1])
        for u in range(n)
        for pu, tgt in enumerate(ports[u])
        if tgt is not None and u < tgt[0]
    ]
    ordered = [(a, b) for a in range(len(problem.labels)) for b in range(len(problem.labels))
               if problem.edge_ok(a, b)]
    leftovers: dict[tuple[int, ...], frozenset] = {}

    def leftover(real: tuple[int, ...]) -> frozenset:
        if real not in leftovers:
            options = set()
            for c in problem.configs:
                rest = list(c)
                try:
                    for x in real:
                        rest.remove(x)
                except ValueError:
                    continue
                options.add(tuple(rest))
            leftovers[real] = frozenset(options)
        return leftovers[real]

    arities = [len(ports[v]) - sum(t is not None for t in ports[v]) for v in poles]
    position = {tup: j for j, tup in enumerate(interfaces(len(problem.labels), arities))}
    pole_set = set(poles)
    bits = 0
    for choice in product(ordered, repeat=len(edges)):
        real: list[list[int]] = [[] for _ in range(n)]
        for (u, _pu, v, _pv), (a, b) in zip(edges, choice):
            real[u].append(a)
            real[v].append(b)
        options = [leftover(tuple(sorted(r))) for r in real]
        if any(not options[v] for v in range(n) if v not in pole_set):
            continue
        for tup in product(*(sorted(options[v]) for v in poles)):
            bits |= 1 << position[tup]
    return bits


def check_table(got_bits: int, want_bits: int, what: str) -> list[str]:
    if got_bits == want_bits:
        return []
    diff = got_bits ^ want_bits
    return [f"{what}: {bin(diff).count('1')} interface bits differ, first at {(diff & -diff).bit_length() - 1}"]
