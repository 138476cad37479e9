"""One round of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --round R --trace 0|1 \
        --spawned-at T --workdir DIR --out FILE

bench/run.py starts this once per round, with a fixed PYTHONHASHSEED,
single-threaded numpy and the checkout's src/ on PYTHONPATH.  A round sets
up its inputs through the program's own generators and serializers, warms
up on inputs disjoint from the timed ones, then times each operation alone
after a gc.collect().  No input is processed twice in one process.  Once
every operation has run and the peak resident set is read, every output is
checked with bench/checks.py and hashed; the round's figures go to --out as
JSON.  An untraced round samples the host's speed throughout
(bench/hostspeed.py) and reports its times in reference seconds, its wall
times beside them.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from itertools import permutations
from math import comb
from pathlib import Path
from random import Random
from typing import Callable, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import checks  # noqa: E402  (bench/ is this script's directory)
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

import lcltrees  # noqa: E402
import lcltrees.cli  # noqa: E402
import lcltrees.equivalence  # noqa: E402
import lcltrees.pathstates  # noqa: E402
import lcltrees.problems  # noqa: E402
import lcltrees.solver  # noqa: E402
import lcltrees.trees  # noqa: E402
from lcltrees.equivalence import PoledTree  # noqa: E402
from lcltrees.fixtures import (  # noqa: E402
    perfect_matching,
    random_problem,
    three_coloring,
    two_coloring,
)
from lcltrees.problems import EdgeConfig, Label, LclProblem, VertexConfig, serialize_problem  # noqa: E402
from lcltrees.trees import TreeGenSpec  # noqa: E402

if not Path(lcltrees.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"lcltrees imported from {lcltrees.__file__}, not from {ROOT / 'src'}")

FIXTURES = {
    "three-coloring": three_coloring,
    "two-coloring": two_coloring,
    "perfect-matching": perfect_matching,
}


class Round:
    """Times operations, records their checks and digests."""

    def __init__(self, args: argparse.Namespace, tracer: Tracer, host: HostSpeed):
        self.workload = args.workload
        self.seed = args.seed
        self.round = args.round
        self.workdir = Path(args.workdir)
        self.spawned_at = args.spawned_at
        self.tracer = tracer
        self.host = host
        self.trace_enabled = bool(args.trace)
        self.setup_s = None  # wall seconds, the host sampler's time taken out
        self.peak_rss_mb = None
        self.ops: list[dict] = []
        self.faults: list[str] = []

    def rng(self, stream: str) -> Random:
        """A random stream of its own per workload, seed, round and purpose."""
        return Random(f"{self.workload}/{stream}/{self.seed}/{self.round}")

    def warm_up(self, fn) -> None:
        """Run fn untimed and untraced."""
        self.tracer.on = False
        fn()
        self.tracer.on = self.trace_enabled

    def run(self, ops: list[Op]) -> None:
        """Time every op, read the peak resident set, then check the outputs.

        The set-up's objects are frozen out of the collector first: the
        round holds every op's inputs at once, which a single command
        never does, and each gc.collect() before an op would otherwise
        traverse them all (16 ms each, 3.4 s a round on classify_tables).
        The checks run last so that their own memory and time stay out of
        the program's figures.
        """
        gc.collect()
        gc.freeze()
        results = [(name, *self.timed(fn), check) for name, fn, check in ops]
        self.host.stop()
        self.tracer.on = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for name, result, seconds, check in results:
            faults, output = check(result)
            self.record(name, seconds, faults, output)

    def timed(self, fn):
        """Run fn alone on the clock; the first timed call ends the set-up.

        The host sampler's time inside the call is not the program's and is
        taken out.
        """
        gc.collect()
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.spawned_at - self.host.handler_s
        sampled = self.host.handler_s
        t = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t
        return result, seconds - (self.host.handler_s - sampled)

    def record(self, name: str, seconds: float, faults: list[str], output: bytes) -> None:
        digest = hashlib.sha256(output).hexdigest()
        self.ops.append({"name": name, "wall_s": seconds, "ok": not faults, "sha256": digest})
        self.faults.extend(f"{name}: {f}" for f in faults)


# a timed operation: (name, the call to time, check of its result giving the
# faults found and the output bytes to hash)
Op = tuple[str, Callable[[], object], Callable[[object], tuple[list[str], bytes]]]


def cli(argv: list[str]) -> tuple[int, str]:
    """lcltrees.cli.main in-process, stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lcltrees.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def cli_faults(code: int, text: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {text.strip()[-200:]}"]


def write_problem(path: Path, problem: LclProblem) -> dict:
    text = serialize_problem(problem)
    path.write_text(text, encoding="utf-8")
    return json.loads(text)


# --- classify_tables, classify part ----------------------------------------------------
#
# Per round: the three fixtures; 30 random problems with 4 labels and 30
# with 5, a fixed number of each config count (RANDOM_BY_SIZE); a
# two-coloring padded with 8, 9 and 10 configs that hold a partnerless
# label; and a block of small padded two-colorings (SMALL_NOT_PADDING).  A
# padding config offers a facing label with no edge partner, and the rest
# is two-coloring, so every padded instance is a NOT that only an
# exhaustive search of 2^k - 1 subsets reaches today; the three large ones
# and the multi-pole tables below set ops_per_s.  The padding is fixed and
# only the order of the label ids is drawn, so the padded instances of
# every round are isomorphic and cost the same; the fixed counts per size
# keep the cost spread of the random problems the same from round to round.
#
# The block pins op_p50_s.  Without it the median op fell among random
# problems whose cost depends on the draw, and op_p50_s spread by 0.37 of
# its median over five seeds.  The block is two-coloring padded with
# SMALL_NOT_PADDING over five labels, r unused, under 96 of the 120 orders
# of the label ids.  The structure has no automorphism, so the 96 are
# distinct problems, all isomorphic, each an exhaustive NOT of 31 subsets
# that costs a little more than the median op of the rest of the round.
# With 96 of them the middle rank of a round falls well inside the block
# whatever the draw, near the block's own median.  (Of 150 other paddings
# of three configs with no automorphism, none was cheaper.)

RANDOM_BY_SIZE = {1: 3, 2: 3, 3: 4, 4: 4, 5: 4, 6: 4, 7: 4, 8: 4}
PADDINGS = (
    ("ppp", "qqq", "aap", "bbq", "app", "bqq", "ppq", "abp"),
    ("ppp", "qqq", "aap", "bbq", "app", "bqq", "ppq", "pqq", "abp"),
    ("ppp", "qqq", "aap", "bbq", "app", "bqq", "ppq", "pqq", "aaq", "abp"),
)
SMALL_NOT_PADDING = ("ppp", "qqq", "aap")
SMALL_NOTS = 96


def padded_two_coloring(names: Sequence[str], padding: tuple[str, ...]) -> LclProblem:
    """Two-coloring on labels a and b plus padding configs; label i is named names[i]."""
    id_of = {x: i for i, x in enumerate(names)}
    configs = frozenset(VertexConfig.of(id_of[x] for x in c) for c in ("aaa", "bbb") + padding)
    edges = frozenset({EdgeConfig.of(id_of["a"], id_of["b"])})
    return LclProblem(3, tuple(Label(i, x) for i, x in enumerate(names)), configs, edges)


def distinct_random_problems(rng: Random, by_size: dict, num_labels: int, taken: set) -> list:
    """Distinct random problems, by_size[k] of them with k vertex configs."""
    want = dict(by_size)
    out = []
    while any(want.values()):
        problem = random_problem(rng.randrange(2**31), num_labels=num_labels, max_vertex_configs=8)
        text = serialize_problem(problem)
        size = len(problem.vertex_configs)
        if want.get(size) and text not in taken:
            want[size] -= 1
            taken.add(text)
            out.append(problem)
    return out


def classify_ops(run: Round) -> list[Op]:
    taken: set = set()
    # (name, cli problem argument, problem document, check_report options)
    corpus = []
    theory = {
        "three-coloring": {"expect": "IN", "expect_ell": 3},
        "two-coloring": {"expect": "NOT"},
        "perfect-matching": {"expect": "IN"},
    }
    for name, make in FIXTURES.items():
        doc = write_problem(run.workdir / f"{name}.json", make())
        taken.add(serialize_problem(make()))
        corpus.append((name, name, doc, theory[name]))
    rng = run.rng("corpus")
    for num_labels in (4, 5):
        for problem in distinct_random_problems(rng, RANDOM_BY_SIZE, num_labels, taken):
            name = f"random{num_labels}-{len(corpus)}"
            path = run.workdir / f"{name}.json"
            corpus.append((name, str(path), write_problem(path, problem), {"plain": True}))
    padded = [(f"padded{len(padding)}", padding, rng.sample("abpq", 4)) for padding in PADDINGS]
    padded += [(f"small-not-{''.join(names)}", SMALL_NOT_PADDING, names)
               for names in rng.sample(list(permutations("abpqr")), SMALL_NOTS)]
    for name, padding, names in padded:
        problem = padded_two_coloring(names, padding)
        taken.add(serialize_problem(problem))
        path = run.workdir / f"{name}.json"
        corpus.append((name, str(path), write_problem(path, problem), {"expect": "NOT"}))
    warm = distinct_random_problems(run.rng("classify-warm-up"), {3: 1, 4: 1}, 4, taken)
    for i, problem in enumerate(warm):
        path = run.workdir / f"warm-up-{i}.json"
        write_problem(path, problem)
        run.warm_up(lambda: cli(["classify", "--problem", str(path), "--format", "json"]))

    def op(name: str, source: str, doc: dict, options: dict) -> Op:
        def check(result):
            code, text = result
            faults = cli_faults(code, text)
            if not faults:
                faults = checks.check_report(doc, json.loads(text), **options)
            return faults, text.encode()

        return name, lambda: cli(["classify", "--problem", source, "--format", "json"]), check

    return [op(*item) for item in corpus]


# --- solve_pipeline ---------------------------------------------------------------------
#
# Per round, one `solve` then one `verify` per tree, trees written by
# `lcltrees gen` during set-up: rake-heavy uniform-attachment trees and
# compress-heavy caterpillars and paths, for perfect matching and three-
# coloring.  n gets a seeded offset below 100 so that no two trees of a
# process coincide.  With an odd number of items of distinct cost, the
# median op is the same item in every round.

SOLVE_ITEMS = (
    ("perfect-matching", "uniform-attachment-capped", 30_000),
    ("perfect-matching", "uniform-attachment-capped", 10_000),
    ("three-coloring", "uniform-attachment-capped", 20_000),
    ("perfect-matching", "caterpillar", 20_000),
    ("three-coloring", "caterpillar", 10_000),
    ("perfect-matching", "path", 10_000),
    ("three-coloring", "path", 10_000),
)


def solve_ops(run: Round) -> list[Op]:
    rng = run.rng("trees")
    subsets = {}
    for name, make in FIXTURES.items():
        if name == "two-coloring":
            continue
        doc = write_problem(run.workdir / f"{name}.json", make())
        report_path = run.workdir / f"{name}.report.json"
        code, text = cli(["classify", "--problem", name, "--format", "json",
                          "--output", str(report_path)])
        report = json.loads(report_path.read_text(encoding="utf-8"))
        subset_path = run.workdir / f"{name}.subset.json"
        subset_path.write_text(json.dumps(report["subset"]), encoding="utf-8")
        subsets[name] = (doc, report["subset"], str(subset_path), str(report["minimal_ell"]))

    def gen(n: int, model: str, seed: int, path: Path) -> str:
        code, text = cli(["gen", "--n", str(n), "--seed", str(seed), "--model", model,
                          "--output", str(path)])
        if code != 0:
            raise SystemExit(f"lcltrees gen failed: {text}")
        return str(path)

    trees = []
    for i, (problem, model, n) in enumerate(SOLVE_ITEMS):
        size = n + rng.randrange(100)
        path = gen(size, model, rng.randrange(2**31), run.workdir / f"tree{i}.json")
        trees.append((f"{problem}/{model}/{size}", problem, path))

    warm_tree = gen(500, "uniform-attachment-capped", -1 - run.round, run.workdir / "warm.json")

    def pipeline(problem: str, tree: str, labeling: str) -> tuple[int, int, str]:
        _doc, _names, subset, ell = subsets[problem]
        solved, out = cli(["solve", "--problem", problem, "--tree", tree, "--subset", subset,
                           "--ell", ell, "--output", labeling])
        verified, out2 = cli(["verify", "--problem", problem, "--tree", tree,
                              "--labeling", labeling])
        return solved, verified, out + out2

    for problem in subsets:
        run.warm_up(lambda: pipeline(problem, warm_tree, str(run.workdir / "warm.lab.json")))

    def op(i: int, name: str, problem: str, tree: str) -> Op:
        labeling = run.workdir / f"lab{i}.json"

        def check(result):
            solved, verified, text = result
            faults = cli_faults(solved, text) + cli_faults(verified, text)
            output = labeling.read_bytes() if labeling.exists() else b""
            if not faults:
                doc, names, _subset, _ell = subsets[problem]
                tree_doc = json.loads(Path(tree).read_text(encoding="utf-8"))
                faults = checks.check_labeling(doc, names, tree_doc, json.loads(output))
            labeling.unlink(missing_ok=True)
            Path(tree).unlink()
            return faults, output

        return name, lambda: pipeline(problem, tree, str(labeling)), check

    return [op(i, *item) for i, item in enumerate(trees)]


# --- classify_tables, table part ----------------------------------------------------------
#
# Per problem and round: ten rooted tables on trees of 40..400 vertices,
# two- and three-pole tables (two leaves, plus a degree-2 vertex for the
# third pole, so 36 and 108 interfaces over three labels), three tables on
# trees of 4..6 vertices that are small enough to enumerate, and one
# `classes` census.  Three-pole tables stop at 150 vertices: one on 300
# took 2.3 s, and three of them kept a run to a single round.

RANDOM3_SEED = 9  # an IN problem over three labels whose tables are neither empty nor full
TABLE_SPECS = tuple((n, 1) for n in range(40, 401, 40)) + ((100, 2), (300, 2), (150, 3))
SMALL_SPECS = ((4, 1), (5, 2), (6, 2))
CENSUS_MAX_SIZE = 6


def pick_poles(tree, count: int, rng: Random, small: bool) -> tuple[int, ...]:
    degree = [tree.real_degree(v) for v in range(tree.n)]
    if small:
        return tuple(rng.sample([v for v in range(tree.n) if degree[v] < tree.delta], count))
    leaves = [v for v in range(tree.n) if degree[v] == 1]
    poles = rng.sample(leaves, min(count, 2))
    if count == 3:
        poles.append(rng.choice([v for v in range(tree.n) if degree[v] == 2]))
    return tuple(poles)


def table_ops(run: Round) -> list[Op]:
    rng = run.rng("tables")
    problems = {
        "three-coloring": three_coloring(),
        "perfect-matching": perfect_matching(),
        "random3": random_problem(RANDOM3_SEED, num_labels=3, max_vertex_configs=6),
    }
    docs, sources = {}, {}
    for name, problem in problems.items():
        path = run.workdir / f"{name}.json"
        docs[name] = write_problem(path, problem)
        sources[name] = name if name in FIXTURES else str(path)

    gen_tree = lcltrees.trees.gen_tree
    tables = []  # (op name, problem name, poled tree, enumerate?)
    for name in problems:
        for n, poles in TABLE_SPECS + SMALL_SPECS:
            small = (n, poles) in SMALL_SPECS
            tree = gen_tree(TreeGenSpec(n=n, delta=3, seed=rng.randrange(2**31)))
            poled = PoledTree(tree, pick_poles(tree, poles, rng, small))
            tables.append((f"{name}/n{n}/p{poles}", name, poled, small))
    censuses = [(name, rng.randrange(2**31)) for name in problems]

    warm = run.rng("tables-warm-up")

    def warm_table(problem):
        tree = gen_tree(TreeGenSpec(n=30, delta=3, seed=-1 - warm.randrange(2**31)))
        lcltrees.equivalence.h_table(problem, PoledTree(tree, pick_poles(tree, 1, warm, False)))

    for problem in problems.values():
        run.warm_up(lambda: warm_table(problem))
    run.warm_up(lambda: cli(["classes", "--problem", "three-coloring", "--max-size", "3",
                             "--seed", str(-1 - run.round), "--format", "json"]))

    def table_op(op: str, name: str, poled, small: bool) -> Op:
        def check(table):
            output = f"{table.num_labels}|{table.arities}|{table.bits:x}".encode()
            return table_faults(docs[name], name, poled, table, small), output

        return op, lambda: lcltrees.equivalence.h_table(problems[name], poled), check

    def census_op(name: str, census_seed: int) -> Op:
        def check(result):
            code, text = result
            faults = cli_faults(code, text)
            if not faults and name == "three-coloring":
                faults = census_faults(json.loads(text))
            return faults, text.encode()

        argv = ["classes", "--problem", sources[name], "--max-size", str(CENSUS_MAX_SIZE),
                "--samples", "3", "--seed", str(census_seed), "--format", "json"]
        return f"{name}/census", lambda: cli(argv), check

    return [table_op(*t) for t in tables] + [census_op(*c) for c in censuses]


def table_faults(doc: dict, name: str, poled, table, small: bool) -> list[str]:
    faults = []
    arities = tuple(poled.tree.delta - poled.tree.real_degree(v) for v in poled.poles)
    if table.arities != arities or table.num_labels != len(doc["labels"]):
        return [f"table shape {table.num_labels}/{table.arities}, want {arities}"]
    if small:
        want = checks.enumerated_bits(doc, poled.tree.ports, poled.poles)
        faults += checks.check_table(table.bits, want, "against enumeration")
    if name == "three-coloring":
        mono = checks.monochrome_bits(table.num_labels, arities)
        if len(arities) == 1:
            # any color at the root extends over a tree, so exactly the
            # monochrome interfaces are yes
            faults += checks.check_table(table.bits, mono, "rooted three-coloring")
        elif table.bits & ~mono:
            faults.append("three-coloring table says yes to a non-monochrome pole")
    return faults


def census_faults(report: dict) -> list[str]:
    # a rooted three-coloring table depends only on the root's arity (3, 2
    # or 1 once trees reach 3 vertices), and joining two roots of arity >= 2
    # gives one table per pair of remaining arities (2 or 1 each side)
    want = {"class1_count": 3, "class2_count": 4}
    return [f"{k} {report[k]}, want {v}" for k, v in want.items() if report[k] != v]


# each workload's round: the set-up and warm-up of every part, then the
# timed operations of every part
WORKLOADS = {
    "classify_tables": (classify_ops, table_ops),
    "solve_pipeline": (solve_ops,),
}


# --- tracing ---------------------------------------------------------------------------------


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    cli_mod, ps, sv, eq, tr = (
        lcltrees.cli, lcltrees.pathstates, lcltrees.solver, lcltrees.equivalence, lcltrees.trees,
    )

    def post_process_counts(decomp, _args):
        ports = decomp.tree.ports
        blocks = vertices = 0
        for layer in decomp.compress_layers:
            inner = sum(1 for v in layer for t in ports[v] if t is not None and t[0] in layer)
            vertices += len(layer)
            blocks += len(layer) - inner // 2  # a forest: components = vertices - edges
        return {"rakecompress.layers": len(decomp.rake_layers) + len(decomp.compress_layers),
                "rakecompress.compress_blocks": blocks,
                "rakecompress.compress_vertices": vertices}

    def interfaces(table, _args):
        count = 1
        for arity in table.arities:
            count *= comb(table.num_labels + arity - 1, arity)
        return {"equivalence.interfaces": count}

    tracer.wrap(cli_mod, "main", "cli.main")
    tracer.wrap(cli_mod, "classify", "pathstates.classify",
                lambda r, _a: {"pathstates.subsets_examined": r.subsets_examined})
    tracer.wrap(ps, "build_state_graph", "pathstates.build_state_graph",
                lambda g, _a: {"pathstates.graph_states": len(g.states)})
    tracer.wrap(ps.PathStateGraph, "certificate", "pathstates.certificate")
    tracer.wrap(sv, "extend_path", "pathstates.extend_path")
    tracer.count_calls(lcltrees.problems.LclProblem, "edge_ok", "problems.edge_ok")
    tracer.wrap(cli_mod, "is_valid_labeling", "problems.is_valid_labeling")
    tracer.wrap(cli_mod, "parse_labeling", "problems.parse_labeling")
    tracer.wrap(cli_mod, "serialize_labeling", "problems.serialize_labeling")
    tracer.wrap(cli_mod, "parse_tree", "trees.parse_tree",
                lambda t, _a: {"trees.vertices": t.n})
    for module in (cli_mod, tr, eq):
        tracer.wrap(module, "gen_tree", "trees.gen_tree")
    tracer.wrap(cli_mod, "serialize_tree", "trees.serialize_tree")
    tracer.wrap(sv, "decompose", "rakecompress.decompose")
    tracer.wrap(sv, "post_process", "rakecompress.post_process", post_process_counts)
    tracer.wrap(cli_mod, "solve_log", "solver.solve_log")
    tracer.wrap(sv, "solve_on_decomposition", "solver.solve_on_decomposition",
                lambda lab, _a: {"solver.vertices_labeled": lab.n})
    tracer.wrap(eq, "h_table", "equivalence.h_table", interfaces)
    tracer.wrap(cli_mod, "class_census", "equivalence.class_census",
                lambda r, _a: {"equivalence.classes": r.class1_count + r.class2_count})
    tracer.wrap(eq, "concat_bipolar", "equivalence.concat_bipolar")


def layer_metrics(tracer: Tracer) -> dict:
    incl, self_s, calls = tracer.times()
    c = tracer.counts
    return {
        "cli.self_s": self_s["cli.main"],
        "pathstates.subsets_examined": c["pathstates.subsets_examined"],
        "pathstates.graph_builds": calls["pathstates.build_state_graph"],
        "pathstates.graph_states": c["pathstates.graph_states"],
        "pathstates.graph_build_s": incl["pathstates.build_state_graph"],
        "pathstates.periodicity_s": incl["pathstates.certificate"],
        "pathstates.ell_scan_s": self_s["pathstates.classify"],
        "pathstates.witness_calls": calls["pathstates.extend_path"],
        "pathstates.witness_s": incl["pathstates.extend_path"],
        "problems.edge_ok_calls": c["problems.edge_ok"],
        "problems.validate_s": incl["problems.is_valid_labeling"],
        "problems.labeling_parse_s": incl["problems.parse_labeling"],
        "problems.labeling_serialize_s": incl["problems.serialize_labeling"],
        "trees.parse_s": incl["trees.parse_tree"],
        "trees.vertices": c["trees.vertices"],
        "trees.gen_s": incl["trees.gen_tree"],
        "trees.serialize_s": incl["trees.serialize_tree"],
        "rakecompress.decompose_s": incl["rakecompress.decompose"],
        "rakecompress.post_process_s": incl["rakecompress.post_process"],
        "rakecompress.layers": c["rakecompress.layers"],
        "rakecompress.compress_blocks": c["rakecompress.compress_blocks"],
        "rakecompress.compress_vertices": c["rakecompress.compress_vertices"],
        "solver.solve_s": incl["solver.solve_log"],
        "solver.label_s": self_s["solver.solve_on_decomposition"],
        "solver.vertices_labeled": c["solver.vertices_labeled"],
        "equivalence.h_table_calls": calls["equivalence.h_table"],
        "equivalence.interfaces": c["equivalence.interfaces"],
        "equivalence.h_table_s": incl["equivalence.h_table"],
        "equivalence.census_s": incl["equivalence.class_census"],
        "equivalence.classes": c["equivalence.classes"],
        "equivalence.concat_calls": calls["equivalence.concat_bipolar"],
        "equivalence.concat_s": incl["equivalence.concat_bipolar"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    host = HostSpeed()
    if args.trace:
        install_tracing(tracer)
    else:
        host.start()
    run = Round(args, tracer, host)
    run.workdir.mkdir(parents=True, exist_ok=True)
    tracer.on = run.trace_enabled  # set-up is traced, warm-up is not
    ops = [op for prepare in WORKLOADS[args.workload] for op in prepare(run)]
    # timed in a seeded order, so that the host's speed, which swings by a
    # quarter within a second, meets every kind of operation alike: the 24
    # small NOTs run back to back took 9.4 to 15.9 ms in one round and 15.7
    # to 17.2 ms in another
    run.rng("order").shuffle(ops)
    run.run(ops)
    tracer.restore()

    # a traced round is not sampled, and its times stay wall times
    factor = host.factor() if host.samples else 1.0
    for op in run.ops:
        op["s"] = op["wall_s"] * factor
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "host_factor": factor,
        "host_samples": len(host.samples),
        "setup_s": run.setup_s * factor,
        "setup_wall_s": run.setup_s,
        "ops": run.ops,
        "faults": run.faults[:20],
        "peak_rss_mb": run.peak_rss_mb,
        "sha256": hashlib.sha256("".join(op["sha256"] for op in run.ops).encode()).hexdigest(),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer)
        result["wrapped_calls"] = tracer.calls
        tracer.dump(Path(args.out).with_suffix(".trace.json"))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
