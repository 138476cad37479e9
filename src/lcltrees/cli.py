"""Command-line front end.

Ties the library into classify / solve / verify / gen / decompose /
classes / oracle workflows with machine-readable reports.  Exit codes:
0 definitive success, 1 definitive negative verification, 2 input error,
3 inconclusive, 4 internal error (a bug in lcltrees).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .equivalence import class_census
from .fixtures import perfect_matching, three_coloring, two_coloring
from .oracle import UNKNOWN, OracleBudget, brute_force_connects, brute_force_solve
from .pathstates import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    classify,
    render_report,
    serialize_report,
)
from .problems import (
    InternalError,
    LclProblem,
    ProblemFormatError,
    VertexConfig,
    is_valid_labeling,
    parse_labeling,
    parse_problem,
    serialize_labeling,
)
from .rakecompress import decompose
from .solver import NotEllFullError, build_toast, solve_log, solve_toast
from .trees import TreeFormatError, TreeGenSpec, gen_tree, parse_tree, serialize_tree

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

BUDGET_ENV = "LCLTREES_BUDGET"
DEFAULT_BUDGET = 4096

FIXTURE_PROBLEMS = {
    "three-coloring": three_coloring,
    "two-coloring": two_coloring,
    "perfect-matching": perfect_matching,
}


# --- input plumbing ---------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "rt", encoding="utf-8") as f:
        return f.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "wt", encoding="utf-8") as f:
            f.write(text)


def load_problem(source: str) -> LclProblem:
    """A built-in fixture name, or a path to a problem file."""
    make = FIXTURE_PROBLEMS.get(source)
    if make is not None:
        return make()
    return parse_problem(_read(source))


def load_subset(path: str, problem: LclProblem) -> tuple[VertexConfig, ...]:
    """Subset file: JSON array of size-delta arrays of label names."""
    doc = json.loads(_read(path))
    if not isinstance(doc, list) or not doc or any(not isinstance(r, list) for r in doc):
        raise ValueError("subset file must be a nonempty JSON array of label-name arrays")
    return tuple(_config_of_names(row, problem) for row in doc)


def _config_of_names(names: Sequence[str], problem: LclProblem) -> VertexConfig:
    try:
        return VertexConfig.of(problem.label_by_name(x).id for x in names)
    except KeyError as e:
        raise ValueError(str(e.args[0])) from e


def _parse_config_arg(text: str, problem: LclProblem) -> VertexConfig:
    return _config_of_names([x.strip() for x in text.split(",")], problem)


def _label_id(name: str, problem: LclProblem) -> int:
    try:
        return problem.label_by_name(name).id
    except KeyError as e:
        raise ValueError(str(e.args[0])) from e


def _subset_budget(value: Optional[int]) -> int:
    if value is not None:
        return value
    return int(os.environ.get(BUDGET_ENV, str(DEFAULT_BUDGET)))


def _named_subset(problem: LclProblem, report_subset) -> tuple[VertexConfig, ...]:
    return tuple(_config_of_names(row, problem) for row in report_subset)


# --- subcommands ------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    report = classify(problem, max_subsets=_subset_budget(args.budget))
    text = serialize_report(report) if args.format == "json" else render_report(report)
    _write(args.output, text)
    if args.output is not None:
        sys.stdout.write(text)
    return EXIT_INCONCLUSIVE if report.verdict == VERDICT_INCONCLUSIVE else EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    tree = parse_tree(_read(args.tree))
    if (args.subset is None) != (args.ell is None):
        print("error: --subset and --ell go together", file=sys.stderr)
        return EXIT_INPUT

    if args.subset is not None:
        subset = load_subset(args.subset, problem)
        ell = args.ell
    else:
        report = classify(problem, max_subsets=_subset_budget(args.budget))
        if report.verdict == VERDICT_INCONCLUSIVE:
            print("classification inconclusive; raise the budget", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        if report.verdict == VERDICT_NOT:
            print(
                "no ell-full subset exists; the log-round solver does not apply",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
        subset = _named_subset(problem, report.subset)
        ell = report.minimal_ell
        print(f"auto-classified: {report.verdict}, ell={ell}")

    if args.toast is not None:
        centers = [int(x) for x in args.centers.split(",")] if args.centers else []
        toast = build_toast(tree, args.toast, centers)
        labeling = solve_toast(problem, subset, ell, tree, toast)
    else:
        labeling = solve_log(problem, subset, ell, tree)

    validity = is_valid_labeling(problem, tree, labeling)
    _write(args.output, serialize_labeling(labeling, problem))
    print(f"labeled {tree.n} vertices with {len(subset)} configs at ell={ell}")
    print(validity.describe(problem))
    return EXIT_OK if validity.ok else EXIT_VIOLATION


def cmd_verify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    tree = parse_tree(_read(args.tree))
    labeling = parse_labeling(_read(args.labeling), problem)
    validity = is_valid_labeling(problem, tree, labeling)
    print(validity.describe(problem))
    return EXIT_OK if validity.ok else EXIT_VIOLATION


def cmd_gen(args: argparse.Namespace) -> int:
    spec = TreeGenSpec(n=args.n, delta=args.delta, seed=args.seed, model=args.model)
    _write(args.output, serialize_tree(gen_tree(spec)))
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree))
    raw = decompose(tree, args.gamma, args.ell)
    where = {}
    for j, (kind, verts) in enumerate(raw.layers):
        for v in verts:
            where[v] = (kind, j // 2 + 1)
    lines = [f"{v} {where[v][0]} {where[v][1]}" for v in range(tree.n)]
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_classes(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    report = class_census(
        problem, args.max_size, seed=args.seed, samples_per_size=args.samples
    )
    if args.format == "json":
        _write(args.output, json.dumps(asdict(report), indent=2) + "\n")
    else:
        _write(args.output, report.describe() + "\n")
    return EXIT_OK


def cmd_oracle_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    tree = parse_tree(_read(args.tree))
    budget = OracleBudget(max_vertices=args.max_vertices, max_steps=args.budget)
    result = brute_force_solve(problem, tree, budget)
    print(f"oracle: {result.status}")
    if result.status == "found" and args.output is not None:
        _write(args.output, serialize_labeling(result.labeling, problem))
    if result.status == "found":
        return EXIT_OK
    return EXIT_VIOLATION if result.status == "none" else EXIT_INCONCLUSIVE


def cmd_oracle_connects(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    if args.subset is not None:
        subset = frozenset(load_subset(args.subset, problem))
    else:
        subset = problem.vertex_configs
    c1 = _parse_config_arg(args.c1, problem)
    c2 = _parse_config_arg(args.c2, problem)
    a1 = _label_id(args.a1, problem)
    a2 = _label_id(args.a2, problem)
    budget = OracleBudget(max_vertices=args.max_vertices, max_steps=args.budget)
    answer = brute_force_connects(problem, subset, a1, c1, a2, c2, args.k, budget)
    if answer is UNKNOWN:
        print("oracle: unknown (budget exhausted)")
        return EXIT_INCONCLUSIVE
    print(f"oracle: {'yes' if answer else 'no'}")
    return EXIT_OK if answer else EXIT_VIOLATION


# --- parser -----------------------------------------------------------------------


def _add_problem(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--problem",
        required=True,
        help="problem file, or one of: " + ", ".join(sorted(FIXTURE_PROBLEMS)),
    )


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--output", help="also write the result to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcltrees",
        description="Classify and solve locally checkable labelings on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide the ell-full condition")
    _add_problem(p)
    p.add_argument("--budget", type=int, help=f"max subsets to try (${BUDGET_ENV})")
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="label a tree with the log-round solver")
    _add_problem(p)
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--subset", help="subset file (JSON arrays of label names)")
    p.add_argument("--ell", type=int, help="ell for the given subset")
    p.add_argument("--toast", type=int, help="solve via a toast with this gap q")
    p.add_argument("--centers", help="comma-separated toast ball centers")
    p.add_argument("--budget", type=int, help="subset budget for auto-classify")
    p.add_argument("--output", help="labeling file to write (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a labeling against a problem")
    _add_problem(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--labeling", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a tree deterministically")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--model",
        default="uniform-attachment-capped",
        choices=["path", "star", "caterpillar", "uniform-attachment-capped"],
    )
    p.add_argument("--output", help="tree file to write (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="dump rake/compress layers per vertex")
    p.add_argument("--tree", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classes", help="census of extendability classes")
    _add_problem(p)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=6)
    _add_format(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("oracle", help="brute-force reference checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("solve", help="exhaustive labeling search")
    _add_problem(q)
    q.add_argument("--tree", required=True)
    q.add_argument("--max-vertices", type=int, default=12)
    q.add_argument("--budget", type=int, default=2_000_000, help="max search steps")
    q.add_argument("--output", help="write the labeling if one is found")
    q.set_defaults(func=cmd_oracle_solve)

    q = osub.add_parser("connects", help="path extendability between two configs")
    _add_problem(q)
    q.add_argument("--subset", help="subset file; defaults to all of the configs")
    q.add_argument("--a1", required=True, help="facing label at the left endpoint")
    q.add_argument("--c1", required=True, help="left endpoint config, comma names")
    q.add_argument("--a2", required=True)
    q.add_argument("--c2", required=True)
    q.add_argument("--k", type=int, required=True, help="path length in vertices")
    q.add_argument("--max-vertices", type=int, default=12)
    q.add_argument("--budget", type=int, default=2_000_000, help="max search steps")
    q.set_defaults(func=cmd_oracle_connects)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotEllFullError as e:
        print(f"not ell-full: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ProblemFormatError, TreeFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
