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
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .equivalence import class_census
from .fixtures import perfect_matching, three_coloring, two_coloring
from .oracle import OracleBudget, OracleResult, brute_force_solve, connects_result
from .pathstates import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    classify,
    render_report,
    serialize_report,
)
from .problems import (
    _BLOCK,
    InternalError,
    LclProblem,
    ProblemFormatError,
    VertexConfig,
    is_valid_labeling,
    labeling_chunks,
    load_json,
    parse_labeling,
    parse_problem,
    serialize_labeling,  # noqa: F401  (bench/worker.py wraps it here)
)
from .rakecompress import decompose
from .solver import NotEllFullError, _coerce_config, _solve_toast, build_toast, solve_log
from .trees import (
    TreeFormatError,
    TreeGenSpec,
    gen_tree,
    parse_tree,
    serialize_tree,  # noqa: F401  (bench/worker.py wraps it here)
    tree_chunks,
)

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


T = TypeVar("T")


def _read(path: str) -> str:
    with open(path, "rt", encoding="utf-8") as f:
        return f.read()


def _parse_file(parse: Callable[..., T], path: str, *args: object) -> T:
    """parse(file, *args) on the file at path, which it reads in slices."""
    with open(path, "rt", encoding="utf-8") as f:
        return parse(f, *args)


def _write(path: Optional[str], chunks: Iterable[str]) -> None:
    """The text in chunks to the file at path, or to stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "wt", encoding="utf-8") as f:
            f.writelines(chunks)


def load_problem(source: str) -> LclProblem:
    """A built-in fixture name, or a path to a problem file."""
    make = FIXTURE_PROBLEMS.get(source)
    if make is not None:
        return make()
    return parse_problem(_read(source))


def load_subset(path: str, problem: LclProblem) -> tuple[VertexConfig, ...]:
    """Subset file: JSON array of size-delta arrays of label names."""
    doc = load_json(_read(path))
    if not isinstance(doc, list) or not doc or any(not isinstance(r, list) for r in doc):
        raise ValueError("subset file must be a nonempty JSON array of label-name arrays")
    return tuple(_coerce_config(problem, row) for row in doc)


def _parse_config_arg(text: str, problem: LclProblem) -> VertexConfig:
    return _coerce_config(problem, [x.strip() for x in text.split(",")])


def _subset_budget(value: Optional[int]) -> int:
    if value is not None:
        return value
    text = os.environ.get(BUDGET_ENV, str(DEFAULT_BUDGET))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {text!r}") from None


# --- subcommands ------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    report = classify(problem, max_subsets=_subset_budget(args.budget))
    text = serialize_report(report) if args.format == "json" else render_report(report)
    _write(args.output, [text])
    if args.output is not None:
        sys.stdout.write(text)
    return EXIT_INCONCLUSIVE if report.verdict == VERDICT_INCONCLUSIVE else EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if (args.subset is None) != (args.ell is None):
        print("error: --subset and --ell go together", file=sys.stderr)
        return EXIT_INPUT
    if args.centers is not None and args.toast is None:
        print("error: --centers needs --toast", file=sys.stderr)
        return EXIT_INPUT
    if args.toast is not None and args.toast < 2:
        print("error: toast gap q must be at least 2", file=sys.stderr)
        return EXIT_INPUT
    try:
        centers = [int(x) for x in args.centers.split(",")] if args.centers else []
    except ValueError:
        print(
            f"error: --centers must be comma-separated vertex ids, got {args.centers!r}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    problem = load_problem(args.problem)
    tree = _parse_file(parse_tree, args.tree)

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
        subset = report.subset
        ell = report.minimal_ell
        print(f"auto-classified: {report.verdict}, ell={ell}")

    if args.toast is not None:
        toast = build_toast(tree, args.toast, centers)  # verifies the toast
        labeling = _solve_toast(problem, subset, ell, tree, toast, verified=True)
    else:
        labeling = solve_log(problem, subset, ell, tree)

    validity = is_valid_labeling(problem, tree, labeling)
    _write(args.output, labeling_chunks(labeling, problem))
    print(f"labeled {tree.n} vertices with {len(subset)} configs at ell={ell}")
    print(validity.describe(problem))
    return EXIT_OK if validity.ok else EXIT_VIOLATION


def cmd_verify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    tree = _parse_file(parse_tree, args.tree)
    labeling = _parse_file(parse_labeling, args.labeling, problem)
    validity = is_valid_labeling(problem, tree, labeling)
    print(validity.describe(problem))
    return EXIT_OK if validity.ok else EXIT_VIOLATION


def cmd_gen(args: argparse.Namespace) -> int:
    spec = TreeGenSpec(n=args.n, delta=args.delta, seed=args.seed, model=args.model)
    _write(args.output, tree_chunks(gen_tree(spec)))
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    tree = _parse_file(parse_tree, args.tree)
    raw = decompose(tree, args.gamma, args.ell)
    names = [""] + [f"{kind} {(r + 1) // 2}\n" for r, (kind, _) in enumerate(raw.layers, 1)]
    blocks = (
        "".join(f"{v} {names[r]}" for v, r in enumerate(raw.rank[i : i + _BLOCK].tolist(), i))
        for i in range(0, tree.n, _BLOCK)
    )
    _write(args.output, blocks)
    return EXIT_OK


def cmd_classes(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    report = class_census(
        problem, args.max_size, seed=args.seed, samples_per_size=args.samples
    )
    if args.format == "json":
        _write(args.output, [json.dumps(asdict(report), indent=2) + "\n"])
    else:
        _write(args.output, [report.describe() + "\n"])
    return EXIT_OK


def _answer(result: OracleResult, words: dict[str, str], size: str, budget: OracleBudget) -> int:
    """Print the oracle's answer, naming the bound that stopped an unknown; its exit code."""
    why = {
        "max_vertices": f" ({size} exceeds --max-vertices {budget.max_vertices})",
        "max_steps": f" (--budget {budget.max_steps} steps ran out)",
    }.get(result.stopped_by, "")
    print(f"oracle: {words.get(result.status, result.status)}{why}")
    return {"found": EXIT_OK, "none": EXIT_VIOLATION, "unknown": EXIT_INCONCLUSIVE}[result.status]


def cmd_oracle_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    tree = _parse_file(parse_tree, args.tree)
    budget = OracleBudget(max_vertices=args.max_vertices, max_steps=args.budget)
    result = brute_force_solve(problem, tree, budget)
    if result.status == "found" and args.output is not None:
        _write(args.output, labeling_chunks(result.labeling, problem))
    return _answer(result, {}, f"n {tree.n}", budget)


def cmd_oracle_connects(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    if args.subset is not None:
        subset = frozenset(load_subset(args.subset, problem))
    else:
        subset = problem.vertex_configs
    c1 = _parse_config_arg(args.c1, problem)
    c2 = _parse_config_arg(args.c2, problem)
    (a1,) = _coerce_config(problem, [args.a1])
    (a2,) = _coerce_config(problem, [args.a2])
    budget = OracleBudget(max_vertices=args.max_vertices, max_steps=args.budget)
    result = connects_result(problem, subset, a1, c1, a2, c2, args.k, budget)
    return _answer(result, {"found": "yes", "none": "no"}, f"k {args.k}", budget)


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


def _classify_args(p: argparse.ArgumentParser) -> None:
    _add_problem(p)
    p.add_argument("--budget", type=int, help=f"max subsets to try (${BUDGET_ENV})")
    _add_format(p)
    p.set_defaults(func=cmd_classify)


def _solve_args(p: argparse.ArgumentParser) -> None:
    _add_problem(p)
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--subset", help="subset file (JSON arrays of label names)")
    p.add_argument("--ell", type=int, help="ell for the given subset")
    p.add_argument("--toast", type=int, help="solve via a toast with this gap q")
    p.add_argument("--centers", help="comma-separated toast ball centers")
    p.add_argument("--budget", type=int, help="subset budget for auto-classify")
    p.add_argument("--output", help="labeling file to write (default stdout)")
    p.set_defaults(func=cmd_solve)


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_problem(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--labeling", required=True)
    p.set_defaults(func=cmd_verify)


def _gen_args(p: argparse.ArgumentParser) -> None:
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


def _decompose_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_decompose)


def _classes_args(p: argparse.ArgumentParser) -> None:
    _add_problem(p)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=6)
    _add_format(p)
    p.set_defaults(func=cmd_classes)


def _oracle_args(p: argparse.ArgumentParser) -> None:
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


# every subcommand in help order: name, help string, and what adds its arguments
SUBCOMMANDS = (
    ("classify", "decide the ell-full condition", _classify_args),
    ("solve", "label a tree with the log-round solver", _solve_args),
    ("verify", "check a labeling against a problem", _verify_args),
    ("gen", "generate a tree deterministically", _gen_args),
    ("decompose", "dump rake/compress layers per vertex", _decompose_args),
    ("classes", "census of extendability classes", _classes_args),
    ("oracle", "brute-force reference checks", _oracle_args),
)


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The full lcltrees parser, built for parsing argv.

    parse_args takes a command line here when its quick route cannot: the
    line does not start with a command whose options _Options reads, or it
    holds anything but that command's exact long options each followed by
    a value argparse would take as given.  Only this parser prints help and
    words usage errors, so those stay as argparse words them.  Every
    subcommand is registered, but only those named somewhere in argv get
    their arguments: argparse runs the subcommand named by the first
    positional, which need not be argv[0].
    """
    parser = argparse.ArgumentParser(
        prog="lcltrees",
        description="Classify and solve locally checkable labelings on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name in argv:
            add_arguments(p)
    return parser


class _Unmodeled(Exception):
    """A declaration _Options does not read."""


class _Options:
    """A subcommand's options as its add-arguments function declares them.

    Stands in for the subcommand's ArgumentParser.  It reads add_argument
    with one long option string and keywords in _MODELED, but no str
    default with a type (argparse would convert it), and set_defaults, which
    must name no option's dest; any other call raises _Unmodeled.
    """

    _MODELED = frozenset({"type", "choices", "default", "required", "help"})

    def __init__(self) -> None:
        self.options: dict[str, dict] = {}
        self.defaults: dict[str, object] = {}

    def add_argument(self, *flags: str, **kwargs) -> None:
        if (
            len(flags) != 1
            or not flags[0].startswith("--")
            or not kwargs.keys() <= self._MODELED
            or (isinstance(kwargs.get("default"), str) and "type" in kwargs)
        ):
            raise _Unmodeled(flags)
        self.options[flags[0]] = kwargs

    def set_defaults(self, **kwargs) -> None:
        self.defaults.update(kwargs)

    def __getattr__(self, name: str):
        raise _Unmodeled(name)


def _quick_parse(
    name: str, add_arguments: Callable, pairs: Sequence[str]
) -> Optional[argparse.Namespace]:
    """The namespace for the command line `name *pairs`, or None.

    None unless pairs alternate the command's long options with values that
    do not start with "-" and that each option's type and choices take, and
    every required option is given; a repeated option keeps its last value.
    """
    if len(pairs) % 2:
        return None
    spec = _Options()
    try:
        add_arguments(spec)
    except _Unmodeled:
        return None
    given = {}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        option = spec.options.get(flag)
        if option is None or text.startswith("-"):
            return None
        convert = option.get("type")
        try:
            value = text if convert is None else convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None  # the full parser reports it
        if "choices" in option and value not in option["choices"]:
            return None
        given[flag] = value
    if any(o.get("required") and f not in given for f, o in spec.options.items()):
        return None
    values = {"command": name, **spec.defaults}
    for flag, option in spec.options.items():
        values[flag.lstrip("-").replace("-", "_")] = given.get(flag, option.get("default"))
    return argparse.Namespace(**values)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed as build_parser(argv).parse_args(argv) parses it.

    Two routes.  The quick one builds no ArgumentParser: when argv[0] names
    a subcommand whose add-arguments function _Options reads and the rest
    of argv is `--option value` pairs that _quick_parse takes, the namespace
    is built from the declared types, choices, defaults and set_defaults,
    as argparse would build it.  Every other line (help, `--opt=value`,
    abbreviations, values that start with "-", leftovers, oracle's nested
    subcommands, any error) goes to the full parser, the only route that
    prints anything.
    """
    for name, _, add_arguments in SUBCOMMANDS:
        if argv and argv[0] == name:
            args = _quick_parse(name, add_arguments, argv[1:])
            if args is not None:
                return args
    return build_parser(argv).parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
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
