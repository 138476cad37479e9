"""Generate a tree, label it with the log-round solver, and check the result.

The solver peels the tree into rake and compress layers, then labels the
layers in reverse: isolated vertices answer at most one already-labeled
neighbor, and compressed path blocks are filled by walking the path state
graph between their two labeled anchors.
"""
from lcltrees import (
    TreeGenSpec,
    classify,
    gen_tree,
    is_valid_labeling,
    post_process,
    round_report,
    solve_log,
)
from lcltrees.fixtures import perfect_matching


def main():
    problem = perfect_matching()
    report = classify(problem)
    print(f"classification: {report.verdict}, minimal ell = {report.minimal_ell}")

    tree = gen_tree(TreeGenSpec(n=5000, delta=3, seed=11))
    subset = sorted(problem.vertex_configs)
    labeling = solve_log(problem, subset, report.minimal_ell, tree)

    validity = is_valid_labeling(problem, tree, labeling)
    print(f"labeled {tree.n} vertices: {validity.describe(problem)}")

    matched = sum(
        1 for v in range(tree.n) for p, lab in enumerate(labeling.ports[v])
        if lab == 0 and tree.ports[v][p] is not None
    )
    print(f"{matched // 2} real matched edges; the rest lean on virtual ports")

    ell_prime = max(1, report.minimal_ell - 2)
    decomp = post_process(tree, ell_prime)
    print(round_report(problem, tree, decomp).describe())


if __name__ == "__main__":
    main()
