"""Extendability tables: when do two rooted subtrees behave identically?

The h table of a poled tree answers, for each labeling of the poles' spare
ports, whether the rest of the tree can be completed.  Equal tables mean the
trees are interchangeable inside any host.  Concatenating rooted tables
along a path eventually repeats, which bounds how far labels can "see".
"""
from lcltrees import PoledTree, PortTree, TreeGenSpec, class_census, concat_bipolar, gen_tree, h_table, pumping_decompose
from lcltrees.fixtures import perfect_matching, three_coloring, two_coloring


def main():
    problems = [
        ("3-coloring", three_coloring()),
        ("2-coloring", two_coloring()),
        ("matching", perfect_matching()),
    ]
    single = PortTree(3, [[None, None, None]])  # one vertex, three virtual ports
    path3 = gen_tree(TreeGenSpec(3, 3, 0, model="path"))

    for name, problem in problems:
        table = h_table(problem, PoledTree(single, (0,)))
        pretty = [
            "{" + " ".join(problem.name_of(x) for x in i[0]) + "}"
            for i in table.yes_interfaces()
        ]
        print(f"{name}: single vertex accepts {', '.join(pretty)}")

    # path ends of different lengths share one table: swap them freely
    problem = three_coloring()
    end3 = h_table(problem, PoledTree(path3, (0,)))
    path5 = gen_tree(TreeGenSpec(5, 3, 0, model="path"))
    end5 = h_table(problem, PoledTree(path5, (0,)))
    print(f"\n3-coloring path ends, 3 vs 5 vertices: equal tables = {end3 == end5}")

    print("\nfirst repeated concatenation prefix over eight singletons:")
    for name, problem in problems:
        t1 = h_table(problem, PoledTree(single, (0,)))
        print(f"  {name}: (a, b) = {pumping_decompose(problem, [t1] * 8)}")

    print("\nsampled class census (trees up to 12 vertices):")
    for name, problem in problems:
        report = class_census(problem, max_size=12, samples_per_size=5)
        print(f"  {name}:")
        for line in report.describe().splitlines():
            print(f"    {line}")


if __name__ == "__main__":
    main()
