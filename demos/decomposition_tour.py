"""Watch rake-and-compress peel trees apart, and how slowly depth grows.

Each iteration rakes away low-degree fringe vertices, then compresses long
induced paths.  The post-processed form slices compressed runs into blocks
of ell' to 2*ell' vertices so a solver can fill each block between exactly
two already-labeled anchors.  Depth tracks log(n), which is the whole point.
"""
import math

from lcltrees import TreeGenSpec, check_layered_invariants, gen_tree, post_process


def dump(name, tree, ell_prime):
    decomp = post_process(tree, ell_prime)
    print(f"--- {name}, ell' = {ell_prime} ---")
    for i, layer in enumerate(decomp.rake_layers, start=1):
        print(f"  rake {i}:     {sorted(layer)}")
        if i - 1 < len(decomp.compress_layers):
            print(f"  compress {i}: {sorted(decomp.compress_layers[i - 1])}")
    problems = check_layered_invariants(decomp)
    print(f"  depth {decomp.depth}, invariants {'ok' if not problems else problems}")


def main():
    dump("path of 10", gen_tree(TreeGenSpec(10, 3, 0, model="path")), 2)
    dump("star of 4", gen_tree(TreeGenSpec(4, 3, 0, model="star")), 2)
    dump("random 30-vertex tree", gen_tree(TreeGenSpec(30, 3, 7)), 1)

    print("--- depth versus size (mean over 10 seeds) ---")
    for k in range(6, 14):
        n = 2**k
        depths = [
            post_process(gen_tree(TreeGenSpec(n, 3, s)), 2).depth for s in range(10)
        ]
        mean = sum(depths) / len(depths)
        print(f"  n = {n:6d}: mean depth {mean:5.1f}   (4*log2 n + 4 = {4 * math.log2(n) + 4:.0f})")


if __name__ == "__main__":
    main()
