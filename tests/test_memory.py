"""Memory gates.  The command line reads tree and labeling files from an
open file, and writes each to a file, holding far less than the document
at any time; and a layered decomposition keeps a few bytes per vertex.

tracemalloc counts every allocation of the interpreter and of numpy, so a
traced peak is the same from run to run.  The documents are those of
10^5-vertex trees at delta 3, the command line's default, where the port
arrays a parsed tree keeps come to a third of its document.
"""
import itertools
import tracemalloc
from random import Random

import pytest

from lcltrees import cli
from lcltrees.fixtures import perfect_matching
from lcltrees.problems import HalfEdgeLabeling, labeling_chunks, parse_labeling
from lcltrees.rakecompress import post_process
from lcltrees.trees import TreeGenSpec, gen_tree, parse_tree, tree_chunks

N = 100_000
# traced peak over the document's size in bytes; a reader or writer that
# holds the whole text, as a str or as its records, passes neither: such a
# reader peaked at 2.0 to 2.4 times the document, such a writer at 2.7 to 3
READ_LIMIT = 1.25
WRITE_LIMIT = 0.5
# bytes a decomposition keeps per vertex: its vertex arrays and ranks come
# to 16, while one held as frozensets and tuples kept 99 to 111
KEEP_LIMIT = 32


def traced(call):
    """call()'s result, then the memory traced when it returned and the most
    traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """call()'s result and the most memory traced while it ran, in bytes."""
    result, _, peak = traced(call)
    return result, peak


def assert_streams(path, chunks, parse, want):
    """Writing chunks() to path and parsing it back as the command line does
    stay within their limits, and give back want."""
    _, peak = traced_peak(lambda: cli._write(str(path), chunks()))
    size = path.stat().st_size
    assert peak < WRITE_LIMIT * size, (peak, size)
    got, peak = traced_peak(lambda: cli._parse_file(parse, str(path)))
    assert got == want
    assert peak < READ_LIMIT * size, (peak, size)


def test_a_tree_file_is_written_and_read_in_slices(tmp_path):
    tree = gen_tree(TreeGenSpec(n=N, delta=3, seed=1))
    assert_streams(tmp_path / "tree.json", lambda: tree_chunks(tree), parse_tree, tree)


def test_a_labeling_file_is_written_and_read_in_slices(tmp_path):
    problem = perfect_matching()
    rows = list(itertools.product(range(problem.num_labels), repeat=problem.delta))
    rng = Random(1)
    labeling = HalfEdgeLabeling(rng.choice(rows) for _ in range(N))
    assert_streams(
        tmp_path / "labeling.json",
        lambda: labeling_chunks(labeling, problem),
        lambda f: parse_labeling(f, problem),
        labeling,
    )


@pytest.mark.parametrize("model", ["uniform-attachment-capped", "path", "caterpillar"])
def test_a_decomposition_keeps_a_few_bytes_per_vertex(model):
    tree = gen_tree(TreeGenSpec(n=N, delta=3, seed=1, model=model))
    decomp, kept, _ = traced(lambda: post_process(tree, 2))
    assert decomp.depth > 1
    assert kept < KEEP_LIMIT * N, kept / N
