from itertools import combinations_with_replacement
from random import Random

import pytest
from hypothesis import strategies as st

from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
from lcltrees.problems import EdgeConfig, Label, LclProblem, VertexConfig
from lcltrees.trees import TreeGenSpec, gen_tree


@pytest.fixture
def coloring3():
    return three_coloring()


@pytest.fixture
def coloring2():
    return two_coloring()


@pytest.fixture
def matching():
    return perfect_matching()


@pytest.fixture
def random4():
    return random_problem(4)


@pytest.fixture
def random6():
    return random_problem(6)


# Two-coloring on labels a and b padded with configs that hold label p or q,
# which no edge config partners: every padded problem is a NOT, and only
# {aaa, bbb} survives the liveness trim.  The three large paddings and the
# small one are the padded problems the classify benchmark runs.
PADDINGS = (
    ("ppp", "qqq", "aap", "bbq", "app", "bqq", "ppq", "abp"),
    ("ppp", "qqq", "aap", "bbq", "app", "bqq", "ppq", "pqq", "abp"),
    ("ppp", "qqq", "aap", "bbq", "app", "bqq", "ppq", "pqq", "aaq", "abp"),
)
SMALL_NOT_PADDING = ("ppp", "qqq", "aap")


def padded_two_coloring(names, padding):
    """Two-coloring plus padding configs; label i is named names[i]."""
    id_of = {x: i for i, x in enumerate(names)}
    configs = frozenset(VertexConfig.of(id_of[x] for x in c) for c in ("aaa", "bbb") + padding)
    edges = frozenset({EdgeConfig.of(id_of["a"], id_of["b"])})
    return LclProblem(3, tuple(Label(i, x) for i, x in enumerate(names)), configs, edges)


def many_label_problem(seed, num_labels, delta=3, max_vertex_configs=12):
    """Seeded random problem over up to eight labels, past random_problem's
    five: 1..max_vertex_configs configs and 1..a third of the label pairs
    as edges, sparse enough that the liveness trim and the peel drop configs."""
    rng = Random(seed)
    labels = tuple(Label(i, x) for i, x in enumerate("abcdefgh"[:num_labels]))
    every = [VertexConfig(c) for c in combinations_with_replacement(range(num_labels), delta)]
    pairs = [EdgeConfig((i, j)) for i in range(num_labels) for j in range(i, num_labels)]
    configs = rng.sample(every, rng.randint(1, min(max_vertex_configs, len(every))))
    edges = rng.sample(pairs, rng.randint(1, len(pairs) // 3))
    return LclProblem(delta, labels, frozenset(configs), frozenset(edges))


def path_tree(n, delta=3):
    return gen_tree(TreeGenSpec(n=n, delta=delta, seed=0, model="path"))


def star_tree(n, delta=3):
    return gen_tree(TreeGenSpec(n=n, delta=delta, seed=0, model="star"))


# JSON values for fuzzing the parsers.  Integers are unbounded: a parser must
# reject a huge count or id as a format error, not allocate for it.
names = st.sampled_from(["a", "b", "c", "M", "U", ""])
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | names
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def json_documents(*required, **likely):
    """JSON objects that carry every required key, each with an arbitrary
    value, or often a draw from likely[key] so the document gets past the
    parser's first checks."""
    return st.fixed_dictionaries(
        {key: likely.get(key, st.nothing()) | json_values for key in required},
        optional={"extra": json_values},
    )
