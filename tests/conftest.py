import pytest
from hypothesis import strategies as st

from lcltrees.fixtures import perfect_matching, random_problem, three_coloring, two_coloring
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


def path_tree(n, delta=3):
    return gen_tree(TreeGenSpec(n=n, delta=delta, seed=0, model="path"))


def star_tree(n, delta=3):
    return gen_tree(TreeGenSpec(n=n, delta=delta, seed=0, model="star"))


# JSON values for fuzzing the parsers.  Integers stay within +-1000 because a
# tree document's delta sizes an n x delta port table before anything else
# bounds it.
names = st.sampled_from(["a", "b", "c", "M", "U", ""])
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
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
