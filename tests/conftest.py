import pytest
from hypothesis import strategies as st

from strposet import PosetFragment, affine_plane_fragment, bits_of, finite_node

from helpers import make_f0, make_f3


@pytest.fixture
def f0():
    return make_f0()


@pytest.fixture
def f3():
    return make_f3()


@pytest.fixture(scope="session")
def ag21():
    return affine_plane_fragment(2, 1)


@st.composite
def fragments(draw, max_n1=6, max_n2=4):
    n1 = draw(st.integers(1, max_n1))
    n2 = draw(st.integers(1, max_n2))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
        max_size=n1 * n2))
    return PosetFragment(n1, n2, pairs)


@st.composite
def fragment_and_member(draw, max_n1=6, max_n2=4):
    """A fragment plus a guaranteed member pair: B inside some curve's upper
    set, A that curve plus arbitrary extras."""
    frag = draw(fragments(max_n1=max_n1, max_n2=max_n2))
    carriers = [i for i in range(frag.n1) if frag.up[i]]
    if not carriers:
        frag = PosetFragment(frag.n1, frag.n2, [(0, 0)])
        carriers = [0]
    x = draw(st.sampled_from(carriers))
    points = list(bits_of(frag.up[x]))
    chosen = draw(st.lists(st.sampled_from(points), min_size=1,
                           unique=True))
    b_mask = 0
    for j in chosen:
        b_mask |= 1 << j
    extra = draw(st.integers(0, (1 << frag.n1) - 1))
    return frag, finite_node((1 << x) | extra, b_mask)
