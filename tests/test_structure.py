import math
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strposet import (GeneratorParams, PosetFragment, StrNode,
                      counting_formula, down_set_in_fiber, enumerate_fiber,
                      finite_node, format_node, has_strictly_smaller,
                      mu_statistic, parity_mub_check, random_fragment,
                      ray_node, str_leq, str_leq_bruteforce, str_member,
                      w_max)
from strposet.core import bits_of, mask_of
from strposet.structure import (_bad, _down_set, _member, _strict_rows,
                                node_from_tuple)

from conftest import fragment_and_member, fragments
from helpers import (SmallPoset, brute_down_set, brute_fhp,
                     brute_has_smaller, brute_mu, detect_I2, dominates_via,
                     down_indices, ell, eta, fiber_height_positive, h1, h2,
                     height_positive_by_order, index_of, join_above, leq,
                     make_f0, make_f3, member_by_elements,
                     small_poset_isomorphic, to_small_poset)


def all_fibers(frag, amax=None):
    """Every singleton and full-support fiber of a small fragment."""
    views = []
    support = frag.all_h1_mask
    cap = frag.n1 if amax is None else amax
    for b_mask in range(1, 1 << frag.n2):
        view = enumerate_fiber(frag, b_mask, support, cap)
        if view.nodes:
            views.append(view)
    return views


# -- membership and witnesses ---------------------------------------------


def test_str_member(f0):
    assert str_member(f0, (0b001, 0b11))
    assert str_member(f0, (0b101, 0b11))     # a carries {d,e}; c is extra
    assert not str_member(f0, (0b100, 0b11))  # c is not below e
    assert not str_member(f0, (0, 0b01))
    assert not str_member(f0, (0b001, 0))
    with pytest.raises(ValueError):
        str_member(f0, (0b1000, 0b01))
    with pytest.raises(ValueError):
        str_member(f0, (0b001, 0b100))


@given(fragments(max_n1=5, max_n2=3), st.integers(-40, 80),
       st.integers(-12, 20))
@settings(max_examples=300, deadline=None)
@example(PosetFragment(2, 1, [(0, 0)]), 0, 1)
@example(PosetFragment(2, 1, [(0, 0)]), 1, -1)
@example(PosetFragment(2, 1, [(0, 0)]), 0b101, 1)
def test_member_is_the_element_definition(frag, a, b):
    # one membership rule: empty, negative and out-of-tier masks are a plain
    # no, and str_member raises exactly where a mask leaves its tier
    assert _member(frag, a, b) is member_by_elements(frag, a, b)
    if a < 0 or b < 0 or a >> frag.n1 or b >> frag.n2:
        with pytest.raises(ValueError, match="is not an h[12] mask"):
            str_member(frag, (a, b))
    else:
        assert str_member(frag, (a, b)) is _member(frag, a, b)


def test_w_max_frozen(f0):
    assert w_max(f0, 0b111, 0b11) == 0b011
    assert w_max(f0, 0b111, 0b01) == 0b111
    assert w_max(f0, 0b100, 0b10) == 0
    assert w_max(f0, 0, 0b01) == 0


def test_ell_eta(f0):
    node = finite_node(0b111, 0b11)
    assert ell(f0, node) == 2
    assert eta(f0, node) == 1
    assert ell(f0, finite_node(0b111, 0b01)) == 3
    with pytest.raises(ValueError):
        ell(f0, finite_node(0b100, 0b10))


def test_dominates_via_witness_choice(f3):
    upper = finite_node(0b110, 0b001)   # (y1,y2 | m)
    lower = finite_node(0b010, 0b001)   # (y1 | m)
    assert not dominates_via(f3, upper, lower, 0b010)  # {y1} leaks onto n1
    assert dominates_via(f3, upper, lower, 0b100)      # {y2} closes it
    assert dominates_via(f3, upper, lower, 0b110)
    # witness must be nonempty and inside the upper first ordinate
    assert not dominates_via(f3, upper, lower, 0)
    assert not dominates_via(f3, upper, lower, 0b001)


def test_str_leq_frozen(f0):
    assert str_leq(f0, finite_node(0b001, 0b11), finite_node(0b011, 0b11))
    assert str_leq(f0, finite_node(0b001, 0b11), finite_node(0b111, 0b11))
    assert not str_leq(f0, finite_node(0b011, 0b11), finite_node(0b001, 0b11))
    # same node: reflexive
    n = finite_node(0b011, 0b11)
    assert str_leq(f0, n, n)
    # growing B upward is not allowed
    assert not str_leq(f0, finite_node(0b001, 0b01), finite_node(0b011, 0b11))
    # shrinking it is, but only when the witness closes onto the smaller B:
    # {a,b} still bounds e, {a,c} does not
    assert not str_leq(f0, finite_node(0b001, 0b11), finite_node(0b011, 0b01))
    assert str_leq(f0, finite_node(0b001, 0b11), finite_node(0b101, 0b01))


def test_str_leq_cusp(f3):
    # (P|m) skips the middle pairs and lands only under the full node
    bot = finite_node(0b001, 0b001)
    assert not str_leq(f3, bot, finite_node(0b011, 0b001))
    assert not str_leq(f3, bot, finite_node(0b101, 0b001))
    assert str_leq(f3, bot, finite_node(0b111, 0b001))


def test_ray_semantics(f0):
    ray = ray_node(f0, 0)
    twin = finite_node(0b001, 0b11)     # same masks as the ray
    assert ray.is_ray and not twin.is_ray
    assert ray != twin
    assert not str_leq(f0, ray, twin)
    assert not str_leq(f0, twin, ray)
    assert str_leq(f0, ray, ray)
    assert str_leq(f0, ray, finite_node(0b011, 0b11))
    assert not str_leq(f0, finite_node(0b011, 0b11), ray)
    assert str_leq_bruteforce(f0, ray, twin) == str_leq(f0, ray, twin)
    assert str_leq_bruteforce(f0, ray, ray)


def test_ray_node_validates():
    from strposet import PosetFragment
    lonely = PosetFragment(2, 1, [(0, 0)])
    assert ray_node(lonely, 0).b_mask == 0b1
    with pytest.raises(ValueError):
        ray_node(lonely, 1)
    with pytest.raises(ValueError):
        ray_node(lonely, 7)


def test_node_json_round_trip(f0):
    ray = ray_node(f0, 2)
    assert StrNode.from_json(ray.to_json()) == ray
    fin = finite_node(0b101, 0b01)
    assert StrNode.from_json(fin.to_json()) == fin
    assert format_node(f0, fin) == "(a,c|d)"
    assert format_node(f0, ray) == "(ray c|d)"


def test_str_node_identity():
    # problem strings embed the repr, so it is pinned
    fin, ray = StrNode(0b11, 0b1), StrNode(0b11, 0b1, ray_of=0)
    assert repr(fin) == "StrNode(a_mask=3, b_mask=1, ray_of=None)"
    assert repr(ray) == "StrNode(a_mask=3, b_mask=1, ray_of=0)"
    assert fin != ray and len({fin, ray}) == 2
    assert fin == finite_node(3, 1) and hash(fin) == hash(finite_node(3, 1))
    # a node is the plain tuple (a_mask, b_mask, ray_of)
    assert fin == (3, 1, None) and hash(fin) == hash((3, 1, None))
    assert sorted([StrNode(2, 1), StrNode(1, 4)]) == [(1, 4, None),
                                                      (2, 1, None)]


_NODE_PARTS = (st.integers(0, 7), st.integers(0, 7),
               st.none() | st.integers(0, 2))


@given(st.tuples(*_NODE_PARTS), st.tuples(*_NODE_PARTS))
@settings(max_examples=200)
def test_str_node_hash_agrees_with_eq(u_parts, v_parts):
    u, v = StrNode(*u_parts), StrNode(*v_parts)
    assert (u == v) == (u_parts == v_parts)
    if u == v:
        assert hash(u) == hash(v) and len({u, v}) == 1
    else:
        assert len({u, v}) == 2


@given(st.tuples(*_NODE_PARTS))
@settings(max_examples=100)
def test_node_from_tuple_is_the_same_node(parts):
    fast, slow = node_from_tuple(parts), StrNode(*parts)
    assert type(fast) is StrNode
    assert (fast.a_mask, fast.b_mask, fast.ray_of) == parts
    assert fast == slow and hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)


def test_str_leq_matches_bruteforce_exhaustively():
    for frag in (make_f0(), make_f3()):
        for view in all_fibers(frag):
            for u, v in product(view.nodes, repeat=2):
                assert str_leq(frag, u, v) == \
                    str_leq_bruteforce(frag, u, v), (u, v)
                if u != v:
                    c = v.a_mask
                    assert str_leq(frag, u, v) == any(
                        dominates_via(frag, v, u, w)
                        for w in range(1, c + 1) if not w & ~c), (u, v)


@given(fragment_and_member())
@settings(max_examples=120)
def test_str_leq_matches_bruteforce_random(fm):
    frag, node = fm
    sub = node.a_mask
    while sub:
        lower = finite_node(sub, node.b_mask)
        if str_member(frag, lower):
            assert str_leq(frag, lower, node) == \
                str_leq_bruteforce(frag, lower, node)
        sub = (sub - 1) & node.a_mask


@st.composite
def member_node_lists(draw):
    """A fragment and distinct member nodes of it in any order: nodes of
    several fibers, one-curve nodes and ray nodes beside their finite
    twins."""
    frag = draw(fragments(max_n1=5, max_n2=3))
    members = [finite_node(a, b) for a in range(1, 1 << frag.n1)
               for b in range(1, 1 << frag.n2) if str_member(frag, (a, b))]
    members += [ray_node(frag, x) for x in range(frag.n1) if frag.up[x]]
    if not members:
        return frag, []
    return frag, draw(st.lists(st.sampled_from(members), unique=True,
                               max_size=40))


@given(member_node_lists())
# _bad({x, y, z}, {p0}) = {x}: the kernel scans the two first ordinates
# instead of walking the subsets of {y, z}, and (x | p0) is not below
@example((PosetFragment(3, 2, [(0, 0), (0, 1)]),
          [finite_node(0b111, 0b01), finite_node(0b001, 0b01)]))
@settings(max_examples=100, deadline=None)
def test_strict_rows_match_bruteforce(frag_nodes):
    frag, nodes = frag_nodes
    expected = [mask_of(j for j, v in enumerate(nodes)
                        if j != i and str_leq_bruteforce(frag, u, v))
                for i, u in enumerate(nodes)]
    assert _strict_rows(frag, nodes) == expected


@given(fragment_and_member(), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_strict_rows_match_fiber_views(fm, amax):
    """The fiber views' all-pairs rows, diagonal cleared, are the kernel's
    rows on the same node lists."""
    frag, node = fm
    views = [enumerate_fiber(frag, node.b_mask, frag.all_h1_mask, amax),
             down_set_in_fiber(frag, node)]
    for view in views:
        assert _strict_rows(frag, view.nodes) == [
            row & ~(1 << i) for i, row in enumerate(view.leq_rows)]


def test_partial_order_laws_on_fibers():
    for frag in (make_f0(), make_f3()):
        for view in all_fibers(frag):
            n = len(view)
            for i in range(n):
                assert view.leq(i, i)
                for j in range(n):
                    if i != j and view.leq(i, j) and view.leq(j, i):
                        raise AssertionError("antisymmetry broke")
                    for k in range(n):
                        if view.leq(i, j) and view.leq(j, k):
                            assert view.leq(i, k)


# -- heights ----------------------------------------------------------------


def test_height_positive_frozen(f0):
    assert fiber_height_positive(f0, finite_node(0b011, 0b11))
    assert not fiber_height_positive(f0, finite_node(0b001, 0b11))
    assert fiber_height_positive(f0, finite_node(0b111, 0b01))
    assert not fiber_height_positive(f0, finite_node(0b101, 0b11))


def test_ray_shadow_divergence(f0):
    """A node above a single fully-below curve whose upper set is exactly B:
    something is strictly below it, yet B is not a minimal upper bound set
    of any K inside A."""
    shadow = finite_node(0b101, 0b11)   # (a,c | d,e)
    assert has_strictly_smaller(f0, shadow)
    assert not fiber_height_positive(f0, shadow)
    ds = down_set_in_fiber(f0, shadow)
    assert [format_node(f0, n) for n in ds.nodes] == \
        ["(a|d,e)", "(a,c|d,e)"]
    # the pattern behind the split
    assert w_max(f0, 0b101, 0b11) == 0b001
    assert f0.up[0] == 0b11
    # the counting formula still holds there with l = 1
    assert counting_formula(f0, shadow) == (2, 2)
    assert parity_mub_check(f0, shadow)


def test_heights_against_literal_definitions():
    for frag in (make_f0(), make_f3()):
        for view in all_fibers(frag):
            for i, node in enumerate(view.nodes):
                a, b = node.a_mask, node.b_mask
                assert fiber_height_positive(frag, node) == \
                    brute_fhp(frag, a, b), format_node(frag, node)
                assert has_strictly_smaller(frag, node) == \
                    brute_has_smaller(frag, a, b)
                assert has_strictly_smaller(frag, node) == \
                    height_positive_by_order(view, i)


@given(fragment_and_member())
@settings(max_examples=100)
def test_heights_random(fm):
    frag, node = fm
    if node.a_mask.bit_count() > 6:
        return
    assert fiber_height_positive(frag, node) == \
        brute_fhp(frag, node.a_mask, node.b_mask)
    assert has_strictly_smaller(frag, node) == \
        brute_has_smaller(frag, node.a_mask, node.b_mask)


# -- fibers -------------------------------------------------------------------


def test_fiber_sizes_frozen(f0, f3):
    assert len(enumerate_fiber(f0, 0b01, 0b111, 3)) == 7
    assert len(enumerate_fiber(f0, 0b10, 0b111, 3)) == 6
    assert len(enumerate_fiber(f0, 0b11, 0b111, 3)) == 6
    assert len(enumerate_fiber(f3, 0b001, 0b111, 3)) == 7
    assert len(enumerate_fiber(f3, 0b011, 0b111, 3)) == 6
    assert len(enumerate_fiber(f3, 0b110, 0b111, 3)) == 4
    assert len(enumerate_fiber(f3, 0b111, 0b111, 3)) == 4


def test_fiber_respects_support_and_amax(f0):
    small = enumerate_fiber(f0, 0b01, 0b011, 2)
    assert [format_node(f0, n) for n in small.nodes] == \
        ["(a|d)", "(b|d)", "(a,b|d)"]
    capped = enumerate_fiber(f0, 0b01, 0b111, 1)
    assert len(capped) == 3
    with pytest.raises(ValueError):
        enumerate_fiber(f0, 0, 0b111, 2)


def test_fiber_view_navigation(f3):
    view = enumerate_fiber(f3, 0b001, 0b111, 3)
    top = index_of(view, finite_node(0b111, 0b001))
    assert down_indices(view, top) == list(range(len(view)))
    assert height_positive_by_order(view, top)
    bot = index_of(view, finite_node(0b001, 0b001))
    assert down_indices(view, bot) == [bot]
    assert view.covers() == [(0, 6), (1, 5), (2, 5), (3, 6), (4, 6), (5, 6)]


def test_fiber_dot_frozen(f3):
    view = enumerate_fiber(f3, 0b001, 0b111, 3)
    assert view.to_dot() == """digraph strfiber {
  rankdir=BT;
  n0 [label="(P|m)"];
  n1 [label="(y1|m)"];
  n2 [label="(y2|m)"];
  n3 [label="(P,y1|m)"];
  n4 [label="(P,y2|m)"];
  n5 [label="(y1,y2|m)"];
  n6 [label="(P,y1,y2|m)"];
  n0 -> n6 [label="{P,y1,y2}"];
  n1 -> n5 [label="{y1,y2}"];
  n2 -> n5 [label="{y1,y2}"];
  n3 -> n6 [label="{P,y1,y2}"];
  n4 -> n6 [label="{P,y1,y2}"];
  n5 -> n6 [label="{P,y1,y2}"];
}
"""
    plain = view.to_dot(include_via=False)
    assert "label=\"{" not in plain
    assert "n5 -> n6;" in plain


def test_fiber_json(f0):
    view = enumerate_fiber(f0, 0b11, 0b111, 3)
    out = view.to_json()
    assert out["b"] == [0, 1]
    assert len(out["nodes"]) == 6
    assert out["node_labels"][0] == "(a|d,e)"
    assert all(len(c) == 2 for c in out["covers"])


def test_down_set_matches_view(f0, f3):
    node = finite_node(0b111, 0b01)
    ds = down_set_in_fiber(f0, node)
    assert len(ds) == 7
    assert all(n.b_mask == 0b01 for n in ds.nodes)
    assert all(str_leq(f0, n, node) for n in ds.nodes)
    # a ray is alone in its down set, without its finite twin
    ray = ray_node(f3, 0)
    ds = down_set_in_fiber(f3, ray)
    assert ds.nodes == [ray] and ds.leq_rows == [1]
    assert not str_leq(f3, finite_node(ray.a_mask, ray.b_mask), ray)


# -- counting, parity, shapes ---------------------------------------------


def test_counting_formula_frozen(f0, f3):
    assert counting_formula(f0, finite_node(0b111, 0b11)) == (6, 6)
    assert counting_formula(f0, finite_node(0b111, 0b01)) == (7, 7)
    assert counting_formula(f0, finite_node(0b011, 0b11)) == (3, 3)
    assert counting_formula(f3, finite_node(0b111, 0b001)) == (7, 7)
    with pytest.raises(ValueError):
        counting_formula(f0, finite_node(0b001, 0b11))
    with pytest.raises(ValueError):
        counting_formula(f3, finite_node(0b011, 0b001))


def test_counting_and_parity_exhaustive():
    for frag in (make_f0(), make_f3()):
        for view in all_fibers(frag):
            for node in view.nodes:
                brute = brute_down_set(frag, node.a_mask, node.b_mask)
                ds = down_set_in_fiber(frag, node)
                assert {n.a_mask for n in ds.nodes} == brute, node
                if not has_strictly_smaller(frag, node):
                    continue
                predicted, actual = counting_formula(frag, node)
                assert predicted == actual == len(brute)
                assert parity_mub_check(frag, node)


@given(fragment_and_member())
@settings(max_examples=100)
def test_counting_and_parity_random(fm):
    frag, node = fm
    if node.a_mask.bit_count() > 6:
        return
    brute = brute_down_set(frag, node.a_mask, node.b_mask)
    ds = down_set_in_fiber(frag, node)
    assert {n.a_mask for n in ds.nodes} == brute
    if not has_strictly_smaller(frag, node):
        return
    predicted, actual = counting_formula(frag, node)
    assert predicted == actual == len(brute)
    assert parity_mub_check(frag, node)


def test_bad_matches_its_definition():
    """Each curve of ``_bad(C, D)`` shares a point outside D with every
    curve of w = w_max(C, D); a member (A, B) with A a proper subset of C
    and D inside B is dominated via w exactly when A avoids it; and the
    down set of (C, D) is C plus those A with B = D."""
    for frag in (make_f0(), make_f3()):
        members = [(a, b) for a in range(1, 1 << frag.n1)
                   for b in range(1, 1 << frag.n2)
                   if str_member(frag, (a, b))]
        for c, d in members:
            bad, w = _bad(frag, c, d), w_max(frag, c, d)
            assert bad == mask_of(
                x for x in bits_of(c)
                if any(not d >> p & 1 and leq(frag, h1(x), h2(p))
                       and all(leq(frag, h1(y), h2(p)) for y in bits_of(w))
                       for p in range(frag.n2))), (c, d)
            below = {c}
            for a, b in members:
                if a & ~c or a == c or d & ~b:
                    continue
                dominated = dominates_via(frag, (c, d), (a, b), w)
                assert dominated == (not a & bad), (a, b, c, d)
                if dominated and b == d:
                    below.add(a)
            assert set(_down_set(frag, c, d)) == below, (c, d)


def test_detect_I2_frozen(f0):
    assert detect_I2(f0, finite_node(0b011, 0b11))
    assert detect_I2(f0, finite_node(0b101, 0b01))
    assert not detect_I2(f0, finite_node(0b111, 0b01))
    assert not detect_I2(f0, finite_node(0b101, 0b11))


def test_detect_I2_matches_shape():
    i2 = SmallPoset.i_r(2)
    for frag in (make_f0(), make_f3()):
        for view in all_fibers(frag):
            for node in view.nodes:
                if node.a_mask.bit_count() > 4:
                    continue
                if not has_strictly_smaller(frag, node):
                    continue
                ds = down_set_in_fiber(frag, node)
                shaped = small_poset_isomorphic(to_small_poset(ds), i2)
                assert detect_I2(frag, node) == shaped, \
                    format_node(frag, node)


# -- the down-set minimum ---------------------------------------------------


def test_mu_frozen(f0, f3):
    assert mu_statistic(f0, 0, 0) == (3, False)
    assert mu_statistic(f0, 1, 0) == (3, False)
    assert mu_statistic(f0, 2, 0) == (3, False)
    assert mu_statistic(f0, 0, 1) == (math.inf, True)
    assert mu_statistic(f0, 2, 1) == (math.inf, True)
    assert mu_statistic(f3, 0, 0, 4) == (7, True)
    assert mu_statistic(f3, 1, 0) == (3, False)   # y1 pairs with y2 at m
    # P and y1 share both m and n1, so nothing isolates n1
    assert mu_statistic(f3, 0, 1) == (math.inf, True)


def test_mu_amax_budget(f3):
    # the cusp needs all three curves; a budget of 2 cannot see that
    assert mu_statistic(f3, 0, 0, amax=2) == (math.inf, True)
    assert mu_statistic(f3, 0, 0, amax=3) == (7, True)
    with pytest.raises(ValueError):
        mu_statistic(f3, 0, 0, amax=1)
    with pytest.raises(ValueError):
        mu_statistic(f3, 9, 0)
    with pytest.raises(ValueError):
        mu_statistic(f3, 0, 9)


def test_mu_junk_curve_doubles():
    # x not below m: the smallest witness pair doubles to 6
    frag = random_fragment(GeneratorParams(n1=12, n2=3,
                                           planted_pairs_per_point=3, seed=2))
    for m in range(frag.n2):
        outside = [x for x in range(frag.n1) if not frag.up[x] >> m & 1]
        for x in outside[:2]:
            mu, _ = mu_statistic(frag, x, m, 4)
            if mu != math.inf:
                assert mu % 2 == 0 and mu >= 6


@given(fragments(max_n1=5, max_n2=3), st.integers(0, 4), st.integers(0, 2))
@settings(max_examples=80)
def test_mu_against_literal_enumeration(frag, x, m):
    if x >= frag.n1 or m >= frag.n2:
        return
    mu, ge4 = mu_statistic(frag, x, m, 4)
    expected = brute_mu(frag, x, m, 4)
    assert mu == (math.inf if expected is None else expected)
    partner = any(y != x and frag.up[x] & frag.up[y] == 1 << m
                  for y in range(frag.n1))
    assert ge4 == (not partner)
    # the partner dichotomy: mu is 3 exactly when a partner exists,
    # otherwise it is at least 4 (possibly infinite)
    assert (mu == 3) == partner
    assert ge4 == (mu >= 4)


def test_mu_spectrum_never_4_or_5():
    for frag in (make_f0(), make_f3()):
        for x in range(frag.n1):
            for m in range(frag.n2):
                mu, _ = mu_statistic(frag, x, m, 4)
                assert mu not in (4, 5)


# -- joining two nodes above a shared point ---------------------------------


def test_join_above_cusp_has_no_room(f3):
    first = finite_node(0b010, 0b001)
    second = finite_node(0b100, 0b001)
    assert join_above(f3, first, second, 0) is None


def test_join_above_planted():
    frag = random_fragment(GeneratorParams(n1=12, n2=3,
                                           planted_pairs_per_point=3, seed=4))
    m = 0
    pool = list(range(frag.n1))
    xs = [x for x in pool if frag.up[x] >> m & 1]
    first = finite_node(1 << xs[0], 1 << m)
    second = finite_node(1 << xs[1], 1 << m)
    joined = join_above(frag, first, second, m)
    assert joined is not None
    assert joined.b_mask == 1 << m
    assert joined.a_mask & (first.a_mask | second.a_mask) == \
        first.a_mask | second.a_mask
    k = joined.a_mask & ~(first.a_mask | second.a_mask)
    assert k and frag.common_h2_above(k) == 1 << m
    assert str_leq(frag, first, joined)
    assert str_leq(frag, second, joined)
