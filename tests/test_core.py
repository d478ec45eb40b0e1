import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strposet import (HARD_MAX_TIER, IsoMap, PosetFragment, bits_of,
                      fragment_to_json, mask_of, relabel, validate)
from strposet.core import mask_image

from conftest import fragments
from helpers import (MIN_ELEMENT, ElementId, SmallPoset, Tier,
                     common_h1_below_by_generators,
                     common_h2_above_by_generators, elements, h1, h2, height,
                     is_identity, iso_apply, leq, longest_chain_length,
                     lower_set, make_f0, mask_image_by_generators, mub,
                     pair_set_json, pair_set_preserved,
                     small_poset_isomorphic, upper_set)


def test_element_ids():
    assert repr(MIN_ELEMENT) == "Min"
    assert repr(h1(0)) == "h1[0]"
    assert repr(h2(3)) == "h2[3]"
    assert h1(2).tier is Tier.H1
    assert MIN_ELEMENT < h1(0) < h1(1) < h2(0)


def test_mask_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits_of(0b100101)) == [0, 2, 5]
    assert list(bits_of(0)) == []
    assert mask_of([]) == 0


def test_construction_and_masks(f0):
    assert (f0.n1, f0.n2) == (3, 2)
    assert f0.up == (0b11, 0b11, 0b01)
    assert f0.down == (0b111, 0b011)
    assert f0.all_h1_mask == 0b111 and f0.all_h2_mask == 0b11
    assert f0.common_h2_above(0b011) == 0b11
    assert f0.common_h2_above(0b101) == 0b01
    assert f0.common_h2_above(0) == 0b11
    assert f0.common_h1_below(0b11) == 0b011


def test_duplicate_incidence_collapses(f0):
    again = PosetFragment(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0),
                                 (0, 0), (2, 0)],
                          h1_labels=("a", "b", "c"), h2_labels=("d", "e"))
    assert again == f0
    assert hash(again) == hash(f0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PosetFragment(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        PosetFragment(2, 2, [(0, -1)])
    with pytest.raises(ValueError):
        PosetFragment(2, 2, [(0, 0)], h1_labels=("only-one",))
    with pytest.raises(ValueError, match="nonnegative"):
        PosetFragment(-1, 1, [])
    for n1, n2 in ((HARD_MAX_TIER + 1, 1), (1, HARD_MAX_TIER + 1)):
        with pytest.raises(ValueError, match=f"exceeds cap {HARD_MAX_TIER}"):
            PosetFragment(n1, n2, [])
    # every fragment admits tiers up to the one cap
    wide = PosetFragment(HARD_MAX_TIER, HARD_MAX_TIER, [])
    assert (wide.n1, wide.n2) == (HARD_MAX_TIER, HARD_MAX_TIER)


def test_immutable(f0):
    with pytest.raises(AttributeError):
        f0.n1 = 9
    with pytest.raises(AttributeError):
        f0.up = ()


def test_default_labels():
    f = PosetFragment(2, 1, [(0, 0)])
    assert f.h1_labels == ("x0", "x1")
    assert f.h2_labels == ("m0",)


def test_label_resolution(f0):
    assert f0.resolve_h1_label("a") == 0
    assert f0.resolve_h2_label("e") == 1
    with pytest.raises(KeyError):
        f0.resolve_h1_label("zz")
    dup = PosetFragment(2, 1, [(0, 0)], h1_labels=("z", "z"))
    with pytest.raises(KeyError):
        dup.resolve_h1_label("z")
    assert f0.h1_mask_labels(0b101) == ["a", "c"]


def test_leq_frozen(f0):
    assert leq(f0, MIN_ELEMENT, h2(0))
    assert leq(f0, MIN_ELEMENT, MIN_ELEMENT)
    assert leq(f0, h1(0), h2(1))
    assert not leq(f0, h1(2), h2(1))
    assert not leq(f0, h2(0), h1(0))
    assert leq(f0, h2(0), h2(0))
    assert not leq(f0, h1(0), h1(1))


def test_upper_lower_sets(f0):
    assert upper_set(f0, [h1(0), h1(1)], strict=True) == {h2(0), h2(1)}
    assert upper_set(f0, [h1(2)]) == {h1(2), h2(0)}
    assert lower_set(f0, [h2(0), h2(1)], strict=True) == \
        {MIN_ELEMENT, h1(0), h1(1)}
    assert lower_set(f0, [h2(0)]) == \
        {MIN_ELEMENT, h1(0), h1(1), h1(2), h2(0)}


def test_mub_frozen(f0):
    assert mub(f0, [h1(0), h1(1)]) == {h2(0), h2(1)}
    assert mub(f0, [h1(0), h1(2)]) == {h2(0)}
    assert mub(f0, [h1(0)]) == {h1(0)}
    assert mub(f0, [MIN_ELEMENT, h1(0)]) == {h1(0)}
    assert mub(f0, [h1(0), h1(1), h1(2)]) == {h2(0)}
    with pytest.raises(ValueError):
        mub(f0, [])


def test_mub_empty_uppers():
    f = PosetFragment(2, 2, [(0, 0), (1, 1)])
    assert mub(f, [h1(0), h1(1)]) == set()


def test_heights_and_dim(f0):
    assert height(f0, MIN_ELEMENT) == 0
    assert height(f0, h1(1)) == 1
    assert height(f0, h2(1)) == 2
    assert f0.dim() == 2
    flat = PosetFragment(2, 1, [])
    assert flat.dim() == 1
    assert PosetFragment(0, 0, []).dim() == 0


def test_longest_chain_agrees_with_dim(f0):
    assert longest_chain_length(f0) == 3
    assert longest_chain_length(PosetFragment(2, 1, [])) == 2


def test_validate(f0):
    assert validate(f0).ok
    rep = validate(PosetFragment(1, 2, [(0, 0)]))
    assert not rep.ok
    assert any("m1" in p for p in rep.problems)
    assert not validate(PosetFragment(0, 0, [])).ok
    assert rep.to_json()["ok"] is False


def test_elements(f0):
    elems = elements(f0)
    assert elems[0] == MIN_ELEMENT
    assert len(elems) == 6
    assert h1(2) in elems and h2(1) in elems


def test_relabel_round_trip(f0):
    rel, iso = relabel(f0, seed=7)
    assert iso.source is f0 and iso.target is rel
    # labels travel with the elements
    for i in range(f0.n1):
        assert rel.h1_labels[iso.h1_map[i]] == f0.h1_labels[i]
    for j in range(f0.n2):
        assert rel.h2_labels[iso.h2_map[j]] == f0.h2_labels[j]
    inv = iso.inverse()
    back, _ = relabel(rel, 0, h1_perm=inv.h1_map, h2_perm=inv.h2_map)
    assert back == f0


def test_relabel_explicit_permutation(f0):
    rel, iso = relabel(f0, 0, h1_perm=(2, 0, 1), h2_perm=(1, 0))
    assert iso.h1_map == (2, 0, 1)
    assert iso.h2_map == (1, 0)
    # incidence follows: a < d in f0, so image a (slot 2) < image d (slot 1)
    assert rel.up[2] >> 1 & 1


def test_isomap_validation(f0):
    ident = IsoMap(f0, f0, (0, 1, 2), (0, 1))
    assert is_identity(ident)
    assert iso_apply(ident, h1(2)) == h1(2)
    with pytest.raises(ValueError):
        IsoMap(f0, f0, (2, 1, 0), (0, 1))  # breaks incidence
    with pytest.raises(ValueError):
        IsoMap(f0, f0, (0, 0, 1), (0, 1))  # not a bijection
    with pytest.raises(ValueError):
        IsoMap(f0, f0, (0, 1), (0, 1))  # wrong length


def test_isomap_swap_symmetric_points(f0):
    # d and e differ only through c; swapping them is not an isomorphism,
    # swapping a and b is.
    with pytest.raises(ValueError):
        IsoMap(f0, f0, (0, 1, 2), (1, 0))
    ab = IsoMap(f0, f0, (1, 0, 2), (0, 1))
    assert not is_identity(ab)
    assert ab.h1_mask_image(0b001) == 0b010
    assert ab.h2_mask_image(0b11) == 0b11
    assert ab.inverse().h1_map == (1, 0, 2)
    as_json = ab.to_json()
    assert as_json["h1_map"] == [1, 0, 2]


def test_small_poset():
    i2 = SmallPoset.i_r(2)
    assert i2.n == 3
    assert i2.leq(0, 2) and i2.leq(1, 2) and not i2.leq(0, 1)
    closure = SmallPoset.from_pairs(3, [(0, 1), (1, 2)])
    assert closure.leq(0, 2)
    assert small_poset_isomorphic(SmallPoset.from_pairs(3, [(0, 2), (1, 2)]),
                                  i2)
    assert not small_poset_isomorphic(closure, i2)
    assert small_poset_isomorphic(SmallPoset.i_r(3),
                                  SmallPoset.from_pairs(
                                      4, [(1, 0), (2, 0), (3, 0)]))
    with pytest.raises(ValueError):
        small_poset_isomorphic(SmallPoset.i_r(13), SmallPoset.i_r(13))


@given(fragments())
@settings(max_examples=60)
def test_leq_is_partial_order(frag):
    elems = elements(frag)
    for x in elems:
        assert leq(frag, x, x)
    for x in elems:
        for y in elems:
            if leq(frag, x, y) and leq(frag, y, x):
                assert x == y
            for z in elems:
                if leq(frag, x, y) and leq(frag, y, z):
                    assert leq(frag, x, z)


@given(fragments())
@settings(max_examples=60)
def test_mub_properties(frag):
    elems = [e for e in elements(frag) if e != MIN_ELEMENT]
    if not elems:
        return
    sample = elems[: 4]
    ms = mub(frag, sample)
    for m in ms:
        assert all(leq(frag, x, m) for x in sample)
        # minimality: no other common upper strictly below m
        for other in ms:
            assert other == m or not leq(frag, other, m)


@given(fragments(), st.integers(0, 2 ** 32))
@settings(max_examples=40)
def test_relabel_seed_round_trip(frag, seed):
    rel, iso = relabel(frag, seed)
    inv = iso.inverse()
    back, _ = relabel(rel, 0, h1_perm=inv.h1_map, h2_perm=inv.h2_map)
    assert back == frag


@given(st.lists(st.integers(0, HARD_MAX_TIER - 1), max_size=80), st.data())
@settings(max_examples=200)
def test_mask_image_matches_generator_route(table, data):
    mask = data.draw(st.integers(0, (1 << len(table)) - 1))
    assert mask_image(mask, table) == mask_image_by_generators(mask, table)


@given(fragments(), st.integers(0, 2 ** 32), st.data())
@settings(max_examples=60)
def test_iso_mask_images_match_generator_route(frag, seed, data):
    _, iso = relabel(frag, seed)
    a = data.draw(st.integers(0, frag.all_h1_mask))
    b = data.draw(st.integers(0, frag.all_h2_mask))
    assert iso.h1_mask_image(a) == mask_image_by_generators(a, iso.h1_map)
    assert iso.h2_mask_image(b) == mask_image_by_generators(b, iso.h2_map)


@given(fragments(), st.data())
@settings(max_examples=200)
def test_common_sets_match_generator_route(frag, data):
    a = data.draw(st.integers(0, frag.all_h1_mask))
    b = data.draw(st.integers(0, frag.all_h2_mask))
    assert frag.common_h2_above(a) == common_h2_above_by_generators(frag, a)
    assert frag.common_h1_below(b) == common_h1_below_by_generators(frag, b)


@st.composite
def pair_lists(draw, n1: int, n2: int):
    return draw(st.lists(st.tuples(st.integers(0, n1 - 1),
                                   st.integers(0, n2 - 1)),
                         max_size=2 * n1 * n2))


@given(st.data())
@settings(max_examples=300)
def test_masks_match_pair_set_oracle(data):
    # The relation is stored only as up/down masks; identity, the file
    # writer and the IsoMap decision must agree with the literal pair set.
    n1, n2 = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    pairs = data.draw(pair_lists(n1, n2))
    frag = PosetFragment(n1, n2, pairs)
    assert fragment_to_json(frag) == pair_set_json(
        n1, n2, pairs, frag.h1_labels, frag.h2_labels)
    assert repr(frag) == (f"PosetFragment(n1={n1}, n2={n2}, "
                          f"|incidence|={len(set(pairs))})")
    other_pairs = data.draw(st.one_of(
        pair_lists(n1, n2),
        st.permutations(pairs + pairs[:2]).map(list)))
    other = PosetFragment(n1, n2, other_pairs)
    assert (frag == other) == (set(pairs) == set(other_pairs))
    if frag == other:
        assert hash(frag) == hash(other)
    h1_map = data.draw(st.permutations(range(n1)))
    h2_map = data.draw(st.permutations(range(n2)))
    target_pairs = data.draw(st.one_of(
        st.just([(h1_map[i], h2_map[j]) for i, j in pairs]),
        pair_lists(n1, n2)))
    target = PosetFragment(n1, n2, target_pairs)
    try:
        IsoMap(frag, target, tuple(h1_map), tuple(h2_map))
        accepted = True
    except ValueError as exc:
        assert str(exc) == "map does not preserve incidence"
        accepted = False
    assert accepted == pair_set_preserved(pairs, target_pairs,
                                          h1_map, h2_map)


def test_fragment_json_ignores_labels_in_eq():
    base = PosetFragment(2, 1, [(0, 0)], h1_labels=("p", "q"))
    other = PosetFragment(2, 1, [(0, 0)], h1_labels=("p", "r"))
    assert base != other


def test_min_element_constant():
    assert MIN_ELEMENT.tier is Tier.MIN
    assert ElementId(Tier.MIN, 0) == MIN_ELEMENT
