import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strposet import (GeneratorParams, affine_plane_fragment, check_j1,
                      check_j2, check_j4, check_p1_to_p4, find_j3_witness,
                      find_p5_witness, random_fragment, survey_j3, survey_p5,
                      witness_battery)

from conftest import fragments
from helpers import (brute_j3, find_special_t, find_special_t_recipe,
                     make_f0, make_f3)


# -- P conditions -------------------------------------------------------------


def test_p5_witness_frozen(f0):
    # anything above a together with the witness must stay inside T
    assert find_p5_witness(f0, 0b100, 0b11) == 0      # S={c}, T={d,e} -> a
    assert find_p5_witness(f0, 0b001, 0b01) == 2      # S={a}, T={d}   -> c
    assert find_p5_witness(f0, 0b001, 0b10) is None   # S={a}, T={e}
    assert find_p5_witness(f0, 0b010, 0b11) == 0      # S={b}, T={d,e} -> a


def test_p5_witness_validates(f0):
    with pytest.raises(ValueError):
        find_p5_witness(f0, 0, 0b01)
    with pytest.raises(ValueError):
        find_p5_witness(f0, 0b1, 0)


def test_p5_witness_contract(f0):
    # returned w really is below T and closes S's uppers into T
    w = find_p5_witness(f0, 0b100, 0b11)
    assert f0.up[w] & 0b11 == 0b11
    for s in (2,):
        assert f0.up[s] & f0.up[w] & ~0b11 == 0
    # masks reaching past the fragment, or negative, are refused
    for s_mask, t_mask in ((0b1000, 0b01), (-1, 0b01), (0b001, 0b100),
                           (0b001, -2)):
        with pytest.raises(ValueError):
            find_p5_witness(f0, s_mask, t_mask)


def test_p5_survey_cusp(f3):
    rep = survey_p5(f3, smax=1, tmax=1)
    assert not rep.holds
    failing = {(tuple(w["S"]), tuple(w["T"])) for w in rep.witnesses}
    assert (("P",), ("m",)) in failing
    assert len(failing) == 7
    assert rep.params["checked"] == 9


def test_surveys_refuse_windows_that_hold_nothing(f3):
    # no instance fits |S| <= 0 or |T| <= 0, and no K fits a cap of 1
    for smax, tmax in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="holds nothing"):
            survey_p5(f3, smax, tmax)
    for cap in (1, 0):
        with pytest.raises(ValueError, match="holds no K"):
            survey_j3(f3, cap)


def test_checks_refuse_thresholds_that_ask_nothing(f3):
    # no T fits |T| <= 0, and every curve lies below at least 0 points;
    # P3 and the battery run J2, the battery J4 as well
    for tmax in (0, -1):
        with pytest.raises(ValueError, match="holds nothing"):
            check_j4(f3, tmax)
        with pytest.raises(ValueError, match="holds nothing"):
            witness_battery(f3, j4_tmax=tmax)
    for k in (0, -2):
        for check in (check_j2, check_p1_to_p4, witness_battery):
            with pytest.raises(ValueError, match="met by every curve"):
                check(f3, k)


def test_p1_to_p4_shapes(f0):
    reports = check_p1_to_p4(f0, k=1)
    by_name = {r.condition: r for r in reports}
    assert set(by_name) == {"P1", "P2", "P3", "P4"}
    assert by_name["P1"].holds
    assert by_name["P2"].holds
    assert by_name["P3"].holds
    assert by_name["P4"].params["max_common_uppers"] == 2
    # threshold k=2 kills P3 on F0 (c has one point above)
    assert not {r.condition: r for r in check_p1_to_p4(f0, k=2)}["P3"].holds


def test_condition_report_json(f0):
    rep = check_j1(f0)
    out = rep.to_json()
    assert out["condition"] == "J1" and out["holds"] is True
    assert "bounds" in out["note"]


# -- J conditions -------------------------------------------------------------


def test_j1_j2_j4_frozen(f0, f3):
    assert check_j1(f0).holds
    assert check_j2(f0, 1).holds
    assert not check_j2(f0, 2).holds
    assert check_j2(f3, 2).holds
    assert not check_j2(f3, 3).holds
    assert check_j4(f0, 2).holds
    assert check_j4(f3, 2).holds
    no_meet = check_j4(make_f0(), 2)
    assert no_meet.holds  # {d,e} has a and b below


def test_j4_failure():
    from strposet import PosetFragment
    split = PosetFragment(2, 2, [(0, 0), (1, 1)])
    rep = check_j4(split, 2)
    assert not rep.holds
    assert {"T": ["m0", "m1"]} in rep.witnesses


def test_j3_witness_frozen(f0, f3):
    assert find_j3_witness(f0, 0, 0) == 0b101          # {a, c} pins d
    assert find_j3_witness(f0, 0, 0b100) is None       # c blocked
    assert find_j3_witness(f0, 1, 0) is None           # nothing pins e
    assert find_j3_witness(f3, 0, 0) == 0b110          # {y1, y2} pins m
    assert find_j3_witness(f3, 1, 0) is None
    assert find_j3_witness(f3, 0, 0b010) is None       # y1 blocked


def test_j3_witness_validates(f0):
    with pytest.raises(ValueError):
        find_j3_witness(f0, 5, 0)


def test_j3_survey(f0, f3):
    rep = survey_j3(f0)
    assert not rep.holds
    assert {"m": "e"} in rep.witnesses
    rep3 = survey_j3(f3)
    assert {"m": "n1"} in rep3.witnesses and {"m": "n2"} in rep3.witnesses


@given(fragments(max_n1=5, max_n2=3), st.integers(0, 2), st.integers(0, 31))
@settings(max_examples=60)
def test_j3_against_literal_enumeration(frag, m, f_mask):
    if m >= frag.n2:
        return
    f_mask &= frag.all_h1_mask
    got = find_j3_witness(frag, m, f_mask, size_cap=4)
    expected = brute_j3(frag, m, f_mask, cap=4)
    # the literal route may return a singleton-free answer in a different
    # order; agreement on existence is the contract, and on the witness
    # masks both must pin m exactly
    assert (got is None) == (expected is None)
    if got is not None:
        assert got & f_mask == 0
        assert frag.common_h2_above(got) == 1 << m


# -- special T and the battery ------------------------------------------------


def test_find_special_t_frozen(f0):
    assert find_special_t(f0, 0b011, 0b01) == 2   # S={a,b}, T={d} -> c
    assert find_special_t(f0, 0b111, 0b01) is None
    assert find_special_t(f0, 0b100, 0b10) in (0, 1)
    for s_mask, t_mask in ((0, 0b1), (0b1000, 0b01), (0b001, 0b100)):
        with pytest.raises(ValueError):
            find_special_t(f0, s_mask, t_mask)


@given(fragments(max_n1=5, max_n2=3), st.integers(1, 31), st.integers(1, 7))
@settings(max_examples=80)
def test_find_special_t_routes_agree(frag, s_mask, t_mask):
    s_mask &= frag.all_h1_mask
    t_mask &= frag.all_h2_mask
    if not s_mask or not t_mask:
        return
    got = find_special_t(frag, s_mask, t_mask)
    if got is not None:
        assert not s_mask >> got & 1
        assert t_mask & ~frag.up[got] == 0
    recipe = find_special_t_recipe(frag, s_mask, t_mask)
    if recipe is not None:
        # a recipe result is a valid witness, and the direct scan finds one
        assert not s_mask >> recipe & 1
        assert t_mask & ~frag.up[recipe] == 0
        assert got is not None


def test_battery_f0(f0):
    rep = witness_battery(f0)
    assert not rep.passed
    assert any("J2" in r for r in rep.reasons)
    assert any("J3" in r for r in rep.reasons)
    out = rep.to_json()
    assert out["passed"] is False


def test_battery_cusp(f3):
    rep = witness_battery(f3)
    assert not rep.passed
    # the cusp satisfies J2 and J4; only the pair stability fails
    assert all("J2" not in r for r in rep.reasons)
    assert rep.j3_failures


def test_battery_affine():
    assert not witness_battery(affine_plane_fragment(2, 1)).passed
    assert witness_battery(affine_plane_fragment(3, 1)).passed


def test_battery_planted():
    strong = random_fragment(GeneratorParams(
        n1=12, n2=3, planted_pairs_per_point=3, seed=0))
    assert witness_battery(strong).passed
    weak = random_fragment(GeneratorParams(
        n1=10, n2=3, planted_pairs_per_point=2, seed=0))
    rep = witness_battery(weak)
    if not rep.passed:
        assert rep.reasons


def test_battery_meaning(f3):
    # a battery pass must guarantee J3 witnesses avoiding any F of size 2
    strong = random_fragment(GeneratorParams(
        n1=12, n2=3, planted_pairs_per_point=3, seed=1))
    assert witness_battery(strong).passed
    from itertools import combinations
    from strposet import mask_of
    for m in range(strong.n2):
        for f_pair in combinations(range(strong.n1), 2):
            assert find_j3_witness(strong, m, mask_of(f_pair)) is not None
