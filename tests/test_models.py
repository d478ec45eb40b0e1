import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strposet import (FragmentFormatError, GeneratorParams, PosetFragment,
                      affine_plane_fragment, check_j1, check_j2, check_j4,
                      cusp_fragment, dumps_fragment, fragment_from_json,
                      fragment_to_json, json_text, load_fragment,
                      mu_statistic, random_fragment, save_fragment, validate)

from helpers import eval_poly_label, h1, h2, make_f3, mub


# -- parameter validation -----------------------------------------------------


@pytest.mark.parametrize("kwargs,msg", [
    (dict(n1=0, n2=3), "nonempty"),
    (dict(n1=8, n2=0), "nonempty"),
    (dict(n1=8, n2=3, planted_pairs_per_point=0), "at least 1"),
    (dict(n1=8, n2=3, pairwise_cap=1), "at least 2"),
    (dict(n1=8, n2=3, generic_curves=-1), "bad generator"),
    (dict(n1=8, n2=3, min_updeg=0), "bad generator"),
    (dict(n1=8, n2=2, min_updeg=3), "min_updeg cannot exceed"),
    (dict(n1=4, n2=3, planted_pairs_per_point=3), "too small"),
    (dict(n1=600, n2=3), r"tier size exceeds cap 512 \(n1=600, n2=3\)"),
    # beside a generic curve a regular curve has at most pairwise_cap points
    (dict(n1=100, n2=75), r"planting needs 300 curve-point pairs, but 99 "
                          r"regular curves hold at most 297 \(pairwise_cap 3\)"),
    (dict(n1=512, n2=512), "planting needs 2048 curve-point pairs"),
    (dict(n1=10, n2=5, min_updeg=4), "min_updeg 4 exceeds pairwise_cap 3"),
    (dict(n1=5.0, n2=3), "n1 must be an integer, got 5.0"),
    (dict(n1=8, n2=3, seed=True), "seed must be an integer, got True"),
])
def test_generator_params_rejects(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        random_fragment(GeneratorParams(**kwargs))


def test_planting_can_be_impossible():
    # two points with min_updeg 2 force every curve through both, so no
    # pair of curves ever meets in exactly one point
    params = GeneratorParams(n1=4, n2=2, planted_pairs_per_point=2,
                             generic_curves=0)
    with pytest.raises(ValueError, match="seeded attempts"):
        random_fragment(params)


# -- planted random fragments -------------------------------------------------


@pytest.mark.parametrize("planted,n1", [(2, 10), (3, 12)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_fragment_contract(planted, n1, seed):
    params = GeneratorParams(n1=n1, n2=3, planted_pairs_per_point=planted,
                             seed=seed)
    frag = random_fragment(params)
    assert (frag.n1, frag.n2) == (n1, 3)
    assert validate(frag).ok
    assert check_j1(frag).holds
    assert check_j2(frag, 2).holds
    assert check_j4(frag, 2).holds
    for x in range(frag.n1):
        assert frag.up[x].bit_count() >= params.min_updeg
    for x, y in combinations(range(frag.n1), 2):
        assert (frag.up[x] & frag.up[y]).bit_count() <= params.pairwise_cap
    for m in range(frag.n2):
        target = 1 << m
        exact = [(x, y) for x, y in combinations(range(frag.n1), 2)
                 if frag.up[x] & frag.up[y] == target]
        assert len(exact) >= planted
        used = set()
        disjoint = 0
        for x, y in exact:
            if x not in used and y not in used:
                used.update((x, y))
                disjoint += 1
        assert disjoint >= planted


def test_random_fragment_deterministic():
    params = GeneratorParams(n1=10, n2=3, seed=7)
    assert random_fragment(params) == random_fragment(params)
    other = random_fragment(GeneratorParams(n1=10, n2=3, seed=8))
    assert other != random_fragment(params)


def test_planted_three_gives_small_mu():
    frag = random_fragment(GeneratorParams(n1=12, n2=3,
                                           planted_pairs_per_point=3, seed=0))
    for m in range(frag.n2):
        partnered = [x for x in range(frag.n1)
                     if mu_statistic(frag, x, m, 2)[0] == 3]
        assert len(partnered) >= 6   # three disjoint planted pairs


# -- affine plane fragments ---------------------------------------------------


def test_affine_21_frozen():
    frag = affine_plane_fragment(2, 1)
    assert (frag.n1, frag.n2) == (6, 4)
    assert frag.h1_labels == ("y", "x", "x+y", "1+y", "1+x", "1+x+y")
    assert frag.h2_labels == ("pt00", "pt01", "pt10", "pt11")
    got = sorted((i, j) for i in range(6) for j in range(4)
                 if frag.up[i] >> j & 1)
    assert got == [(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 3),
                   (3, 1), (3, 3), (4, 2), (4, 3), (5, 1), (5, 2)]


@pytest.mark.parametrize("p,d,n1", [(2, 1, 6), (3, 1, 12), (2, 2, 38)])
def test_affine_incidence_is_evaluation(p, d, n1):
    frag = affine_plane_fragment(p, d)
    assert frag.n1 == n1 and frag.n2 == p * p
    for i, label in enumerate(frag.h1_labels):
        zeros = 0
        for j in range(frag.n2):
            a, b = divmod(j, p)
            assert frag.h2_labels[j] == f"pt{a}{b}"
            hit = eval_poly_label(label, a, b, p) == 0
            assert bool(frag.up[i] >> j & 1) == hit
            zeros += hit
        assert zeros >= 1


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_affine_pairwise_bound(p, d):
    # distinct irreducible curves of degree <= d share at most d^2 points
    frag = affine_plane_fragment(p, d)
    worst = max(((frag.up[x] & frag.up[y]).bit_count()
                 for x, y in combinations(range(frag.n1), 2)), default=0)
    assert worst <= d * d


def test_affine_rejects_bad_inputs():
    with pytest.raises(ValueError, match="p must be one of"):
        affine_plane_fragment(4, 1)
    with pytest.raises(ValueError, match="d must be in"):
        affine_plane_fragment(3, 4)
    with pytest.raises(ValueError, match="3380 curves, more than the tier "
                                         "cap 512"):
        affine_plane_fragment(5, 2)   # curve count blows the tier cap
    # the degree <= 2 curves alone are too many: refused before the 5^10
    # coefficient vectors of degree 3 are enumerated
    with pytest.raises(ValueError, match=r"p=5, d=3 gives at least 3380 "
                       r"curves \(those of degree at most 2\), more than "
                       r"the tier cap 512"):
        affine_plane_fragment(5, 3)


# -- the cusp -----------------------------------------------------------------


def test_cusp_matches_hand_build():
    frag = cusp_fragment()
    assert frag == make_f3()
    assert mub(frag, {h1(1), h1(2)}) == frozenset({h2(0)})
    assert mub(frag, {h1(0), h1(1)}) == frozenset({h2(0), h2(1)})
    assert mub(frag, {h1(0), h1(2)}) == frozenset({h2(0), h2(2)})


# -- persistence --------------------------------------------------------------


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(-2 ** 100, 2 ** 100) | st.floats() | st.text())
_JSON_KEYS = (st.text() | st.integers() | st.floats() | st.booleans()
              | st.none())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.dictionaries(_JSON_KEYS, inner)),
    max_leaves=40)


@given(_JSON_VALUES)
@example({"\u00e9\u2603\U0001f600": [float("nan"), float("inf"),
                                      -float("inf"), -0.0, 10 ** 30]})
@example({1: [], 2.5: {}, False: (), None: [[]], "": -7})
@settings(max_examples=300)
def test_json_text_matches_stdlib_indent(value):
    assert json_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [{"a": {1, 2}}, {(1, 2): 0}, [object()]])
def test_json_text_refuses_what_the_stdlib_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        json_text(value)


def test_json_round_trip(tmp_path):
    for frag in (cusp_fragment(), affine_plane_fragment(2, 1),
                 random_fragment(GeneratorParams(n1=10, n2=3, seed=5))):
        assert fragment_from_json(fragment_to_json(frag)) == frag
        path = tmp_path / "frag.json"
        save_fragment(frag, path)
        loaded = load_fragment(path)
        assert loaded == frag
        assert loaded.h1_labels == frag.h1_labels
        assert dumps_fragment(loaded) == path.read_text(encoding="utf-8")


# sha256 of dumps_fragment, computed while fragments still stored their
# relation as a frozenset of pairs next to the masks
FRAGMENT_DIGESTS = {
    "cusp": "1406ca5b32e25a9ff0e7aae5fd0fe7163012003f78f954c80fe0cfde9bb91e9f",
    "ag21": "97a8b3bf7d16359646336b1001564a34578797ddda6aafad8e288e73ff34fc42",
    "ag32": "4937939fc33968d103777c2e86f42f47348371e3376710dff7d666fb4fbe74d3",
    "random-12x3-p3-s1":
        "dad32414653058d5a60c94ed088915f671fbe30e2f286bd45bd6e3aef0a31d0b",
    "random-30x6-s7":
        "df0c5bee7b3d50067279f5da5627be1c1c95d6bd840a1703bf38539878dcc32d",
}


@pytest.mark.parametrize("name", sorted(FRAGMENT_DIGESTS))
def test_dumps_bytes_frozen(name):
    make = {
        "cusp": cusp_fragment,
        "ag21": lambda: affine_plane_fragment(2, 1),
        "ag32": lambda: affine_plane_fragment(3, 2),
        "random-12x3-p3-s1": lambda: random_fragment(GeneratorParams(
            n1=12, n2=3, planted_pairs_per_point=3, seed=1)),
        "random-30x6-s7": lambda: random_fragment(
            GeneratorParams(n1=30, n2=6, seed=7)),
    }[name]
    text = dumps_fragment(make())
    assert hashlib.sha256(text.encode()).hexdigest() == FRAGMENT_DIGESTS[name]


def test_dumps_is_stable():
    frag = cusp_fragment()
    text = dumps_fragment(frag)
    assert text == dumps_fragment(fragment_from_json(json.loads(text)))
    assert text.endswith("\n")
    assert json.loads(text)["incidence"][0] == [0, 0]


@pytest.mark.parametrize("mangle,msg", [
    (lambda o: [], "top level must be an object"),
    (lambda o: {**o, "version": 2}, "unsupported version 2"),
    (lambda o: {**o, "n1": "3"}, "n1 and n2 must be integers"),
    pytest.param(lambda o: {**o, "n1": True}, "n1 and n2 must be integers",
                 id="bool-n1"),
    (lambda o: {**o, "incidence": 5}, "incidence must be a list"),
    (lambda o: {**o, "incidence": [[0, 0], [1]]},
     r"incidence\[1\]: expected a pair of integers"),
    (lambda o: {**o, "incidence": [[0, 0], [0, "1"]]},
     r"incidence\[1\]: expected a pair of integers"),
    pytest.param(lambda o: {**o, "incidence": [[0, 0], [True, 0]]},
                 r"incidence\[1\]: expected a pair of integers",
                 id="bool-incidence-entry"),
    (lambda o: {**o, "incidence": [[0, 0], [3, 0]]},
     r"incidence\[1\]: h1 index 3 out of range \(n1=3\)"),
    (lambda o: {**o, "incidence": [[0, 0], [0, 9]]},
     r"incidence\[1\]: h2 index 9 out of range"),
    (lambda o: {**o, "incidence": [[0, 0], [0, 1], [0, 0]]},
     r"incidence\[2\]: duplicate pair \[0, 0\]"),
    (lambda o: {**o, "labels": "nope"}, "labels must be an object"),
    (lambda o: {**o, "labels": {"h1": ["only"], "h2": None}},
     "expected 3 labels, got 1"),
    pytest.param(lambda o: {**o, "labels": {"h1": 5}},
                 "h1 labels must be null or a list of strings, got 5",
                 id="labels-int"),
    # a string is not read as its characters
    pytest.param(lambda o: {**o, "labels": {"h1": "abc"}},
                 "h1 labels must be null or a list of strings, got 'abc'",
                 id="labels-str"),
    # nor are non-strings turned into their repr
    pytest.param(lambda o: {**o, "labels": {"h2": [1, None, "n2"]}},
                 r"h2 labels must be null or a list of strings",
                 id="labels-non-str-entries"),
    pytest.param(lambda o: {**o, "labels": {"h1": [1, None]}},
                 r"h1 labels must be null or a list of strings, "
                 r"got \[1, None\]", id="labels-int-and-null"),
])
def test_loader_rejects_malformed(mangle, msg):
    base = fragment_to_json(cusp_fragment())
    with pytest.raises(FragmentFormatError, match=msg):
        fragment_from_json(mangle(base))


def test_loader_rejects_garbage_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]", encoding="utf-8")
    with pytest.raises(FragmentFormatError, match="not valid JSON"):
        load_fragment(path)


def test_loader_and_constructor_share_the_tier_cap():
    msg = r"tier size exceeds cap 512 \(n1=513, n2=1\)"
    with pytest.raises(ValueError, match=msg):
        PosetFragment(513, 1, [])
    obj = {"version": 1, "n1": 513, "n2": 1, "incidence": []}
    with pytest.raises(FragmentFormatError, match=msg):
        fragment_from_json(obj)
    obj["n1"] = 512
    assert fragment_from_json(obj).n1 == 512
