"""The CLI's input boundary under Hypothesis.

Fragment files (``dot``), node map files (``reconstruct`` on cusp x cusp)
and generator configs (``gen --model random --config``) are built from
arbitrary JSON values and from valid files with one field replaced or
removed.  ``cli.main`` runs in-process on each: it must exit 0, 1 or 3
without letting an exception escape, and every exit 3 must be reported as
``error: <path>: ...``.  Sizes stay small (tiers of at most 8, maps of at
most 20 pairs, config integers of at most 24) so each test takes seconds.
"""

import contextlib
import copy
import io
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strposet import (GeneratorParams, IsoMap, cusp_fragment,
                      fragment_to_json, induce_str_iso, save_fragment)
from strposet.cli import main

from conftest import fragments

PARAM_NAMES = [f.name for f in fields(GeneratorParams)]
KEYS = ["version", "n1", "n2", "incidence", "labels", "h1", "h2", "pairs",
        "a", "b", "ray", *PARAM_NAMES]


def json_values(max_int: int):
    """Any JSON value, with integers in -2..max_int and the keys the three
    file formats use among the object keys."""
    scalars = (st.none() | st.booleans() | st.integers(-2, max_int)
               | st.floats(allow_nan=False) | st.text(max_size=3))
    keys = st.sampled_from(KEYS) | st.text(max_size=3)
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(keys, inner, max_size=4)),
        max_leaves=12)


def _positions(doc, at=()):
    """Every position below the root of a JSON document, as key paths."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _positions(value, at + (key,))


@st.composite
def one_field_changed(draw, base: dict, max_int: int):
    """``base`` with the value at one position replaced, or its key
    dropped when the position is in an object."""
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_positions(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values(max_int))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_fragment(cusp_fragment(), d / "cusp.json")
    return d


def run_on(workdir, doc, *argv) -> None:
    """Write ``doc`` to a file, run the verb whose argv holds ``{path}`` for
    it, and check the exit code and the form of a refusal."""
    path = str(workdir / "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(path=path, cusp=workdir / "cusp.json")
                     for a in argv])
    assert code in (0, 1, 3), (code, err.getvalue())
    if code == 3:
        assert err.getvalue().startswith(f"error: {path}: "), err.getvalue()
        assert out.getvalue() == ""


# -- fragment files ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(doc=json_values(8))
def test_dot_on_any_json_value(workdir, doc):
    run_on(workdir, doc, "dot", "{path}")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), fragment=fragments(max_n1=8, max_n2=8))
def test_dot_on_fragment_with_one_field_changed(workdir, data, fragment):
    doc = data.draw(one_field_changed(fragment_to_json(fragment), 8))
    run_on(workdir, doc, "dot", "{path}")


# -- node map files ------------------------------------------------------------


CUSP = cusp_fragment()
# the identity and the automorphism swapping y1, y2 together with n1, n2
CUSP_MAPS = [induce_str_iso(IsoMap(CUSP, CUSP, h1, h2)).to_json()
             for h1, h2 in (((0, 1, 2), (0, 1, 2)), ((0, 2, 1), (0, 2, 1)))]


@settings(max_examples=100, deadline=None)
@given(doc=json_values(8)
       | st.builds(lambda pairs: {"version": 1, "pairs": pairs},
                   st.lists(json_values(8), max_size=20)))
def test_reconstruct_on_any_json_value(workdir, doc):
    run_on(workdir, doc, "reconstruct", "{cusp}", "{cusp}", "--map",
           "{path}")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), base=st.sampled_from(CUSP_MAPS))
def test_reconstruct_on_map_with_one_field_changed(workdir, data, base):
    assert len(base["pairs"]) <= 20
    doc = data.draw(one_field_changed(base, 8))
    run_on(workdir, doc, "reconstruct", "{cusp}", "{cusp}", "--map",
           "{path}")


# -- generator configs ---------------------------------------------------------


VALID_CONFIG = {"n1": 10, "n2": 3, "min_updeg": 2,
                "planted_pairs_per_point": 2, "generic_curves": 1,
                "pairwise_cap": 3, "seed": 0}


@settings(max_examples=100, deadline=None)
@given(doc=json_values(24)
       | st.dictionaries(st.sampled_from(PARAM_NAMES), st.integers(-2, 24)))
def test_gen_on_any_json_value(workdir, doc):
    run_on(workdir, doc, "gen", "--model", "random", "--config", "{path}")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gen_on_config_with_one_field_changed(workdir, data):
    doc = data.draw(one_field_changed(VALID_CONFIG, 24))
    run_on(workdir, doc, "gen", "--model", "random", "--config", "{path}")
