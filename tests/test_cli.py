import hashlib
import json
import time

import pytest

from strposet import (DomainSpec, GeneratorParams, IsoMap, PosetFragment,
                      StrIso, affine_plane_fragment, build_rho,
                      corrupt_str_iso, cusp_fragment, dumps_fragment,
                      finite_node, induce_str_iso, json_text, load_fragment,
                      random_fragment, relabel, round_trip, save_fragment,
                      witness_battery)
from strposet.cli import main

from helpers import restrict_support, spell_trace


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fragment and map files shared by the verb tests."""
    d = tmp_path_factory.mktemp("cli")
    frags = {
        "f0": PosetFragment(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)],
                            ["a", "b", "c"], ["d", "e"]),
        "f3": cusp_fragment(),
        "ag21": affine_plane_fragment(2, 1),
        "ag22": affine_plane_fragment(2, 2),
        "ag32": affine_plane_fragment(3, 2),
        "p3": random_fragment(GeneratorParams(
            n1=12, n2=3, planted_pairs_per_point=3, seed=1)),
        # gen --model random --n1 12 --n2 3 --seed 0
        "r12": random_fragment(GeneratorParams(n1=12, n2=3, seed=0)),
    }
    paths = {}
    for name, frag in frags.items():
        paths[name] = str(d / f"{name}.json")
        save_fragment(frag, paths[name])

    relabeled, rho = relabel(frags["p3"], seed=7)
    paths["p3y"] = str(d / "p3y.json")
    save_fragment(relabeled, paths["p3y"])
    phi = induce_str_iso(rho)
    paths["map"] = str(d / "map.json")
    with open(paths["map"], "w", encoding="utf-8") as fh:
        json.dump(phi.to_json(), fh)
    paths["map_bad"] = str(d / "map_bad.json")
    with open(paths["map_bad"], "w", encoding="utf-8") as fh:
        json.dump(corrupt_str_iso(phi, seed=0).to_json(), fh)
    paths["map_rays"] = str(d / "map_rays.json")
    with open(paths["map_rays"], "w", encoding="utf-8") as fh:
        json.dump(induce_str_iso(rho, DomainSpec(include_rays=True)).to_json(),
                  fh)
    paths["dir"] = d
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# -- gen ----------------------------------------------------------------------


def test_gen_cusp_stdout(capsys):
    code, out, err = run(capsys, "gen", "--model", "cusp")
    assert code == 0 and err == ""
    assert out == dumps_fragment(cusp_fragment())


def test_gen_writes_file(capsys, files):
    target = str(files["dir"] / "gen.json")
    code, out, _ = run(capsys, "gen", "--model", "cusp", "-o", target)
    assert code == 0 and out == ""
    with open(target, encoding="utf-8") as fh:
        assert fh.read() == dumps_fragment(cusp_fragment())


def test_gen_affine(capsys):
    code, out, _ = run(capsys, "gen", "--model", "affine", "-p", "3", "-d", "1")
    assert code == 0
    assert out == dumps_fragment(affine_plane_fragment(3, 1))


def test_gen_random_deterministic(capsys):
    argv = ("gen", "--model", "random", "--n1", "10", "--n2", "3",
            "--seed", "5")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv)[1] == first
    assert run(capsys, *argv[:-1], "6")[1] != first


def test_gen_config_file_with_flag_override(capsys, files):
    cfg = str(files["dir"] / "params.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"n1": 10, "n2": 3, "seed": 0}, fh)
    _, from_cfg, _ = run(capsys, "gen", "--model", "random",
                         "--config", cfg, "--seed", "5")
    _, from_flags, _ = run(capsys, "gen", "--model", "random",
                           "--n1", "10", "--n2", "3", "--seed", "5")
    assert from_cfg == from_flags


@pytest.mark.parametrize("argv,fragment_of_err", [
    (("gen", "--model", "random", "--n2", "3"), "needs --n1"),
    (("gen", "--model", "random", "--n1", "4", "--n2", "3",
      "--planted", "3"), "too small"),
    (("gen", "--model", "affine", "-p", "7"), "p must be one of"),
    (("gen", "--model", "random", "--config", "/nonexistent.json",
      "--n1", "8", "--n2", "3"), "/nonexistent.json"),
    (("gen", "--model", "affine", "-p", "5", "-d", "3"),
     "at least 3380 curves"),
    (("gen", "--model", "random", "--n1", "4000", "--n2", "4000"),
     "tier size exceeds cap 512 (n1=4000, n2=4000)"),
    (("gen", "--model", "random", "--n1", "512", "--n2", "512"),
     "planting needs 2048 curve-point pairs"),
    (("gen", "--model", "random", "--n1", "10", "--n2", "5",
      "--min-updeg", "4"), "min_updeg 4 exceeds pairwise_cap 3"),
    # a --config value written as JSON text is saved to config.json first
    (("gen", "--model", "random", "--config", "[1, 2]"),
     "config.json: parameters must be an object, got [1, 2]"),
    (("gen", "--model", "random", "--config", '{"n1": "a", "n2": 3}'),
     "config.json: n1 must be an integer, got 'a'"),
    (("gen", "--model", "random", "--config", '{"n1": 5.5, "n2": 3}'),
     "config.json: n1 must be an integer, got 5.5"),
    (("gen", "--model", "random", "--config",
      '{"n1": 10, "n2": 3, "planted_pairs_per_point": 1e400}'),
     "config.json: planted_pairs_per_point must be an integer, got inf"),
    (("gen", "--model", "random", "--config",
      '{"n1": 10, "n2": 3, "seed": true}'),
     "config.json: seed must be an integer, got True"),
    (("gen", "--model", "random", "--config",
      '{"n1": 10, "n2": 3, "bogus": 1}'),
     "config.json: unknown generator parameter 'bogus'"),
    # refusals of a config's values name the file too
    (("gen", "--model", "random", "--config", '{"n2": 3}'),
     "config.json: random model needs --n1"),
    (("gen", "--model", "random", "--config",
      '{"n1": 4, "n2": 3, "planted_pairs_per_point": 3}'),
     "config.json: n1 too small"),
])
def test_gen_rejects(capsys, tmp_path, argv, fragment_of_err):
    argv = list(argv)
    if "--config" in argv and argv[argv.index("--config") + 1][0] in "[{":
        k = argv.index("--config") + 1
        (tmp_path / "config.json").write_text(argv[k], encoding="utf-8")
        argv[k] = str(tmp_path / "config.json")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and fragment_of_err in err


# -- check --------------------------------------------------------------------


def test_check_cusp_passes_with_survey_failures(capsys, files):
    code, data = run_json(capsys, "check", files["f3"])
    assert code == 0 and data["ok"] is True
    assert data["structure"]["ok"] is True
    assert {"S": ["P"], "T": ["m"]} in data["p5_survey"]["witnesses"]
    assert data["battery"]["passed"] is False
    names = {c["condition"]: c["holds"] for c in data["conditions"]}
    assert names["J1"] and names["J2"] and names["P1"]


def test_check_threshold_sensitivity(capsys, files):
    # two curves of F0 meet in two points, so the pair threshold fails
    code, data = run_json(capsys, "check", files["f0"])
    assert code == 1 and data["ok"] is False
    code, data = run_json(capsys, "check", files["f0"], "--k", "1")
    assert code == 0 and data["ok"] is True


@pytest.mark.parametrize("flags,cause", [
    (["--smax", "0"], "P5 window smax=0, tmax=1 holds nothing"),
    (["--tmax", "0"], "P5 window smax=1, tmax=0 holds nothing"),
    (["--j3-cap", "1"], "J3 size cap 1 holds no K of 2+ curves"),
    (["--j4-tmax", "0"], "J4 window tmax=0 holds nothing"),
    (["--j4-tmax", "-1"], "J4 window tmax=-1 holds nothing"),
    (["--k", "0"], "J2 threshold k=0 is met by every curve"),
    (["--k", "-2"], "J2 threshold k=-2 is met by every curve"),
])
def test_check_refuses_windows_that_hold_nothing(capsys, files, flags,
                                                 cause):
    code, out, err = run(capsys, "check", files["f3"], *flags)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and cause in err


def test_check_bad_inputs(capsys, files):
    code, _, err = run(capsys, "check", "/no/such/file.json")
    assert code == 3 and "no such file" in err
    garbage = str(files["dir"] / "garbage.json")
    with open(garbage, "w", encoding="utf-8") as fh:
        fh.write("{]")
    code, _, err = run(capsys, "check", garbage)
    assert code == 3 and "not valid JSON" in err


def test_deeply_nested_json_exits_3(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "dot", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}: not valid JSON: maximum recursion")


def test_path_errors_exit_3(capsys, files):
    # any OSError on an input or output path is a parse failure naming it
    folder = str(files["dir"])
    code, out, err = run(capsys, "check", folder)
    assert code == 3 and out == ""
    assert err == f"error: {folder}: Is a directory\n"
    target = str(files["dir"] / "missing" / "x.json")
    code, out, err = run(capsys, "fiber", files["f0"], "--b", "d",
                         "-o", target)
    assert code == 3 and out == ""
    assert err == f"error: {target}: No such file or directory\n"


# -- fiber, mu, str-leq ---------------------------------------------------------


def test_fiber_json(capsys, files):
    code, data = run_json(capsys, "fiber", files["f0"], "--b", "d,e")
    assert code == 0
    assert len(data["nodes"]) == 6
    assert data["node_labels"][0] == "(a|d,e)"


def test_fiber_support_and_amax(capsys, files):
    code, data = run_json(capsys, "fiber", files["f0"], "--b", "d",
                          "--support", "a,b", "--amax", "1")
    assert code == 0
    assert data["node_labels"] == ["(a|d)", "(b|d)"]


def test_fiber_dot(capsys, files):
    code, out, _ = run(capsys, "fiber", files["f3"], "--b", "m", "--dot")
    assert code == 0
    assert 'n0 [label="(P|m)"];' in out
    assert 'n1 -> n5 [label="{y1,y2}"];' in out
    code, plain, _ = run(capsys, "fiber", files["f3"], "--b", "m", "--dot",
                         "--no-via")
    assert "label=\"{" not in plain and "n1 -> n5;" in plain


def test_fiber_default_amax_names_itself(capsys, files):
    # no --amax given: the default, the support's 273 curves, is over the cap
    code, out, err = run(capsys, "fiber", files["ag32"], "--b", "pt00")
    assert (code, out) == (3, "")
    assert err == ("error: --amax defaults to the support's size, 273, over "
                   "the cap of 16; give --amax\n")
    code, out, err = run(capsys, "fiber", files["ag32"], "--b", "pt00",
                         "--amax", "17")
    assert (code, out) == (3, "") and "amax must be in 1..16" in err


def test_fiber_rejects_bad_labels(capsys, files):
    code, _, err = run(capsys, "fiber", files["f0"], "--b", "z")
    assert code == 3 and "z" in err
    code, _, err = run(capsys, "fiber", files["f0"], "--b", "d,,e")
    assert code == 3 and "empty label" in err


def test_mu(capsys, files):
    code, data = run_json(capsys, "mu", files["f3"], "--x", "P", "--m", "m")
    assert code == 0
    assert data == {"version": 1, "x": "P", "m": "m", "amax": 4,
                    "mu": 7, "ge4": True}
    code, data = run_json(capsys, "mu", files["f3"], "--x", "P", "--m", "m",
                          "--amax", "2")
    assert code == 0 and data["mu"] == "infinity"
    code, _, err = run(capsys, "mu", files["f3"], "--x", "nope", "--m", "m")
    assert code == 3 and "nope" in err


def test_mu_without_any_k_tries_no_candidate(capsys, files):
    # every curve lies below both points, so no K has m0 as its only common
    # point; the search stops at once instead of trying ~5.5e10 subsets
    twin = str(files["dir"] / "twin_points.json")
    save_fragment(PosetFragment(40, 2, [(i, j) for i in range(40)
                                        for j in range(2)]), twin)
    code, data = run_json(capsys, "mu", twin, "--x", "x0", "--m", "m0",
                          "--amax", "16")
    assert code == 0 and data["mu"] == "infinity"


def test_str_leq(capsys, files):
    code, data = run_json(capsys, "str-leq", files["f0"],
                          "--lhs", "a|d,e", "--rhs", "a,b|d,e")
    assert code == 0
    assert data["holds"] is True and data["witness"] == ["a", "b"]
    code, data = run_json(capsys, "str-leq", files["f0"],
                          "--lhs", "a|d,e", "--rhs", "a|d,e")
    assert code == 0 and data["witness"] is None
    code, data = run_json(capsys, "str-leq", files["f0"],
                          "--lhs", "a,b|d,e", "--rhs", "a|d,e")
    assert code == 1 and data["holds"] is False


@pytest.mark.parametrize("node,msg", [
    ("a,b", "must look like"),
    ("a|d|e", "must look like"),
    ("z|d", "z"),
    ("c|e", "not a member pair"),
    ("|d", "empty label"),
])
def test_str_leq_rejects_bad_nodes(capsys, files, node, msg):
    code, _, err = run(capsys, "str-leq", files["f0"],
                       "--lhs", node, "--rhs", "a,b|d")
    assert code == 3 and msg in err


def test_ambiguous_label_is_a_parse_error(capsys, files):
    twins = str(files["dir"] / "twins.json")
    save_fragment(PosetFragment(2, 1, [(0, 0), (1, 0)], ["w", "w"], ["m"]),
                  twins)
    code, _, err = run(capsys, "str-leq", twins, "--lhs", "w|m",
                       "--rhs", "w|m")
    assert code == 3 and "w" in err


# -- reconstruct ----------------------------------------------------------------


def test_reconstruct_honest_map(capsys, files):
    code, data = run_json(capsys, "reconstruct", files["p3"], files["p3y"],
                          "--map", files["map"])
    assert code == 0 and data["recovered"] is True
    # labels travel with the hidden relabeling, so both maps read as identity
    assert all(k == v for k, v in data["rho1"].items())
    assert all(k == v for k, v in data["rho2"].items())
    assert data["probes"] > 0
    assert data["factorization"]["clean"] is True
    assert data["trace"]["conflicts"] == []


# The report bytes before the trace listed each pair once (trace version 1):
# checked on the report with its trace spelled out per curve again.
def test_reconstruct_output_bytes_frozen(capsys, files):
    # the whole report, trace evidence included, byte for byte
    code, out, err = run(capsys, "reconstruct", files["p3"], files["p3y"],
                         "--map", files["map"])
    assert code == 0 and err == ""
    assert digest(json_text(spell_trace(json.loads(out)))) == (
        "292875500c6e1466164128d8d1df5d3cd48df2337c60a22cadd52d9a5965e064")


@pytest.mark.parametrize("map_file,rc,sha256", [
    ("map_bad", 1,      # conflicts, the error and its trace
     "bd59047664a9ad6cef56b654d0b3d62925e1afe55ae3e050653eb224c269fc28"),
    ("map_rays", 0,     # the curve map read off the rays
     "7eb2911caca6a33d3e36303c508201bc96d36dc15e312e4f96e2c2038dcf04bf"),
], ids=["map_bad", "map_rays"])
def test_reconstruct_conflict_and_ray_bytes_frozen(capsys, files, map_file,
                                                   rc, sha256):
    code, out, err = run(capsys, "reconstruct", files["p3"], files["p3y"],
                         "--map", files[map_file])
    assert code == rc and err == ""
    assert digest(json_text(spell_trace(json.loads(out)))) == sha256


@pytest.mark.parametrize("map_file,rc,sha256", [
    ("map", 0,
     "42ff1c512d0aca6bc77e5f7540df9890ecd3bcad2354dfa73f0c9f23d79836d5"),
    ("map_bad", 1,
     "2178f9c63b01706be8dee8142098cedd77c42ecc8813446867963a334dea9df5"),
    ("map_rays", 0,
     "0233ccecd8b0b2fa519bc20e57aa5aafa0f42ef453c5fcd3e642b932e45e9421"),
], ids=["map", "map_bad", "map_rays"])
def test_reconstruct_report_bytes_frozen(capsys, files, map_file, rc,
                                         sha256):
    # the report as printed, its trace at version 2
    code, out, err = run(capsys, "reconstruct", files["p3"], files["p3y"],
                         "--map", files[map_file])
    assert code == rc and err == ""
    assert digest(out) == sha256


def test_k_set_stop_rule_moves_only_traces_and_probes(capsys, files):
    # digests taken while every K-set up to k_cap was cited: a curve that
    # stops at its smallest pinning K-sets changes the trace and the probe
    # count, and no other byte of a recovered run's report
    code, out, _ = run(capsys, "reconstruct", files["p3"], files["p3y"],
                       "--map", files["map"])
    report = json.loads(out)
    del report["trace"], report["probes"]
    assert code == 0 and digest(json_text(report)) == (
        "b7534808f8c9ada45d08e0de8d147946b3a61e665e2cd681effd1aa2b564f14e")
    code, out, _ = run(capsys, "roundtrip", files["p3"], "--seed", "3")
    report = json.loads(out)
    del report["probes"]
    assert code == 0 and digest(json_text(report)) == (
        "9d042af7fa141c4653701130dc7083d0565ab3a86b9ed1d448c2a730a1abb35f")


def clean_probes(phi: StrIso, trace: dict) -> int:
    """A clean run's probes: one witness per nonempty singleton fiber, the
    (curve, K-set or ray) pairs rho1 cites and every node checked once."""
    fibers = {node.b_mask for node in phi.table
              if not node.is_ray and node.b_mask.bit_count() == 1}
    cited = sum(len(entry["evidence"]) for entry in trace["rho1"].values())
    return len(fibers) + cited + len(phi.table)


def test_one_witness_per_fiber_moves_only_probes(capsys, files):
    # a digest taken while rho2 looked up every node of each singleton
    # fiber: reading one witness per fiber changes the probe count and no
    # other byte of a clean run's report, its trace included (the
    # roundtrip report without probes is pinned by the test above)
    code, out, _ = run(capsys, "reconstruct", files["p3"], files["p3y"],
                       "--map", files["map"])
    report = json.loads(out)
    del report["probes"]
    assert code == 0 and digest(json_text(report)) == (
        "5e81c6fa30a7225552e4cf0158abc560d5ba201eeb3fb46118c28614cb0e8f8f")
    fx, fy = load_fragment(files["p3"]), load_fragment(files["p3y"])
    for map_file in ("map", "map_rays"):
        code, out, _ = run(capsys, "reconstruct", files["p3"], files["p3y"],
                           "--map", files[map_file])
        report = json.loads(out)
        with open(files[map_file], encoding="utf-8") as fh:
            phi = StrIso.from_json(fx, fy, json.load(fh))
        assert code == 0
        assert report["probes"] == clean_probes(phi, report["trace"])
    code, out, _ = run(capsys, "roundtrip", files["p3"], "--seed", "3")
    phi = induce_str_iso(relabel(fx, 3)[1])
    trace = build_rho(phi, 3, False)[1].to_json()
    assert code == 0
    assert json.loads(out)["probes"] == clean_probes(phi, trace)


@pytest.mark.parametrize("map_file", ["map", "map_bad", "map_rays"])
def test_reconstruct_trace_lists_each_pair_once(capsys, files, map_file):
    code, data = run_json(capsys, "reconstruct", files["p3"], files["p3y"],
                          "--map", files[map_file])
    trace = data["trace"]
    assert trace["version"] == 2
    pairs = [json.dumps(pair) for pair in trace["evidence"]]
    assert pairs and len(set(pairs)) == len(pairs)
    cited = [i for entry in trace["rho1"].values()
             for i in entry["evidence"]]
    assert all(type(i) is int and 0 <= i < len(pairs) for i in cited)
    if code == 0:
        assert set(cited) == set(range(len(pairs)))


def test_reconstruct_size_cap_beyond_the_map_changes_nothing(capsys, files):
    # no K-set larger than the map's first ordinates is ever tried
    ag21 = load_fragment(files["ag21"])
    relabeled, rho = relabel(ag21, seed=3)
    target = str(files["dir"] / "ag21y.json")
    save_fragment(relabeled, target)
    k2 = str(files["dir"] / "ag21_k2.json")
    with open(k2, "w", encoding="utf-8") as fh:
        json.dump(induce_str_iso(rho, DomainSpec(k_cap=2)).to_json(), fh)
    outs = {run(capsys, "reconstruct", files["ag21"], target, "--map", k2,
                "--k-cap", cap) for cap in ("2", "4", "8")}
    assert len(outs) == 1
    (code, out, err), = outs
    assert code == 0 and err == "" and json.loads(out)["recovered"] is True


def cusp_ray7_pairs() -> list:
    """The identity map of the cusp with rays, its ray-0 nodes retagged as
    the ray of curve 7 (the cusp has three) on both sides."""
    cusp = cusp_fragment()
    identity = IsoMap(cusp, cusp, tuple(range(cusp.n1)),
                      tuple(range(cusp.n2)))
    pairs = induce_str_iso(identity,
                           DomainSpec(include_rays=True)).to_json()["pairs"]
    for node in (node for pair in pairs for node in pair):
        if node["ray"] == 0:
            node["ray"] = 7
    return pairs


def test_reconstruct_corrupt_map(capsys, files, tmp_path):
    code, data = run_json(capsys, "reconstruct", files["p3"], files["p3y"],
                          "--map", files["map_bad"])
    assert code == 1 and data["recovered"] is False
    assert data["conflicts"]
    # swapped away from the fiber witnesses, the damage reaches the
    # assembled map: the same error shape, one conflict per swapped node
    fx = load_fragment(files["p3"])
    swapped = corrupt_str_iso(induce_str_iso(relabel(fx, 7)[1]), seed=1)
    path = tmp_path / "map_swapped.json"
    path.write_text(json.dumps(swapped.to_json()), encoding="utf-8")
    code, data = run_json(capsys, "reconstruct", files["p3"], files["p3y"],
                          "--map", str(path))
    assert code == 1 and list(data) == ["version", "recovered", "error",
                                        "conflicts", "probes", "trace"]
    assert data["recovered"] is False
    assert [c["kind"] for c in data["conflicts"]] == [
        "factorization-violation"] * 2


def test_reconstruct_rejects_bad_map_files(capsys, files):
    bad = str(files["dir"] / "notjson.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("][")
    code, _, err = run(capsys, "reconstruct", files["p3"], files["p3y"],
                       "--map", bad)
    assert code == 3 and "notjson.json" in err
    versioned = str(files["dir"] / "v7.json")
    with open(versioned, "w", encoding="utf-8") as fh:
        json.dump({"version": 7}, fh)
    code, _, err = run(capsys, "reconstruct", files["p3"], files["p3y"],
                       "--map", versioned)
    assert code == 3 and "unsupported map file" in err


@pytest.mark.parametrize("doc,named", [
    ({"version": 1}, "pairs must be a list"),
    ({"version": 1, "pairs": [[{"b": [0]}, {"a": [0], "b": [0]}]]},
     "node ordinate 'a'"),
    ({"version": 1, "pairs": [[{"a": [0], "b": [0]}, {"a": [0]}]]},
     "node ordinate 'b'"),
])
def test_reconstruct_names_missing_map_keys(capsys, files, tmp_path, doc,
                                            named):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "reconstruct", files["ag21"], files["ag21"],
                         "--map", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}: ") and named in err


def test_reconstruct_reports_truncated_map_domain(capsys, files):
    rho = relabel(load_fragment(files["p3"]), seed=7)[1]
    phi = restrict_support(induce_str_iso(rho, DomainSpec(k_cap=3)), 2)
    capped = str(files["dir"] / "map_capped.json")
    with open(capped, "w", encoding="utf-8") as fh:
        json.dump(phi.to_json(), fh)
    code, data = run_json(capsys, "reconstruct", files["p3"], files["p3y"],
                          "--map", capped)
    assert code == 1 and data["recovered"] is False
    assert data["error"] == "conflicting evidence; see trace"
    assert {"kind": "no-k-set", "x": "x2"} in data["conflicts"]
    assert data["conflicts"] == data["trace"]["conflicts"]


def test_reconstruct_rejects_nonmember_images(capsys, files):
    f0 = load_fragment(files["f0"])
    table = {finite_node(0b001, 0b01): finite_node(0b100, 0b10)}
    broken = str(files["dir"] / "broken_map.json")
    with open(broken, "w", encoding="utf-8") as fh:
        json.dump(StrIso(f0, f0, table).to_json(), fh)
    code, _, err = run(capsys, "reconstruct", files["f0"], files["f0"],
                       "--map", broken)
    assert code == 3 and "not a member pair" in err


# -- roundtrip ------------------------------------------------------------------


def test_roundtrip_runs_where_the_battery_fails(capsys, files):
    # f0 fails the witness battery; the run itself says why it cannot recover
    assert not witness_battery(load_fragment(files["f0"])).passed
    code, data = run_json(capsys, "roundtrip", files["f0"])
    assert code == 1 and data["recovered"] is False
    assert data["probes"] > 0
    assert any(c["kind"] == "rho1-ambiguous" for c in data["conflicts"])


def test_roundtrip_weak_battery_still_ambiguous(capsys, files):
    code, data = run_json(capsys, "roundtrip", files["f3"])
    assert code == 1 and data["recovered"] is False
    assert any(c["kind"] == "rho1-ambiguous" for c in data["conflicts"])


def test_roundtrip_prints_the_result_alone(capsys, files):
    code, data = run_json(capsys, "roundtrip", files["f3"])
    assert list(data) == ["version", "recovered", "conflicts", "probes"]
    assert data == round_trip(load_fragment(files["f3"]), 0).to_json()


def test_roundtrip_keeps_the_reason_it_stopped(capsys, files):
    # two disjoint curves: no K-set exists, and each curve says so
    disjoint = str(files["dir"] / "disjoint.json")
    save_fragment(PosetFragment(2, 2, [(0, 0), (1, 1)]), disjoint)
    code, data = run_json(capsys, "roundtrip", disjoint)
    assert code == 1 and data["recovered"] is False
    assert data["conflicts"] == [{"kind": "no-k-set", "x": "x0"},
                                 {"kind": "no-k-set", "x": "x1"}]


def test_roundtrip_weak_battery_can_recover(capsys, files):
    for name in ("ag21", "ag22"):
        assert not witness_battery(load_fragment(files[name])).passed
        for flags in ([], ["--with-rays"]):
            code, data = run_json(capsys, "roundtrip", files[name], *flags)
            assert code == 0 and data["recovered"] is True, (name, flags)


def test_roundtrip_battery_passer_can_fail_at_k_cap_2(capsys, files):
    # the battery ignores k_cap: the generic curve x11 lies below every
    # point, so no K-set of two curves holds it
    assert witness_battery(load_fragment(files["r12"])).passed
    code, data = run_json(capsys, "roundtrip", files["r12"], "--k-cap", "2")
    assert code == 1 and data["recovered"] is False
    assert {"kind": "no-k-set", "x": "x11"} in data["conflicts"]
    code, data = run_json(capsys, "roundtrip", files["r12"], "--k-cap", "3")
    assert code == 0 and data["recovered"] is True


def test_roundtrip_rays_resolve_f0(capsys, files):
    code, data = run_json(capsys, "roundtrip", files["f0"], "--with-rays")
    assert code == 0 and data["recovered"] is True


def test_roundtrip_planted(capsys, files):
    code, data = run_json(capsys, "roundtrip", files["p3"], "--seed", "3")
    assert code == 0 and data["recovered"] is True and data["probes"] > 0


def earlier_run(fixture: str, report: dict, cut: bool) -> dict:
    """A roundtrip report as the verb printed it while it gated on the
    witness battery: "error" after "recovered" on a failed run and the whole
    battery last.  ``cut`` drops "error" and keeps the battery's "passed"
    and "reasons"."""
    battery = witness_battery(load_fragment(fixture)).to_json()
    if cut:
        return {**report, "battery": {key: battery[key]
                                      for key in ("passed", "reasons")}}
    error = ({} if report["recovered"]
             else {"error": "conflicting evidence; see trace"})
    return {"version": report["version"], "recovered": report["recovered"],
            **error, "conflicts": report["conflicts"],
            "probes": report["probes"], "battery": battery}


# The bytes before the verb dropped the battery, checked through the cut
# projection of ``earlier_run``.  The f0 row was a refusal then; it is the
# run that --allow-weak-battery gave.
@pytest.mark.parametrize("fixture,flags,rc,sha256", [
    ("p3", ["--seed", "3"], 0,
     "f09da098ec066a6a30f6e77eb688c71f83a295a5e6818e98613edd53cac0327a"),
    ("p3", ["--corrupt"], 1,
     "90539176b8203f0238a55402bb2e1a2b7bff9f54f3d785149f30b9174e796cae"),
    ("f0", [], 1,
     "fa41e9483cc81721934814022c2da91702cd4d4b6565e738daa084e4c4737ac9"),
], ids=["p3-seed-3", "p3-corrupt", "f0"])
def test_roundtrip_output_bytes_frozen(capsys, files, fixture, flags, rc,
                                       sha256):
    code, out, err = run(capsys, "roundtrip", files[fixture], *flags)
    assert code == rc and err == ""
    earlier = earlier_run(files[fixture], json.loads(out), cut=True)
    assert digest(json_text(earlier)) == sha256


@pytest.mark.parametrize("flags,rc,sha256", [
    (["--seed", "3"], 0,
     "7d8ca97b49db1e9379f9056e54970327b12f817f3e39be212a28486c3cd0997c"),
    (["--corrupt"], 1,
     "14f5e3717c8b83f5744c2d13ac0132883b8687db75b09dae09d67bb6dd0b33e9"),
], ids=["seed-3", "corrupt"])
def test_roundtrip_run_bytes_frozen(capsys, files, flags, rc, sha256):
    # a run as the verb printed it with the error and the whole battery
    code, out, err = run(capsys, "roundtrip", files["p3"], *flags)
    assert code == rc and err == ""
    earlier = earlier_run(files["p3"], json.loads(out), cut=False)
    assert digest(json_text(earlier)) == sha256


@pytest.mark.parametrize("flags,rc,sha256", [
    (["--seed", "3"], 0,
     "9277983c94c020575a13277b4d49e7ec94aacbbaefc8e80ad240aa8d96abe871"),
    (["--corrupt"], 1,
     "cccfba94ab96664c4588e111856db3cc58263da62ee7c75122856f7e540441d1"),
], ids=["seed-3", "corrupt"])
def test_roundtrip_report_bytes_frozen(capsys, files, flags, rc, sha256):
    # the report as printed: the round-trip result alone
    code, out, err = run(capsys, "roundtrip", files["p3"], *flags)
    assert code == rc and err == ""
    assert digest(out) == sha256
    # the hidden no-op flag changes no byte
    assert run(capsys, "roundtrip", files["p3"], *flags,
               "--allow-weak-battery") == (code, out, err)


def test_roundtrip_never_runs_the_battery(capsys, files, monkeypatch):
    import strposet.cli
    import strposet.conditions
    import strposet.reconstruction
    real = strposet.conditions.witness_battery
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (strposet.cli, strposet.conditions, strposet.reconstruction):
        monkeypatch.setattr(module, "witness_battery", counting,
                            raising=False)
    for name in ("p3", "f0"):
        code, _ = run_json(capsys, "roundtrip", files[name])
        assert code in (0, 1)
    assert calls == []


def test_roundtrip_corrupt(capsys, files):
    code, data = run_json(capsys, "roundtrip", files["p3"], "--corrupt")
    assert code == 1 and data["recovered"] is False
    assert data["conflicts"]


# -- dot and plumbing -----------------------------------------------------------


def test_dot_frozen(capsys, files):
    code, out, _ = run(capsys, "dot", files["f0"])
    assert code == 0
    assert out == """digraph fragment {
  rankdir=BT;
  n0 [label="Min"];
  n1 [label="a"];
  n2 [label="b"];
  n3 [label="c"];
  n4 [label="d"];
  n5 [label="e"];
  n0 -> n1;
  n0 -> n2;
  n0 -> n3;
  n1 -> n4;
  n1 -> n5;
  n2 -> n4;
  n2 -> n5;
  n3 -> n4;
}
"""


def test_dot_keeps_elements_with_equal_labels_apart(capsys, tmp_path):
    # the minimum, the curve "Min" and the curve and point "u" are four
    # drawn nodes joined by three covers: ids are positions, not labels
    path = tmp_path / "repeated.json"
    save_fragment(PosetFragment(2, 1, [(0, 0)], ["Min", "u"], ["u"]),
                  str(path))
    code, out, _ = run(capsys, "dot", str(path))
    assert code == 0
    assert out == """digraph fragment {
  rankdir=BT;
  n0 [label="Min"];
  n1 [label="Min"];
  n2 [label="u"];
  n3 [label="u"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n3;
}
"""


def test_dot_refuses_non_string_labels(capsys, tmp_path):
    doc = json.loads(dumps_fragment(cusp_fragment()))
    path = tmp_path / "labels5.json"
    path.write_text(json.dumps({**doc, "labels": {"h1": 5}}),
                    encoding="utf-8")
    code, out, err = run(capsys, "dot", str(path))
    assert (code, out) == (3, "")
    assert err == (f"error: {path}: h1 labels must be null or a list of "
                   "strings, got 5\n")


def test_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    path = tmp_path / "quoted.json"
    save_fragment(PosetFragment(2, 1, [(0, 0), (1, 0)], ['a"b', "c\\"],
                                ["m"]), str(path))
    code, out, _ = run(capsys, "dot", str(path))
    assert code == 0
    assert out == r"""digraph fragment {
  rankdir=BT;
  n0 [label="Min"];
  n1 [label="a\"b"];
  n2 [label="c\\"];
  n3 [label="m"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n3;
  n2 -> n3;
}
"""
    code, out, _ = run(capsys, "fiber", str(path), "--b", "m", "--dot")
    assert code == 0
    assert out == r"""digraph strfiber {
  rankdir=BT;
  n0 [label="(a\"b|m)"];
  n1 [label="(c\\|m)"];
  n2 [label="(a\"b,c\\|m)"];
  n0 -> n2 [label="{a\"b,c\\}"];
  n1 -> n2 [label="{a\"b,c\\}"];
}
"""


def test_output_file_matches_stdout(capsys, files):
    _, out, _ = run(capsys, "check", files["f3"])
    target = str(files["dir"] / "check.json")
    run(capsys, "check", files["f3"], "-o", target)
    with open(target, encoding="utf-8") as fh:
        assert fh.read() == out


@pytest.mark.parametrize("argv", [
    ["mu", "{ag21}", "--x", "x", "--m", "pt00", "--amax", "1"],
    ["roundtrip", "{one_point}", "--corrupt"],
    ["roundtrip", "{bare_curve}", "--with-rays"],
    ["roundtrip", "{ag21}", "--k-cap", "0"],
    ["roundtrip", "{ag21}", "--k-cap", "0", "--with-rays"],
    ["roundtrip", "{ag21}", "--k-cap", "1"],
    ["roundtrip", "{ag32}", "--k-cap", "4"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{curve7_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{string_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{bool_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{index512_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{scalar_pairs_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{curve7_domain_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{repeated_node_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{no_pairs_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{no_a_map}"],
    ["reconstruct", "{ag21}", "{ag21}", "--map", "{no_b_map}"],
    ["reconstruct", "{f3}", "{f3}", "--map", "{ray7_map}"],
])
def test_library_value_errors_exit_3(capsys, files, tmp_path, argv):
    save_fragment(PosetFragment(2, 1, [(0, 0), (1, 0)]),
                  tmp_path / "one_point.json")
    save_fragment(PosetFragment(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
                  tmp_path / "bare_curve.json")
    node = {"a": [7], "b": [0], "ray": None}
    valid = {"a": [0], "b": [0], "ray": None}
    maps = {"curve7_map": [[node, node]],
            "string_map": [[{"a": "zz", "b": [0]}, valid]],
            "bool_map": [[{"a": [True], "b": [0]}, valid]],
            "index512_map": [[{"a": [512], "b": [0]}, valid]],
            "scalar_pairs_map": [5],
            "curve7_domain_map": [[node, valid]],
            "repeated_node_map": [[valid, valid],
                                  [valid, {"a": [1], "b": [0], "ray": None}]],
            "no_pairs_map": None,
            "no_a_map": [[{"b": [0]}, valid]],
            "no_b_map": [[valid, {"a": [0]}]],
            "ray7_map": cusp_ray7_pairs()}
    for name, pairs in maps.items():
        doc = {"version": 1} if pairs is None else {"version": 1,
                                                    "pairs": pairs}
        with open(tmp_path / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("one_point", "bare_curve", *maps)}
    code, out, err = run(capsys, *[a.format(ag21=files["ag21"],
                                            ag32=files["ag32"],
                                            f3=files["f3"], **paths)
                                   for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_roundtrip_k_cap_refusals_name_the_cause(capsys, files):
    code, _, err = run(capsys, "roundtrip", files["ag21"], "--k-cap", "1")
    assert code == 3 and "K-sets have at least two curves" in err
    code, _, err = run(capsys, "roundtrip", files["ag21"], "--k-cap", "0",
                       "--with-rays")
    assert code == 3 and "every fiber needs a node" in err
    code, data = run_json(capsys, "roundtrip", files["ag21"], "--k-cap", "1",
                          "--with-rays")
    assert code == 0 and data["recovered"] is True
    # reconstruct refuses a psi-path cap below 2 with the same cause
    for cap, extra in (("1", ["--psi-only"]), ("0", ["--psi-only"]),
                       ("-3", ["--psi-only"]), ("1", [])):
        code, out, err = run(capsys, "reconstruct", files["p3"], files["p3y"],
                             "--map", files["map"], "--k-cap", cap, *extra)
        assert code == 3 and out == ""
        assert "K-sets have at least two curves" in err
    # a map that carries rays needs no K-set
    code, data = run_json(capsys, "reconstruct", files["p3"], files["p3y"],
                          "--map", files["map_rays"], "--k-cap", "1")
    assert code == 0 and data["recovered"] is True


def test_roundtrip_refuses_oversized_domain_before_building_it(capsys,
                                                                files):
    start = time.perf_counter()
    code, _, err = run(capsys, "roundtrip", files["ag32"], "--k-cap", "4")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "14262660 nodes, over the cap of 1000000" in err


def test_usage_errors_exit_2(capsys, files):
    for argv in ([], ["frobnicate"], ["fiber", files["f0"]]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()
