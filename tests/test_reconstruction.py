import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strposet import (DomainSpec, GeneratorParams, IsoMap, PosetFragment,
                      ReconstructionError, StrIso, StrNode, affine_plane_fragment,
                      build_rho, corrupt_str_iso, dumps_fragment,
                      finite_node, format_node, induce_str_iso, json_text,
                      random_fragment, ray_node, relabel, rho1_from_psi,
                      rho1_from_rays, rho2_from_phi, round_trip,
                      verify_factorization, witness_battery)
from strposet import reconstruction
from strposet.reconstruction import MAX_DOMAIN_NODES, domain_size

from conftest import fragments
from helpers import (brute_k_sets, census_fragments, enumerate_domain,
                     extend_psi_to_phi, induce_str_iso_by_domain, k_sets,
                     restrict_support, rho1_from_psi_by_curve,
                     rho2_from_phi_by_node, separated, trace_v1, unmap,
                     validate_all_pairs, verify_factorization_by_node)


def identity_iso(frag):
    return IsoMap(frag, frag, tuple(range(frag.n1)), tuple(range(frag.n2)))


@pytest.fixture
def planted3():
    return random_fragment(GeneratorParams(n1=12, n2=3,
                                           planted_pairs_per_point=3, seed=1))


# -- domain enumeration -------------------------------------------------------


def test_enumerate_domain_sizes(f0):
    finite = enumerate_domain(f0, DomainSpec(k_cap=3))
    assert len(finite) == 10          # 7 subsets below d, 3 below e
    assert len(set(finite)) == 10
    with_rays = enumerate_domain(f0, DomainSpec(k_cap=3, include_rays=True))
    assert len(with_rays) == 13
    assert sum(n.is_ray for n in with_rays) == 3


def test_enumerate_domain_caps(f0):
    small = enumerate_domain(f0, DomainSpec(k_cap=1))
    assert all(n.a_mask.bit_count() == 1 for n in small)
    assert len(small) == 5


@given(fragments(max_n1=6, max_n2=3), st.integers(-1, 7), st.booleans())
@settings(max_examples=150, deadline=None)
def test_domain_size_counts_the_enumeration(frag, k_cap, rays):
    assume(not rays or all(frag.up))
    spec = DomainSpec(k_cap=k_cap, include_rays=rays)
    nodes = enumerate_domain(frag, spec)
    assert domain_size(frag, spec) == len(nodes)
    assert induce_str_iso(relabel(frag, 0)[1], spec).domain == nodes


def test_domain_size_of_affine_plane_3_2():
    ag32 = affine_plane_fragment(3, 2)
    assert domain_size(ag32, DomainSpec(k_cap=2)) == 28440
    assert domain_size(ag32, DomainSpec(k_cap=3)) == 740151
    assert domain_size(ag32, DomainSpec(k_cap=4)) == 14262660
    assert domain_size(ag32, DomainSpec(k_cap=2, include_rays=True)) == \
        28440 + 273


def test_induce_refuses_oversized_domains():
    ag32 = affine_plane_fragment(3, 2)
    rho = relabel(ag32, 1)[1]
    with pytest.raises(ValueError, match=f"14262660 nodes, over the cap of "
                                         f"{MAX_DOMAIN_NODES} "
                                         r"\(a round trip would need about "
                                         r"5372 MiB\); lower k_cap"):
        induce_str_iso(rho, DomainSpec(k_cap=4))
    with pytest.raises(ValueError, match="14262660 nodes"):
        round_trip(ag32, 1, k_cap=4)


# -- the node-map carrier -----------------------------------------------------


def test_striso_probes_and_json(f0):
    phi = induce_str_iso(identity_iso(f0), DomainSpec(include_rays=True))
    assert phi.probes == 0
    node = phi.domain[0]
    assert phi.map(node) == node
    assert unmap(phi, node) == node
    assert phi.probes == 2
    phi.probes = 0
    assert phi.probes == 0
    copy = StrIso.from_json(f0, f0, phi.to_json())
    assert {n: copy.map(n) for n in copy.domain} == \
        {n: phi.map(n) for n in phi.domain}
    with pytest.raises(ValueError, match="unsupported map file"):
        StrIso.from_json(f0, f0, {"version": 7})


def test_validate_counts_two_probes_per_entry(planted3):
    # the node pass reads each entry once and counts its lookup and inverse
    phi = induce_str_iso(relabel(planted3, 2)[1],
                         DomainSpec(include_rays=True))
    for audited in (phi, corrupt_str_iso(phi, 0), shuffle_images(phi, 0)):
        for order_check in (False, True):
            audited.probes = 5
            audited.validate(order_check)
            assert audited.probes == 5 + 2 * len(audited.table)
    assert StrIso.from_json(planted3, phi.fragment_y,
                            phi.to_json()).probes == 0


def test_striso_stores_only_its_table(f0):
    phi = induce_str_iso(identity_iso(f0), DomainSpec(include_rays=True))
    assert not hasattr(phi, "__dict__")
    assert phi.domain == list(phi.table)
    phi.table.pop(phi.domain[0])
    assert phi.domain == list(phi.table)


def test_striso_json_bytes_frozen(ag21):
    # sha256 computed while StrIso kept forward and inverse tables plus
    # domain and codomain lists
    target, rho = relabel(ag21, 3)
    assert hashlib.sha256(dumps_fragment(target).encode()).hexdigest() == \
        "9b27496bc839ad1900992ba16b24a63c170c49858c855cdee62a64cb6c2a03b5"
    phi = induce_str_iso(rho, DomainSpec(include_rays=True))
    assert hashlib.sha256(json_text(phi.to_json()).encode()).hexdigest() == \
        "bc8db7bf8ee72c6d03b86b9031e3db86587be4621cc72773ffc86add2529ea7a"


def test_striso_from_json_refuses_repeated_domain_nodes(f0):
    node = {"a": [0], "b": [0], "ray": None}
    pairs = [[node, node], [node, {"a": [1], "b": [0], "ray": None}]]
    with pytest.raises(ValueError, match=r"domain node StrNode\(a_mask=1, "
                                         r"b_mask=1, ray_of=None\) is "
                                         r"listed twice"):
        StrIso.from_json(f0, f0, {"version": 1, "pairs": pairs})


def test_striso_validate_clean(f0):
    phi = induce_str_iso(identity_iso(f0), DomainSpec(include_rays=True))
    assert phi.validate() == []


def test_striso_validate_catches_duplicates(f0):
    a = finite_node(0b001, 0b01)
    b = finite_node(0b010, 0b01)
    phi = StrIso(f0, f0, {a: a, b: a})
    problems = phi.validate(order_check=False)
    assert any("repeated" in p for p in problems)
    assert unmap(phi, a) == b                # the last node mapped to a


def test_striso_validate_catches_nonmember_image(f0):
    a = finite_node(0b001, 0b01)
    bad = StrIso(f0, f0, {a: finite_node(0b100, 0b10)})
    problems = bad.validate(order_check=False)
    assert any("not a member pair" in p for p in problems)


def test_striso_validate_catches_order_damage(f0):
    phi = corrupt_str_iso(induce_str_iso(identity_iso(f0)), seed=0)
    assert phi.validate(order_check=False) == []
    assert any("order mismatch" in p for p in phi.validate())


def test_striso_validate_reports_nonmember_domain_nodes(ag21):
    image = finite_node(0b1, 0b1)            # (y | pt00)
    outside = (finite_node(0b1, 0b10),       # y misses pt01
               finite_node(0, 0b1),          # empty first ordinate
               finite_node(1 << 7, 0b1),     # no curve 7 on ag(2,1)
               finite_node(-1, 0b1))
    for node in outside:
        phi = StrIso(ag21, ag21, {node: image})
        for order_check in (False, True):
            assert phi.validate(order_check) == [
                f"domain node {node} is not a member pair"]


def test_striso_validate_refuses_foreign_ray_nodes(f3):
    # a ray tag that names no curve (7) or another curve (1) than the node's
    phi = induce_str_iso(identity_iso(f3), DomainSpec(include_rays=True))
    ray = ray_node(f3, 0)
    for tag in (7, 1):
        bad = ray._replace(ray_of=tag)
        as_node = StrIso(f3, f3, {bad if n == ray else n: img
                                  for n, img in phi.table.items()})
        as_image = StrIso(f3, f3, {**phi.table, ray: bad})
        assert as_node.validate(order_check=False) == [
            f"domain node {bad} is not the ray node of its curve"]
        assert as_image.validate(order_check=False) == [
            f"image {bad} of {ray} is not the ray node of its curve"]
        for broken in (as_node, as_image):
            with pytest.raises(ValueError, match="not the ray node"):
                StrIso.from_json(f3, f3, broken.to_json())


def shuffle_images(phi, seed):
    """The same domain and codomain under a random bijection."""
    images = [phi.map(n) for n in phi.domain]
    random.Random(seed).shuffle(images)
    return StrIso(phi.fragment_x, phi.fragment_y,
                  dict(zip(phi.domain, images)))


@given(fragments(max_n1=5, max_n2=3), st.integers(0, 10 ** 6),
       st.integers(1, 3), st.booleans(),
       st.sampled_from(["honest", "corrupt", "shuffled"]))
@settings(max_examples=150, deadline=None)
def test_validate_matches_all_pairs(frag, seed, k_cap, rays, damage):
    # with rays, a curve through a single point gives a ray and a finite
    # node with the same masks
    assume(not rays or all(frag.up))
    phi = induce_str_iso(relabel(frag, seed)[1],
                         DomainSpec(k_cap=k_cap, include_rays=rays))
    if damage == "corrupt":
        try:
            phi = corrupt_str_iso(phi, seed)
        except ValueError:
            assume(False)
    elif damage == "shuffled":
        phi = shuffle_images(phi, seed)
    assert phi.validate() == validate_all_pairs(phi)


def test_validate_cut_off_matches_all_pairs(planted3):
    shuffled = shuffle_images(induce_str_iso(identity_iso(planted3)), 0)
    problems = shuffled.validate()
    assert len(problems) == 21
    assert problems == validate_all_pairs(shuffled)


def test_validate_wide_first_ordinate():
    # 2^60 subsets under the upper node: the two distinct first ordinates
    # are scanned instead
    wide = PosetFragment(60, 1, [(i, 0) for i in range(60)])
    nodes = [finite_node(1, 1), finite_node((1 << 60) - 1, 1)]
    phi = StrIso(wide, wide, {n: n for n in nodes})
    assert phi.validate() == []
    swapped = StrIso(wide, wide, dict(zip(nodes, nodes[::-1])))
    assert len(swapped.validate()) == 2


def test_validate_affine_plane_3_2():
    ag32 = affine_plane_fragment(3, 2)
    phi = induce_str_iso(relabel(ag32, seed=1)[1], DomainSpec(k_cap=2))
    assert len(phi.domain) == 28440
    assert phi.validate() == []


def test_corrupt_needs_two_fibers():
    lonely = PosetFragment(1, 1, [(0, 0)])
    phi = induce_str_iso(identity_iso(lonely), DomainSpec(k_cap=1))
    with pytest.raises(ValueError, match="different fibers"):
        corrupt_str_iso(phi)


def test_corrupt_swaps_exactly_two(f0):
    phi = induce_str_iso(identity_iso(f0))
    bad = corrupt_str_iso(phi, seed=3)
    moved = [n for n in phi.domain if bad.map(n) != phi.map(n)]
    assert len(moved) == 2
    assert moved[0].b_mask != moved[1].b_mask
    assert sorted(bad.map(n).masks() for n in bad.domain) == \
        sorted(phi.map(n).masks() for n in phi.domain)


# -- point map ----------------------------------------------------------------


def test_rho2_exact(f0):
    rho = relabel(f0, seed=11)[1]
    rho2, trace = rho2_from_phi(induce_str_iso(rho))
    assert rho2 == {j: rho.h2_map[j] for j in range(f0.n2)}
    assert not trace.conflicts
    assert set(trace.rho2_table) == {0, 1}
    assert "witness" in trace.rho2_table[0]


def test_rho2_records_nonmember_images(f0):
    table = {finite_node(0b001, 0b01): finite_node(0b100, 0b10),
             finite_node(0b001, 0b10): finite_node(0b001, 0b10)}
    rho2, trace = rho2_from_phi(StrIso(f0, f0, table))
    assert 0 not in rho2
    assert trace.conflicts[0]["kind"] == "image-not-member"
    assert trace.conflicts[0]["m"] == "d"


def test_rho2_records_images_outside_fragment_y(f0):
    # curve 5 and point 3 are not in f0: a conflict, not a ValueError
    table = {finite_node(0b001, 0b01): finite_node(0b100000, 0b01),
             finite_node(0b001, 0b10): finite_node(0b001, 0b1000)}
    rho2, trace = rho2_from_phi(StrIso(f0, f0, table))
    assert rho2 == {}
    assert [(c["kind"], c["m"]) for c in trace.conflicts] == [
        ("image-not-member", "d"), ("image-not-member", "e")]


def test_factorization_reports_images_outside_fragment_y(f0):
    # neither stage reads the second node over point d, so build_rho
    # assembles the identity; its factorization check reports the damaged
    # image, pulling back only the curve and point that f0 has, and raises
    phi = induce_str_iso(identity_iso(f0), DomainSpec(include_rays=True))
    node = finite_node(0b010, 0b01)
    assert reconstruction._singleton_fibers(phi)[0][1] == node
    table = dict(phi.table)
    table[node] = finite_node(0b100010, 0b1001)
    bad = StrIso(f0, f0, table)
    with pytest.raises(ReconstructionError, match="conflicting evidence") \
            as err:
        build_rho(bad)
    violations = [
        {"kind": "factorization-violation", "node": node.to_json(),
         "image": table[node].to_json(), "expected": node.to_json(),
         "a_star": [1], "b_star": [0]}]
    assert err.value.trace.conflicts == violations
    assert verify_factorization(bad, identity_iso(f0)) == violations
    assert verify_factorization_by_node(bad, identity_iso(f0)) == violations


def test_rho2_requires_every_fiber(f0):
    phi = StrIso(f0, f0, {finite_node(0b001, 0b01): finite_node(0b001, 0b01)})
    rho2, trace = rho2_from_phi(phi)
    assert rho2 == {0: 0}
    assert trace.conflicts == [{"kind": "empty-fiber", "m": "e"}]
    with pytest.raises(ReconstructionError, match="conflicting evidence") \
            as err:
        build_rho(phi)
    assert err.value.trace.conflicts[0] == {"kind": "empty-fiber", "m": "e"}


# -- curve map ----------------------------------------------------------------


def test_k_sets_frozen(f0):
    def fmt(x):
        return [format_node(f0, n) for n in k_sets(f0, x)]
    assert fmt(0) == ["(a,c|d)", "(a,b,c|d)"]
    assert fmt(1) == ["(b,c|d)", "(a,b,c|d)"]
    assert fmt(2) == ["(a,c|d)", "(b,c|d)", "(a,b,c|d)"]
    assert [format_node(f0, n) for n in k_sets(f0, 0, size_cap=2)] == \
        ["(a,c|d)"]
    with pytest.raises(ValueError):
        k_sets(f0, 5)


def test_k_sets_are_k_sets(f3, planted3):
    for frag in (f3, planted3):
        for x in range(frag.n1):
            for node in k_sets(frag, x):
                assert node.a_mask >> x & 1
                assert node.b_mask.bit_count() == 1
                assert frag.common_h2_above(node.a_mask) == node.b_mask


@given(fragments(max_n1=5, max_n2=3), st.integers(0, 4))
@settings(max_examples=60)
def test_k_sets_against_literal_enumeration(frag, x):
    if x >= frag.n1:
        return
    for cap in (2, 3):
        assert k_sets(frag, x, cap) == brute_k_sets(frag, x, cap)


def test_rho1_ambiguity_on_symmetric_curves(f0):
    psi = induce_str_iso(identity_iso(f0))
    rho1, trace = rho1_from_psi(psi)
    assert rho1 == {2: 2}             # only c is pinned down
    ambiguous = {c["x"]: c["intersection"] for c in trace.conflicts
                 if c["kind"] == "rho1-ambiguous"}
    assert ambiguous == {"a": ["a", "c"], "b": ["b", "c"]}
    assert trace.rho1_table[0]["image"] is None
    assert trace.rho1_table[2]["evidence"]


def test_rho1_needs_k_sets():
    lonely = PosetFragment(1, 1, [(0, 0)], h1_labels=["solo"])
    psi = induce_str_iso(identity_iso(lonely), DomainSpec(k_cap=1))
    rho1, trace = rho1_from_psi(psi)
    assert rho1 == {} and trace.rho1_table == {}
    assert trace.conflicts == [{"kind": "no-k-set", "x": "solo"}]


def test_rho1_rejects_truncated_domain_cleanly(planted3):
    # support cap of 2 drops most K-sets from the tabulated domain; the
    # uncovered ones must not leak out as a raw lookup failure, and every
    # curve that keeps no K-set is named
    psi = restrict_support(induce_str_iso(identity_iso(planted3)), 2)
    rho1, trace = rho1_from_psi(psi)
    bare = [c["x"] for c in trace.conflicts if c["kind"] == "no-k-set"]
    assert bare and all(planted3.resolve_h1_label(x) not in rho1
                        for x in bare)
    assert len(bare) + len(trace.rho1_table) == planted3.n1


def test_rho1_flags_broken_k_set_images(f0):
    psi = corrupt_str_iso(induce_str_iso(identity_iso(f0)), seed=1)
    _, trace = rho1_from_psi(psi)
    assert trace.conflicts


def test_rho1_from_rays(f3):
    rho = relabel(f3, seed=5)[1]
    phi = induce_str_iso(rho, DomainSpec(include_rays=True))
    rho1, trace = rho1_from_rays(phi)
    assert rho1 == {i: rho.h1_map[i] for i in range(f3.n1)}
    assert not trace.conflicts


def test_rho1_from_rays_requires_rays(f3):
    # curve 1 of the second fragment lies below no point, so it has no ray
    # node: a conflict as well, not a ValueError from ray_node
    for frag in (f3, PosetFragment(2, 1, [(0, 0)])):
        rho1, trace = rho1_from_rays(induce_str_iso(identity_iso(frag)))
        assert rho1 == {} and trace.evidence == trace.images == []
        assert trace.conflicts == [{"kind": "ray-not-in-domain", "x": label}
                                   for label in frag.h1_labels]


def test_rho1_flags_nonray_images(f0):
    phi = induce_str_iso(identity_iso(f0), DomainSpec(include_rays=True))
    table = {n: phi.map(n) for n in phi.domain}
    ray = ray_node(f0, 0)
    # reroute one ray onto the mask-identical finite node
    table[ray] = finite_node(0b001, 0b11)
    rho1, trace = rho1_from_rays(StrIso(f0, f0, table))
    assert 0 not in rho1
    assert trace.conflicts[0]["kind"] == "ray-image-not-ray"


# -- assembly and verification ------------------------------------------------


def test_build_rho_prefers_rays(f0):
    rho = relabel(f0, seed=9)[1]
    phi = induce_str_iso(rho, DomainSpec(include_rays=True))
    got, trace = build_rho(phi)
    assert got.h1_map == rho.h1_map and got.h2_map == rho.h2_map
    # evidence shape betrays the route taken
    assert all(len(e["evidence"]) == 1 for e in trace.rho1_table.values())
    # without rays the same fragment is ambiguous
    with pytest.raises(ReconstructionError, match="conflicting evidence"):
        build_rho(induce_str_iso(rho))


def test_build_rho_falls_back_without_full_rays(planted3):
    rho = relabel(planted3, seed=2)[1]
    got, _ = build_rho(induce_str_iso(rho))
    assert got.h1_map == rho.h1_map and got.h2_map == rho.h2_map


def test_build_rho_reads_rays_only_when_every_ray_is_a_key(planted3):
    # the ray route needs ray_node(x) as a key for every curve x; one
    # missing ray sends build_rho to the K-sets, and either way it agrees
    # with the oracle stages
    rho = relabel(planted3, seed=2)[1]
    phi = induce_str_iso(rho, DomainSpec(include_rays=True))
    missing = StrIso(planted3, rho.target,
                     {n: img for n, img in phi.table.items()
                      if n != ray_node(planted3, 4)})
    for psi, ray_route in ((phi, True), (missing, False)):
        def copy():
            return StrIso(psi.fragment_x, psi.fragment_y, psi.table)

        got, trace = build_rho(copy())
        assert got == rho
        assert all(node.is_ray is ray_route for node in trace.evidence)
        fast = route_outcome(build_rho, copy())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruction, "rho2_from_phi",
                          rho2_from_phi_by_node)
            patch.setattr(reconstruction, "rho1_from_psi",
                          rho1_from_psi_by_curve)
            assert fast == route_outcome(build_rho, copy())


def test_build_rho_passes_a_bogus_ray_tag_to_the_k_sets(planted3):
    # a key tagged as the ray of curve 4 that is not ray_node(4), in a map
    # that skipped validation, does not count as that ray: the K-sets
    # assemble the hidden map, the bogus key is the one node it does not
    # factor, and validate and from_json refuse the tag
    rho = relabel(planted3, seed=2)[1]
    phi = induce_str_iso(rho, DomainSpec(include_rays=True))
    ray = ray_node(planted3, 4)
    bogus = ray._replace(a_mask=planted3.all_h1_mask)
    table = {bogus if n == ray else n: img for n, img in phi.table.items()}
    assert {n.ray_of for n in table} - {None} == set(range(planted3.n1))
    tagged = StrIso(planted3, rho.target, table)
    with pytest.raises(ReconstructionError, match="conflicting evidence") \
            as err:
        build_rho(tagged)
    trace = err.value.trace
    assert trace.conflicts == verify_factorization(tagged, rho)
    assert [c["node"] for c in trace.conflicts] == [bogus.to_json()]
    assert not any(n.is_ray for n in trace.evidence)
    assert tagged.validate(order_check=False) == [
        f"domain node {bogus} is not the ray node of its curve"]
    with pytest.raises(ValueError, match="not the ray node"):
        StrIso.from_json(planted3, rho.target, tagged.to_json())


def test_build_rho_reports_incidence_violation(f0):
    # swap two curve images under a non-automorphism: a and c have
    # different degrees, so the assembled map cannot respect incidence
    phi = induce_str_iso(identity_iso(f0), DomainSpec(include_rays=True))
    table = {n: phi.map(n) for n in phi.domain}
    table[ray_node(f0, 0)] = ray_node(f0, 2)
    table[ray_node(f0, 2)] = ray_node(f0, 0)
    with pytest.raises(ReconstructionError) as err:
        build_rho(StrIso(f0, f0, table))
    assert err.value.trace.conflicts[-1]["kind"] == "incidence-violation"


@pytest.mark.parametrize("corrupt", [False, True])
def test_build_rho_keeps_the_point_map_when_rho1_raises(planted3, corrupt):
    # two curves per point leave curve x2 without K-sets in the domain, so
    # the curve map fails there; build_rho's trace holds both stages whole
    phi = restrict_support(induce_str_iso(relabel(planted3, seed=7)[1]), 2)
    if corrupt:
        phi = corrupt_str_iso(phi, seed=0)
    _, t2 = rho2_from_phi(phi)
    _, t1 = rho1_from_psi(phi)
    assert corrupt or not t2.conflicts
    assert {"kind": "no-k-set", "x": "x2"} in t1.conflicts
    with pytest.raises(ReconstructionError, match="conflicting evidence") \
            as err:
        build_rho(phi)
    trace = err.value.trace
    assert len(trace.rho2_table) == planted3.n2
    assert trace.rho2_table == t2.rho2_table
    assert trace.conflicts == t2.conflicts + t1.conflicts
    assert trace.rho1_table == t1.rho1_table
    assert trace.evidence == t1.evidence and trace.images == t1.images


def test_build_rho_allocates_a_small_share_of_the_table():
    # both stages walk the table's own keys and cite its own node objects,
    # and the trace keeps a K-set as two list slots, no tuple, so the affine
    # job's map (28,440 nodes) costs build_rho an eighth of the table at
    # most, and what it keeps is under 40 bytes per K-set; traced bytes,
    # unlike RSS, do not depend on the host
    rho = relabel(affine_plane_fragment(3, 2), 1)[1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phi = induce_str_iso(rho, DomainSpec(k_cap=2))
        table = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        iso, trace = build_rho(phi, 2, False)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iso == rho
    extra, kept = peak - before, kept - before
    assert extra < table / 8, (extra, table)
    assert kept < 40 * len(trace.evidence), (kept, len(trace.evidence))


def test_verify_factorization_clean(f3):
    rho = relabel(f3, seed=4)[1]
    phi = induce_str_iso(rho, DomainSpec(include_rays=True))
    assert verify_factorization(phi, rho) == []
    assert phi.probes == len(phi.table)


def test_verify_factorization_catches_damage(f0):
    phi = corrupt_str_iso(induce_str_iso(identity_iso(f0)), seed=0)
    violations = verify_factorization(phi, identity_iso(f0))
    assert len(violations) == 2
    assert list(violations[0]) == ["kind", "node", "image", "expected",
                                   "a_star", "b_star"]
    assert {v["kind"] for v in violations} == {"factorization-violation"}


# -- fiber-wise routes against the node-by-node oracles -----------------------


def route_outcome(route, psi, *args):
    """Everything a reconstruction route shows: the map and trace bytes, or
    ``build_rho``'s error and the trace it carries, plus the probes spent.
    The trace is compared spelled out, since the node-by-node route lists a
    K-set once per curve where the fast route lists it once."""
    try:
        rho, trace = route(psi, *args)
    except ReconstructionError as exc:
        return ("error", str(exc), json_text(trace_v1(exc.trace.to_json())),
                psi.probes)
    if isinstance(rho, IsoMap):
        rho = rho.to_json()
    return rho, json_text(trace_v1(trace.to_json())), psi.probes


def built_trace(phi, size_cap, prefer_rays):
    """``build_rho``'s printed trace, whether it returns or raises."""
    try:
        return build_rho(phi, size_cap, prefer_rays)[1].to_json()
    except ReconstructionError as exc:
        return exc.trace.to_json()


def assert_routes_agree(rho, spec, damage="honest", seed=0):
    """The fast stages and ``build_rho`` against the node-by-node routes on
    the induced map after ``damage``; "reordered" lists the same pairs in
    a seeded shuffled key order, as a map file may."""
    phi = induced = induce_str_iso(rho, spec)
    slow = induce_str_iso_by_domain(rho, spec)
    assert list(phi.table.items()) == list(slow.table.items())
    if damage == "corrupt":
        phi = corrupt_str_iso(phi, seed)
    elif damage == "shuffled":
        phi = shuffle_images(phi, seed)
    elif damage == "truncated":
        phi = restrict_support(phi, 2)
    elif damage == "reordered":
        pairs = list(phi.table.items())
        random.Random(seed).shuffle(pairs)
        phi = StrIso(phi.fragment_x, phi.fragment_y, dict(pairs))

    def copy():
        return StrIso(phi.fragment_x, phi.fragment_y, phi.table)

    assert route_outcome(rho2_from_phi, copy()) == \
        route_outcome(rho2_from_phi_by_node, copy())
    # no K-set has one curve: at size_cap 1 the oracle finds none for any
    # curve, and the fast pass refuses the cap before looking
    rho1, trace = rho1_from_psi_by_curve(copy(), 1)
    assert not rho1 and len(trace.conflicts) == rho.source.n1
    assert all(c["kind"] == "no-k-set" for c in trace.conflicts)
    with pytest.raises(ValueError, match="at least two curves"):
        rho1_from_psi(copy(), 1)
    for size_cap in sorted({2, spec.k_cap} - {1}):
        assert route_outcome(rho1_from_psi, copy(), size_cap) == \
            route_outcome(rho1_from_psi_by_curve, copy(), size_cap)
    if damage == "reordered" and (spec.k_cap >= 2 or spec.include_rays):
        args = spec.k_cap, spec.include_rays
        fast = route_outcome(build_rho, copy(), *args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reconstruction, "rho2_from_phi",
                          rho2_from_phi_by_node)
            patch.setattr(reconstruction, "rho1_from_psi",
                          rho1_from_psi_by_curve)
            assert fast == route_outcome(build_rho, copy(), *args)
        # rho2 names the first node of each fiber in table order as its
        # witness; the curve map and the pairs it cites do not move
        moved, kept = built_trace(copy(), *args), built_trace(induced, *args)
        for part in ("rho1", "evidence"):
            assert moved[part] == kept[part]
    other = relabel(rho.source, seed + 1)[1]
    for hypothesis in (rho, other):
        fast, slow = copy(), copy()
        assert verify_factorization(fast, hypothesis) == \
            verify_factorization_by_node(slow, hypothesis)
        assert fast.probes == slow.probes == len(phi.domain)


@given(fragments(max_n1=6, max_n2=3), st.integers(0, 10 ** 6),
       st.integers(1, 3), st.booleans(),
       st.sampled_from(["honest", "corrupt", "shuffled", "truncated",
                        "reordered"]))
@settings(max_examples=200, deadline=None)
def test_reconstruction_routes_agree(frag, seed, k_cap, rays, damage):
    assume(not rays or all(frag.up))
    spec = DomainSpec(k_cap=k_cap, include_rays=rays)
    try:
        assert_routes_agree(relabel(frag, seed)[1], spec, damage, seed)
    except ValueError as exc:       # corrupt_str_iso needs two fibers
        assume("different fibers" not in str(exc))
        raise


def test_reconstruction_routes_agree_on_planted(planted3):
    for seed, damage in enumerate(("honest", "corrupt", "shuffled",
                                   "truncated", "reordered")):
        for rays in (False, True):
            assert_routes_agree(relabel(planted3, seed)[1],
                                DomainSpec(k_cap=3, include_rays=rays),
                                damage, seed)


def test_reconstruction_routes_agree_on_affine_plane_3_2():
    assert_routes_agree(relabel(affine_plane_fragment(3, 2), 1)[1],
                        DomainSpec(k_cap=2))


@given(fragments(max_n1=6, max_n2=3), st.integers(0, 10 ** 6),
       st.integers(2, 3), st.integers(4, 8))
@settings(max_examples=60, deadline=None)
def test_size_cap_beyond_the_domain_changes_nothing(frag, seed, k_cap, cap):
    # K-sets larger than the map's first ordinates are never tabulated, so
    # the capped pass and the uncapped oracle give the same bytes and probes
    psi = induce_str_iso(relabel(frag, seed)[1], DomainSpec(k_cap=k_cap))
    outcomes = [route_outcome(route, StrIso(frag, psi.fragment_y, psi.table),
                              size_cap)
                for route, size_cap in ((rho1_from_psi, k_cap),
                                        (rho1_from_psi, cap),
                                        (rho1_from_psi_by_curve, cap))]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@st.composite
def sparse_fragments(draw):
    """Fragments whose curves lie below one to three points each; in about
    two draws of five the two-curve K-sets pin every curve."""
    n1, n2 = draw(st.integers(3, 7)), draw(st.integers(2, 5))
    ups = [draw(st.lists(st.integers(0, n2 - 1), min_size=1,
                         max_size=min(3, n2), unique=True))
           for _ in range(n1)]
    return PosetFragment(n1, n2, [(x, m) for x, up in enumerate(ups)
                                  for m in up])


@given(sparse_fragments(), st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_pairs_that_pin_every_curve_end_the_pass(frag, seed, corrupt):
    # once every curve's image intersection is a single curve after the
    # two-curve K-sets, no larger K-set is looked up or cited: size_cap 3
    # gives size_cap 2's trace bytes and probes, on damaged maps as well
    psi = induce_str_iso(relabel(frag, seed)[1])
    if corrupt:
        try:
            psi = corrupt_str_iso(psi, seed)
        except ValueError:      # one fiber: nothing to swap
            assume(False)

    def outcome(size_cap):
        fresh = StrIso(frag, psi.fragment_y, psi.table)
        rho1, trace = rho1_from_psi(fresh, size_cap)
        return rho1, json_text(trace.to_json()), fresh.probes

    pairs = outcome(2)
    assume(len(pairs[0]) == frag.n1)
    assert outcome(3) == pairs


def test_only_an_unpinned_curve_cites_larger_k_sets():
    # curves x0 < m0; x1 < m0, m1; x2 < m0, m2; x3 < every point, so every
    # K-set lies over m0.  The pairs pin x0, x1 and x2, but the one pair
    # holding x3 is (x0,x3|m0), so x3 alone goes on to the three-curve
    # K-sets, and (x0,x1,x2|m0), which does not hold it, is skipped
    frag = PosetFragment(4, 3, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2),
                                (3, 0), (3, 1), (3, 2)])
    rho = relabel(frag, 3)[1]
    psi = induce_str_iso(rho)
    rho1, trace = rho1_from_psi(psi, 3)
    assert rho1 == dict(enumerate(rho.h1_map)) and not trace.conflicts
    triples = [node for node in trace.evidence
               if node.a_mask.bit_count() == 3]
    assert triples == [node for node in k_sets(frag, 3, 3)
                       if node.a_mask.bit_count() == 3]
    assert finite_node(0b0111, 0b001) in psi.table
    for x in range(3):
        cited = [trace.evidence[i] for i in trace.rho1_table[x]["evidence"]]
        assert cited and all(n.a_mask.bit_count() == 2 for n in cited)
    assert psi.probes == sum(len(entry["evidence"])
                             for entry in trace.rho1_table.values())


CENSUS = census_fragments(5, 3)


def test_census_never_returns_a_wrong_map(monkeypatch):
    """Every class up to 5 curves and 3 points, k_cap 2 and 3, psi-only and
    with rays, seeds 0-2: build_rho either raises or returns the hidden
    map, and its fast stages agree with the node-by-node ones on the map,
    the trace bytes and the probes.  A psi-only round trip recovers exactly
    when the literal K-sets separate every curve, one with rays always
    recovers, and every round trip that does not recover lists a
    conflict."""
    assert len(CENSUS) == 189
    built = 0
    for frag in CENSUS:
        split = {k_cap: separated(frag, k_cap) for k_cap in (2, 3)}
        for seed in (0, 1, 2):
            rho = relabel(frag, seed)[1]
            for k_cap in (2, 3):
                for rays in (False, True):
                    spec = DomainSpec(k_cap=k_cap, include_rays=rays)
                    fast = route_outcome(build_rho, induce_str_iso(rho, spec),
                                         k_cap, rays)
                    with monkeypatch.context() as patch:
                        patch.setattr(reconstruction, "rho2_from_phi",
                                      rho2_from_phi_by_node)
                        patch.setattr(reconstruction, "rho1_from_psi",
                                      rho1_from_psi_by_curve)
                        slow = route_outcome(
                            build_rho, induce_str_iso_by_domain(rho, spec),
                            k_cap, rays)
                    assert fast == slow, (frag.up, seed, k_cap, rays)
                    if fast[0] != "error":
                        assert fast[0] == rho.to_json(), (frag.up, seed)
                        built += 1
                    result = round_trip(frag, seed, psi_only=not rays,
                                        k_cap=k_cap)
                    assert result.recovered == (rays or split[k_cap]), (
                        frag.up, seed, k_cap, rays)
                    assert result.recovered or result.conflicts
    assert built > 0


def test_census_validate_matches_all_pairs():
    """Every class up to 5 curves and 3 points at seed 0 and k_cap 2, with
    rays wherever every curve has a point above it: on the induced map, a
    corrupted one and a shuffled one, validate equals its all-pairs
    oracle."""
    maps = 0
    for frag in CENSUS:
        phi = induce_str_iso(relabel(frag, 0)[1],
                             DomainSpec(k_cap=2, include_rays=all(frag.up)))
        variants = [phi, shuffle_images(phi, 0)]
        try:
            variants.append(corrupt_str_iso(phi, 0))
        except ValueError:      # a single fiber: nothing to swap
            pass
        for variant in variants:
            assert variant.validate() == validate_all_pairs(variant), frag.up
            maps += 1
    assert maps > 2 * len(CENSUS)


# The conflict kinds the README's reconstruct-report paragraph lists.
CONFLICT_KINDS = {
    "image-not-member", "image-fiber-not-singleton", "rho2-not-bijective",
    "empty-fiber", "image-not-k-set", "rho1-ambiguous", "ray-image-not-ray",
    "no-k-set", "ray-not-in-domain", "incidence-violation",
    "factorization-violation", "not-the-hidden-map"}


def test_corrupted_census_maps_never_recover():
    """Every class up to 5 curves and 3 points, psi-only at k_cap 2 and 3,
    seeds 0-2, with the images of two nodes of different fibers swapped:
    no round trip recovers, each lists a conflict, and every conflict of a
    run or of a ``build_rho`` error has a README-listed kind.  rho2 reads
    one witness per fiber, so a swap elsewhere reaches build_rho's map;
    then its factorization check names both swapped nodes.  A map that
    build_rho returns factors the damaged map at every node."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    assert all(f"`{kind}`" in readme for kind in CONFLICT_KINDS)
    runs = audited = 0
    for frag in CENSUS:
        for seed in (0, 1, 2):
            rho = relabel(frag, seed)[1]
            for k_cap in (2, 3):
                phi = induce_str_iso(rho, DomainSpec(k_cap=k_cap))
                try:
                    bad = corrupt_str_iso(phi, seed)
                except ValueError:      # a single fiber: nothing to swap
                    continue
                case = frag.up, seed, k_cap
                result = round_trip(frag, seed, k_cap=k_cap, corrupt=True)
                assert not result.recovered and result.conflicts, case
                assert all(c.get("kind") in CONFLICT_KINDS
                           for c in result.conflicts), case
                runs += 1
                swapped = [node.to_json() for node, img in phi.table.items()
                           if bad.table[node] != img]
                assert len(swapped) == 2
                try:
                    found, _ = build_rho(bad, k_cap, False)
                except ReconstructionError as exc:
                    conflicts = exc.trace.conflicts
                    assert conflicts and all(c.get("kind") in CONFLICT_KINDS
                                             for c in conflicts), case
                    named = [c["node"] for c in conflicts
                             if c["kind"] == "factorization-violation"]
                    if named:
                        assert all(node in named for node in swapped), case
                        audited += 1
                    continue
                assert verify_factorization(bad, found) == [], case
    assert runs > 0 and audited > 0


# -- psi to phi ---------------------------------------------------------------


def test_extend_psi_matches_full_induction(ag21):
    rho = relabel(ag21, seed=6)[1]
    psi = induce_str_iso(rho)
    extended = extend_psi_to_phi(psi)
    full = induce_str_iso(rho, DomainSpec(include_rays=True))
    assert {n: extended.map(n) for n in extended.domain} == \
        {n: full.map(n) for n in full.domain}


def test_extend_psi_refuses_ambiguity(f0):
    with pytest.raises(ReconstructionError, match="cannot extend"):
        extend_psi_to_phi(induce_str_iso(identity_iso(f0)))


# -- round trips ----------------------------------------------------------------


def test_round_trip_recovers_planted(planted3):
    for seed in (0, 1, 2):
        result = round_trip(planted3, seed)
        assert result.recovered
        assert witness_battery(planted3).passed
        assert result.conflicts == []
        assert result.probes > 0


def test_round_trip_with_rays(f0):
    blind = round_trip(f0, seed=0)
    assert not blind.recovered
    assert not witness_battery(f0).passed
    assert any(c["kind"] == "rho1-ambiguous" for c in blind.conflicts)
    sighted = round_trip(f0, seed=0, psi_only=False)
    assert sighted.recovered


def test_round_trip_corrupt(planted3):
    result = round_trip(planted3, seed=3, corrupt=True)
    assert not result.recovered
    assert result.conflicts
    assert witness_battery(planted3).passed  # it judges the fragment alone


def test_round_trip_names_another_relabeling():
    # one curve under two points: swapping the two finite nodes gives the
    # induced map of the relabeling that also swaps the points, so the
    # damaged map reconstructs cleanly, to a map other than the hidden one
    frag = PosetFragment(1, 2, [(0, 0), (0, 1)])
    result = round_trip(frag, seed=0, psi_only=False, corrupt=True)
    assert not result.recovered
    assert [c["kind"] for c in result.conflicts] == ["not-the-hidden-map"]
    assert result.conflicts[0]["rho"]["h2_map"] == list(
        reversed(relabel(frag, 0)[1].h2_map))


def test_round_trip_json_shape(f3):
    out = round_trip(f3, seed=0).to_json()
    assert list(out) == ["version", "recovered", "conflicts", "probes"]
    assert out["recovered"] is False and out["conflicts"]


def test_separation_not_the_battery_decides_recovery():
    # ag(2,2) fails the battery and recovers; the default random fragment
    # with 12 curves passes it and fails at k_cap 2, where no two-curve
    # K-set holds its generic curve
    ag22 = affine_plane_fragment(2, 2)
    r12 = random_fragment(GeneratorParams(n1=12, n2=3, seed=0))
    assert not witness_battery(ag22).passed and witness_battery(r12).passed
    for frag, k_cap, expected in ((ag22, 2, True), (r12, 2, False),
                                  (r12, 3, True)):
        assert separated(frag, k_cap) is expected
        result = round_trip(frag, seed=0, k_cap=k_cap)
        assert result.recovered is expected
        assert result.recovered or result.conflicts
    assert round_trip(ag22, seed=0, k_cap=3).recovered
