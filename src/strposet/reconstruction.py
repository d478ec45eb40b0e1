"""Recovering a fragment isomorphism from an isomorphism of pair orders.

The pipeline mirrors how the pair order determines the fragment: nodes with a
fixed singleton second ordinate must land in a single target fiber (giving
the point map), ray nodes map to ray nodes (giving the curve map directly),
and without rays each curve is pinned down by intersecting the first
ordinates of the images of its K-sets, the nodes (K, {b}) with x in K and
mub(K) = {b}, smallest first, until one curve is left.  Every derived entry
cites the nodes that forced it, and each stage records every inconsistency
or gap as a trace conflict instead of stopping or producing a wrong map;
only ``build_rho`` raises.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, groupby, islice, tee
from math import comb
from operator import itemgetter, le
from typing import Iterable

from .core import IsoMap, PosetFragment, bits_of, mask_image, relabel
from .structure import (StrNode, _member, _strict_rows, node_from_tuple,
                        ray_node)

# induce_str_iso refuses larger domains; a round trip at the cap needs
# about 377 MiB over the imported package (ROUND_TRIP_BYTES_PER_NODE)
MAX_DOMAIN_NODES = 1_000_000
# Peak RSS a psi-only round trip adds per domain node: 279 MiB over the
# imported package for ag(3,2) at k_cap 3 (740,151 nodes, the largest of
# three fresh processes; Python 3.11 on x86-64 Linux).
ROUND_TRIP_BYTES_PER_NODE = 395

@dataclass(slots=True)
class ReconstructionTrace:
    """What each map entry rests on.  ``evidence`` holds the looked-up
    nodes, each once, and ``images`` their images at the same positions,
    both the map's own StrNode objects; a ``rho1_table`` entry keeps its
    ``evidence`` as positions into those lists, an ``array('I')`` from
    ``rho1_from_psi``.  ``to_json`` prints both as stored: each pair once,
    as ``[node, image]`` like a map file's, and each curve's positions as a
    list."""

    rho2_table: dict = field(default_factory=dict)
    rho1_table: dict = field(default_factory=dict)
    conflicts: list = field(default_factory=list)
    evidence: list = field(default_factory=list)
    images: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"version": 2,
                "rho2": {str(k): v for k, v in self.rho2_table.items()},
                "rho1": {str(k): {**v, "evidence": list(v["evidence"])}
                         for k, v in self.rho1_table.items()},
                "evidence": [[node.to_json(), img.to_json()]
                             for node, img in zip(self.evidence,
                                                  self.images)],
                "conflicts": list(self.conflicts)}


class ReconstructionError(Exception):
    """Raised by ``build_rho`` when the pipeline cannot produce a single
    consistent map that factors phi; the trace's conflicts say why."""

    def __init__(self, message: str, trace: ReconstructionTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True, slots=True)
class DomainSpec:
    """The nodes an induced map tabulates: per point m, every (K, {m}) with
    K a set of at most k_cap curves below m; optionally every ray node."""

    k_cap: int = 3
    include_rays: bool = False


def domain_size(fragment: PosetFragment, spec: DomainSpec) -> int:
    """The number of nodes ``spec`` tabulates, in closed form: the sum over
    points m and sizes s <= k_cap of C(|down m|, s), plus n1 with rays."""
    size = sum(comb(down.bit_count(), s) for down in fragment.down
               for s in range(1, min(spec.k_cap, down.bit_count()) + 1))
    return size + fragment.n1 if spec.include_rays else size


def _is_ray_node(fragment: PosetFragment, node: StrNode) -> bool:
    """Whether a node tagged as a ray is ``ray_node(fragment, ray_of)``."""
    x = node.ray_of
    return (0 <= x < fragment.n1 and fragment.up[x] != 0
            and node == ray_node(fragment, x))


class StrIso:
    """Bijection between enumerated node universes of two pair orders.

    ``table`` maps each domain node to its image and is the only stored
    form of the map; ``domain`` lists its keys in table order.  ``probes``
    counts lookups so consumers can report how much of the map they touched.
    """

    __slots__ = ("fragment_x", "fragment_y", "table", "probes")

    def __init__(self, fragment_x: PosetFragment, fragment_y: PosetFragment,
                 table: dict):
        self.fragment_x = fragment_x
        self.fragment_y = fragment_y
        self.table = table
        self.probes = 0

    @property
    def domain(self) -> list[StrNode]:
        return list(self.table)

    def map(self, node: StrNode) -> StrNode:
        self.probes += 1
        return self.table[node]

    def validate(self, order_check: bool = True) -> list[str]:
        """Invariant audit: domain nodes and their images are member pairs,
        a node or image tagged as the ray of curve x is ``ray_node`` of x in
        its fragment, no two nodes share an image, and the order agrees in
        both directions.  The first pass reads each entry once and counts
        two probes per entry, the lookup and its inverse.

        The order is compared through ``_strict_rows`` of the domain and of
        the images: each node walks the first ordinates its own rule lets
        lie below it, so with first ordinates of at most k curves that is
        about len(domain) * 2^k lookups per side, and no pair is tested on
        its own.  Mismatches are reported in (i, j) index order, and the
        report stops after 21.  The first pass has found every node and
        image a member pair, which is all the rows assume.
        """
        problems, table = [], self.table
        inverse = {img: node for node, img in table.items()}
        if len(inverse) != len(table):
            problems.append("codomain has repeated nodes")
        fx, fy = self.fragment_x, self.fragment_y
        for node, img in table.items():
            if not _member(fx, node[0], node[1]):
                problems.append(f"domain node {node} is not a member pair")
            if not _member(fy, img[0], img[1]):
                problems.append(f"image of {node} is not a member pair")
            if node[2] is not None and not _is_ray_node(fx, node):
                problems.append(f"domain node {node} is not the ray node "
                                f"of its curve")
            if img[2] is not None and not _is_ray_node(fy, img):
                problems.append(f"image {img} of {node} is not the ray "
                                f"node of its curve")
            if (back := inverse[img]) != node:
                problems.append(f"inverse(map({node})) = {back}")
        self.probes += 2 * len(table)
        if problems or not order_check:
            return problems
        domain, images = list(table), list(table.values())
        rows_y = _strict_rows(fy, images)
        for i, row_x in enumerate(_strict_rows(fx, domain)):
            for j in bits_of(row_x ^ rows_y[i]):
                lx = bool(row_x >> j & 1)
                problems.append(
                    f"order mismatch: {domain[i]} <= {domain[j]} is {lx} "
                    f"but image comparison gives {not lx}")
                if len(problems) > 20:
                    return problems
        return problems

    def to_json(self) -> dict:
        pairs = [[n.to_json(), img.to_json()] for n, img in self.table.items()]
        return {"version": 1, "pairs": pairs}

    @classmethod
    def from_json(cls, fragment_x: PosetFragment, fragment_y: PosetFragment,
                  obj: dict) -> "StrIso":
        """A map file's map; ValueError unless a bijection of member pairs."""
        if not isinstance(obj, dict) or obj.get("version") != 1:
            raise ValueError("unsupported map file")
        pairs = obj.get("pairs")
        if not (isinstance(pairs, list)
                and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise ValueError("pairs must be a list of [node, image] lists")
        table = {}
        for a, b in pairs:
            node = StrNode.from_json(a)
            if node in table:
                raise ValueError(f"domain node {node} is listed twice")
            table[node] = StrNode.from_json(b)
        phi = cls(fragment_x, fragment_y, table)
        if problems := phi.validate(order_check=False):
            raise ValueError("; ".join(problems[:5]))
        phi.probes = 0
        return phi


def induce_str_iso(rho: IsoMap, spec: DomainSpec = DomainSpec()) -> StrIso:
    """Tabulate (A, B) -> (rho A, rho B) fiber by fiber, K by size and then in
    ``combinations`` order, then on ray nodes.  Each K grows from its prefix
    with its image, one OR of a curve's image bit per node.  Refuses with
    ValueError when ``domain_size`` exceeds MAX_DOMAIN_NODES, naming the
    memory a round trip over that domain would need."""
    fx = rho.source
    if (size := domain_size(fx, spec)) > MAX_DOMAIN_NODES:
        mib = size * ROUND_TRIP_BYTES_PER_NODE >> 20
        raise ValueError(f"the induced domain would have {size} nodes, "
                         f"over the cap of {MAX_DOMAIN_NODES} (a round trip "
                         f"would need about {mib} MiB); lower k_cap")
    h1 = rho.h1_map
    table = {}
    for m, down in enumerate(fx.down):
        b, b_img = 1 << m, 1 << rho.h2_map[m]
        bits = [(1 << i, 1 << h1[i]) for i in bits_of(down)]
        level = [(0, 0, 0)]     # (K, image of K, first curve that may follow)
        for _ in range(min(spec.k_cap, len(bits))):
            level = [(a | bit, a_img | img_bit, j + 1)
                     for a, a_img, lo in level
                     for j, (bit, img_bit) in enumerate(bits[lo:], lo)]
            table.update({node_from_tuple((k, b, None)):
                          node_from_tuple((k_img, b_img, None))
                          for k, k_img, _ in level})
    for x in range(fx.n1 if spec.include_rays else 0):
        table[ray_node(fx, x)] = ray_node(rho.target, h1[x])
    return StrIso(fx, rho.target, table)


def corrupt_str_iso(phi: StrIso, seed: int = 0) -> StrIso:
    """Swap the images of two finite domain nodes from different fibers;
    for exercising conflict reporting."""
    rng = random.Random(seed)
    finite = [n for n in phi.table if not n.is_ray]
    rng.shuffle(finite)
    for u, v in combinations(finite, 2):
        if u.b_mask != v.b_mask:
            table = dict(phi.table)
            table[u], table[v] = table[v], table[u]
            return StrIso(phi.fragment_x, phi.fragment_y, table)
    raise ValueError("domain has no two nodes in different fibers")


def _singleton_fibers(phi: StrIso) -> list[list[StrNode]]:
    """The keys of each point's finite singleton fiber, in table order."""
    fibers: list[list[StrNode]] = [[] for _ in range(phi.fragment_x.n2)]
    for (b, ray), run in groupby(phi.table, itemgetter(1, 2)):
        if ray is None and b.bit_count() == 1:
            fibers[b.bit_length() - 1].extend(run)
    return fibers


def rho2_from_phi(phi: StrIso, *, fibers: list[list[StrNode]] | None = None
                  ) -> tuple[dict[int, int], ReconstructionTrace]:
    """Point map from one witness per singleton fiber.

    Every node over {m} maps into the fiber of one point, rho2(m), so the
    first key of each fiber, as ``_singleton_fibers`` lists them, is looked
    up (one probe) and names it: its image must be a member pair of
    fragment_y over a single point.  An image that is not, an empty fiber
    and a point map that is no bijection become conflicts.  The fiber's
    other nodes are not read; ``build_rho`` checks each node against the
    assembled map.  ``fibers`` is that list when the caller has it.
    """
    trace = ReconstructionTrace()
    fx, fy = phi.fragment_x, phi.fragment_y
    rho2: dict[int, int] = {}
    if fibers is None:
        fibers = _singleton_fibers(phi)
    for m, keys in enumerate(fibers):
        if not keys:
            trace.conflicts.append({"kind": "empty-fiber",
                                    "m": fx.h2_labels[m]})
            continue
        witness = keys[0]
        img = phi.map(witness)
        if not _member(fy, img[0], img[1]):
            trace.conflicts.append(
                {"kind": "image-not-member", "m": fx.h2_labels[m],
                 "node": witness.to_json()})
        elif img.b_mask.bit_count() != 1:
            trace.conflicts.append(
                {"kind": "image-fiber-not-singleton",
                 "m": fx.h2_labels[m], "node": witness.to_json(),
                 "image": img.to_json()})
        else:
            rho2[m] = img.b_mask.bit_length() - 1
            trace.rho2_table[m] = {"image": rho2[m],
                                   "witness": witness.to_json()}
    if len(rho2) == fx.n2 and (len(set(rho2.values())) != fx.n2
                               or fx.n2 != fy.n2):
        trace.conflicts.append({"kind": "rho2-not-bijective",
                                "images": sorted(rho2.values())})
    return rho2, trace


def _k_size(node: StrNode) -> int:
    return node[0].bit_count()


def _size_starts(keys: list[StrNode], top: int
                 ) -> tuple[list[StrNode], list[int]]:
    """A fiber's keys ascending by first-ordinate size, and where each size
    from 2 to top + 1 starts among them.  An induced table lists a fiber
    that way already, so its keys are kept as they are; a fiber out of that
    order, as a map file's can be, is sorted, stably.  The order is checked
    in one pass that runs in C and keeps no list of sizes, and each start
    is a binary search, so a size that no curve needs is never scanned."""
    sizes, later = tee(map(int.bit_count, map(itemgetter(0), keys)))
    next(later, None)
    if not all(map(le, sizes, later)):
        keys = sorted(keys, key=_k_size)
    return keys, [bisect_left(keys, s, key=_k_size)
                  for s in range(2, top + 2)]


def _fiber_k_sets(fx: PosetFragment, b: int, keys: Iterable[StrNode],
                  unpinned: int) -> list[StrNode]:
    """The K-sets among keys of one size in point b's singleton fiber that
    hold a curve of ``unpinned``: the (K, {b}) with K inside fx and common
    upper set {b}, in lexicographic K, the order of ``unique_point_sets``.

    An induced table lists them in that order, and a K mostly shares all
    but its last curve with the key before it, so the common upper set of
    that prefix is carried over.  Keys out of that order are sorted."""
    b_mask, outside, up = 1 << b, ~fx.all_h1_mask, fx.up
    k_sets, in_order, prev = [], True, 0
    prefix, prefix_up = -1, 0
    for key in keys:
        a = key[0]
        if a & outside or not a & unpinned:
            continue
        last = a.bit_length() - 1
        if a ^ 1 << last != prefix:
            prefix = a ^ 1 << last
            prefix_up = fx.common_h2_above(prefix)
        if prefix_up & up[last] != b_mask:
            continue
        # of two K of one size, the one holding the lowest curve that is in
        # just one of them comes first
        diff = a ^ prev
        if prev and not diff & -diff & prev:
            in_order = False
        k_sets.append(key)
        prev = a
    if in_order:
        return k_sets
    return sorted(k_sets, key=lambda node: list(bits_of(node[0])))


def _refuse_k_cap(k_cap: int, rays: bool = False) -> None:
    """The one "k_cap can never recover" rule: ValueError for a cap below 2,
    since K-sets have at least two curves, or with rays below 1, since
    every fiber still needs a node."""
    if k_cap < (1 if rays else 2):
        raise ValueError(f"k_cap {k_cap} can never recover: " + (
            "every fiber needs a node; use k_cap >= 1" if rays else
            "K-sets have at least two curves; use k_cap >= 2 or rays"))


def rho1_from_psi(psi: StrIso, size_cap: int = 3, *,
                  fibers: list[list[StrNode]] | None = None
                  ) -> tuple[dict[int, int], ReconstructionTrace]:
    """Curve map by intersecting the first ordinates of K-set images.

    The K-sets are the keys (K, {b}) of the singleton fibers with
    2 <= |K| <= size_cap, K inside fragment_x and mub(K) = {b}.  They are
    taken size by size across all points, pairs first, then by point and
    lexicographic K.  A curve is pinned once a K-set holds it and its image
    intersection is a single curve at the end of a size; it cites no K-set
    of a larger size.  A K-set is looked up only if it holds an unpinned
    curve: its image is tested once, the table's own key and image go to
    ``trace.evidence`` and ``trace.images``, and only its unpinned curves
    cite it.  The pass stops at size_cap or when every curve is pinned, so
    each curve's evidence depends on that curve alone.  A curve takes the
    positions it cites, in order, as an ``array('I')``, and each cited
    (curve, K-set) pair is one probe.

    The image intersection always contains the true image, so a singleton
    answer is correct whenever psi really is induced by a relabeling, and a
    larger K-set cannot change it; a larger intersection is recorded as an
    ambiguity, never guessed at.  Only K-sets psi actually tabulates count
    as evidence; a curve that none holds is a ``no-k-set`` conflict, as on
    a map file over a truncated domain.  ``fibers`` is
    ``_singleton_fibers(psi)`` when the caller has it.  A size_cap below 2
    admits no K-set and raises ValueError.
    """
    _refuse_k_cap(size_cap)
    trace = ReconstructionTrace()
    fx, fy = psi.fragment_x, psi.fragment_y
    table, evidence, images = psi.table, trace.evidence, trace.images
    held = [array("I") for _ in range(fx.n1)]  # held[x]: evidence positions
    inter = [fy.all_h1_mask] * fx.n1           # inter[x]: image intersection
    is_k_set = bytearray()                      # per position
    if fibers is None:
        fibers = _singleton_fibers(psi)
    top = min(size_cap, fx.n1)
    sized = [_size_starts(keys, top) for keys in fibers]
    unpinned = fx.all_h1_mask
    for size in range(2, top + 1):
        for b, (keys, starts) in enumerate(sized):
            if not fx.down[b] & unpinned:
                continue
            run = islice(keys, starts[size - 2], starts[size - 1])
            for key in _fiber_k_sets(fx, b, run, unpinned):
                position, cited = len(evidence), key[0] & unpinned
                img = table[key]
                evidence.append(key)
                images.append(img)
                a, b_img, _ = img
                is_k_set.append(b_img.bit_count() == 1 and a.bit_count() >= 2
                                and fy.common_h2_above(a) == b_img)
                while cited:
                    low = cited & -cited
                    x = low.bit_length() - 1
                    held[x].append(position)
                    inter[x] &= a
                    cited ^= low
        for x in bits_of(unpinned):
            if held[x] and inter[x].bit_count() == 1:
                unpinned ^= 1 << x
        if not unpinned:
            break
    rho1: dict[int, int] = {}
    for x, (positions, meet) in enumerate(zip(held, inter)):
        if not positions:
            trace.conflicts.append({"kind": "no-k-set", "x": fx.h1_labels[x]})
            continue
        psi.probes += len(positions)
        for i in positions:
            if not is_k_set[i]:
                trace.conflicts.append(
                    {"kind": "image-not-k-set", "x": fx.h1_labels[x],
                     "node": evidence[i].to_json(),
                     "image": images[i].to_json()})
        entry = {"intersection": list(bits_of(meet)), "evidence": positions}
        if meet.bit_count() == 1:
            rho1[x] = meet.bit_length() - 1
            entry["image"] = rho1[x]
        else:
            entry["image"] = None
            trace.conflicts.append(
                {"kind": "rho1-ambiguous", "x": fx.h1_labels[x],
                 "intersection": [fy.h1_labels[i] for i in bits_of(meet)]})
        trace.rho1_table[x] = entry
    return rho1, trace


def rho1_from_rays(phi: StrIso) -> tuple[dict[int, int], ReconstructionTrace]:
    """Curve map read directly off ray images; a missing ray, as of a curve
    with no point above it, is a conflict."""
    trace = ReconstructionTrace()
    fx = phi.fragment_x
    rho1: dict[int, int] = {}
    for x in range(fx.n1):
        if not fx.up[x] or (ray := ray_node(fx, x)) not in phi.table:
            trace.conflicts.append({"kind": "ray-not-in-domain",
                                    "x": fx.h1_labels[x]})
            continue
        img = phi.map(ray)
        if not img.is_ray:
            trace.conflicts.append(
                {"kind": "ray-image-not-ray", "x": fx.h1_labels[x],
                 "image": img.to_json()})
            continue
        rho1[x] = img.ray_of
        trace.rho1_table[x] = {"image": img.ray_of,
                               "evidence": [len(trace.evidence)]}
        trace.evidence.append(ray)
        trace.images.append(img)
    return rho1, trace


def build_rho(phi: StrIso, size_cap: int = 3, prefer_rays: bool = True
              ) -> tuple[IsoMap, ReconstructionTrace]:
    """Assemble the fragment isomorphism and certify it, or raise with the
    full trace.

    The only raise of the pipeline: failure never yields a partial or
    guessed map, and the conflicts of both stages, an incidence violation
    of the assembled map or the nodes it does not factor surface in the
    merged trace.  The table is walked for its singleton fibers once, for
    both stages.  The curve map comes off the rays if ``prefer_rays`` and
    ``ray_node`` of every curve is a key, else off the K-sets.  The stages
    read one witness per fiber and the K-sets a curve needs, not every
    node, so the assembled map is then checked node by node with
    ``verify_factorization``, and a map that is returned factors phi.
    """
    fibers = _singleton_fibers(phi)
    rho2, trace = rho2_from_phi(phi, fibers=fibers)
    fx = phi.fragment_x
    rays = prefer_rays and all(fx.up[x] and ray_node(fx, x) in phi.table
                               for x in range(fx.n1))
    rho1, t1 = (rho1_from_rays(phi) if rays
                else rho1_from_psi(phi, size_cap, fibers=fibers))
    trace.rho1_table = t1.rho1_table
    trace.evidence, trace.images = t1.evidence, t1.images
    trace.conflicts.extend(t1.conflicts)
    if trace.conflicts:
        raise ReconstructionError("conflicting evidence; see trace", trace)
    try:
        iso = IsoMap(phi.fragment_x, phi.fragment_y,
                     tuple(rho1[i] for i in range(fx.n1)),
                     tuple(rho2[j] for j in range(fx.n2)))
    except ValueError as exc:
        trace.conflicts.append({"kind": "incidence-violation",
                                "detail": str(exc)})
        raise ReconstructionError(str(exc), trace) from exc
    if violations := verify_factorization(phi, iso):
        trace.conflicts.extend(violations)
        raise ReconstructionError("conflicting evidence; see trace", trace)
    return iso, trace


def verify_factorization(phi: StrIso, rho: IsoMap) -> list[dict]:
    """Check phi(A, B) = (rho A, rho B) nodewise, a ray node's tag carried
    along, and list a ``factorization-violation`` conflict per mismatch:
    the node, its image, the expected image and the pulled-back ordinates
    of the actual image, where curves and points outside fragment_y,
    having no preimage, are left out.  Every node is one probe."""
    h1, h2, inv = rho.h1_map, rho.h2_map, rho.inverse()
    all1, all2 = rho.target.all_h1_mask, rho.target.all_h2_mask
    b_images: dict[int, int] = {}
    violations = []
    for node, img in phi.table.items():
        a, b, ray = node
        if (b_img := b_images.get(b)) is None:
            b_img = b_images[b] = mask_image(b, h2)
        expected = (mask_image(a, h1), b_img, None if ray is None else h1[ray])
        if img != expected:
            a_star = inv.h1_mask_image(img.a_mask & all1)
            b_star = inv.h2_mask_image(img.b_mask & all2)
            violations.append(
                {"kind": "factorization-violation", "node": node.to_json(),
                 "image": img.to_json(),
                 "expected": StrNode(*expected).to_json(),
                 "a_star": list(bits_of(a_star)),
                 "b_star": list(bits_of(b_star))})
    phi.probes += len(phi.table)
    return violations


# -- relabel round trip -------------------------------------------------------


@dataclass(slots=True)
class RoundTripResult:
    """A run that does not recover lists at least one conflict."""

    recovered: bool
    conflicts: list
    probes: int

    def to_json(self) -> dict:
        return {"version": 1, "recovered": self.recovered,
                "conflicts": list(self.conflicts), "probes": self.probes}


def round_trip(fragment: PosetFragment, seed: int, psi_only: bool = True,
               k_cap: int = 3, corrupt: bool = False) -> RoundTripResult:
    """Relabel with a hidden map, induce the node map, reconstruct, compare.

    ``recovered`` demands that ``build_rho`` returns, so certifies, the
    exact hidden map; with ``corrupt`` the induced map is damaged first to
    exercise the conflict paths.  The run is its own recoverability test,
    and one that does not recover lists a conflict; a damaged map that
    another relabeling induces gives ``not-the-hidden-map``.  A k_cap that
    can never recover raises ValueError.
    """
    _refuse_k_cap(k_cap, rays=not psi_only)
    _, rho_star = relabel(fragment, seed)
    spec = DomainSpec(k_cap=k_cap, include_rays=not psi_only)
    phi = induce_str_iso(rho_star, spec)
    if corrupt:
        phi = corrupt_str_iso(phi, seed)
    try:
        rho_hat, _ = build_rho(phi, size_cap=k_cap, prefer_rays=not psi_only)
    except ReconstructionError as exc:
        return RoundTripResult(False, list(exc.trace.conflicts), phi.probes)
    if rho_hat == rho_star:
        return RoundTripResult(True, [], phi.probes)
    # the damage made phi the induced map of another relabeling
    return RoundTripResult(False, [{"kind": "not-the-hidden-map",
                                    "rho": rho_hat.to_json()}], phi.probes)
