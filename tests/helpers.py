"""Hand-built fixtures and independent brute-force oracles for the tests.

The oracles deliberately take the literal definition route (enumerate subsets,
call the element-level mub) rather than reusing the library's closed forms,
so the two implementations check each other.  The element-level model of a
fragment (``ElementId``, ``leq``, ``mub``, ...), the abstract ``SmallPoset``
with its isomorphism test, and the order-walking ``FiberView`` queries live
here: the library itself works on bitmasks only.  So do the oracles and
paper constructions that no verb runs, such as ``dominates_via``,
``join_above`` and ``extend_psi_to_phi``.
"""

from dataclasses import dataclass
from enum import IntEnum
from itertools import (combinations, combinations_with_replacement,
                       permutations)
from typing import Iterable, Optional, Sequence
from unittest import mock

from strposet import (DomainSpec, FiberView, IsoMap, PosetFragment,
                      ReconstructionError, ReconstructionTrace, StrIso,
                      StrNode, bits_of, find_j3_witness, finite_node,
                      mask_of, ray_node, str_member, w_max)
from strposet import reconstruction
from strposet.reconstruction import (_rho1_from_psi, _rho2_from_phi,
                                     _singleton_fibers)
from strposet.structure import (ENUM_CAP, NodeLike, require_member,
                                str_leq_bruteforce)


# -- the element-level model of a fragment -----------------------------------


class Tier(IntEnum):
    MIN = 0
    H1 = 1
    H2 = 2


@dataclass(frozen=True, slots=True, order=True)
class ElementId:
    """One element of a fragment: a tier plus an index within the tier.

    Ordered by (tier, index) so element lists sort stably; this sort order
    is unrelated to the poset order."""

    tier: Tier
    index: int

    def __repr__(self) -> str:
        if self.tier is Tier.MIN:
            return "Min"
        return f"{'h1' if self.tier is Tier.H1 else 'h2'}[{self.index}]"


MIN_ELEMENT = ElementId(Tier.MIN, 0)


def h1(i: int) -> ElementId:
    return ElementId(Tier.H1, i)


def h2(j: int) -> ElementId:
    return ElementId(Tier.H2, j)


def elements(fragment: PosetFragment) -> list[ElementId]:
    out = [MIN_ELEMENT]
    out.extend(ElementId(Tier.H1, i) for i in range(fragment.n1))
    out.extend(ElementId(Tier.H2, j) for j in range(fragment.n2))
    return out


def check_element(fragment: PosetFragment, x: ElementId) -> None:
    if x.tier is Tier.MIN:
        if x.index != 0:
            raise ValueError("the minimum has index 0")
    elif x.tier is Tier.H1:
        if not 0 <= x.index < fragment.n1:
            raise ValueError(f"h1 index {x.index} out of range")
    elif not 0 <= x.index < fragment.n2:
        raise ValueError(f"h2 index {x.index} out of range")


def leq(fragment: PosetFragment, x: ElementId, y: ElementId) -> bool:
    check_element(fragment, x)
    check_element(fragment, y)
    if x == y:
        return True
    if x.tier is Tier.MIN:
        return True
    if x.tier is Tier.H1 and y.tier is Tier.H2:
        return bool(fragment.up[x.index] >> y.index & 1)
    return False


def member_by_elements(fragment: PosetFragment, a_mask: int,
                       b_mask: int) -> bool:
    """The member-pair definition over elements: A a nonempty set of curves
    and B a nonempty set of points of the fragment, with some curve of A
    below every point of B.  Any other pair of masks, empty, negative or
    naming an element the fragment lacks, is no member pair."""
    if a_mask <= 0 or b_mask <= 0:
        return False
    curves = [h1(i) for i in bits_of(a_mask)]
    points = [h2(j) for j in bits_of(b_mask)]
    if not set(curves + points) <= set(elements(fragment)):
        return False
    return any(all(leq(fragment, x, p) for p in points) for x in curves)


def upper_set(fragment: PosetFragment, elems: Iterable[ElementId],
              strict: bool = False) -> frozenset[ElementId]:
    """Elements above every member of ``elems`` (all of X for the empty set).

    With ``strict`` the input elements themselves are removed.
    """
    elems = list(elems)
    out = {x for x in elements(fragment)
           if all(leq(fragment, a, x) for a in elems)}
    if strict:
        out -= set(elems)
    return frozenset(out)


def lower_set(fragment: PosetFragment, elems: Iterable[ElementId],
              strict: bool = False) -> frozenset[ElementId]:
    elems = list(elems)
    out = {x for x in elements(fragment)
           if all(leq(fragment, x, a) for a in elems)}
    if strict:
        out -= set(elems)
    return frozenset(out)


def mub(fragment: PosetFragment,
        elems: Iterable[ElementId]) -> frozenset[ElementId]:
    """Minimal upper bounds of a nonempty set of elements."""
    elems = list(elems)
    if not elems:
        raise ValueError("mub of the empty set is not defined here")
    ub = [x for x in elements(fragment)
          if all(leq(fragment, a, x) for a in elems)]
    return frozenset(
        x for x in ub
        if not any(y != x and leq(fragment, y, x) for y in ub))


def height(fragment: PosetFragment, x: ElementId) -> int:
    check_element(fragment, x)
    return int(x.tier)


def is_identity(iso: IsoMap) -> bool:
    return (iso.h1_map == tuple(range(len(iso.h1_map)))
            and iso.h2_map == tuple(range(len(iso.h2_map))))


def iso_apply(iso: IsoMap, x: ElementId) -> ElementId:
    """The image of one element under a fragment isomorphism."""
    if x.tier is Tier.MIN:
        return MIN_ELEMENT
    if x.tier is Tier.H1:
        return ElementId(Tier.H1, iso.h1_map[x.index])
    return ElementId(Tier.H2, iso.h2_map[x.index])


# -- small abstract posets -------------------------------------------------

SMALL_POSET_CAP = 12


@dataclass(frozen=True)
class SmallPoset:
    """Abstract finite poset given by full reachability rows.

    Bit j of ``leq_rows[i]`` says element i is below-or-equal element j.
    Used for brute-force shape comparisons on tiny posets.
    """

    n: int
    leq_rows: tuple[int, ...]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.leq_rows[i] >> j & 1)

    @classmethod
    def from_pairs(cls, n: int, strict_pairs: Iterable[tuple[int, int]]
                   ) -> "SmallPoset":
        """Reflexive-transitive closure of the given strict relations."""
        rows = [1 << i for i in range(n)]
        for i, j in strict_pairs:
            rows[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = rows[i]
                for j in bits_of(acc):
                    acc |= rows[j]
                if acc != rows[i]:
                    rows[i] = acc
                    changed = True
        return cls(n, tuple(rows))

    @classmethod
    def i_r(cls, r: int) -> "SmallPoset":
        """r incomparable bottom elements under one common top."""
        if r < 1:
            raise ValueError("r must be positive")
        return cls.from_pairs(r + 1, [(i, r) for i in range(r)])


def small_poset_isomorphic(p: SmallPoset, q: SmallPoset) -> bool:
    """Brute-force order-isomorphism test, capped at 12 elements each."""
    if p.n > SMALL_POSET_CAP or q.n > SMALL_POSET_CAP:
        raise ValueError(f"poset too large for brute force (cap {SMALL_POSET_CAP})")
    if p.n != q.n:
        return False
    n = p.n

    def degrees(s: SmallPoset) -> list[tuple[int, int]]:
        ups = [s.leq_rows[i].bit_count() for i in range(n)]
        downs = [sum(s.leq(j, i) for j in range(n)) for i in range(n)]
        return [(downs[i], ups[i]) for i in range(n)]

    pdeg, qdeg = degrees(p), degrees(q)
    if sorted(pdeg) != sorted(qdeg):
        return False
    order = sorted(range(n), key=lambda i: pdeg[i])
    image = [-1] * n
    used = [False] * n

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for cand in range(n):
            if used[cand] or qdeg[cand] != pdeg[i]:
                continue
            ok = True
            for t in range(k):
                a = order[t]
                if (p.leq(i, a) != q.leq(cand, image[a])
                        or p.leq(a, i) != q.leq(image[a], cand)):
                    ok = False
                    break
            if ok:
                image[i] = cand
                used[cand] = True
                if backtrack(k + 1):
                    return True
                used[cand] = False
                image[i] = -1
        return False

    return backtrack(0)


def longest_chain_length(fragment: PosetFragment) -> int:
    """Chain enumeration oracle for dim(); only for tiny fragments."""
    elems = list(elements(fragment))
    if len(elems) > SMALL_POSET_CAP + 1:
        raise ValueError("fragment too large for chain enumeration")
    best = 0
    for r in range(1, len(elems) + 1):
        found = False
        for chain in permutations(elems, r):
            if all(chain[k] != chain[k + 1]
                   and leq(fragment, chain[k], chain[k + 1])
                   for k in range(r - 1)):
                found = True
                break
        if found:
            best = r
        else:
            break
    return best


# -- fiber views read through their order rows ------------------------------


def index_of(view: FiberView, node: StrNode) -> int:
    return view.nodes.index(node)


def down_indices(view: FiberView, i: int) -> list[int]:
    return [j for j in range(len(view.nodes)) if view.leq(j, i)]


def height_positive_by_order(view: FiberView, i: int) -> bool:
    """Does some other node sit strictly below node i?"""
    return any(j != i and view.leq(j, i) for j in range(len(view.nodes)))


def to_small_poset(view: FiberView, indices: Optional[Sequence[int]] = None
                   ) -> SmallPoset:
    idxs = list(range(len(view.nodes))) if indices is None else list(indices)
    pos = {v: k for k, v in enumerate(idxs)}
    rows = []
    for i in idxs:
        r = 0
        for j in idxs:
            if view.leq(i, j):
                r |= 1 << pos[j]
        rows.append(r)
    return SmallPoset(len(idxs), tuple(rows))


# -- the relation as a literal pair set ---------------------------------------


def pair_set_json(n1: int, n2: int, pairs: Iterable[tuple[int, int]],
                  h1_labels: Sequence[str], h2_labels: Sequence[str]) -> dict:
    """``fragment_to_json`` as it was while fragments kept a frozenset of
    pairs: the sorted distinct pairs."""
    return {"version": 1, "n1": n1, "n2": n2,
            "incidence": sorted([i, j] for i, j in set(pairs)),
            "labels": {"h1": list(h1_labels), "h2": list(h2_labels)}}


def pair_set_preserved(source_pairs: Iterable[tuple[int, int]],
                       target_pairs: Iterable[tuple[int, int]],
                       h1_map: Sequence[int], h2_map: Sequence[int]) -> bool:
    """The ``IsoMap`` incidence test on pair sets: the image of the source
    relation is exactly the target relation."""
    return ({(h1_map[i], h2_map[j]) for i, j in source_pairs}
            == set(target_pairs))


# -- fixtures -----------------------------------------------------------------


def make_f0() -> PosetFragment:
    """Three curves over two points: a and b through both, c through d only."""
    return PosetFragment(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)],
                         h1_labels=("a", "b", "c"), h2_labels=("d", "e"))


def make_f3() -> PosetFragment:
    """The cusp configuration, built by hand for comparison with the
    packaged generator."""
    pairs = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)]
    return PosetFragment(3, 3, pairs, h1_labels=("P", "y1", "y2"),
                         h2_labels=("m", "n1", "n2"))


def brute_fhp(fragment: PosetFragment, a_mask: int, b_mask: int) -> bool:
    """Literal reading: some K inside A has minimal upper bound set B."""
    b_elems = frozenset(h2(j) for j in bits_of(b_mask))
    idxs = list(bits_of(a_mask))
    for size in range(1, len(idxs) + 1):
        for combo in combinations(idxs, size):
            if mub(fragment, [h1(i) for i in combo]) == b_elems:
                return True
    return False


def brute_has_smaller(fragment: PosetFragment, a_mask: int,
                      b_mask: int) -> bool:
    """Literal reading: some member pair with a smaller first ordinate lies
    strictly below in the same fiber."""
    sub = (a_mask - 1) & a_mask
    while sub:
        if (str_member(fragment, (sub, b_mask))
                and str_leq_bruteforce(fragment, finite_node(sub, b_mask),
                                       finite_node(a_mask, b_mask))):
            return True
        sub = (sub - 1) & a_mask
    return False


def brute_down_set(fragment: PosetFragment, a_mask: int,
                   b_mask: int) -> set[int]:
    """Literal reading: the first ordinates A' inside A with (A', B) a
    member that ``str_leq_bruteforce`` puts below-or-equal (A, B)."""
    node = finite_node(a_mask, b_mask)
    found = set()
    sub = a_mask
    while sub:
        if (str_member(fragment, (sub, b_mask))
                and str_leq_bruteforce(fragment, finite_node(sub, b_mask),
                                       node)):
            found.add(sub)
        sub = (sub - 1) & a_mask
    return found


def brute_mu(fragment: PosetFragment, x: int, m: int, amax: int):
    """Minimum down-set size over every positive-height first ordinate
    containing x, by direct enumeration of all curve subsets up to amax.

    The gate is the mub-witness notion of positive height, not mere
    existence of a smaller node; a junk-padded singleton has a two-element
    down set but no K with mub(K) = {m} and does not count."""
    best = None
    others = [i for i in range(fragment.n1) if i != x]
    b_mask = 1 << m
    for extra in range(0, amax):
        for combo in combinations(others, extra):
            a_mask = mask_of(combo) | 1 << x
            if not str_member(fragment, (a_mask, b_mask)):
                continue
            if not brute_fhp(fragment, a_mask, b_mask):
                continue
            size = len(brute_down_set(fragment, a_mask, b_mask))
            if best is None or size < best:
                best = size
    return best


def brute_j3(fragment: PosetFragment, m: int, f_mask: int, cap: int):
    """Literal search for K disjoint from F whose minimal upper bounds are
    exactly {m}, via the element-level mub."""
    target = frozenset({h2(m)})
    pool = [i for i in range(fragment.n1) if not f_mask >> i & 1]
    for size in range(1, cap + 1):
        for combo in combinations(pool, size):
            if mub(fragment, [h1(i) for i in combo]) == target:
                return mask_of(combo)
    return None


def brute_k_sets(fragment: PosetFragment, x: int, cap: int):
    """Literal K-sets of x: every (K, {b}) with x in K, |K| <= cap and
    mub(K) = {b} by the element-level mub, ordered by point, then size,
    then lexicographic K."""
    out = []
    for b in range(fragment.n2):
        target = frozenset({h2(b)})
        for size in range(1, cap + 1):
            for combo in combinations(range(fragment.n1), size):
                if (x in combo
                        and mub(fragment, [h1(i) for i in combo]) == target):
                    out.append(finite_node(mask_of(combo), 1 << b))
    return out


def separated(fragment: PosetFragment, k_cap: int) -> bool:
    """K-set separation: for every curve x, the literal K-sets of at most
    k_cap curves that hold x exist and their first ordinates intersect in
    {x} alone.  A psi-only round trip recovers exactly then.

    Each combination of curves takes the element-level mub once, and a
    K-set's first ordinate is intersected into each curve it holds."""
    points = {frozenset({h2(b)}) for b in range(fragment.n2)}
    inter = [fragment.all_h1_mask] * fragment.n1
    held = [False] * fragment.n1
    for size in range(1, k_cap + 1):
        for combo in combinations(range(fragment.n1), size):
            if mub(fragment, [h1(i) for i in combo]) in points:
                for x in combo:
                    inter[x] &= mask_of(combo)
                    held[x] = True
    return all(held[x] and inter[x] == 1 << x for x in range(fragment.n1))


# -- oracles and paper constructions that no verb runs ----------------------


def dominates_via(fragment: PosetFragment, upper: NodeLike, lower: NodeLike,
                  witness_mask: int) -> bool:
    """Whether (C, D) = upper dominates (A, B) = lower via the witness set W.

    E1-E3 are read literally over ``fragment.up``, so this oracle shares no
    code with ``str_leq``'s canonical-witness test."""
    c, d = require_member(fragment, upper)
    a, b = require_member(fragment, lower)
    up = fragment.up
    # E1: A strictly below C, D within B.
    if a & ~c or a == c or d & ~b:
        return False
    # E2: nonempty witness inside C, each of its curves below all of D.
    if not witness_mask or witness_mask & ~c:
        return False
    if any(d & ~up[i] for i in bits_of(witness_mask)):
        return False
    # E3: points above every curve of W and some curve of A stay inside D.
    common = fragment.all_h2_mask
    for i in bits_of(witness_mask):
        common &= up[i]
    return not any(up[i] & common & ~d for i in bits_of(a))


def ell(fragment: PosetFragment, node: NodeLike) -> int:
    """Number of curves of A below every point of B (at least 1 on members)."""
    a, b = require_member(fragment, node)
    return w_max(fragment, a, b).bit_count()


def eta(fragment: PosetFragment, node: NodeLike) -> int:
    """Number of curves of A not below every point of B."""
    a, b = require_member(fragment, node)
    return a.bit_count() - w_max(fragment, a, b).bit_count()


def fiber_height_positive(fragment: PosetFragment, node: NodeLike) -> bool:
    """True iff B is the minimal upper bound set of some K inside A.

    Any such K consists of curves below all of B, and shrinking K only grows
    its common upper set, so K exists iff the full set W = w_max(A, B) has
    at least two curves and common upper set exactly B.
    """
    a, b = require_member(fragment, node)
    if a.bit_count() > ENUM_CAP:
        raise ValueError(f"first ordinate larger than {ENUM_CAP}")
    w = w_max(fragment, a, b)
    return w.bit_count() >= 2 and fragment.common_h2_above(w) == b


def detect_I2(fragment: PosetFragment, node: NodeLike) -> bool:
    """Down set shaped like two points under one top: |A| = 2 and B = mub A."""
    a, b = require_member(fragment, node)
    return a.bit_count() == 2 and fragment.common_h2_above(a) == b


def join_above(fragment: PosetFragment, first: NodeLike, second: NodeLike,
               b: int, size_cap: int = 4) -> Optional[StrNode]:
    """Common upper node (K + A + C, {b}) for two nodes sharing the point b,
    built from a J3 witness disjoint from both first ordinates."""
    a1, b1 = require_member(fragment, first)
    a2, b2 = require_member(fragment, second)
    if not (b1 >> b & 1 and b2 >> b & 1):
        raise ValueError("both nodes must carry the point b")
    k = find_j3_witness(fragment, b, a1 | a2, size_cap)
    if k is None:
        return None
    return StrNode(k | a1 | a2, 1 << b)


def find_special_t(fragment: PosetFragment, s_mask: int, t_mask: int
                   ) -> Optional[int]:
    """Lowest height-one t outside S lying below every point of T; refuses
    the windows ``find_p5_witness`` refuses."""
    if not s_mask or not t_mask:
        raise ValueError("S and T must be nonempty")
    if s_mask & ~fragment.all_h1_mask:
        raise ValueError("S is not an h1 mask of this fragment")
    if t_mask & ~fragment.all_h2_mask:
        raise ValueError("T is not an h2 mask of this fragment")
    outside = fragment.common_h1_below(t_mask) & ~s_mask
    return (outside & -outside).bit_length() - 1 if outside else None


def find_special_t_recipe(fragment: PosetFragment, s_mask: int,
                          t_mask: int) -> Optional[int]:
    """``find_special_t`` by the constructive recipe: find a point v above
    nothing in S, then take the lowest curve below T plus v."""
    for v in range(fragment.n2):
        if fragment.down[v] & s_mask:
            continue
        cands = fragment.common_h1_below(t_mask | (1 << v))
        if cands:
            return (cands & -cands).bit_length() - 1
    return None


def mask_image_by_generators(mask: int, table) -> int:
    """``IsoMap.h1_mask_image`` / ``h2_mask_image`` as they were before the
    inline bit walk: ``mask_of`` over a generator over ``bits_of``."""
    return mask_of(table[i] for i in bits_of(mask))


def common_h2_above_by_generators(fragment: PosetFragment,
                                  h1_mask: int) -> int:
    """``PosetFragment.common_h2_above`` as it was before the inline bit
    walk: an AND of ``up`` over a ``bits_of`` generator."""
    acc = fragment.all_h2_mask
    for i in bits_of(h1_mask):
        acc &= fragment.up[i]
    return acc


def common_h1_below_by_generators(fragment: PosetFragment,
                                  h2_mask: int) -> int:
    """``PosetFragment.common_h1_below`` the same way, over ``down``."""
    acc = fragment.all_h1_mask
    for j in bits_of(h2_mask):
        acc &= fragment.down[j]
    return acc


def unmap(phi: StrIso, node: StrNode) -> StrNode:
    """The last domain node ``phi`` maps to ``node``, by a scan of the table;
    one probe."""
    phi.probes += 1
    for key, img in reversed(phi.table.items()):
        if img == node:
            return key
    raise KeyError(node)


def validate_all_pairs(phi, order_check: bool = True) -> list[str]:
    """``StrIso.validate`` as it was before it read the order off strict
    rows: the same audit with the order compared on every ordered pair of
    distinct domain nodes by ``str_leq_bruteforce``, so it shares no order
    code with the library.  The library version must return the same list
    in the same order."""
    problems = []
    codomain = list(phi.table.values())
    if len(set(phi.domain)) != len(phi.domain):
        problems.append("domain has repeated nodes")
    if len(set(codomain)) != len(codomain):
        problems.append("codomain has repeated nodes")
    images = []
    for node in phi.domain:
        img = phi.map(node)
        images.append(img)
        if not str_member(phi.fragment_y, img.masks()):
            problems.append(f"image of {node} is not a member pair")
        for side, fragment, problem in (
                (node, phi.fragment_x,
                 f"domain node {node} is not the ray node of its curve"),
                (img, phi.fragment_y,
                 f"image {img} of {node} is not the ray node of its curve")):
            if side.ray_of is None:
                continue
            try:
                own = side == ray_node(fragment, side.ray_of)
            except ValueError:
                own = False
            if not own:
                problems.append(problem)
        back = unmap(phi, img)
        if back != node:
            problems.append(f"inverse(map({node})) = {back}")
    if set(images) != set(codomain):
        problems.append("forward image differs from the codomain")
    for img in codomain:
        if phi.map(unmap(phi, img)) != img:
            problems.append(f"map(inverse({img})) != {img}")
    if problems or not order_check:
        return problems
    fx, fy = phi.fragment_x, phi.fragment_y
    pairs = list(zip(phi.domain, images))
    for i, (u, fu) in enumerate(pairs):
        for j, (v, fv) in enumerate(pairs):
            if i == j:
                continue
            # u <= v needs v's points within u's; same on the image side.
            x_possible = v.b_mask & ~u.b_mask == 0
            y_possible = fv.b_mask & ~fu.b_mask == 0
            if not (x_possible or y_possible):
                continue
            lx = x_possible and str_leq_bruteforce(fx, u, v)
            ly = y_possible and str_leq_bruteforce(fy, fu, fv)
            if lx != ly:
                problems.append(
                    f"order mismatch: {u} <= {v} is {lx} "
                    f"but image comparison gives {ly}")
                if len(problems) > 20:
                    return problems
    return problems


# -- reconstruction node by node ---------------------------------------------
#
# The round-trip stages as the library ran them before it built induced maps
# fiber by fiber and took one K-set pass per point: a domain list and a
# five-call image per node, a point map that maps each singleton-fiber node
# as its fiber is read, K-sets searched per (curve, point), and a
# factorization check that rebuilds each expected node.  ``enumerate_domain``
# lost only its ``fiber_support_cap`` truncation, which ``restrict_support``
# now applies to a built map.


def enumerate_domain(fragment: PosetFragment, spec: DomainSpec
                     ) -> list[StrNode]:
    nodes: list[StrNode] = []
    for m in range(fragment.n2):
        pool = list(bits_of(fragment.down[m]))
        for size in range(1, min(spec.k_cap, len(pool)) + 1):
            for combo in combinations(pool, size):
                nodes.append(StrNode(mask_of(combo), 1 << m))
    if spec.include_rays:
        nodes.extend(ray_node(fragment, x) for x in range(fragment.n1))
    return list(dict.fromkeys(nodes))


def _rho_image(rho: IsoMap, node: StrNode) -> StrNode:
    """The node (rho A, rho B), a ray node's tag carried along."""
    ray = None if node.ray_of is None else rho.h1_map[node.ray_of]
    return StrNode(rho.h1_mask_image(node.a_mask),
                   rho.h2_mask_image(node.b_mask), ray)


def induce_str_iso_by_domain(rho: IsoMap, spec: DomainSpec = DomainSpec()
                             ) -> StrIso:
    """Tabulate (A, B) -> (rho A, rho B) over the enumerated domain."""
    return StrIso(rho.source, rho.target,
                  {node: _rho_image(rho, node)
                   for node in enumerate_domain(rho.source, spec)})


def restrict_support(phi: StrIso, cap: int) -> StrIso:
    """``phi`` on its ray nodes and on the finite nodes whose first ordinate
    lies among the first ``cap`` curves below their point, in table order:
    the truncated domain ``DomainSpec.fiber_support_cap`` used to give."""
    fx = phi.fragment_x
    allowed = {1 << m: mask_of(list(bits_of(down))[:cap])
               for m, down in enumerate(fx.down)}
    return StrIso(fx, phi.fragment_y,
                  {node: img for node, img in phi.table.items()
                   if node.is_ray or not node.a_mask & ~allowed[node.b_mask]})


def k_sets(fragment: PosetFragment, x: int, size_cap: int = 3
           ) -> list[StrNode]:
    """All (K, {b}) with x in K, |K| <= size_cap and mub(K) = {b}, ordered by
    point then size then lexicographic K."""
    if not 0 <= x < fragment.n1:
        raise ValueError(f"h1 index {x} out of range")
    return [StrNode(k, 1 << b) for b in bits_of(fragment.up[x])
            for k in fragment.unique_point_sets(b, fragment.down[b],
                                                size_cap, base=1 << x)]


def rho2_from_phi_by_node(phi: StrIso, fibers, trace: ReconstructionTrace
                          ) -> dict[int, int]:
    """Point map from one witness per singleton fiber.

    Nodes are grouped by fiber from the domain list, and the first node of
    each fiber is mapped (one probe): its image must satisfy the element
    definition of a member pair over a single point, and that point is
    the fiber's image.  A failing image and an empty fiber become
    conflicts in ``trace``, and so does a point map that is no bijection.
    ``fibers`` is ignored.
    """
    fx, fy = phi.fragment_x, phi.fragment_y
    groups: dict[int, list[StrNode]] = {m: [] for m in range(fx.n2)}
    for node in phi.domain:
        if node.is_ray or node.b_mask.bit_count() != 1:
            continue
        groups[node.b_mask.bit_length() - 1].append(node)
    rho2: dict[int, int] = {}
    for m in range(fx.n2):
        if not groups[m]:
            trace.conflicts.append({"kind": "empty-fiber",
                                    "m": fx.h2_labels[m]})
            continue
        node = groups[m][0]
        img = phi.map(node)
        b = img.b_mask
        if not member_by_elements(fy, img.a_mask, b):
            trace.conflicts.append(
                {"kind": "image-not-member", "m": fx.h2_labels[m],
                 "node": node.to_json()})
        elif len(list(bits_of(b))) != 1:
            trace.conflicts.append(
                {"kind": "image-fiber-not-singleton",
                 "m": fx.h2_labels[m], "node": node.to_json(),
                 "image": img.to_json()})
        else:
            rho2[m] = next(bits_of(b))
            trace.rho2_table[m] = {"image": rho2[m],
                                   "witness": node.to_json()}
    if len(rho2) == fx.n2 and (len(set(rho2.values())) != fx.n2
                               or fx.n2 != fy.n2):
        trace.conflicts.append({"kind": "rho2-not-bijective",
                                "images": sorted(rho2.values())})
    return rho2


def rho1_from_psi_by_curve(psi: StrIso, size_cap: int, fibers,
                           trace: ReconstructionTrace) -> dict[int, int]:
    """Curve map by intersecting the first ordinates of K-set images.

    Each curve's literal K-sets up to ``size_cap`` that psi tabulates are
    taken by size, then point, then lexicographic K, and the curve stops
    after the first K-set at which its image intersection is a single
    curve.  Each (curve, K-set) pair is one ``psi.map`` call whose node and
    image are appended to ``trace.evidence`` and ``trace.images``, so a
    K-set cited by several curves is listed once per curve.  The image
    intersection always contains the true image, so a singleton answer is
    correct whenever psi really is induced by a relabeling; a larger
    intersection is recorded as an ambiguity, never guessed at.  A curve
    that no tabulated K-set holds, as on a map file over a truncated
    domain, is a conflict in ``trace``.  ``fibers`` is ignored.
    """
    fx, fy = psi.fragment_x, psi.fragment_y
    rho1: dict[int, int] = {}
    for x in range(fx.n1):
        nodes = sorted((n for n in k_sets(fx, x, size_cap) if n in psi.table),
                       key=lambda n: n.a_mask.bit_count())
        if not nodes:
            trace.conflicts.append({"kind": "no-k-set", "x": fx.h1_labels[x]})
            continue
        evidence = []
        inter = fy.all_h1_mask
        for node in nodes:
            img = psi.map(node)
            evidence.append(len(trace.evidence))
            trace.evidence.append(node)
            trace.images.append(img)
            if (img.b_mask.bit_count() != 1
                    or img.a_mask.bit_count() < 2
                    or fy.common_h2_above(img.a_mask) != img.b_mask):
                trace.conflicts.append(
                    {"kind": "image-not-k-set", "x": fx.h1_labels[x],
                     "node": node.to_json(), "image": img.to_json()})
            inter &= img.a_mask
            if inter.bit_count() == 1:
                break
        entry = {"intersection": list(bits_of(inter)), "evidence": evidence}
        if inter.bit_count() == 1:
            rho1[x] = inter.bit_length() - 1
            entry["image"] = rho1[x]
        else:
            entry["image"] = None
            trace.conflicts.append(
                {"kind": "rho1-ambiguous", "x": fx.h1_labels[x],
                 "intersection": [fy.h1_labels[i] for i in bits_of(inter)]})
        trace.rho1_table[x] = entry
    return rho1


# The conflict kinds the library emits and the README's reconstruct-report
# paragraph lists.
CONFLICT_KINDS = {
    "image-not-member", "image-fiber-not-singleton", "rho2-not-bijective",
    "empty-fiber", "image-not-k-set", "rho1-ambiguous", "ray-image-not-ray",
    "no-k-set", "incidence-violation", "factorization-violation",
    "not-the-hidden-map"}


def rho2_alone(phi: StrIso, stage=_rho2_from_phi
               ) -> tuple[dict[int, int], ReconstructionTrace]:
    """The point-map ``stage`` run on its own, as ``build_rho`` runs it: on
    phi's singleton fibers and a fresh trace; its map and that trace."""
    trace = ReconstructionTrace()
    return stage(phi, _singleton_fibers(phi), trace), trace


def rho1_alone(psi: StrIso, size_cap: int = 3, stage=_rho1_from_psi
               ) -> tuple[dict[int, int], ReconstructionTrace]:
    """The K-set ``stage`` run on its own, as ``build_rho`` runs it: on
    psi's singleton fibers and a fresh trace; its map and that trace."""
    trace = ReconstructionTrace()
    return stage(psi, size_cap, _singleton_fibers(psi), trace), trace


def oracle_stages():
    """A context in which ``build_rho`` runs the node-by-node stages
    ``rho2_from_phi_by_node`` and ``rho1_from_psi_by_curve``."""
    return mock.patch.multiple(reconstruction,
                               _rho2_from_phi=rho2_from_phi_by_node,
                               _rho1_from_psi=rho1_from_psi_by_curve)


def verify_factorization_by_node(phi: StrIso, rho: IsoMap) -> list[dict]:
    """Check phi(A, B) = (rho A, rho B) nodewise; each mismatch is a
    ``factorization-violation`` conflict that reports the pulled-back
    ordinates of the actual image next to A and B, skipping curves and
    points that fragment_y does not have."""
    inv = rho.inverse()
    violations = []
    for node in phi.domain:
        img = phi.map(node)
        expected = _rho_image(rho, node)
        if img != expected:
            violations.append(
                {"kind": "factorization-violation", "node": node.to_json(),
                 "image": img.to_json(), "expected": expected.to_json(),
                 "a_star": sorted(inv.h1_map[y] for y in bits_of(img.a_mask)
                                  if y < len(inv.h1_map)),
                 "b_star": sorted(inv.h2_map[y] for y in bits_of(img.b_mask)
                                  if y < len(inv.h2_map))})
    return violations


def extend_psi_to_phi(psi: StrIso, size_cap: int = 3) -> StrIso:
    """Grow a finite-nodes-only map to one defined on ray nodes as well,
    using the K-set curve map; raises with the trace when curves stay
    ambiguous."""
    rho1, trace = rho1_alone(psi, size_cap)
    if trace.conflicts:
        raise ReconstructionError("cannot extend: see trace", trace)
    fx, fy = psi.fragment_x, psi.fragment_y
    table = {node: img for node, img in psi.table.items() if not node.is_ray}
    for x in range(fx.n1):
        table[ray_node(fx, x)] = ray_node(fy, rho1[x])
    return StrIso(fx, fy, table)


def trace_v1(trace: dict) -> dict:
    """A printed ``ReconstructionTrace`` in its version-1 layout: no
    top-level evidence list, and each curve's positions spelled out as
    ``{"node": ..., "image": ...}`` objects in place."""
    pairs = trace["evidence"]
    return {"version": 1, "rho2": trace["rho2"],
            "rho1": {x: {**entry, "evidence": [
                {"node": pairs[i][0], "image": pairs[i][1]}
                for i in entry["evidence"]]}
                for x, entry in trace["rho1"].items()},
            "conflicts": trace["conflicts"]}


def spell_trace(report: dict) -> dict:
    """A parsed ``reconstruct`` report with its trace in version-1 layout,
    so that its ``json_text`` is the bytes the verb printed before the
    trace listed each pair once."""
    return {**report, "trace": trace_v1(report["trace"])}


def census_fragments(max_n1: int, max_n2: int) -> list[PosetFragment]:
    """One fragment per class, up to relabeling within each tier, of the
    fragments with 1..max_n1 curves and 1..max_n2 points in which every
    curve lies below some point and every point above some curve.

    A class is a multiset of nonempty upper sets that covers every point;
    its key is the smallest sorted tuple of upper sets over all point
    permutations.  Up to 5 curves and 3 points there are 189 classes."""
    classes = []
    for n2 in range(1, max_n2 + 1):
        perms = list(permutations(range(n2)))
        full = (1 << n2) - 1
        for n1 in range(1, max_n1 + 1):
            seen = set()
            for ups in combinations_with_replacement(range(1, full + 1), n1):
                if mask_of(j for u in ups for j in bits_of(u)) != full:
                    continue
                key = min(tuple(sorted(mask_of(p[j] for j in bits_of(u))
                                       for u in ups)) for p in perms)
                if key not in seen:
                    seen.add(key)
                    classes.append(PosetFragment(
                        n1, n2, [(i, j) for i, u in enumerate(key)
                                 for j in bits_of(u)]))
    return classes


def eval_poly_label(label: str, a: int, b: int, p: int) -> int:
    """Evaluate a printed polynomial like '1+x*y+x^2' at (a, b) mod p.

    Parses the label from scratch so the check is independent of the
    generator's coefficient bookkeeping."""
    total = 0
    for term in label.split("+"):
        value = 1
        for factor in term.split("*"):
            if "^" in factor:
                base, exp = factor.split("^")
                exp = int(exp)
            else:
                base, exp = factor, 1
            if base == "x":
                value *= pow(a, exp, p)
            elif base == "y":
                value *= pow(b, exp, p)
            else:
                value *= int(base) ** exp
        total += value
    return total % p
