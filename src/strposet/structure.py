"""Pairs-of-sets order built on top of a fragment.

A node is a pair (A, B), A a set of curves and B a set of points, where some
curve of A lies below every point of B.  A ray node is the pair a single
curve makes with its whole upper set.  One node sits above another when it
dominates it through a witness set W: the dominating first ordinate strictly
grows, the second shrinks, W lies in the dominating first ordinate below its
second, and every point above W and any dominated curve already belongs to
the dominating second ordinate.

All second-ordinate quantifiers range over the fragment's own points; that
is the only computable reading on a finite window and it makes the relation
slightly coarser than the idealized one, which is called out where it
matters (see ray shadows in ``tests``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from types import MethodType
from typing import NamedTuple, Optional, Union

from .core import HARD_MAX_TIER, PosetFragment, bit_list, bits_of, mask_of

ENUM_CAP = 16    # largest set whose subsets a walk may visit

NodeLike = Union["StrNode", tuple[int, int]]


class StrNode(NamedTuple):
    """A pair node; ``ray_of`` marks the materialization of (x, upper set of x).

    Ray and finite nodes with the same masks compare unequal on purpose: the
    reconstruction treats them differently.  As a named tuple a node hashes,
    compares and sorts as the plain tuple ``(a_mask, b_mask, ray_of)``.
    """

    a_mask: int
    b_mask: int
    ray_of: Optional[int] = None

    @property
    def is_ray(self) -> bool:
        return self.ray_of is not None

    def masks(self) -> tuple[int, int]:
        return self.a_mask, self.b_mask

    def to_json(self) -> dict:
        return {"a": bit_list(self.a_mask), "b": bit_list(self.b_mask),
                "ray": self.ray_of}

    @classmethod
    def from_json(cls, obj: dict) -> "StrNode":
        """Ordinates are lists of indices below ``HARD_MAX_TIER`` and ``ray``
        is such an index or null; anything else raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"node is not an object: {obj!r}")
        ray = obj.get("ray")
        if ray is not None and (type(ray) is not int
                                or not 0 <= ray < HARD_MAX_TIER):
            raise ValueError(f"node ray is not an index or null: {ray!r}")
        return node_from_tuple((_index_mask(obj, "a"), _index_mask(obj, "b"),
                                ray))


# ``StrNode(a, b)`` runs the named tuple's Python-level ``__new__``;
# ``node_from_tuple((a, b, ray))`` builds the same node through
# ``tuple.__new__`` directly, for loops that make one node per K-set.
node_from_tuple = MethodType(tuple.__new__, StrNode)


def _index_mask(obj: dict, key: str) -> int:
    """``mask_of(obj.get(key))`` for a list of indices below HARD_MAX_TIER;
    ValueError for anything else (``type`` keeps booleans out)."""
    value = obj.get(key)
    if type(value) is list:
        mask = 0
        for i in value:
            if type(i) is not int or not 0 <= i < HARD_MAX_TIER:
                break
            mask |= 1 << i
        else:
            return mask
    raise ValueError(f"node ordinate {key!r} is not a list of indices "
                     f"below {HARD_MAX_TIER}: {value!r}")


def finite_node(a_mask: int, b_mask: int) -> StrNode:
    return StrNode(a_mask, b_mask)


def ray_node(fragment: PosetFragment, x: int) -> StrNode:
    """The pair a curve makes with every point above it."""
    if not 0 <= x < fragment.n1:
        raise ValueError(f"h1 index {x} out of range")
    up = fragment.up[x]
    if not up:
        raise ValueError(f"curve {x} has no points above it")
    return StrNode(1 << x, up, ray_of=x)


def _masks(node: NodeLike) -> tuple[int, int]:
    if isinstance(node, StrNode):
        return node.a_mask, node.b_mask
    a, b = node
    return a, b


def _check_masks(fragment: PosetFragment, a_mask: int, b_mask: int) -> None:
    if a_mask < 0 or a_mask & ~fragment.all_h1_mask:
        raise ValueError("first ordinate is not an h1 mask of this fragment")
    if b_mask < 0 or b_mask & ~fragment.all_h2_mask:
        raise ValueError("second ordinate is not an h2 mask of this fragment")


def _member(fragment: PosetFragment, a_mask: int, b_mask: int) -> bool:
    """Some curve of A below every point of B, both nonempty masks of the
    tiers; an empty, negative or out-of-tier ordinate is a plain no."""
    return (0 < a_mask and 0 < b_mask and not a_mask >> fragment.n1
            and not b_mask >> fragment.n2
            and a_mask & fragment.common_h1_below(b_mask) != 0)


def str_member(fragment: PosetFragment, node: NodeLike) -> bool:
    """``_member``, with ValueError for a mask outside the tiers."""
    a_mask, b_mask = _masks(node)
    _check_masks(fragment, a_mask, b_mask)
    return _member(fragment, a_mask, b_mask)


def require_member(fragment: PosetFragment, node: NodeLike) -> tuple[int, int]:
    if not str_member(fragment, node):
        a, b = _masks(node)
        raise ValueError(f"not a member pair: A={a:#x} B={b:#x}")
    return _masks(node)


def w_max(fragment: PosetFragment, c_mask: int, d_mask: int) -> int:
    """All curves of C below every point of D: the canonical witness set."""
    _check_masks(fragment, c_mask, d_mask)
    return c_mask & fragment.common_h1_below(d_mask)


def _bad(fragment: PosetFragment, c: int, d: int) -> int:
    """Curves of C that share a point outside D with every curve of
    w_max(C, D): the curves no node dominated by (C, D) may hold (E3)."""
    outside = fragment.common_h2_above(c & fragment.common_h1_below(d)) & ~d
    reach = 0
    for p in bits_of(outside):
        reach |= fragment.down[p]
    return c & reach


def _leq_masks(fragment: PosetFragment, a: int, b: int, c: int, d: int) -> bool:
    """Order test on member pairs, whose w_max is never empty; no membership
    validation (hot path)."""
    if a == c and b == d:
        return True
    if a & ~c or a == c or d & ~b:
        return False
    return not a & _bad(fragment, c, d)


def _same_node(lower: NodeLike, upper: NodeLike) -> bool:
    """Equality across representations; bare tuples count as finite nodes."""
    lray = lower.ray_of if isinstance(lower, StrNode) else None
    uray = upper.ray_of if isinstance(upper, StrNode) else None
    return lray == uray and _masks(lower) == _masks(upper)


def str_leq(fragment: PosetFragment, lower: NodeLike, upper: NodeLike) -> bool:
    """Equality or domination via the canonical witness w_max(C, D).

    Any successful witness sits inside w_max and enlarging a witness keeps
    E2 and weakens E3's hypothesis, so this single check is complete.

    A ray and a finite node can materialize to the same masks inside the
    window; they are still different nodes (the ray's point set is open
    ended), and since domination needs a strictly larger first ordinate,
    neither is below the other.
    """
    a, b = require_member(fragment, lower)
    c, d = require_member(fragment, upper)
    if a == c and b == d:
        return _same_node(lower, upper)
    return _leq_masks(fragment, a, b, c, d)


def _strict_rows(fragment: PosetFragment, nodes: list[NodeLike]) -> list[int]:
    """Bit j of row i is set when member node i lies strictly below member
    node j: A_i is a subset of A_j & ~_bad(A_j, B_j) other than A_j, and
    B_i contains B_j.  No order test and no membership validation.

    Each node walks those subsets through an index from first ordinate to
    positions, unless it has more of them than there are distinct first
    ordinates; then it scans those instead."""
    positions: dict[int, list[int]] = {}
    for i, node in enumerate(nodes):
        positions.setdefault(node[0], []).append(i)
    rows = [0] * len(nodes)
    for j, node in enumerate(nodes):
        a, b = node[0], node[1]
        allowed = a & ~_bad(fragment, a, b)
        if 1 << allowed.bit_count() > len(positions):
            subs = [s for s in positions if s and not s & ~allowed]
        else:
            subs, sub = [], allowed
            while sub:
                subs.append(sub)
                sub = (sub - 1) & allowed
        bit = 1 << j
        for sub in subs:
            if sub != a:
                for i in positions.get(sub, ()):
                    if not b & ~nodes[i][1]:
                        rows[i] |= bit
    return rows


def str_leq_bruteforce(fragment: PosetFragment, lower: NodeLike,
                       upper: NodeLike) -> bool:
    """Reference order test trying every nonempty witness W inside C."""
    a, b = require_member(fragment, lower)
    c, d = require_member(fragment, upper)
    if a == c and b == d:
        return _same_node(lower, upper)
    if c.bit_count() > ENUM_CAP:
        raise ValueError(f"first ordinate larger than {ENUM_CAP}")
    if a & ~c or a == c or d & ~b:
        return False
    up = fragment.up
    w = c
    while w:
        ok = True
        for i in bits_of(w):
            if d & ~up[i]:
                ok = False
                break
        if ok:
            common = fragment.all_h2_mask
            for i in bits_of(w):
                common &= up[i]
            for i in bits_of(a):
                if up[i] & common & ~d:
                    ok = False
                    break
            if ok:
                return True
        w = (w - 1) & c
    return False


def has_strictly_smaller(fragment: PosetFragment, node: NodeLike) -> bool:
    """True iff some member node sits strictly below (A, B) in the fiber:
    |A| >= 2 and ``_bad(A, B)`` is empty.  (``_bad`` is empty or holds all
    of w_max(A, B), which every member (A', B) meets.)

    Positive height in this sense is weaker than B being the minimal upper
    bound set of some K inside A: a node whose single fully-below curve w
    has upper set B sits above the one-curve node (w, B), yet no such K
    exists, since a K needs two curves (the ray shadows in the tests).
    """
    a, b = require_member(fragment, node)
    return a.bit_count() >= 2 and not _bad(fragment, a, b)


@dataclass
class FiberView:
    """A finite slice of the pair order with one fixed second ordinate.

    ``leq_rows[i]`` has bit j set when node i is below-or-equal node j.
    """

    fragment: PosetFragment
    b_mask: int
    support_mask: int
    amax: int
    nodes: list[StrNode]
    leq_rows: list[int]

    def __len__(self) -> int:
        return len(self.nodes)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.leq_rows[i] >> j & 1)

    def covers(self) -> list[tuple[int, int]]:
        n = len(self.nodes)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq(i, j):
                    continue
                if not any(k != i and k != j and self.leq(i, k)
                           and self.leq(k, j) for k in range(n)):
                    out.append((i, j))
        return sorted(out)

    def to_json(self) -> dict:
        return {"version": 1,
                "b": list(bits_of(self.b_mask)),
                "support": list(bits_of(self.support_mask)),
                "amax": self.amax,
                "nodes": [n.to_json() for n in self.nodes],
                "node_labels": [format_node(self.fragment, n)
                                for n in self.nodes],
                "covers": [list(c) for c in self.covers()]}

    def to_dot(self, include_via: bool = True) -> str:
        frag, edges = self.fragment, []
        for i, j in self.covers():
            label = None
            if include_via:
                via = w_max(frag, self.nodes[j].a_mask, self.nodes[j].b_mask)
                label = "{" + ",".join(frag.h1_mask_labels(via)) + "}"
            edges.append((i, j, label))
        labels = [format_node(frag, node) for node in self.nodes]
        return _dot_graph("strfiber", labels, edges)


def _dot_quoted(text: str) -> str:
    """``text`` as a DOT quoted string: each backslash and double quote
    escaped with a backslash, every other character as it is."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_graph(name: str, labels: list[str], edges: list) -> str:
    """DOT text: node i is ``n<i>`` labelled ``labels[i]``, so equal labels
    never merge nodes, and an edge (i, j, label or None) is n<i> -> n<j>."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f"  n{i} [label={_dot_quoted(label)}];"
              for i, label in enumerate(labels)]
    for i, j, label in edges:
        attrs = "" if label is None else f" [label={_dot_quoted(label)}]"
        lines.append(f"  n{i} -> n{j}{attrs};")
    return "\n".join(lines) + "\n}\n"


def format_node(fragment: PosetFragment, node: StrNode) -> str:
    a = ",".join(fragment.h1_mask_labels(node.a_mask))
    b = ",".join(fragment.h2_mask_labels(node.b_mask))
    if node.is_ray:
        return f"(ray {fragment.h1_labels[node.ray_of]}|{b})"
    return f"({a}|{b})"


def _build_view(fragment: PosetFragment, b_mask: int, nodes: list[StrNode],
                support_mask: int, amax: int) -> FiberView:
    nodes = sorted(nodes, key=lambda n: (n.a_mask.bit_count(), n.a_mask))
    n = len(nodes)
    rows = [0] * n
    for i in range(n):
        ai, bi = nodes[i].masks()
        for j in range(n):
            aj, bj = nodes[j].masks()
            if _leq_masks(fragment, ai, bi, aj, bj):
                rows[i] |= 1 << j
    return FiberView(fragment, b_mask, support_mask, amax, nodes, rows)


def enumerate_fiber(fragment: PosetFragment, b_mask: int, support_mask: int,
                    amax: int) -> FiberView:
    """All member pairs (A, B) with A inside the support and |A| <= amax."""
    _check_masks(fragment, support_mask, b_mask)
    if not b_mask:
        raise ValueError("second ordinate must be nonempty")
    if amax < 1 or amax > ENUM_CAP:
        raise ValueError(f"amax must be in 1..{ENUM_CAP}")
    idxs = list(bits_of(support_mask))
    below = fragment.common_h1_below(b_mask)
    nodes = []
    for size in range(1, min(amax, len(idxs)) + 1):
        for combo in combinations(idxs, size):
            a = mask_of(combo)
            if a & below:
                nodes.append(StrNode(a, b_mask))
    return _build_view(fragment, b_mask, nodes, support_mask, amax)


def _down_set(fragment: PosetFragment, a: int, b: int) -> list[int]:
    """First ordinates of the members (A', B) below (A, B), descending: A,
    then the nonempty subsets of A & ~_bad(A, B) meeting common_h1_below(B).
    E1 keeps them inside A and ``_bad`` is E3, so none needs an order test."""
    if a.bit_count() > ENUM_CAP:
        raise ValueError(f"first ordinate larger than {ENUM_CAP}")
    below = fragment.common_h1_below(b)
    allowed = a & ~_bad(fragment, a, b)
    subs = [a]
    sub = allowed
    while sub:
        if sub != a and sub & below:
            subs.append(sub)
        sub = (sub - 1) & allowed
    return subs


def down_set_in_fiber(fragment: PosetFragment, node: NodeLike) -> FiberView:
    """The view on the members (A', B) below (A, B); a ray, whose one curve
    has no proper nonempty subset, is alone in its view."""
    a, b = require_member(fragment, node)
    top = node if isinstance(node, StrNode) else StrNode(a, b)
    nodes = [top] + [StrNode(sub, b) for sub in _down_set(fragment, a, b)[1:]]
    return _build_view(fragment, b, nodes, a, a.bit_count())


def counting_formula(fragment: PosetFragment, node: NodeLike
                     ) -> tuple[int, int]:
    """(predicted, actual) size of the down set inside the fiber.

    Predicted is (2**l - 1) * 2**e from the split of A into curves below all
    of B (l of them) and the rest (e).  Only defined on nodes with something
    strictly below them; on height-zero nodes the down set is the node
    itself and the formula says nothing.
    """
    a, b = require_member(fragment, node)
    if not has_strictly_smaller(fragment, (a, b)):
        raise ValueError("counting formula needs a positive-height node")
    l = w_max(fragment, a, b).bit_count()
    e = a.bit_count() - l
    predicted = (2 ** l - 1) * 2 ** e
    actual = len(_down_set(fragment, a, b))
    return predicted, actual


def parity_mub_check(fragment: PosetFragment, node: NodeLike) -> bool:
    """Whether (B = mub A) agrees with |down set| being odd.

    Meaningful only above height zero: a height-zero down set is the node
    alone, always odd, while B is never mub(A) there."""
    a, b = require_member(fragment, node)
    if not has_strictly_smaller(fragment, (a, b)):
        raise ValueError("parity check needs a positive-height node")
    odd = len(_down_set(fragment, a, b)) % 2 == 1
    is_mub = a.bit_count() >= 2 and fragment.common_h2_above(a) == b
    return is_mub == odd


def mu_statistic(fragment: PosetFragment, x: int, m: int, amax: int = 4
                 ) -> tuple[Union[int, float], bool]:
    """Smallest positive-height down-set size in the fiber over {m} among
    pairs whose first ordinate contains x, plus the no-partner flag.

    Returns (mu, ge4) where mu is math.inf when no qualifying pair exists
    within the size budget.  ge4 is computed independently: no curve y pairs
    with x so that their only common point is m.

    Junk curves double the count and curves outside down(m) never help the
    witness set, so the minimum is realized on subsets of down(m); when x
    itself is not below m it is the single unavoidable junk element.
    """
    if not 0 <= x < fragment.n1:
        raise ValueError(f"h1 index {x} out of range")
    if not 0 <= m < fragment.n2:
        raise ValueError(f"h2 index {m} out of range")
    if amax < 2:
        raise ValueError("amax must be at least 2")
    ge4 = not any(y != x and fragment.up[x] & fragment.up[y] == 1 << m
                  for y in range(fragment.n1))
    pool = fragment.down[m]
    if pool >> x & 1:
        sets = fragment.unique_point_sets(m, pool, amax, base=1 << x)
        junk = 0
    else:
        sets = fragment.unique_point_sets(m, pool, amax - 1)
        junk = 1
    k = next(sets, None)
    if k is None:
        return math.inf, ge4
    return (2 ** k.bit_count() - 1) * 2 ** junk, ge4
