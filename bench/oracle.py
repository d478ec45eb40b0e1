"""Independent routes the benchmark checks program outputs against.

Nothing here imports the package under test: fragments are read only
through their ``n1``/``n2``/``up``/``down`` tables, and fragment files through
``Tables``.
"""

from __future__ import annotations

import hashlib
from itertools import combinations


class Tables:
    """Incidence tables of a fragment file, read without the package."""

    def __init__(self, obj: dict):
        self.n1, self.n2 = obj["n1"], obj["n2"]
        self.up = [0] * self.n1
        self.down = [0] * self.n2
        for i, j in obj["incidence"]:
            self.up[i] |= 1 << j
            self.down[j] |= 1 << i
        names = obj.get("labels") or {}
        self.h1_labels = names.get("h1") or [f"x{i}" for i in range(self.n1)]
        self.h2_labels = names.get("h2") or [f"m{j}" for j in range(self.n2)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def below_all(fragment, b_mask: int) -> int:
    """Curves lying below every point of B."""
    acc = (1 << fragment.n1) - 1
    for j in bits(b_mask):
        acc &= fragment.down[j]
    return acc


def common_up(fragment, a_mask: int) -> int:
    acc = (1 << fragment.n2) - 1
    for i in bits(a_mask):
        acc &= fragment.up[i]
    return acc


def breaking_curves(fragment, c_mask: int, b_mask: int) -> int:
    """Curves that stop a subset of C from lying below (C, B) in its fiber.

    Inside one fiber the canonical witness is W = C & below_all(B); a curve
    a breaks domination when some point above a and above all of W lies
    outside B.  So (A', B) <= (C, B) iff A' is a proper subset of C
    avoiding these curves.
    """
    common = common_up(fragment, c_mask & below_all(fragment, b_mask))
    out = 0
    for i in bits(c_mask):
        if fragment.up[i] & common & ~b_mask:
            out |= 1 << i
    return out


def leq_literal(fragment, lower: tuple, upper: tuple) -> bool:
    """The order's literal definition, trying every witness set W: A is a
    proper subset of C, D lies inside B, W is a nonempty subset of C below
    every point of D, and every point above all of W and above some curve
    of A lies in D."""
    (a, b), (c, d) = lower, upper
    if (a, b) == (c, d):
        return True
    if a & ~c or a == c or d & ~b:
        return False
    w = c
    while w:
        if all(d & ~fragment.up[i] == 0 for i in bits(w)):
            common = common_up(fragment, w)
            if all(fragment.up[i] & common & ~d == 0 for i in bits(a)):
                return True
        w = (w - 1) & c
    return False


def fiber_rows(fragment, b_mask: int, a_masks: list[int]) -> list[int]:
    """Order rows of a fiber by walking the subsets of each upper node:
    bit j of row i is set when node i is below-or-equal node j."""
    index = {a: i for i, a in enumerate(a_masks)}
    rows = [1 << i for i in range(len(a_masks))]
    for j, c in enumerate(a_masks):
        free = c & ~breaking_curves(fragment, c, b_mask)
        sub = free
        while sub:
            i = index.get(sub)
            if i is not None and sub != c:
                rows[i] |= 1 << j
            sub = (sub - 1) & free
    return rows


def transitive_reduction(rows: list[int]) -> list[tuple[int, int]]:
    """Cover pairs (i, j) of a reflexive order given as bitset rows: the
    strict row of i minus everything reachable through a strict successor."""
    strict = [r & ~(1 << i) for i, r in enumerate(rows)]
    out = []
    for i, row in enumerate(strict):
        through = 0
        for k in bits(row):
            through |= strict[k]
        out.extend((i, j) for j in bits(row & ~through))
    return sorted(out)


def fiber_members(fragment, b_mask: int, support: list[int], amax: int
                  ) -> list[int]:
    """First ordinates of the member pairs (A, B) with A inside the support
    and |A| <= amax, in the documented node order (size, then mask)."""
    carriers = below_all(fragment, b_mask)
    out = []
    for size in range(1, min(amax, len(support)) + 1):
        for combo in combinations(support, size):
            a = sum(1 << i for i in combo)
            if a & carriers:
                out.append(a)
    return sorted(out, key=lambda a: (a.bit_count(), a))


def down_set(fragment, a_mask: int, b_mask: int) -> list[int]:
    """First ordinates of the down set of (A, B) inside its fiber."""
    carriers = below_all(fragment, b_mask)
    free = a_mask & ~breaking_curves(fragment, a_mask, b_mask)
    out = [a_mask]
    sub = free
    while sub:
        if sub != a_mask and sub & carriers:
            out.append(sub)
        sub = (sub - 1) & free
    return sorted(out)


def mu_value(fragment, x: int, m: int, amax: int):
    """Closed form of the mu statistic by a set-based search: the smallest
    K inside the curves below m whose only common point is m, containing x
    when x is below m (size s gives 2**s - 1) and otherwise paid for by x as
    one junk curve (doubling the count)."""
    up = [frozenset(bits(u)) for u in fragment.up]
    pool = [i for i in bits(fragment.down[m])]
    target = frozenset([m])
    if x in pool:
        rest = [i for i in pool if i != x]
        for size in range(2, amax + 1):
            for combo in combinations(rest, size - 1):
                if up[x].intersection(*(up[i] for i in combo)) == target:
                    return 2 ** size - 1
        return "infinity"
    for size in range(2, amax):
        for combo in combinations(pool, size):
            if frozenset.intersection(*(up[i] for i in combo)) == target:
                return (2 ** size - 1) * 2
    return "infinity"


def has_partner_at(fragment, x: int, m: int) -> bool:
    return any(y != x and fragment.up[x] & fragment.up[y] == 1 << m
               for y in range(fragment.n1))


def p5_witness_exists(fragment, s_combo, t_combo) -> bool:
    """Some curve below all of T such that every point above it and above a
    member of S already lies in T."""
    t_set = set(t_combo)
    for w in range(fragment.n1):
        above_w = set(bits(fragment.up[w]))
        if not t_set <= above_w:
            continue
        if all(above_w & set(bits(fragment.up[s])) <= t_set for s in s_combo):
            return True
    return False


def eval_poly(label: str, a: int, b: int, p: int) -> int:
    """Evaluate an affine curve label such as '1+2*x+x^2*y' at (a, b) mod p."""
    total = 0
    for term in label.split("+"):
        value = 1
        for factor in term.split("*"):
            base, _, exp = factor.partition("^")
            power = int(exp) if exp else 1
            if base == "x":
                value *= a ** power
            elif base == "y":
                value *= b ** power
            else:
                value *= int(base)
        total += value
    return total % p
