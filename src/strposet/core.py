"""Core two-tier poset fragments.

A fragment is a finite poset with three levels: a unique minimum, a tier X1 of
height-one elements ("curves"), and a tier X2 of height-two elements
("points").  The only nontrivial order data is the bipartite incidence
between X1 and X2; elements within a tier are pairwise incomparable and the
minimum sits below everything.

Subsets of a tier travel as integer bitmasks (bit i set = element i of that
tier is in the set).  Fragments are immutable once constructed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

HARD_MAX_TIER = 512


def check_tier_sizes(n1: int, n2: int) -> None:
    """The one tier limit: each tier holds 0..HARD_MAX_TIER elements."""
    if n1 < 0 or n2 < 0:
        raise ValueError("tier sizes must be nonnegative")
    if n1 > HARD_MAX_TIER or n2 > HARD_MAX_TIER:
        raise ValueError(
            f"tier size exceeds cap {HARD_MAX_TIER} (n1={n1}, n2={n2})")


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """``list(bits_of(mask))`` walked inline: a fresh list per call."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_image(mask: int, table: Sequence[int]) -> int:
    """Mask of ``table[i]`` over the set bits i of ``mask``: the image of a
    tier subset under an index map, walked inline (no generators)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(slots=True)
class ValidationReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {"version": 1, "ok": self.ok, "problems": list(self.problems)}


class PosetFragment:
    """Immutable fragment with ``n1`` height-one and ``n2`` height-two elements.

    The constructor takes the strict relations (i, j), meaning h1[i] <
    h2[j], and keeps them only as masks: ``up[i]`` holds the points above
    curve i, ``down[j]`` the curves below point j.  Labels are display
    strings only; they carry no order information.
    """

    __slots__ = ("n1", "n2", "h1_labels", "h2_labels", "up", "down", "_hash")

    def __init__(self, n1: int, n2: int,
                 incidence: Iterable[tuple[int, int]],
                 h1_labels: Optional[Sequence[str]] = None,
                 h2_labels: Optional[Sequence[str]] = None):
        check_tier_sizes(n1, n2)
        up = [0] * n1
        down = [0] * n2
        for i, j in incidence:
            if not (0 <= i < n1):
                raise ValueError(f"h1 index {i} out of range (n1={n1})")
            if not (0 <= j < n2):
                raise ValueError(f"h2 index {j} out of range (n2={n2})")
            up[i] |= 1 << j
            down[j] |= 1 << i
        self.n1 = n1
        self.n2 = n2
        self.h1_labels = self._check_labels(h1_labels, n1, "h1", "x")
        self.h2_labels = self._check_labels(h2_labels, n2, "h2", "m")
        self.up = tuple(up)
        self.down = tuple(down)
        self._hash = hash((n1, n2, self.up, self.h1_labels, self.h2_labels))

    @staticmethod
    def _check_labels(labels: Optional[Sequence[str]], n: int, tier: str,
                      prefix: str) -> tuple[str, ...]:
        if labels is None:
            return tuple(f"{prefix}{i}" for i in range(n))
        if (not isinstance(labels, (list, tuple))
                or not all(type(s) is str for s in labels)):
            raise ValueError(f"{tier} labels must be null or a list of "
                             f"strings, got {labels!r}")
        if len(labels) != n:
            raise ValueError(f"{tier}: expected {n} labels, got {len(labels)}")
        return tuple(labels)

    # -- identity ---------------------------------------------------------

    def __setattr__(self, name, value):
        if hasattr(self, "_hash"):
            raise AttributeError("PosetFragment is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PosetFragment)
                and self.n1 == other.n1 and self.n2 == other.n2
                and self.up == other.up
                and self.h1_labels == other.h1_labels
                and self.h2_labels == other.h2_labels)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"PosetFragment(n1={self.n1}, n2={self.n2}, |incidence|="
                f"{sum(mask.bit_count() for mask in self.up)})")

    # -- masks ------------------------------------------------------------

    @property
    def all_h1_mask(self) -> int:
        return (1 << self.n1) - 1

    @property
    def all_h2_mask(self) -> int:
        return (1 << self.n2) - 1

    def common_h2_above(self, h1_mask: int) -> int:
        """Points above every curve in the mask (all points for the empty
        mask); the bits are walked inline, as in ``mask_image``."""
        acc, up = (1 << self.n2) - 1, self.up
        while h1_mask:
            low = h1_mask & -h1_mask
            acc &= up[low.bit_length() - 1]
            h1_mask ^= low
        return acc

    def common_h1_below(self, h2_mask: int) -> int:
        """Curves below every point in the mask (all curves for the empty
        mask); the bits are walked inline, as in ``mask_image``."""
        acc, down = (1 << self.n1) - 1, self.down
        while h2_mask:
            low = h2_mask & -h2_mask
            acc &= down[low.bit_length() - 1]
            h2_mask ^= low
        return acc

    def unique_point_sets(self, m: int, pool: int, max_size: int,
                          base: int = 0) -> Iterator[int]:
        """Every K = base + S with S a nonempty subset of pool \\ base,
        2 <= |K| <= max_size and common upper set exactly {m}, as h1 masks.

        Yields by size, then lexicographically in S: the order
        ``itertools.combinations`` gives over the ascending pool.  Each
        prefix of S carries its running common upper set, so a candidate
        costs one intersection.  Shrinking K only grows its common upper
        set, so when base + pool has a common point other than m no K
        exists and nothing is tried.
        """
        target = 1 << m
        if self.common_h2_above(base | pool) & ~target:
            return
        idxs = list(bits_of(pool & ~base))
        ups = [self.up[i] for i in idxs]
        n = len(idxs)

        def grow(acc: int, lo: int, need: int, chosen: int) -> Iterator[int]:
            if need == 1:
                for j in range(lo, n):
                    if acc & ups[j] == target:
                        yield chosen | 1 << idxs[j]
                return
            for j in range(lo, n - need + 1):
                yield from grow(acc & ups[j], j + 1, need - 1,
                                chosen | 1 << idxs[j])

        nbase = base.bit_count()
        start = self.common_h2_above(base)
        for size in range(max(2 - nbase, 1), min(max_size - nbase, n) + 1):
            yield from grow(start, 0, size, base)

    def dim(self) -> int:
        """Length of the longest chain minus one."""
        if any(self.down):
            return 2
        if self.n1 or self.n2:
            return 1
        return 0

    # -- labels -----------------------------------------------------------

    def h1_mask_labels(self, mask: int) -> list[str]:
        return [self.h1_labels[i] for i in bits_of(mask)]

    def h2_mask_labels(self, mask: int) -> list[str]:
        return [self.h2_labels[j] for j in bits_of(mask)]

    def resolve_h1_label(self, label: str) -> int:
        return _resolve(label, self.h1_labels, "h1")

    def resolve_h2_label(self, label: str) -> int:
        return _resolve(label, self.h2_labels, "h2")


def _resolve(label: str, labels: Sequence[str], tier_name: str) -> int:
    hits = [i for i, s in enumerate(labels) if s == label]
    if not hits:
        raise KeyError(f"no {tier_name} element labeled {label!r}")
    if len(hits) > 1:
        raise KeyError(f"label {label!r} is ambiguous in tier {tier_name}")
    return hits[0]


def validate(fragment: PosetFragment) -> ValidationReport:
    """Structural invariants beyond what the constructor enforces.

    An empty report means the fragment is usable by every other operation.
    """
    report = ValidationReport()
    if fragment.n1 == 0:
        report.problems.append("X1 is empty")
    if fragment.n2 == 0:
        report.problems.append("X2 is empty")
    for j in range(fragment.n2):
        if not fragment.down[j]:
            report.problems.append(
                f"h2 element {j} ({fragment.h2_labels[j]}) has no h1 below it")
    return report


@dataclass(frozen=True)
class IsoMap:
    """Tier-preserving isomorphism between two fragments.

    ``h1_map[i]`` is the image index of h1[i] in the target, likewise
    ``h2_map``.  Construction fails unless the maps are bijections that
    preserve incidence in both directions.
    """

    source: PosetFragment
    target: PosetFragment
    h1_map: tuple[int, ...]
    h2_map: tuple[int, ...]

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src.n1 != tgt.n1 or src.n2 != tgt.n2:
            raise ValueError("fragments differ in tier sizes")
        if sorted(self.h1_map) != list(range(src.n1)):
            raise ValueError("h1_map is not a bijection")
        if sorted(self.h2_map) != list(range(src.n2)):
            raise ValueError("h2_map is not a bijection")
        for i, up in enumerate(src.up):
            if mask_image(up, self.h2_map) != tgt.up[self.h1_map[i]]:
                raise ValueError("map does not preserve incidence")

    def h1_mask_image(self, mask: int) -> int:
        return mask_image(mask, self.h1_map)

    def h2_mask_image(self, mask: int) -> int:
        return mask_image(mask, self.h2_map)

    def inverse(self) -> "IsoMap":
        inv1 = [0] * len(self.h1_map)
        inv2 = [0] * len(self.h2_map)
        for i, y in enumerate(self.h1_map):
            inv1[y] = i
        for j, y in enumerate(self.h2_map):
            inv2[y] = j
        return IsoMap(self.target, self.source, tuple(inv1), tuple(inv2))

    def to_json(self) -> dict:
        return {"version": 1, "h1_map": list(self.h1_map),
                "h2_map": list(self.h2_map)}


def relabel(fragment: PosetFragment, seed: int,
            h1_perm: Optional[Sequence[int]] = None,
            h2_perm: Optional[Sequence[int]] = None
            ) -> tuple[PosetFragment, IsoMap]:
    """Uniformly random per-tier relabeling; explicit permutations override.

    Returns the relabeled fragment together with the witnessing map.
    Labels travel with their elements.
    """
    rng = random.Random(seed)
    if h1_perm is None:
        p1 = list(range(fragment.n1))
        rng.shuffle(p1)
    else:
        p1 = list(h1_perm)
    if h2_perm is None:
        p2 = list(range(fragment.n2))
        rng.shuffle(p2)
    else:
        p2 = list(h2_perm)
    pairs = [(p1[i], p2[j]) for i in range(fragment.n1)
             for j in bits_of(fragment.up[i])]
    new_h1 = [""] * fragment.n1
    new_h2 = [""] * fragment.n2
    for i, y in enumerate(p1):
        new_h1[y] = fragment.h1_labels[i]
    for j, y in enumerate(p2):
        new_h2[y] = fragment.h2_labels[j]
    relabeled = PosetFragment(fragment.n1, fragment.n2, pairs,
                              new_h1, new_h2)
    return relabeled, IsoMap(fragment, relabeled, tuple(p1), tuple(p2))
