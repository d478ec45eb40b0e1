"""Finite-witness checks of the order axioms a fragment is meant to model.

Clauses of the form "infinitely many" or "for every finite set" cannot be
decided on a finite window, so every checker here takes explicit thresholds
and says so in its report.  A failed check means the fragment window lacks a
witness, not that a larger structure would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .core import PosetFragment, bits_of, mask_of

THRESHOLD_NOTE = ("threshold semantics: unbounded quantifiers are checked "
                  "up to the stated bounds on this fragment only")


@dataclass(slots=True)
class ConditionReport:
    condition: str
    holds: bool
    params: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    note: str = THRESHOLD_NOTE

    def to_json(self) -> dict:
        return {"version": 1, "condition": self.condition,
                "holds": self.holds, "params": dict(self.params),
                "witnesses": list(self.witnesses), "note": self.note}


def check_p1_to_p4(fragment: PosetFragment, k: int = 2
                   ) -> list[ConditionReport]:
    """Reports for the four countable-poset conditions, one per condition.

    P1 and the "finitely many" half of P4 hold by representation; P4 instead
    reports the observed bound.  P2 is J1's dimension test and P3 is J2's
    updegree test, with the threshold k in place of "infinitely many".
    """
    j1, j2 = check_j1(fragment), check_j2(fragment, k)
    reports = [ConditionReport(
        "P1", True, {"note": "single minimum and countability hold by "
                             "construction"})]
    reports.append(ConditionReport("P2", j1.holds, {"dim": j1.params["dim"]}))
    reports.append(ConditionReport("P3", j2.holds, {"k": k}, j2.witnesses))
    best = 0
    best_pair = None
    for i, j in combinations(range(fragment.n1), 2):
        c = (fragment.up[i] & fragment.up[j]).bit_count()
        if c > best:
            best, best_pair = c, (i, j)
    witnesses = []
    if best_pair is not None:
        witnesses.append({"pair": [fragment.h1_labels[best_pair[0]],
                                   fragment.h1_labels[best_pair[1]]],
                          "common_uppers": best})
    reports.append(ConditionReport(
        "P4", True, {"max_common_uppers": best,
                     "note": "finiteness is automatic; bound is informational"},
        witnesses))
    return reports


def find_p5_witness(fragment: PosetFragment, s_mask: int, t_mask: int
                    ) -> Optional[int]:
    """First height-one w below all of T such that every point above both w
    and some member of S lies in T.  None when the window has no witness.
    """
    if not s_mask or not t_mask:
        raise ValueError("S and T must be nonempty")
    if s_mask & ~fragment.all_h1_mask:
        raise ValueError("S is not an h1 mask of this fragment")
    if t_mask & ~fragment.all_h2_mask:
        raise ValueError("T is not an h2 mask of this fragment")
    for w in bits_of(fragment.common_h1_below(t_mask)):
        upw = fragment.up[w]
        if all((fragment.up[s] & upw & ~t_mask) == 0 for s in bits_of(s_mask)):
            return w
    return None


def survey_p5(fragment: PosetFragment, smax: int = 1, tmax: int = 1
              ) -> ConditionReport:
    """Witness search over all instances with |S| <= smax, |T| <= tmax;
    ValueError on a window below 1, which holds no instance."""
    if smax < 1 or tmax < 1:
        raise ValueError(f"P5 window smax={smax}, tmax={tmax} holds nothing")
    failures = []
    checked = 0
    h1_range = range(fragment.n1)
    h2_range = range(fragment.n2)
    for ssize in range(1, smax + 1):
        for s_combo in combinations(h1_range, ssize):
            s_mask = mask_of(s_combo)
            for tsize in range(1, tmax + 1):
                for t_combo in combinations(h2_range, tsize):
                    checked += 1
                    if find_p5_witness(fragment, s_mask,
                                       mask_of(t_combo)) is None:
                        failures.append({
                            "S": [fragment.h1_labels[i] for i in s_combo],
                            "T": [fragment.h2_labels[j] for j in t_combo]})
    return ConditionReport("P5", not failures,
                           {"smax": smax, "tmax": tmax, "checked": checked},
                           failures)


def check_j1(fragment: PosetFragment) -> ConditionReport:
    return ConditionReport(
        "J1", fragment.dim() == 2,
        {"dim": fragment.dim(),
         "note": "finiteness of minimal upper bound sets is automatic"})


def check_j2(fragment: PosetFragment, k: int = 2) -> ConditionReport:
    """Every curve lies below at least k points; ValueError on a threshold
    below 1, which every curve meets."""
    if k < 1:
        raise ValueError(f"J2 threshold k={k} is met by every curve")
    failures = []
    for i in range(fragment.n1):
        c = fragment.up[i].bit_count()
        if c < k:
            failures.append({"x": fragment.h1_labels[i], "points_above": c})
    return ConditionReport("J2", not failures, {"k": k}, failures)


def find_j3_witness(fragment: PosetFragment, m: int, f_mask: int = 0,
                    size_cap: int = 4) -> Optional[int]:
    """Smallest-then-lexicographic K, disjoint from F, with mub(K) = {m}.

    Returned as an h1 mask; None when no K within the size cap exists.
    Candidates outside the strict lower set of m can never help, so the
    search runs inside down(m) \\ F.
    """
    if not 0 <= m < fragment.n2:
        raise ValueError(f"h2 index {m} out of range")
    pool = fragment.down[m] & ~f_mask
    return next(fragment.unique_point_sets(m, pool, size_cap), None)


def survey_j3(fragment: PosetFragment, size_cap: int = 4) -> ConditionReport:
    """find_j3_witness per point with F empty; ValueError when size_cap is
    below 2, since a K has at least two curves."""
    if size_cap < 2:
        raise ValueError(f"J3 size cap {size_cap} holds no K of 2+ curves")
    failures = []
    for m in range(fragment.n2):
        if find_j3_witness(fragment, m, 0, size_cap) is None:
            failures.append({"m": fragment.h2_labels[m]})
    return ConditionReport("J3", not failures, {"size_cap": size_cap, "F": []},
                           failures)


def check_j4(fragment: PosetFragment, tmax: int = 2) -> ConditionReport:
    """Every nonempty T of at most tmax points has a common curve below;
    ValueError on a window below 1, which holds no T."""
    if tmax < 1:
        raise ValueError(f"J4 window tmax={tmax} holds nothing")
    failures = []
    for size in range(1, tmax + 1):
        for combo in combinations(range(fragment.n2), size):
            if not fragment.common_h1_below(mask_of(combo)):
                failures.append(
                    {"T": [fragment.h2_labels[j] for j in combo]})
    return ConditionReport("J4", not failures, {"tmax": tmax}, failures)


# -- the witness battery: a report of window proxies -------------------------

_FMAX = 2       # the largest curve set F the battery's J3 clause must survive


@dataclass(slots=True)
class BatteryReport:
    passed: bool
    params: dict
    reasons: list[str] = field(default_factory=list)
    j3_failures: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"version": 1, "passed": self.passed, "params": dict(self.params),
                "reasons": list(self.reasons),
                "j3_failures": list(self.j3_failures)}


def _cover_upto(edges: list[int], budget: int) -> Optional[list[int]]:
    """A vertex set of size <= budget meeting every edge (a two-curve mask),
    if one exists."""
    if not edges:
        return []
    if budget == 0:
        return None
    for w in bits_of(edges[0]):
        bit = 1 << w
        rest = [e for e in edges if not e & bit]
        sub = _cover_upto(rest, budget - 1)
        if sub is not None:
            return [w] + sub
    return None


def witness_battery(fragment: PosetFragment, k: int = 2,
                    j4_tmax: int = 2) -> BatteryReport:
    """A report of finite-window proxies for the paper's J2, J3 and J4;
    it neither gates nor decides reconstruction, and ignores k_cap.

    The J3 clause demands, for every point m and every F of at most
    ``_FMAX`` curves, a PAIR disjoint from F whose only common point is m.  A
    killing F is exactly a vertex cover of the pair graph at m, so the check
    is a bounded cover search.
    """
    j2 = check_j2(fragment, k)
    j4 = check_j4(fragment, j4_tmax)
    reasons = []
    if not j2.holds:
        reasons.append(f"J2 fails at threshold k={k}: {j2.witnesses}")
    if not j4.holds:
        reasons.append(f"J4 fails at tmax={j4_tmax}: {j4.witnesses}")
    j3_failures = []
    for m in range(fragment.n2):
        edges = list(fragment.unique_point_sets(m, fragment.down[m], 2))
        if not edges:
            j3_failures.append({"m": fragment.h2_labels[m],
                                "killing_F": None,
                                "reason": "no pair with this unique point"})
            continue
        cover = _cover_upto(edges, _FMAX)
        if cover is not None:
            j3_failures.append(
                {"m": fragment.h2_labels[m],
                 "killing_F": [fragment.h1_labels[i] for i in cover]})
    if j3_failures:
        reasons.append(f"J3 pair witnesses not stable under |F|<={_FMAX}")
    return BatteryReport(not reasons,
                         {"k": k, "fmax": _FMAX, "j4_tmax": j4_tmax},
                         reasons, j3_failures)
