"""Fragment sources: a seeded random generator with planted witnesses, an
affine plane curve model over small prime fields, a fixed cusp configuration,
and JSON persistence."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields
from itertools import product
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Union

from .core import HARD_MAX_TIER, PosetFragment, bits_of, check_tier_sizes


class FragmentFormatError(ValueError):
    """Raised by the loaders with a message naming the fault's position."""


# -- random planted fragments ------------------------------------------------


@dataclass(frozen=True, slots=True)
class GeneratorParams:
    n1: int
    n2: int
    min_updeg: int = 2
    planted_pairs_per_point: int = 2
    generic_curves: int = 1
    pairwise_cap: int = 3
    seed: int = 0

    def check(self) -> None:
        check_param_fields(asdict(self))
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both tiers must be nonempty")
        check_tier_sizes(self.n1, self.n2)
        if self.planted_pairs_per_point < 1:
            raise ValueError("planted_pairs_per_point must be at least 1")
        if self.pairwise_cap < 2:
            raise ValueError("pairwise_cap must be at least 2")
        if self.generic_curves < 0 or self.min_updeg < 1:
            raise ValueError("bad generator parameters")
        if self.n2 < self.min_updeg:
            raise ValueError("min_updeg cannot exceed the number of points")
        n_regular = self.n1 - self.generic_curves
        if n_regular < 2 * self.planted_pairs_per_point:
            raise ValueError("n1 too small for the requested planting")
        if self.generic_curves:
            # A generic curve lies below every point, so a regular curve
            # shares all its points with it: pairwise_cap of them at most.
            cap, need = self.pairwise_cap, 2 * self.planted_pairs_per_point
            if self.min_updeg > cap:
                raise ValueError(f"min_updeg {self.min_updeg} exceeds "
                                 f"pairwise_cap {cap}")
            if need * self.n2 > cap * n_regular:
                raise ValueError(
                    f"planting needs {need * self.n2} curve-point pairs, but "
                    f"{n_regular} regular curves hold at most "
                    f"{cap * n_regular} (pairwise_cap {cap})")


def check_param_fields(obj: object) -> dict:
    """``obj`` if it is an object of GeneratorParams fields with JSON integer
    values (not booleans or floats); ValueError naming the key otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"parameters must be an object, got {obj!r}")
    names = [f.name for f in fields(GeneratorParams)]
    for key, value in obj.items():
        if key not in names:
            raise ValueError(f"unknown generator parameter {key!r}")
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
    return obj


class _PlantingStuck(Exception):
    """Greedy construction wedged; retried with a derived seed."""


def random_fragment(params: GeneratorParams) -> PosetFragment:
    """Seeded fragment with, per point m, disjoint curve pairs whose only
    common point is m; optional generic curves below everything; extra
    incidence sprinkled while keeping every pairwise common-point count
    within pairwise_cap and planted pairs exclusive.

    The seed fully determines the output.  Greedy planting can wedge on an
    unlucky order, so a bounded run of deterministic re-rolls derived from
    the seed is tried before reporting failure.
    """
    params.check()
    last = "could not build the fragment"
    for attempt in range(40):
        rng = random.Random(params.seed + 1_000_003 * attempt)
        try:
            return _random_attempt(params, rng)
        except _PlantingStuck as exc:
            last = str(exc)
    raise ValueError(f"{last} after 40 seeded attempts; "
                     "loosen the parameters")


def _random_attempt(params: GeneratorParams,
                    rng: random.Random) -> PosetFragment:
    n1, n2 = params.n1, params.n2
    n_regular = n1 - params.generic_curves
    up = [0] * n1
    down = [0] * n2
    partners: list[list[tuple[int, int]]] = [[] for _ in range(n1)]

    def add(x: int, p: int) -> None:
        up[x] |= 1 << p
        down[p] |= 1 << x

    def can_add(x: int, p: int) -> bool:
        if up[x] >> p & 1:
            return False
        for partner, mm in partners[x]:
            if p != mm and down[p] >> partner & 1:
                return False
        new_up = up[x] | 1 << p
        for y in bits_of(down[p]):
            if y != x and (new_up & up[y]).bit_count() > params.pairwise_cap:
                return False
        return True

    for g in range(n_regular, n1):
        for p in range(n2):
            add(g, p)

    for m in range(n2):
        pool = list(range(n_regular))
        rng.shuffle(pool)
        used: set[int] = set()
        made = 0
        for ui in range(len(pool)):
            if made == params.planted_pairs_per_point:
                break
            u = pool[ui]
            if u in used or not can_add(u, m):
                continue
            for v in pool[ui + 1:]:
                if v in used or up[u] & up[v] or not can_add(v, m):
                    continue
                add(u, m)
                add(v, m)
                partners[u].append((v, m))
                partners[v].append((u, m))
                used.update((u, v))
                made += 1
                break
        if made < params.planted_pairs_per_point:
            raise _PlantingStuck(
                f"could not plant {params.planted_pairs_per_point} pairs "
                f"at point {m}")

    for x in range(n_regular):
        if up[x].bit_count() >= params.min_updeg:
            continue
        points = [p for p in range(n2) if not up[x] >> p & 1]
        rng.shuffle(points)
        for p in points:
            if can_add(x, p):
                add(x, p)
                if up[x].bit_count() >= params.min_updeg:
                    break
        if up[x].bit_count() < params.min_updeg:
            raise _PlantingStuck(
                f"curve {x} cannot reach updeg {params.min_updeg} "
                "under the pairwise cap")

    for _ in range(max(n1 * n2 // 3, 1)):
        x = rng.randrange(n_regular) if n_regular else 0
        p = rng.randrange(n2)
        if n_regular and can_add(x, p):
            add(x, p)

    pairs = [(i, j) for i in range(n1) for j in bits_of(up[i])]
    return PosetFragment(n1, n2, pairs)


# -- affine plane curves over a small prime field ----------------------------

SUPPORTED_PRIMES = (2, 3, 5)
MAX_DEGREE = 3


def _monomials(d: int) -> list[tuple[int, int]]:
    """(i, j) exponent pairs with i + j <= d in a fixed graded order; the
    last nonzero position of a coefficient vector is its leading term."""
    out = []
    for total in range(d + 1):
        for j in range(total + 1):
            out.append((total - j, j))
    return out


def _poly_str(coeffs: tuple[int, ...], monos: list[tuple[int, int]]) -> str:
    terms = []
    for c, (i, j) in zip(coeffs, monos):
        if c == 0:
            continue
        factors = []
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        if not factors:
            terms.append(str(c))
        elif c == 1:
            terms.append("*".join(factors))
        else:
            terms.append("*".join([str(c)] + factors))
    return "+".join(terms)


def affine_plane_fragment(p: int, d: int) -> PosetFragment:
    """Points of the affine plane over F_p under irreducible curves of total
    degree <= d that pass through at least one rational point.

    Curves are kept up to scalar (leading coefficient normalized to 1) and
    irreducibility is decided by exhaustive trial factorization, which the
    small caps keep exact.  Incidence is polynomial evaluation.  More than
    ``HARD_MAX_TIER`` curves is refused with ValueError, as soon as the
    lower degrees alone exceed it.
    """
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be one of {SUPPORTED_PRIMES}")
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"d must be in 1..{MAX_DEGREE}")
    monos = _monomials(d)
    nm = len(monos)
    index = {m: k for k, m in enumerate(monos)}

    def degree(f: tuple[int, ...]) -> int:
        return max((i + j for (i, j), c in zip(monos, f) if c), default=-1)

    def normalized(f: tuple[int, ...]) -> bool:
        lead = max(k for k in range(nm) if f[k])
        return f[lead] == 1

    def mult(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * nm
        for k1, c1 in enumerate(f):
            if not c1:
                continue
            i1, j1 = monos[k1]
            for k2, c2 in enumerate(g):
                if not c2:
                    continue
                i2, j2 = monos[k2]
                out[index[(i1 + i2, j1 + j2)]] = (
                    out[index[(i1 + i2, j1 + j2)]] + c1 * c2) % p
        return tuple(out)

    points = [(a, b) for a in range(p) for b in range(p)]

    def evaluate(f: tuple[int, ...], a: int, b: int) -> int:
        return sum(c * pow(a, i, p) * pow(b, j, p)
                   for (i, j), c in zip(monos, f) if c) % p

    # Degree by degree: curves of degree below t stay curves under every
    # larger cap, so too many of them refuse (p, d) before the
    # p ** len(monos) coefficient vectors of the top degree are tried.
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    curves = []
    for t in range(1, d + 1):
        if len(curves) > HARD_MAX_TIER:
            raise ValueError(
                f"p={p}, d={d} gives at least {len(curves)} curves (those of "
                f"degree at most {t - 1}), more than the tier cap "
                f"{HARD_MAX_TIER}")
        # the monomials of degree <= t lead the graded order
        width = len(_monomials(t))
        pad = (0,) * (nm - width)
        by_degree[t] = []
        for g in product(range(p), repeat=width):
            f = g + pad
            if degree(f) == t and normalized(f):
                by_degree[t].append(f)
        reducible = {mult(g, h) for a in range(1, t // 2 + 1)
                     for g in by_degree[a] for h in by_degree[t - a]}
        for f in by_degree[t]:
            if f in reducible:
                continue
            zeros = [pt for pt in points if evaluate(f, *pt) == 0]
            if zeros:
                curves.append((f, zeros))

    n1, n2 = len(curves), len(points)
    if n1 > HARD_MAX_TIER:
        raise ValueError(f"p={p}, d={d} gives {n1} curves, more than the "
                         f"tier cap {HARD_MAX_TIER}")
    point_index = {pt: j for j, pt in enumerate(points)}
    pairs = [(i, point_index[pt])
             for i, (_, zeros) in enumerate(curves) for pt in zeros]
    h1_labels = [_poly_str(f, monos) for f, _ in curves]
    h2_labels = [f"pt{a}{b}" for a, b in points]
    return PosetFragment(n1, n2, pairs, h1_labels, h2_labels)


# -- fixed example: cusp touching two smooth branches ------------------------


def cusp_fragment() -> PosetFragment:
    """Three curves through a shared point m, where the first meets each of
    the others at one extra point and needs both to pin m down."""
    pairs = [(0, 0), (0, 1), (0, 2),
             (1, 0), (1, 1),
             (2, 0), (2, 2)]
    return PosetFragment(3, 3, pairs,
                         h1_labels=["P", "y1", "y2"],
                         h2_labels=["m", "n1", "n2"])


# -- persistence --------------------------------------------------------------


def fragment_to_json(fragment: PosetFragment) -> dict:
    return {"version": 1,
            "n1": fragment.n1,
            "n2": fragment.n2,
            "incidence": [[i, j] for i in range(fragment.n1)
                          for j in bits_of(fragment.up[i])],
            "labels": {"h1": list(fragment.h1_labels),
                       "h2": list(fragment.h2_labels)}}


def fragment_from_json(obj: object) -> PosetFragment:
    if not isinstance(obj, dict):
        raise FragmentFormatError("top level must be an object")
    if obj.get("version") != 1:
        raise FragmentFormatError(f"unsupported version {obj.get('version')!r}")
    n1, n2 = obj.get("n1"), obj.get("n2")
    if type(n1) is not int or type(n2) is not int:
        raise FragmentFormatError("n1 and n2 must be integers")
    raw = obj.get("incidence")
    if not isinstance(raw, list):
        raise FragmentFormatError("incidence must be a list")
    seen = set()
    pairs = []
    for k, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(type(v) is int for v in entry)):
            raise FragmentFormatError(
                f"incidence[{k}]: expected a pair of integers, got {entry!r}")
        i, j = entry
        if not 0 <= i < n1:
            raise FragmentFormatError(
                f"incidence[{k}]: h1 index {i} out of range (n1={n1})")
        if not 0 <= j < n2:
            raise FragmentFormatError(
                f"incidence[{k}]: h2 index {j} out of range (n2={n2})")
        if (i, j) in seen:
            raise FragmentFormatError(
                f"incidence[{k}]: duplicate pair [{i}, {j}]")
        seen.add((i, j))
        pairs.append((i, j))
    labels = obj.get("labels") or {}
    if not isinstance(labels, dict):
        raise FragmentFormatError("labels must be an object")
    try:
        return PosetFragment(n1, n2, pairs,
                             labels.get("h1"), labels.get("h2"))
    except ValueError as exc:
        raise FragmentFormatError(str(exc)) from exc


def json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2) + "\n"``, byte for byte: the layout of
    every JSON document the package writes.

    ``indent`` sends the stdlib to its pure-Python encoder, so dicts, lists
    and tuples are laid out here, strings and ints are formatted by the C
    escaper and ``int.__repr__``, and every other scalar or key type goes to
    the stdlib.  Containers must not contain themselves.
    """
    return _json_value(obj, "\n") + "\n"


_int_text = int.__repr__    # what the stdlib writes for ints and IntEnums


def _json_value(value: object, pad: str) -> str:
    """One value whose first line is already indented; ``pad`` is a newline
    plus the indentation of that line.  Plain ints and str keys, most of
    every document, are formatted inline rather than by a call."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return ("[" + inner + ("," + inner).join([
            _int_text(v) if type(v) is int else _json_value(v, inner)
            for v in value]) + pad + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join([
            (encode_basestring_ascii(k) if type(k) is str else _json_key(k))
            + ": " + _json_value(v, inner) for k, v in value.items()])
            + pad + "}")
    return json.dumps(value)


def _json_key(key: object) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: 0})[1:-4]     # '{"<key>": 0}' -> '"<key>"'


def save_fragment(fragment: PosetFragment, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_fragment(fragment), encoding="utf-8")


def dumps_fragment(fragment: PosetFragment) -> str:
    return json_text(fragment_to_json(fragment))


def read_json(path: Union[str, Path]) -> object:
    """The value in a UTF-8 JSON file: a fragment, node map or config."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:   # nesting too deep
        raise FragmentFormatError(f"not valid JSON: {exc}") from exc


def load_fragment(path: Union[str, Path]) -> PosetFragment:
    return fragment_from_json(read_json(path))
