"""Hand-built fixtures and independent brute-force oracles for the tests.

The oracles deliberately take the literal definition route (enumerate subsets,
call the element-level mub) rather than reusing the library's closed forms,
so the two implementations check each other.
"""

from itertools import combinations

from strposet import (PosetFragment, bits_of, finite_node, h1, h2, mask_of,
                      str_leq, str_leq_bruteforce, str_member)


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
            if fragment.mub([h1(i) for i in combo]) == b_elems:
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


def brute_down_set_size(fragment: PosetFragment, a_mask: int,
                        b_mask: int) -> int:
    node = finite_node(a_mask, b_mask)
    count = 0
    sub = a_mask
    while sub:
        if (str_member(fragment, (sub, b_mask))
                and str_leq_bruteforce(fragment, finite_node(sub, b_mask),
                                       node)):
            count += 1
        sub = (sub - 1) & a_mask
    return count


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
            size = brute_down_set_size(fragment, a_mask, b_mask)
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
            if fragment.mub([h1(i) for i in combo]) == target:
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
                        and fragment.mub([h1(i) for i in combo]) == target):
                    out.append(finite_node(mask_of(combo), 1 << b))
    return out


def mask_image_by_generators(mask: int, table) -> int:
    """``IsoMap.h1_mask_image`` / ``h2_mask_image`` as they were before the
    inline bit walk: ``mask_of`` over a generator over ``bits_of``."""
    return mask_of(table[i] for i in bits_of(mask))


def validate_all_pairs(phi, order_check: bool = True) -> list[str]:
    """``StrIso.validate`` as it was before the nesting index: the same audit
    with the order compared on every ordered pair of distinct domain nodes.
    The library version must return the same list in the same order."""
    problems = []
    if len(set(phi.domain)) != len(phi.domain):
        problems.append("domain has repeated nodes")
    if len(set(phi.codomain)) != len(phi.codomain):
        problems.append("codomain has repeated nodes")
    images = []
    for node in phi.domain:
        img = phi.map(node)
        images.append(img)
        if not str_member(phi.fragment_y, img.masks()):
            problems.append(f"image of {node} is not a member pair")
        back = phi.unmap(img)
        if back != node:
            problems.append(f"inverse(map({node})) = {back}")
    if set(images) != set(phi.codomain):
        problems.append("forward image differs from the codomain")
    for img in phi.codomain:
        if phi.map(phi.unmap(img)) != img:
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
            lx = x_possible and str_leq(fx, u, v)
            ly = y_possible and str_leq(fy, fu, fv)
            if lx != ly:
                problems.append(
                    f"order mismatch: {u} <= {v} is {lx} "
                    f"but image comparison gives {ly}")
                if len(problems) > 20:
                    return problems
    return problems


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
