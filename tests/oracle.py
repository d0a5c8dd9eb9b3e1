"""Coordinate-only group arithmetic: an oracle independent of the index tables.

An element or a character is a tuple of coordinates, one per cyclic factor.
Everything here is computed from the formulas, from a group's ``factors`` and
``elements()`` alone, and never from the tables the package builds (element
orders, negation, addition rows, pairing rows, kernel masks, spans or
automorphism permutations). check_tables, at the end, is the one function
that reads those tables, to compare them with these formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm


def zero(g) -> tuple[int, ...]:
    return (0,) * len(g.factors)


def add(g, x, y) -> tuple[int, ...]:
    return tuple((a + b) % n for a, b, n in zip(x, y, g.factors))


def neg(g, x) -> tuple[int, ...]:
    return tuple((-a) % n for a, n in zip(x, g.factors))


def scale(g, k: int, x) -> tuple[int, ...]:
    return tuple((k * a) % n for a, n in zip(x, g.factors))


def multiples(g, x) -> list[tuple[int, ...]]:
    """[0, x, 2x, ..., (o-1)x] by repeated addition, o the order of x."""
    out = [zero(g)]
    m = tuple(x)
    while m != out[0]:
        out.append(m)
        m = add(g, m, x)
    return out


def order(g, x) -> int:
    return len(multiples(g, x))


def exponent(g) -> int:
    return lcm(*g.factors) if g.factors else 1


def pair_num(g, chi, x) -> int:
    """The numerator of <chi, x> = sum(chi_i * x_i / n_i) mod 1 over the group exponent."""
    e = exponent(g)
    return sum(c * a * (e // n) for c, a, n in zip(chi, x, g.factors)) % e


def pairing(g, chi, x) -> Fraction:
    return Fraction(pair_num(g, chi, x), exponent(g))


def span(g, elems) -> frozenset:
    """The subgroup elems generate, closed by adding multiples one generator at a time."""
    out = {zero(g)}
    for x in elems:
        if x not in out:
            out |= {add(g, s, m) for s in out for m in multiples(g, x)}
    return frozenset(out)


def apply(alpha, x) -> tuple[int, ...]:
    """alpha(x) = sum(x_i * alpha.images[i]), by coordinates."""
    g = alpha.group
    out = zero(g)
    for c, img in zip(x, alpha.images):
        out = add(g, out, scale(g, c, img))
    return out


def apply_char(alpha, chi) -> tuple[int, ...]:
    """The character chi o alpha: its coordinate j is <chi, alpha(e_j)> * n_j."""
    g = alpha.group
    return tuple(int(pairing(g, chi, img) * n) for img, n in zip(alpha.images, g.factors))


def bundle_degree(cover, chi) -> int:
    """Degree of the character's building-data line bundle: sum(m * <chi, e>) over the branch."""
    g = cover.group
    e = exponent(g)
    weights = [c * (e // n) for c, n in zip(chi, g.factors)]  # pair_num(chi, x) = sum(w_i * x_i) mod e
    num = sum(m * (sum(w * a for w, a in zip(weights, x)) % e) for x, m in cover.branch)
    assert num % e == 0, f"bundle degree of {chi} is not integral"
    return num // e


def eigen_dim(cover, chi) -> int:
    """Chevalley-Weil: b at the trivial character, else l + b - 1 for bundle degree l."""
    b = cover.base_genus
    if chi == zero(cover.group):
        return b
    degree = bundle_degree(cover, chi)
    assert degree or b, f"degree-0 bundle at {chi} over a rational base"
    return degree + b - 1


def eigen_profile(cover) -> dict:
    """Character -> eigen_dim."""
    return {chi: eigen_dim(cover, chi) for chi in cover.group.elements()}


@lru_cache(maxsize=None)
def _support(cover) -> tuple:
    """(character, eigen_dim) where it is nonzero, computed once per cover."""
    return tuple((chi, dim) for chi, dim in eigen_profile(cover).items() if dim)


def pencil(sw) -> tuple[int, tuple[int, ...] | None]:
    """(p_g, character of the canonical pencil with fibre F or None) of a sandwich.

    p_g sums dim_F(chi) * dim_D(-chi) over the characters; a canonical pencil
    needs p_g >= 2 and one character carrying every section, with a
    1-dimensional eigenspace on F.
    """
    g = sw.cover_f.group
    support = [(chi, dim_f, eigen_dim(sw.cover_d, neg(g, chi))) for chi, dim_f in _support(sw.cover_f)]
    support = [(chi, dim_f, dim_d) for chi, dim_f, dim_d in support if dim_d]
    p_g = sum(dim_f * dim_d for _, dim_f, dim_d in support)
    if p_g >= 2 and len(support) == 1 and support[0][1] == 1:
        return p_g, support[0][0]
    return p_g, None


def hj_value(string) -> Fraction:
    """The fraction b_1 - 1/(b_2 - 1/(...)) a Hirzebruch-Jung string expands."""
    value = Fraction(0)
    for b in reversed(string):
        assert isinstance(b, int) and b >= 2, f"string entry {b!r} is not an integer >= 2"
        value = Fraction(b) - (1 / value if value else 0)
    return value


def check_tables(g) -> None:
    """Assert that the group's index tables agree with the coordinate formulas."""
    els = g.elements()
    assert list(g.orders) == [order(g, x) for x in els]
    assert [els[j] for j in g.neg_index] == [neg(g, x) for x in els]
    for i, x in enumerate(els):
        assert [els[j] for j in g.add_row(i)] == [add(g, y, x) for y in els]
        assert list(g.pairing_row(i)) == [pair_num(g, chi, x) for chi in els]
        assert g.kernel_mask(i) == sum(1 << j for j, chi in enumerate(els) if not pairing(g, chi, x))


def subgroups(g) -> list[frozenset]:
    """Every subgroup as a set of elements, by closure: each subgroup other
    than 0 is H + <x> for a smaller subgroup H and an element x outside it."""
    found = {frozenset([zero(g)])}
    frontier = list(found)
    while frontier:
        larger = {
            frozenset(add(g, a, m) for a in h for m in multiples(g, x))
            for h in frontier
            for x in g.elements()
            if x not in h
        }
        frontier = list(larger - found)
        found |= larger
    return list(found)


def mobius(g, subs) -> dict:
    """mu(H, G) for every subgroup H, by the recursion mu(G, G) = 1 and
    sum(mu(K, G) for H <= K <= G) = 0 when H < G."""
    mu = {}
    for h in sorted(subs, key=len, reverse=True):  # every proper overgroup comes first
        mu[h] = 1 if len(h) == len(g.elements()) else -sum(m for k, m in mu.items() if h < k)
    return mu


def _zero_sum_multisets(g, h, weight: int) -> int:
    """The number of multisets of nonzero elements of h that sum to 0 and
    weigh `weight`, where one copy of e weighs |G| - |G| / order(e): a DP over
    (sum, weight so far), one element at a time."""
    n = len(g.elements())
    counts = {(zero(g), 0): 1}
    for e in sorted(h - {zero(g)}):
        w = n - n // order(g, e)
        step: dict = {}
        for (total, used), c in counts.items():
            while used <= weight:  # one more copy of e each time round
                step[total, used] = step.get((total, used), 0) + c
                total, used = add(g, total, e), used + w
        counts = step
    return counts.get((zero(g), weight), 0)


class CoordinateGroup:
    """A group as its factors and its elements in lexicographic order, all the counts read."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self._elements = list(product(*[range(n) for n in self.factors]))

    def elements(self) -> list[tuple[int, ...]]:
        return self._elements


def cover_count(factors, b: int, genus: int) -> int:
    """The number of (branch multiset, twist) data of G over a genus-b base
    whose cover has the given genus and which generate G.

    Data inside a subgroup H number c(H) = |H|^(2b) times the zero-sum
    multisets of nonzero elements of H whose Riemann-Hurwitz weight,
    2g - 2 = |G|(2b - 2) + sum(m * |G| * (1 - 1/order(e))), gives the genus.
    Moebius inversion over the subgroup lattice keeps those that generate G:
    sum(mu(H, G) * c(H)) (P. Hall, 1936).
    """
    g = CoordinateGroup(factors)
    weight = 2 * genus - 2 - len(g.elements()) * (2 * b - 2)
    if weight < 0:
        return 0
    subs = subgroups(g)
    mu = mobius(g, subs)
    return sum(mu[h] * len(h) ** (2 * b) * _zero_sum_multisets(g, h, weight) for h in subs if mu[h])
