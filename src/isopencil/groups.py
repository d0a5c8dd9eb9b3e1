"""Finite Abelian groups with exact character pairings.

At the API, elements and characters are both integer tuples indexed by the
cyclic factors; the pairing <chi, g> = sum(chi[i]*g[i]/n_i) mod 1 is carried
as an integer numerator over the group exponent, so no floats appear
anywhere. Inside the package an element is its index, its position in
elements(): the lookup tables add_row, orders, neg_index, pairing_row and
kernel_mask are read by index, and common_kernel and generates take indices
too; index maps a tuple to its index. An automorphism is a permutation of
those indices. There is one group object per factors tuple, and it keeps
each table, and Aut(G), from first use on.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from math import gcd, lcm, prod

from .errors import CapabilityError, InvalidInputError, is_int
from .record import Record

__all__ = [
    "Element",
    "FiniteAbelianGroup",
    "Automorphism",
    "make_group",
    "parse_group",
    "format_element",
    "factorize",
    "image",
]

Element = tuple[int, ...]

AUT_ORDER_BOUND = 64

# Largest |Aut(G)| that automorphisms() builds (see check_aut_size).
AUT_SIZE_BOUND = 50_000

# Largest group order make_group accepts. Every search stays below
# AUT_ORDER_BOUND; this bound keeps a spec file or --group naming Z/10**9 from
# building element tables, and exhausting memory, before any other check runs.
GROUP_ORDER_BOUND = 10_000

# The one group object of each factors tuple; see FiniteAbelianGroup.
_GROUPS: dict[tuple[int, ...], "FiniteAbelianGroup"] = {}


class FiniteAbelianGroup:
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_k.

    There is one object per factors tuple: the constructor, make_group and
    unpickling all return the one in _GROUPS. So groups compare and hash by
    identity, and the lookup tables and Aut(G) a group builds on first use
    serve every caller with the same factors. Whole-group tables are cached
    properties; per-element rows, elements() and automorphisms() are
    functools.cache methods, which is safe only because interned groups are
    never freed.
    """

    def __new__(cls, factors: tuple[int, ...]):
        group = _GROUPS.get(factors)
        if group is None:
            group = super().__new__(cls)
            group.factors = factors
            group.order = prod(factors)
            group.exponent = lcm(*factors) if factors else 1
            # <chi, g> = sum(chi_i * g_i * weight_i) / exponent, mod 1
            group._weights = tuple(group.exponent // n for n in factors)
            group = _GROUPS.setdefault(factors, group)
        return group

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.factors)})"

    def __reduce__(self):
        # Pickle the factors only: unpickling returns the one group with them.
        return (FiniteAbelianGroup, (self.factors,))

    def validate(self, coords) -> Element:
        try:
            t = tuple(coords)
        except TypeError:  # not iterable
            raise InvalidInputError(f"element {coords!r} is not a sequence of coordinates") from None
        if len(t) != len(self.factors):
            raise InvalidInputError(
                f"element {t} has {len(t)} coordinates, group {list(self.factors)} needs {len(self.factors)}"
            )
        for c, n in zip(t, self.factors):
            if not is_int(c) or not 0 <= c < n:
                raise InvalidInputError(f"coordinate {c!r} out of range [0, {n}) in {t}")
        return t

    @cache
    def elements(self) -> list[Element]:
        els = [()]
        for n in self.factors:
            els = [e + (c,) for e in els for c in range(n)]
        return els

    @cached_property
    def index(self) -> dict[Element, int]:
        """Element -> its position in elements(); the identity is 0."""
        return {e: i for i, e in enumerate(self.elements())}

    @cache
    def add_row(self, i: int) -> tuple[int, ...]:
        """Index of y + x for every y, in elements() order, where x has index i.

        The index of an element is its mixed-radix number over the factors,
        so the row is built digit by digit, each digit shifted by x's.
        """
        values = [0]
        for n, a in zip(self.factors, self.elements()[i]):
            digits = [(c + a) % n for c in range(n)]
            values = [v * n + d for v in values for d in digits]
        return tuple(values)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Element orders, in elements() order."""
        fs = self.factors
        return tuple(lcm(*(n // gcd(a, n) for a, n in zip(g, fs))) for g in self.elements())

    @cached_property
    def neg_index(self) -> tuple[int, ...]:
        """Index of -x for the index of every x."""
        index, fs = self.index, self.factors
        return tuple(index[tuple((-a) % n for a, n in zip(x, fs))] for x in self.elements())

    @cache
    def pairing_row(self, i: int) -> tuple[int, ...]:
        """Numerator of <chi, g> over the group exponent for every character
        chi, in elements() order, where g has index i."""
        values = [0]
        for n, a, w in zip(self.factors, self.elements()[i], self._weights):
            step = a * w
            values = [(v + c * step) % self.exponent for v in values for c in range(n)]
        return tuple(values)

    @cache
    def kernel_mask(self, i: int) -> int:
        """Bit j set when the j-th character (elements() order) vanishes on the
        element of index i."""
        return int("".join("0" if v else "1" for v in reversed(self.pairing_row(i))), 2)

    def common_kernel(self, indices) -> int:
        """Mask of the characters vanishing on every element index given (all of them for none)."""
        mask = (1 << self.order) - 1
        for i in indices:
            mask &= self.kernel_mask(i)
        return mask

    def _multiples(self, i: int) -> list[int]:
        """Indices of 0, x, 2x, ..., (o - 1)x, where x of order o has index i."""
        row, multiples = self.add_row(i), [0]
        while j := row[multiples[-1]]:
            multiples.append(j)
        return multiples

    def generates(self, indices) -> bool:
        """True when only the trivial character (bit 0) vanishes on all the
        elements of these indices.

        A subgroup of a finite Abelian group is the whole group exactly when
        its annihilator in the character group is trivial.
        """
        return self.common_kernel(indices) == 1

    def automorphism_count(self) -> int:
        """|Aut(G)| in closed form, without building a single automorphism.

        Aut(G) is the product of the automorphism groups of the p-parts. For
        a p-part Z/p^e_1 x ... x Z/p^e_k with e_1 <= ... <= e_k, let d_j and
        c_j be the last and first positions holding the value e_j; then
        |Aut| = prod_j (p^d_j - p^(j-1)) * p^(e_j (k - d_j)) * p^((e_j - 1)(k - c_j + 1))
        (Hillar and Rhea, Automorphisms of finite abelian groups, 2007).
        """
        exponents: dict[int, list[int]] = {}
        for n in self.factors:
            for p, e in factorize(n):
                exponents.setdefault(p, []).append(e)
        count = 1
        for p, es in exponents.items():
            es.sort()
            k = len(es)
            for j, e in enumerate(es, 1):
                d = k - es[::-1].index(e)
                c = es.index(e) + 1
                count *= (p**d - p ** (j - 1)) * p ** (e * (k - d)) * p ** ((e - 1) * (k - c + 1))
        return count

    def check_aut_size(self) -> None:
        """Raise CapabilityError when G has order above AUT_ORDER_BOUND or
        Aut(G) more than AUT_SIZE_BOUND elements."""
        if self.order > AUT_ORDER_BOUND:
            raise CapabilityError(
                f"automorphism enumeration limited to order {AUT_ORDER_BOUND}, got {self.order}"
            )
        size = self.automorphism_count()
        if size > AUT_SIZE_BOUND:
            raise CapabilityError(
                f"automorphism enumeration limited to {AUT_SIZE_BOUND} automorphisms, "
                f"group {list(self.factors)} has {size}"
            )

    @cache
    def automorphisms(self) -> tuple["Automorphism", ...]:
        """Aut(G) in search order; kept only once check_aut_size has passed."""
        self.check_aut_size()
        perms = dict(self._automorphism_search())
        # Characters add coordinate-wise like elements, so chi -> chi o alpha
        # is itself an automorphism; its perm is alpha's char_perm.
        return tuple(
            Automorphism(self, images, perm, perms[_dual_images(images, self.factors)])
            for images, perm in perms.items()
        )

    def _automorphism_search(self):
        """(images, perm) of every automorphism, in search order.

        images are the images of the standard generators; the i-th runs over
        the elements whose order divides n_i. The chosen images span a
        subgroup of order |G| / popcount(common kernel mask), so a prefix is
        extended only while the remaining factors can still fill the group; at
        the last factor that means the span is G.

        perm is built along the way: after i factors, values[p] is the index
        of sum(g_j * images[j]) for the p-th prefix (g_0, .., g_i) in
        lexicographic order, so the last factor's values are the permutation.
        """
        fs = self.factors
        if not fs:
            yield (), (0,)
            return
        order = self.order
        els = self.elements()
        rows = [self.add_row(i) for i in range(order)]
        candidates = []
        for n in fs:
            level = []
            for j, o in enumerate(self.orders):
                if n % o == 0:
                    # rows adding c * x for c = 0 .. n-1, x = els[j]
                    shifts = [rows[m] for m in self._multiples(j) * (n // o)]
                    level.append((els[j], self.kernel_mask(j), shifts))
            candidates.append(level)
        tail_bound = [prod(fs[i + 1 :]) for i in range(len(fs))]
        chosen: list[Element] = []

        def extend(i: int, mask: int, values: list[int]):
            last = i == len(fs) - 1
            for x, kernel, shifts in candidates[i]:
                common = mask & kernel
                if order // common.bit_count() * tail_bound[i] >= order:
                    chosen.append(x)
                    extended = [row[v] for v in values for row in shifts]
                    if last:
                        yield tuple(chosen), tuple(extended)
                    else:
                        yield from extend(i + 1, common, extended)
                    chosen.pop()

        yield from extend(0, (1 << order) - 1, [0])


def _dual_images(images, factors) -> tuple[Element, ...]:
    """Images of the standard characters e_i under chi -> chi o alpha.

    The j-th coordinate of e_i o alpha is <e_i, images[j]> * n_j, that is
    images[j][i] * n_j / n_i.
    """
    cols = [[c * m // n for c, n in zip(img, factors)] for img, m in zip(images, factors)]
    return tuple(zip(*cols))


class Automorphism(Record):
    """Group automorphism alpha, given by the images of the standard generators.

    perm[i] is the index (position in elements()) of alpha(g) for the g at
    index i, and char_perm[i] the index of the pulled-back character
    chi o alpha for the chi at index i. FiniteAbelianGroup.automorphisms()
    builds every automorphism, with both permutations from its search.
    """

    __slots__ = ("group", "images", "perm", "char_perm")

    def apply(self, g: Element) -> Element:
        grp = self.group
        return grp.elements()[self.perm[grp.index[g]]]

    def apply_char(self, chi: Element) -> Element:
        """The character chi o alpha, as coordinates."""
        grp = self.group
        return grp.elements()[self.char_perm[grp.index[chi]]]


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, by ascending prime, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def image(perm, pairs) -> tuple[tuple[int, int], ...]:
    """The (index, value) pairs with every index moved by perm, sorted.

    This is how an automorphism, as an index permutation, moves index-space
    data: branch data (element, multiplicity) and eigen-profiles (character,
    dimension) alike. Index order is element order, so the result is sorted
    by element too.
    """
    return tuple(sorted([(perm[i], v) for i, v in pairs]))


def make_group(factors) -> FiniteAbelianGroup:
    fs = tuple(factors)
    for n in fs:
        if not is_int(n) or n < 2:
            raise InvalidInputError(f"cyclic factor {n!r} must be an integer >= 2")
    order = prod(fs)
    if order > GROUP_ORDER_BOUND:
        raise InvalidInputError(f"group order {order} exceeds the bound {GROUP_ORDER_BOUND}")
    return FiniteAbelianGroup(fs)


def parse_group(text: str) -> FiniteAbelianGroup:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InvalidInputError("empty group specification")
    try:
        factors = [int(p) for p in parts]
    except ValueError:
        raise InvalidInputError(f"group specification {text!r} is not a comma-separated integer list") from None
    return make_group(factors)


def format_element(e: Element) -> str:
    return json.dumps(list(e), separators=(",", ":"))
