"""Finite Abelian groups with exact character pairings.

At the API, elements and characters are both integer tuples indexed by the
cyclic factors; the pairing <chi, g> = sum(chi[i]*g[i]/n_i) mod 1 is carried
as an integer numerator over the group exponent, so no floats appear
anywhere. Inside the package an element is its index, its position in
elements(): the lookup tables add_row, orders, neg_index, pairing_row and
kernel_mask are read by index, and common_kernel and generates take indices
too. Each table is built on first use; index maps a tuple to its index. An
automorphism is a permutation of those indices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .errors import CapabilityError, InvalidInputError, is_int
from .record import Record, _set

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

_AUT_CACHE: dict[tuple[int, ...], tuple["Automorphism", ...]] = {}


class _Tables:
    """Lookup tables of one factors tuple, each built on first use.

    Group objects with equal factors share one instance (_TABLES), so a fresh
    group per parsed spec reads the tables the previous one built.
    """

    __slots__ = ("elements", "index", "orders", "neg", "rows", "pairing", "kernel")

    def __init__(self):
        self.elements: list[Element] | None = None
        self.index: dict[Element, int] | None = None  # element -> position in elements()
        self.orders: tuple[int, ...] | None = None  # element order, by index
        self.neg: tuple[int, ...] | None = None  # index of -x, by index of x
        self.rows: dict[int, tuple[int, ...]] = {}  # index of x -> add_row(x)
        self.pairing: dict[int, tuple[int, ...]] = {}  # index of g -> pairing_row(g)
        self.kernel: dict[int, int] = {}  # index of g -> kernel_mask(g)


_TABLES: dict[tuple[int, ...], _Tables] = {}


class FiniteAbelianGroup:
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_k."""

    __slots__ = ("factors", "order", "exponent", "_weights", "_tables")

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.order = prod(factors)
        self.exponent = lcm(*factors) if factors else 1
        # pair_num(chi, g) = sum(chi_i * g_i * weight_i) mod exponent
        self._weights = tuple(self.exponent // n for n in factors)
        tables = _TABLES.get(factors)
        if tables is None:
            tables = _TABLES[factors] = _Tables()
        self._tables = tables

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.factors)})"

    def __reduce__(self):
        # Pickle the factors only: the unpickled group re-attaches to _TABLES.
        return (FiniteAbelianGroup, (self.factors,))

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

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

    def elements(self) -> list[Element]:
        tables = self._tables
        if tables.elements is None:
            els = [()]
            for n in self.factors:
                els = [e + (c,) for e in els for c in range(n)]
            tables.elements = els
        return tables.elements

    @property
    def index(self) -> dict[Element, int]:
        """Element -> its position in elements(); the identity is 0."""
        tables = self._tables
        if tables.index is None:
            tables.index = {e: i for i, e in enumerate(self.elements())}
        return tables.index

    def add_row(self, i: int) -> tuple[int, ...]:
        """Index of y + x for every y, in elements() order, where x has index i;
        built on first use.

        The index of an element is its mixed-radix number over the factors,
        so the row is built digit by digit, each digit shifted by x's.
        """
        rows = self._tables.rows
        row = rows.get(i)
        if row is None:
            values = [0]
            for n, a in zip(self.factors, self.elements()[i]):
                digits = [(c + a) % n for c in range(n)]
                values = [v * n + d for v in values for d in digits]
            row = rows[i] = tuple(values)
        return row

    @property
    def orders(self) -> tuple[int, ...]:
        """Element orders, in elements() order."""
        tables = self._tables
        if tables.orders is None:
            fs = self.factors
            tables.orders = tuple(
                lcm(*(n // gcd(a, n) for a, n in zip(g, fs))) for g in self.elements()
            )
        return tables.orders

    @property
    def neg_index(self) -> tuple[int, ...]:
        """Index of -x for the index of every x."""
        tables = self._tables
        if tables.neg is None:
            index = self.index
            fs = self.factors
            tables.neg = tuple(
                index[tuple((-a) % n for a, n in zip(x, fs))] for x in self.elements()
            )
        return tables.neg

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.factors))

    def neg(self, x: Element) -> Element:
        return self.elements()[self.neg_index[self.index[x]]]

    def scale(self, k: int, x: Element) -> Element:
        return tuple((k * a) % n for a, n in zip(x, self.factors))

    def element_order(self, g: Element) -> int:
        return self.orders[self.index[g]]

    def pair_num(self, chi: Element, g: Element) -> int:
        """Numerator of <chi, g> over the group exponent."""
        return sum(c * a * w for c, a, w in zip(chi, g, self._weights)) % self.exponent

    def pairing_row(self, i: int) -> tuple[int, ...]:
        """pair_num(chi, g) for every character chi, in elements() order, where
        g has index i; built on first use."""
        pairing = self._tables.pairing
        row = pairing.get(i)
        if row is None:
            values = [0]
            for n, a, w in zip(self.factors, self.elements()[i], self._weights):
                step = a * w
                values = [(v + c * step) % self.exponent for v in values for c in range(n)]
            row = pairing[i] = tuple(values)
        return row

    def kernel_mask(self, i: int) -> int:
        """Bit j set when the j-th character (elements() order) vanishes on the
        element of index i; built on first use."""
        kernel = self._tables.kernel
        mask = kernel.get(i)
        if mask is None:
            row = self.pairing_row(i)
            mask = kernel[i] = int("".join("0" if v else "1" for v in reversed(row)), 2)
        return mask

    def common_kernel(self, indices) -> int:
        """Mask of the characters vanishing on every element index given (all of them for none)."""
        mask = (1 << self.order) - 1
        for i in indices:
            mask &= self.kernel_mask(i)
        return mask

    def pairing(self, chi: Element, g: Element) -> Fraction:
        return Fraction(self.pair_num(chi, g), self.exponent)

    def _span(self, indices) -> list[int]:
        """Indices of the subgroup the element indices generate, by breadth-first
        closure. For one element x that lists 0, x, 2x, ..., in order."""
        rows = [self.add_row(i) for i in set(indices)]
        seen = bytearray(self.order)
        seen[0] = 1
        span = [0]
        for i in span:
            for row in rows:
                j = row[i]
                if not seen[j]:
                    seen[j] = 1
                    span.append(j)
        return span

    def subgroup(self, elems) -> frozenset[Element]:
        els, index = self.elements(), self.index
        return frozenset(els[i] for i in self._span([index[x] for x in elems]))

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
        """Raise CapabilityError when Aut(G) has more than AUT_SIZE_BOUND elements."""
        size = self.automorphism_count()
        if size > AUT_SIZE_BOUND:
            raise CapabilityError(
                f"automorphism enumeration limited to {AUT_SIZE_BOUND} automorphisms, "
                f"group {list(self.factors)} has {size}"
            )

    def automorphisms(self) -> tuple["Automorphism", ...]:
        if self.order > AUT_ORDER_BOUND:
            raise CapabilityError(
                f"automorphism enumeration limited to order {AUT_ORDER_BOUND}, got {self.order}"
            )
        cached = _AUT_CACHE.get(self.factors)
        if cached is None:
            self.check_aut_size()
            perms = dict(self._automorphism_search())
            columns = {}
            auts = []
            for images, perm in perms.items():
                alpha = Automorphism(self, images)
                # Characters add coordinate-wise like elements, so chi -> chi o alpha
                # is itself an automorphism; its perm is alpha's char_perm.
                dual = _dual_images(images, self.factors, columns)
                alpha.__dict__.update(perm=perm, char_perm=perms[dual])
                auts.append(alpha)
            cached = _AUT_CACHE[self.factors] = tuple(auts)
        return cached

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
                    multiples = [0]  # indices of c * x for c = 0 .. n-1, x = els[j]
                    for _ in range(n - 1):
                        multiples.append(rows[j][multiples[-1]])
                    level.append((els[j], self.kernel_mask(j), [rows[m] for m in multiples]))
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


def _dual_images(images, factors, columns: dict) -> tuple[Element, ...]:
    """Images of the standard characters e_i under chi -> chi o alpha.

    The j-th coordinate of e_i o alpha is <e_i, images[j]> * n_j, that is
    images[j][i] * n_j / n_i. That column depends only on (j, images[j]), so
    it is cached in columns, which the caller keeps across automorphisms.
    """
    cols = []
    for j, img in enumerate(images):
        col = columns.get((j, img))
        if col is None:
            m = factors[j]
            col = columns[(j, img)] = tuple(c * m // n for c, n in zip(img, factors))
        cols.append(col)
    return tuple(zip(*cols))


class Automorphism(Record):
    """Group automorphism alpha, given by the images of the standard generators.

    perm[i] is the index (position in elements()) of alpha(g) for the g at
    index i, and char_perm[i] the index of the pulled-back character
    chi o alpha for the chi at index i. Both are built from images on first
    use and kept with the instance; FiniteAbelianGroup.automorphisms() fills
    them in from its search.
    """

    __slots__ = ("group", "images", "__dict__")

    def __init__(self, group: FiniteAbelianGroup, images: tuple[Element, ...]):
        _set(self, "group", group)
        _set(self, "images", images)

    def _linear_perm(self, basis_images) -> tuple[int, ...]:
        """Index of sum(g_i * basis_images[i]) for every g, in elements() order."""
        grp = self.group
        values = [0]  # indices of the partial sums
        for n, img in zip(grp.factors, basis_images):
            step = grp.add_row(grp.index[img])
            extended = []
            for v in values:
                for _ in range(n):  # v + c * img for c = 0 .. n-1
                    extended.append(v)
                    v = step[v]
            values = extended
        return tuple(values)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        return self._linear_perm(self.images)

    @cached_property
    def char_perm(self) -> tuple[int, ...]:
        return self._linear_perm(_dual_images(self.images, self.group.factors, {}))

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
