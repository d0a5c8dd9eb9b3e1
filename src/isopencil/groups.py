"""Finite Abelian groups with exact character pairings.

Elements and characters are both integer tuples indexed by the cyclic
factors; the pairing <chi, g> = sum(chi[i]*g[i]/n_i) mod 1 is carried as an
integer numerator over the group exponent, so no floats appear anywhere.
Hot loops also number the elements by their position in elements() and read
per-group lookup tables by that index (index, add_row, orders, neg_index,
pairing_row), each built on first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .errors import CapabilityError, InvalidInputError

__all__ = [
    "Element",
    "FiniteAbelianGroup",
    "Automorphism",
    "make_group",
    "element_order",
    "generates",
    "restriction_exponent",
    "automorphisms",
    "parse_group",
    "format_group",
    "parse_element",
    "format_element",
]

Element = tuple[int, ...]

AUT_ORDER_BOUND = 64

_AUT_CACHE: dict[tuple[int, ...], tuple["Automorphism", ...]] = {}


class _Tables:
    """Lookup tables of one factors tuple, each built on first use.

    Group objects with equal factors share one instance (_TABLES), so a fresh
    group per parsed spec reads the tables the previous one built.
    """

    __slots__ = ("elements", "index", "orders", "neg", "rows", "pairing", "cyclic")

    def __init__(self):
        self.elements: list[Element] | None = None
        self.index: dict[Element, int] | None = None  # element -> position in elements()
        self.orders: tuple[int, ...] | None = None  # element order, by index
        self.neg: tuple[int, ...] | None = None  # index of -x, by index of x
        self.rows: dict[int, tuple[int, ...]] = {}  # index of x -> add_row(x)
        self.pairing: dict[int, tuple[int, ...]] = {}  # index of g -> pairing_row(g)
        self.cyclic: dict[Element, frozenset[Element]] = {}


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

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def validate(self, coords) -> Element:
        t = tuple(coords)
        if len(t) != len(self.factors):
            raise InvalidInputError(
                f"element {t} has {len(t)} coordinates, group {list(self.factors)} needs {len(self.factors)}"
            )
        for c, n in zip(t, self.factors):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n:
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

    def add_row(self, x: Element) -> tuple[int, ...]:
        """Index of y + x for every y, in elements() order; built by add on first use."""
        rows = self._tables.rows
        index = self.index
        i = index[x]
        row = rows.get(i)
        if row is None:
            row = rows[i] = tuple(index[self.add(y, x)] for y in self.elements())
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

    def pairing_row(self, g: Element) -> tuple[int, ...]:
        """pair_num(chi, g) for every character chi, in elements() order; built on first use."""
        pairing = self._tables.pairing
        i = self.index[g]
        row = pairing.get(i)
        if row is None:
            values = [0]
            for n, a, w in zip(self.factors, g, self._weights):
                step = a * w
                values = [(v + c * step) % self.exponent for v in values for c in range(n)]
            row = pairing[i] = tuple(values)
        return row

    def pairing(self, chi: Element, g: Element) -> Fraction:
        return Fraction(self.pair_num(chi, g), self.exponent)

    def restriction_exponent(self, chi: Element, h: Element) -> int:
        """Exponent a in [0, ord(h)) with <chi, h> = a/ord(h)."""
        if h == self.identity:
            raise InvalidInputError("restriction exponent needs a nonzero element")
        o = self.element_order(h)
        num = self.pair_num(chi, h) * o
        if num % self.exponent:
            raise InvalidInputError(f"pairing of {chi} with {h} is not a multiple of 1/{o}")
        return num // self.exponent

    def _span(self, elems) -> list[int]:
        """Indices of the subgroup the elements generate, by breadth-first closure."""
        rows = [self.add_row(x) for x in set(elems)]
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
        els = self.elements()
        return frozenset(els[i] for i in self._span(elems))

    def generates(self, elems) -> bool:
        return len(self._span(elems)) == self.order

    def cyclic(self, h: Element) -> frozenset[Element]:
        cyclic = self._tables.cyclic
        span = cyclic.get(h)
        if span is None:
            span = cyclic[h] = self.subgroup([h])
        return span

    def automorphisms(self) -> tuple["Automorphism", ...]:
        if self.order > AUT_ORDER_BOUND:
            raise CapabilityError(
                f"automorphism enumeration limited to order {AUT_ORDER_BOUND}, got {self.order}"
            )
        cached = _AUT_CACHE.get(self.factors)
        if cached is None:
            cached = tuple(
                Automorphism(self, images) for images in self._automorphism_images()
            )
            _AUT_CACHE[self.factors] = cached
        return cached

    def _automorphism_images(self):
        """All generator-image tuples defining a bijective endomorphism."""
        if not self.factors:
            yield ()
            return
        els = self.elements()
        candidates = [
            [x for x in els if self.scale(n, x) == self.identity] for n in self.factors
        ]
        tail_bound = [prod(self.factors[i:]) for i in range(len(self.factors))] + [1]

        def extend(chosen: list[Element], span: frozenset[Element]):
            i = len(chosen)
            if i == len(self.factors):
                if len(span) == self.order:
                    yield tuple(chosen)
                return
            for x in candidates[i]:
                chosen.append(x)
                new_span = span if x in span else self.subgroup(chosen)
                if len(new_span) * tail_bound[i + 1] >= self.order:
                    yield from extend(chosen, new_span)
                chosen.pop()

        yield from extend([], frozenset({self.identity}))


@dataclass(frozen=True)
class Automorphism:
    """Group automorphism given by the images of the standard generators.

    Its lookup tables are built on first use and kept with the instance.
    """

    group: FiniteAbelianGroup
    images: tuple[Element, ...]

    def _linear_table(self, basis_images) -> dict[Element, Element]:
        """g -> sum(g_i * basis_images[i]) for every g, in one pass over elements() order."""
        grp = self.group
        els = grp.elements()
        values = [0]  # indices of the partial sums
        for n, img in zip(grp.factors, basis_images):
            step = grp.add_row(img)
            extended = []
            for v in values:
                for _ in range(n):  # v + c * img for c = 0 .. n-1
                    extended.append(v)
                    v = step[v]
            values = extended
        return dict(zip(els, [els[v] for v in values]))

    @cached_property
    def table(self) -> dict[Element, Element]:
        """Element -> its image."""
        return self._linear_table(self.images)

    @cached_property
    def char_table(self) -> dict[Element, Element]:
        """Character chi -> the pulled-back character chi o alpha."""
        # The j-th coordinate of e_i o alpha is <e_i, images[j]> * n_j.
        fs = self.group.factors
        return self._linear_table(
            [tuple(img[i] * m // n for img, m in zip(self.images, fs)) for i, n in enumerate(fs)]
        )

    @cached_property
    def preimage(self) -> dict[Element, Element]:
        """Image -> the element it comes from."""
        return {img: g for g, img in self.table.items()}

    def apply(self, g: Element) -> Element:
        return self.table[g]

    def apply_char(self, chi: Element) -> Element:
        """The character chi o alpha, as coordinates."""
        return self.char_table[chi]


def make_group(factors) -> FiniteAbelianGroup:
    fs = tuple(factors)
    for n in fs:
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise InvalidInputError(f"cyclic factor {n!r} must be an integer >= 2")
    return FiniteAbelianGroup(fs)


def element_order(group: FiniteAbelianGroup, g) -> int:
    return group.element_order(group.validate(g))


def generates(group: FiniteAbelianGroup, elems) -> bool:
    return group.generates([group.validate(e) for e in elems])


def restriction_exponent(group: FiniteAbelianGroup, chi, h) -> int:
    return group.restriction_exponent(group.validate(chi), group.validate(h))


def automorphisms(group: FiniteAbelianGroup) -> tuple[Automorphism, ...]:
    return group.automorphisms()


def format_group(group: FiniteAbelianGroup) -> str:
    return ",".join(str(n) for n in group.factors)


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


def parse_element(group: FiniteAbelianGroup, text: str) -> Element:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise InvalidInputError(f"element {text!r} is not a bracketed integer tuple") from None
    if not isinstance(raw, list):
        raise InvalidInputError(f"element {text!r} is not a bracketed integer tuple")
    return group.validate(raw)
