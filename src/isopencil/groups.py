"""Finite Abelian groups with exact character pairings.

Elements and characters are both integer tuples indexed by the cyclic
factors; the pairing <chi, g> = sum(chi[i]*g[i]/n_i) mod 1 is carried as an
integer numerator over the group exponent, so no floats appear anywhere.
Hot loops also number the elements by their position in elements() and add
through one lookup row per summand (index, add_row).
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

# Per factors tuple: element -> position in elements(), and x's index -> add_row(x).
_INDEX_CACHE: dict[tuple[int, ...], dict[Element, int]] = {}
_ROW_CACHE: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}


class FiniteAbelianGroup:
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_k."""

    __slots__ = (
        "factors", "order", "exponent", "_weights", "_elements", "_cyclic", "_index", "_rows",
    )

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.order = prod(factors)
        self.exponent = lcm(*factors) if factors else 1
        # pair_num(chi, g) = sum(chi_i * g_i * weight_i) mod exponent
        self._weights = tuple(self.exponent // n for n in factors)
        self._elements: list[Element] | None = None
        self._cyclic: dict[Element, frozenset[Element]] = {}
        self._index: dict[Element, int] | None = None
        self._rows: dict[int, tuple[int, ...]] | None = None

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
        if self._elements is None:
            els = [()]
            for n in self.factors:
                els = [e + (c,) for e in els for c in range(n)]
            self._elements = els
        return self._elements

    @property
    def index(self) -> dict[Element, int]:
        """Element -> its position in elements(); the identity is 0."""
        if self._index is None:
            index = _INDEX_CACHE.get(self.factors)
            if index is None:
                index = _INDEX_CACHE[self.factors] = {e: i for i, e in enumerate(self.elements())}
            self._index = index
        return self._index

    def add_row(self, x: Element) -> tuple[int, ...]:
        """Index of y + x for every y, in elements() order; built by add on first use."""
        if self._rows is None:
            self._rows = _ROW_CACHE.setdefault(self.factors, {})
        index = self.index
        i = index[x]
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = tuple(index[self.add(y, x)] for y in self.elements())
        return row

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.factors))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % n for a, n in zip(x, self.factors))

    def scale(self, k: int, x: Element) -> Element:
        return tuple((k * a) % n for a, n in zip(x, self.factors))

    def element_order(self, g: Element) -> int:
        return lcm(*(n // gcd(a, n) for a, n in zip(g, self.factors)))

    def pair_num(self, chi: Element, g: Element) -> int:
        """Numerator of <chi, g> over the group exponent."""
        return sum(c * a * w for c, a, w in zip(chi, g, self._weights)) % self.exponent

    def pairing_row(self, g: Element) -> list[int]:
        """pair_num(chi, g) for every character chi, in elements() order."""
        values = [0]
        for n, a, w in zip(self.factors, g, self._weights):
            step = a * w
            values = [(v + c * step) % self.exponent for v in values for c in range(n)]
        return values

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
        span = self._cyclic.get(h)
        if span is None:
            span = self._cyclic[h] = self.subgroup([h])
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
        values = [grp.identity]
        for n, img in zip(grp.factors, basis_images):
            multiples = [grp.scale(c, img) for c in range(n)]
            values = [grp.add(v, m) for v in values for m in multiples]
        return dict(zip(grp.elements(), values))

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
