"""Cyclic quotient singularities 1/n(1,q) and their minimal resolutions."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalConsistencyError, InvalidInputError, is_int

__all__ = [
    "canonical_type",
    "discrepancies",
    "hj_expansion",
    "k2_correction",
]


def _validate_type(n: int, q: int) -> None:
    if not all(is_int(v) for v in (n, q)):
        raise InvalidInputError(f"singularity type must be a pair of integers, got ({n!r}, {q!r})")
    if n < 2 or not 0 < q < n:
        raise InvalidInputError(f"singularity type needs n >= 2 and 0 < q < n, got ({n}, {q})")
    if gcd(n, q) != 1:
        raise InvalidInputError(f"singularity type ({n}, {q}) is not coprime")


def hj_expansion(n: int, q: int) -> list[int]:
    """Continued-fraction string [b_1, ..., b_l] with n/q = b_1 - 1/(b_2 - ...)."""
    _validate_type(n, q)
    out = []
    while q:
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return out


def discrepancies(n: int, q: int) -> list[Fraction]:
    """Exceptional-curve coefficients of the canonical class on the resolution."""
    string = hj_expansion(n, q)
    # a_{i+1} = b_i a_i - a_{i-1} + (b_i - 2), a_0 = a_{l+1} = 0, solved
    # by carrying a_i = p_i + q_i x with x = a_1.
    prev = (Fraction(0), Fraction(0))
    cur = (Fraction(0), Fraction(1))
    coeffs = [cur]
    for b in string:
        nxt = (b * cur[0] - prev[0] + (b - 2), b * cur[1] - prev[1])
        prev, cur = cur, nxt
        coeffs.append(cur)
    tail_p, tail_q = coeffs[-1]
    if tail_q == 0:
        raise InternalConsistencyError(f"degenerate resolution system for type ({n}, {q})")
    x = -tail_p / tail_q
    out = [p + qq * x for p, qq in coeffs[:-1]]
    for a in out:
        if not -1 < a <= 0:
            raise InternalConsistencyError(f"discrepancy {a} outside (-1, 0] for type ({n}, {q})")
    return out


def k2_correction(n: int, q: int) -> Fraction:
    """What resolving one 1/n(1,q) point adds to the canonical self-intersection."""
    string = hj_expansion(n, q)  # validates the type
    return sum((a * (b - 2) for a, b in zip(discrepancies(n, q), string)), Fraction(0))


def canonical_type(n: int, q: int) -> tuple[int, int]:
    """Preferred label among the isomorphic pair 1/n(1,q) and 1/n(1,q')."""
    _validate_type(n, q)
    return n, min(q, pow(q, -1, n))
