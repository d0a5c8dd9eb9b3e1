"""Cyclic quotient resolutions: expansions, discrepancies, K2 corrections."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

import oracle
from isopencil.errors import InvalidInputError
from isopencil.singularities import (
    canonical_type,
    discrepancies,
    hj_expansion,
    k2_correction,
)


@pytest.mark.parametrize("entry", [canonical_type, discrepancies, hj_expansion, k2_correction])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_type_entries_are_rejected(entry, flag):
    # canonical_type(3, True) once returned (3, True): True passed as q = 1.
    with pytest.raises(InvalidInputError, match="pair of integers"):
        entry(3, flag)
    with pytest.raises(InvalidInputError, match="pair of integers"):
        entry(flag, 1)


def test_expansion_examples():
    assert hj_expansion(2, 1) == [2]
    assert hj_expansion(8, 5) == [2, 3, 2]
    assert hj_expansion(8, 3) == [3, 3]
    assert hj_expansion(8, 1) == [8]
    assert hj_expansion(4, 1) == [4]
    assert hj_expansion(4, 3) == [2, 2, 2]
    assert hj_expansion(7, 4) == [2, 4]


def test_expansion_rejects_bad_types():
    for n, q in [(4, 2), (6, 3), (5, 0), (5, 5), (5, -1), (0, 1), (-3, 1)]:
        with pytest.raises(InvalidInputError):
            hj_expansion(n, q)
    with pytest.raises(InvalidInputError):
        hj_expansion(Fraction(8, 1), 3)


def test_value_inverts_expansion():
    for n in range(2, 21):
        for q in range(1, n):
            if gcd(n, q) == 1:
                assert oracle.hj_value(hj_expansion(n, q)) == Fraction(n, q)


def test_discrepancy_examples():
    assert discrepancies(2, 1) == [Fraction(0)]
    assert discrepancies(8, 5) == [Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 4)]
    assert discrepancies(8, 3) == [Fraction(-1, 2), Fraction(-1, 2)]
    assert discrepancies(4, 1) == [Fraction(-1, 2)]


def test_k2_correction_examples():
    assert k2_correction(2, 1) == 0
    assert k2_correction(8, 5) == Fraction(-1, 2)
    assert k2_correction(8, 3) == -1
    assert k2_correction(8, 1) == Fraction(-9, 2)
    assert k2_correction(4, 1) == -1
    assert k2_correction(4, 3) == 0
    assert k2_correction(3, 1) == Fraction(-1, 3)
    assert k2_correction(6, 1) == Fraction(-8, 3)
    for n in range(2, 12):
        assert k2_correction(n, 1) == Fraction(-((n - 2) ** 2), n)


def test_k2_correction_rejects_bad_types_before_its_cache():
    assert k2_correction(8, 5) == Fraction(-1, 2)
    for n, q in (([8], 5), (8, [5]), (8.0, 5), (8, 4), (8, 8)):
        with pytest.raises(InvalidInputError):
            k2_correction(n, q)


def test_discrepancies_lie_in_unit_interval():
    for n in range(2, 31):
        for q in range(1, n):
            if gcd(n, q) == 1:
                for a in discrepancies(n, q):
                    assert -1 < a <= 0


def test_dual_type_reverses_string():
    for n in range(2, 31):
        for q in range(1, n):
            if gcd(n, q) == 1:
                qinv = pow(q, -1, n)
                assert hj_expansion(n, qinv) == hj_expansion(n, q)[::-1]
                assert k2_correction(n, qinv) == k2_correction(n, q)


def test_canonical_type():
    assert canonical_type(2, 1) == (2, 1)
    assert canonical_type(8, 3) == (8, 3)
    assert canonical_type(8, 5) == (8, 5)
    assert canonical_type(5, 3) == (5, 2)
    assert canonical_type(5, 2) == (5, 2)
    assert canonical_type(7, 5) == (7, 3)
    assert canonical_type(12, 7) == (12, 7)
    for n in range(2, 20):
        assert canonical_type(n, 1) == (n, 1)
