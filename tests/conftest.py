"""Shared corpora and identity checkers reused by the property and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

pytest.register_assert_rewrite("oracle")

import oracle  # noqa: E402
from isopencil.atlas import abelian_groups_up_to
from isopencil.classifier import classify
from isopencil.covers import CoverData, eigen_profile, genus, genus_rh, make_cover
from isopencil.errors import DisconnectedCoverError, InvalidMonodromyError
from isopencil.sandwich import invariants, make_sandwich
from isopencil.singularities import discrepancies, hj_expansion

COVER_SEED = 0x5EED
COVER_TARGET = 1000


def _random_cover(rng: random.Random, group, base_genus: int) -> CoverData:
    nonzero = group.elements()[1:]
    picks = [rng.choice(nonzero) for _ in range(rng.randrange(7))]
    total = oracle.zero(group)
    for g in picks:
        total = oracle.add(group, total, g)
    if total != oracle.zero(group):
        picks.append(oracle.neg(group, total))
    twist = tuple(rng.choice(group.elements()) for _ in range(2 * base_genus))
    return make_cover(group, base_genus, [(g, 1) for g in picks], twist)


@pytest.fixture(scope="session")
def random_covers() -> list[CoverData]:
    """At least 1000 valid covers over groups of order <= 16 and base genus <= 2."""
    rng = random.Random(COVER_SEED)
    groups = abelian_groups_up_to(16)
    covers: list[CoverData] = []
    attempts = 0
    while len(covers) < COVER_TARGET:
        attempts += 1
        assert attempts < 60 * COVER_TARGET, "cover sampling stalled"
        try:
            covers.append(_random_cover(rng, rng.choice(groups), rng.randrange(3)))
        except (InvalidMonodromyError, DisconnectedCoverError):
            continue
    return covers


@pytest.fixture(scope="session")
def classified_rows() -> list:
    """A representative classification sweep whose members feed invariant checks."""
    rows = list(classify(2, pg_range=(3, 8)))
    rows += classify(
        3,
        groups=[(2,), (2, 2), (2, 2, 2), (2, 4), (2, 8), (4, 4)],
        pg_range=(3, 6),
    )
    return rows


def check_eigenspace_totals(covers) -> None:
    """Character-space dimensions must sum to the genus computed by branch counting."""
    for cover in covers:
        assert sum(eigen_profile(cover).values()) == genus_rh(cover) == genus(cover)


def degrees_from_dims(cover) -> dict:
    """Character -> bundle degree, read back from the cover's eigenspace dimensions:
    0 at the trivial character, dim - b + 1 at any other (Chevalley-Weil)."""
    b = cover.base_genus
    chars = cover.group.elements()
    return {chi: (dim - b + 1 if k else 0) for k, (chi, dim) in enumerate(zip(chars, cover.dims))}


def check_carry_relation(covers) -> None:
    """Degrees of the splitting bundles are additive up to the branch carries."""
    for cover in covers:
        grp = cover.group
        chars = grp.elements()
        degs = degrees_from_dims(cover)
        pair = {chi: [oracle.pairing(grp, chi, e) for e, _ in cover.branch] for chi in chars}
        mults = [m for _, m in cover.branch]
        for a in chars:
            for b in chars:
                carried = sum(m for m, x, y in zip(mults, pair[a], pair[b]) if x + y >= 1)
                assert degs[a] + degs[b] == degs[oracle.add(grp, a, b)] + carried


def check_dual_route_reports(rows) -> int:
    """Recompute every emitted surface; both canonical-degree routes must agree."""
    seen = 0
    for row in rows:
        for member in row.members:
            report = invariants(make_sandwich(member.cover_f, member.cover_d))
            assert report == member.report
            assert 12 * report.chi == report.K2 + report.euler_e
            seen += 1
    return seen


def check_node_shortcut(rows) -> int:
    """Quotients with only ordinary nodes obey the plain division formulas."""
    seen = 0
    for row in rows:
        for member in row.members:
            report = member.report
            if any(s.n != 2 for s in report.sing):
                continue
            order = member.cover_f.group.order
            g_f = genus(member.cover_f)
            g_d = genus(member.cover_d)
            assert report.K2 * order == 2 * (2 * g_f - 2) * (2 * g_d - 2)
            assert report.t_z % 4 == 0
            assert report.chi * order == (g_f - 1) * (g_d - 1) + report.t_z // 4
            seen += 1
    return seen


def check_hj_roundtrip() -> None:
    """Continued-fraction steps reassemble to n/q for every coprime pair, n <= 64."""
    for n in range(2, 65):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            steps = hj_expansion(n, q)
            assert all(step >= 2 for step in steps)
            assert oracle.hj_value(steps) == Fraction(n, q)


def check_discrepancy_interval(rows) -> None:
    """Every exceptional-curve discrepancy lies in (-1, 0]."""
    for n in range(2, 65):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            assert all(Fraction(-1) < d <= 0 for d in discrepancies(n, q))
    for row in rows:
        for member in row.members:
            for s in member.report.sing:
                assert all(Fraction(-1) < d <= 0 for d in discrepancies(s.n, s.q))


def check_repeat_determinism() -> None:
    """The classifier output is identical when the searches run again, in reverse order, on warm caches."""
    searches = (
        dict(genus_f=2, groups=[(2, 2)], quotient_genus_a=0, pg_range=(3, 6)),
        dict(genus_f=3, groups=[(2, 2, 2)], quotient_genus_a=0, quotient_genus_b=0, pg_range=(3, 5)),
    )
    first = [classify(**kwargs) for kwargs in searches]
    again = [classify(**kwargs) for kwargs in reversed(searches)][::-1]
    assert all(first) and first == again
