"""Search for diagonal quotients whose canonical image is a pencil of curves."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .atlas import _actions_cell
from .covers import CoverData, genus, make_cover
from .errors import (
    CapabilityError,
    DisconnectedCoverError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
)
from .groups import Element, FiniteAbelianGroup, make_group
from .linear import LinearForm
from .parallel import parallel_map
from .record import Record, _set
from .sandwich import InvariantReport, invariants, make_sandwich

__all__ = [
    "SurfaceSolution",
    "FamilyRow",
    "classify_cell",
    "fit_families",
    "search_cells",
    "classify",
    "classify_cells",
]

FIBER_GENUS_RANGE = (2, 5)


class SurfaceSolution(Record):
    """One pencil-bearing surface found at a specific section count."""

    __slots__ = ("p_g", "chi0", "cover_f", "cover_d", "genus_d", "report")

    def __init__(
        self,
        p_g: int,
        chi0: Element,
        cover_f: CoverData,
        cover_d: CoverData,
        genus_d: int,
        report: InvariantReport,
    ):
        _set(self, "p_g", p_g)
        _set(self, "chi0", chi0)
        _set(self, "cover_f", cover_f)
        _set(self, "cover_d", cover_d)
        _set(self, "genus_d", genus_d)
        _set(self, "report", report)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p_g, self.chi0, self.cover_f, self.cover_d, self.genus_d, self.report) == (
            other.p_g,
            other.chi0,
            other.cover_f,
            other.cover_d,
            other.genus_d,
            other.report,
        )

    def __hash__(self):
        return hash((self.p_g, self.chi0, self.cover_f, self.cover_d, self.genus_d, self.report))


class FamilyRow(Record):
    """A fitted linear family, or an isolated solution, in one search cell.

    forms maps column names to LinearForm; members holds the SurfaceSolutions.
    """

    __slots__ = (
        "factors",
        "quotient_genus_a",
        "quotient_genus_b",
        "genus_f",
        "chi0",
        "kind",
        "pg_lo",
        "pg_hi",
        "forms",
        "members",
    )


def _validate_pg_range(pg_range) -> tuple[int, int]:
    try:
        lo, hi = pg_range
    except (TypeError, ValueError):
        raise InvalidInputError(f"section range must be a pair, got {pg_range!r}")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (lo, hi)):
        raise InvalidInputError(f"section range needs integers, got {pg_range!r}")
    if lo < 2 or hi < lo:
        raise InvalidInputError(f"section range needs 2 <= lo <= hi, got {lo}..{hi}")
    return lo, hi


@lru_cache(maxsize=None)
def _bounded_part(group: FiniteAbelianGroup, fixed: tuple, target: Element):
    """Split the nonzero elements against fixed requirements and a target character.

    An element pairing nontrivially with a fixed character is bounded by that
    requirement; the other (free) elements pair only with the target. Returns
    the nonzero elements, the free ones as (index, target coefficient), and
    every multiplicity vector on the bounded elements that meets the fixed
    requirements exactly, as ((index, multiplicity) pairs, its share of the
    target). None of these depends on the target's degree.
    """
    nonzero = [e for e in group.elements() if e != group.identity]
    bounded = []
    free = []
    for i, e in enumerate(nonzero):
        cs = tuple(group.pair_num(chi, e) for chi, _ in fixed)
        t = group.pair_num(target, e)
        if any(cs):
            bounded.append((i, cs, t))
        elif t:
            free.append((i, t))
        else:
            raise CapabilityError(
                f"element {e} escapes every degree constraint; the search is unbounded"
            )

    vectors = []

    def rec(k: int, remaining: tuple[int, ...], acc: tuple, share: int):
        if k == len(bounded):
            if not any(remaining):
                vectors.append((acc, share))
            return
        i, cs, t = bounded[k]
        cap = min(r // c for c, r in zip(cs, remaining) if c)
        for d in range(cap + 1):
            nxt = tuple(r - d * c for c, r in zip(cs, remaining))
            rec(k + 1, nxt, acc + ((i, d),) if d else acc, share + d * t)

    rec(0, tuple(deg * group.exponent for _, deg in fixed), (), 0)
    return tuple(nonzero), tuple(free), tuple(vectors)


def _branch_solutions(
    group: FiniteAbelianGroup, requirements: list[tuple[Element, int]]
) -> list[dict[Element, int]]:
    """Branch multiplicity vectors with exact degrees on the given characters.

    Every nonzero element must pair nontrivially with some listed character,
    otherwise its multiplicity is unconstrained and the cell has no finite list.
    The last requirement is the target whose degree grows with p_g; the bounded
    part is solved once per (group, other requirements, target character), the
    free part per call. Vectors come in ascending lexicographic order of the
    multiplicity vector in elements() order.
    """
    target, degree = requirements[-1]
    nonzero, free, bounded = _bounded_part(group, tuple(requirements[:-1]), target)
    budget = degree * group.exponent
    if budget < 0:
        return []
    # reach[k]: bit r is set when the free elements k.. can make exactly r.
    reach = [1]
    for _, t in reversed(free):
        mask = reach[-1]
        step = t
        while step <= budget:
            mask |= mask << step
            step *= 2
        reach.append(mask & ((2 << budget) - 1))
    reach.reverse()

    def fill(k: int, rest: int, acc: tuple):
        if k == len(free):
            yield acc
            return
        i, t = free[k]
        for d in range(rest // t + 1):
            if reach[k + 1] >> (rest - d * t) & 1:
                yield from fill(k + 1, rest - d * t, acc + ((i, d),) if d else acc)

    filled: dict[int, list[tuple]] = {}
    vectors = []
    for part, share in bounded:
        rest = budget - share
        if rest < 0 or not reach[0] >> rest & 1:
            continue
        if rest not in filled:
            filled[rest] = list(fill(0, rest, ()))
        for tail in filled[rest]:
            vec = [0] * len(nonzero)
            for i, d in part + tail:
                vec[i] = d
            vectors.append(vec)
    vectors.sort()
    return [{nonzero[i]: d for i, d in enumerate(vec) if d} for vec in vectors]


def _complete_twist(group: FiniteAbelianGroup, base_genus: int, elems) -> tuple | None:
    """Lexicographically first twist making the data connected, if one exists.

    A rational base takes the empty twist; make_cover then checks generation.
    """
    if base_genus == 0:
        return ()
    pool = group.elements()
    kernel_mask = group.kernel_mask
    fixed = group.common_kernel(elems)
    for t1 in pool:
        left = fixed & kernel_mask(t1)
        for t2 in pool:
            if left & kernel_mask(t2) == 1:  # the same test as group.generates
                return (t1, t2)
    return None


def _twist_interchangeable(cover: CoverData) -> bool:
    """True when every generating twist over this branch data gives the same cover.

    Base moves act transitively on generating tuples exactly when the quotient
    by the branch subgroup is cyclic. Every twisted witness up to fiber genus 4
    has a cyclic quotient; at genus 5 three do not (over (2,2), (2,2,2), (2,4)).
    """
    group = cover.group
    omega = group.subgroup([e for e, _ in cover.branch])
    index = group.order // len(omega)
    for g in group.elements():
        k = 1
        acc = g
        while acc not in omega:
            acc = group.add(acc, g)
            k += 1
        if k == index:
            return True
    return False


def _stabilizer(cover: CoverData):
    """Automorphisms fixing the cover's branch data, and its twist when that matters.

    When the twist is not interchangeable, only automorphisms fixing the twist
    tuple itself are kept: a subgroup of the cover's symmetries, so no two
    distinct solutions are merged, though one may be listed twice. Each kept
    automorphism alpha comes as two element maps: character chi -> chi o alpha,
    and alpha(g) -> g.
    """
    group = cover.group
    els = group.elements()
    index = group.index
    loose_twist = not cover.twist or _twist_interchangeable(cover)
    branch = tuple((index[e], m) for e, m in cover.branch)
    indices = [i for i, _ in branch]
    mults = [m for _, m in branch]
    twist = tuple(index[t] for t in cover.twist)
    kept = []
    for alpha in group.automorphisms():
        image = alpha.perm.__getitem__
        if tuple(sorted(zip(map(image, indices), mults))) != branch:
            continue
        if not loose_twist and tuple(map(image, twist)) != twist:
            continue
        kept.append((
            dict(zip(els, [els[j] for j in alpha.char_perm])),
            dict(zip([els[j] for j in alpha.perm], els)),
        ))
    return tuple(kept)


def _canonical_solution(stab, chi0: Element, branch: dict[Element, int]):
    """Smallest cover-symmetry image of the pair (character, branch data).

    Pulling the character back along alpha pairs with pushing the branch
    forward along the inverse, so both sides transform as one solution. The
    character decides first, so only the automorphisms carrying chi0 to the
    smallest image need their branch image.
    """
    low = min(pull[chi0] for pull, _ in stab)
    return low, min(
        tuple(sorted(zip(map(preimage.__getitem__, branch), branch.values())))
        for pull, preimage in stab
        if pull[chi0] == low
    )


def _pencil_requirements(cover_f: CoverData, chi0: Element, b: int):
    """Fixed degree requirements and target character of a pencil at chi0.

    Every other character in F's eigen-profile needs degree 1 - b on D at its
    negative; the target -chi0 carries the degree that grows with p_g.
    """
    group = cover_f.group
    fixed = tuple(
        (group.neg(chi), 1 - b)
        for chi, dim in zip(group.elements()[1:], cover_f._dims[1:])
        if dim and chi != chi0
    )
    return fixed, group.neg(chi0)


def classify_cell(
    factors, genus_f: int, quotient_genus_a: int, quotient_genus_b: int, pg_range
) -> list[SurfaceSolution]:
    """All pencil solutions in one (group, base genera, fiber genus) cell."""
    group = make_group(factors)
    lo, hi = _validate_pg_range(pg_range)
    if not isinstance(genus_f, int) or not FIBER_GENUS_RANGE[0] <= genus_f <= FIBER_GENUS_RANGE[1]:
        raise InvalidInputError(f"fiber genus must be in 2..5, got {genus_f!r}")
    for name, value in (("a", quotient_genus_a), ("b", quotient_genus_b)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InvalidInputError(f"quotient genus {name} must be an integer >= 0")
    b = quotient_genus_b
    # With b >= 2 every character keeps sections on the second curve, and with
    # a, b >= 1 the trivial character does; either way no single character can
    # carry the whole canonical space.
    if b >= 2 or (quotient_genus_a >= 1 and b >= 1):
        return []
    if quotient_genus_a > genus_f:
        return []

    solutions = []
    for row in _actions_cell(genus_f, quotient_genus_a, group.factors):
        cover_f = row.witness
        stab = _stabilizer(cover_f)
        seen = set()
        # characters with a one-dimensional eigenspace on F, in elements() order
        candidates = [
            chi for chi, dim in zip(group.elements()[1:], cover_f._dims[1:]) if dim == 1
        ]
        for chi0 in candidates:
            fixed, target = _pencil_requirements(cover_f, chi0, b)
            for p_g in range(lo, hi + 1):
                requirements = [*fixed, (target, p_g + 1 - b)]
                for branch in _branch_solutions(group, requirements):
                    canon = _canonical_solution(stab, chi0, branch)
                    if canon in seen:
                        continue
                    seen.add(canon)
                    chi0_c, branch_c = canon
                    twist = _complete_twist(group, b, [e for e, _ in branch_c])
                    if twist is None:
                        continue
                    try:
                        cover_d = make_cover(group, b, branch_c, twist)
                    except (InvalidMonodromyError, DisconnectedCoverError):
                        continue
                    g_d = genus(cover_d)
                    if g_d < 2:
                        continue
                    report = invariants(make_sandwich(cover_f, cover_d))
                    if report.canonical_character != chi0_c:
                        raise InternalConsistencyError(
                            f"solution for {chi0_c} reports pencil character "
                            f"{report.canonical_character}"
                        )
                    if report.p_g != p_g:
                        raise InternalConsistencyError(
                            f"solution built for p_g={p_g} reports p_g={report.p_g}"
                        )
                    solutions.append(
                        SurfaceSolution(p_g, chi0_c, cover_f, cover_d, g_d, report)
                    )
    return solutions


@lru_cache(maxsize=None)
def _bucket_split(cover_f: CoverData, chi0: Element, b: int):
    """The bounded elements and the free ones with their growth steps, for one pencil.

    This is _bounded_part's split. A free element pairs only with the target
    -chi0, with numerator t over the exponent, so as p_g grows its
    multiplicity moves along a progression of step exponent / gcd(exponent, t).
    """
    group = cover_f.group
    nonzero, free, _ = _bounded_part(group, *_pencil_requirements(cover_f, chi0, b))
    free_index = dict(free)
    bounded = tuple(e for i, e in enumerate(nonzero) if i not in free_index)
    steps = tuple(
        (nonzero[i], group.exponent // gcd(group.exponent, t)) for i, t in free
    )
    return bounded, steps


def _bucket_key(sol: SurfaceSolution):
    """Witness, pencil character, bounded multiplicities and free residues of a solution."""
    bounded, steps = _bucket_split(sol.cover_f, sol.chi0, sol.cover_d.base_genus)
    branch = dict(sol.cover_d.branch)
    return (
        sol.cover_f.branch,
        sol.cover_f.twist,
        sol.chi0,
        tuple((e, branch[e]) for e in bounded if e in branch),
        tuple((e, branch.get(e, 0) % step) for e, step in steps),
    )


_FITTED_KEYS = ("g_D", "K2", "t_z", "chi", "euler_e")


def _series(sol: SurfaceSolution) -> dict[str, int]:
    return {
        "g_D": sol.genus_d,
        "K2": sol.report.K2,
        "t_z": sol.report.t_z,
        "chi": sol.report.chi,
        "euler_e": sol.report.euler_e,
    }


def _row_order(r: FamilyRow):
    g_d = r.forms["g_D"]
    cell = (r.factors, r.quotient_genus_a, r.quotient_genus_b, r.genus_f)
    return cell + ((-g_d.slope, -g_d.intercept), r.chi0, r.pg_lo)


def fit_families(solutions: list[SurfaceSolution]) -> list[FamilyRow]:
    """Group solutions into linear-in-p_g families, leaving the rest sporadic."""
    buckets: dict[tuple, list[SurfaceSolution]] = {}
    for sol in solutions:
        key = _bucket_key(sol)
        buckets.setdefault(key, []).append(sol)

    rows = []
    for key in buckets:
        members = sorted(buckets[key], key=lambda s: s.p_g)
        runs: list[list[SurfaceSolution]] = []
        prev = {}  # series of the previous member, which ends runs[-1]
        for sol in members:
            cur = _series(sol)
            run = runs[-1] if runs else None
            if run and sol.p_g == run[-1].p_g + 1:
                if len(run) == 1:
                    steps = {k: cur[k] - prev[k] for k in _FITTED_KEYS}
                    run.append(sol)
                elif all(cur[k] - prev[k] == steps[k] for k in _FITTED_KEYS):
                    run.append(sol)
                else:
                    runs.append([sol])
            else:
                runs.append([sol])
            prev = cur
        for run in runs:
            if len(run) >= 3:
                rows.append(_emit_row(run))
            else:
                rows.extend(_emit_row([sol]) for sol in run)

    rows.sort(key=_row_order)
    return rows


def _emit_row(run: list[SurfaceSolution]) -> FamilyRow:
    first = run[0]
    group = first.cover_f.group
    a = first.cover_f.base_genus
    b = first.cover_d.base_genus
    if len(run) >= 3:
        kind = "family"
        forms = {"p_g": LinearForm(1, 0), "q": LinearForm(0, a + b)}
        for key in _FITTED_KEYS:
            slope = _series(run[1])[key] - _series(run[0])[key]
            forms[key] = LinearForm(slope, _series(first)[key] - slope * first.p_g)
    else:
        kind = "sporadic"
        forms = {"p_g": LinearForm(0, first.p_g), "q": LinearForm(0, a + b)}
        for key in _FITTED_KEYS:
            forms[key] = LinearForm(0, _series(first)[key])
    return FamilyRow(
        group.factors,
        a,
        b,
        genus(first.cover_f),
        first.chi0,
        kind,
        first.p_g,
        run[-1].p_g,
        forms,
        tuple(run),
    )


def _cell_rows(args) -> list[FamilyRow]:
    factors, genus_f, a, b, pg_range = args
    return fit_families(classify_cell(factors, genus_f, a, b, pg_range))


def search_cells(
    genus_f: int,
    groups="all",
    quotient_genus_a="any",
    quotient_genus_b="any",
) -> list[tuple[tuple[int, ...], int, int]]:
    """The (factors, a, b) combinations a classify call with these arguments visits."""
    if not isinstance(genus_f, int) or not FIBER_GENUS_RANGE[0] <= genus_f <= FIBER_GENUS_RANGE[1]:
        raise InvalidInputError(f"fiber genus must be in 2..5, got {genus_f!r}")
    if groups == "all":
        from .atlas import abelian_groups_up_to

        factor_list = [g.factors for g in abelian_groups_up_to(4 * genus_f + 4)]
    else:
        factor_list = [make_group(f).factors for f in groups]
    if quotient_genus_a == "any":
        a_list = list(range(genus_f + 1))
    else:
        a_list = [quotient_genus_a]
    if quotient_genus_b == "any":
        b_list = [0, 1]
    else:
        b_list = [quotient_genus_b]
    return [(factors, a, b) for factors in factor_list for a in a_list for b in b_list]


def classify(
    genus_f: int,
    groups="all",
    quotient_genus_a="any",
    quotient_genus_b="any",
    pg_range=(3, 8),
) -> list[FamilyRow]:
    """Fitted families over every requested (group, quotient genera) cell."""
    _validate_pg_range(pg_range)
    triples = search_cells(genus_f, groups, quotient_genus_a, quotient_genus_b)
    cells = [(factors, a, b, genus_f) for factors, a, b in triples]
    return classify_cells(cells, pg_range)


def classify_cells(cells, pg_range) -> list[FamilyRow]:
    """Fitted families over (factors, a, b, genus_f) cells, run in order in this process."""
    lo, hi = _validate_pg_range(pg_range)
    jobs = [(factors, genus_f, a, b, (lo, hi)) for factors, a, b, genus_f in cells]
    merged = parallel_map(_cell_rows, jobs)
    rows = [row for cell in merged for row in cell]
    rows.sort(key=_row_order)
    return rows
