"""Search for diagonal quotients whose canonical image is a pencil of curves."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .atlas import _actions_cell, check_genus, groups_acting_on
from .covers import (
    CoverData,
    _multiplicity_vectors,
    _twist_table,
    genus,
    make_cover,
)
from .errors import (
    CapabilityError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
    is_int,
)
from .groups import Element, FiniteAbelianGroup, image, make_group
from .linear import LinearForm
from .parallel import parallel_map
from .record import Record, _set
from .sandwich import InvariantReport, invariants, make_sandwich

__all__ = [
    "SurfaceSolution",
    "FamilyRow",
    "cell_of",
    "classify_cell",
    "fit_families",
    "search_cells",
    "classify",
    "classify_cells",
]


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
    if not all(is_int(v) for v in (lo, hi)):
        raise InvalidInputError(f"section range needs integers, got {pg_range!r}")
    if lo < 2 or hi < lo:
        raise InvalidInputError(f"section range needs 2 <= lo <= hi, got {lo}..{hi}")
    return lo, hi


def _degree_rows(group: FiniteAbelianGroup, fixed: tuple, target: int) -> list:
    """(pairing numerators with the fixed characters, pairing numerator with
    the target) for every element, in elements() order; characters are indices."""
    chars = [chi for chi, _ in fixed]
    return [
        (tuple([row[chi] for chi in chars]), row[target])
        for row in map(group.pairing_row, range(group.order))
    ]


def _branch_solutions(group: FiniteAbelianGroup, fixed: tuple, target: int, degrees: range) -> list:
    """(degree, branch) for every branch multiplicity vector with the fixed
    (character index, degree) requirements and a degree in `degrees` (a range
    of nonnegative integers) on the target character index.

    A branch is a tuple of (element index, multiplicity) pairs with nonzero
    multiplicities, by ascending index. Every nonzero element must pair
    nontrivially with some listed character, otherwise its multiplicity is
    unconstrained and the cell has no finite list. One search covers the whole
    window: its state is the numerators of the fixed degrees still to be met,
    its weight the target's numerator. Vectors come by ascending degree, then
    in ascending lexicographic order of the multiplicity vector in elements()
    order.
    """
    exponent = group.exponent
    coeffs, weights = zip(*_degree_rows(group, fixed, target))
    for i in range(1, group.order):
        if not (any(coeffs[i]) or weights[i]):
            raise CapabilityError(
                f"element {group.elements()[i]} escapes every degree constraint; the search is unbounded"
            )

    def step(i, remaining):
        left = tuple([r - c for r, c in zip(remaining, coeffs[i])])
        return left if min(left, default=0) >= 0 else None

    goal = range(degrees.start * exponent, (degrees.stop - 1) * exponent + 1, exponent)
    start = tuple([degree * exponent for _, degree in fixed])
    found: dict[int, list] = {degree: [] for degree in degrees}
    for vector, weight in _multiplicity_vectors(step, weights, start, (0,) * len(fixed), goal):
        found[weight // exponent].append(vector)
    return [(degree, branch) for degree in degrees for branch in found[degree]]


@lru_cache(maxsize=None)
def _complete_twist(group: FiniteAbelianGroup, base_genus: int, kernel: int) -> tuple | None:
    """Lexicographically first twist, as element indices, making branch data
    with this common kernel mask connected, if one exists; over a rational
    base that is () when the branch data generate the group."""
    for twist, mask in _twist_table(group, base_genus):
        if kernel & mask == 1:  # the same test as group.generates
            return twist
    return None


def _twist_interchangeable(cover: CoverData) -> bool:
    """True when every generating twist over this branch data gives the same cover.

    Base moves act transitively on generating tuples exactly when the quotient
    by the branch subgroup is cyclic. Every twisted witness up to fiber genus 4
    has a cyclic quotient; at genus 5 three do not (over (2,2), (2,2,2), (2,4)).
    The quotient is dual to the characters vanishing on the branch subgroup,
    so it is cyclic exactly when one of them has order equal to their count.
    """
    group = cover.group
    mask = group.common_kernel([i for i, _ in cover.branch_ix])
    count = mask.bit_count()
    return any(mask >> j & 1 and o == count for j, o in enumerate(group.orders))


def _stabilizer(cover: CoverData):
    """Automorphisms fixing the cover's branch data, and its twist when that matters.

    When the twist is not interchangeable, only automorphisms fixing the twist
    tuple itself are kept: a subgroup of the cover's symmetries, so no two
    distinct solutions are merged, though one may be listed twice. Each kept
    automorphism alpha comes as two index permutations: its char_perm
    (chi -> chi o alpha) and the inverse of its perm (alpha(g) -> g).
    """
    group = cover.group
    branch, twist = cover.branch_ix, cover.twist_ix
    loose_twist = not twist or _twist_interchangeable(cover)
    kept = []
    for alpha in group.automorphisms():
        perm = alpha.perm
        if image(perm, branch) != branch:
            continue
        if not loose_twist and tuple([perm[t] for t in twist]) != twist:
            continue
        kept.append((alpha.char_perm, sorted(range(group.order), key=perm.__getitem__)))
    return tuple(kept)


def _canonical_solution(stab, chi0: int, branch: tuple):
    """Smallest cover-symmetry image of the pair (character, branch data), in
    index space: a character index and (element index, multiplicity) pairs.

    Pulling the character back along alpha pairs with pushing the branch
    forward along the inverse, so both sides transform as one solution. The
    character decides first, so only the automorphisms carrying chi0 to the
    smallest image need their branch image.
    """
    low = min(pull[chi0] for pull, _ in stab)
    return low, min(image(preimage, branch) for pull, preimage in stab if pull[chi0] == low)


def _pencil_requirements(cover_f: CoverData, chi0: int, b: int):
    """Fixed degree requirements and target character of a pencil at the
    character index chi0, all as character indices.

    Every other character in F's eigen-profile needs degree 1 - b on D at its
    negative; the target -chi0 carries the degree that grows with p_g.
    """
    neg = cover_f.group.neg_index
    fixed = tuple(
        (neg[chi], 1 - b) for chi, dim in enumerate(cover_f._dims) if chi and dim and chi != chi0
    )
    return fixed, neg[chi0]


def classify_cell(
    factors, genus_f: int, quotient_genus_a: int, quotient_genus_b: int, pg_range
) -> list[SurfaceSolution]:
    """All pencil solutions in one (group, base genera, fiber genus) cell."""
    group = make_group(factors)
    lo, hi = _validate_pg_range(pg_range)
    check_genus(genus_f, "fiber genus")
    for name, value in (("a", quotient_genus_a), ("b", quotient_genus_b)):
        if not is_int(value) or value < 0:
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
        # character indices with a one-dimensional eigenspace on F
        candidates = [chi for chi, dim in enumerate(cover_f._dims) if chi and dim == 1]
        for chi0 in candidates:
            fixed, target = _pencil_requirements(cover_f, chi0, b)
            window = range(lo + 1 - b, hi + 2 - b)  # target degree p_g + 1 - b
            for degree, branch in _branch_solutions(group, fixed, target, window):
                p_g = degree - 1 + b
                canon = _canonical_solution(stab, chi0, branch)
                if canon in seen:
                    continue
                seen.add(canon)
                chi_c, branch_c = canon
                twist = _complete_twist(group, b, group.common_kernel([i for i, _ in branch_c]))
                if twist is None:
                    continue
                try:
                    cover_d = make_cover(group, b, branch_c, twist)
                except InvalidMonodromyError:
                    continue
                g_d = genus(cover_d)
                if g_d < 2:
                    continue
                report = invariants(make_sandwich(cover_f, cover_d))
                chi0_c = group.elements()[chi_c]  # records hold the character as a tuple
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
def _bucket_split(cover_f: CoverData, chi0: int, b: int):
    """The bounded element indices and the free ones with their growth steps,
    for one pencil at the character index chi0.

    An element pairing nontrivially with a character other than the pencil's
    is bounded by that character's degree, which does not move with p_g. A
    free element pairs only with the target -chi0, with numerator t over the
    exponent, so as p_g grows its multiplicity moves along a progression of
    step exponent / gcd(exponent, t). Both are read off the same per-element
    rows that _branch_solutions hands to the solver.
    """
    group = cover_f.group
    exponent = group.exponent
    rows = _degree_rows(group, *_pencil_requirements(cover_f, chi0, b))
    bounded, steps = [], []
    for i, (cs, t) in enumerate(rows[1:], 1):
        if any(cs):
            bounded.append(i)
        else:
            steps.append((i, exponent // gcd(exponent, t)))
    return tuple(bounded), tuple(steps)


def _bucket_key(sol: SurfaceSolution):
    """Witness, pencil character, bounded multiplicities and free residues of a
    solution, all in element indices but the pencil character, a record field."""
    chi0 = sol.cover_f.group.index[sol.chi0]
    bounded, steps = _bucket_split(sol.cover_f, chi0, sol.cover_d.base_genus)
    branch = dict(sol.cover_d.branch_ix)
    return (
        sol.cover_f.branch_ix,
        sol.cover_f.twist_ix,
        chi0,
        tuple((i, branch[i]) for i in bounded if i in branch),
        tuple((i, branch.get(i, 0) % step) for i, step in steps),
    )


def _series(sol: SurfaceSolution) -> dict[str, int]:
    """The columns a family fits as linear forms in p_g; q is constant."""
    return {
        "p_g": sol.p_g,
        "g_D": sol.genus_d,
        "K2": sol.report.K2,
        "t_z": sol.report.t_z,
        "chi": sol.report.chi,
        "euler_e": sol.report.euler_e,
    }


def _row_order(r: FamilyRow):
    g_d = r.forms["g_D"]
    return cell_of(r) + ((-g_d.slope, -g_d.intercept), r.chi0, r.pg_lo)


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
                    steps = {k: cur[k] - prev[k] for k in cur}
                    run.append(sol)
                elif all(cur[k] - prev[k] == steps[k] for k in cur):
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
    """A family row for a run of three or more solutions, else a sporadic row
    for a run's one solution: the same fit, with slope 0."""
    first = run[0]
    a = first.cover_f.base_genus
    b = first.cover_d.base_genus
    start = _series(first)
    later = _series(run[1]) if len(run) >= 3 else start
    forms = {"q": LinearForm(0, a + b)}
    for key, value in start.items():
        slope = later[key] - value
        forms[key] = LinearForm(slope, value - slope * first.p_g)
    kind = "family" if len(run) >= 3 else "sporadic"
    return FamilyRow(
        first.cover_f.group.factors,
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


def cell_of(row) -> tuple[tuple[int, ...], int, int, int]:
    """The search cell (factors, a, b, genus_f) of a computed or a reference family row."""
    return (row.factors, row.quotient_genus_a, row.quotient_genus_b, row.genus_f)


def search_cells(
    genus_f: int,
    groups="all",
    quotient_genus_a="any",
    quotient_genus_b="any",
) -> list[tuple[tuple[int, ...], int, int, int]]:
    """The (factors, a, b, genus_f) cells a classify call with these arguments visits."""
    check_genus(genus_f, "fiber genus")
    if groups == "all":
        factor_list = [g.factors for g in groups_acting_on(genus_f)]
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
    return [(factors, a, b, genus_f) for factors in factor_list for a in a_list for b in b_list]


def classify(
    genus_f: int,
    groups="all",
    quotient_genus_a="any",
    quotient_genus_b="any",
    pg_range=(3, 8),
) -> list[FamilyRow]:
    """Fitted families over every requested (group, quotient genera) cell."""
    _validate_pg_range(pg_range)
    return classify_cells(search_cells(genus_f, groups, quotient_genus_a, quotient_genus_b), pg_range)


def classify_cells(cells, pg_range) -> list[FamilyRow]:
    """Fitted families over (factors, a, b, genus_f) cells, run in order in this process."""
    pg_range = _validate_pg_range(pg_range)

    def cell_rows(cell) -> list[FamilyRow]:
        factors, a, b, genus_f = cell
        return fit_families(classify_cell(factors, genus_f, a, b, pg_range))

    merged = parallel_map(cell_rows, cells)
    rows = [row for cell in merged for row in cell]
    rows.sort(key=_row_order)
    return rows
