"""Search for diagonal quotients whose canonical image is a pencil of curves."""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import sub

from .atlas import _actions_cell, check_genus, groups_acting_on
from .covers import (
    CoverData,
    _checked_cover,
    _multiplicity_vectors,
    _twist_table,
    genus,
)
from .errors import (
    CapabilityError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMonodromyError,
    is_int,
)
from .groups import FiniteAbelianGroup, image, make_group
from .linear import LinearForm
from .parallel import parallel_map
from .record import Record
from .sandwich import _fiber_stage, _surface_stage

__all__ = [
    "SurfaceSolution",
    "FamilyRow",
    "PencilPair",
    "cell_of",
    "pencil_pairs",
    "pair_solutions",
    "classify_cell",
    "fit_families",
    "search_cells",
    "classify",
    "classify_cells",
]


class SurfaceSolution(Record):
    """One pencil-bearing surface found at a specific section count, with the
    PencilPair it was solved from; its witness is the fiber curve F."""

    __slots__ = ("p_g", "chi0", "pair", "cover_d", "genus_d", "report")


class PencilPair(Record):
    """One pencil character chi0, an index, of one witness over base genus b of
    D: the requirements and element split of _pencil_pair, and the perms of the
    automorphisms fixing chi0."""

    __slots__ = ("witness", "chi0", "b", "fixed", "target", "fixers", "bounded", "steps")


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


def _invariant_factors(factors) -> tuple[int, ...]:
    """make_group(factors).factors when each divides the next: groups="all" and the tables name groups so."""
    fs = make_group(factors).factors
    if any(d % c for c, d in zip(fs, fs[1:])):
        raise InvalidInputError(f"group {list(fs)} must be given by invariant factors, each dividing the next")
    return fs


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
def _complete_twist(group: FiniteAbelianGroup, base_genus: int, support: tuple) -> tuple | None:
    """Lexicographically first twist, as element indices, making branch data
    with these element indices connected, if one exists; over a rational
    base that is () when the branch data generate the group."""
    kernel = group.common_kernel(support)
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
    """(char_perm, perm) of every automorphism fixing the cover's branch data,
    and its twist when that matters.

    When the twist is not interchangeable, only automorphisms fixing the twist
    tuple itself are kept: a subgroup of the cover's symmetries, so no two
    distinct solutions are merged, though one may be listed twice. Either way
    the kept automorphisms form a group.

    Every kept alpha fixes the cover's eigen-profile, so it carries the degree
    equations of a pencil at chi0 onto those at chi0 o alpha, solution by
    solution. pencil_pairs therefore builds one pair per orbit, at the
    smallest character, found through char_perm (chi -> chi o alpha). The
    automorphisms whose char_perm fixes chi0 are a subgroup too, so they move
    a solution's branch data onto the same set of images as their inverses
    do, and pair_solutions canonicalizes with their perm as it stands.
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
        kept.append((alpha.char_perm, perm))
    return tuple(kept)


def _pencil_pair(cover_f: CoverData, chi0: int, b: int, fixers) -> PencilPair:
    """The pair of the witness cover_f at the character index chi0: every other
    character in F's eigen-profile is fixed, needing degree 1 - b on D at its
    negative, and the target -chi0 carries the degree that grows with p_g. An
    element pairing with a fixed character is bounded; a free one pairs only
    with the target, with numerator t, so its multiplicity moves in steps of
    exponent / gcd(exponent, t). The split reads the rows _branch_solutions
    solves."""
    group = cover_f.group
    exponent, neg = group.exponent, group.neg_index
    fixed = tuple(
        (neg[chi], 1 - b) for chi, dim in enumerate(cover_f.dims) if chi and dim and chi != chi0
    )
    target = neg[chi0]
    bounded, steps = [], []
    for i, (cs, t) in enumerate(_degree_rows(group, fixed, target)[1:], 1):
        if any(cs):
            bounded.append(i)
        else:
            steps.append((i, exponent // gcd(exponent, t)))
    return PencilPair(cover_f, chi0, b, fixed, target, tuple(fixers), tuple(bounded), tuple(steps))


def pencil_pairs(group: FiniteAbelianGroup, genus_f: int, a: int, b: int):
    """One PencilPair per _stabilizer orbit of one-dimensional characters of
    each witness of the cell, at the orbit's smallest character: a solution at
    another character of the orbit only repeats the image of one found there.
    """
    for row in _actions_cell(genus_f, a, group.factors):
        cover_f = row.witness
        stab = _stabilizer(cover_f)
        for chi0, dim in enumerate(cover_f.dims):
            if chi0 and dim == 1 and not any(pull[chi0] < chi0 for pull, _ in stab):
                fixers = [perm for pull, perm in stab if pull[chi0] == chi0]
                yield _pencil_pair(cover_f, chi0, b, fixers)


def pair_solutions(pair: PencilPair, pg_range):
    """(p_g, branch, twist) as element indices for every pencil of the pair
    with p_g in pg_range, each branch in canonical form under the fixers and
    listed once; branch data with no connecting twist are dropped.
    """
    group, b, fixers = pair.witness.group, pair.b, pair.fixers
    seen = set()
    window = range(pg_range[0] + 1 - b, pg_range[1] + 2 - b)  # target degree p_g + 1 - b
    for degree, branch in _branch_solutions(group, pair.fixed, pair.target, window):
        if len(fixers) > 1:
            branch = min(image(perm, branch) for perm in fixers)
        if branch in seen:
            continue
        seen.add(branch)
        twist = _complete_twist(group, b, tuple([i for i, _ in branch]))
        if twist is not None:
            yield degree - 1 + b, branch, twist


def classify_cell(
    factors, genus_f: int, quotient_genus_a: int, quotient_genus_b: int, pg_range
) -> list[SurfaceSolution]:
    """All pencil solutions in one (group, base genera, fiber genus) cell: for
    each pair of pencil_pairs, the surfaces of pair_solutions. Solutions come
    by witness, then ascending character index, then as the solver yields them.

    Each solution is checked as make_cover and invariants check a cover and a
    sandwich given from outside, less what holds by construction: the solver's
    branch data are in make_cover's normal form, D has the witness's group,
    and F's side of invariants is built once per pair.
    """
    group = make_group(_invariant_factors(factors))
    pg_range = _validate_pg_range(pg_range)
    check_genus(genus_f, "fiber genus")
    for name, value in (("a", quotient_genus_a), ("b", quotient_genus_b)):
        if not is_int(value) or value < 0:
            raise InvalidInputError(f"quotient genus {name} must be an integer >= 0")
    b = quotient_genus_b
    # With b >= 2 every character keeps sections on the second curve, and with
    # a, b >= 1 the trivial character does; either way no single character can
    # carry the whole canonical space.
    if b >= 2 or (quotient_genus_a >= 1 and b >= 1) or quotient_genus_a > genus_f:
        return []

    solutions = []
    for pair in pencil_pairs(group, genus_f, quotient_genus_a, b):
        chi0 = group.elements()[pair.chi0]  # records hold the character as a tuple
        fiber = _fiber_stage(pair.witness)
        for p_g, branch, twist in pair_solutions(pair, pg_range):
            # G acts faithfully on F's 1-forms when g_F >= 2, so F's
            # eigen-characters generate the dual group: the solved degrees
            # are integral on every character and the branch sum closes.
            # And g_D is at least the dimension of D's -chi0 eigenspace,
            # which is p_g >= 2. So neither check below can fire.
            try:
                cover_d = _checked_cover(group, b, branch, twist)
            except InvalidMonodromyError as err:
                raise InternalConsistencyError(f"solved branch data are not a cover: {err}") from err
            g_d = cover_d.genus
            if g_d < 2:
                raise InternalConsistencyError(f"solution for p_g={p_g} has g(D)={g_d} < 2")
            report = _surface_stage(fiber, cover_d)
            if report.canonical_character != chi0:
                raise InternalConsistencyError(
                    f"solution for {chi0} reports pencil character {report.canonical_character}"
                )
            if report.p_g != p_g:
                raise InternalConsistencyError(f"solution built for p_g={p_g} reports p_g={report.p_g}")
            solutions.append(SurfaceSolution(p_g, chi0, pair, cover_d, g_d, report))
    return solutions


def _bucket_key(pair: PencilPair, branch: tuple) -> tuple:
    """The multiplicity of each bounded element of the pair and the residue of
    each free one mod its step, in the pair's order, from a solution's branch
    (element index, multiplicity) pairs; an absent element has multiplicity 0."""
    mults = dict(branch)
    residues = tuple([mults.get(i, 0) % step for i, step in pair.steps])
    return tuple([mults.get(i, 0) for i in pair.bounded]), residues


_SERIES = ("p_g", "g_D", "K2", "t_z", "chi", "euler_e")


def _series(sol: SurfaceSolution) -> tuple[int, ...]:
    """The columns a family fits as linear forms in p_g, named by _SERIES; q is constant."""
    report = sol.report
    return sol.p_g, sol.genus_d, report.K2, report.t_z, report.chi, report.euler_e


def _row_order(r: FamilyRow):
    g_d = r.forms["g_D"]
    return cell_of(r) + ((-g_d.slope, -g_d.intercept), r.chi0, r.pg_lo)


def fit_families(solutions: list[SurfaceSolution]) -> list[FamilyRow]:
    """Group solutions into linear-in-p_g families, leaving the rest sporadic;
    solutions of two pencil pairs are never merged."""
    # Each solution carries the one PencilPair object it was solved from, so the
    # pair's identity tells pairs apart without hashing its fields.
    buckets: dict[tuple, list[SurfaceSolution]] = {}
    for sol in solutions:
        key = (id(sol.pair), *_bucket_key(sol.pair, sol.cover_d.branch_ix))
        buckets.setdefault(key, []).append(sol)

    rows = []
    for key in buckets:
        members = sorted(buckets[key], key=lambda s: s.p_g)
        runs: list[list[SurfaceSolution]] = []
        prev = ()  # series of the previous member, which ends runs[-1]
        for sol in members:
            cur = _series(sol)
            run = runs[-1] if runs else None
            if run and sol.p_g == run[-1].p_g + 1:
                if len(run) == 1:
                    steps = tuple(map(sub, cur, prev))
                    run.append(sol)
                elif tuple(map(sub, cur, prev)) == steps:
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
    witness, b = first.pair.witness, first.pair.b
    a = witness.base_genus
    start = _series(first)
    later = _series(run[1]) if len(run) >= 3 else start
    forms = {"q": LinearForm(0, a + b)}
    for key, value, next_value in zip(_SERIES, start, later):
        slope = next_value - value
        forms[key] = LinearForm(slope, value - slope * first.p_g)
    kind = "family" if len(run) >= 3 else "sporadic"
    return FamilyRow(
        witness.group.factors,
        a,
        b,
        genus(witness),
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
        factor_list = [_invariant_factors(f) for f in groups]
    a_list = range(genus_f + 1) if quotient_genus_a == "any" else [quotient_genus_a]
    b_list = (0, 1) if quotient_genus_b == "any" else [quotient_genus_b]
    return [(factors, a, b, genus_f) for factors in factor_list for a in a_list for b in b_list]


def classify(
    genus_f: int,
    groups="all",
    quotient_genus_a="any",
    quotient_genus_b="any",
    pg_range=(3, 8),
) -> list[FamilyRow]:
    """Fitted families over every requested (group, quotient genera) cell."""
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
