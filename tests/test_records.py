"""Value semantics of every record type: construction, equality, hashing,
immutability and pickling."""

import pickle

import pytest

from isopencil.atlas import AtlasRow, atlas_table, enumerate_actions
from isopencil.classifier import FamilyRow, PencilPair, SurfaceSolution
from isopencil.compare import (
    AtlasComparison,
    ComparisonReport,
    Discrepancy,
    ExtraRow,
    MatchedRow,
    MissingRow,
)
from isopencil.covers import CoverData, genus, make_cover
from isopencil.groups import Automorphism, make_group
from isopencil.linear import LinearForm
from isopencil.record import Record
from isopencil.reference_tables import AtlasReferenceRow, FamilyReferenceRow
from isopencil.sandwich import InvariantReport, Sandwich, SingularClass, invariants, make_sandwich

KLEIN = make_group((2, 2))
F_COVER = make_cover(KLEIN, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 3})
D_COVER = make_cover(KLEIN, 1, {(0, 1): 6}, ((1, 0), (0, 1)))
REPORT = invariants(make_sandwich(F_COVER, D_COVER))
FORM = LinearForm(8, -4)
CELL = ((2, 2), 0, 1, 2)
DISCREPANCY = Discrepancy("zero", 1, "K2", LinearForm(8, 0), FORM, -4)

# Every record type with one value per field, in constructor order.
CASES = [
    (LinearForm, {"slope": 8, "intercept": -4}),
    (
        CoverData,
        {
            "group": KLEIN,
            "base_genus": 0,
            "branch_ix": F_COVER.branch_ix,
            "twist_ix": (),
            "dims": F_COVER.dims,
            "genus": F_COVER.genus,
        },
    ),
    (Automorphism, {"group": KLEIN, "images": ((0, 1), (1, 0)), "perm": (0, 2, 1, 3), "char_perm": (0, 2, 1, 3)}),
    (Sandwich, {"cover_f": F_COVER, "cover_d": D_COVER}),
    (SingularClass, {"n": 2, "q": 1, "count": 12, "z_points": 24}),
    (
        InvariantReport,
        {
            "p_g": 3,
            "q": 1,
            "chi": 3,
            "euler_e": 24,
            "K2": 12,
            "t_z": 24,
            "sing": (SingularClass(2, 1, 12, 24),),
            "canonical_character": (0, 1),
        },
    ),
    (
        SurfaceSolution,
        {
            "p_g": 3,
            "chi0": (0, 1),
            "cover_f": F_COVER,
            "cover_d": D_COVER,
            "genus_d": genus(D_COVER),
            "report": REPORT,
        },
    ),
    (
        PencilPair,
        {
            "witness": F_COVER,
            "chi0": 1,
            "b": 1,
            "fixed": ((2, 0),),
            "target": 1,
            "fixers": ((0, 1, 2, 3),),
            "bounded": (2, 3),
            "steps": ((1, 2),),
        },
    ),
    (
        FamilyRow,
        {
            "factors": (2, 2),
            "quotient_genus_a": 0,
            "quotient_genus_b": 1,
            "genus_f": 2,
            "chi0": (0, 1),
            "kind": "family",
            "pg_lo": 3,
            "pg_hi": 5,
            "forms": {"K2": FORM},
            "members": (),
        },
    ),
    (
        AtlasRow,
        {
            "genus": 2,
            "quotient_genus": 0,
            "group": KLEIN,
            "profile": (((0, 1), 1),),
            "witness": F_COVER,
            "in_reference": True,
        },
    ),
    (
        AtlasReferenceRow,
        {"quotient_genus": 0, "factors": (2, 2), "profile": (((0, 1), 1),), "source": "p. 3"},
    ),
    (
        FamilyReferenceRow,
        {
            "table": "zero",
            "index": 1,
            "factors": (2, 2),
            "quotient_genus_a": 0,
            "quotient_genus_b": 1,
            "genus_f": 2,
            "forms": {"K2": FORM},
            "source": "p. 9",
        },
    ),
    (
        Discrepancy,
        {
            "table": "zero",
            "index": 1,
            "field": "K2",
            "reference": LinearForm(8, 0),
            "computed": FORM,
            "delta": -4,
        },
    ),
    (
        MatchedRow,
        {
            "table": "zero",
            "index": 1,
            "cell": CELL,
            "shift": 0,
            "discrepancies": (DISCREPANCY,),
            "shared": True,
        },
    ),
    (MissingRow, {"table": "zero", "index": 2, "cell": CELL, "note": "no family"}),
    (
        ExtraRow,
        {"cell": CELL, "kind": "family", "forms": (("K2", FORM),), "pg_lo": 3, "pg_hi": 5, "count": 1},
    ),
    (
        ComparisonReport,
        {"table": "zero", "matched": (), "missing": (), "extra": (), "skipped": 2},
    ),
    (
        AtlasComparison,
        {"table": "tabelladue", "genus": 2, "matched": (1, 2), "missing": (), "extra_count": 4},
    ),
]

# Records holding a dict cannot be hashed, as a frozen dataclass holding one could not.
UNHASHABLE = {FamilyRow, FamilyReferenceRow}

DEFAULTS = [
    (AtlasRow, "in_reference", None),
    (MatchedRow, "shared", False),
    (ComparisonReport, "skipped", 0),
]

ids = [cls.__name__ for cls, _ in CASES]


class LabelledForm(LinearForm):
    """A subclass with no slots of its own; pickling needs it at module level."""


@pytest.mark.parametrize("cls, fields", CASES, ids=ids)
def test_construction_by_position_and_keyword(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**dict(reversed(fields.items())))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in fields] == list(fields.values())
    assert by_position == by_keyword
    assert repr(by_position) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()
    ) + ")"
    with pytest.raises(TypeError):
        cls(*fields.values(), "one too many")
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1], **{"no_such_field": 1})


@pytest.mark.parametrize("cls, field, default", DEFAULTS, ids=[c.__name__ for c, _, _ in DEFAULTS])
def test_defaults(cls, field, default):
    fields = dict(CASES)[cls]
    without = {name: value for name, value in fields.items() if name != field}
    assert getattr(cls(**without), field) == default
    assert getattr(cls(*without.values()), field) == default
    assert cls(**without) == cls(**without, **{field: default})


@pytest.mark.parametrize("cls, fields", CASES, ids=ids)
def test_missing_fields_raise(cls, fields):
    required = [name for name in fields if (cls, name) not in {(c, f) for c, f, _ in DEFAULTS}]
    partial = {name: value for name, value in fields.items() if name != required[-1]}
    with pytest.raises(TypeError):
        cls(**partial)


@pytest.mark.parametrize("cls, fields", CASES, ids=ids)
def test_field_wise_equality_and_hash(cls, fields):
    record = cls(*fields.values())
    twin = cls(*fields.values())
    assert record == twin and not record != twin
    for name in fields:
        changed = cls(**{**fields, name: object()})
        assert record != changed and changed != record
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    assert record != tuple(fields.values())
    other_cls = LinearForm if cls is not LinearForm else SingularClass
    assert record.__eq__(other_cls(*dict(CASES)[other_cls].values())) is NotImplemented
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))
        assert {record: 1}[twin] == 1


@pytest.mark.parametrize("cls, fields", CASES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(*fields.values())
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("cls, fields", CASES, ids=ids)
def test_pickle_round_trip(cls, fields):
    record = cls(*fields.values())
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record
        assert [getattr(back, name) for name in fields] == list(fields.values())
        with pytest.raises(AttributeError):
            setattr(back, next(iter(fields)), None)


def test_derived_fields_are_pickled():
    cover = make_cover(KLEIN, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 3})
    # The same cover from element indices, in another entry order.
    by_index = make_cover(KLEIN, 0, [(3, 3), (2, 1), (1, 1)])
    assert by_index == cover and hash(by_index) == hash(cover)
    assert (by_index.branch, by_index.twist) == (cover.branch, cover.twist) == (F_COVER.branch, ())
    assert genus(cover) == cover.genus == sum(cover.dims) == genus(F_COVER)
    for built in (cover, by_index):
        back = pickle.loads(pickle.dumps(built))
        assert (back.dims, back.genus) == (cover.dims, cover.genus)
        assert back == cover and hash(back) == hash(cover)

    for alpha in KLEIN.automorphisms():
        back = pickle.loads(pickle.dumps(alpha))
        assert (back.perm, back.char_perm) == (alpha.perm, alpha.char_perm)
        assert back == alpha and back.group is KLEIN


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_package_record_keeps_an_instance_dict():
    package = [cls for cls in _subclasses(Record) if cls.__module__.startswith("isopencil.")]
    assert {CoverData, Automorphism} <= set(package)
    for cls in package:
        assert "__dict__" not in cls.__slots__ and cls.__dictoffset__ == 0, cls.__name__


def test_linear_form_total_order():
    forms = [LinearForm(1, 5), LinearForm(-1, 0), LinearForm(1, -2), LinearForm(0, 7)]
    assert sorted(forms) == [LinearForm(-1, 0), LinearForm(0, 7), LinearForm(1, -2), LinearForm(1, 5)]
    low, high = LinearForm(1, -2), LinearForm(1, 5)
    assert low < high and low <= high and high > low and high >= low
    assert low <= LinearForm(1, -2) and low >= LinearForm(1, -2)
    assert not (high < low or high <= low or low > high or low >= high)
    assert sorted([("K2", high), ("K2", low)]) == [("K2", low), ("K2", high)]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(low, op)((1, -2)) is NotImplemented
    with pytest.raises(TypeError):
        low < (1, 5)


def _package_records() -> set:
    """The direct Record subclasses the package defines.

    A class that Record refuses at creation is still listed by
    __subclasses__() until the cycle collector frees it, so only classes from
    isopencil modules count.
    """
    return {cls for cls in Record.__subclasses__() if cls.__module__.startswith("isopencil.")}


def test_every_record_shares_the_generic_equality_and_hash():
    assert _package_records() == {cls for cls, _ in CASES}
    for cls, _ in CASES:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__name__
    assert vars(LinearForm)["__lt__"].__module__ == LinearForm.__module__
    for op in ("__le__", "__gt__", "__ge__"):
        assert vars(LinearForm)[op].__module__ == "functools", op


def test_every_record_is_built_by_the_one_generic_constructor():
    generic = vars(LinearForm)["__init__"].__code__
    assert generic.co_filename.endswith("record.py")
    for cls, _ in CASES:
        assert vars(cls)["__init__"].__code__ is generic, cls.__name__
    with pytest.raises(TypeError, match="HandBuilt defines __init__"):

        class HandBuilt(LinearForm):
            __slots__ = ("label",)

            def __init__(self, slope, intercept, label):
                pass

    with pytest.raises(TypeError, match="HandBuiltNoSlots defines __init__"):

        class HandBuiltNoSlots(LinearForm):
            def __init__(self, slope, intercept):
                pass


def test_a_refused_record_class_is_not_counted_as_a_package_record():
    # The traceback holds the refused class, so it is still listed below.
    with pytest.raises(TypeError, match="Refused defines __init__") as info:

        class Refused(Record):
            __slots__ = ("left", "right")

            def __init__(self, left, right):
                pass

    assert "Refused" in [cls.__name__ for cls in Record.__subclasses__()]
    assert _package_records() == {cls for cls, _ in CASES}
    del info


def test_a_subclass_without_slots_keeps_its_base_fields():
    form = LabelledForm(8, -4)
    assert repr(form) == "LabelledForm(slope=8, intercept=-4)"
    assert form == LabelledForm(8, -4) and form != LabelledForm(8, 0) and form != FORM
    assert hash(form) == hash(FORM)
    assert pickle.loads(pickle.dumps(form)) == form


def test_atlas_rows_flag_the_enumerated_rows_without_changing_them():
    rows = atlas_table(2)
    enumerated = [row for a in range(2, -1, -1) for row in enumerate_actions(2, a)]
    assert len(rows) == len(enumerated)
    for flagged, row in zip(rows, enumerated):
        assert row.in_reference is None
        assert isinstance(flagged.in_reference, bool)
        assert flagged == AtlasRow(
            row.genus, row.quotient_genus, row.group, row.profile, row.witness, flagged.in_reference
        )
    assert {row.in_reference for row in rows} == {True, False}
