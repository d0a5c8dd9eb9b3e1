"""Value semantics of every record type: construction, equality, hashing,
immutability and pickling."""

import pickle

import pytest

from isopencil.atlas import AtlasRow, atlas_table, enumerate_actions
from isopencil.classifier import FamilyRow, SurfaceSolution, _bucket_split
from isopencil.compare import (
    AtlasComparison,
    ComparisonReport,
    Discrepancy,
    ExtraRow,
    MatchedRow,
    MissingRow,
    _Group,
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
    (CoverData, {"group": KLEIN, "base_genus": 0, "branch_ix": F_COVER.branch_ix, "twist_ix": ()}),
    (Automorphism, {"group": KLEIN, "images": ((0, 1), (1, 0))}),
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
        _Group,
        {"cell": CELL, "forms": {"K2": FORM}, "kind": "family", "pg_lo": 3, "pg_hi": 5, "count": 1},
    ),
    (
        AtlasComparison,
        {"table": "tabelladue", "genus": 2, "matched": (1, 2), "missing": (), "extra_count": 4},
    ),
]

# Records holding a dict cannot be hashed, as a frozen dataclass holding one could not.
UNHASHABLE = {FamilyRow, FamilyReferenceRow, _Group}

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


def test_cached_properties_are_kept_and_pickled():
    cover = make_cover(KLEIN, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 3})
    # The same cover from element indices, in another entry order.
    by_index = make_cover(KLEIN, 0, [(3, 3), (2, 1), (1, 1)])
    assert by_index == cover and hash(by_index) == hash(cover)
    assert (by_index.branch, by_index.twist) == (cover.branch, cover.twist) == (F_COVER.branch, ())
    assert "_genus" not in cover.__dict__
    assert genus(cover) == genus(F_COVER)
    assert cover.__dict__["_genus"] == genus(F_COVER)
    for built in (cover, by_index):
        back = pickle.loads(pickle.dumps(built))
        assert back.__dict__["_dims"] == cover._dims
        assert back.__dict__.get("_genus") == built.__dict__.get("_genus")
        assert back == cover and hash(back) == hash(cover)
    before = _bucket_split.cache_info()
    assert _bucket_split(cover, 3, 1) is _bucket_split(by_index, 3, 1)
    after = _bucket_split.cache_info()
    assert after.currsize - before.currsize <= 1 and after.hits - before.hits >= 1

    alpha = KLEIN.automorphisms()[1]
    perm = alpha.perm
    assert alpha.perm is perm
    assert pickle.loads(pickle.dumps(alpha)).perm == perm


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


def test_every_record_shares_the_generic_equality_and_hash():
    assert set(Record.__subclasses__()) == {cls for cls, _ in CASES}
    for cls, _ in CASES:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__name__
    assert vars(LinearForm)["__lt__"].__module__ == LinearForm.__module__
    for op in ("__le__", "__gt__", "__ge__"):
        assert vars(LinearForm)[op].__module__ == "functools", op


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
