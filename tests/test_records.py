"""The package's frozen records: value semantics, repr, immutability, copies.

Every record is a plain slotted class that declares its fields once, as
annotations.  Two records of one type are equal, and hash equal, when their
fields are; records of different types never are.  The repr strings below
are the ones the records printed when they were generated by the standard
library's record decorator, so anything that logs or parses them sees no
change.  ``PosteriorCurve`` holds arrays and compares by identity.
"""

import copy
import pickle
import typing

import numpy as np
import pytest

from nashroyalty import (
    EstimateResult,
    FinancialStatement,
    FixedAlphaModel,
    MapReferencePoint,
    ModelKind,
    ModeResult,
    OmittedCell,
    PayoffBounds,
    PerceptionMatrix,
    PosteriorCurve,
    RiskProfile,
    SampleSummary,
    SweepRow,
    SweepSeries,
    SweepTable,
)
from nashroyalty.bargaining import _Record
from nashroyalty.cli import ScenarioConfig


def golden() -> PayoffBounds:
    return PayoffBounds(0.0, 0.2, 0.0, 0.8)


def sweep_table() -> SweepTable:
    return SweepTable(
        model=ModelKind.CASE1,
        risk=RiskProfile.ABS,
        a=0.0,
        b=0.2,
        series=(SweepSeries(c=0.0, rows=(SweepRow(d=0.1, theta_hat=0.55),)),),
        map_reference=(MapReferencePoint(d=0.1, theta_map=0.6),),
        omitted=(OmittedCell(c=0.0, d=0.0, reason="undefined at the origin"),),
    )


def curve() -> PosteriorCurve:
    return PosteriorCurve(
        thetas=np.array([0.0, 0.5, 1.0]),
        pdf=np.array([0.0, 2.0, 0.0]),
        cdf=np.array([0.0, 0.5, 1.0]),
        mode=ModeResult(value=0.5, plateau=False),
    )


# name -> (build one record, build one of the same type that differs, repr)
RECORDS = {
    "FinancialStatement": (
        lambda: FinancialStatement(operating_revenue=500, operating_cost=360.0),
        lambda: FinancialStatement(500.0, 361.0),
        "FinancialStatement(operating_revenue=500.0, operating_cost=360.0)",
    ),
    "PerceptionMatrix": (
        lambda: PerceptionMatrix(0.5, 0.7, 0.4, 0.4),
        lambda: PerceptionMatrix(0.5, 0.7, 0.4, 0.5),
        "PerceptionMatrix(p11=0.5, p12=0.7, p21=0.4, p22=0.4)",
    ),
    "PayoffBounds": (
        golden,
        lambda: PayoffBounds(0.0, 0.2, 0.0, 0.7),
        "PayoffBounds(a=0.0, b=0.2, c=0.0, d=0.8)",
    ),
    "FixedAlphaModel": (
        lambda: FixedAlphaModel(0.6),
        lambda: FixedAlphaModel(alpha=0.4),
        "FixedAlphaModel(alpha=0.6)",
    ),
    "EstimateResult": (
        lambda: EstimateResult(theta1=0.35, theta2=0.65, method_note="exact closed form"),
        lambda: EstimateResult(0.35, 0.65, "numeric"),
        "EstimateResult(theta1=0.35, theta2=0.65, method_note='exact closed form')",
    ),
    "ScenarioConfig": (
        lambda: ScenarioConfig(golden(), ModelKind.NBS, RiskProfile.MSE, None, 2001),
        lambda: ScenarioConfig(
            golden(), FixedAlphaModel(0.6), RiskProfile.MSE,
            FinancialStatement(500.0, 360.0), 201,
        ),
        "ScenarioConfig(bounds=PayoffBounds(a=0.0, b=0.2, c=0.0, d=0.8), "
        "model=<ModelKind.NBS: 'nbs'>, risk=<RiskProfile.MSE: 'mse'>, "
        "financials=None, grid_points=2001)",
    ),
    "SweepRow": (
        lambda: SweepRow(d=0.1, theta_hat=0.55),
        lambda: SweepRow(d=0.1, theta_hat=0.5),
        "SweepRow(d=0.1, theta_hat=0.55)",
    ),
    "SweepSeries": (
        lambda: SweepSeries(c=0.0, rows=(SweepRow(0.1, 0.55),)),
        lambda: SweepSeries(c=0.0, rows=()),
        "SweepSeries(c=0.0, rows=(SweepRow(d=0.1, theta_hat=0.55),))",
    ),
    "MapReferencePoint": (
        lambda: MapReferencePoint(d=0.1, theta_map=0.6),
        lambda: MapReferencePoint(d=0.2, theta_map=0.6),
        "MapReferencePoint(d=0.1, theta_map=0.6)",
    ),
    "OmittedCell": (
        lambda: OmittedCell(c=0.0, d=0.0, reason="undefined at the origin"),
        lambda: OmittedCell(c=0.0, d=0.0, reason="another reason"),
        "OmittedCell(c=0.0, d=0.0, reason='undefined at the origin')",
    ),
    "SweepTable": (
        sweep_table,
        lambda: SweepTable(ModelKind.CASE1, RiskProfile.MSE, 0.0, 0.2, (), (), ()),
        "SweepTable(model=<ModelKind.CASE1: 'case1'>, risk=<RiskProfile.ABS: 'abs'>, "
        "a=0.0, b=0.2, series=(SweepSeries(c=0.0, rows=(SweepRow(d=0.1, "
        "theta_hat=0.55),)),), map_reference=(MapReferencePoint(d=0.1, "
        "theta_map=0.6),), omitted=(OmittedCell(c=0.0, d=0.0, "
        "reason='undefined at the origin'),))",
    ),
    "PosteriorCurve": (
        curve,
        curve,
        "PosteriorCurve(thetas=array([0. , 0.5, 1. ]), pdf=array([0., 2., 0.]), "
        "cdf=array([0. , 0.5, 1. ]), mode=ModeResult(value=0.5, plateau=False))",
    ),
    "ModeResult": (
        lambda: ModeResult(value=0.2, plateau=False),
        lambda: ModeResult(value=0.2, plateau=True),
        "ModeResult(value=0.2, plateau=False)",
    ),
    "SampleSummary": (
        lambda: SampleSummary(
            n=1000,
            mean=0.35,
            std_error_of_mean=0.005,
            quantiles=((0.05, 0.1), (0.5, 0.35)),
            histogram_mode=0.3482587064676617,
            seed=None,
        ),
        lambda: SampleSummary(1000, 0.35, 0.005, ((0.05, 0.1), (0.5, 0.35)), 0.3, 7),
        "SampleSummary(n=1000, mean=0.35, std_error_of_mean=0.005, "
        "quantiles=((0.05, 0.1), (0.5, 0.35)), histogram_mode=0.3482587064676617, "
        "seed=None)",
    ),
}
VALUE_RECORDS = [name for name in RECORDS if name != "PosteriorCurve"]


def build(name: str):
    return RECORDS[name][0]()


def fields(record) -> tuple[str, ...]:
    return type(record).__slots__


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in fields(record))


def same_fields(left, right) -> bool:
    """Field by field, comparing arrays by their contents."""
    return type(left) is type(right) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(values(left), values(right))
    )


def record_classes() -> set[type]:
    classes, pending = set(), [_Record]
    while pending:
        for cls in pending.pop().__subclasses__():
            classes.add(cls)
            pending.append(cls)
    return classes


def test_every_record_is_listed():
    assert {cls.__name__ for cls in record_classes()} == set(RECORDS)


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    make, make_other, _ = RECORDS[name]
    first, second, other = make(), make(), make_other()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != other and not first == other


def test_records_of_different_types_are_unequal():
    records = [build(name) for name in VALUE_RECORDS]
    for i, left in enumerate(records):
        for right in records[i + 1:]:
            assert left != right
    # Same field values, another type: neither a look-alike nor a tuple.
    assert SweepRow(d=0.1, theta_hat=0.6) != MapReferencePoint(d=0.1, theta_map=0.6)
    assert golden() != (0.0, 0.2, 0.0, 0.8)


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_unchanged(name):
    assert repr(build(name)) == RECORDS[name][2]


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_cannot_be_set_or_deleted(name):
    record = build(name)
    before = repr(record)
    for field in fields(record):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0.5)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert repr(record) == before


@pytest.mark.parametrize("name", list(RECORDS))
def test_copy_and_pickle_round_trip(name):
    record = build(name)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert same_fields(twin, record)
        if name in VALUE_RECORDS:
            assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_type_hints_resolve_every_field(name):
    cls = type(build(name))
    hints = typing.get_type_hints(cls)
    assert tuple(hints) == fields(build(name))
    for hint in hints.values():
        assert not isinstance(hint, (str, typing.ForwardRef))


def test_posterior_curve_compares_by_identity():
    first, second = curve(), curve()
    assert same_fields(first, second)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second, first}) == 2


def test_only_the_input_records_define_a_constructor():
    # The rest bind their fields through _Record's one constructor.
    own = {cls.__name__ for cls in record_classes() if "__init__" in vars(cls)}
    assert own == {"FinancialStatement", "PerceptionMatrix", "PayoffBounds", "FixedAlphaModel"}


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_bind_by_position_or_keyword(name):
    record = build(name)
    cls, given = type(record), values(record)
    by_keyword = dict(zip(fields(record), given))
    half = len(given) // 2
    mixed = dict(list(by_keyword.items())[half:])
    for twin in (cls(*given), cls(**by_keyword), cls(*given[:half], **mixed)):
        assert same_fields(twin, record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_misfit_arguments_raise_type_error_naming_the_record(name):
    record = build(name)
    cls, names, given = type(record), fields(record), values(record)
    by_keyword = dict(zip(names, given))
    # Each call, and a word its message must hold besides the record's name.
    calls = [
        ((), dict(list(by_keyword.items())[:-1]), repr(names[-1])),  # missing
        ((), {**by_keyword, "extra": 1}, "'extra'"),  # unknown keyword
        ((*given, given[-1]), {}, str(len(names) + 1)),  # one positional too many
        (given[:1], by_keyword, repr(names[0])),  # by position and by keyword
    ]
    for args, kwargs, word in calls:
        with pytest.raises(TypeError, match=rf"^{name}(\.__init__)?\(\) ") as info:
            cls(*args, **kwargs)
        assert word in str(info.value)
