"""The per-schema row validator and checked updates.

``Table._validate`` skips ``DataType.coerce`` for values already of the
column's stored type; the parity tests compare it against a per-column
``coerce`` reference on awkward inputs (bool vs int, NaN, padded text,
datetime vs date, subclasses).  The update tests pin that a rejected
``update`` / ``apply_update_at`` leaves the table untouched.
"""

from __future__ import annotations

import math
from datetime import date, datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError, SchemaError, TypeMismatchError
from repro.relational import Column, DataType, Table, TableSchema
from repro.relational.schema import HashPartitioning


class _Int(int):
    pass


class _Str(str):
    pass


def reference_validate(schema: TableSchema, values: dict) -> dict:
    """Row validation spelled out per column through ``DataType.coerce``."""
    unknown = set(values) - set(schema.column_names)
    if unknown:
        raise SchemaError(f"table {schema.name} has no column(s) {sorted(unknown)}")
    row = {}
    for column in schema.columns:
        value = column.dtype.coerce(values.get(column.name))
        if value is None and not column.nullable:
            raise IntegrityError(
                f"{schema.name}.{column.name} is NOT NULL but got NULL"
            )
        row[column.name] = value
    return row


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return None, (type(exc), str(exc))


def _same_row(left: dict, right: dict) -> bool:
    if list(left) != list(right):
        return False
    for name, value in left.items():
        other = right[name]
        if type(value) is not type(other):
            return False
        if value != other and not (
            isinstance(value, float) and math.isnan(value) and math.isnan(other)
        ):
            return False
    return True


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from([0.0, 1.0, -3.0, 2.5, math.nan, math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["", "7", " 7 ", "2.5", " true ", "no", "Y", "2024-02-29", " 2024-02-29 ", "x"]
    ),
    st.text(max_size=4),
    st.dates(),
    st.datetimes(),
    st.integers(-3, 3).map(_Int),
    st.sampled_from(["3", " yes ", "2024-01-05"]).map(_Str),
    st.sampled_from([[1], b"1"]),
)

# Values each column type accepts, most of them only after coercion.
_ACCEPTED = {
    DataType.INTEGER: [None, 3, -2, True, False, 4.0, -0.0, " 12 ", "7", _Int(3)],
    DataType.FLOAT: [None, 2.5, -0.0, math.nan, math.inf, 3, True, " 2.5 ", "1e3"],
    DataType.TEXT: [
        None, "x", " pad ", "", True, 5, 2.5, date(2024, 1, 5),
        datetime(2024, 1, 5, 9, 30), _Str("s"),
    ],
    DataType.BOOLEAN: [None, True, False, 1, 0, " yes ", "F", _Int(1)],
    DataType.DATE: [
        None, date(2024, 2, 29), datetime(2024, 2, 29, 23, 59), "2024-02-29",
        " 2024-02-29 ",
    ],
}

_COLUMN_NAMES = ("a", "b", "c", "d", "e")


@st.composite
def _schemas(draw):
    count = draw(st.integers(1, len(_COLUMN_NAMES)))
    columns = tuple(
        Column(name, draw(st.sampled_from(list(DataType))), draw(st.booleans()))
        for name in _COLUMN_NAMES[:count]
    )
    return TableSchema("t", columns)


@st.composite
def _inserts(draw):
    """A schema and an insert: mostly accepted values, sometimes anything,
    now and then an unknown column."""
    schema = draw(_schemas())
    values = {}
    for column in schema.columns:
        if draw(st.integers(0, 5)) == 0:
            continue
        if draw(st.integers(0, 4)):
            values[column.name] = draw(st.sampled_from(_ACCEPTED[column.dtype]))
        else:
            values[column.name] = draw(_VALUES)
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.sampled_from(["zz", "unknown"]))] = draw(_VALUES)
    return schema, values


class TestValidatorParity:
    @given(_inserts())
    @settings(max_examples=500, deadline=None)
    def test_validate_matches_per_column_coerce(self, case):
        schema, values = case
        expected, expected_error = _outcome(lambda: reference_validate(schema, values))
        row, error = _outcome(lambda: Table(schema)._validate(values))
        assert error == expected_error
        if error is None:
            assert _same_row(row, expected), (row, expected)

    @pytest.mark.parametrize(
        "dtype, value, expected",
        [
            (DataType.INTEGER, True, 1),
            (DataType.INTEGER, 4.0, 4),
            (DataType.INTEGER, " 12 ", 12),
            (DataType.FLOAT, 3, 3.0),
            (DataType.FLOAT, False, 0.0),
            (DataType.TEXT, True, "true"),
            (DataType.TEXT, date(2024, 1, 5), "2024-01-05"),
            (DataType.BOOLEAN, 1, True),
            (DataType.BOOLEAN, " Yes ", True),
            (DataType.DATE, datetime(2024, 1, 5, 9, 30), date(2024, 1, 5)),
        ],
    )
    def test_other_types_are_coerced(self, dtype, value, expected):
        table = Table(TableSchema("t", (Column("v", dtype),)))
        stored = table.insert({"v": value})["v"]
        assert type(stored) is type(expected) and stored == expected

    def test_errors_keep_check_order(self):
        schema = TableSchema(
            "t",
            (
                Column("a", DataType.INTEGER, nullable=False),
                Column("b", DataType.INTEGER),
            ),
        )
        table = Table(schema)
        # Unknown columns are reported before any coercion or NULL check.
        with pytest.raises(SchemaError, match=r"no column\(s\) \['zz'\]"):
            table.insert({"b": "x", "zz": 1})
        # Then column by column: a's NULL before b's bad value.
        with pytest.raises(IntegrityError, match="t.a is NOT NULL"):
            table.insert({"b": "x"})
        with pytest.raises(TypeMismatchError, match="cannot coerce 'x' to integer"):
            table.insert({"a": 1, "b": "x"})

    def test_repartition_gets_a_fresh_plan(self):
        schema = TableSchema(
            "t", (Column("k", DataType.INTEGER), Column("v", DataType.TEXT))
        )
        table = Table(schema)
        table.insert({"k": 1, "v": "a"})
        table.repartition(HashPartitioning("k", 4))
        assert table.schema is not schema
        row = table.insert({"k": True, "v": 2})
        assert row == {"k": 1, "v": "2"} and type(row["k"]) is int
        assert table._plan().schema is table.schema
        table.repartition(None)
        assert table._plan().schema is table.schema
        assert _same_row(table._validate({"k": 2.0}), {"k": 2, "v": None})


def _patients() -> Table:
    schema = TableSchema(
        "patients",
        (
            Column("id", DataType.INTEGER),
            Column("name", DataType.TEXT, nullable=False),
            Column("age", DataType.INTEGER),
        ),
        primary_key=("id",),
    )
    table = Table(schema)
    for pid, name, age in ((1, "Ada", 40), (2, "Bo", 50), (3, "Cy", 60)):
        table.insert({"id": pid, "name": name, "age": age})
    return table


def _rejected(table: Table, call, error: type, match: str) -> None:
    """``call`` raises, and leaves rows, version and the log untouched."""
    before = (table.rows(), table.version)
    logged: list = []
    table.set_mutation_listener(lambda op, payload: logged.append(op))
    with pytest.raises(error, match=match):
        call()
    assert (table.rows(), table.version) == before
    assert logged == []
    assert table.lookup(("id",), (2,)) == [before[0][1]]


class TestUpdateChecks:
    def test_bad_value_on_a_later_column_mutates_nothing(self):
        table = _patients()
        _rejected(
            table,
            lambda: table.update(lambda row: True, {"name": "Z", "age": "old"}),
            TypeMismatchError,
            "cannot coerce 'old' to integer",
        )
        _rejected(
            table,
            lambda: table.apply_update_at([0, 1], {"name": "Z", "age": "old"}),
            TypeMismatchError,
            "cannot coerce 'old' to integer",
        )

    def test_not_null_and_primary_key_columns_reject_null(self):
        table = _patients()
        _rejected(
            table,
            lambda: table.update(lambda row: row["id"] == 2, {"name": None}),
            IntegrityError,
            r"patients\.name is NOT NULL",
        )
        _rejected(
            table,
            lambda: table.update(lambda row: row["id"] == 2, {"id": None}),
            IntegrityError,
            r"patients\.id is part of the primary key",
        )
        _rejected(
            table,
            lambda: table.apply_update_at([1], {"id": None}),
            IntegrityError,
            r"patients\.id is part of the primary key",
        )

    def test_update_cannot_duplicate_a_primary_key(self):
        table = _patients()
        # Onto a row the update does not touch.
        _rejected(
            table,
            lambda: table.update(lambda row: row["id"] == 2, {"id": 1}),
            IntegrityError,
            r"patients\.id: update would duplicate primary key \(1,\)",
        )
        # Two updated rows onto one new key.
        _rejected(
            table,
            lambda: table.update(lambda row: row["id"] >= 2, {"id": 9}),
            IntegrityError,
            r"patients\.id: update would duplicate primary key \(9,\)",
        )
        _rejected(
            table,
            lambda: table.apply_update_at([0, 2], {"id": "7"}),
            IntegrityError,
            r"patients\.id: update would duplicate primary key \(7,\)",
        )

    def test_valid_key_updates_still_apply(self):
        table = _patients()
        # A row may keep its own key, and a key may move to a free value.
        assert table.update(lambda row: row["id"] == 1, {"id": 1, "age": 41}) == 1
        assert table.update(lambda row: row["id"] == 3, {"id": "4"}) == 1
        assert [row["id"] for row in table.rows()] == [1, 2, 4]
        assert table.lookup(("id",), (4,))[0]["name"] == "Cy"
        assert table.lookup(("id",), (3,)) == []
