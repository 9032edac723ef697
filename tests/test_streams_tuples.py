"""Unit tests for the StreamTuple data model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.streams.tuples import StreamTuple


def make(ts=1.0, **fields):
    return StreamTuple(ts, fields, stream="s")


class TestAccess:
    def test_getitem_returns_value(self):
        assert make(tag_id="a")["tag_id"] == "a"

    def test_getitem_missing_raises_schema_error(self):
        with pytest.raises(SchemaError) as err:
            make(tag_id="a")["nope"]
        assert "nope" in str(err.value)
        assert "tag_id" in str(err.value)  # lists available fields

    def test_get_with_default(self):
        assert make().get("missing", 42) == 42

    def test_get_without_default_returns_none(self):
        assert make().get("missing") is None

    def test_contains(self):
        item = make(x=1)
        assert "x" in item
        assert "y" not in item

    def test_len_and_iter(self):
        item = make(a=1, b=2)
        assert len(item) == 2
        assert sorted(item) == ["a", "b"]

    def test_keys_items(self):
        item = make(a=1)
        assert list(item.keys()) == ["a"]
        assert list(item.items()) == [("a", 1)]

    def test_as_dict_is_a_copy(self):
        item = make(a=1)
        copy = item.as_dict()
        copy["a"] = 99
        assert item["a"] == 1

    def test_timestamp_coerced_to_float(self):
        assert isinstance(StreamTuple(3, {}).timestamp, float)

    def test_empty_values_default(self):
        assert len(StreamTuple(0.0)) == 0


class TestDerive:
    def test_derive_overrides_fields(self):
        derived = make(a=1, b=2).derive(values={"b": 3})
        assert derived["a"] == 1
        assert derived["b"] == 3

    def test_derive_keeps_original_untouched(self):
        original = make(a=1)
        original.derive(values={"a": 2})
        assert original["a"] == 1

    def test_derive_changes_timestamp(self):
        assert make(ts=1.0).derive(timestamp=5.0).timestamp == 5.0

    def test_derive_keeps_timestamp_by_default(self):
        assert make(ts=1.5).derive(values={"x": 1}).timestamp == 1.5

    def test_derive_changes_stream(self):
        assert make().derive(stream="other").stream == "other"

    def test_derive_keeps_stream_by_default(self):
        assert make().derive(values={"x": 1}).stream == "s"

    def test_derive_drop_removes_fields(self):
        derived = make(a=1, b=2).derive(drop=("a",))
        assert "a" not in derived
        assert derived["b"] == 2

    def test_derive_drop_missing_field_is_noop(self):
        derived = make(a=1).derive(drop=("zzz",))
        assert derived["a"] == 1

    def test_project_keeps_only_named_fields(self):
        projected = make(a=1, b=2, c=3).project(("a", "c"))
        assert sorted(projected.keys()) == ["a", "c"]


class TestEquality:
    def test_equal_tuples(self):
        assert make(a=1) == make(a=1)

    def test_different_fields_not_equal(self):
        assert make(a=1) != make(a=2)

    def test_different_timestamp_not_equal(self):
        assert make(ts=1.0, a=1) != make(ts=2.0, a=1)

    def test_different_stream_not_equal(self):
        assert StreamTuple(0, {"a": 1}, "x") != StreamTuple(0, {"a": 1}, "y")

    def test_hashable_and_consistent(self):
        assert hash(make(a=1)) == hash(make(a=1))
        assert len({make(a=1), make(a=1), make(a=2)}) == 2

    def test_not_equal_to_other_types(self):
        assert make() != "not a tuple"

    def test_repr_mentions_fields(self):
        text = repr(make(tag_id="t7"))
        assert "tag_id" in text and "t7" in text


_FIELDS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "tag_id", "count"]),
    st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=3)),
    max_size=5,
)
_STAMPS = st.one_of(
    st.integers(0, 100),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


class TestRelabelSharesValues:
    """``derive(stream=…)`` shares the value mapping; nothing any tuple
    derived from a relabel does may show through to the original or to
    its other relabels."""

    @given(_STAMPS, _FIELDS, st.text(max_size=4), st.text(max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_relabel_equals_rebuilt_tuple(self, ts, fields, old, new):
        item = StreamTuple(ts, fields, old)
        relabelled = item.derive(stream=new)
        assert relabelled == StreamTuple(item.timestamp, item.as_dict(), new)
        assert type(relabelled.timestamp) is float

    @given(_STAMPS, _FIELDS, _FIELDS, st.lists(st.sampled_from("abc")))
    @settings(max_examples=80, deadline=None)
    def test_deriving_from_a_relabel_touches_nothing_else(
        self, ts, fields, update, dropped
    ):
        item = StreamTuple(ts, fields, "s")
        sibling = item.derive(stream="x")
        relabelled = item.derive(stream="y")
        before = [
            StreamTuple(t.timestamp, t.as_dict(), t.stream)
            for t in (item, sibling, relabelled)
        ]
        changed = relabelled.derive(values=update)
        assert changed.as_dict() == {**fields, **update}
        pruned = relabelled.derive(drop=tuple(dropped))
        assert set(pruned) == set(fields) - set(dropped)
        kept = tuple(sorted(fields))[:2]
        assert relabelled.project(kept).as_dict() == {f: fields[f] for f in kept}
        assert [item, sibling, relabelled] == before

    def test_replacement_timestamp_is_coerced_to_float(self):
        moved = make(a=1).derive(timestamp=3)
        assert moved.timestamp == 3.0 and type(moved.timestamp) is float
        assert type(make(a=1).derive(timestamp=3, stream="x").timestamp) is float
