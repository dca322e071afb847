import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semschema.errors import JsonParseError
from semschema.jsonmodel import (
    JsonPath,
    dumps,
    get_path,
    is_integral,
    iter_ndjson,
    json_equal,
    parse_json,
    set_path,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestParse:
    def test_scalars(self):
        assert parse_json("null") is None
        assert parse_json("true") is True
        assert parse_json("false") is False
        assert parse_json("42") == 42
        assert parse_json("-3.5") == -3.5
        assert parse_json("2e3") == 2000.0
        assert parse_json('"hi"') == "hi"

    def test_containers_preserve_order(self):
        value = parse_json('{"b": 1, "a": [2, {"z": 3}]}')
        assert list(value) == ["b", "a"]
        assert value["a"][1] == {"z": 3}

    def test_string_escapes(self):
        assert parse_json(r'"a\nb\t\"\\é"') == 'a\nb\t"\\é'
        assert parse_json(r'"😀"') == "\U0001f600"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(JsonParseError):
            parse_json("{} {}")

    def test_error_carries_position(self):
        with pytest.raises(JsonParseError) as err:
            parse_json('{"a":\n  12,]')
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text",
        ["", "{", "[1,]", '{"a" 1}', "01", "+1", "nul", '"\\x"', "'single'", "[1 2]"],
    )
    def test_malformed(self, text):
        with pytest.raises(JsonParseError):
            parse_json(text)


    def test_numbers_beyond_double_range_rejected(self):
        for text in ("1e400", "-1e400", '{"n": [2.5e308]}'):
            with pytest.raises(JsonParseError):
                parse_json(text)

    def test_repeated_key_keeps_last_value_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = parse_json('{"a": 1, "b": 2, "a": 3}')
        assert value == {"a": 3, "b": 2} and list(value) == ["a", "b"]


class TestDumps:
    def test_integral_floats_print_as_ints(self):
        assert dumps(1.0) == "1"
        assert dumps([2.0, 2.5]) == "[2,2.5]"
        assert dumps(-0.0) == "0"

    def test_huge_floats_stay_floats(self):
        assert "e" in dumps(1e300).lower() or "." in dumps(1e300)

    def test_key_order_kept(self):
        assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_indent(self):
        assert dumps({"a": [1]}, indent=2) == '{\n  "a": [\n    1\n  ]\n}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps(math.nan)

    @given(json_values)
    def test_round_trip(self, value):
        assert json_equal(parse_json(dumps(value)), value)

    @given(json_values)
    def test_round_trip_indented(self, value):
        assert json_equal(parse_json(dumps(value, indent=2)), value)


class TestEquality:
    def test_bool_is_not_number(self):
        assert not json_equal(True, 1)
        assert not json_equal(False, 0)
        assert not json_equal([True], [1])

    def test_int_equals_integral_float(self):
        assert json_equal(1, 1.0)
        assert json_equal({"a": [2.0]}, {"a": [2]})

    def test_object_order_is_irrelevant(self):
        assert json_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})

    def test_is_integral(self):
        assert is_integral(5) and is_integral(5.0)
        assert not is_integral(5.5)
        assert not is_integral(True)


class TestJsonPath:
    def test_render_and_parse_round_trip(self):
        for steps in [(), ("a",), ("a", "b c", 2, "d"), ("spt:userId",), ('w"x',)]:
            path = JsonPath(steps)
            assert JsonPath.parse(str(path)) == path

    def test_parse_plain_forms(self):
        assert JsonPath.parse("a.b") == JsonPath(("a", "b"))
        assert JsonPath.parse(".a[1].b") == JsonPath(("a", 1, "b"))
        assert JsonPath.parse(".") == JsonPath(())
        assert JsonPath.parse("") == JsonPath(())

    def test_prefixes(self):
        root = JsonPath(())
        ab = JsonPath(("a", "b"))
        assert root.is_prefix_of(ab)
        assert JsonPath(("a",)).is_prefix_of(ab)
        assert not ab.is_prefix_of(JsonPath(("a",)))
        assert not JsonPath(("b",)).is_prefix_of(ab)

    def test_get_path_total(self):
        value = {"a": [{"b": 1}]}
        assert get_path(value, JsonPath(("a", 0, "b"))) == 1
        assert get_path(value, JsonPath(("a", 5))) is None
        assert get_path(value, JsonPath(("missing", "x"))) is None
        assert get_path(3, JsonPath(("a",))) is None

    def test_set_path_copy_on_write(self):
        original = {"a": {"b": 1}, "c": [1, 2]}
        updated = set_path(original, JsonPath(("a", "b")), 9)
        assert updated == {"a": {"b": 9}, "c": [1, 2]}
        assert original == {"a": {"b": 1}, "c": [1, 2]}
        assert updated["c"] is original["c"]

    def test_set_path_creates_objects(self):
        assert set_path({}, JsonPath(("x", "y")), 1) == {"x": {"y": 1}}

    def test_set_path_index_bounds(self):
        assert set_path([1, 2], JsonPath((1,)), 5) == [1, 5]
        with pytest.raises(ValueError):
            set_path([1], JsonPath((4,)), 5)
        with pytest.raises(ValueError):
            set_path({"a": 1}, JsonPath((0,)), 5)


class TestNdjson:
    def test_values_errors_and_blanks(self):
        lines = ['{"a": 1}', "", "  ", "oops", "[2]"]
        rows = list(iter_ndjson(lines))
        assert [lineno for lineno, _, _ in rows] == [1, 4, 5]
        assert rows[0][1] == {"a": 1}
        assert rows[1][2] is not None and rows[1][1] is None
        assert rows[2][1] == [2]

    def test_undecodable_line_is_its_own_error(self):
        # a file read with errors="surrogateescape" turns a non-UTF-8 byte into a lone surrogate
        rows = list(iter_ndjson(['{"a": 1}', '{"a": "\udcff"}', "[2]"]))
        assert [(lineno, value) for lineno, value, _ in rows] == [(1, {"a": 1}), (2, None), (3, [2])]
        assert isinstance(rows[1][2], JsonParseError)
