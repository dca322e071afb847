import json
import math
import re
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semschema import jsonmodel
from semschema.errors import JsonParseError
from semschema.jsonmodel import (
    MAX_DEPTH,
    JsonPath,
    dumps,
    is_integral,
    iter_ndjson,
    json_equal,
    parse_json,
    set_path,
)
from reference_numbers import json_texts, reference_dumps

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


    def test_integral_floats_within_2_53_parse_as_ints(self):
        for text, value in (("2.0", 2), ("-0.0", 0), ("1E2", 100), ("10e-1", 1), ("9007199254740992.0", 2**53),
                            ("-9007199254740993.0", -(2**53)), ("1.5e-400", 0)):
            assert (parse_json(text), type(parse_json(text))) == (value, int)
        for text in ("2.5", "1e16", "-9007199254740994.0"):
            assert (parse_json(text), type(parse_json(text))) == (float(text), float)
        assert math.copysign(1, parse_json("-0.0")) == 1

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
    def test_parsed_integral_floats_print_as_ints(self):
        assert dumps(parse_json("1.0")) == "1"
        assert dumps(parse_json("[2.0, 2.5, 1E2, 10e-1]")) == "[2,2.5,100,1]"
        assert dumps(parse_json("-0.0")) == "0"

    def test_a_float_made_in_python_prints_as_python_writes_it(self):
        assert dumps([2.0, -0.0, 2.5]) == "[2.0,-0.0,2.5]"
        assert dumps({"a": 2.0}, indent=2) == '{\n  "a": 2.0\n}'

    def test_huge_floats_stay_floats(self):
        assert "e" in dumps(1e300).lower() or "." in dumps(1e300)

    def test_key_order_kept(self):
        assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_indent(self):
        assert dumps({"a": [1]}, indent=2) == '{\n  "a": [\n    1\n  ]\n}'

    def test_rejects_nan(self):
        for indent in (None, 2):
            for value in (math.nan, [math.inf], {"a": -math.inf}):
                with pytest.raises(ValueError, match="^cannot serialize NaN or infinity$"):
                    dumps(value, indent=indent)

    def test_lone_surrogates_are_escaped(self):
        value = {"k\ud800": ["é \udcff", "😀"]}
        text = dumps(value)
        assert text == '{"k\\ud800":["é \\udcff","😀"]}'
        assert text.encode("utf-8") and parse_json(text) == value
        assert dumps(value, indent=2) == '{\n  "k\\ud800": [\n    "é \\udcff",\n    "😀"\n  ]\n}'
        assert dumps("é") == '"é"'  # other text keeps ensure_ascii=False

    def test_too_deep_is_value_error(self):
        value = 1
        for _ in range(sys.getrecursionlimit()):
            value = [value]
        circular = []
        circular.append(circular)
        for indent in (None, 2):
            for each in (value, circular):
                with pytest.raises(ValueError, match="nesting too deep"):
                    dumps(each, indent=indent)

    @given(json_values)
    def test_round_trip(self, value):
        assert json_equal(parse_json(dumps(value)), value)

    @given(json_values)
    def test_round_trip_indented(self, value):
        assert json_equal(parse_json(dumps(value, indent=2)), value)

    @given(json_texts)
    def test_parsed_numbers_print_as_the_tree_copy_printed_them(self, text):
        value, expected = parse_json(text), json.loads(text)
        assert dumps(value) == reference_dumps(expected)
        assert dumps(value, indent=2) == reference_dumps(expected, indent=2)


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

    @pytest.mark.parametrize("text, steps", [("a[12]", ("a", 12)), ("a[-1]", ("a", -1)), ("[0][3]", (0, 3))])
    def test_an_index_is_ascii_digits_with_an_optional_minus(self, text, steps):
        assert JsonPath.parse(text) == JsonPath(steps)

    @pytest.mark.parametrize("text", ["a[1_0]", "a[ 3]", "a[3 ]", "a[+3]", "a[\u0663]", "a[]", "a[-]", "a[1e2]"])
    def test_any_other_index_is_refused(self, text):
        with pytest.raises(ValueError) as raised:
            JsonPath.parse(text)
        assert str(raised.value) == f"bad index in path: {text!r}"

    @pytest.mark.parametrize("text, steps", [
        ('."a b".c', ("a b", "c")), ('."\\u00e9\\"x"[0]', ('é"x', 0)), ('."\\ud83d\\ude00"', ("\U0001f600",)),
    ])
    def test_a_quoted_step_is_a_json_string(self, text, steps):
        assert JsonPath.parse(text) == JsonPath(steps)

    @pytest.mark.parametrize("text", ['."a', '."a\\q"', '."a\tb"'])
    def test_a_bad_quoted_step_is_refused(self, text):
        with pytest.raises(ValueError):
            JsonPath.parse(text)

    def test_prefixes(self):
        root = JsonPath(())
        ab = JsonPath(("a", "b"))
        assert root.is_prefix_of(ab)
        assert JsonPath(("a",)).is_prefix_of(ab)
        assert not ab.is_prefix_of(JsonPath(("a",)))
        assert not JsonPath(("b",)).is_prefix_of(ab)

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


class TestReadFile:
    """The one reader of JSON and JSLT files: UTF-8, universal newlines, and errors that name the file."""

    def test_the_text_has_universal_newlines(self, tmp_path):
        file = tmp_path / "f.json"
        file.write_bytes(b'{"a":\r\n1,\r"b": "\xc3\xa9"}\n')
        assert jsonmodel.read_file(file, str, ValueError) == '{"a":\n1,\n"b": "\u00e9"}\n'
        assert jsonmodel.read_file(file, parse_json, ValueError) == {"a": 1, "b": "\u00e9"}

    def test_bytes_already_read_are_parsed_without_opening_the_path(self, tmp_path):
        assert jsonmodel.read_file(tmp_path / "absent.json", parse_json, ValueError, b"[1,\r2]") == [1, 2]

    @pytest.mark.parametrize("data, reason", [
        (b'["\xff"]', "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        (b"[1,", "Expecting value (line 1, column 4)"),
        (b"\xef\xbb\xbf[1]", "Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"),
    ])
    def test_a_refused_file_is_one_error_naming_the_path_as_given(self, data, reason):
        class Refused(Exception):
            pass

        with pytest.raises(Refused) as raised:
            jsonmodel.read_file("dir/f.json", parse_json, Refused, data)
        assert str(raised.value) == f"dir/f.json: {reason}"
        assert raised.value.__cause__ is None and raised.value.__suppress_context__

    def test_other_errors_pass_through(self, tmp_path):
        def parse(text):
            raise KeyError(text)

        with pytest.raises(KeyError):
            jsonmodel.read_file("f.json", parse, ValueError, b"x")
        with pytest.raises(FileNotFoundError):
            jsonmodel.read_file(tmp_path / "absent.json", parse_json, ValueError)


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


class TestSharedDecoder:
    """parse_json shares one JSONDecoder between calls and threads."""

    def test_threads_parse_floats_at_once(self):
        # each float calls parse_float, Python code mid-parse, where another thread may run
        lines = [json.dumps({"n": n, "xs": [n + i / 8 for i in range(40)], "o": {"y": n / 4}}) for n in range(6)]
        wrong = []

        def work(line):
            expected = json.loads(line)
            for _ in range(150):
                if parse_json(line) != expected:
                    wrong.append(line)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(line,)) for line in lines]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_leading_bom_fails_as_json_loads_does(self):
        with pytest.raises(json.JSONDecodeError) as stdlib:
            json.loads("\ufeff{}")
        with pytest.raises(JsonParseError) as ours:
            parse_json("\ufeff{}")
        error = stdlib.value
        assert str(ours.value) == f"{error.msg} (line {error.lineno}, column {error.colno})"
        assert (ours.value.line, ours.value.col) == (1, 1)
        assert str(ours.value).startswith("Unexpected UTF-8 BOM")

    def test_iter_ndjson_builds_no_decoder(self, monkeypatch):
        built = []
        init = json.JSONDecoder.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "__init__", counting_init)
        rows = list(iter_ndjson([f'{{"n": {i}, "x": {i}.5}}' for i in range(100)]))
        assert [value for _, value, _ in rows] == [{"n": i, "x": i + 0.5} for i in range(100)]
        assert built == []


def decode_outcome(text):
    """parse_json as one `JSONDecoder.decode` call with the module's hooks:
    ("value", repr of the value) or ("error", message, line, column)."""
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return "value", repr(jsonmodel._DECODER.decode(text))
    except json.JSONDecodeError as exc:
        error = JsonParseError(exc.msg, exc.lineno, exc.colno)
    except ValueError as exc:
        error = JsonParseError(str(exc), 1, 1)
    return "error", str(error), error.line, error.col


def parse_outcome(text):
    try:
        return "value", repr(parse_json(text))
    except JsonParseError as exc:
        return "error", str(exc), exc.line, exc.col


class TestParseAgainstDecode:
    """parse_json scans a lone value in one C call; every other text must
    fail or parse exactly as the full decode does."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"a":1} x', '{"a":1}{"b":2}', "[1,]", '""', "", "]", "\ufeff{}", "\ufeff 1",
            "NaN", "[NaN]", "-Infinity", "1e400", '{"a": 1e400}', " {}", "[1] ", "\n\t[1]\r\n ", " ",
            "3", '"s"', "null", "true", "-0", "2.50", '"\\ud800"', '{"a":1,"a":2}', '{"a" 1}',
            '"open', "[1, 2", "{", "-", "01", "1.", '{"a":[1,{"b":null}]}', "[]\n", "{}{}",
        ],
    )
    def test_edge_cases(self, text):
        assert parse_outcome(text) == decode_outcome(text)

    @settings(max_examples=150, deadline=None)
    @given(
        value=json_values,
        indent=st.sampled_from([None, 1]),
        lead=st.sampled_from(["", " ", "\n"]),
        cut=st.integers(0, 2**16),
        junk=st.sampled_from(["", " ", "\n", "x", "]", "}", ",", "{}", " 1", '"', "\\", "NaN"]),
    )
    def test_truncated_or_extended_text(self, value, indent, lead, cut, junk):
        text = lead + json.dumps(value, indent=indent, ensure_ascii=False)
        for candidate in (text + junk, text[: cut % (len(text) + 1)] + junk):
            assert parse_outcome(candidate) == decode_outcome(candidate)


# -- the depth bound --------------------------------------------------------

_SCALAR_END = re.compile(r"[^,\]}\s]*")


def first_too_deep(text):
    """The index of the first bracket that opens level MAX_DEPTH + 1 in a
    valid JSON text, or None: a recursive descent, one call per level."""

    def skip(i):
        while text[i] in " \n":
            i += 1
        return i

    def value(i, depth):  # (index after the value, index found or None)
        i = skip(i)
        if text[i] == '"':
            return json.decoder.scanstring(text, i + 1)[1], None
        if text[i] not in "[{":
            return _SCALAR_END.match(text, i).end(), None
        if depth == MAX_DEPTH:
            return None, i
        close = "]" if text[i] == "[" else "}"
        i = skip(i + 1)
        while text[i] != close:
            if close == "}":
                i = skip(json.decoder.scanstring(text, i + 1)[1]) + 1  # the key and its colon
            i, found = value(i, depth + 1)
            if found is not None:
                return None, found
            i = skip(i)
            if text[i] == ",":
                i = skip(i + 1)
        return i + 1, None

    return value(0, 0)[1]


# strings full of what the scan must not count: brackets, quotes, backslashes
_NOISE = st.text(alphabet='[]{}"\\ x', max_size=4)


@st.composite
def nested_texts(draw):
    """JSON text whose spine nests a few levels either side of MAX_DEPTH.

    A bit of `kinds` picks an array or an object per level; a few levels
    also hold sibling strings, before or after the spine.
    """
    depth = draw(st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2))
    kinds = draw(st.integers(0, 2**depth - 1))
    noisy = draw(st.dictionaries(st.integers(0, depth - 1), st.lists(_NOISE, min_size=1, max_size=2), max_size=6))
    value = draw(st.none() | st.integers() | _NOISE)
    for level in range(depth):
        siblings = noisy.get(level, [])
        at = draw(st.integers(0, len(siblings))) if siblings else 0
        if kinds >> level & 1:
            value = [*siblings[:at], value, *siblings[at:]]
        else:
            items = [(f"{noise}{i}", noise) for i, noise in enumerate(siblings)]
            items.insert(at, ("c" + draw(_NOISE) if siblings else "c", value))
            value = dict(items)
    separator = draw(st.sampled_from([",", ", ", ",\n"]))
    return json.dumps(value, separators=(separator, ": "))


def first_too_deep_by_walk(text):
    """The index of the first bracket that opens level MAX_DEPTH + 1 in any
    text, or None: a character walk in which a string literal runs to its
    closing quote, a backslash in it escapes the next character, and one
    left open runs to the end of the text."""
    depth, i = 0, 0
    while i < len(text):
        char = text[i]
        if char == '"':
            i += 1
            while i < len(text) and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
        elif char in "[{":
            depth += 1
            if depth > MAX_DEPTH:
                return i
        elif char in "]}":
            depth -= 1
        i += 1
    return None


# pieces of text that is mostly not JSON: runs of brackets that take it near
# the bound, quotes that open and close strings, escapes, and line breaks
_PIECES = st.sampled_from([
    "[" * 97, "{" * 61, "]" * 13, "}" * 5, ", ", "x", "\n",
    '"', '\\"', "\\\\", "\\",  # a quote or escape on its own, in a string or not
    '"[[]"', '"\\""', '"\\\\"', '"\\\\\\"]"',  # whole strings: brackets, an escaped quote, escaped backslashes
])


class TestDepthBound:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_PIECES, max_size=30))
    def test_error_matches_a_character_walk(self, pieces):
        # the padding takes every text past the length test, so the scan always runs
        text = "".join(pieces) + " " * (2 * MAX_DEPTH)
        found = first_too_deep_by_walk(text)
        if found is None:
            try:
                parse_json(text)
            except JsonParseError as exc:
                assert not str(exc).startswith("nesting deeper")
            return
        with pytest.raises(JsonParseError) as err:
            parse_json(text)
        line, column = text.count("\n", 0, found) + 1, found - text.rfind("\n", 0, found)
        assert str(err.value) == f"nesting deeper than {MAX_DEPTH} levels (line {line}, column {column})"

    def test_a_wide_shallow_array_parses(self):
        item = {"name": 'a "quoted" [text] {with} brackets\\', "tags": [[1, {}], ["]"]], "n": {"m": [None]}}
        text = json.dumps([item] * 2000)
        assert text.count("[") + text.count("{") > 10 * MAX_DEPTH
        assert parse_json(text) == json.loads(text)

    @pytest.mark.parametrize("opener", ["[", '{"k": '])
    def test_at_the_bound_parses_and_one_more_level_does_not(self, opener):
        closer = "]" if opener == "[" else "}"
        at_bound = opener * MAX_DEPTH + "1" + closer * MAX_DEPTH
        assert parse_json(at_bound) == json.loads(at_bound)
        with pytest.raises(JsonParseError) as err:
            parse_json("[" + at_bound + "]")
        column = 2 + len(opener) * (MAX_DEPTH - 1)  # the last opener of at_bound
        assert str(err.value) == f"nesting deeper than {MAX_DEPTH} levels (line 1, column {column})"

    @pytest.mark.parametrize(
        "text",
        [
            '["' + "[" * 1000 + '"]',  # brackets in a string
            '["\\"' + "[" * 1000 + '"]',  # after an escaped quote, still in the string
            "[" + ",".join(["[{}]"] * 1000) + "]",  # many brackets, two levels
        ],
    )
    def test_brackets_that_do_not_nest_are_not_counted(self, text):
        assert parse_json(text) == json.loads(text)

    def test_an_escaped_backslash_ends_its_string(self):
        prefix = '["\\\\", '  # the string holds one backslash; its closing quote is not escaped
        with pytest.raises(JsonParseError) as err:
            parse_json(prefix + "[" * MAX_DEPTH + "]" * MAX_DEPTH + "]")
        assert (err.value.line, err.value.col) == (1, len(prefix) + MAX_DEPTH)

    def test_a_million_levels_are_refused_at_the_first_past_the_bound(self):
        with pytest.raises(JsonParseError) as err:
            parse_json("[" * 1_000_000 + "]" * 1_000_000)
        assert (err.value.line, err.value.col) == (1, MAX_DEPTH + 1)

    def test_the_position_counts_lines(self):
        text = "[\n" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1)
        with pytest.raises(JsonParseError) as err:
            parse_json(text)
        assert (err.value.line, err.value.col) == (MAX_DEPTH + 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(nested_texts())
    def test_scan_matches_a_recursive_reference(self, text):
        found = first_too_deep(text)
        if found is None:
            assert parse_json(text) == json.loads(text)
            return
        with pytest.raises(JsonParseError) as err:
            parse_json(text)
        line, column = text.count("\n", 0, found) + 1, found - text.rfind("\n", 0, found)
        assert str(err.value) == f"nesting deeper than {MAX_DEPTH} levels (line {line}, column {column})"
