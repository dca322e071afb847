import json
import math
import operator
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import semschema
from semschema import jslt
from semschema.errors import JsltCompileError, JsltRuntimeError, JsonParseError
from semschema.jslt.compiler import MAX_CALL_DEPTH
from semschema.jslt.parser import MAX_NESTING
from semschema.jsonmodel import dumps, json_equal, parse_json
from semschema.pattern import MAX_GROUP_DEPTH
from reference_numbers import number_texts, reference_dumps, reference_normalize

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=10),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def _operator(op: str, power: int, apply):
    """Join two (source, value, power) operands with `op`, in parentheses only where the grammar needs them."""

    def join(operands):
        (left, a, left_power), (right, b, right_power) = operands
        left = left if left_power >= power else f"({left})"
        right = right if right_power > power else f"({right})"  # operators of one power group to the left
        return f"{left} {op} {right}", apply(a, b), power

    return join


# expressions as (source, value, power): an operand binds at power 6
_numbers = st.recursive(
    st.integers(0, 9).map(lambda n: (str(n), n, 6)),
    lambda inner: st.one_of(
        inner.map(lambda t: ("-" + (t[0] if t[2] == 6 else f"({t[0]})"), -t[1], 6)),
        st.tuples(inner, inner).map(_operator("+", 4, operator.add)),
        st.tuples(inner, inner).map(_operator("-", 4, operator.sub)),
        st.tuples(inner, inner).map(_operator("*", 5, operator.mul)),
    ),
    max_leaves=8,
)
_comparisons = st.sampled_from([("==", operator.eq), ("!=", operator.ne), ("<", operator.lt), ("<=", operator.le),
                                (">", operator.gt), (">=", operator.ge)])
_booleans = st.recursive(
    st.sampled_from([("true", True, 6), ("false", False, 6)])
    | st.tuples(_comparisons, _numbers, _numbers).map(lambda t: _operator(t[0][0], 3, t[0][1])(t[1:])),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(_operator("and", 2, lambda a, b: a and b)),
        st.tuples(inner, inner).map(_operator("or", 1, lambda a, b: a or b)),
    ),
    max_leaves=6,
)


def run(source: str, value=None):
    return jslt.compile(source).evaluate(value)


class TestLiteralsAndOperators:
    def test_literals(self):
        assert run("null") is None
        assert run("true") is True
        assert run("42") == 42
        assert run("-3.5") == -3.5
        assert run('"hi"') == "hi"
        assert run("[1, 2, [3]]") == [1, 2, [3]]
        assert run('{"a": 1, "b": {"c": 2}}') == {"a": 1, "b": {"c": 2}}

    def test_arithmetic(self):
        assert run("1 + 2 * 3") == 7
        assert run("(1 + 2) * 3") == 9
        assert run("7 / 2") == 3.5
        assert run("5 - 2 - 1") == 2
        assert run("-(2 + 3)") == -5

    def test_plus_concatenates_and_merges(self):
        assert run('"a" + "b"') == "ab"
        assert run('"a" + 1') == "a1"
        assert run('1 + "a"') == "1a"
        assert run("[1] + [2, 3]") == [1, 2, 3]
        assert run('{"a": 1, "x": 0} + {"a": 2, "y": 3}') == {"a": 1, "x": 0, "y": 3}

    def test_arithmetic_null_propagates(self):
        assert run("null + 1") is None
        assert run("1 - null") is None
        assert run("null * null") is None
        assert run("- null") is None

    def test_comparisons(self):
        assert run("1 < 2") is True
        assert run("2 <= 2") is True
        assert run('"a" < "b"') is True
        assert run("3 >= 4") is False
        assert run("1 == 1.0") is True
        assert run("true != 1") is True
        assert run('"1" == 1') is False

    def test_boolean_operators_return_bools(self):
        assert run("1 and 2") is True
        assert run("0 and []") is False  # 0 is true, [] is false
        assert run("null or {}") is False
        assert run('"" or "x"') is True

    def test_and_short_circuits(self):
        assert run("false and 1 / 0") is False
        assert run("true or 1 / 0") is True

    @given(_numbers | _booleans)
    def test_operators_group_by_precedence(self, expression):
        source, value, _ = expression
        assert run(source) == value and type(run(source)) is type(value), source

    def test_runtime_errors(self):
        with pytest.raises(JsltRuntimeError):
            run("1 / 0")
        with pytest.raises(JsltRuntimeError):
            run("1 < null")
        with pytest.raises(JsltRuntimeError):
            run('"s" - 1')
        with pytest.raises(JsltRuntimeError):
            run('1 < "a"')


class TestContextAccess:
    def test_dot_returns_input(self):
        assert run(".", {"a": 1}) == {"a": 1}
        assert run(".", None) is None

    def test_key_chains(self):
        event = {"device": {"osType": "ios"}}
        assert run(".device.osType", event) == "ios"
        assert run(".device.missing", event) is None
        assert run(".missing.deeper", event) is None

    def test_quoted_keys(self):
        assert run('.actor."spt:userId"', {"actor": {"spt:userId": "u1"}}) == "u1"

    def test_access_on_non_objects_is_null(self):
        assert run(".key", [1, 2]) is None
        assert run(".key", "text") is None
        assert run(".key", 7) is None

    def test_indexing(self):
        assert run(".[0]", [10, 20]) == 10
        assert run(".[-1]", [10, 20]) == 20
        assert run(".[9]", [10, 20]) is None
        assert run(".[0]", "abc") == "a"
        assert run(".[0]", None) is None
        assert run('.["a"]', {"a": 5}) == 5

    def test_slicing(self):
        assert run(".[1:3]", [0, 1, 2, 3]) == [1, 2]
        assert run(".[:2]", "abcd") == "ab"
        assert run(".[1:]", [0, 1, 2]) == [1, 2]
        assert run(".[-2:]", [0, 1, 2]) == [1, 2]

    def test_non_integral_index_is_an_error(self):
        with pytest.raises(JsltRuntimeError):
            run(".[1.5]", [1, 2, 3])


class TestVariablesAndControl:
    def test_let(self):
        assert run("let x = 2 let y = $x * 3 $y + $x") == 8

    def test_let_shadowing_inside_if(self):
        source = "let x = 1 if (true) let x = 2 $x else $x"
        assert run(source) == 2

    def test_if_else(self):
        assert run('if (.flag) "y" else "n"', {"flag": True}) == "y"
        assert run('if (.flag) "y" else "n"', {}) == "n"
        assert run('if (.flag) "y"', {}) is None

    def test_zero_is_truthy_empty_is_falsy(self):
        assert run('if (0) "t" else "f"') == "t"
        assert run('if ([]) "t" else "f"') == "f"
        assert run('if ({}) "t" else "f"') == "f"
        assert run('if ("") "t" else "f"') == "f"


class TestComprehensions:
    def test_array_comprehension(self):
        assert run("[for (.) . * 2]", [1, 2, 3]) == [2, 4, 6]

    def test_array_comprehension_with_filter(self):
        assert run("[for (.) . if (. > 1)]", [1, 2, 3]) == [2, 3]

    def test_object_source_yields_key_value_pairs(self):
        assert run("[for (.) .key]", {"a": 1, "b": 2}) == ["a", "b"]
        assert run("[for (.) .value]", {"a": 1, "b": 2}) == [1, 2]

    def test_object_comprehension(self):
        result = run('{for (.) .key : .value + 1}', {"a": 1, "b": 2})
        assert result == {"a": 2, "b": 3}

    def test_object_comprehension_drops_null_values(self):
        result = run("{for (.) .key : .value}", {"a": 1, "b": None})
        assert result == {"a": 1}

    def test_null_source_yields_null(self):
        assert run("[for (.missing) .]", {}) is None
        assert run("{for (.missing) .key : .value}", {}) is None

    def test_loop_over_scalar_is_an_error(self):
        with pytest.raises(JsltRuntimeError):
            run("[for (.) .]", 42)


class TestObjectConstruction:
    def test_null_values_dropped(self):
        assert run('{"a": .x, "b": 1}', {}) == {"b": 1}

    def test_empty_object(self):
        assert run("{}", {"a": 1}) == {}

    def test_matcher_copies_the_rest(self):
        result = run('{"a": 1, * : .}', {"a": 9, "b": 2, "c": None})
        assert result == {"a": 1, "b": 2, "c": None}

    def test_matcher_exclusions(self):
        result = run("{* - b, c : .}", {"a": 1, "b": 2, "c": 3})
        assert result == {"a": 1}

    def test_matcher_expression_sees_each_value(self):
        result = run("{* : . + 1}", {"a": 1, "b": 2})
        assert result == {"a": 2, "b": 3}

    def test_matcher_on_non_object_input(self):
        assert run("{* : .}", [1, 2]) == {}

    def test_computed_keys(self):
        assert run('{"k" + "1": 2}') == {"k1": 2}
        with pytest.raises(JsltRuntimeError):
            run("{1: 2}")

    def test_object_lets(self):
        assert run('{let n = 2 "a": $n, "b": $n * 2}') == {"a": 2, "b": 4}


class TestFunctions:
    def test_user_function(self):
        assert run("def double(x) $x * 2 double(21)") == 42

    def test_recursion(self):
        source = "def fact(n) if ($n < 2) 1 else $n * fact($n - 1) fact(6)"
        assert run(source) == 720

    def test_function_body_sees_params_not_outer_lets(self):
        with pytest.raises(JsltCompileError):
            jslt.compile("let a = 1 def f(x) $a + $x f(1)")

    def test_user_function_shadows_builtin_literal_checks(self):
        assert run('def test(a, b) $b test(1, "(")') == "("

    def test_function_body_sees_context(self):
        assert run("def grab() .name grab()", {"name": "n"}) == "n"

    def test_runaway_recursion_reported(self):
        with pytest.raises(JsltRuntimeError, match="call depth"):
            run("def loop(n) loop($n + 1) loop(0)")


class TestBuiltins:
    def test_round(self):
        assert run("round(2.4)") == 2
        assert run("round(2.5)") == 3
        assert run("round(-2.5)") == -2
        assert run("round(null)") is None

    # Python's int() and float() take each of these; a JSON number in ASCII digits is none of them
    @pytest.mark.parametrize("text", ["1_000", "\u0663", "\u0661.\u0665", " 2.5 ", "+3", "0x10", "007", ".5", "1.", "2.5\n",
                                      "Infinity", "nan", "1e400"])
    def test_number_reads_only_a_json_number(self, text):
        assert run("number(.s, -1)", {"s": text}) == -1
        with pytest.raises(JsltRuntimeError, match="^number: cannot parse "):
            run("number(.s)", {"s": text})

    def test_boolean_and_not(self):
        assert run("boolean(.x)", {"x": "y"}) is True
        assert run("boolean(.x)", {}) is False
        assert run("not(.x)", {}) is True

    def test_string(self):
        assert run("string(12)") == "12"
        assert run("string(1.0)") == "1"
        assert run('string("s")') == "s"
        assert run("string(null)") == "null"
        assert run("string([1, 2])") == "[1,2]"

    def test_number(self):
        assert run('number("12")') == 12
        assert run('number("3.5")') == 3.5
        for text, value in (("-0", 0), ("2.0", 2), ("1E2", 100), ("-1.5e-3", -0.0015), ("9007199254740993", 2**53 + 1)):
            assert (run("number(.s)", {"s": text}), type(run("number(.s)", {"s": text}))) == (value, type(value))
        assert run("number(7)") == 7
        assert run("number(null)") is None
        assert run('number("bad", 9)') == 9
        with pytest.raises(JsltRuntimeError):
            run('number("bad")')
        with pytest.raises(JsltRuntimeError):
            run("number(true)")

    def test_size(self):
        assert run('size("abc")') == 3
        assert run("size([1, 2])") == 2
        assert run('size({"a": 1})') == 1
        assert run("size(null)") is None
        with pytest.raises(JsltRuntimeError):
            run("size(5)")

    def test_contains(self):
        assert run("contains(2, [1, 2])") is True
        assert run("contains(2, [1, [2]])") is False
        assert run('contains("a", {"a": 1})') is True
        assert run('contains("bc", "abcd")') is True
        assert run("contains(1, null)") is False

    def test_test(self):
        assert run('test("sdrn:mp:user:1", "^sdrn:")') is True
        assert run('test("nope", "^sdrn:")') is False
        assert run('test(null, ".*")') is False
        assert run('test(123, "^12")') is True  # non-strings are stringified

    def test_type_predicates(self):
        assert run("is-object({})") is True
        assert run("is-object([])") is False
        assert run("is-array([])") is True
        assert run('is-array("x")') is False

    def test_uuid_validate(self):
        assert run('uuid-validate("93b15a46-5a87-4cfe-9a86-efe98d63ace6")') is True
        assert run('uuid-validate("not-a-uuid")') is False

    @pytest.mark.parametrize("source", ["string(.x * 1e308)", 'test(.x * 1e308, "1")', 'test(.x * 1e308, .p)'])
    def test_unserializable_value_is_a_runtime_error(self, source):
        with pytest.raises(JsltRuntimeError, match="cannot stringify"):
            run(source, {"x": 10, "p": "1"})

    def test_dynamic_bad_pattern_fails_at_runtime(self):
        program = jslt.compile("test(.x, .p)")
        with pytest.raises(JsltRuntimeError):
            program.evaluate({"x": "a", "p": "("})

    @pytest.mark.parametrize("pattern", ["a{4294967296}", "(" * 65 + ")" * 65])
    def test_a_dynamic_pattern_past_a_bound_fails_at_runtime(self, pattern):
        # a repeat count the matcher refuses, and groups nested past MAX_GROUP_DEPTH
        with pytest.raises(JsltRuntimeError, match="^test: "):
            jslt.compile("test(.x, .p)").evaluate({"x": "a", "p": pattern})


class TestParseTime:
    FMT = '"yyyy-MM-dd\'T\'HH:mm:ssX"'

    def test_epoch(self):
        assert run(f'parse-time("1970-01-01T00:00:00Z", {self.FMT})') == 0

    def test_known_instant(self):
        # 2020-01-02T03:04:05Z
        assert run(f'parse-time("2020-01-02T03:04:05Z", {self.FMT})') == 1577934245

    def test_zone_offsets(self):
        base = run(f'parse-time("1970-01-01T01:00:00Z", {self.FMT})')
        assert base == 3600
        assert run(f'parse-time("1970-01-01T01:00:00+01:00", {self.FMT})') == 0
        assert run(f'parse-time("1970-01-01T01:00:00+0100", {self.FMT})') == 0
        assert run(f'parse-time("1970-01-01T01:00:00+01", {self.FMT})') == 0
        assert run(f'parse-time("1970-01-01T00:30:00-00:30", {self.FMT})') == 3600

    def test_null_input(self):
        assert run(f"parse-time(null, {self.FMT})") is None

    def test_fallback_on_bad_value(self):
        assert run(f'parse-time("junk", {self.FMT}, -1)') == -1
        with pytest.raises(JsltRuntimeError):
            run(f'parse-time("junk", {self.FMT})')

    def test_bad_format_raises_even_with_fallback(self):
        # a literal bad format fails at compile time; a dynamic one at runtime
        with pytest.raises(JsltRuntimeError):
            run("parse-time(.t, .fmt, -1)", {"t": "x", "fmt": "yyyy-QQ"})

    def test_quoted_literals(self):
        assert run("parse-time(\"1970y\", \"yyyy'y'\")") == 0

    def test_fallback_on_an_unwritable_value(self):
        assert run(f"parse-time(.x * 1e308, {self.FMT}, -1)", {"x": 10}) == -1
        with pytest.raises(JsltRuntimeError, match="parse-time: cannot serialize"):
            run(f"parse-time(.x * 1e308, {self.FMT})", {"x": 10})

    def test_fallback_is_evaluated_before_the_call(self):
        with pytest.raises(JsltRuntimeError, match="division by zero"):
            run(f'parse-time("1970-01-01T00:00:00Z", {self.FMT}, 1 / 0)')


class TestCompileErrors:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("foo", "did you mean"),
            ("unknown(1)", "unknown function"),
            ("round(1, 2)", "argument"),
            ("parse-time()", "argument"),
            ("$missing", "undefined variable"),
            ("1 < 2 < 3", "chained"),
            ('{* : ., "a": 1}', "last"),
            ('test(.x, "(")', "pattern"),
            ('parse-time(.x, "bogus-QQ")', "format"),
            ("def f(x, x) $x f(1)", "parameter"),
            ("def f() 1 def f() 2 f()", "defined twice"),
            ("let x = ", "expected"),
            ("{", "expected"),
            ("if true 1", "("),
            # the first error in source order wins
            ("[$a, unknown(1)]", "undefined variable $a"),
            ("[unknown(1), $a]", "unknown function"),
            ("round($a, $b)", "round takes 1"),
            ('{for ($a) $b : $c if ($d)}', "undefined variable $a"),
            ('{for (.) . : $c if ($d)}', "undefined variable $c"),
            ("def f(x) $y f($z)", "undefined variable $y"),
            ("def f(x) g($x) def g(y) $x g(1)", "undefined variable $x"),
            # numbers take ASCII digits only, as in JSON
            ("²", "unexpected character"),
            ("٣", "unexpected character"),
        ],
    )
    def test_messages(self, source, fragment):
        with pytest.raises(JsltCompileError) as err:
            jslt.compile(source)
        assert fragment in str(err.value)

    def test_deep_nesting_rejected(self):
        # the top-level expression is one level, so MAX_NESTING arrays hold one level too many
        source = "[" * MAX_NESTING + "1" + "]" * MAX_NESTING
        with pytest.raises(JsltCompileError, match=f"expression nesting exceeds {MAX_NESTING}") as err:
            jslt.compile(source)
        assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)

    def test_each_minus_sign_counts_as_nesting(self):
        # the top-level expression is one level, so MAX_NESTING - 1 signs fit under the cap
        assert run("-" * (MAX_NESTING - 1) + "1") == (-1) ** (MAX_NESTING - 1)
        with pytest.raises(JsltCompileError, match=f"expression nesting exceeds {MAX_NESTING}") as err:
            jslt.compile("-" * MAX_NESTING + "1")
        assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)

    def test_error_position_reported(self):
        with pytest.raises(JsltCompileError) as err:
            jslt.compile("1 +\n  bogus")
        assert err.value.line == 2


class TestStringLiterals:
    """A string literal is read as a JSON string, by the scanner parse_json uses, but for a raw newline."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(exclude_categories=())), st.booleans())  # lone surrogates included
    def test_a_json_string_literal_gives_its_text(self, text, ensure_ascii):
        assert run(json.dumps(text, ensure_ascii=ensure_ascii)) == text

    @pytest.mark.parametrize("literal, value", [
        (r'"\""', '"'), (r'"\\"', "\\"), (r'"\/"', "/"), (r'"\b"', "\b"), (r'"\f"', "\f"),
        (r'"\n"', "\n"), (r'"\r"', "\r"), (r'"\t"', "\t"), (r'"\u00e9\u00C9"', "éÉ"),
        (r'"\ud83d\ude00"', "\U0001f600"),  # an escaped pair is one character, as in parse_json
        (r'"\ud800"', "\ud800"), (r'"\udc00\ud800"', "\udc00\ud800"),  # lone surrogates stay lone
    ])
    def test_each_escape(self, literal, value):
        assert run(literal) == value == parse_json(literal)

    def test_a_raw_control_character_other_than_newline_is_kept(self):
        assert run('"a\tb\rc\x01"') == "a\tb\rc\x01"

    @pytest.mark.parametrize("source, message", [
        ('. + "ab', "Unterminated string starting at 1:5"),
        ('. + "ab\\', "Unterminated string starting at 1:5"),
        ('. + "a\\qb"', "Invalid \\escape at 1:5"),
        ('. + "a\\u12g4"', "Invalid \\uXXXX escape at 1:5"),
        ('. + "a\\u12"', "Invalid \\uXXXX escape at 1:5"),
        ('. + "a\nb"', "newline inside string literal at 1:5"),
        ('. + "a\nb', "newline inside string literal at 1:5"),  # unterminated, but the newline comes first
        ('. + "a\nb\\q', "newline inside string literal at 1:5"),
        ('. + "a\\q\nb"', "Invalid \\escape at 1:5"),
        ('1 +\n  "ab', "Unterminated string starting at 2:3"),
    ])
    def test_every_error_stands_at_the_opening_quote(self, source, message):
        with pytest.raises(JsltCompileError) as err:
            jslt.compile(source)
        assert str(err.value) == message


# tokens of the language, a few it refuses, and literals the lexer reads by JSON's rules
JSLT_PIECES = [
    ".", ".a", '."b c"', "[", "]", "{", "}", "(", ")", ",", ":", "*", "/", "+", "-", "<", "==", "!=", " ", "\n",
    "// c\n", "$x", "let x = 1", "def f(y) $y", "if", "else", "for", "and", "or", "true", "false", "null",
    "test(", "parse-time(", "size(", "f(", '"x"', '"\\q"', '"\\ud800"', '"\\u12"', '"a\nb"', '"(((("',
    '"a{4294967296}"', '"yyyy-QQ"', "1", "007", "1.5", "1e400", "1" * 5000, "²", "#", "$",
]


class TestCompileRaisesOnlyCompileErrors:
    """A program file is read through jsonmodel.read_file, which names the file only for a SemSchemaError."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(JSLT_PIECES), max_size=12).map("".join) | st.text(max_size=20))
    @example('test(., "a{4294967296}")')
    @example("1" * 5000)
    def test_any_text_compiles_or_raises_a_compile_error(self, source):
        try:
            jslt.compile(source)
        except JsltCompileError:
            pass


class TestNumberLiterals:
    def test_a_number_beyond_a_double_is_a_compile_error_as_in_parse_json(self):
        with pytest.raises(JsltCompileError) as err:
            jslt.compile("[1, 1e400]")
        assert str(err.value) == "number out of range: 1e400 at 1:5"
        with pytest.raises(JsonParseError, match="number out of range: 1e400"):
            parse_json("[1, 1e400]")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() takes any length before 3.11")
    def test_an_integer_longer_than_int_takes_is_a_compile_error(self):
        with pytest.raises(JsltCompileError, match="^Exceeds the limit .* at 1:1$"):
            jslt.compile("1" * 5000)

    def test_numbers_in_range_keep_their_values(self):
        assert run("[1e308, 1.5e-400, 007, 12]") == [1e308, 0.0, 7, 12]


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _written(make):
    """What `make()` writes, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


class TestNumberOutput:
    """Arithmetic on parsed numbers prints as the tree copy printed the same arithmetic in Python."""

    @given(a=number_texts, b=number_texts, op=st.sampled_from(sorted(_OPERATORS)))
    def test_binary_operators(self, a, b, op):
        x, y = json.loads(a), json.loads(b)
        program = jslt.compile(f".a {op} .b")
        event = parse_json(f'{{"a": {a}, "b": {b}}}')
        if op == "/" and y == 0:
            with pytest.raises(JsltRuntimeError, match="division by zero"):
                program.evaluate(event)
            return
        # an integral float within 2**53 is now an exact int, so arithmetic
        # on two integral operands, one written as a float, is exact past
        # 2**53 where it was on doubles (test_integral_operands_stay_exact_past_2_53)
        operands = reference_normalize([x, y])
        assume(not (all(type(v) is int for v in operands) and any(isinstance(v, float) for v in (x, y))
                    and max(map(abs, [*operands, _OPERATORS[op](*operands)])) > 2**53))
        assert _written(lambda: dumps(program.evaluate(event))) == _written(
            lambda: reference_dumps(_OPERATORS[op](x, y)))

    @given(a=number_texts)
    def test_negation_and_round(self, a):
        x = json.loads(a)
        event = parse_json(f'{{"a": {a}}}')
        assert dumps(run("-.a", event)) == reference_dumps(-x)
        assert dumps(run("round(.a)", event)) == reference_dumps(math.floor(x + 0.5))

    def test_integral_operands_stay_exact_past_2_53(self):
        # 4e15 and 4000000000000000 are one JSON number, with one product
        for a in ("4e15", "4000000000000000", "4000000000000000.0"):
            assert dumps(run(".a * 3", parse_json(f'{{"a": {a}}}'))) == "12000000000000000"
        assert dumps(run(".a + 1", parse_json('{"a": 9007199254740992.0}'))) == "9007199254740993"
        assert dumps(run(".a - 9007199254740993", parse_json('{"a": 2.0}'))) == "-9007199254740991"
        assert dumps(run(".a / 9007199254740993", parse_json('{"a": 2.0}'))) == "2.2204460492503128e-16"


class TestErrorOrder:
    """Which of several compile errors is reported, and where."""

    @pytest.mark.parametrize(
        "source, message, line, col",
        [
            # a syntax error anywhere beats any earlier semantic error
            ("[$a, 1", "expected ']', found 'end of input'", 1, 7),
            # a call's own error beats any error inside its arguments
            ('test($a, "(")', "test: unclosed group in pattern '(' at offset 1", 1, 10),
            ('test(.x, ("("))', "test: unclosed group in pattern '(' at offset 1", 1, 11),
            ("round($a, $b)", "round takes 1 argument(s), got 2", 1, 1),
            # errors in def bodies beat those in top-level lets and the body
            ("let x = $a def f() $b f()", "undefined variable $b", 1, 20),
            # a call to a later def is checked against its arity
            ("def f() g(1, 2) def g(y) $x f()", "g takes 1 argument(s), got 2", 1, 9),
            ("²", "unexpected character '²'", 1, 1),
            ("1 + ٣", "unexpected character '٣'", 1, 5),
        ],
    )
    def test_first_error(self, source, message, line, col):
        with pytest.raises(JsltCompileError) as err:
            jslt.compile(source)
        assert str(err.value) == f"{message} at {line}:{col}"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "source, expected",
        [
            # a let may call a later def, which also shadows a builtin of the same name
            ("let x = f(1) def f(a) $a $x", 1),
            ('let x = test(1, "(") def test(a, b) $b $x', "("),
        ],
    )
    def test_let_calls_a_later_def(self, source, expected):
        assert run(source) == expected


class TestRuntimeErrorPositions:
    @pytest.mark.parametrize(
        "source, value, fragment, line, col",
        [
            (".a\n  [1]", {"a": {}}, "object index must be a string", 2, 3),
            (".a\n    [0]", {"a": 5}, "cannot index into 5", 2, 5),
            ("[1, 2]\n  [0.5]", None, "index must be a whole number", 2, 3),
            ('[1, 2]\n [1:"x"]', None, "index must be a number", 2, 2),
            (".a\n   [0:1]", {"a": 5}, "cannot slice 5", 2, 4),
            ('{"a": 1,\n  2: 3}', None, "object key must be a string, got 2", 2, 3),
            ("{for (.)\n    . : 1}", [7], "object key must be a string, got 7", 2, 5),
            ("[1] +\n  [for (.a) .]", {"a": 5}, "cannot loop over 5", 2, 3),
            ('[1] +\n   {for (.a) "k" : .}', {"a": 5}, "cannot loop over 5", 2, 4),
            ('1\n  < "a"', None, "cannot order 1 and a", 2, 3),
            ("true\n    + 1", None, "cannot add true and 1", 2, 5),
            ('"a"\n  - 1', None, "cannot apply '-' to a and 1", 2, 3),
            ("1\n /\n 0", None, "division by zero", 2, 2),
            ('1 +\n  -"a"', None, "cannot negate a", 2, 3),
            ('1 +\n   round("x")', None, "round: not a number", 2, 4),
            ("def f(n)\n  f($n + 1)\nf(0)", None, f"call depth exceeds {MAX_CALL_DEPTH}", 2, 3),
        ],
    )
    def test_message_and_position(self, source, value, fragment, line, col):
        with pytest.raises(JsltRuntimeError) as err:
            run(source, value)
        assert fragment in str(err.value)
        assert (err.value.line, err.value.col) == (line, col)


_DEFAULT_LIMIT_SCRIPT = """
import contextlib, io, json, sys, threading
before = sys.getrecursionlimit()
from semschema import cli, jslt
from semschema.errors import SemSchemaError

cases, repo, events = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
jslt.compile("1 + 1")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["transform", events, "--repo", repo])
report = {"limit": [before, sys.getrecursionlimit()], "transform": code}

def outcome(source, value):
    try:
        return jslt.compile(source).evaluate(value)
    except SemSchemaError as exc:
        return str(exc)

def at_depth(frames, fn):
    return fn() if frames == 0 else at_depth(frames - 1, fn)

checks = lambda: [outcome(source, value) for source, value in cases]
report["main"] = at_depth(300, checks)
thread = threading.Thread(target=lambda: report.update(thread=at_depth(300, checks)))
thread.start()
thread.join(60)
print(json.dumps(report))
"""


def nest(prefix: str, inner: str, suffix: str, times: int) -> str:
    return prefix * times + inner + suffix * times


_DEEP_TEST = 'test("a", "%s")' % nest("(", "a", ")", MAX_GROUP_DEPTH)


class TestDefaultRecursionLimit:
    """The deepest program each bound admits runs at the interpreter's default recursion limit.

    In a fresh interpreter, which semschema never gives a higher limit: each
    program runs under 300 frames of its caller's own, in the main thread and
    in a worker thread.  The top-level expression is the first level.
    """

    N = MAX_NESTING
    # shape -> (its program n levels deep, its value for {"a": 1} at the bound,
    # as JSON, and the column of the first token past the bound one level deeper)
    SHAPES = {
        "parentheses": (lambda n: nest("(", ".a", ")", n - 1), "1", N + 1),
        "arrays": (lambda n: nest("[", ".a", "]", n - 1), nest("[", "1", "]", N - 1), N + 1),
        # an object's key is a level of its own
        "objects": (lambda n: nest('{"a": ', ".a", "}", n - 1), nest('{"a": ', "1", "}", N - 1), 6 * (N - 1) + 2),
        "if conditions": (lambda n: nest("if (", ".a", ") .a", n - 1), "1", 4 * N + 1),
        "signs": (lambda n: nest("-", ".a", "", n - 1), str((-1) ** (N - 1)), N + 1),
        "sums": (lambda n: nest("1 + (", ".a", ")", n - 1), str(N), 5 * N + 1),
        # the costliest levels, each around a literal pattern as deep as the
        # pattern parser admits, in a call whose arguments are the innermost level
        "loop sources": (lambda n: nest("[for (", f"[{_DEEP_TEST}]", ") .]", n - 3), "[true]", 6 * (N - 2) + 7),
        "object lets": (lambda n: nest("{let a = ", _DEEP_TEST, "}", n - 2), "{}", 9 * (N - 1) + 6),
    }
    # n calls deep for .n = n, each costing 3 and 4 frames
    CALLS = {
        "def fact(n) if ($n < 2) 1 else $n * fact($n - 1) fact(.n)": math.factorial(MAX_CALL_DEPTH),
        "def wrap(n) if ($n < 2) [] else [wrap($n - 1)] wrap(.n)": json.loads(nest("[", "", "]", MAX_CALL_DEPTH)),
    }

    @pytest.fixture(scope="class")
    def report(self, repo_dir, tmp_path_factory):
        from semschema.generator import GenConfig, generate_valid
        from semschema.registry import load_repo

        events = tmp_path_factory.mktemp("limit") / "events.ndjson"
        events.write_text(json.dumps(generate_valid(load_repo(repo_dir), "View Item", 0, GenConfig(seed=1))) + "\n")
        cases = [(make(n), {"a": 1}) for make, _, _ in self.SHAPES.values() for n in (self.N, self.N + 1)]
        cases += [(source, {"n": n}) for source in self.CALLS for n in (MAX_CALL_DEPTH, MAX_CALL_DEPTH + 1)]
        env = dict(os.environ, PYTHONPATH=str(Path(semschema.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", _DEFAULT_LIMIT_SCRIPT, json.dumps(cases), str(repo_dir), str(events)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-3000:]
        return json.loads(done.stdout)

    def test_semschema_leaves_the_limit_as_it_found_it(self, report):
        assert report["limit"] == [1000, 1000]
        assert report["transform"] == 0

    @pytest.mark.parametrize("thread", ["main", "thread"])
    def test_nesting_bound(self, report, thread):
        found = dict(zip(self.SHAPES, zip(report[thread][0::2], report[thread][1::2])))
        assert found == {
            shape: (json.loads(value), f"expression nesting exceeds {self.N} at 1:{col}")
            for shape, (_, value, col) in self.SHAPES.items()
        }

    @pytest.mark.parametrize("thread", ["main", "thread"])
    def test_call_bound(self, report, thread):
        outcomes = report[thread][2 * len(self.SHAPES):]
        assert outcomes[0::2] == list(self.CALLS.values())
        assert [message.split(" at ")[0] for message in outcomes[1::2]] == [f"call depth exceeds {MAX_CALL_DEPTH}"] * 2


class TestSharedProgram:
    def test_threads_keep_separate_call_depths(self):
        program = jslt.compile(
            "def fact(n) if ($n < 2) 1 else $n * fact($n - 1)\n"
            "def loop(n) loop($n + 1)\n"
            "if (.runaway) loop(0) else fact(.n)"
        )
        # fact(MAX_CALL_DEPTH) runs at the bound: a call counted in the wrong thread fails it
        inputs = {"a": {"n": MAX_CALL_DEPTH}, "b": {"n": MAX_CALL_DEPTH}, "runaway": {"runaway": True}}
        results = {name: [] for name in inputs}
        errors = {name: [] for name in inputs}
        barrier = threading.Barrier(len(inputs))

        def work(name):
            barrier.wait()
            for _ in range(50):
                try:
                    results[name].append(program.evaluate(inputs[name]))
                except JsltRuntimeError as exc:
                    errors[name].append(str(exc))

        threads = [threading.Thread(target=work, args=(name,)) for name in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-evaluation
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results["a"] == results["b"] == [math.factorial(MAX_CALL_DEPTH)] * 50
        assert errors == {"a": [], "b": [], "runaway": [f"call depth exceeds {MAX_CALL_DEPTH} at 2:13"] * 50}


class TestPrograms:
    def test_program_reuse(self):
        program = jslt.compile('{"n": .n * 2}')
        assert program.evaluate({"n": 1}) == {"n": 2}
        assert program.evaluate({"n": 5}) == {"n": 10}

    def test_relocation_shape(self):
        program = jslt.compile(
            '{"os": .device.osType, "lang": .device.acceptLanguage,'
            ' "flags": {"logged_in": boolean(.actor."spt:userId")}}'
        )
        result = program.evaluate(
            {"device": {"osType": "android"}, "actor": {"spt:userId": "sdrn:m:user:4"}}
        )
        assert result == {"os": "android", "flags": {"logged_in": True}}

    @given(json_values)
    def test_identity_program(self, value):
        assert run(".", value) == value

    @given(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
    def test_matcher_identity_on_objects(self, value):
        assert run("{* : .}", value) == value

    @given(st.lists(json_values, max_size=4))
    def test_comprehension_identity_on_arrays(self, value):
        assert run("[for (.) .]", value) == value


def outcome(source: str, value):
    """A program's result, or the text of its runtime error."""
    try:
        return "ok", jslt.compile(source).evaluate(value)
    except JsltRuntimeError as exc:
        return "error", str(exc)


KEYS = ("a", "b", "spt:id")
keyed_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=2) | st.dictionaries(st.sampled_from(KEYS), children, max_size=3),
    max_leaves=12,
)
stamps = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}".format,
    st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
    st.sampled_from(["Z", "+00:00", "+01:00", "-0530", "+14", "-23:59", "+24:00", ""]),
)


class TestCompiledForms:
    """The fused and bound forms agree with the step-by-step, dynamic ones."""

    @settings(max_examples=150, deadline=None)
    @given(keyed_values, st.lists(st.sampled_from(KEYS), min_size=1, max_size=4))
    def test_key_chain_equals_steps(self, value, keys):
        steps = [json.dumps(key) for key in keys]
        chain = "".join("." + step for step in steps)
        # each let binds one step, so no two steps share a closure
        stepwise = " ".join(f"let s{i} = $s{i - 1}.{step}" for i, step in enumerate(steps[1:], 1))
        expected = run(f"let s0 = .{steps[0]} {stepwise} $s{len(steps) - 1}", value)
        walked = value
        for key in keys:
            walked = walked.get(key) if isinstance(walked, dict) else None
        assert expected == walked
        assert run(chain, value) == expected
        assert run(f"let v = . $v{chain}", value) == expected
        assert run(f"[.][0]{chain}", value) == expected

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_null_comparisons_equal_json_equal(self, value):
        equal = json_equal(value, None)
        # [null][0] is null but no literal, so it compiles to json_equal
        for source in (". == null", "null == .", ". == [null][0]"):
            assert run(source, value) is equal
        for source in (". != null", "null != .", "[null][0] != ."):
            assert run(source, value) is not equal

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=12) | json_values, st.sampled_from(["^sdrn:[^:]+:user:", "a", "^$", "[0-9]+", "x|y"]))
    def test_literal_pattern_equals_computed(self, value, pattern):
        literal = json.dumps(pattern)
        assert outcome(f"test(., {literal})", value) == outcome(f'test(., "" + {literal})', value)

    @settings(max_examples=150, deadline=None)
    @given(stamps | st.text(max_size=25) | json_values, st.sampled_from(["", ", null", ", -1"]))
    def test_literal_time_format_equals_computed(self, value, fallback):
        fmt = "\"yyyy-MM-dd'T'HH:mm:ssX\""
        assert outcome(f"parse-time(., {fmt}{fallback})", value) == outcome(
            f'parse-time(., "" + {fmt}{fallback})', value
        )
