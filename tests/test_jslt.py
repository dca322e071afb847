import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semschema import jslt
from semschema.errors import JsltCompileError, JsltRuntimeError
from semschema.jsonmodel import json_equal

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=10),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


def run(source: str, value=None):
    return jslt.compile(source).evaluate(value)


@pytest.fixture(autouse=True, scope="module")
def recursion_room():
    # the first jslt.compile raises the recursion limit; hypothesis warns (an
    # error here) when that happens inside a @given test, as when one runs alone
    jslt.compile("null")


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
        source = "[" * 600 + "1" + "]" * 600
        with pytest.raises(JsltCompileError):
            jslt.compile(source)

    def test_error_position_reported(self):
        with pytest.raises(JsltCompileError) as err:
            jslt.compile("1 +\n  bogus")
        assert err.value.line == 2


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
            ("def f(n)\n  f($n + 1)\nf(0)", None, "call depth exceeds 500", 2, 3),
        ],
    )
    def test_message_and_position(self, source, value, fragment, line, col):
        with pytest.raises(JsltRuntimeError) as err:
            run(source, value)
        assert fragment in str(err.value)
        assert (err.value.line, err.value.col) == (line, col)


class TestSharedProgram:
    def test_threads_keep_separate_call_depths(self):
        program = jslt.compile(
            "def fact(n) if ($n < 2) 1 else $n * fact($n - 1)\n"
            "def loop(n) loop($n + 1)\n"
            "if (.runaway) loop(0) else fact(.n)"
        )
        inputs = {"a": {"n": 400}, "b": {"n": 400}, "runaway": {"runaway": True}}
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
        assert results["a"] == results["b"] == [math.factorial(400)] * 50
        assert errors == {"a": [], "b": [], "runaway": ["call depth exceeds 500 at 2:13"] * 50}


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
