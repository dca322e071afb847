import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semschema import pattern as pattern_module
from semschema.errors import PatternError
from semschema.pattern import (
    Alt, CharClass, CompiledPattern, Dot, Lit, Repeat, Seq, compile_pattern, draw_chars, generate_from_pattern,
)

DIALECT_SAMPLES = [
    "abc",
    "^abc$",
    "a|bc|d",
    "[abc]+",
    "[^:/]+",
    "[a-f0-9]{8}",
    "colou?r",
    "(ab)*c",
    "x{2,4}",
    "x{3}",
    "x{2,}",
    r"\d+\.\d+",
    r"[\w-]+",
    r"\s*",
    r"^sdrn:[^:]+:user:[0-9]+$",
    r"^https?://",
    r"^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})$",
    r"a\.b\*c\[d\]",
    "(a|b)(c|d)e?",
    "(?:ab)+c",
]


class TestMatching:
    def test_search_is_substring_without_anchors(self):
        pattern = compile_pattern("bc")
        assert pattern.search("abcd")
        assert not pattern.search("b c")

    def test_anchors_pin_the_ends(self):
        assert compile_pattern("^ab$").search("ab")
        assert not compile_pattern("^ab$").search("xab")
        assert not compile_pattern("^ab$").search("abx")
        assert compile_pattern("^ab").search("abx")
        assert compile_pattern("ab$").search("xab")

    @pytest.mark.parametrize("source", DIALECT_SAMPLES)
    def test_agrees_with_stdlib_re(self, source):
        pattern = compile_pattern(source)
        probes = ["", "a", "ab", "abc", "xabcx", "sdrn:mp:user:12", "12.5", "https://x",
                  "0af9", "xxx", "xx", "color", "colour", "2020-01-02T03:04:05Z"]
        for probe in probes:
            assert pattern.search(probe) == bool(re.search(source, probe)), (source, probe)

    @pytest.mark.parametrize(
        "source",
        [r"(a)\1", "(?=a)", "(?!a)", "(?<=a)b", "(?P<n>a)", "(?i)a", "a^b", "a$b",
         "a(", "a)", "[a", "a{2,1}", "*a", "a**", r"\p{L}"],
    )
    def test_unsupported_constructs_rejected(self, source):
        with pytest.raises(PatternError):
            compile_pattern(source)

    @pytest.mark.parametrize(
        "source, message",
        [
            (r"\q", r"unsupported escape \q in pattern '\\q' at offset 2"),
            (r"[\q]", r"unsupported escape \q in class in pattern '[\\q]' at offset 3"),
            ("a\\", r"dangling backslash in pattern 'a\\' at offset 2"),
            ("[\\", r"dangling backslash in class in pattern '[\\' at offset 2"),
            (r"\1", r"unsupported construct: back-reference in pattern '\\1' at offset 2"),
            (r"[\1]", r"unsupported construct: back-reference in pattern '[\\1]' at offset 3"),
            (r"[\D]", r"unsupported escape \D in class in pattern '[\\D]' at offset 3"),
        ],
    )
    def test_escape_errors_name_the_escape_and_where_it_stands(self, source, message):
        with pytest.raises(PatternError) as raised:
            compile_pattern(source)
        assert str(raised.value) == message

    @pytest.mark.parametrize("length", [64, 65, 16_001])
    def test_an_error_quotes_at_most_64_characters_of_the_pattern(self, length):
        source = "a" * (length - 2) + "\\q"
        with pytest.raises(PatternError) as raised:
            compile_pattern(source)
        quoted = repr(source) if length <= 64 else f"{source[:64]!r}..."
        assert str(raised.value) == f"unsupported escape \\q in pattern {quoted} at offset {length}"


class TestGeneration:
    @pytest.mark.parametrize("source", DIALECT_SAMPLES)
    def test_generated_strings_match(self, source):
        pattern = compile_pattern(source)
        rng = random.Random(99)
        for _ in range(50):
            assert pattern.search(pattern.generate(rng)), source

    def test_deterministic_per_seed(self):
        source = r"[a-z]{1,8}-[0-9]+"
        first = [generate_from_pattern(source, seed) for seed in range(10)]
        second = [generate_from_pattern(source, seed) for seed in range(10)]
        assert first == second
        assert len(set(first)) > 1

    def test_unbounded_quantifiers_stay_short(self):
        lengths = {len(generate_from_pattern("^a*$", seed)) for seed in range(200)}
        assert lengths == {0, 1, 2, 3}
        lengths = {len(generate_from_pattern("^a+$", seed)) for seed in range(200)}
        assert lengths == {1, 2, 3, 4}
        lengths = {len(generate_from_pattern("^a{2,}$", seed)) for seed in range(200)}
        assert lengths == {2, 3, 4, 5}

    def test_bounded_quantifiers_exact(self):
        assert len(generate_from_pattern("^x{3}$", 5)) == 3
        lengths = {len(generate_from_pattern("^x{2,4}$", seed)) for seed in range(100)}
        assert lengths == {2, 3, 4}

    def test_negated_class_generation(self):
        pattern = compile_pattern("^[^:]+$")
        for seed in range(50):
            value = generate_from_pattern("^[^:]+$", seed)
            assert ":" not in value and value
            assert pattern.search(value)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_uuid_like_pattern_generates_valid(self, seed):
        source = "^[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}$"
        value = generate_from_pattern(source, seed)
        assert re.fullmatch(source[1:-1], value)


class TestGroupDepth:
    """Group nesting is bounded, so compiling and drawing never run out of frames."""

    BOUND = pattern_module.MAX_GROUP_DEPTH

    @pytest.mark.parametrize("opening", ["(", "(?:"])
    def test_the_bound_compiles_matches_and_generates(self, opening):
        pattern = compile_pattern("^" + opening * self.BOUND + "ab|c" + ")" * self.BOUND + "$")
        assert pattern.search("ab") and not pattern.search("b")
        assert pattern.generate(random.Random(0)) in ("ab", "c")

    @pytest.mark.parametrize("extra", [1, 500])
    def test_one_level_past_it_is_refused_at_its_group(self, extra):
        source = "x(" + "(" * (self.BOUND - 1) + "(?:" * extra + "a" + ")" * (self.BOUND + extra)
        with pytest.raises(PatternError) as raised:
            compile_pattern(source)
        quoted = f"{source[:64]!r}..."  # a pattern longer than 64 characters is quoted in part; the offset locates it
        assert str(raised.value) == f"groups nested deeper than 64 in pattern {quoted} at offset {self.BOUND + 1}"

    def test_sibling_groups_do_not_add_up(self):
        assert compile_pattern("(a)" * 200).search("a" * 200)

    def test_a_repeat_count_the_matcher_refuses_is_a_pattern_error(self):
        with pytest.raises(PatternError, match="pattern rejected by matcher: the repetition number is too large"):
            compile_pattern("a{4294967296}")


class TestEmptyPool:
    """A class that excludes every printable character compiles and matches; only a draw fails."""

    def test_compiles_and_searches(self):
        pattern = compile_pattern("[^ -~]")
        assert pattern.search("\u00e9")
        assert not pattern.search("abc")

    def test_a_draw_names_the_source(self):
        with pytest.raises(PatternError, match=re.escape("class excludes every printable character in '[^ -~]'")):
            compile_pattern("[^ -~]").generate(random.Random(0))

    def test_an_unreached_pool_never_raises(self):
        assert [generate_from_pattern("x[^ -~]{0}", seed) for seed in range(5)] == ["x"] * 5


# -- oracle: the AST walk generation used before patterns were compiled ----------


def oracle_generate(node, rng: random.Random, source: str) -> str:
    """A string for `node`, drawing from `rng` in the order the compiled closures must."""
    if isinstance(node, Lit):
        return node.char
    if isinstance(node, Dot):
        return rng.choice(pattern_module._PRINTABLE)
    if isinstance(node, CharClass):
        if node.negated:
            pool = [c for c in pattern_module._PRINTABLE if c not in node.chars]
        else:
            pool = sorted(node.chars)
        if not pool:
            raise PatternError(f"class excludes every printable character in {source!r}")
        return rng.choice(pool)
    if isinstance(node, Seq):
        return "".join(oracle_generate(item, rng, source) for item in node.items)
    if isinstance(node, Alt):
        return oracle_generate(node.branches[rng.randrange(len(node.branches))], rng, source)
    if isinstance(node, Repeat):
        high = node.max if node.max is not None else node.min + CompiledPattern.UNBOUNDED_EXTRA
        count = rng.randint(node.min, high)
        return "".join(oracle_generate(node.item, rng, source) for _ in range(count))
    raise AssertionError(f"unhandled node {node!r}")


_LITERALS = "ab9 -:/.*+?()[]{}|^$"
_CLASS_MEMBERS = "".join(chr(c) for c in range(32, 127))


def render(node) -> str:
    """Dialect source for a tree; groups wrap whatever a quantifier or sequence needs wrapped."""
    if isinstance(node, Lit):
        return "\\" + node.char if node.char in ".*+?()[]{}|^$\\" else node.char
    if isinstance(node, Dot):
        return "."
    if isinstance(node, CharClass):
        body = "".join("\\" + c if c in "\\]^-[" else c for c in sorted(node.chars))
        return f"[{'^' if node.negated else ''}{body}]"
    if isinstance(node, Seq):
        return "".join(f"(?:{render(item)})" if isinstance(item, Alt) else render(item) for item in node.items)
    if isinstance(node, Alt):
        return "|".join(render(branch) for branch in node.branches)
    atom = render(node.item)
    if not isinstance(node.item, (Lit, Dot, CharClass)):
        atom = f"(?:{atom})"
    bounds = {(0, None): "*", (1, None): "+", (0, 1): "?"}.get((node.min, node.max))
    if bounds is None:
        bounds = f"{{{node.min}}}" if node.min == node.max else f"{{{node.min},{'' if node.max is None else node.max}}}"
    return atom + bounds


@st.composite
def repeats(draw, items):
    low = draw(st.integers(0, 3))
    high = draw(st.one_of(st.none(), st.integers(low, low + 3)))
    return Repeat(draw(items), low, high)


def trees():
    leaves = st.one_of(
        st.sampled_from(_LITERALS).map(Lit),
        st.just(Dot()),
        st.builds(CharClass, st.frozensets(st.sampled_from(_CLASS_MEMBERS), min_size=1, max_size=12), st.booleans()),
        st.sampled_from([CharClass(pattern_module._CLASS_D), CharClass(pattern_module._CLASS_W, True),
                         CharClass(frozenset(_CLASS_MEMBERS))]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=4).map(lambda items: Seq(tuple(items))),
            st.lists(inner, min_size=2, max_size=3).map(lambda items: Alt(tuple(items))),
            repeats(inner),
        ),
        max_leaves=12,
    )


@settings(max_examples=60, deadline=None)
@given(tree=trees(), anchored=st.booleans(), seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
def test_compiled_generation_matches_the_oracle(tree, anchored, seeds):
    source = f"^{render(tree)}$" if anchored else render(tree)
    compiled = compile_pattern(source)
    root = pattern_module._Parser(source).parse()
    for seed in seeds:
        ours, theirs = random.Random(seed), random.Random(seed)
        value = compiled.generate(ours)
        assert value == oracle_generate(root, theirs, source), source
        assert ours.getstate() == theirs.getstate(), source
        assert compiled.search(value), (source, value)


@pytest.mark.parametrize("size", range(1, len(pattern_module._PRINTABLE) + 1))
def test_draw_chars_picks_as_random_choice(size):
    pool = pattern_module._PRINTABLE[:size]
    for seed in range(3):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert draw_chars(ours, pool, 40) == "".join(theirs.choice(pool) for _ in range(40))
        assert ours.getstate() == theirs.getstate()
