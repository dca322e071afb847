import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semschema import dqt, jsonmodel, validator
from semschema.dqt import (
    UNKNOWN_TAG,
    BadLine,
    CheckDef,
    DqtError,
    NdjsonSink,
    Sampler,
    StreamSummary,
    event_tags,
    events_from_ndjson,
    load_modules,
    parse_module,
    run_check,
    run_stream,
)
from semschema.generator import GenConfig, generate_valid


def module_of(**checks):
    raw = {
        name: {"filter": flt, "check": chk}
        for name, (flt, chk) in checks.items()
    }
    return parse_module("inline", raw)


def emitted(modules, events, **kwargs):
    """The metric lines run_stream writes through an NdjsonSink, parsed."""
    out = io.StringIO()
    run_stream(modules, events, Sampler(rate=1.0), sink=NdjsonSink(out), **kwargs)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestRecords:
    def test_values_compare_and_hash(self):
        check = module_of(positive=(".n", ".n > 0")).checks[0]
        copy = CheckDef(check.name, check.description, check.solution_url, check.filter, check.check)
        assert copy == check and hash(copy) == hash(check)
        assert check != module_of(positive=(".n", ".n > 0")).checks[0]  # programs compare by identity

    def test_records_are_immutable(self):
        module = module_of(c=(".n", ".n"))
        with pytest.raises(AttributeError):
            module.owner = "other"
        with pytest.raises(AttributeError):
            module.checks[0].name = "other"

    def test_run_check_shares_its_outcomes(self):
        # outcomes are the names counters are kept under; no record is built per check
        check = module_of(positive=(".n", ".n > 0")).checks[0]
        assert run_check(check, {"n": 3}) is run_check(check, {"n": 4}) == "valid"
        assert run_check(check, {}) is run_check(check, {"m": 1}) is None

    def test_summary_counters_are_sorted_metric_keys(self):
        events = [{"n": 1, "@type": "B"}, {"n": -1, "@type": "A"}, BadLine(3, "x")]
        summary = run_stream([module_of(positive=(".n", ".n > 0"))], events, Sampler(rate=1.0))
        keys = list(summary.counters)
        assert all(type(key) is tuple and len(key) == 2 for key in keys)
        assert keys == sorted(keys) and keys[0] == ("parse_error", ())
        metric, tags = keys[-1]
        assert metric == "positive.valid" and summary.count(metric, tags) == 1


class TestParseModule:
    def test_bundled_modules_load(self, checks_dir):
        modules = load_modules(checks_dir)
        assert [m.owner for m in modules] == ["insights", "marketplace"]
        by_name = {c.name: c for m in modules for c in m.checks}
        assert set(by_name) == {"user_id_format", "price_range", "published_parses"}
        assert by_name["user_id_format"].solution_url.startswith("https://")
        assert by_name["user_id_format"].description

    def test_empty_module_refused(self):
        with pytest.raises(DqtError, match="non-empty"):
            parse_module("x", {})

    def test_check_must_be_object(self):
        with pytest.raises(DqtError, match="must be an object"):
            parse_module("x", {"c": "not an object"})

    def test_unknown_field_refused(self):
        with pytest.raises(DqtError, match="unknown"):
            parse_module("x", {"c": {"filter": ".", "check": ".", "severity": 1}})

    def test_filter_and_check_required(self):
        with pytest.raises(DqtError, match="filter"):
            parse_module("x", {"c": {"check": "."}})
        with pytest.raises(DqtError, match="check"):
            parse_module("x", {"c": {"filter": "."}})

    def test_bad_expression_names_the_check(self):
        with pytest.raises(DqtError, match="'c'"):
            parse_module("x", {"c": {"filter": ".", "check": "if ("}})

    def test_load_modules_needs_directory_with_files(self, tmp_path):
        with pytest.raises(DqtError, match="not a directory"):
            load_modules(tmp_path / "missing")
        with pytest.raises(DqtError, match="no check modules"):
            load_modules(tmp_path)

    def test_schema_compliance_name_refused(self):
        # with a repository, its counters would merge with the schema validation counts
        with pytest.raises(DqtError, match="^x.json: check name 'schema_compliance'"):
            parse_module("x", {"schema_compliance": {"filter": ".", "check": "."}}, where="x.json")

    def test_check_name_defined_by_two_modules_refused(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"c": {"filter": ".n", "check": ".n > 0"}}))
        (tmp_path / "b.json").write_text(json.dumps({"c": {"filter": ".n", "check": ".n < 0"}}))
        with pytest.raises(DqtError) as caught:
            load_modules(tmp_path)
        assert str(caught.value) == f"{tmp_path / 'b.json'}: check 'c' is already defined in {tmp_path / 'a.json'}"

    @pytest.mark.parametrize("data", [b'{"c": {"filter": ".", "check": "\xff"}}', b"{"], ids=["not-utf8", "not-json"])
    def test_unreadable_module_names_its_file(self, tmp_path, data):
        file = tmp_path / "a.json"
        file.write_bytes(data)
        with pytest.raises(DqtError) as caught:
            load_modules(tmp_path)
        assert str(caught.value).startswith(f"{file}: ")


class TestRunCheck:
    def test_pass_and_fail(self):
        check = module_of(positive=(".n != null", ".n > 0")).checks[0]
        assert run_check(check, {"n": 3}) == "valid"
        assert run_check(check, {"n": -3}) == "invalid"

    def test_falsy_filter_gates(self):
        check = module_of(positive=(".n", ".n > 0")).checks[0]
        assert run_check(check, {"other": 1}) is None

    def test_zero_passes_the_gate(self):
        # 0 is truthy in the expression language; only null/false/""/[]/{} gate
        check = module_of(positive=(".n", ".n >= 0")).checks[0]
        assert run_check(check, {"n": 0}) == "valid"

    def test_filter_error(self):
        check = module_of(broken=("1 / .zero", ".")).checks[0]
        assert run_check(check, {"zero": 0}) == "filter_error"

    def test_check_error(self):
        check = module_of(broken=(".n", "1 / (.n - 1)")).checks[0]
        assert run_check(check, {"n": 1}) == "error"


class TestSampler:
    def test_rate_bounds(self):
        for rate in (0, -0.5, 1.01):
            with pytest.raises(DqtError, match="rate"):
                Sampler(rate=rate)
        with pytest.raises(DqtError, match="strategy"):
            Sampler(strategy="census")

    def test_rate_one_keeps_everything(self):
        events = [{"@id": f"e{i}"} for i in range(50)]
        for strategy in ("hash", "random"):
            sampler = Sampler(rate=1.0, strategy=strategy)
            assert all(sampler.keep(e) for e in events)

    def test_rate_one_keeps_the_highest_hash(self, monkeypatch):
        class TopDigest:
            def __init__(self, data):
                pass

            def digest(self):
                return b"\xff" * 32

        monkeypatch.setattr(hashlib, "sha256", TopDigest)
        assert Sampler(rate=1.0).keep({"@id": "any"})
        assert dqt._hash_fraction({"@id": "any"}, hashlib.sha256) < 1.0  # the highest hash would be kept too

    def test_hash_is_deterministic_and_seed_free(self):
        events = [{"@id": f"event-{i}"} for i in range(400)]
        first = [e["@id"] for e in events if Sampler(rate=0.3).keep(e)]
        second = [
            e["@id"]
            for e in events
            if Sampler(rate=0.3, seed=99).keep(e)
        ]
        assert first == second and 0 < len(first) < 400

    def test_hash_rates_nest(self):
        events = [{"@id": f"event-{i}"} for i in range(400)]
        narrow = {e["@id"] for e in events if Sampler(rate=0.1).keep(e)}
        wide = {e["@id"] for e in events if Sampler(rate=0.5).keep(e)}
        assert narrow <= wide

    def test_hash_keys_on_the_id(self):
        a = {"@id": "shared", "payload": 1}
        b = {"@id": "shared", "payload": 2}
        sampler = Sampler(rate=0.5)
        assert sampler.keep(a) == sampler.keep(b)

    def test_hash_is_the_top_53_bits_of_the_ids_sha256(self):
        # the kept set must not change between versions: runs at one rate compare
        ids = [f"event-{i}" for i in range(400)]
        top = {i: (int.from_bytes(hashlib.sha256(i.encode()).digest()[:8], "big") >> 11) / 2**53 for i in ids}
        sampler = Sampler(rate=0.3)
        assert [i for i in ids if sampler.keep({"@id": i})] == [i for i in ids if top[i] < 0.3]

    def test_random_strategy_respects_seed(self):
        events = [{"n": i} for i in range(200)]

        def kept(seed):
            sampler = Sampler(rate=0.5, strategy="random", seed=seed)
            return [i for i, e in enumerate(events) if sampler.keep(e)]

        assert kept(1) == kept(1)
        assert kept(1) != kept(2)


class TestTags:
    def test_full_event(self):
        event = {
            "@type": "View",
            "tracker": {"type": "android"},
            "provider": {"@id": "sdrn:mp:provider:1"},
        }
        assert event_tags(event) == (
            ("eventType", "View"),
            ("trackerType", "android"),
            ("tenant", "sdrn:mp:provider:1"),
        )

    def test_missing_and_empty_fall_back(self):
        assert event_tags({"@type": ""}) == (
            ("eventType", UNKNOWN_TAG),
            ("trackerType", UNKNOWN_TAG),
            ("tenant", UNKNOWN_TAG),
        )
        assert event_tags([1, 2])[0] == ("eventType", UNKNOWN_TAG)

    def test_non_string_values_fall_back(self):
        assert event_tags({"@type": 7})[0] == ("eventType", UNKNOWN_TAG)


class TestRunStream:
    def positive_module(self):
        return module_of(positive=(".n != null", ".n > 0"))

    def test_counts_partition(self):
        events = [{"n": 1}, {"n": 2}, {"n": -1}, {"skip": True}, BadLine(5, "bad")]
        summary = run_stream([self.positive_module()], events, Sampler(rate=1.0))
        assert summary.total == 5
        assert summary.sampled == 4  # every parseable event; BadLine never reaches checks
        assert summary.parse_errors == 1
        assert summary.count("positive.applicable") == 3
        assert summary.count("positive.valid") == 2
        assert summary.count("positive.invalid") == 1
        assert summary.count("positive.error") == 0

    def test_parse_error_metric_has_no_tags(self):
        summary = run_stream([self.positive_module()], [BadLine(1, "x")], Sampler(rate=1.0))
        assert summary.counters == {("parse_error", ()): 1}

    def test_filter_error_is_not_applicable(self):
        module = module_of(broken=("1 / .zero", "."))
        summary = run_stream([module], [{"zero": 0}], Sampler(rate=1.0))
        assert summary.count("broken.filter_error") == 1
        assert summary.count("broken.applicable") == 0

    def test_checks_of_one_name_count_together(self):
        # load_modules refuses two checks of one name; given them directly, run_stream sums them
        modules = [module_of(c=(".n", ".n > 0")), module_of(c=(".n", ".n > 5"))]
        summary = run_stream(modules, [{"n": 3}], Sampler(rate=1.0))
        assert (summary.count("c.applicable"), summary.count("c.valid"), summary.count("c.invalid")) == (2, 1, 1)

    def test_tags_attached_to_counters(self):
        events = [{"n": 1, "@type": "View", "tracker": {"type": "web"}}]
        summary = run_stream([self.positive_module()], events, Sampler(rate=1.0))
        tags = (("eventType", "View"), ("trackerType", "web"), ("tenant", UNKNOWN_TAG))
        assert summary.count("positive.valid", tags) == 1

    def test_conservation_per_check(self, registry, checks_dir):
        modules = load_modules(checks_dir)
        events = [
            generate_valid(registry, title, None, GenConfig(seed=seed))
            for title in ("View Item", "Send Message", "Post Item")
            for seed in range(15)
        ]
        summary = run_stream(modules, events, Sampler(rate=1.0), registry=registry)
        for name in ("user_id_format", "price_range", "published_parses", "schema_compliance"):
            applicable = summary.count(f"{name}.applicable")
            parts = sum(
                summary.count(f"{name}.{outcome}") for outcome in ("valid", "invalid", "error")
            )
            assert applicable == parts, name

    def test_schema_compliance_only_with_registry(self, registry):
        events = [generate_valid(registry, "View Item", 2, GenConfig(seed=1))]
        with_registry = run_stream([], iter(events), Sampler(rate=1.0), registry=registry)
        assert with_registry.count("schema_compliance.valid") == 1
        without = run_stream([], iter(events), Sampler(rate=1.0))
        assert without.count("schema_compliance.applicable") == 0

    def test_schema_compliance_flags_bad_events(self, registry):
        event = generate_valid(registry, "View Item", 2, GenConfig(seed=1))
        event["surprise"] = 1
        summary = run_stream([], [event], Sampler(rate=1.0), registry=registry)
        assert summary.count("schema_compliance.invalid") == 1

    def test_sampling_thins_the_stream(self):
        events = [{"@id": f"event-{i}", "n": 1} for i in range(400)]
        summary = run_stream(
            [self.positive_module()], events, Sampler(rate=0.1)
        )
        assert summary.total == 400
        assert 0 < summary.sampled < 400
        assert summary.count("positive.applicable") == summary.sampled

    def test_sink_lines_sorted_and_windowed(self):
        events = [{"n": 1, "@type": "B"}, {"n": 1, "@type": "A"}, {"bad": 1}]
        lines = emitted([self.positive_module()], events, window="2026-03-01T00:00:00Z")
        assert [line["metric"] for line in lines] == sorted(line["metric"] for line in lines)
        assert all(line["window"] == "2026-03-01T00:00:00Z" for line in lines)
        valid_tags = [line["tags"]["eventType"] for line in lines if line["metric"] == "positive.valid"]
        assert valid_tags == ["A", "B"]

    def test_default_window_is_a_timestamp(self):
        assert "T" in emitted([self.positive_module()], [{"n": 1}])[0]["window"]

    def test_ndjson_sink_output_parses(self):
        out = io.StringIO()
        run_stream(
            [self.positive_module()], [{"n": 1}], Sampler(rate=1.0),
            sink=NdjsonSink(out), window="w",
        )
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert {"metric", "tags", "count", "window"} == set(lines[0])

    # any code point, with lone surrogates and JSON escapes drawn often
    any_text = st.text(
        st.characters(codec=None, exclude_categories=()) | st.sampled_from('\ud800\udfff"\\\x00é'), max_size=8
    )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(any_text, min_size=1, max_size=3),
        st.lists(st.dictionaries(any_text, any_text, max_size=3), min_size=1, max_size=3),
        st.lists(any_text, min_size=1, max_size=2),
        # (metric, tags, window, count): indexes into the lists above, so parts repeat
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 1), st.integers(0, 2**63)),
                 min_size=1, max_size=12),
    )
    def test_ndjson_sink_line_equals_dumps(self, metrics, tag_dicts, windows, picks):
        # one sink for every line: it encodes each part once and reuses the text
        tag_tuples = [tuple(tags.items()) for tags in tag_dicts] + [()]  # () as parse_error has
        out = io.StringIO()
        sink = NdjsonSink(out)
        expected = []
        for m, t, w, count in picks:
            metric, tags, window = metrics[m % len(metrics)], tag_tuples[t % len(tag_tuples)], windows[w % len(windows)]
            sink.emit((metric, tags), count, window)
            line = {"metric": metric, "tags": dict(tags), "count": count, "window": window}
            expected.append(jsonmodel.dumps(line) + "\n")
        assert out.getvalue() == "".join(expected)


class TestSummary:
    def test_count_sums_across_tags(self):
        summary = StreamSummary(counters={
            ("m.valid", (("a", "1"),)): 2,
            ("m.valid", (("a", "2"),)): 3,
            ("other", ()): 9,
        })
        assert summary.count("m.valid") == 5
        assert summary.count("m.valid", (("a", "2"),)) == 3
        assert summary.count("missing") == 0

    def test_valid_percentages(self):
        summary = StreamSummary(counters={
            ("m.valid", ()): 3,
            ("m.invalid", ()): 1,
            ("m.applicable", ()): 4,
            ("quiet.applicable", ()): 0,
        })
        assert summary.valid_percentages() == {"m": 75.0}

    def test_valid_percentages_sum_tags_and_skip_other_metrics(self):
        summary = StreamSummary(counters={
            ("m.valid", (("a", "1"),)): 3,
            ("m.valid", (("a", "2"),)): 1,
            ("m.invalid", (("a", "1"),)): 3,
            ("m.error", ()): 1,
            ("m.filter_error", ()): 5,
            ("n.invalid", ()): 2,
            ("parse_error", ()): 7,
        })
        assert summary.valid_percentages() == {"m": 50.0, "n": 0.0}

    def test_parse_errors_read_the_parse_error_counter(self):
        assert StreamSummary(counters={("parse_error", ()): 3, ("m.valid", ()): 1}).parse_errors == 3
        assert StreamSummary().parse_errors == 0

    def test_events_per_second(self):
        summary = StreamSummary(total=100, elapsed_seconds=2.0)
        assert summary.events_per_second == 50.0
        assert StreamSummary(total=5).events_per_second == 0.0

    def test_to_json_shape(self):
        as_json = StreamSummary(total=1, elapsed_seconds=0.5).to_json()
        assert set(as_json) == {
            "total", "sampled", "parse_errors", "elapsed_seconds",
            "events_per_second", "valid_percentages",
        }


class TestNdjsonInput:
    def test_events_and_bad_lines(self):
        stream = io.StringIO('{"a": 1}\nnot json\n\n{"b": 2}\n')
        out = list(events_from_ndjson(stream))
        assert out[0] == {"a": 1}
        assert isinstance(out[1], BadLine) and out[1].lineno == 2
        assert out[-1] == {"b": 2}


class TestCountsProperty:
    """run_stream's counters against an oracle that calls run_check on each kept event."""

    scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["", "a", "abc", "x1"]))
    events = st.one_of(
        st.builds(BadLine, st.integers(1, 9), st.just("bad")),
        scalars,  # not an object
        st.lists(scalars, max_size=2),
        st.fixed_dictionaries({}, optional={
            "@id": st.sampled_from(["e1", "e2", "e3"]),
            "@type": st.sampled_from(["View", "", 7]),
            "n": scalars,  # a string or null where a number is expected, at times
            "s": scalars,
            "tracker": st.one_of(st.fixed_dictionaries({"type": st.sampled_from(["web", "ios"])}), scalars),
            "provider": st.fixed_dictionaries({}, optional={"@id": st.sampled_from(["t1", "t2"])}),
        }),
    )
    # runtime errors included: `.n > 0` on a string, `1 / .n` on 0, `size(.s)` on a number
    filters = st.sampled_from([".n", ".s", "true", ".n != null", "1 / .n", ".missing", "size(.s) > 1"])
    checks = st.sampled_from([".n > 0", ".s", 'test(.s, "^a")', "1 / .n", "size(.s) > 1", "number(.s) > 0"])

    drawn_modules = st.lists(st.lists(st.tuples(filters, checks), min_size=1, max_size=3), min_size=1, max_size=3)
    samplers = st.tuples(st.sampled_from([1.0, 0.5, 0.2]), st.sampled_from(["hash", "random"]), st.integers(0, 3))
    windows = st.sampled_from(["w", "2026-03-01T00:00:00Z", "\ud800", 'é"\\'])

    @staticmethod
    def modules_of(drawn_modules):
        names = iter(range(100))
        return [
            parse_module(f"team{i}", {f"c{next(names)}": {"filter": f, "check": c} for f, c in pairs})
            for i, pairs in enumerate(drawn_modules)
        ]

    @staticmethod
    def oracle(modules, events, sampler, registry=None) -> dict:
        """One dict bump per counter a kept event adds, with run_check and validate called directly."""
        expected: dict[tuple, int] = {}

        def bump(metric, tags):
            expected[metric, tags] = expected.get((metric, tags), 0) + 1

        for event in events:
            if isinstance(event, BadLine):
                bump("parse_error", ())
            elif sampler.keep(event):
                for check in (check for module in modules for check in module.checks):
                    outcome = run_check(check, event)
                    if outcome in ("valid", "invalid", "error"):
                        bump(f"{check.name}.applicable", event_tags(event))
                    if outcome is not None:
                        bump(f"{check.name}.{outcome}", event_tags(event))
                if registry is not None:
                    bump("schema_compliance.applicable", event_tags(event))
                    verdict = "invalid" if validator.validate(registry, event) else "valid"
                    bump(f"schema_compliance.{verdict}", event_tags(event))
        return expected

    def run_and_compare(self, modules, events, rate, strategy, seed, window, registry=None):
        out = io.StringIO()
        summary = run_stream(modules, events, Sampler(rate, strategy, seed), sink=NdjsonSink(out),
                             registry=registry, window=window)
        # a Sampler carries its RNG state, so the oracle gets a fresh one
        expected = self.oracle(modules, events, Sampler(rate, strategy, seed), registry)
        assert summary.counters == expected
        assert list(summary.counters) == sorted(expected)

        for (metric, tags), count in summary.counters.items():
            name, _, outcome = metric.rpartition(".")
            if outcome == "applicable":
                parts = (summary.count(f"{name}.{part}", tags) for part in ("valid", "invalid", "error"))
                assert count == sum(parts), (metric, tags)
            elif outcome in ("valid", "invalid", "error"):
                assert summary.count(f"{name}.applicable", tags) > 0

        lines = [
            jsonmodel.dumps({"metric": metric, "tags": dict(tags), "count": count, "window": window}) + "\n"
            for (metric, tags), count in summary.counters.items()
        ]
        assert out.getvalue() == "".join(lines)

    @settings(max_examples=60, deadline=None)
    @given(drawn_modules, st.lists(events, max_size=25), samplers, windows)
    def test_counters_equal_the_oracle(self, drawn_modules, events, sampler, window):
        self.run_and_compare(self.modules_of(drawn_modules), events, *sampler, window)

    # (title, seed, compliant): a generated event, given an undeclared field when not compliant
    generated = st.tuples(st.sampled_from(["View Item", "Send Message", "Post Item"]), st.integers(0, 2), st.booleans())

    @settings(max_examples=30, deadline=None)
    @given(drawn_modules, st.lists(events | generated, max_size=15), samplers, windows)
    def test_schema_compliance_equals_the_oracle(self, registry, drawn_modules, events, sampler, window):
        def event_of(drawn):
            if not isinstance(drawn, tuple):
                return drawn
            title, seed, compliant = drawn
            event = generate_valid(registry, title, None, GenConfig(seed=seed))
            return event if compliant else {**event, "surprise": 1}

        events = [event_of(drawn) for drawn in events]
        self.run_and_compare(self.modules_of(drawn_modules), events, *sampler, window, registry=registry)
