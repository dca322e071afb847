import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checker_oracle import bodies, registries

from semschema import validator
from semschema.errors import RegistryError, UnknownSchemaError
from semschema.generator import GenConfig, generate_valid
from semschema.jsonmodel import JsonPath
from semschema.registry import Registry, make_id, parse_id
from semschema.validator import (
    BAD_SCHEMA_DECLARATION,
    CUSTOM_NONSTRING,
    ENUM_VIOLATION,
    MISSING_REQUIRED,
    PATTERN_FAILED,
    UNKNOWN_PROPERTY,
    WRONG_TYPE,
    Mismatch,
    ValidationTarget,
    validate,
)


def view_item(version=2, **overrides):
    event = {
        "schema": make_id("event", "View Item", version),
        "@id": "93b15a46-5a87-4cfe-9a86-efe98d63ace6",
        "@type": "View",
        "actor": {"@type": "Person", "spt:userId": "sdrn:mp:user:123"},
        "object": {
            "@id": "ad-99",
            "@type": "ClassifiedAd",
            "vertical": "cars",
            "price": {"amount": 12500, "currency": "NOK"},
        },
        "published": "2026-01-02T03:04:05Z",
    }
    event.update(overrides)
    return event


def kinds_at(mismatches, kind):
    return [str(m.path) for m in mismatches if m.kind == kind]


class TestSelfDeclared:
    def test_valid_event(self, registry):
        assert validate(registry, view_item()) == []

    def test_missing_schema_property(self, registry):
        event = view_item()
        del event["schema"]
        mismatches = validate(registry, event)
        assert [m.kind for m in mismatches] == [BAD_SCHEMA_DECLARATION]
        assert str(mismatches[0].path) == ".schema"

    def test_non_string_schema(self, registry):
        mismatches = validate(registry, view_item(schema=42))
        assert [m.kind for m in mismatches] == [BAD_SCHEMA_DECLARATION]

    def test_unparseable_schema_id(self, registry):
        mismatches = validate(registry, view_item(schema="http://elsewhere/x"))
        assert [m.kind for m in mismatches] == [BAD_SCHEMA_DECLARATION]

    def test_unknown_title_and_version(self, registry):
        bad_title = make_id("event", "No Such", 0)
        assert [m.kind for m in validate(registry, view_item(schema=bad_title))] == [
            BAD_SCHEMA_DECLARATION
        ]
        beyond = make_id("event", "View Item", 99)
        assert [m.kind for m in validate(registry, view_item(schema=beyond))] == [
            BAD_SCHEMA_DECLARATION
        ]

    def test_non_object_event(self, registry):
        mismatches = validate(registry, [1, 2])
        assert [m.kind for m in mismatches] == [WRONG_TYPE]
        assert mismatches[0].path.is_root()


class TestMismatchKinds:
    def test_missing_required(self, registry):
        event = view_item()
        del event["published"]
        del event["actor"]
        mismatches = validate(registry, event)
        # required-list order: actor (envelope) before published, object last
        assert kinds_at(mismatches, MISSING_REQUIRED) == [".actor", ".published"]

    def test_wrong_type(self, registry):
        mismatches = validate(registry, view_item(intent=5))
        assert kinds_at(mismatches, WRONG_TYPE) == [".intent"]
        mismatches = validate(registry, view_item(actor="someone"))
        assert kinds_at(mismatches, WRONG_TYPE) == [".actor"]

    def test_bool_is_not_a_number(self, registry):
        event = view_item()
        event["object"]["price"]["amount"] = True
        assert kinds_at(validate(registry, event), WRONG_TYPE) == [".object.price.amount"]

    def test_pattern_failed(self, registry):
        event = view_item()
        event["actor"]["spt:userId"] = "12345"
        mismatches = validate(registry, event)
        assert kinds_at(mismatches, PATTERN_FAILED) == ['.actor."spt:userId"']
        assert "sdrn" in mismatches[0].expected

    def test_pattern_on_published_pinned_at_declared_envelope(self, registry):
        # View Item pins the envelope that has no fractional seconds
        event = view_item(published="2026-01-02T03:04:05.250Z")
        assert kinds_at(validate(registry, event), PATTERN_FAILED) == [".published"]

    def test_enum_violation(self, registry):
        event = view_item()
        event["actor"]["@type"] = "Robot"
        mismatches = validate(registry, event)
        assert kinds_at(mismatches, ENUM_VIOLATION) == ['.actor."@type"']
        assert "Person" in mismatches[0].expected

    def test_non_string_against_enum_is_wrong_type(self, registry):
        event = view_item()
        event["actor"]["@type"] = 7
        assert kinds_at(validate(registry, event), WRONG_TYPE) == ['.actor."@type"']

    def test_unknown_property(self, registry):
        mismatches = validate(registry, view_item(extra=1))
        assert kinds_at(mismatches, UNKNOWN_PROPERTY) == [".extra"]
        event = view_item()
        event["object"]["bonus"] = "x"
        assert kinds_at(validate(registry, event), UNKNOWN_PROPERTY) == [".object.bonus"]

    def test_custom_string_leaves_ok(self, registry):
        event = view_item(custom={"experiment": "b", "nested": {"variant": "3"}})
        assert validate(registry, event) == []

    def test_custom_nonstring_leaf(self, registry):
        event = view_item(custom={"experiment": 42})
        mismatches = validate(registry, event)
        assert kinds_at(mismatches, CUSTOM_NONSTRING) == [".custom.experiment"]

    def test_custom_nonobject(self, registry):
        mismatches = validate(registry, view_item(custom="flat"))
        assert kinds_at(mismatches, CUSTOM_NONSTRING) == [".custom"]

    def test_custom_only_at_event_root(self, registry):
        event = view_item()
        event["object"]["custom"] = {"x": "y"}
        assert kinds_at(validate(registry, event), UNKNOWN_PROPERTY) == [".object.custom"]


class TestArraysAndNesting:
    def setup_registry(self):
        registry = Registry()
        registry.register_version(
            "List Holder",
            {
                "properties": {
                    "tags": {"type": "array", "items": {"type": "string", "pattern": "^t"}},
                    "rows": {
                        "type": "array",
                        "items": {"type": "object", "properties": {"n": {"type": "number"}}},
                    },
                },
            },
            kind="event",
        )
        return registry

    def test_elements_checked_with_index_paths(self):
        registry = self.setup_registry()
        event = {"tags": ["tag", "nope", "toast"], "rows": [{"n": 1}, {"n": "x"}]}
        target = ValidationTarget.explicit("List Holder", 0)
        mismatches = validate(registry, event, target)
        assert kinds_at(mismatches, PATTERN_FAILED) == [".tags[1]"]
        assert kinds_at(mismatches, WRONG_TYPE) == [".rows[1].n"]

    def test_empty_array_is_valid(self):
        registry = self.setup_registry()
        target = ValidationTarget.explicit("List Holder", 0)
        assert validate(registry, {"tags": [], "rows": []}, target) == []

    def test_non_array_for_array(self):
        registry = self.setup_registry()
        target = ValidationTarget.explicit("List Holder", 0)
        assert kinds_at(validate(registry, {"tags": "x"}, target), WRONG_TYPE) == [".tags"]


class TestTargets:
    def test_explicit_overrides_declaration(self, registry):
        # event declares v2 but is checked against v0: referrer is unknown there
        event = view_item(referrer="search")
        assert validate(registry, event) == []
        target = ValidationTarget.explicit("View Item", 0)
        mismatches = validate(registry, event, target)
        assert kinds_at(mismatches, UNKNOWN_PROPERTY) == [".referrer"]

    def test_declaration_mismatch_alone_is_not_reported(self, registry):
        event = view_item(version=0)  # declares v0, fully valid at v2 too
        target = ValidationTarget.explicit("View Item", 2)
        assert validate(registry, event, target) == []

    def test_latest_mode(self, registry):
        event = view_item(version=0)
        assert validate(registry, event, ValidationTarget.latest("View Item")) == []

    def test_explicit_unknown_schema_is_a_hard_error(self, registry):
        with pytest.raises(UnknownSchemaError):
            validate(registry, view_item(), ValidationTarget.explicit("No Such", 0))
        with pytest.raises(UnknownSchemaError):
            validate(registry, view_item(), ValidationTarget.latest("No Such"))

    def test_ref_always_resolves_to_latest(self, registry):
        # Even at View Item v0, the object must look like the latest ClassifiedAd
        event = view_item(version=0)
        event["object"] = {"category": "cars", "price": {"amount": 1, "currency": "NOK"}}
        mismatches = validate(registry, event)
        assert kinds_at(mismatches, UNKNOWN_PROPERTY) == [".object.category"]


class TestReporting:
    def test_exhaustive_and_deterministic(self, registry):
        event = view_item(extra=1)
        del event["published"]
        event["actor"]["@type"] = "Robot"
        first = validate(registry, event)
        second = validate(registry, event)
        assert [(str(m.path), m.kind) for m in first] == [(str(m.path), m.kind) for m in second]
        assert len(first) == 3

    def test_missing_required_reported_before_walk(self, registry):
        event = view_item(extra=1)
        del event["@id"]
        kinds = [m.kind for m in validate(registry, event)]
        assert kinds.index(MISSING_REQUIRED) < kinds.index(UNKNOWN_PROPERTY)

    def test_event_not_mutated(self, registry):
        event = view_item(custom={"a": 1})
        snapshot = copy.deepcopy(event)
        validate(registry, event)
        assert event == snapshot

    def test_mismatch_rendering(self, registry):
        event = view_item()
        event["actor"]["spt:userId"] = "12345"
        mismatch = validate(registry, event)[0]
        as_json = mismatch.to_json()
        assert as_json["path"] == '.actor."spt:userId"'
        assert as_json["kind"] == PATTERN_FAILED
        assert "12345" in as_json["found"]
        assert "pattern" in str(mismatch) or "matching" in str(mismatch)

    def test_found_excerpt_truncated(self, registry):
        mismatches = validate(registry, view_item(intent=["x" * 500]))
        as_json = mismatches[0].to_json()
        assert len(as_json["found"]) <= 121

    def test_monotonicity_of_required(self):
        registry = Registry()
        registry.register_version(
            "Thing",
            {"properties": {"a": {"type": "string"}, "b": {"type": "string"}},
             "required": ["a", "b"]},
            kind="event",
        )
        registry.register_version(
            "Thing",
            {"properties": {"a": {"type": "string"}, "b": {"type": "string"}},
             "required": ["b"]},
        )
        before = validate(registry, {}, ValidationTarget.explicit("Thing", 0))
        after = validate(registry, {}, ValidationTarget.explicit("Thing", 1))
        assert kinds_at(before, MISSING_REQUIRED) == [".a", ".b"]
        assert kinds_at(after, MISSING_REQUIRED) == [".b"]


class TestCompiledCheckers:
    def test_one_checker_per_schema_version(self, registry):
        resolved = registry.resolve("View Item")
        validate(registry, view_item())
        assert validator._checker(registry, resolved) is validator._checker(registry, resolved)

    def scratch(self):
        registry = Registry()
        registry.register_version("Thing", {"properties": {"a": {"type": "string"}}}, kind="object")
        registry.register_version("Ev", {"properties": {"t": {"$ref": "Thing"}}}, kind="event")
        return registry

    def test_rebuilt_when_a_ref_target_gets_a_new_latest(self):
        registry = self.scratch()
        event, target = {"t": {"b": 1}}, ValidationTarget.explicit("Ev", 0)
        assert kinds_at(validate(registry, event, target), UNKNOWN_PROPERTY) == [".t.b"]
        registry.register_version("Thing", {"properties": {"b": {"type": "number"}}})
        assert validate(registry, event, target) == []
        registry.tombstone("Thing")
        assert kinds_at(validate(registry, event, target), UNKNOWN_PROPERTY) == [".t.b"]

    def test_rolled_back_registration_keeps_the_previous_latest(self):
        registry = self.scratch()
        event, target = {"t": {"b": 1}}, ValidationTarget.explicit("Ev", 0)
        with pytest.raises(RegistryError, match="required"):
            registry.register_version("Thing", {"properties": {"b": {"type": "number"}}, "required": ["ghost"]})
        assert kinds_at(validate(registry, event, target), UNKNOWN_PROPERTY) == [".t.b"]

    def test_impact_test_clone_leaves_the_original_checker(self, registry):
        from semschema.evolution import ConsumerSample, change_impact_test

        resolved = registry.resolve("Provider")
        checker = validator._checker(registry, resolved)
        legacy = {"@id": "sdrn:x:provider:abc", "@type": "Organization"}
        before = validate(registry, legacy, ValidationTarget.latest("Provider"))
        tightened = {
            "allOf": make_id("object", "Provider", 2),
            "properties": {"@id": {"type": "string", "pattern": "^sdrn:mp:provider:[0-9]+$"}},
            "required": ["@id"],
        }
        report = change_impact_test(
            registry, "Provider", tightened, [ConsumerSample("legacy", "Provider", (('."@id"', legacy["@id"]),))]
        )
        assert report.blocked
        assert validator._checker(registry, registry.resolve("Provider")) is checker
        assert validate(registry, legacy, ValidationTarget.latest("Provider")) == before


# -- self mode: the declared id leads straight to its checker ---------------


def resolved_path(registry, event):
    """Self mode with no lookup by declared id: parse_id, resolve, then the compiled checker."""
    declared = event.get("schema")
    if not isinstance(declared, str):
        return [Mismatch(JsonPath(("schema",)), BAD_SCHEMA_DECLARATION, "a schema id string", declared)]
    try:
        _, title, version = parse_id(declared)
        resolved = registry.resolve(title, version)
    except RegistryError:
        return [Mismatch(JsonPath(("schema",)), BAD_SCHEMA_DECLARATION, "the id of a registered schema", declared)]
    out = []
    validator._checker(registry, resolved)(event, (), out)
    return out


def declarations(registry):
    """The canonical id of every stored version, forms that only parse_id
    reads (version 007, the other kind's segment), and unusable ones."""
    out = [None, 3, [], ["x"], {}, {"a": 1}, make_id("event", "Nope", 0)]
    for title in registry.titles():
        kind = registry.kind_of(title)
        other = "object" if kind == "event" else "event"
        for version in registry.versions(title):
            canonical = make_id(kind, title, version)
            out += [canonical, canonical.rpartition("/")[0] + f"/00{version}", make_id(other, title, version)]
        out.append(make_id(kind, title, registry.latest_version(title) + 1))
    return out


def assert_dispatch_matches(registry, events):
    for event in events:
        for declared in declarations(registry):
            declaring = {**event, "schema": declared}
            # the first call may compile the checker; the second finds it by the declared id
            first = [m.to_json() for m in validate(registry, declaring)]
            expected = [m.to_json() for m in resolved_path(registry, declaring)]
            assert first == expected
            assert [m.to_json() for m in validate(registry, declaring)] == expected


class TestDispatchByDeclaredId:
    OBJECT = {"@id": "ad-1", "@type": "ClassifiedAd", "vertical": "cars"}

    def test_every_declaration_against_the_fixture_repo(self, registry):
        assert_dispatch_matches(registry.clone(), [view_item(), self.OBJECT, {}, {"custom": {"a": 1}}])

    def test_unhashable_declarations_are_bad_declarations(self, registry):
        for declared in ([], {}, [make_id("event", "View Item", 2)]):
            mismatches = validate(registry, view_item(schema=declared))
            assert [(str(m.path), m.kind) for m in mismatches] == [(".schema", BAD_SCHEMA_DECLARATION)]

    def test_next_call_sees_a_registration_and_a_tombstone(self, registry):
        registry = registry.clone()
        event = view_item()
        assert validate(registry, event) == []
        body = registry.get("ClassifiedAd").body()
        del body["id"], body["title"]
        body["properties"]["extra"] = {"type": "number"}
        body["required"] = body.get("required", []) + ["extra"]
        registry.register_version("ClassifiedAd", body)
        after = validate(registry, event)
        assert kinds_at(after, MISSING_REQUIRED) == [".object.extra"]
        assert after == resolved_path(registry, event)
        registry.tombstone("ClassifiedAd")
        retired = validate(registry, event)
        assert kinds_at(retired, UNKNOWN_PROPERTY) == [str(JsonPath(("object", key))) for key in event["object"]]
        assert retired == resolved_path(registry, event)


@settings(max_examples=40, deadline=None)
@given(registry=registries(), seed=st.integers(0, 2**32), data=st.data())
def test_dispatch_by_declared_id_matches_the_resolved_path(registry, seed, data):
    """On random registries, before and after one registration or tombstone."""
    events = [{}, {"custom": {"a": 1}}]
    for title in registry.titles():
        for version in registry.versions(title):
            if not registry.get(title, version).is_tombstone():  # an empty body reads as one
                events.append(generate_valid(registry, title, version, GenConfig(seed=seed)))
    assert_dispatch_matches(registry, events)
    title = data.draw(st.sampled_from(registry.titles()))
    refs = [t for t in registry.titles() if t != title and registry.kind_of(t) == "object"]
    try:
        if data.draw(st.booleans()):
            registry.register_version(title, data.draw(bodies(refs)))
        else:
            registry.tombstone(title)
    except RegistryError:
        pass  # refused or rolled back; the state before it stands
    assert_dispatch_matches(registry, events)


# -- depth: a level costs the same however deep it is ------------------------


class TestDepth:
    """Run in a fresh interpreter with room for 8,000 levels: a RecursionError
    that escapes into pytest stalls the run instead of failing it."""

    SCRIPT = textwrap.dedent(
        """
        import json, sys, time
        sys.setrecursionlimit(30_000)
        from semschema.registry import Registry, make_id
        from semschema.validator import validate

        registry = Registry()
        registry.register_version("Ev", {"properties": {"schema": {"type": "string"}}}, kind="event")

        def event(depth, leaf):
            for _ in range(depth):
                leaf = {"a": leaf}
            return {"schema": make_id("event", "Ev", 0), "custom": leaf}

        shallow, deep = event(2_000, "x"), event(8_000, "x")
        best = {2_000: [], 8_000: []}
        for _ in range(7):  # interleaved, so host speed drifts alike for both; best of 7 rides out a busy host
            for depth, value in ((2_000, shallow), (8_000, deep)):
                started = time.perf_counter()
                assert validate(registry, value) == []
                best[depth].append(time.perf_counter() - started)
        (mismatch,) = validate(registry, event(3_000, 1))
        print(json.dumps({"ratio": min(best[8_000]) / min(best[2_000]), "kind": mismatch.kind,
                          "path": str(mismatch.path), "steps": list(mismatch.path.steps)}))
        """
    )

    @pytest.fixture(scope="class")
    def result(self):
        env = dict(os.environ, PYTHONPATH=str(Path(validator.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(done.stdout)

    def test_time_grows_linearly_with_depth(self, result):
        # linear is about 4x; copying the path at every level is about 13x
        assert result["ratio"] < 8

    def test_deep_leaf_reports_its_full_path(self, result):
        assert result["kind"] == CUSTOM_NONSTRING
        assert result["steps"] == ["custom"] + ["a"] * 3_000
        assert result["path"] == ".custom" + ".a" * 3_000
