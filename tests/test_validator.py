import copy

import pytest

from semschema import validator
from semschema.errors import RegistryError, UnknownSchemaError
from semschema.registry import Registry, make_id
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
