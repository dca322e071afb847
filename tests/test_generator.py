import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semschema.errors import GenerationError, UnsatisfiableError
from semschema.generator import GenConfig, generate_from_pattern, generate_valid
from semschema.registry import make_id
from semschema.validator import validate
from test_pattern import DIALECT_SAMPLES


class TestDeterminism:
    def test_same_seed_same_event(self, registry):
        a = generate_valid(registry, "View Item", 2, GenConfig(seed=7))
        b = generate_valid(registry, "View Item", 2, GenConfig(seed=7))
        assert a == b

    def test_different_seeds_differ(self, registry):
        events = {
            str(generate_valid(registry, "Base Event", 2, GenConfig(seed=s)))
            for s in range(8)
        }
        assert len(events) > 1

    def test_streams_independent_across_titles(self, registry):
        # one title's draw order cannot disturb another's at the same seed
        view = generate_valid(registry, "View Item", 1, GenConfig(seed=3))
        generate_valid(registry, "Send Message", 1, GenConfig(seed=3))
        assert generate_valid(registry, "View Item", 1, GenConfig(seed=3)) == view

    def test_version_is_part_of_the_stream(self, registry):
        v0 = generate_valid(registry, "Base Event", 0, GenConfig(seed=5))
        v1 = generate_valid(registry, "Base Event", 1, GenConfig(seed=5))
        assert v0["schema"] != v1["schema"]


class TestShape:
    def test_events_validate_at_their_version(self, registry):
        for title in registry.titles():
            for version in registry.versions(title):
                if registry.resolve(title, version).doc.is_tombstone():
                    continue
                event = generate_valid(registry, title, version, GenConfig(seed=1))
                from semschema.validator import ValidationTarget

                assert validate(registry, event, ValidationTarget.explicit(title, version)) == []

    def test_schema_property_is_the_doc_id(self, registry):
        event = generate_valid(registry, "Post Item", 1, GenConfig(seed=2))
        assert event["schema"] == make_id("event", "Post Item", 1)

    def test_default_version_is_latest(self, registry):
        event = generate_valid(registry, "View Item", cfg=GenConfig(seed=2))
        assert event["schema"] == make_id("event", "View Item", 2)

    def test_required_always_present(self, registry):
        for seed in range(20):
            event = generate_valid(registry, "View Item", 2, GenConfig(seed=seed))
            for name in ("schema", "@id", "@type", "actor", "published", "object"):
                assert name in event

    def test_optional_sometimes_absent_sometimes_present(self, registry):
        seen = [
            "intent" in generate_valid(registry, "Base Event", 0, GenConfig(seed=s))
            for s in range(30)
        ]
        assert any(seen) and not all(seen)

    def test_pattern_properties_match(self, registry):
        seen_user_id = False
        for seed in range(10):
            event = generate_valid(registry, "Base Event", 0, GenConfig(seed=seed))
            user_id = event["actor"].get("spt:userId")
            if user_id is not None:
                seen_user_id = True
                assert re.search("^sdrn:[^:]+:user:[0-9]+$", user_id)
            assert re.search("T", event["published"])
        assert seen_user_id

    def test_length_caps(self, registry):
        cfg = GenConfig(seed=4, max_array_length=0, max_string_length=2)
        for seed in range(10):
            cfg = GenConfig(seed=seed, max_array_length=0, max_string_length=2)
            event = generate_valid(registry, "Base Event", 0, cfg)
            intent = event.get("intent")
            if intent is not None and "sdrn" not in intent:
                assert len(intent) <= 2

    def test_custom_never_generated(self, registry):
        for seed in range(30):
            assert "custom" not in generate_valid(registry, "View Item", 2, GenConfig(seed=seed))

    def test_object_ref_resolves_to_latest(self, registry):
        # latest ClassifiedAd says vertical, not category
        for seed in range(20):
            event = generate_valid(registry, "View Item", 0, GenConfig(seed=seed))
            assert "category" not in event["object"]


class TestFragments:
    def test_fragment_is_embedded(self, registry):
        cfg = GenConfig(seed=1, fragment=(('.actor."spt:userId"', "sdrn:mp:user:42"),))
        event = generate_valid(registry, "View Item", 2, cfg)
        assert event["actor"]["spt:userId"] == "sdrn:mp:user:42"

    def test_fragment_accepts_jsonpath_objects(self, registry):
        from semschema.jsonmodel import JsonPath

        cfg = GenConfig(seed=1, fragment=((JsonPath(("published",)), "2024-02-29T12:00:00Z"),))
        event = generate_valid(registry, "Base Event", 0, cfg)
        assert event["published"] == "2024-02-29T12:00:00Z"

    def test_overlapping_fragment_paths_rejected(self, registry):
        cfg = GenConfig(seed=1, fragment=((".actor", {}), ('.actor."@type"', "Person")))
        with pytest.raises(GenerationError, match="overlap"):
            generate_valid(registry, "Base Event", 0, cfg)

    def test_invalid_fragment_is_unsatisfiable(self, registry):
        cfg = GenConfig(seed=1, fragment=(('.actor."spt:userId"', "not-an-id"),))
        with pytest.raises(UnsatisfiableError) as exc_info:
            generate_valid(registry, "View Item", 2, cfg)
        assert any(m.kind == "pattern-failed" for m in exc_info.value.mismatches)

    def test_unknown_property_fragment_is_unsatisfiable(self, registry):
        cfg = GenConfig(seed=1, fragment=((".no_such_field", "x"),))
        with pytest.raises(UnsatisfiableError):
            generate_valid(registry, "Base Event", 0, cfg)


class TestRefusals:
    def test_tombstone_refused(self, registry):
        with pytest.raises(GenerationError, match="tombstone"):
            generate_valid(registry, "Share Item", 2, GenConfig(seed=1))

    def test_unknown_title_is_registry_error(self, registry):
        from semschema.errors import UnknownSchemaError

        with pytest.raises(UnknownSchemaError):
            generate_valid(registry, "No Such Thing")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_generated_events_always_validate(registry_holder, seed):
    registry = registry_holder
    event = generate_valid(registry, "Base Event", 2, GenConfig(seed=seed))
    assert validate(registry, event) == []


@pytest.fixture(scope="module")
def registry_holder(request):
    return request.getfixturevalue("registry")


class TestGolden:
    """Pinned outputs: a change to any draw, or to the order of draws, changes a digest."""

    EVENTS_SHA256 = "0bbcec080bba8e1a0153c37ae94c5964a23ff94f03437fd220ba24e9d547a286"
    PATTERNS_SHA256 = "9a6223063114f05de5bdff474c871cb927f4273c1856073435bf47567172b663"

    def test_fixture_events(self, registry):
        from semschema.jsonmodel import dumps

        h = hashlib.sha256()
        for title in sorted(registry.titles()):
            for version in registry.versions(title):
                if registry.get(title, version).is_tombstone():
                    continue
                for seed in range(20):
                    h.update(dumps(generate_valid(registry, title, version, GenConfig(seed=seed))).encode() + b"\n")
        assert h.hexdigest() == self.EVENTS_SHA256

    def test_dialect_samples(self):
        h = hashlib.sha256()
        for source in DIALECT_SAMPLES:
            for seed in range(50):
                h.update(generate_from_pattern(source, seed).encode() + b"\n")
        assert h.hexdigest() == self.PATTERNS_SHA256
