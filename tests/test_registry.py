import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_checker_oracle import bodies, registries

from semschema.errors import RegistryError, UnknownSchemaError
from semschema.jsonmodel import parse_json
from semschema.registry import (
    KINDS,
    Registry,
    _parse_doc,
    load_repo,
    make_id,
    parse_id,
    parse_property,
    slug_to_title,
    title_to_slug,
    write_releases,
    write_version,
)

word = st.from_regex(r"[A-Za-z0-9]+", fullmatch=True)
titles = st.lists(word, min_size=1, max_size=4).map(" ".join)


class TestNaming:
    def test_slug_round_trip(self):
        assert title_to_slug("Base Event") == "Base-Event"
        assert slug_to_title("Base-Event") == "Base Event"
        assert title_to_slug("ClassifiedAd") == "ClassifiedAd"

    @given(titles)
    def test_slug_round_trip_property(self, title):
        assert slug_to_title(title_to_slug(title)) == title

    def test_make_and_parse_id(self):
        schema_id = make_id("event", "View Item", 2)
        assert schema_id == "https://schema.example.com/schemas/event/View-Item/2"
        assert parse_id(schema_id) == ("event", "View Item", 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-url",
            "https://schema.example.com/schemas/event/View-Item",
            "https://schema.example.com/schemas/thing/View-Item/1",
            "https://schema.example.com/schemas/event/View-Item/x",
            "https://elsewhere.example.com/schemas/event/View-Item/1",
        ],
    )
    def test_parse_id_rejects(self, bad):
        with pytest.raises(RegistryError):
            parse_id(bad)

    def test_parse_id_rejects_non_ascii_digits(self):
        # "²".isdigit() holds but int("²") raises ValueError, not RegistryError
        with pytest.raises(RegistryError):
            parse_id("https://schema.example.com/schemas/event/View-Item/\u00b2")


class TestPropertyParsing:
    def test_kinds(self):
        assert parse_property({"type": "number"}).kind == "number"
        assert parse_property({"type": "string", "pattern": "^a$"}).pattern == "^a$"
        assert parse_property({"enum": ["a", "b"]}).values == ("a", "b")
        assert parse_property({"type": "array", "items": {"type": "number"}}).element.kind == "number"
        compound = parse_property({"type": "object", "properties": {"x": {"type": "string"}}})
        assert compound.child_map()["x"].kind == "string"
        assert parse_property({"$ref": "Base Object"}).ref_title == "Base Object"

    @pytest.mark.parametrize(
        "raw",
        [
            {"type": "boolean"},
            {"type": "string", "extra": 1},
            {"type": "string", "pattern": "("},
            {"type": "number", "pattern": "^a$"},
            {"enum": []},
            {"enum": ["a", "a"]},
            {"enum": [1]},
            {"type": "array"},
            {"type": "object", "properties": {}},
            {"type": "object", "properties": {"custom": {"type": "string"}}},
            {"$ref": "not-a-title!"},
            {"$ref": "X", "type": "string"},
            {},
        ],
    )
    def test_rejections(self, raw):
        with pytest.raises(RegistryError):
            parse_property(raw)

    def test_same_definition_ignores_descriptions(self):
        a = parse_property({"type": "string", "description": "one"})
        b = parse_property({"type": "string", "description": "two"})
        assert a.same_definition(b)
        deep_a = parse_property(
            {"type": "object", "properties": {"x": {"type": "number", "description": "d1"}}}
        )
        deep_b = parse_property(
            {"type": "object", "properties": {"x": {"type": "number", "description": "d2"}}}
        )
        assert deep_a.same_definition(deep_b)
        assert not a.same_definition(parse_property({"type": "number"}))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# patterns the matcher or the group bound refuses, then dialect text
patterns = st.sampled_from(["a{4294967296}", "(" * 65 + "a" + ")" * 65, "(?:" * 300 + ")" * 300, "(?=a)"]) | st.text(
    alphabet="()[]{}|*+?^$\\.-,:09adwsDq", max_size=12)
definitions = st.recursive(
    st.fixed_dictionaries({"type": st.sampled_from(["string", "number", "array", "object", "boolean"]) | json_values},
                          optional={"pattern": patterns | json_values, "description": json_values})
    | st.fixed_dictionaries({}, optional={
        "enum": st.lists(st.text(max_size=3), max_size=3) | json_values,
        "$ref": st.sampled_from(["Base Object", "bad-title"]) | json_values, "type": json_values}),
    lambda children: st.fixed_dictionaries({"type": st.sampled_from(["object", "array"])}, optional={
        "properties": st.dictionaries(st.text(max_size=4), children, max_size=3), "items": children}),
    max_leaves=6,
)
schema_docs = st.fixed_dictionaries({
    "id": st.just(make_id("event", "T", 0)) | json_values,
    "title": st.just("T") | json_values,
    "properties": st.dictionaries(st.sampled_from(["a", "b", "custom"]) | st.text(max_size=4), definitions,
                                  max_size=3) | json_values,
}, optional={
    "allOf": st.sampled_from([make_id("event", "P", 0), "nope"]) | json_values,
    "required": st.lists(st.sampled_from(["a", "b"]), max_size=3) | json_values,
    "description": json_values,
}) | json_values


class TestParseDoc:
    @settings(max_examples=150, deadline=None)
    @given(schema_docs, st.sampled_from(KINDS))
    @example({"id": make_id("event", "T", 0), "title": "T",
              "properties": {"a": {"type": "string", "pattern": "a{4294967296}"}}}, "event")
    def test_any_json_value_parses_or_raises_a_registry_error(self, raw, kind):
        """load_repo catches only SemSchemaError around a schema file, so nothing else may escape."""
        try:
            doc = _parse_doc(raw, kind, where="f.json")
        except RegistryError:
            return
        assert doc.kind == kind and doc.title == raw["title"]


class TestLifecycle:
    def body(self, **props):
        return {"properties": props or {"a": {"type": "string"}}}

    def test_register_and_versions(self):
        registry = Registry()
        assert registry.register_version("Thing", self.body(), kind="object") == 0
        assert registry.register_version("Thing", self.body(b={"type": "number"})) == 1
        assert registry.versions("Thing") == [0, 1]
        assert registry.latest_version("Thing") == 1
        assert registry.get("Thing").linear_version == 1
        assert registry.get("Thing", 0).linear_version == 0

    def test_new_title_needs_kind(self):
        registry = Registry()
        with pytest.raises(RegistryError, match="kind"):
            registry.register_version("Thing", self.body())

    def test_kind_cannot_change(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        with pytest.raises(RegistryError):
            registry.register_version("Thing", self.body(b={"type": "number"}), kind="event")

    def test_id_autofilled_and_checked(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        assert registry.get("Thing", 0).id == make_id("object", "Thing", 0)
        with pytest.raises(RegistryError, match="id"):
            registry.register_version(
                "Thing", {**self.body(b={"type": "number"}), "id": make_id("object", "Thing", 7)}
            )

    def test_no_change_rejected(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        with pytest.raises(RegistryError, match="no change"):
            registry.register_version("Thing", self.body())

    def test_description_only_change_is_a_change(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        version = registry.register_version(
            "Thing", {"properties": {"a": {"type": "string", "description": "now documented"}}}
        )
        assert version == 1

    def test_unknown_lookups(self):
        registry = Registry()
        with pytest.raises(UnknownSchemaError):
            registry.get("Nope")
        registry.register_version("Thing", self.body(), kind="object")
        with pytest.raises(UnknownSchemaError):
            registry.get("Thing", 3)

    @pytest.mark.parametrize("version, found", [(True, 1), (1.0, 1), ("1", None), (-1, None), (2, None)])
    def test_version_lookups_compare_by_equality(self, version, found):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        registry.register_version("Thing", self.body(b={"type": "number"}))
        if found is not None:
            assert registry.get("Thing", version) is registry.get("Thing", found)
            assert registry.resolve("Thing", version) is registry.resolve("Thing", found)
            return
        with pytest.raises(UnknownSchemaError) as raised:
            registry.get("Thing", version)
        assert str(raised.value) == f"no version {version} of 'Thing' (latest is 1)"

    def test_tombstone_and_revive(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        assert registry.tombstone("Thing") == 1
        assert registry.get("Thing").is_tombstone()
        resolved = registry.resolve("Thing")
        assert resolved.properties == {} and resolved.required == ()
        with pytest.raises(RegistryError, match="tombstoned"):
            registry.tombstone("Thing")
        assert registry.register_version("Thing", self.body(back={"type": "number"})) == 2
        assert not registry.get("Thing").is_tombstone()

    def test_rollback_on_bad_registration(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        with pytest.raises(RegistryError):
            registry.register_version("Thing", {"properties": {"r": {"$ref": "Missing"}}})
        assert registry.versions("Thing") == [0]  # failed write left no trace
        with pytest.raises(RegistryError):
            registry.register_version("New", {"properties": {"r": {"$ref": "Missing"}}}, kind="event")
        assert "New" not in registry.titles()


class TestInheritance:
    def build(self):
        registry = Registry()
        registry.register_version(
            "Base",
            {
                "properties": {"a": {"type": "string"}, "b": {"type": "number"}},
                "required": ["a"],
            },
            kind="event",
        )
        registry.register_version(
            "Child",
            {
                "allOf": make_id("event", "Base", 0),
                "properties": {"b": {"type": "string"}, "c": {"type": "number"}},
                "required": ["c"],
            },
            kind="event",
        )
        return registry

    def test_overlay_and_overrides(self):
        resolved = self.build().resolve("Child")
        assert set(resolved.properties) == {"a", "b", "c"}
        assert resolved.properties["b"].kind == "string"  # child wins
        assert resolved.overrides == ("b",)
        assert resolved.required == ("a", "c")  # parent requirements first

    def test_parent_must_exist_and_match_kind(self):
        registry = Registry()
        registry.register_version("Base", {"properties": {"a": {"type": "string"}}}, kind="object")
        with pytest.raises(RegistryError):
            registry.register_version(
                "Child",
                {"allOf": make_id("event", "Base", 0), "properties": {}},
                kind="event",
            )
        with pytest.raises(RegistryError, match="must be another"):
            registry.register_version(
                "Child",
                {"allOf": make_id("object", "Base", 0), "properties": {"x": {"type": "string"}}},
                kind="event",
            )

    def test_tombstoned_parent_rejected(self):
        registry = Registry()
        registry.register_version("Base", {"properties": {"a": {"type": "string"}}}, kind="event")
        registry.tombstone("Base")
        with pytest.raises(RegistryError, match="tombstoned"):
            registry.register_version(
                "Child",
                {"allOf": make_id("event", "Base", 1), "properties": {"x": {"type": "string"}}},
                kind="event",
            )

    def test_parent_pins_a_version(self):
        registry = self.build()
        registry.register_version(
            "Base",
            {"properties": {"a": {"type": "string"}, "z": {"type": "number"}}, "required": ["a"]},
        )
        # Child pinned Base@0, so no z appears
        assert "z" not in self.buildless_resolve(registry)

    @staticmethod
    def buildless_resolve(registry):
        return registry.resolve("Child").properties

    def test_required_must_be_declared(self):
        registry = Registry()
        with pytest.raises(RegistryError, match="required"):
            registry.register_version(
                "Thing",
                {"properties": {"a": {"type": "string"}}, "required": ["ghost"]},
                kind="object",
            )


class TestReferences:
    def test_refs_must_target_objects(self):
        registry = Registry()
        registry.register_version("Ev", {"properties": {"a": {"type": "string"}}}, kind="event")
        with pytest.raises(RegistryError, match="object"):
            registry.register_version(
                "User", {"properties": {"r": {"$ref": "Ev"}}}, kind="event"
            )

    def test_ref_cycles_rejected(self):
        registry = Registry()
        registry.register_version("A", {"properties": {"a": {"type": "string"}}}, kind="object")
        registry.register_version("B", {"properties": {"a": {"$ref": "A"}}}, kind="object")
        with pytest.raises(RegistryError, match="cycle"):
            registry.register_version("A", {"properties": {"b": {"$ref": "B"}}})

    def test_resolve_ref_uses_latest(self):
        registry = Registry()
        registry.register_version("Obj", {"properties": {"a": {"type": "string"}}}, kind="object")
        registry.register_version(
            "Obj", {"properties": {"a": {"type": "string"}, "b": {"type": "number"}}}
        )
        assert set(registry.resolve_ref("Obj").properties) == {"a", "b"}

    def test_nested_refs_checked(self):
        registry = Registry()
        with pytest.raises(RegistryError, match="unknown schema"):
            registry.register_version(
                "Ev",
                {
                    "properties": {
                        "list": {"type": "array", "items": {"$ref": "Missing"}},
                    }
                },
                kind="event",
            )


class TestResolveCache:
    def body(self, **props):
        return {"properties": props or {"a": {"type": "string"}}}

    def two_versions(self):
        registry = Registry()
        registry.register_version("Thing", self.body(), kind="object")
        registry.register_version("Thing", self.body(b={"type": "number"}))
        return registry

    def test_repeated_calls_share_one_object(self):
        registry = self.two_versions()
        latest = registry.resolve("Thing")
        assert registry.resolve("Thing") is latest
        assert registry.resolve("Thing", 1) is latest
        assert registry.resolve("Thing", 0) is registry.resolve("Thing", 0)
        assert registry.resolve("Thing", 0) is not latest

    def test_registration_and_tombstone_refresh_latest(self):
        registry = self.two_versions()
        before = registry.resolve("Thing")
        registry.register_version("Thing", self.body(c={"type": "number"}))
        after = registry.resolve("Thing")
        assert after is not before and set(after.properties) == {"c"}
        registry.tombstone("Thing")
        retired = registry.resolve("Thing")
        assert retired is not after and retired.doc.is_tombstone()
        assert registry.resolve("Thing", 2).properties == after.properties

    def test_rejected_registration_keeps_previous_latest(self):
        registry = self.two_versions()
        registry.resolve("Thing")
        with pytest.raises(RegistryError, match="required"):
            registry.register_version("Thing", {**self.body(), "required": ["ghost"]})
        assert registry.resolve("Thing").doc.linear_version == 1

    def test_rollback_after_a_successful_resolve_forgets_it(self):
        # the cycle check runs after the new version was already flattened
        registry = Registry()
        registry.register_version("A", self.body(), kind="object")
        registry.register_version("B", {"properties": {"a": {"$ref": "A"}}}, kind="object")
        with pytest.raises(RegistryError, match="cycle"):
            registry.register_version("A", {"properties": {"b": {"$ref": "B"}}})
        with pytest.raises(UnknownSchemaError):
            registry.resolve("A", 1)
        assert registry.resolve("A").doc.linear_version == 0

    def test_scratch_clone_leaves_the_original_alone(self, repo_dir):
        from semschema.evolution import change_impact_test

        registry = load_repo(repo_dir)
        before = registry.resolve("Provider")
        proposal = {
            "allOf": make_id("object", "Provider", 2),
            "properties": {"@id": {"type": "string", "pattern": "^sdrn:mp:provider:[0-9]+$"}},
            "required": ["@id"],
        }
        report = change_impact_test(registry, "Provider", proposal, [])
        assert report.proposed_version == 3
        assert registry.resolve("Provider") is before
        assert registry.resolve("Provider").doc.linear_version == 2


GHOST = {"properties": {"a": {"type": "string"}}, "required": ["ghost"]}
KINDS_BY_TITLE = {"Obj A": "object", "Obj B": "object", "Obj C": "object", "Ev": "event"}


def model_of(registry):
    """title -> {version: doc}, read once from a registry that `registries()` built."""
    model = {}
    for title in registry.titles():
        versions, version = {}, 0
        while True:
            try:
                versions[version] = registry.get(title, version)
            except UnknownSchemaError:
                break
            version += 1
        model[title] = versions
    return model


def assert_agrees(registry, model, memo):
    """The queries match `model`, each flattened form is fresh-equal, and `memo` entries are kept."""
    assert registry.titles() == sorted(model)
    for title, versions in model.items():
        latest = max(versions)
        assert registry.versions(title) == sorted(versions)
        assert registry.latest_version(title) == latest
        assert registry.kind_of(title) == KINDS_BY_TITLE[title]
        assert registry.get(title) is versions[latest]
        with pytest.raises(UnknownSchemaError):
            registry.get(title, latest + 1)
        for version, doc in versions.items():
            assert registry.get(title, version) is doc
            assert doc.id == make_id(KINDS_BY_TITLE[title], title, version)
            resolved = registry.resolve(title, version)
            fresh = registry._flatten(doc)
            assert (resolved.properties, resolved.required, resolved.overrides) == (
                fresh.properties, fresh.required, fresh.overrides)
            assert memo.setdefault(doc.id, resolved) is resolved
        assert registry.resolve(title) is registry.resolve(title, latest)


@st.composite
def histories(draw):
    """A registry from `registries()` and up to five steps, with one rejected registration among them."""
    registry = draw(registries())
    steps = draw(st.lists(st.tuples(st.sampled_from(["new", "tombstone"]), st.sampled_from(sorted(KINDS_BY_TITLE))),
                          max_size=5))
    steps.insert(draw(st.integers(0, len(steps))), ("ghost", draw(st.sampled_from(registry.titles()))))
    return registry, steps


def apply(registry, op, title, versions, data):
    """Run one step; True when it stored a version."""
    if op == "ghost":  # stored, then rolled back when flattening finds `ghost` undeclared
        with pytest.raises(RegistryError, match="ghost"):
            registry.register_version(title, GHOST)
        return False
    try:
        if op == "tombstone":
            registry.tombstone(title)
        else:
            # a reference may close a cycle, which is rolled back after the new version was flattened
            refs = [t for t in registry.titles() if KINDS_BY_TITLE[t] == "object"]
            registry.register_version(title, data.draw(bodies(refs)), kind=None if versions else KINDS_BY_TITLE[title])
    except (RegistryError, UnknownSchemaError):
        return False
    return True


class TestVersionStore:
    @settings(max_examples=40, deadline=None)
    @given(history=histories(), data=st.data())
    def test_random_histories_agree_with_a_dict_model(self, history, data):
        registry, steps = history
        model = model_of(registry)
        memo = {}
        assert_agrees(registry, model, memo)
        for op, title in steps:
            versions = model.setdefault(title, {})
            if apply(registry, op, title, versions, data):
                versions[len(versions)] = registry.get(title)
            else:
                assert make_id(KINDS_BY_TITLE[title], title, len(versions)) not in registry._resolved
                if not versions:
                    del model[title]
            assert_agrees(registry, model, memo)
        copy = registry.clone()
        title = data.draw(st.sampled_from(sorted(model)))
        copy.register_version(title, {"properties": {"cloned": {"type": "number"}}})
        assert copy.latest_version(title) == max(model[title]) + 1
        assert_agrees(registry, model, memo)
        assert copy._resolved.keys() >= memo.keys()
        assert all(copy.resolve(t, v) is memo[doc.id] for t, versions in model.items() for v, doc in versions.items())


class TestReleases:
    def test_semver_rules(self):
        registry = Registry()
        registry.register_version("Thing", {"properties": {"a": {"type": "string"}}}, kind="object")
        assert registry.tag_release().version_string == "0.0.1"
        assert registry.tag_release(breaking_since_last=True).version_string == "0.1.0"
        assert registry.tag_release().version_string == "0.1.1"
        assert registry.tag_release(major_override=True).version_string == "1.0.0"
        assert registry.tag_release(breaking_since_last=True).version_string == "1.1.0"

    def test_snapshot_records_latest_versions(self):
        registry = Registry()
        registry.register_version("Thing", {"properties": {"a": {"type": "string"}}}, kind="object")
        registry.register_version("Thing", {"properties": {"b": {"type": "string"}}})
        tag = registry.tag_release()
        assert dict(tag.snapshot) == {"Thing": 1}

    def test_empty_registry_cannot_tag(self):
        with pytest.raises(RegistryError):
            Registry().tag_release()


class TestRepoIO:
    def test_bundled_repo_loads(self, registry):
        assert len(registry.titles()) == 14
        assert registry.kind_of("Base Event") == "event"
        assert registry.kind_of("ClassifiedAd") == "object"
        assert [tag.version_string for tag in registry.releases] == ["1.0.0", "1.1.0", "1.2.0"]

    def test_written_files_parse_back_identically(self, registry, tmp_path):
        doc = registry.get("View Item", 1)
        path = write_version(tmp_path, doc)
        assert path == tmp_path / "event" / "View-Item" / "1.json"
        assert parse_json(path.read_text()) == doc.body()

    def test_round_trip_through_directory(self, registry, tmp_path):
        for title in registry.titles():
            for version in registry.versions(title):
                write_version(tmp_path, registry.get(title, version))
        write_releases(tmp_path, registry.releases)
        again = load_repo(tmp_path)
        assert again.titles() == registry.titles()
        for title in registry.titles():
            assert again.versions(title) == registry.versions(title)
            assert again.get(title).body() == registry.get(title).body()
        assert [t.version_string for t in again.releases] == ["1.0.0", "1.1.0", "1.2.0"]

    @settings(max_examples=30, deadline=None)
    @given(registry=registries())
    def test_random_registries_round_trip_through_directory(self, registry):
        with tempfile.TemporaryDirectory() as scratch:
            files = {(title, version): write_version(scratch, registry.get(title, version))
                     for title in registry.titles() for version in registry.versions(title)}
            again = load_repo(scratch)
            assert again.titles() == registry.titles()
            for (title, version), file in files.items():
                doc = again.get(title, version)
                assert doc == registry.get(title, version)
                assert doc.render().encode() == Path(file).read_bytes()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RegistryError, match="not a directory"):
            load_repo(tmp_path / "nope")

    def test_gap_in_versions_rejected(self, scratch_repo):
        removed = scratch_repo / "event" / "View-Item" / "1.json"
        removed.unlink()
        with pytest.raises(RegistryError, match="contiguous"):
            load_repo(scratch_repo)

    def test_filename_version_must_match_id(self, scratch_repo):
        folder = scratch_repo / "event" / "View-Item"
        (folder / "3.json").write_text((folder / "2.json").read_text())
        with pytest.raises(RegistryError, match="match the file name|registered twice|version"):
            load_repo(scratch_repo)

    def test_release_order_enforced(self, scratch_repo):
        releases = scratch_repo / "releases.json"
        raw = parse_json(releases.read_text())
        raw.reverse()
        import json

        releases.write_text(json.dumps(raw))
        with pytest.raises(RegistryError, match="increase"):
            load_repo(scratch_repo)

    @pytest.mark.parametrize("version", [True, 1.5, "1"])
    def test_release_snapshot_versions_are_integers(self, scratch_repo, version):
        releases = scratch_repo / "releases.json"
        raw = parse_json(releases.read_text())
        raw[-1]["snapshot"]["View Item"] = version
        releases.write_text(json.dumps(raw))
        with pytest.raises(RegistryError, match="malformed release entry"):
            load_repo(scratch_repo)

    def test_a_snapshot_version_written_as_an_integral_float_is_that_int(self, scratch_repo, tmp_path):
        releases = scratch_repo / "releases.json"
        releases.write_text(releases.read_text().replace('"View Item": 2', '"View Item": 1.0'))
        tag = load_repo(scratch_repo).releases[-1]
        assert dict(tag.snapshot)["View Item"] == 1 and type(dict(tag.snapshot)["View Item"]) is int
        assert '"View Item": 1\n' in write_releases(tmp_path, [tag]).read_text()

    @pytest.mark.parametrize("field, value, reason", [
        ("allOf", "nope", "not a schema id: 'nope'"),
        ("id", "https://schema.example.com/schemas/object/Provider/x", "malformed schema id: "
         "'https://schema.example.com/schemas/object/Provider/x'"),
    ])
    def test_a_malformed_id_names_its_file(self, scratch_repo, field, value, reason):
        file = scratch_repo / "object" / "Provider" / "1.json"
        raw = parse_json(file.read_text())
        raw[field] = value
        file.write_text(json.dumps(raw))
        with pytest.raises(RegistryError) as raised:
            load_repo(scratch_repo)
        assert str(raised.value) == f"{file}: {reason}"

    @staticmethod
    def write_object(root, title, version, properties):
        doc = {"id": make_id("object", title, version), "title": title, "properties": properties}
        folder = root / "object" / title_to_slug(title)
        folder.mkdir(parents=True, exist_ok=True)
        (folder / f"{version}.json").write_text(json.dumps(doc))

    def test_first_reference_cycle_is_reported(self, tmp_path):
        # A@1 closes the cycle A -> B -> A; C -> D -> C comes later in load order
        self.write_object(tmp_path, "A", 0, {"a": {"type": "string"}})
        self.write_object(tmp_path, "A", 1, {"b": {"$ref": "B"}})
        self.write_object(tmp_path, "B", 0, {"a": {"$ref": "A"}})
        self.write_object(tmp_path, "C", 0, {"d": {"$ref": "D"}})
        self.write_object(tmp_path, "D", 0, {"c": {"$ref": "C"}})
        with pytest.raises(RegistryError) as first:
            load_repo(tmp_path)
        assert str(first.value) == f"{tmp_path / 'object' / 'A' / '0.json'}: reference cycle through 'A'"
        (tmp_path / "object" / "A" / "1.json").unlink()
        with pytest.raises(RegistryError) as second:
            load_repo(tmp_path)
        assert str(second.value) == f"{tmp_path / 'object' / 'C' / '0.json'}: reference cycle through 'C'"

    def test_each_title_is_walked_once(self, monkeypatch, repo_dir):
        from semschema import registry as module

        calls = []
        iter_refs = module._iter_refs
        monkeypatch.setattr(module, "_iter_refs", lambda doc: calls.append(doc.id) or iter_refs(doc))
        loaded = load_repo(repo_dir)
        docs = sum(len(loaded.versions(title)) for title in loaded.titles())
        # once for the document's own references, once in the cycle walk
        assert len(calls) == 2 * docs

    def test_clone_isolation(self, registry):
        copy = registry.clone()
        copy.tombstone("Vehicle")
        assert copy.latest_version("Vehicle") == 3
        assert registry.latest_version("Vehicle") == 2
