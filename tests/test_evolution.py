import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checker_oracle import bodies, registries

from semschema import evolution, jslt
from semschema.errors import (
    ChainValidationError,
    EvolutionError,
    MissingTransformError,
    RegistryError,
    UnknownSchemaError,
)
from semschema.evolution import (
    ADD,
    MODIFY,
    MUST_STAY_INVALID,
    MUST_STAY_VALID,
    REMOVE,
    RENAME,
    ConsumerSample,
    TransformSet,
    change_impact_test,
    diff,
    is_breaking,
    load_samples,
)
from semschema.generator import GenConfig, generate_valid
from semschema.registry import Registry, make_id
from semschema.validator import ValidationTarget, validate


def op_kinds(ops):
    return [(op.kind, op.path) for op in ops]


class TestDiff:
    def test_add_optional(self, registry):
        ops = diff(registry, "Base Object", 0, 1)
        assert op_kinds(ops) == [(ADD, ("url",))]
        assert ops[0].required_after is False
        assert not is_breaking(ops)

    def test_modify_pattern(self, registry):
        ops = diff(registry, "Base Object", 1, 2)
        assert op_kinds(ops) == [(MODIFY, ("url",))]
        assert is_breaking(ops)

    def test_rename(self, registry):
        ops = diff(registry, "Provider", 0, 1)
        assert op_kinds(ops) == [(RENAME, ("name",))]
        assert ops[0].old_name == "name" and ops[0].new_name == "displayName"
        assert is_breaking(ops)

    def test_modify_inside_compound(self, registry):
        ops = diff(registry, "ClassifiedAd", 0, 1)
        assert op_kinds(ops) == [(MODIFY, ("price", "currency"))]

    def test_requiredness_flip_is_modify(self, registry):
        ops = diff(registry, "Message", 0, 1)
        assert op_kinds(ops) == [(MODIFY, ("threadId",))]
        assert "optional" in ops[0].before and "required" in ops[0].after
        assert is_breaking(ops)

    def test_add_required_is_breaking(self, registry):
        ops = diff(registry, "Save Item", 1, 2)
        assert op_kinds(ops) == [(ADD, ("saveType",))]
        assert ops[0].required_after is True
        assert is_breaking(ops)

    def test_enum_widening_is_modify(self, registry):
        ops = diff(registry, "Tracker", 1, 2)
        assert op_kinds(ops) == [(MODIFY, ("type",))]
        assert "server" in ops[0].after

    def test_diff_sees_through_parent_repin(self, registry):
        # Send Message 0 -> 1 only re-pins its parent; the visible change
        # is the envelope's two added optional references
        ops = diff(registry, "Send Message", 0, 1)
        assert sorted(op_kinds(ops)) == [(ADD, ("provider",)), (ADD, ("tracker",))]
        assert not is_breaking(ops)

    def test_tombstone_diff_removes_everything(self, registry):
        ops = diff(registry, "Share Item", 1, 2)
        assert ops and all(op.kind == REMOVE for op in ops)
        assert is_breaking(ops)

    def test_same_version_is_empty(self, registry):
        assert diff(registry, "Vehicle", 1, 1) == []
        assert not is_breaking([])

    def test_backward_diff_refused(self, registry):
        with pytest.raises(EvolutionError, match="forward"):
            diff(registry, "Vehicle", 2, 0)

    def test_description_only_change_diffs_empty(self):
        registry = Registry()
        registry.register_version(
            "Note", {"properties": {"body": {"type": "string", "description": "draft"}}},
            kind="object",
        )
        registry.register_version(
            "Note", {"properties": {"body": {"type": "string", "description": "final"}}}
        )
        assert diff(registry, "Note", 0, 1) == []

    def test_rename_needs_same_requiredness(self):
        registry = Registry()
        registry.register_version(
            "Note", {"properties": {"a": {"type": "string"}}, "required": ["a"]},
            kind="object",
        )
        registry.register_version("Note", {"properties": {"b": {"type": "string"}}})
        ops = diff(registry, "Note", 0, 1)
        assert sorted(op.kind for op in ops) == [ADD, REMOVE]

    def test_rename_ignores_descriptions(self):
        registry = Registry()
        registry.register_version(
            "Note", {"properties": {"a": {"type": "string", "description": "x"}}},
            kind="object",
        )
        registry.register_version(
            "Note", {"properties": {"b": {"type": "string", "description": "y"}}}
        )
        assert [op.kind for op in diff(registry, "Note", 0, 1)] == [RENAME]

    def test_op_to_json(self, registry):
        rename = diff(registry, "Provider", 0, 1)[0].to_json()
        assert rename == {
            "op": "Rename", "path": "name", "from": "name", "to": "displayName",
            "before": rename["before"],
        }
        add = diff(registry, "Base Object", 0, 1)[0].to_json()
        assert add["op"] == "Add" and add["required"] is False
        json.dumps([rename, add])  # serializable as emitted


class TestChains:
    def test_compose_full_chain(self, registry, transforms):
        chain = transforms.compose_chain("View Item", 0)
        assert [(s.from_version, s.to_version) for s in chain] == [(0, 1), (1, 2)]

    def test_nonbreaking_step_defaults_to_identity(self, registry, transforms):
        step = transforms.compose_chain("View Item", 1)[0]
        assert step.program.evaluate({"position": 4}) == {"position": 4}

    def test_latest_composes_empty(self, registry, transforms):
        assert transforms.compose_chain("View Item", 2) == ()

    def test_unknown_from_version_refused(self, registry, transforms):
        with pytest.raises(EvolutionError, match="'View Item' has no version 9"):
            transforms.compose_chain("View Item", 9)
        with pytest.raises(UnknownSchemaError, match="unknown schema title 'No Such'"):
            transforms.compose_chain("No Such", 0)

    def test_breaking_step_without_transform_refused(self, registry, transforms):
        programs = {step: p for step, p in transforms._programs.items() if step != ("Provider", 0)}
        with pytest.raises(MissingTransformError) as exc_info:
            TransformSet(registry, programs)
        assert str(exc_info.value) == "'Provider' 0 -> 1 is a breaking step with no registered transform"

    def test_apply_chain_lands_on_latest(self, registry, transforms):
        event = generate_valid(registry, "View Item", 0, GenConfig(seed=9))
        out = transforms.apply_chain(event, "View Item", 0)
        assert out["schema"] == make_id("event", "View Item", 2)
        assert validate(registry, out) == []
        assert "origin" not in out

    def test_apply_chain_without_schema_property(self, registry, transforms):
        value = {"make": "a", "model": "b", "year": 1999}
        out = transforms.apply_chain(value, "Vehicle", 0)
        assert out == {"make": "a", "modelName": "b"}
        assert "schema" not in out

    def test_bad_step_raises_with_index(self, registry, transforms):
        bogus = jslt.compile('{"bogus_field": 1, * : .}')
        broken = TransformSet(registry, {**transforms._programs, ("View Item", 0): bogus})
        event = generate_valid(registry, "View Item", 0, GenConfig(seed=3))
        with pytest.raises(ChainValidationError) as exc_info:
            broken.apply_chain(event, "View Item", 0)
        assert exc_info.value.step_index == 0
        assert exc_info.value.mismatches

    def test_nonadjacent_step_refused(self, registry, tmp_path):
        (tmp_path / "View-Item").mkdir()
        (tmp_path / "View-Item" / "0-to-2.jslt").write_text(".")
        with pytest.raises(EvolutionError, match="adjacent versions only, not 0 -> 2"):
            TransformSet.load(registry, tmp_path)

    @pytest.mark.parametrize("slug, names, error", [
        ("View-Item", ["\u0660-to-\u0661.jslt"], "transform files are named <from>-to-<to>.jslt"),  # Arabic-Indic
        ("View-Item", ["2-to-3.jslt"], "'View Item' has no version 3"),
        ("No-Such", ["0-to-1.jslt"], "'No Such' has no version 1"),
        ("View-Item", ["0-to-1.jslt", "00-to-01.jslt"], "a second transform for 'View Item' 0 -> 1"),
    ], ids=["arabic-indic-digits", "past-the-latest", "unknown-title", "two-for-one-step"])
    def test_load_refuses_a_bad_step_file(self, registry, tmp_path, slug, names, error):
        (tmp_path / slug).mkdir()
        for name in names:
            (tmp_path / slug / name).write_text(".")
        with pytest.raises(EvolutionError) as exc_info:
            TransformSet.load(registry, tmp_path)
        assert str(exc_info.value) == f"{tmp_path / slug / names[-1]}: {error}"

    def test_verify_counts_conversions(self, registry, transforms):
        assert transforms.verify("View Item", seeds=4) == 8

    def test_verify_chains_into_tombstone(self, registry, transforms):
        # Share Item's last step maps every event to the empty object
        assert transforms.verify("Share Item", seeds=2) == 4
        event = generate_valid(registry, "Share Item", 0, GenConfig(seed=1))
        assert transforms.apply_chain(event, "Share Item", 0) == {}

    def test_load_rejects_stray_files(self, registry, tmp_path):
        bad = tmp_path / "View-Item"
        bad.mkdir()
        (bad / "latest.jslt").write_text(".")
        with pytest.raises(EvolutionError, match="named"):
            TransformSet.load(registry, tmp_path)

    def test_load_missing_directory_is_empty(self, registry, tmp_path):
        # no programs at all: the first breaking step refuses the set
        with pytest.raises(MissingTransformError, match="is a breaking step with no registered transform"):
            TransformSet.load(registry, tmp_path / "nope")


class TestChainCache:
    def fresh(self, registry, repo_dir):
        return TransformSet.load(registry, repo_dir / "transforms")

    @pytest.fixture
    def diff_calls(self, monkeypatch):
        calls = []

        def counting(registry, title, a, b):
            calls.append((title, a, b))
            return diff(registry, title, a, b)

        monkeypatch.setattr(evolution, "diff", counting)
        return calls

    def test_repeated_calls_share_one_chain(self, transforms):
        chain = transforms.compose_chain("View Item", 0)
        assert transforms.compose_chain("View Item", 0) is chain
        assert isinstance(chain, tuple)

    def test_diff_runs_once_per_unregistered_step(self, registry, repo_dir, diff_calls):
        transforms = self.fresh(registry, repo_dir)
        steps = sum(len(registry.versions(title)) - 1 for title in registry.titles())
        assert len(diff_calls) == len(set(diff_calls)) == steps - len(transforms._programs)
        # every chain was settled in the constructor; using them runs no diff
        diff_calls.clear()
        for _ in range(2):
            for title in registry.titles():
                for version in registry.versions(title):
                    transforms.compose_chain(title, version)
        for seed in range(3):
            event = generate_valid(registry, "View Item", 0, GenConfig(seed=seed))
            transforms.upgrade(event)
        assert transforms.verify("View Item", seeds=2) == 4
        assert diff_calls == []

    def test_missing_transform_fails_alike_every_time(self, registry, transforms, diff_calls):
        programs = {step: p for step, p in transforms._programs.items() if step != ("Provider", 0)}
        messages = []
        for _ in range(3):
            diff_calls.clear()
            with pytest.raises(MissingTransformError) as exc_info:
                TransformSet(registry, programs)
            messages.append(str(exc_info.value))
            assert diff_calls[-1] == ("Provider", 0, 1) and len(diff_calls) == len(set(diff_calls))
        assert len(set(messages)) == 1 and "breaking step" in messages[0]

    def test_registry_and_step_changes_are_seen(self, registry, repo_dir):
        scratch = registry.clone()
        transforms = self.fresh(scratch, repo_dir)
        programs = transforms._programs
        assert len(transforms.compose_chain("View Item", 0)) == 2
        body = {k: v for k, v in scratch.get("View Item").body().items() if k != "id"}
        body["properties"] = {**body["properties"], "note": {"type": "string"}}
        scratch.register_version("View Item", body)
        # a set shows the registry as it was when built; a new set sees the change
        assert len(transforms.compose_chain("View Item", 0)) == 2
        assert [s.to_version for s in TransformSet(scratch, programs).compose_chain("View Item", 0)] == [1, 2, 3]
        scratch.tombstone("View Item")
        with pytest.raises(MissingTransformError, match="3 -> 4"):
            TransformSet(scratch, programs)
        transforms = TransformSet(scratch, {**programs, ("View Item", 3): jslt.compile("{}")})
        chain = transforms.compose_chain("View Item", 0)
        assert [s.to_version for s in chain] == [1, 2, 3, 4]
        event = generate_valid(scratch, "View Item", 0, GenConfig(seed=5))
        assert transforms.apply_chain(event, "View Item", 0) == {}

    def test_registered_step_replaces_the_identity(self, registry, repo_dir):
        transforms = self.fresh(registry, repo_dir)
        identity = transforms.compose_chain("View Item", 0)[1].program
        program = jslt.compile("{* : .}")
        transforms = TransformSet(registry, {**transforms._programs, ("View Item", 1): program})
        assert [s.program for s in transforms.compose_chain("View Item", 0)][1:] == [program]
        assert program is not identity

    def test_threads_share_one_cache(self, registry, repo_dir):
        events = [generate_valid(registry, title, 0, GenConfig(seed=seed))
                  for title in ("View Item", "Send Message", "Search Listing") for seed in range(4)]
        expected = [self.fresh(registry, repo_dir).upgrade(event) for event in events]
        scratch = registry.clone()  # fresh resolve and checker caches too
        transforms = self.fresh(scratch, repo_dir)
        results, errors = {}, []

        def worker(index):
            try:
                results[index] = [transforms.upgrade(event) for event in events]
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(results[i] == expected for i in range(6))

    def test_rolled_back_registration_keeps_the_chain_right(self, registry, repo_dir):
        scratch = registry.clone()
        before = self.fresh(scratch, repo_dir).compose_chain("View Item", 0)
        with pytest.raises(RegistryError, match="required"):
            scratch.register_version("View Item", {"properties": {}, "required": ["ghost"]})
        transforms = self.fresh(scratch, repo_dir)
        after = transforms.compose_chain("View Item", 0)
        assert [(s.from_version, s.to_version, s.schema_id) for s in after] == [
            (s.from_version, s.to_version, s.schema_id) for s in before
        ]
        event = generate_valid(scratch, "View Item", 0, GenConfig(seed=2))
        assert transforms.apply_chain(event, "View Item", 0)["schema"] == make_id("event", "View Item", 2)


@st.composite
def evolving_registries(draw):
    """A registry from `registries()`, each title given up to two more versions."""
    registry = draw(registries())
    objects = [title for title in registry.titles() if registry.kind_of(title) == "object"]
    for title in registry.titles():
        refs = objects if title == "Ev" else objects[: objects.index(title)]
        extra = {"schema": {"type": "string"}} if title == "Ev" else None
        for _ in range(draw(st.integers(0, 2))):
            try:
                registry.register_version(title, draw(bodies(refs, extra)))
            except RegistryError:  # no change against the last version; rolled back
                pass
    return registry


@settings(max_examples=40, deadline=None)
@given(registry=evolving_registries(), data=st.data())
def test_every_chain_is_settled_at_construction(registry, data):
    identity = jslt.compile(".")
    breaking = [(title, v) for title in registry.titles() for v in range(registry.latest_version(title))
                if is_breaking(diff(registry, title, v, v + 1))]
    programs = dict.fromkeys(breaking, identity)
    transforms = TransformSet(registry, programs)
    for title in registry.titles():
        latest = registry.latest_version(title)
        for v in registry.versions(title):
            chain = transforms.compose_chain(title, v)
            assert [s.to_version for s in chain] == list(range(v + 1, latest + 1))
    if breaking:
        title, v = data.draw(st.sampled_from(breaking))
        del programs[(title, v)]
        with pytest.raises(MissingTransformError) as exc_info:
            TransformSet(registry, programs)
        assert str(exc_info.value) == f"{title!r} {v} -> {v + 1} is a breaking step with no registered transform"


class TestImpact:
    def tightened_provider(self, registry):
        # next Provider: the id pattern loses its freeform tail
        body = {
            "allOf": make_id("object", "Provider", 2),
            "properties": {
                "@id": {"type": "string", "pattern": "^sdrn:mp:provider:[0-9]+$"},
            },
            "required": ["@id"],
        }
        return body

    def test_must_stay_valid_blocks_tightening(self, registry):
        samples = [
            ConsumerSample("legacy-feed", "Provider", ((".\"@id\"", "sdrn:x:provider:abc"),)),
            ConsumerSample("new-feed", "Provider", ((".\"@id\"", "sdrn:mp:provider:42"),)),
        ]
        report = change_impact_test(
            registry, "Provider", self.tightened_provider(registry), samples
        )
        assert report.blocked
        assert report.failing_consumers() == ["legacy-feed"]
        passed = {r.consumer: r.passed for r in report.results}
        assert passed == {"legacy-feed": False, "new-feed": True}

    def test_must_stay_invalid_catches_loosening(self, registry):
        loosened = {
            "allOf": make_id("object", "Provider", 2),
            "properties": {"@id": {"type": "string"}},
            "required": ["@id"],
        }
        samples = [
            ConsumerSample(
                "guard", "Provider", ((".\"@id\"", "not-an-sdrn"),), MUST_STAY_INVALID
            ),
        ]
        report = change_impact_test(registry, "Provider", loosened, samples)
        assert report.blocked
        assert "too loose" in report.results[0].detail

    def test_must_stay_invalid_passes_when_still_rejected(self, registry):
        samples = [
            ConsumerSample(
                "guard", "Provider", ((".\"@id\"", "not-an-sdrn"),), MUST_STAY_INVALID
            ),
        ]
        report = change_impact_test(
            registry, "Provider", self.tightened_provider(registry), samples
        )
        assert not report.blocked

    def test_proposal_does_not_touch_the_registry(self, registry):
        before = registry.latest_version("Provider")
        change_impact_test(registry, "Provider", self.tightened_provider(registry), [])
        assert registry.latest_version("Provider") == before

    def test_report_shape(self, registry):
        samples = [ConsumerSample("a", "Provider", ((".\"@id\"", "sdrn:mp:provider:1"),))]
        report = change_impact_test(
            registry, "Provider", self.tightened_provider(registry), samples
        )
        assert report.proposed_version == 3
        as_json = report.results[0].to_json()
        assert as_json["result"] == "PASS" and as_json["consumer"] == "a"

    def test_results_are_deterministic(self, registry):
        samples = [
            ConsumerSample("legacy-feed", "Provider", ((".\"@id\"", "sdrn:x:provider:abc"),)),
        ]
        runs = [
            change_impact_test(registry, "Provider", self.tightened_provider(registry), samples)
            for _ in range(2)
        ]
        assert [r.to_json() for r in runs[0].results] == [r.to_json() for r in runs[1].results]

    def test_sample_for_other_title_refused(self, registry):
        samples = [ConsumerSample("x", "Tracker", ((".type", "web"),))]
        with pytest.raises(EvolutionError, match="targets"):
            change_impact_test(registry, "Provider", self.tightened_provider(registry), samples)

    def test_bad_polarity_refused(self):
        with pytest.raises(EvolutionError, match="polarity"):
            ConsumerSample("x", "T", (), polarity="maybe")


class TestLoadSamples:
    def test_round_trip(self, tmp_path):
        (tmp_path / "feed.json").write_text(json.dumps({
            "consumer": "nightly-feed",
            "schema": "View Item",
            "polarity": "must-stay-invalid",
            "fragment": {".referrer": "email"},
        }))
        (tmp_path / "dashboard.json").write_text(json.dumps({
            "schema": "View Item",
            "fragment": {'.object.price.amount': 10},
        }))
        samples = load_samples(tmp_path)
        assert [s.consumer for s in samples] == ["dashboard", "nightly-feed"]
        assert samples[0].polarity == MUST_STAY_VALID
        assert samples[1].polarity == MUST_STAY_INVALID
        path, value = samples[0].fragment[0]
        assert str(path) == ".object.price.amount" and value == 10

    def test_fragment_must_be_a_mapping(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"schema": "X", "fragment": []}))
        with pytest.raises(EvolutionError, match="fragment"):
            load_samples(tmp_path)

    def test_unknown_fields_refused(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps({"schema": "X", "fragment": {}, "extra": 1})
        )
        with pytest.raises(EvolutionError, match="unknown"):
            load_samples(tmp_path)
