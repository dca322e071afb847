"""End-to-end checks for the whole toolkit, one criterion per test.

Each test prints a single pass/fail line (run with -s to see them all);
the benchmark figures in the last test are informational only.
"""

import time

import pytest

from semschema import jslt
from semschema.dqt import Sampler, load_modules, run_stream
from semschema.errors import GenerationError
from semschema.evolution import (
    ADD,
    MUST_STAY_INVALID,
    change_impact_test,
    ConsumerSample,
    diff,
    is_breaking,
)
from semschema.generator import GenConfig, generate_valid
from semschema.registry import Registry, make_id
from semschema.validator import ValidationTarget, validate


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


MOBILE_NORMALIZATION = """
{
    "time": round(parse-time(.published, "yyyy-MM-dd'T'HH:mm:ssX") * 1000),
    "device_manufacturer": .device.manufacturer,
    "device_model": .device.model,
    "language": .device.acceptLanguage,
    "os_name": .device.osType,
    "os_version": .device.osVersion,
    "platform": .device.platformType,
    "user_properties": {
        "is_logged_in" : boolean(.actor."spt:userId")
    }
}
"""

DEVICE = {
    "manufacturer": "Apple",
    "model": "iPhone12,3",
    "acceptLanguage": "nb-NO",
    "osType": "ios",
    "osVersion": "17.2",
    "platformType": "mobile",
}


def test_mobile_normalization_program_is_exact():
    started = time.perf_counter()
    program = jslt.compile(MOBILE_NORMALIZATION)

    epoch = {"published": "1970-01-01T00:00:00Z", "device": dict(DEVICE), "actor": {}}
    assert program.evaluate(epoch) == {
        "time": 0,
        "device_manufacturer": "Apple",
        "device_model": "iPhone12,3",
        "language": "nb-NO",
        "os_name": "ios",
        "os_version": "17.2",
        "platform": "mobile",
        "user_properties": {"is_logged_in": False},
    }

    logged_in = {
        "published": "2020-01-02T03:04:05Z",
        "device": dict(DEVICE),
        "actor": {"spt:userId": "sdrn:mp:user:123"},
    }
    out = program.evaluate(logged_in)
    assert out["time"] == 1577934245000
    assert out["user_properties"] == {"is_logged_in": True}

    elapsed = time.perf_counter() - started
    report("mobile normalization", elapsed < 1.0, f"{elapsed * 1000:.1f}ms")


def test_user_id_format_check_counts_exactly(checks_dir):
    insights = [m for m in load_modules(checks_dir) if m.owner == "insights"]
    events = []
    for i in range(600):
        events.append({"@id": f"anon-{i}", "@type": "View", "actor": {}})
    for i in range(300):
        events.append({
            "@id": f"user-{i}", "@type": "View",
            "actor": {"spt:userId": f"sdrn:mp:user:{i}"},
        })
    for i in range(100):
        events.append({
            "@id": f"legacy-{i}", "@type": "View",
            "actor": {"spt:userId": f"{10000 + i}"},
        })
    summary = run_stream(insights, events, Sampler(rate=1.0))
    counts = (
        summary.count("user_id_format.applicable"),
        summary.count("user_id_format.valid"),
        summary.count("user_id_format.invalid"),
    )
    report("user id format counts", counts == (400, 300, 100), f"{counts}")


def test_every_generated_event_validates(registry):
    started = time.perf_counter()
    titles = registry.titles()
    assert len(titles) >= 12
    tombstones = 0
    pairs = 0
    for title in titles:
        versions = registry.versions(title)
        assert len(versions) >= 3
        for version in versions:
            if registry.get(title, version).is_tombstone():
                tombstones += 1
                with pytest.raises(GenerationError):
                    generate_valid(registry, title, version, GenConfig(seed=0))
                continue
            pairs += 1
            for seed in range(100):
                event = generate_valid(registry, title, version, GenConfig(seed=seed))
                target = ValidationTarget.explicit(title, version)
                assert validate(registry, event, target) == [], (title, version, seed)
    assert tombstones >= 1
    elapsed = time.perf_counter() - started
    report(
        "generate then validate",
        elapsed < 30.0,
        f"{pairs * 100} events over {pairs} schema versions in {elapsed:.1f}s",
    )


def test_whole_history_chains_to_latest(registry, transforms):
    conversions = 0
    for title in registry.titles():
        conversions += transforms.verify(title, seeds=50)
    report("transform chains", conversions == 1400, f"{conversions} conversions")


def test_schema_lifecycle_and_release_tags():
    registry = Registry()
    registry.register_version("Widget", {"properties": {"a": {"type": "string"}}}, kind="object")
    assert registry.latest_version("Widget") == 0
    for step in range(1, 3):
        body = {"properties": {"a": {"type": "string"}, f"b{step}": {"type": "number"}}}
        assert registry.register_version("Widget", body) == step
    assert registry.tombstone("Widget") == 3
    assert registry.resolve("Widget").properties == {}
    assert registry.register_version("Widget", {"properties": {"c": {"type": "string"}}}) == 4
    assert not registry.get("Widget").is_tombstone()
    assert "c" in registry.resolve("Widget").properties

    script = [
        (dict(major_override=True), "1.0.0"),
        (dict(breaking_since_last=True), "1.1.0"),
        (dict(breaking_since_last=True), "1.2.0"),
        (dict(), "1.2.1"),
        (dict(), "1.2.2"),
        (dict(), "1.2.3"),
        (dict(), "1.2.4"),
        (dict(breaking_since_last=True), "1.3.0"),
        (dict(major_override=True), "2.0.0"),
    ]
    tags = [registry.tag_release(**kwargs).version_string for kwargs, _ in script]
    expected = [version for _, version in script]
    report("lifecycle and releases", tags == expected, f"...{tags[-4:]}")


def test_change_impact_blocks_exactly_the_hit_consumers(registry):
    tightened = {
        "allOf": make_id("object", "Provider", 2),
        "properties": {"@id": {"type": "string", "pattern": "^sdrn:mp:provider:[0-9]+$"}},
        "required": ["@id"],
    }
    samples = [
        ConsumerSample("legacy-feed", "Provider", (('."@id"', "sdrn:x:provider:abc"),)),
        ConsumerSample("new-feed", "Provider", (('."@id"', "sdrn:mp:provider:7"),)),
        ConsumerSample("naming", "Provider", ((".displayName", "ACME"),)),
        ConsumerSample("guard", "Provider", (('."@id"', "not-an-id"),), MUST_STAY_INVALID),
    ]
    first = change_impact_test(registry, "Provider", tightened, samples)
    second = change_impact_test(registry, "Provider", tightened, samples)
    assert first.blocked
    assert first.failing_consumers() == ["legacy-feed"]
    assert [r.to_json() for r in first.results] == [r.to_json() for r in second.results]

    loosened = {
        "allOf": make_id("object", "Provider", 2),
        "properties": {"@id": {"type": "string"}},
        "required": ["@id"],
    }
    flipped = change_impact_test(registry, "Provider", loosened, samples)
    guard = next(r for r in flipped.results if r.consumer == "guard")
    report(
        "change impact",
        not guard.passed and "too loose" in guard.detail,
        "tightening blocks legacy-feed only; loosening trips the guard",
    )


def test_sampling_statistics_and_determinism():
    events = [{"@id": f"sdrn:mp:event:{i:06d}"} for i in range(100_000)]
    sampler = Sampler(rate=0.01)
    kept = [e["@id"] for e in events if sampler.keep(e)]
    # binomial n=100000 p=0.01: mean 1000, sigma 31.5; freeze the 3-sigma band
    in_band = 906 <= len(kept) <= 1094

    rerun = [e["@id"] for e in events if Sampler(rate=0.01).keep(e)]
    identical = kept == rerun
    report(
        "sampling",
        in_band and identical,
        f"kept {len(kept)} of 100000; rerun identical={identical}",
    )


def test_corpus_shape_and_throughput(registry, checks_dir, capsys):
    # the production-scale figures in the round numbers below are not
    # reproducible here; this run reports its own small-corpus numbers
    bumps = 0
    with_non_add = 0
    for title in registry.titles():
        versions = registry.versions(title)
        for a, b in zip(versions, versions[1:]):
            bumps += 1
            ops = diff(registry, title, a, b)
            if any(op.kind != ADD for op in ops):
                with_non_add += 1
    share = 100.0 * with_non_add / bumps
    assert (bumps, with_non_add) == (28, 18)

    modules = load_modules(checks_dir)
    events = [
        generate_valid(registry, title, None, GenConfig(seed=seed))
        for title in ("View Item", "Send Message", "Post Item", "Save Item")
        for seed in range(250)
    ]
    summary = run_stream(modules, events, Sampler(rate=1.0))
    rate = summary.events_per_second
    target = "clears" if rate >= 10_000 else "misses (informational only)"
    report(
        "corpus shape and throughput",
        round(share) == 64,
        f"{with_non_add}/{bumps} bumps need transforms; {rate:,.0f} events/s {target} 10k",
    )
