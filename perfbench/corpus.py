"""Deterministic inputs for each workload, built from committed data.

The events come from pool.ndjson.gz beside this file: 64 valid events per
live event title and version, made once by semschema's generator and
committed.  A run never calls the generator, so a change to it (or to
pattern.generate) cannot change what the measured commands read.  Every
builder is a pure function of (workload, seed, pool, fixtures): the seed
picks pool events, gives each a fresh @id (so no two lines repeat) and
plants the defects.  The fixture schemas are read through load_repo and
resolve only to pick which mismatch to plant and which schema id a chain
ends at; the tier-1 tests pin those answers, so a change that alters them
fails the output checks instead of quietly changing the inputs.

Each corpus carries the verdict planted for every operation, which the
checkers in checks.py compare against what the program printed, the
traffic properties that describe it, and a digest of its files for the
report, so two runs on different inputs are seen as not comparable.

Built corpora are cached under <checkout>/.bench_cache/corpus, keyed by
workload, seed and a digest of this file, the pool and src/semschema.

    PYTHONPATH=src python3 perfbench/corpus.py --write-pool   # regenerate the pool
"""

from __future__ import annotations

import copy
import gzip
import hashlib
import json
import random
import re
import shutil
import statistics
import sys
import uuid
from pathlib import Path

from semschema.registry import load_repo, make_id, title_to_slug

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semschema"
FIXTURES = SRC / "fixtures"
REPO = FIXTURES / "repo"
CHECKS = FIXTURES / "checks"
CACHE = ROOT / ".bench_cache"
POOL = Path(__file__).resolve().parent / "pool.ndjson.gz"
POOL_PER_VERSION = 64

# Lines per command.  Sized so one command runs for about 0.6 s here when
# two run at once: interpreter start-up stays a minority of each sample and
# a run still holds about 50 commands for the latency percentiles.
LINES = {"validate-mixed": 4000, "dqt-checks": 6000, "transform-history": 2000}
SERVE_REQUESTS = 3700
EVO_SEEDS = 30  # TransformSet.verify(title, seeds=EVO_SEEDS)

# Planted defect rates.  There is no production traffic to copy, so one
# rule holds for every workload: about 10% of operations carry a defect
# the program must report (the share of planted mismatches validate-mixed
# is specified with) and about 1% of lines do not parse.
DEFECT_SHARE = 0.10
UNPARSEABLE_SHARE = 0.01
# Deep lines (validate-mixed only) nest their custom subtree 64..256
# objects deep, on about 0.5% of lines.  The cap is a known limit: around
# 1,000 levels `semschema validate` dies with RecursionError (ROADMAP
# item 4), so deeper lines would make this workload fail instead of
# measure.  Item 4's change should raise it.
DEEP_SHARE = 0.005
DEEP_MIN, DEEP_MAX = 64, 256

UNKNOWN_PROPERTY = "unknown-property"
MISSING_REQUIRED = "missing-required"
WRONG_TYPE = "wrong-type"
PATTERN_FAILED = "pattern-failed"
ENUM_VIOLATION = "enum-violation"
CUSTOM_NONSTRING = "custom-nonstring"
BAD_SCHEMA_DECLARATION = "bad-schema-declaration"

TRACKER_TYPES = ("ios", "android", "web", "server")
TENANTS = 64
BAD_ID = "bench-not-a-uuid"


def source_digest() -> str:
    """Digest of the corpus builder, the pool and the whole semschema tree."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(POOL.read_bytes())
    for file in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(file.relative_to(SRC)).encode())
        h.update(file.read_bytes())
    return h.hexdigest()[:16]


def event_titles(registry) -> list[str]:
    return sorted(t for t in registry.titles() if registry.kind_of(t) == "event")


def live_versions(registry, title: str) -> list[int]:
    return sorted(v for v in registry.versions(title) if not registry.get(title, v).is_tombstone())


def write_pool() -> None:
    """Regenerate POOL with generate_valid.  Only for a change to the fixtures."""
    from semschema.generator import GenConfig, generate_valid

    registry = load_repo(REPO)
    lines, seed = [], 0
    for title in event_titles(registry):
        for version in live_versions(registry, title):
            for _ in range(POOL_PER_VERSION):
                seed += 1
                event = generate_valid(registry, title, version, GenConfig(seed=seed))
                lines.append(json.dumps([title, version, event], ensure_ascii=False, separators=(",", ":")))
    with gzip.GzipFile(POOL, "wb", mtime=0) as f:
        f.write("".join(line + "\n" for line in lines).encode("utf-8"))


def read_pool() -> dict[tuple[str, int], list[dict]]:
    pool: dict[tuple[str, int], list[dict]] = {}
    with gzip.open(POOL, "rt", encoding="utf-8") as f:
        for line in f:
            title, version, event = json.loads(line)
            pool.setdefault((title, version), []).append(event)
    return pool


def dump_line(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(", ", ": "))


class Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.registry = load_repo(REPO)
        self.pool = read_pool()

    def event(self, title: str, version: int) -> dict:
        """A pool event of (title, version) with a fresh @id, so no two lines repeat."""
        event = copy.deepcopy(self.rng.choice(self.pool[(title, version)]))
        if "@id" in event:
            event["@id"] = str(uuid.UUID(int=self.rng.getrandbits(128), version=4))
        return event

    def event_titles(self) -> list[str]:
        return event_titles(self.registry)

    def live_versions(self, title: str) -> list[int]:
        return live_versions(self.registry, title)

    def latest_is_live(self, title: str) -> bool:
        return not self.registry.get(title).is_tombstone()

    def deep_custom(self) -> tuple[dict, int]:
        depth = self.rng.randint(DEEP_MIN, DEEP_MAX)
        node: object = f"leaf-{self.rng.randrange(10**6)}"
        for level in range(depth, 0, -1):
            node = {f"k{level}": node}
        return node, depth

    def unparseable(self, event: dict) -> str:
        text = dump_line(event)
        return text[: self.rng.randint(1, len(text) // 2)]

    # -- planted schema mismatches ---------------------------------------

    def plant(self, event: dict, title: str, version: int) -> str:
        """Mutate `event` so that validation must report one mismatch kind."""
        resolved = self.registry.resolve(title, version)
        props = resolved.properties
        top = [k for k in event if k != "schema" and k in props]
        options = [UNKNOWN_PROPERTY, CUSTOM_NONSTRING, BAD_SCHEMA_DECLARATION]
        required = sorted(k for k in resolved.required if k != "schema" and k in event)
        if required:
            options.append(MISSING_REQUIRED)
        typed = [k for k in top if props[k].kind in ("string", "number")]
        if typed:
            options.append(WRONG_TYPE)
        patterned = [
            k for k in top
            if props[k].kind == "string" and props[k].pattern and not re.search(props[k].pattern, BAD_ID)
        ]
        if patterned:
            options.append(PATTERN_FAILED)
        enums = [k for k in top if props[k].kind == "enum" and "bench-unlisted" not in props[k].values]
        if enums:
            options.append(ENUM_VIOLATION)
        kind = self.rng.choice(options)
        if kind == UNKNOWN_PROPERTY:
            event["benchUnknownProperty"] = "x"
        elif kind == CUSTOM_NONSTRING:
            event["custom"] = {"bench": 7}
        elif kind == BAD_SCHEMA_DECLARATION:
            event["schema"] = event["schema"].rsplit("/", 2)[0] + "/Bench-Unknown-Title/0"
        elif kind == MISSING_REQUIRED:
            del event[self.rng.choice(required)]
        elif kind == WRONG_TYPE:
            name = self.rng.choice(typed)
            event[name] = 12345 if props[name].kind == "string" else "not-a-number"
        elif kind == PATTERN_FAILED:
            event[self.rng.choice(patterned)] = BAD_ID
        else:
            event[self.rng.choice(enums)] = "bench-unlisted"
        return kind


def _props(lines: list[str], verdicts: list[list], extra: dict) -> dict:
    kinds = {}
    for verdict in verdicts:
        kinds[verdict[0]] = kinds.get(verdict[0], 0) + 1
    n = len(lines)
    out = {
        "lines": n,
        "mean_line_bytes": round(sum(len(s.encode()) + 1 for s in lines) / n, 1),
        "share": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
    }
    out.update(extra)
    return out


def _depth_stats(depths: list[int]) -> dict:
    if not depths:
        return {"deep_lines": 0}
    return {
        "deep_lines": len(depths),
        "custom_depth": {"min": min(depths), "median": statistics.median(depths), "max": max(depths), "cap": DEEP_MAX},
    }


# -- validate-mixed ------------------------------------------------------


def build_validate_mixed(b: Builder) -> dict:
    pairs = [(t, v) for t in b.event_titles() for v in b.live_versions(t)]
    lines, verdicts, depths, mix = [], [], [], {}
    for _ in range(LINES["validate-mixed"]):
        title, version = b.rng.choice(pairs)
        mix[f"{title}@{version}"] = mix.get(f"{title}@{version}", 0) + 1
        event = b.event(title, version)
        r = b.rng.random()
        if r < UNPARSEABLE_SHARE:
            lines.append(b.unparseable(event))
            verdicts.append(["unparseable"])
            continue
        r -= UNPARSEABLE_SHARE
        if r < DEEP_SHARE:
            event["custom"], depth = b.deep_custom()
            depths.append(depth)
            verdicts.append(["deep-valid"])
        elif r < DEEP_SHARE + DEFECT_SHARE:
            verdicts.append(["invalid", b.plant(event, title, version)])
        else:
            verdicts.append(["valid"])
        lines.append(dump_line(event))
    planted = {}
    for v in verdicts:
        if v[0] == "invalid":
            planted[v[1]] = planted.get(v[1], 0) + 1
    return {
        "files": {"events.ndjson": lines},
        "expect": {"events": len(lines), "verdicts": verdicts},
        "props": _props(lines, verdicts, {**_depth_stats(depths), "planted_kinds": planted, "version_mix": mix}),
    }


# -- dqt-checks ----------------------------------------------------------


def _zipf_tenant(rng: random.Random) -> str:
    # weight 1/k over 64 tenants
    weights = [1.0 / k for k in range(1, TENANTS + 1)]
    k = rng.choices(range(1, TENANTS + 1), weights)[0]
    return f"sdrn:bench:provider:{k}"


def _time_text(rng: random.Random) -> str:
    return "2024-%02d-%02dT%02d:%02d:%02dZ" % (
        rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
    )


def _get(value, *path):
    for step in path:
        value = value.get(step) if isinstance(value, dict) else None
    return value


def _truthy(value) -> bool:
    # the JSLT truth rule: null, false, "", [] and {} are false
    if value is None or value is False:
        return False
    return not (isinstance(value, (str, list, dict)) and len(value) == 0)


def expected_dqt_counters(event: dict) -> list[tuple[str, tuple]]:
    """The counter bumps the fixture check modules must make for one event.

    An independent oracle for the three bundled checks (insights:
    user_id_format; marketplace: price_range, published_parses).  The
    corpus only holds values whose outcome is unambiguous: user ids are
    strings, amounts are numbers, and `published` is either a plain
    UTC instant or a word.
    """
    tags = tuple(
        (name, value if isinstance(value, str) and value else "unknown")
        for name, value in (
            ("eventType", _get(event, "@type")),
            ("trackerType", _get(event, "tracker", "type")),
            ("tenant", _get(event, "provider", "@id")),
        )
    )
    bumps = []

    def outcome(check: str, ok: bool) -> None:
        bumps.append((f"{check}.applicable", tags))
        bumps.append((f"{check}.{'valid' if ok else 'invalid'}", tags))

    user = _get(event, "actor", "spt:userId")
    if _truthy(user):
        if not isinstance(user, str):
            raise ValueError("corpus invariant: user ids are strings")
        outcome("user_id_format", re.search(r"^sdrn:[^:]+:user:", user) is not None)
    amount = _get(event, "object", "price", "amount")
    if _truthy(amount):
        if isinstance(amount, bool) or not isinstance(amount, (int, float)):
            raise ValueError("corpus invariant: amounts are numbers")
        outcome("price_range", amount >= 0)
    published = _get(event, "published")
    if _truthy(published):
        outcome("published_parses", re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", published) is not None)
    return bumps


def build_dqt_checks(b: Builder) -> dict:
    titles = [t for t in b.event_titles() if b.latest_is_live(t)]
    lines, verdicts, mix = [], [], {}
    counters: dict[tuple, int] = {}
    for _ in range(LINES["dqt-checks"]):
        title = b.rng.choice(titles)
        mix[title] = mix.get(title, 0) + 1
        tenant, tracker = _zipf_tenant(b.rng), b.rng.choice(TRACKER_TYPES)
        event = b.event(title, b.registry.latest_version(title))
        # the tags are pinned so that the counter keys stay bounded; titles
        # whose schema lacks provider and tracker still carry them on the
        # wire, and dqt runs without --repo, so nothing rejects them
        event["@type"] = title.split()[0]
        event.setdefault("provider", {})["@id"] = tenant
        event.setdefault("tracker", {})["type"] = tracker
        # defects for the three fixture checks: an unparseable `published`
        # and a legacy (numeric) user id
        r = b.rng.random()
        event["published"] = "yesterday" if r < DEFECT_SHARE else _time_text(b.rng)
        if b.rng.random() < DEFECT_SHARE:
            event["actor"]["spt:userId"] = str(10000 + b.rng.randrange(10000))
        if b.rng.random() < UNPARSEABLE_SHARE:
            lines.append(b.unparseable(event))
            verdicts.append(["unparseable"])
            counters[("parse_error", ())] = counters.get(("parse_error", ()), 0) + 1
            continue
        for key in expected_dqt_counters(event):
            counters[key] = counters.get(key, 0) + 1
        lines.append(dump_line(event))
        verdicts.append(["event"])
    expect = [[metric, dict(tags), count] for (metric, tags), count in sorted(counters.items())]
    tag_sets = {tags for (_, tags) in counters if tags}
    return {
        "files": {"events.ndjson": lines},
        "expect": {"events": len(lines), "counters": expect, "parse_errors": verdicts.count(["unparseable"])},
        "props": _props(lines, verdicts, {
            "tag_cardinality": len(tag_sets),
            "tenants": len({dict(t)["tenant"] for t in tag_sets}),
            "counters": len(expect),
            "title_mix": mix,
        }),
    }


# -- transform-history ---------------------------------------------------


def build_transform_history(b: Builder) -> dict:
    pairs = []
    for title in b.event_titles():
        live = b.live_versions(title)
        latest = b.registry.latest_version(title)
        pairs += [(title, v) for v in live if v != latest]
    lines, verdicts, mix = [], [], {}
    for _ in range(LINES["transform-history"]):
        title, version = b.rng.choice(pairs)
        mix[f"{title}@{version}"] = mix.get(f"{title}@{version}", 0) + 1
        event = b.event(title, version)
        r = b.rng.random()
        if r < UNPARSEABLE_SHARE:
            lines.append(b.unparseable(event))
            verdicts.append(["unparseable"])
            continue
        r -= UNPARSEABLE_SHARE
        nxt = b.registry.resolve(title, version + 1).properties.get("@id")
        # a planted chain failure: an @id that the next version's pattern
        # rejects; only on titles whose chain keeps the event (a chain that
        # ends in a tombstone maps every event to {})
        if r < DEFECT_SHARE and b.latest_is_live(title) and nxt is not None and nxt.pattern and not re.search(nxt.pattern, BAD_ID):
            event["@id"] = BAD_ID
            verdicts.append(["chain-fail"])
        else:
            latest = b.registry.resolve(title)
            verdicts.append(["ok", latest.doc.id if "schema" in latest.properties else None])
        lines.append(dump_line(event))
    return {
        "files": {"events.ndjson": lines},
        "expect": {"events": len(lines), "verdicts": verdicts},
        "props": _props(lines, verdicts, {"version_mix": mix}),
    }


# -- evolution-ci --------------------------------------------------------


def _impact_plans(b: Builder) -> list[dict]:
    """One tightening and one additive proposal per title with a free-form string property."""
    plans = []
    for title in sorted(b.registry.titles()):
        if not b.latest_is_live(title):
            continue
        resolved = b.registry.resolve(title)
        free = sorted(
            name for name, prop in resolved.properties.items()
            if prop.kind == "string" and prop.pattern is None and re.fullmatch(r"[A-Za-z]+", name)
        )
        if not free:
            continue
        name = b.rng.choice(free)
        kind = b.registry.kind_of(title)
        base = make_id(kind, title, b.registry.latest_version(title))
        n = b.rng.randrange(1000)
        path = f'."{name}"'
        tightened = {"allOf": base, "properties": {name: {"type": "string", "pattern": "^bench-[0-9]+$"}}}
        plans.append({
            "title": title, "kind": kind, "proposal": tightened, "seed": b.rng.randrange(10**6),
            "samples": [
                ["fits", [[path, f"bench-{n}"]], "must-stay-valid"],
                ["legacy", [[path, f"legacy value {n}"]], "must-stay-valid"],
                ["guard", [[path, "nope"]], "must-stay-invalid"],
            ],
            "blocked": True, "failing": ["legacy"],
        })
        additive = {"allOf": base, "properties": {"benchNote": {"type": "string"}}}
        plans.append({
            "title": title, "kind": kind, "proposal": additive, "seed": b.rng.randrange(10**6),
            "samples": [
                ["fits", [[path, f"anything {n}"]], "must-stay-valid"],
                ["guard", [[path, n]], "must-stay-invalid"],
            ],
            "blocked": False, "failing": [],
        })
    return plans


def build_evolution_ci(b: Builder) -> dict:
    verify = {}
    for title in sorted(b.registry.titles()):
        latest = b.registry.latest_version(title)
        alive = [v for v in b.live_versions(title) if v != latest]
        verify[title] = len(alive) * EVO_SEEDS
    plans = _impact_plans(b)
    plan = {"repo": str(REPO), "seeds": EVO_SEEDS, "titles": sorted(verify), "impact": plans}
    events = sum(verify.values()) + sum(len(p["samples"]) for p in plans)
    text = json.dumps(plan, indent=1)
    return {
        "files": {"plan.json": [text]},
        "expect": {"verify": verify, "impact": [{"title": p["title"], "blocked": p["blocked"], "failing": p["failing"]} for p in plans], "events": events},
        "props": {
            "verify_events": sum(verify.values()), "seeds_per_version": EVO_SEEDS,
            "impact_proposals": len(plans), "impact_samples": events - sum(verify.values()),
            "titles": len(verify),
        },
    }


# -- serve-mixed ---------------------------------------------------------

# The request forms of serve-mixed, one slot each.  There is no production
# traffic to copy, so no form is favoured: each gets the same share.
FORMS = ("validate-self", "validate-explicit", "validate-latest", "transform", "schema", "health")
# One POST /reload after every RELOAD_EVERY requests (2.7% of requests).
# A stress assumption, not a measured ratio: a registry that CI republishes
# every few seconds.  At today's ~45 closed-loop requests/s that is about
# ten reloads in each 8 s closed-loop phase, enough for a median reload
# time, while each reload's load_repo (~7 ms here) stays a minority of
# server time, so reads remain the bulk of the work.
RELOAD_EVERY = 6 * len(FORMS)


def _route_cycle() -> list[str]:
    """The fixed order of request forms, repeated; the seed only varies request contents."""
    return list(FORMS) * (RELOAD_EVERY // len(FORMS)) + ["reload"]


def build_serve_mixed(b: Builder) -> dict:
    """Requests for the server, each with the response it must get.

    /validate comes in three forms, by target: null (self-declared),
    `Title@N` and `Title` (latest); about 10% carry a planted mismatch.
    /transform carries an old-version event.
    """
    pairs = [(t, v) for t in b.event_titles() for v in b.live_versions(t)]
    titles = [t for t in b.event_titles() if b.latest_is_live(t)]
    cycle = _route_cycle()
    requests, mix = [], {}
    for i in range(SERVE_REQUESTS):
        form = cycle[i % len(cycle)]
        if form == "reload":
            # no body: the server does not read one on /reload, so a body
            # would be parsed as the start of the next keep-alive request
            req = {"route": "reload", "method": "POST", "path": "/reload", "expect": {"status": 200}}
        elif form.startswith("validate"):
            if form == "validate-latest":
                title = b.rng.choice(titles)
                version = b.registry.latest_version(title)
                target = title
            else:
                title, version = b.rng.choice(pairs)
                target = None if form == "validate-self" else f"{title}@{version}"
            event = b.event(title, version)
            valid = b.rng.random() >= DEFECT_SHARE
            if not valid:
                event["benchUnknownProperty"] = "x"
            req = {"route": "validate", "method": "POST", "path": "/validate",
                   "body": {"event": event, "target": target}, "expect": {"status": 200, "valid": valid}}
        elif form == "transform":
            title = b.rng.choice(titles)
            version = b.rng.choice(b.live_versions(title)[:-1])
            latest = b.registry.resolve(title)
            req = {"route": "transform", "method": "POST", "path": "/transform", "body": b.event(title, version),
                   "expect": {"status": 200, "schema": latest.doc.id}}
        elif form == "schema":
            title = b.rng.choice(sorted(b.registry.titles()))
            kind = b.registry.kind_of(title)
            version = b.rng.choice([str(v) for v in b.registry.versions(title)] + ["latest"])
            number = b.registry.latest_version(title) if version == "latest" else int(version)
            rel = f"{kind}/{title_to_slug(title)}/{number}.json"
            req = {"route": "schema", "method": "GET", "path": f"/schemas/{kind}/{title_to_slug(title)}/{version}",
                   "expect": {"status": 200, "file": rel}}
        else:
            req = {"route": "health", "method": "GET", "path": "/health",
                   "expect": {"status": 200, "titles": len(b.registry.titles())}}
        mix[form] = mix.get(form, 0) + 1
        requests.append(req)
    lines = [dump_line(r) for r in requests]
    bodies = [len(dump_line(r["body"])) for r in requests if "body" in r]
    return {
        "files": {"requests.ndjson": lines},
        "expect": {},
        "props": {
            "requests": len(requests), "form_mix": {k: round(v / len(requests), 4) for k, v in sorted(mix.items())},
            "invalid_validate_share": round(
                sum(1 for r in requests if r["route"] == "validate" and not r["expect"]["valid"])
                / sum(1 for r in requests if r["route"] == "validate"), 4),
            "mean_body_bytes": round(sum(bodies) / len(bodies), 1),
        },
    }


BUILDERS = {
    "validate-mixed": build_validate_mixed,
    "dqt-checks": build_dqt_checks,
    "transform-history": build_transform_history,
    "evolution-ci": build_evolution_ci,
    "serve-mixed": build_serve_mixed,
}


def load(workload: str, seed: int) -> dict:
    """Build (or reuse) the corpus; returns {dir, expect, props, digest, cached}."""
    where = CACHE / "corpus" / f"{workload}-s{seed}-{source_digest()}"
    meta = where / "meta.json"
    if meta.is_file():
        out = json.loads(meta.read_text())
        out["cached"] = True
        return out
    built = BUILDERS[workload](Builder(seed))
    tmp = where.with_name(where.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    digest = hashlib.sha256()
    for name, lines in sorted(built["files"].items()):
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        (tmp / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data)
    out = {"dir": str(where), "expect": built["expect"], "props": built["props"], "digest": digest.hexdigest()[:16]}
    (tmp / "meta.json").write_text(json.dumps(out))
    shutil.rmtree(where, ignore_errors=True)
    tmp.rename(where)
    out["cached"] = False
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pool"]:
        raise SystemExit("usage: PYTHONPATH=src python3 perfbench/corpus.py --write-pool")
    write_pool()
