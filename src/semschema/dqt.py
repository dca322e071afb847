"""Streaming data-quality checks with tagged counters.

Check modules are JSON files, one per consumer team (the file stem is
the owner).  Keys are check names, values the check records:

    "user_id_format": {
        "description": "...",
        "solutionUrl": "https://...",
        "filter": ".actor.\"spt:userId\"",
        "check": "test(.actor.\"spt:userId\", \"^sdrn:[^:]+:user:\")"
    }

Per sampled event, a check's filter decides applicability; applicable
events then increment exactly one of `<check>.valid`, `<check>.invalid`
or `<check>.error` (a runtime error inside the check expression), so
applicable = valid + invalid + error always holds.  A filter that itself
errors counts under `<check>.filter_error` and the event is treated as
not applicable.  Counters carry three tags: eventType (the event's
`@type`), trackerType (`tracker.type`) and tenant (`provider.@id`).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import jslt, jsonmodel
from .errors import JsltRuntimeError, SemSchemaError
from .jslt.functions import is_truthy
from .registry import Registry
from .validator import validate

UNKNOWN_TAG = "unknown"


class DqtError(SemSchemaError):
    pass


@dataclass(frozen=True)
class CheckDef:
    name: str
    description: str
    solution_url: str
    filter: jslt.Program
    check: jslt.Program


@dataclass(frozen=True)
class CheckModule:
    owner: str
    checks: tuple[CheckDef, ...]


def parse_module(owner: str, raw: dict, where: str = "check module") -> CheckModule:
    if not isinstance(raw, dict) or not raw:
        raise DqtError(f"{where}: a module is a non-empty object of named checks")
    checks = []
    for name, record in raw.items():
        if not isinstance(record, dict):
            raise DqtError(f"{where}: check {name!r} must be an object")
        unknown = set(record) - {"description", "solutionUrl", "filter", "check"}
        if unknown:
            raise DqtError(f"{where}: check {name!r} has unknown fields {sorted(unknown)}")
        for part in ("filter", "check"):
            if not isinstance(record.get(part), str):
                raise DqtError(f"{where}: check {name!r} needs a {part} expression")
        try:
            filter_program = jslt.compile(record["filter"])
            check_program = jslt.compile(record["check"])
        except Exception as exc:
            raise DqtError(f"{where}: check {name!r}: {exc}") from None
        checks.append(
            CheckDef(
                name=name,
                description=record.get("description", ""),
                solution_url=record.get("solutionUrl", ""),
                filter=filter_program,
                check=check_program,
            )
        )
    return CheckModule(owner, tuple(checks))


def load_modules(directory: str | Path) -> list[CheckModule]:
    root = Path(directory)
    if not root.is_dir():
        raise DqtError(f"not a directory: {root}")
    modules = []
    for file in sorted(root.glob("*.json")):
        raw = jsonmodel.parse_json(file.read_text(encoding="utf-8"))
        modules.append(parse_module(file.stem, raw, where=str(file)))
    if not modules:
        raise DqtError(f"no check modules found in {root}")
    return modules


# -- per-event evaluation ------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    applicable: bool
    valid: bool | None  # None when not applicable or the check errored
    error_stage: str | None = None  # "filter" | "check"


def run_check(check: CheckDef, event) -> CheckOutcome:
    try:
        gate = check.filter.evaluate(event)
    except JsltRuntimeError:
        return CheckOutcome(False, None, "filter")
    if not is_truthy(gate):
        return CheckOutcome(False, None)
    try:
        result = check.check.evaluate(event)
    except JsltRuntimeError:
        return CheckOutcome(True, None, "check")
    return CheckOutcome(True, bool(is_truthy(result)))


# -- sampling ------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    rate: float = 0.01
    strategy: str = "hash"  # "hash" | "random"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise DqtError(f"sampling rate must be in (0, 1], got {self.rate}")
        if self.strategy not in ("hash", "random"):
            raise DqtError(f"unknown sampling strategy {self.strategy!r}")


def _hash_fraction(event) -> float:
    key = event.get("@id") if isinstance(event, dict) else None
    if not isinstance(key, str):
        key = jsonmodel.dumps(event)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class Sampler:
    def __init__(self, cfg: SamplerConfig):
        self.cfg = cfg
        self._rng = random.Random(cfg.seed)

    def keep(self, event) -> bool:
        if self.cfg.strategy == "hash":
            return _hash_fraction(event) < self.cfg.rate
        return self._rng.random() < self.cfg.rate


# -- metrics -------------------------------------------------------------


@dataclass(frozen=True)
class MetricKey:
    metric: str
    tags: tuple[tuple[str, str], ...]

    def to_json(self, count: int, window: str) -> dict:
        return {"metric": self.metric, "tags": dict(self.tags), "count": count, "window": window}


class InMemorySink:
    def __init__(self):
        self.lines: list[dict] = []

    def emit(self, key: MetricKey, count: int, window: str) -> None:
        self.lines.append(key.to_json(count, window))


class NdjsonSink:
    """Writes one metric line per counter to a text stream."""

    def __init__(self, stream):
        self.stream = stream

    def emit(self, key: MetricKey, count: int, window: str) -> None:
        self.stream.write(jsonmodel.dumps(key.to_json(count, window)) + "\n")


class BadLine:
    """Marker for an input line that failed to parse."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.message = message


def events_from_ndjson(stream):
    for lineno, value, error in jsonmodel.iter_ndjson(stream):
        if error is not None:
            yield BadLine(lineno, str(error))
        else:
            yield value


def _tag_of(event, *path) -> str:
    value = event
    for step in path:
        value = value.get(step) if isinstance(value, dict) else None
    return value if isinstance(value, str) and value else UNKNOWN_TAG


def event_tags(event) -> tuple[tuple[str, str], ...]:
    if not isinstance(event, dict):
        return (("eventType", UNKNOWN_TAG), ("trackerType", UNKNOWN_TAG), ("tenant", UNKNOWN_TAG))
    return (
        ("eventType", _tag_of(event, "@type")),
        ("trackerType", _tag_of(event, "tracker", "type")),
        ("tenant", _tag_of(event, "provider", "@id")),
    )


@dataclass
class StreamSummary:
    total: int = 0
    sampled: int = 0
    parse_errors: int = 0
    elapsed_seconds: float = 0.0
    counters: dict = field(default_factory=dict)  # MetricKey -> int

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total / self.elapsed_seconds

    def count(self, metric: str, tags: tuple = ()) -> int:
        """Total over all tag combinations for one metric name, or one key."""
        if tags:
            return self.counters.get(MetricKey(metric, tags), 0)
        return sum(count for key, count in self.counters.items() if key.metric == metric)

    def valid_percentages(self) -> dict[str, float]:
        """check name -> valid / (valid + invalid + error), across all tags."""
        bases = {}
        for key in self.counters:
            name, _, outcome = key.metric.rpartition(".")
            if name and outcome in ("valid", "invalid", "error"):
                bases.setdefault(name, None)
        out = {}
        for name in sorted(bases):
            valid = self.count(f"{name}.valid")
            applicable = valid + self.count(f"{name}.invalid") + self.count(f"{name}.error")
            if applicable:
                out[name] = 100.0 * valid / applicable
        return out

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "sampled": self.sampled,
            "parse_errors": self.parse_errors,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "valid_percentages": {k: round(v, 3) for k, v in self.valid_percentages().items()},
        }


def run_stream(
    modules: list[CheckModule],
    events,
    sampler: SamplerConfig | Sampler | None = None,
    sink=None,
    registry: Registry | None = None,
    window: str | None = None,
) -> StreamSummary:
    """Evaluate every check of every module over the sampled events.

    `events` yields parsed JSON values (or BadLine markers, as produced
    by events_from_ndjson).  When a registry is given, each sampled
    event is also validated against its self-declared schema under the
    `schema_compliance` metric.
    """
    if sampler is None:
        sampler = Sampler(SamplerConfig())
    elif isinstance(sampler, SamplerConfig):
        sampler = Sampler(sampler)
    summary = StreamSummary()
    counters = summary.counters
    started = time.perf_counter()

    def bump(metric: str, tags) -> None:
        key = MetricKey(metric, tags)
        counters[key] = counters.get(key, 0) + 1

    for event in events:
        summary.total += 1
        if isinstance(event, BadLine):
            summary.parse_errors += 1
            bump("parse_error", ())
            continue
        if not sampler.keep(event):
            continue
        summary.sampled += 1
        tags = event_tags(event)
        for module in modules:
            for check in module.checks:
                outcome = run_check(check, event)
                if outcome.error_stage == "filter":
                    bump(f"{check.name}.filter_error", tags)
                    continue
                if not outcome.applicable:
                    continue
                bump(f"{check.name}.applicable", tags)
                if outcome.error_stage == "check":
                    bump(f"{check.name}.error", tags)
                elif outcome.valid:
                    bump(f"{check.name}.valid", tags)
                else:
                    bump(f"{check.name}.invalid", tags)
        if registry is not None:
            mismatches = validate(registry, event)
            bump("schema_compliance.applicable", tags)
            bump("schema_compliance.valid" if not mismatches else "schema_compliance.invalid", tags)
    summary.elapsed_seconds = time.perf_counter() - started
    if sink is not None:
        stamp = window or datetime.now(timezone.utc).isoformat()
        for key in sorted(counters, key=lambda k: (k.metric, k.tags)):
            sink.emit(key, counters[key], stamp)
    return summary
