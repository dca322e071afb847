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

import random
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import jslt, jsonmodel
from .errors import JsltRuntimeError, SemSchemaError
from .jslt.functions import is_truthy

if TYPE_CHECKING:
    from .registry import Registry

UNKNOWN_TAG = "unknown"


class DqtError(SemSchemaError):
    pass


class CheckDef(NamedTuple):
    name: str
    description: str
    solution_url: str
    filter: jslt.Program
    check: jslt.Program


class CheckModule(NamedTuple):
    owner: str
    checks: tuple[CheckDef, ...]


def parse_module(owner: str, raw: dict, where: str = "check module") -> CheckModule:
    if not isinstance(raw, dict) or not raw:
        raise DqtError(f"{where}: a module is a non-empty object of named checks")
    checks = []
    for name, record in raw.items():
        if name == "schema_compliance":
            raise DqtError(f"{where}: check name 'schema_compliance' is reserved for schema validation counts")
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
        except SemSchemaError as exc:
            raise DqtError(f"{where}: check {name!r}: {exc}") from None
        description, solution_url = record.get("description", ""), record.get("solutionUrl", "")
        checks.append(CheckDef(name, description, solution_url, filter_program, check_program))
    return CheckModule(owner, tuple(checks))


def load_modules(directory: str | Path) -> list[CheckModule]:
    root = Path(directory)
    if not root.is_dir():
        raise DqtError(f"not a directory: {root}")
    modules = []
    defined_in: dict[str, Path] = {}  # check name -> the file that defines it
    for file in sorted(root.glob("*.json")):
        raw = jsonmodel.read_file(file, jsonmodel.parse_json, DqtError)
        module = parse_module(file.stem, raw, where=str(file))
        for check in module.checks:
            # counters are keyed by check name, so two teams' checks of one name would mix
            if defined_in.setdefault(check.name, file) != file:
                raise DqtError(f"{file}: check {check.name!r} is already defined in {defined_in[check.name]}")
        modules.append(module)
    if not modules:
        raise DqtError(f"no check modules found in {root}")
    return modules


# -- per-event evaluation ------------------------------------------------

_OUTCOMES = ("valid", "invalid", "error", "filter_error")
_APPLICABLE = _OUTCOMES[:3]  # the outcomes that count an event under <check>.applicable


def check_outcome(check: CheckDef):
    """`check`'s rules as one function, built once: event -> outcome or None.

    The outcome is "valid", "invalid", "error" (the check raised) or
    "filter_error" (the filter raised; the event is out of scope), and
    None when the filter leaves the event out.  A RecursionError is a
    runtime error, as Program.evaluate reads it.  is_truthy only sees
    the values Python reads as false and JSLT may not (0 is true).
    """
    gate, test = check.filter.run, check.check.run

    def outcome(event):
        try:
            passed = gate(event, {})
        except (JsltRuntimeError, RecursionError):
            return "filter_error"
        if not passed and (passed is None or not is_truthy(passed)):
            return None
        try:
            result = test(event, {})
        except (JsltRuntimeError, RecursionError):
            return "error"
        return "valid" if result or (result is not False and is_truthy(result)) else "invalid"

    return outcome


def run_check(check: CheckDef, event) -> str | None:
    """The outcome `event` counts under, or None when the filter leaves it out (see check_outcome)."""
    return check_outcome(check)(event)


# -- sampling ------------------------------------------------------------


def _hash_fraction(event, sha256) -> float:
    key = event.get("@id") if isinstance(event, dict) else None
    if not isinstance(key, str):
        key = jsonmodel.dumps(event)
    # an @id may hold an escaped lone surrogate; "surrogatepass" encodes it and
    # leaves the bytes of every valid string as they were
    digest = sha256(key.encode("utf-8", "surrogatepass")).digest()
    # the top 53 bits, which a double holds exactly, so the fraction stays below 1
    return (int.from_bytes(digest[:8], "big") >> 11) / 2**53


class Sampler:
    """Keeps a `rate` share of events: by a hash of each event's id, or seeded random draws.

    At rate 1.0 every event is kept with no hash and no draw.
    """

    def __init__(self, rate: float = 0.01, strategy: str = "hash", seed: int = 0):
        if not 0 < rate <= 1:
            raise DqtError(f"sampling rate must be in (0, 1], got {rate}")
        if strategy not in ("hash", "random"):
            raise DqtError(f"unknown sampling strategy {strategy!r}")
        self.rate = rate
        self.strategy = strategy
        self.seed = seed
        self._rng = random.Random(seed)
        if strategy == "hash" and rate < 1:
            from hashlib import sha256  # here, so a run that never hashes never loads libcrypto

            self._sha256 = sha256

    def keep(self, event) -> bool:
        if self.rate == 1:
            return True
        if self.strategy == "hash":
            return _hash_fraction(event, self._sha256) < self.rate
        return self._rng.random() < self.rate


# -- metrics -------------------------------------------------------------


# the text jsonmodel.dumps({"metric": metric, "tags": dict(tags), "count": count,
# "window": window}) gives, built from the parts: tag values are str and the
# count an int, so nothing is walked
_METRIC_LINE = '{"metric":%s,"tags":{%s},"count":%d,"window":%s}\n'


class _EncodedParts(dict):
    """A metric name or window (str), or a tag tuple -> its text in a metric line, encoded on first use.

    A lone surrogate is written as its \\uXXXX escape, part by part; the
    rest of the line is ASCII, so the line comes out as dumps writes it.
    """

    def __missing__(self, part):
        encode = jsonmodel.encode_string
        if isinstance(part, str):
            text = encode(part)
        else:
            text = ",".join([encode(name) + ":" + encode(value) for name, value in part])
        text = self[part] = jsonmodel.escape_surrogates(text)
        return text


class NdjsonSink:
    """Writes one metric line per counter to a text stream.

    Each distinct metric name, tag tuple and window is encoded once: a
    run emits every tag tuple once per metric it counted.
    """

    def __init__(self, stream):
        self.stream = stream
        self._parts = _EncodedParts()

    def emit(self, key: tuple, count: int, window: str) -> None:
        metric, tags = key
        parts = self._parts
        self.stream.write(_METRIC_LINE % (parts[metric], parts[tags], count, parts[window]))


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


def _tag(value) -> str:
    return value if isinstance(value, str) and value else UNKNOWN_TAG


_UNKNOWN_TAGS = (("eventType", UNKNOWN_TAG), ("trackerType", UNKNOWN_TAG), ("tenant", UNKNOWN_TAG))


def event_tags(event) -> tuple[tuple[str, str], ...]:
    if not isinstance(event, dict):
        return _UNKNOWN_TAGS
    tracker = event.get("tracker")
    provider = event.get("provider")
    return (
        ("eventType", _tag(event.get("@type"))),
        ("trackerType", _tag(tracker.get("type") if isinstance(tracker, dict) else None)),
        ("tenant", _tag(provider.get("@id") if isinstance(provider, dict) else None)),
    )


_PARSE_ERROR = ("parse_error", ())


class StreamSummary:
    """What run_stream saw; `counters` maps (metric, tags) -> int, in key order."""

    def __init__(self, total: int = 0, sampled: int = 0, elapsed_seconds: float = 0.0,
                 counters: dict | None = None):
        self.total = total
        self.sampled = sampled
        self.elapsed_seconds = elapsed_seconds
        self.counters = {} if counters is None else counters

    @property
    def parse_errors(self) -> int:
        return self.counters.get(_PARSE_ERROR, 0)

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total / self.elapsed_seconds

    def count(self, metric: str, tags: tuple = ()) -> int:
        """Total over all tag combinations for one metric name, or one key."""
        if tags:
            return self.counters.get((metric, tags), 0)
        return sum(count for key, count in self.counters.items() if key[0] == metric)

    def valid_percentages(self) -> dict[str, float]:
        """check name -> valid / (valid + invalid + error), across all tags."""
        tallies: dict[str, list[int]] = {}  # check name -> [valid, valid + invalid + error]
        for (metric, _), count in self.counters.items():
            name, _, outcome = metric.rpartition(".")
            if name and outcome in _APPLICABLE:
                tally = tallies.setdefault(name, [0, 0])
                tally[0] += count if outcome == "valid" else 0
                tally[1] += count
        return {name: 100.0 * valid / applicable
                for name, (valid, applicable) in sorted(tallies.items()) if applicable}

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "sampled": self.sampled,
            "parse_errors": self.parse_errors,
            "elapsed_seconds": jsonmodel.canonical_number(round(self.elapsed_seconds, 6)),
            "events_per_second": jsonmodel.canonical_number(round(self.events_per_second, 1)),
            "valid_percentages": {k: jsonmodel.canonical_number(round(v, 3)) for k, v in self.valid_percentages().items()},
        }


def _counters(rows: dict, slots: dict[str, int], applicable: dict[int, tuple[int, ...]]) -> dict:
    """`(metric, tags) -> count` in key order, for each count above 0 in `rows`.

    `rows` maps a tag tuple to its counts, `slots` a metric name to its
    place in a row; each `applicable` slot is filled in here as the sum
    of the slots it names.
    """
    ordered = sorted(rows.items())  # the tag tuples are distinct, so no row is compared
    for _, row in ordered:
        for total, parts in applicable.items():
            row[total] = sum([row[i] for i in parts])
    counters = {}
    for metric, slot in sorted(slots.items()):
        for tags, row in ordered:
            count = row[slot]
            if count:
                counters[metric, tags] = count
    return counters


def run_stream(
    modules: list[CheckModule],
    events,
    sampler: Sampler | None = None,
    sink=None,
    registry: Registry | None = None,
    window: str | None = None,
) -> StreamSummary:
    """Count every check of every module over the events `sampler` (default `Sampler()`) keeps.

    `events` yields parsed JSON values or BadLine markers, as
    events_from_ndjson does; a BadLine counts under `parse_error`.
    A check's outcome counts under `<check>.<outcome>`, and under
    `<check>.applicable` unless it is "filter_error".  With a registry,
    each kept event is also validated against its declared schema under
    `schema_compliance`.  Counts go into one row per tag tuple, a slot
    per metric; `StreamSummary.counters` maps `(metric, tags)` to each
    count above 0, and the sink gets them in key order.
    """
    keep = (sampler or Sampler()).keep
    if registry is not None:
        from . import validator  # a stream that validates nothing never loads it
    slots: dict[str, int] = {}  # metric name -> its place in a row; checks of one name share it

    def slot(metric: str) -> int:
        return slots.setdefault(metric, len(slots))

    parse_error = slot("parse_error")
    applicable: dict[int, tuple[int, ...]] = {}  # an applicable slot -> the slots it sums
    checks = []  # per check: its outcome function, and outcome -> slot
    for module in modules:
        for check in module.checks:
            to_slot = {outcome: slot(f"{check.name}.{outcome}") for outcome in _OUTCOMES}
            applicable[slot(f"{check.name}.applicable")] = tuple(to_slot[o] for o in _APPLICABLE)
            checks.append((check_outcome(check), to_slot))
    if registry is not None:
        compliance = (slot("schema_compliance.valid"), slot("schema_compliance.invalid"))
        applicable[slot("schema_compliance.applicable")] = compliance
    width = len(slots)
    bad_lines = [0] * width
    rows = {(): bad_lines}  # tag tuple -> its counts; parse errors count under no tags
    total = sampled = 0
    started = time.perf_counter()
    for event in events:
        total += 1
        if isinstance(event, BadLine):
            bad_lines[parse_error] += 1
            continue
        if not keep(event):
            continue
        sampled += 1
        tags = event_tags(event)
        row = rows.get(tags)
        if row is None:
            row = rows[tags] = [0] * width
        for outcome, to_slot in checks:
            name = outcome(event)
            if name is not None:
                row[to_slot[name]] += 1
        if registry is not None:
            row[compliance[bool(validator.validate(registry, event))]] += 1
    elapsed = time.perf_counter() - started
    counters = _counters(rows, slots, applicable)
    del rows  # its counts are in `counters` now; free the rows before the sink runs
    summary = StreamSummary(total, sampled, elapsed, counters)
    if sink is not None:
        stamp = window or datetime.now(timezone.utc).isoformat()
        for key, count in summary.counters.items():
            sink.emit(key, count, stamp)
    return summary
