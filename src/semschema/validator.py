"""Event validation: compare an event against a resolved schema.

Returns every mismatch, not just the first.  Missing required properties
are reported first (in required-list order), then the event is walked in
document order.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RegistryError, TargetError
from .jsonmodel import JsonPath, dumps
from .pattern import compile_pattern
from .registry import CUSTOM_PROPERTY, PropertyDef, Registry, ResolvedSchema, parse_id

MISSING_REQUIRED = "missing-required"
WRONG_TYPE = "wrong-type"
PATTERN_FAILED = "pattern-failed"
UNKNOWN_PROPERTY = "unknown-property"
ENUM_VIOLATION = "enum-violation"
CUSTOM_NONSTRING = "custom-nonstring"
BAD_SCHEMA_DECLARATION = "bad-schema-declaration"


class Mismatch(NamedTuple):
    path: JsonPath
    kind: str
    expected: str
    found: object = None

    def to_json(self) -> dict:
        return {"path": str(self.path), "kind": self.kind, "expected": self.expected, "found": _excerpt(self.found)}

    def __str__(self) -> str:
        return f"{self.path}: {self.kind}: expected {self.expected}, found {_excerpt(self.found)}"


def _excerpt(value) -> object:
    text = dumps(value)
    if len(text) > 120:
        return text[:117] + "..."
    return value


class ValidationTarget(NamedTuple):
    """The schema version an event is checked against.

    With no title, the title comes from the event's `schema` declaration;
    self mode takes the declared version too, latest mode that title's
    latest version.
    """

    mode: str  # self | explicit | latest
    title: str | None = None
    version: int | None = None

    @staticmethod
    def self_declared() -> "ValidationTarget":
        return ValidationTarget("self")

    @staticmethod
    def explicit(title: str, version: int) -> "ValidationTarget":
        return ValidationTarget("explicit", title, version)

    @staticmethod
    def latest(title: str | None = None) -> "ValidationTarget":
        return ValidationTarget("latest", title)


def parse_target(raw) -> ValidationTarget:
    """The target grammar: null → self mode; "Title" → latest; "Title@N" → explicit."""
    if raw is None:
        return ValidationTarget.self_declared()
    if not isinstance(raw, str) or not raw:
        raise TargetError("target must be null, a title, or title@version")
    title, sep, version = raw.partition("@")
    if not sep:
        return ValidationTarget.latest(title)
    if not (version.isascii() and version.isdigit()):
        raise TargetError(f"bad target version in {raw!r}")
    return ValidationTarget.explicit(title, int(version))


def validate(registry: Registry, event, target: ValidationTarget | None = None) -> list[Mismatch]:
    """Validate one event; an empty result means it complies.

    A target title the registry lacks raises UnknownSchemaError; a
    declaration naming no registered schema is a mismatch instead.
    """
    if not isinstance(event, dict):
        return [Mismatch(JsonPath(()), WRONG_TYPE, "an event object", event)]
    target = target or ValidationTarget.self_declared()
    if target.title is not None:
        resolved = registry.resolve(target.title, target.version)
    else:
        declared = event.get("schema")
        if not isinstance(declared, str):
            return [Mismatch(JsonPath(("schema",)), BAD_SCHEMA_DECLARATION, "a schema id string", declared)]
        try:
            _, title, version = parse_id(declared)
            resolved = registry.resolve(title, version if target.mode == "self" else None)
        except RegistryError:
            return [Mismatch(JsonPath(("schema",)), BAD_SCHEMA_DECLARATION, "the id of a registered schema", declared)]
    out: list[Mismatch] = []
    allow_custom = resolved.doc.kind == "event"
    _check_object(registry, event, resolved.properties, resolved.required, (), allow_custom, out)
    return out


# Paths travel as tuples of steps; a JsonPath is built only for a mismatch.


def _check_object(registry, value: dict, properties, required, path: tuple, allow_custom, out) -> None:
    for name in required:
        if name not in value:
            out.append(Mismatch(JsonPath(path + (name,)), MISSING_REQUIRED, f"required property {name!r}"))
    for key, item in value.items():
        here = path + (key,)
        if allow_custom and key == CUSTOM_PROPERTY:
            if isinstance(item, dict):
                _check_custom(item, here, out)
            else:
                out.append(Mismatch(JsonPath(here), CUSTOM_NONSTRING, "an object holding string leaves", item))
        elif key not in properties:
            out.append(Mismatch(JsonPath(here), UNKNOWN_PROPERTY, "a declared property", item))
        else:
            _check_value(registry, item, properties[key], here, out)


def _check_value(registry, value, prop: PropertyDef, path: tuple, out) -> None:
    kind = prop.kind
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out.append(Mismatch(JsonPath(path), WRONG_TYPE, "a number", value))
        return
    if kind == "string":
        if not isinstance(value, str):
            out.append(Mismatch(JsonPath(path), WRONG_TYPE, "a string", value))
        elif prop.pattern is not None and not compile_pattern(prop.pattern).search(value):
            out.append(Mismatch(JsonPath(path), PATTERN_FAILED, f"a string matching {prop.pattern}", value))
        return
    if kind == "enum":
        if not isinstance(value, str):
            out.append(Mismatch(JsonPath(path), WRONG_TYPE, "a string", value))
        elif value not in prop.values:
            out.append(Mismatch(JsonPath(path), ENUM_VIOLATION, prop.describe(), value))
        return
    if kind == "array":
        if not isinstance(value, list):
            out.append(Mismatch(JsonPath(path), WRONG_TYPE, "an array", value))
            return
        for i, element in enumerate(value):
            _check_value(registry, element, prop.element, path + (i,), out)
        return
    if kind == "compound":
        if not isinstance(value, dict):
            out.append(Mismatch(JsonPath(path), WRONG_TYPE, prop.describe(), value))
            return
        _check_object(registry, value, prop.child_map(), (), path, False, out)
        return
    # reference: validate against the latest version of the named schema
    if not isinstance(value, dict):
        out.append(Mismatch(JsonPath(path), WRONG_TYPE, prop.describe(), value))
        return
    resolved: ResolvedSchema = registry.resolve_ref(prop.ref_title)
    _check_object(registry, value, resolved.properties, resolved.required, path, False, out)


def _check_custom(value, path: tuple, out) -> None:
    """The custom subtree is free-form except every leaf must be a string."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_custom(item, path + (key,), out)
        return
    if not isinstance(value, str):
        out.append(Mismatch(JsonPath(path), CUSTOM_NONSTRING, "a string leaf (or nested object of strings)", value))
