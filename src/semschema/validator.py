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
        checker = _checker(registry, registry.resolve(target.title, target.version))
    else:
        declared = event.get("schema")
        if not isinstance(declared, str):
            return [Mismatch(JsonPath(("schema",)), BAD_SCHEMA_DECLARATION, "a schema id string", declared)]
        # checkers are keyed by schema id, so a canonical self declaration
        # finds its own; any other declaration is parsed and resolved
        checker = registry._checkers.get(declared) if target.mode == "self" else None
        if checker is None:
            try:
                _, title, version = parse_id(declared)
                resolved = registry.resolve(title, version if target.mode == "self" else None)
            except RegistryError:
                return [Mismatch(JsonPath(("schema",)), BAD_SCHEMA_DECLARATION, "the id of a registered schema", declared)]
            checker = _checker(registry, resolved)
    out: list[Mismatch] = []
    checker(event, (), out)
    return out


# A resolved schema compiles once per registry state into nested closures,
# cached in the registry next to its flattened form.  An object checker
# takes (value, path, out); a value checker takes (value, parent path,
# key, out).  A path travels as links: () is the root and (parent, key) one
# step below parent, so a level costs one pair whatever its depth; a
# JsonPath is built only for a mismatch.


def _path(link: tuple) -> JsonPath:
    steps = []
    while link:
        link, key = link
        steps.append(key)
    steps.reverse()
    return JsonPath(steps)


def _checker(registry: Registry, resolved: ResolvedSchema):
    checker = registry._checkers.get(resolved.doc.id)
    if checker is None:
        checker = _compile_object(
            registry, resolved.properties, resolved.required, resolved.doc.kind == "event"
        )
        registry._checkers[resolved.doc.id] = checker
    return checker


def _compile_object(registry, properties, required, allow_custom):
    children = {name: _compile_value(registry, prop) for name, prop in properties.items()}
    if allow_custom:  # never a declared name, so it cannot shadow one
        children[CUSTOM_PROPERTY] = _check_custom_root
    missing = tuple((name, f"required property {name!r}") for name in required)

    def check_object(value: dict, path: tuple, out) -> None:
        for name, expected in missing:
            if name not in value:
                out.append(Mismatch(_path((path, name)), MISSING_REQUIRED, expected))
        for key, item in value.items():
            child = children.get(key)
            if child is None:
                out.append(Mismatch(_path((path, key)), UNKNOWN_PROPERTY, "a declared property", item))
            else:
                child(item, path, key, out)

    return check_object


def _compile_value(registry, prop: PropertyDef):
    kind = prop.kind
    if kind == "number":
        return _check_number
    if kind == "string":
        if prop.pattern is None:
            return _check_string
        search = compile_pattern(prop.pattern).search
        expected = f"a string matching {prop.pattern}"

        def check_pattern(value, parent, key, out):
            if not isinstance(value, str):
                out.append(Mismatch(_path((parent, key)), WRONG_TYPE, "a string", value))
            elif not search(value):
                out.append(Mismatch(_path((parent, key)), PATTERN_FAILED, expected, value))

        return check_pattern
    if kind == "enum":
        values = frozenset(prop.values)
        expected = prop.describe()

        def check_enum(value, parent, key, out):
            if not isinstance(value, str):
                out.append(Mismatch(_path((parent, key)), WRONG_TYPE, "a string", value))
            elif value not in values:
                out.append(Mismatch(_path((parent, key)), ENUM_VIOLATION, expected, value))

        return check_enum
    if kind == "array":
        element = _compile_value(registry, prop.element)

        def check_array(value, parent, key, out):
            here = (parent, key)
            if not isinstance(value, list):
                out.append(Mismatch(_path(here), WRONG_TYPE, "an array", value))
                return
            for i, item in enumerate(value):
                element(item, here, i, out)

        return check_array
    if kind == "compound":
        inner = _compile_object(registry, prop.child_map(), (), False)
    else:  # reference: the latest version of the named schema
        inner = _checker(registry, registry.resolve_ref(prop.ref_title))
    expected = prop.describe()

    def check_nested(value, parent, key, out):
        if isinstance(value, dict):
            inner(value, (parent, key), out)
        else:
            out.append(Mismatch(_path((parent, key)), WRONG_TYPE, expected, value))

    return check_nested


def _check_number(value, parent, key, out) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        out.append(Mismatch(_path((parent, key)), WRONG_TYPE, "a number", value))


def _check_string(value, parent, key, out) -> None:
    if not isinstance(value, str):
        out.append(Mismatch(_path((parent, key)), WRONG_TYPE, "a string", value))


def _check_custom_root(value, parent, key, out) -> None:
    if isinstance(value, dict):
        _check_custom(value, (parent, key), out)
    else:
        out.append(Mismatch(_path((parent, key)), CUSTOM_NONSTRING, "an object holding string leaves", value))


def _check_custom(value, path: tuple, out) -> None:
    """The custom subtree is free-form except every leaf must be a string."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_custom(item, (path, key), out)
        return
    if not isinstance(value, str):
        out.append(Mismatch(_path(path), CUSTOM_NONSTRING, "a string leaf (or nested object of strings)", value))
