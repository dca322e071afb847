"""The compiled checkers against the per-value walk they replaced.

`oracle_validate` is the validator's former `_check_object`/`_check_value`
walk, which dispatched on `PropertyDef.kind` at every value.  It stays
here as a test-only oracle: over random schemas and planted mutations,
the compiled checkers must report the same mismatches, in the same order
and with the same text.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from semschema.errors import RegistryError
from semschema.generator import GenConfig, generate_valid
from semschema.jsonmodel import JsonPath
from semschema.pattern import compile_pattern
from semschema.registry import CUSTOM_PROPERTY, Registry, make_id, parse_id
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

# -- the oracle -------------------------------------------------------------


def oracle_validate(registry, event, target):
    if not isinstance(event, dict):
        return [Mismatch(JsonPath(()), WRONG_TYPE, "an event object", event)]
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
    out = []
    allow_custom = resolved.doc.kind == "event"
    _check_object(registry, event, resolved.properties, resolved.required, (), allow_custom, out)
    return out


def _check_object(registry, value, properties, required, path, allow_custom, out):
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


def _check_value(registry, value, prop, path, out):
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
    if not isinstance(value, dict):
        out.append(Mismatch(JsonPath(path), WRONG_TYPE, prop.describe(), value))
        return
    resolved = registry.resolve_ref(prop.ref_title)
    _check_object(registry, value, resolved.properties, resolved.required, path, False, out)


def _check_custom(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _check_custom(item, path + (key,), out)
        return
    if not isinstance(value, str):
        out.append(Mismatch(JsonPath(path), CUSTOM_NONSTRING, "a string leaf (or nested object of strings)", value))


# -- random schemas ---------------------------------------------------------

PATTERNS = [
    "^[a-z]+$",
    "^[A-Z]{3}$",
    "^[0-9]+(\\.[0-9]+)*$",
    "^sdrn:[^:]+:user:[0-9]+$",
    "^https?://",
    "(ab|cd)+",
]
NAMES = st.sampled_from(["a", "b", "id", "@type", "spt:userId", "two words", "n1"])


def property_defs(refs, depth=2):
    """Every kind of definition; arrays and compounds nest up to `depth` levels."""
    kinds = ["number", "string", "pattern", "enum"] + ["ref"] * bool(refs) + ["array", "compound"] * bool(depth)

    @st.composite
    def one(draw):
        kind = draw(st.sampled_from(kinds))
        if kind in ("number", "string"):
            return {"type": kind}
        if kind == "pattern":
            return {"type": "string", "pattern": draw(st.sampled_from(PATTERNS))}
        if kind == "enum":
            return {"enum": draw(st.lists(st.sampled_from(["red", "green", "x-1", "Blue"]), min_size=1, max_size=3, unique=True))}
        if kind == "ref":
            return {"$ref": draw(st.sampled_from(refs))}
        if kind == "array":
            return {"type": "array", "items": draw(property_defs(refs, depth - 1))}
        children = draw(st.dictionaries(NAMES, property_defs(refs, depth - 1), min_size=1, max_size=3))
        return {"type": "object", "properties": children}

    return one()


@st.composite
def bodies(draw, refs, extra=None):
    properties = draw(st.dictionaries(NAMES, property_defs(refs), max_size=4))
    properties.update(extra or {})
    required = [name for name in draw(st.permutations(sorted(properties))) if draw(st.booleans())]
    return {"properties": properties, "required": required}


@st.composite
def registries(draw):
    """Up to two object titles (the second may refer to the first), then an
    event title, whose optional second version inherits from the first."""
    registry = Registry()
    objects = []
    for title in ("Obj A", "Obj B")[: draw(st.integers(0, 2))]:
        registry.register_version(title, draw(bodies(objects)), kind="object")
        objects.append(title)
    schema_prop = {"schema": {"type": "string"}}
    registry.register_version("Ev", draw(bodies(objects, schema_prop)), kind="event")
    if draw(st.booleans()):
        child = draw(bodies(objects))
        registry.register_version("Ev", {**child, "allOf": make_id("event", "Ev", 0)})
    return registry


# -- one planted mutation per mismatch kind ----------------------------------


def _locations(value, out):
    """(container, key) of every value nested under `value`."""
    if isinstance(value, dict):
        for key, item in value.items():
            out.append((value, key))
            _locations(item, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out.append((value, i))
            _locations(item, out)
    return out


ENUM_VALUES = ["red", "green", "x-1", "Blue"]


def _replace_somewhere(draw, event, replacement, prefer=lambda value: True):
    """Replace a value that `prefer` accepts, or any value if there is none."""
    locations = [(c, k) for c, k in _locations(event, []) if k != "schema"]
    preferred = [(c, k) for c, k in locations if prefer(c[k])]
    if locations:
        container, key = draw(st.sampled_from(preferred or locations))
        container[key] = replacement


def plant(draw, event, kind):
    """Plant one mutation meant to cause a mismatch of `kind`."""
    if kind == MISSING_REQUIRED:
        event.pop(draw(st.sampled_from(sorted(event))), None)
    elif kind == WRONG_TYPE:
        _replace_somewhere(draw, event, draw(st.sampled_from([1, 2.5, True, None, "s", [], [1], {}, {"k": 1}])))
    elif kind == PATTERN_FAILED:
        bad = draw(st.sampled_from(["", "!?", "ABCD", "sdrn:x:user:y", " abc", "12.5 "]))
        _replace_somewhere(draw, event, bad, lambda value: isinstance(value, str) and value not in ENUM_VALUES)
    elif kind == ENUM_VIOLATION:
        bad = draw(st.sampled_from(["purple", "RED", "red "]))
        _replace_somewhere(draw, event, bad, lambda value: value in ENUM_VALUES)
    elif kind == UNKNOWN_PROPERTY:
        objects = [event] + [c[k] for c, k in _locations(event, []) if isinstance(c[k], dict)]
        draw(st.sampled_from(objects))["zz-undeclared"] = draw(st.sampled_from([1, "x", {"a": 1}]))
    elif kind == CUSTOM_NONSTRING:
        event[CUSTOM_PROPERTY] = draw(st.sampled_from([{"a": "ok"}, {"a": 1}, {"a": {"b": [1]}}, "x", 3]))
    elif kind == BAD_SCHEMA_DECLARATION:
        event["schema"] = draw(st.sampled_from([5, None, "nope", make_id("event", "Nope", 0), make_id("event", "Ev", 9)]))


KINDS = [MISSING_REQUIRED, WRONG_TYPE, PATTERN_FAILED, ENUM_VIOLATION, UNKNOWN_PROPERTY,
         CUSTOM_NONSTRING, BAD_SCHEMA_DECLARATION]


@settings(max_examples=60, deadline=None)
@given(registry=registries(), seed=st.integers(0, 2**32), data=st.data())
def test_compiled_checkers_match_the_oracle(registry, seed, data):
    """Each event is checked as generated, with each single mutation, with
    all of them at once, and emptied, against every kind of target."""
    version = data.draw(st.sampled_from(registry.versions("Ev")))
    valid = generate_valid(registry, "Ev", version, GenConfig(seed=seed))
    events = [valid, {}, "not an event"]
    everything = copy.deepcopy(valid)
    for kind in KINDS:
        single = copy.deepcopy(valid)
        plant(data.draw, single, kind)
        plant(data.draw, everything, kind)
        events.append(single)
    events.append(everything)
    targets = [ValidationTarget.self_declared(), ValidationTarget.latest(), ValidationTarget.latest("Ev")]
    targets += [ValidationTarget.explicit("Ev", v) for v in registry.versions("Ev")]
    targets += [ValidationTarget.explicit(title, 0) for title in registry.titles() if title != "Ev"]
    for event in events:
        for target in targets:
            expected = [m.to_json() for m in oracle_validate(registry, event, target)]
            assert [m.to_json() for m in validate(registry, event, target)] == expected
