"""Random valid events for a schema, with optional pinned fragments.

Output is a pure function of (registry content, title, version, config):
the RNG is seeded from a digest of the seed and the schema coordinates.
Every result is passed back through the validator before it is returned,
so a fragment that cannot appear in any valid event surfaces as
UnsatisfiableError carrying the mismatches.
"""

from __future__ import annotations

import hashlib
import random
import string as _string
from typing import NamedTuple

from .errors import GenerationError, UnsatisfiableError
from .jsonmodel import JsonPath, canonical_number, set_path
from .pattern import compile_pattern, draw_chars, generate_from_pattern
from .registry import PropertyDef, Registry, ResolvedSchema
from .validator import ValidationTarget, validate

__all__ = ["GenConfig", "generate_valid", "generate_from_pattern"]

_STRING_ALPHABET = _string.ascii_letters + _string.digits + " "


class GenConfig(NamedTuple):
    seed: int = 0
    max_array_length: int = 3
    max_string_length: int = 24
    fragment: tuple = ()  # pairs of (JsonPath or dotted string, value)


def _normalize_fragment(cfg: GenConfig) -> list[tuple[JsonPath, object]]:
    pairs = []
    for path, value in cfg.fragment:
        if isinstance(path, str):
            path = JsonPath.parse(path)
        pairs.append((path, value))
    for i, (a, _) in enumerate(pairs):
        for b, _ in pairs[i + 1 :]:
            if a.is_prefix_of(b) or b.is_prefix_of(a):
                raise GenerationError(f"fragment paths overlap: {a} and {b}")
    return pairs


def generate_valid(registry: Registry, title: str, version: int | None = None, cfg: GenConfig | None = None):
    cfg = cfg or GenConfig()
    resolved = registry.resolve(title, version)
    doc = resolved.doc
    if doc.is_tombstone():
        raise GenerationError(f"{doc.id} is tombstoned; nothing to generate")
    digest = hashlib.sha256(f"{cfg.seed}:{title}:{doc.linear_version}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    schema_id = doc.id if doc.kind == "event" else None
    value = _gen_object(registry, resolved, rng, cfg, schema_id)
    for path, fragment_value in _normalize_fragment(cfg):
        try:
            value = set_path(value, path, fragment_value)
        except (KeyError, IndexError, TypeError) as exc:
            raise GenerationError(f"cannot place fragment at {path}: {exc}") from None
    mismatches = validate(registry, value, ValidationTarget.explicit(title, doc.linear_version))
    if mismatches:
        raise UnsatisfiableError(
            f"no valid event for {doc.id} holds the requested fragment", mismatches
        )
    return value


def _gen_object(registry, resolved: ResolvedSchema, rng, cfg, schema_id=None) -> dict:
    out = {}
    for name, prop in resolved.properties.items():
        if name == "schema" and schema_id is not None:
            out[name] = schema_id
            continue
        if name in resolved.required or rng.random() < 0.5:
            out[name] = _gen_value(registry, prop, rng, cfg)
    return out


def _gen_value(registry, prop: PropertyDef, rng, cfg):
    kind = prop.kind
    if kind == "number":
        if rng.random() < 0.5:
            return rng.randint(-1000, 1000)
        return canonical_number(round(rng.uniform(-1000.0, 1000.0), 3))
    if kind == "string":
        if prop.pattern is not None:
            return compile_pattern(prop.pattern).generate(rng)
        length = rng.randint(0, cfg.max_string_length)
        return draw_chars(rng, _STRING_ALPHABET, length)
    if kind == "enum":
        return rng.choice(prop.values)
    if kind == "array":
        length = rng.randint(0, cfg.max_array_length)
        return [_gen_value(registry, prop.element, rng, cfg) for _ in range(length)]
    if kind == "compound":
        return {
            name: _gen_value(registry, child, rng, cfg)
            for name, child in prop.children
            if rng.random() < 0.5
        }
    return _gen_object(registry, registry.resolve_ref(prop.ref_title), rng, cfg)
