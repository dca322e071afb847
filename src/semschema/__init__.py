"""Semantic schema toolkit.

A versioned schema registry with inheritance, an event validator, a
generative event producer, schema evolution tooling (diffs, forward
transform chains, change-impact tests), a JSON transformation language,
and streaming data-quality checks, bound together by a CLI and an HTTP
schema server.

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562), so a command pays
only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "ChainValidationError",
        "EvolutionError",
        "GenerationError",
        "JsltCompileError",
        "JsltError",
        "JsltRuntimeError",
        "JsonParseError",
        "MissingTransformError",
        "PatternError",
        "RegistryError",
        "SemSchemaError",
        "TargetError",
        "UnknownSchemaError",
        "UnsatisfiableError",
    ),
    "evolution": (
        "ChangeOp",
        "ConsumerSample",
        "ImpactReport",
        "ImpactResult",
        "TransformSet",
        "change_impact_test",
        "diff",
        "is_breaking",
        "load_samples",
    ),
    "generator": ("GenConfig", "generate_valid"),
    "pattern": ("generate_from_pattern",),
    "jsonmodel": ("JsonPath", "dumps", "iter_ndjson", "json_equal", "parse_json"),
    "registry": (
        "PropertyDef",
        "Registry",
        "ReleaseTag",
        "ResolvedSchema",
        "SchemaDoc",
        "load_repo",
        "make_id",
        "parse_id",
        "slug_to_title",
        "title_to_slug",
        "write_releases",
        "write_version",
    ),
    "validator": ("Mismatch", "ValidationTarget", "parse_target", "validate"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also what lets `from semschema import cli` fall through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
