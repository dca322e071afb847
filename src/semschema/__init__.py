"""Semantic schema toolkit.

A versioned schema registry with inheritance, an event validator, a
generative event producer, schema evolution tooling (diffs, forward
transform chains, change-impact tests), a JSON transformation language,
and streaming data-quality checks, bound together by a CLI and an HTTP
schema server.
"""

from .errors import (
    ChainValidationError,
    EvolutionError,
    GenerationError,
    JsltCompileError,
    JsltError,
    JsltRuntimeError,
    JsonParseError,
    MissingTransformError,
    PatternError,
    RegistryError,
    SemSchemaError,
    TargetError,
    UnknownSchemaError,
    UnsatisfiableError,
)
from .evolution import (
    ChangeOp,
    ConsumerSample,
    ImpactReport,
    ImpactResult,
    TransformSet,
    TransformStep,
    change_impact_test,
    diff,
    is_breaking,
    load_samples,
)
from .generator import GenConfig, generate_from_pattern, generate_valid
from .jsonmodel import JsonPath, dumps, iter_ndjson, json_equal, parse_json
from .registry import (
    PropertyDef,
    Registry,
    ReleaseTag,
    ResolvedSchema,
    SchemaDoc,
    load_repo,
    make_id,
    parse_id,
    slug_to_title,
    title_to_slug,
    write_releases,
    write_version,
)
from .validator import Mismatch, ValidationTarget, parse_target, validate

__version__ = "0.1.0"

__all__ = [
    "ChainValidationError",
    "ChangeOp",
    "ConsumerSample",
    "EvolutionError",
    "GenConfig",
    "GenerationError",
    "ImpactReport",
    "ImpactResult",
    "JsltCompileError",
    "JsltError",
    "JsltRuntimeError",
    "JsonParseError",
    "JsonPath",
    "Mismatch",
    "MissingTransformError",
    "PatternError",
    "PropertyDef",
    "Registry",
    "RegistryError",
    "ReleaseTag",
    "ResolvedSchema",
    "SchemaDoc",
    "SemSchemaError",
    "TargetError",
    "TransformSet",
    "TransformStep",
    "UnknownSchemaError",
    "UnsatisfiableError",
    "ValidationTarget",
    "change_impact_test",
    "diff",
    "dumps",
    "generate_from_pattern",
    "generate_valid",
    "is_breaking",
    "iter_ndjson",
    "json_equal",
    "load_repo",
    "load_samples",
    "make_id",
    "parse_id",
    "parse_json",
    "parse_target",
    "slug_to_title",
    "title_to_slug",
    "validate",
    "write_releases",
    "write_version",
]
