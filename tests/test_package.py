import importlib

import pytest

import semschema

# every public name of the package, by the module that defines it
EXPORTS = {
    "errors": [
        "ChainValidationError", "EvolutionError", "GenerationError", "JsltCompileError", "JsltError",
        "JsltRuntimeError", "JsonParseError", "MissingTransformError", "PatternError", "RegistryError",
        "SemSchemaError", "TargetError", "UnknownSchemaError", "UnsatisfiableError",
    ],
    "evolution": [
        "ChangeOp", "ConsumerSample", "ImpactReport", "ImpactResult", "TransformSet", "change_impact_test",
        "diff", "is_breaking", "load_samples",
    ],
    "generator": ["GenConfig", "generate_valid"],
    "pattern": ["generate_from_pattern"],
    "jsonmodel": ["JsonPath", "dumps", "iter_ndjson", "json_equal", "parse_json"],
    "registry": [
        "PropertyDef", "Registry", "ReleaseTag", "ResolvedSchema", "SchemaDoc", "load_repo", "make_id",
        "parse_id", "slug_to_title", "title_to_slug", "write_releases", "write_version",
    ],
    "validator": ["Mismatch", "ValidationTarget", "parse_target", "validate"],
}


def test_all_lists_every_public_name():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 47
    assert semschema.__all__ == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_module_attribute(module):
    defining = importlib.import_module(f"semschema.{module}")
    for name in EXPORTS[module]:
        assert getattr(semschema, name) is getattr(defining, name)


def test_dir_lists_every_name():
    assert set(semschema.__all__) <= set(dir(semschema))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        semschema.nope  # noqa: B018


def test_star_import():
    namespace = {}
    exec("from semschema import *", namespace)
    assert set(semschema.__all__) <= set(namespace)
    assert namespace["validate"] is importlib.import_module("semschema.validator").validate
