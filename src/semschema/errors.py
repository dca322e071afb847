"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class SemSchemaError(Exception):
    """Base class for all errors raised by this package."""


class JsonParseError(SemSchemaError):
    """Invalid JSON text, with 1-based line/column of the failure."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class PatternError(SemSchemaError):
    """Regex source outside the supported dialect, or malformed."""


class JsltError(SemSchemaError):
    """Base for JSLT compile and runtime failures."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        pos = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{pos}")
        self.line = line
        self.col = col


class JsltCompileError(JsltError):
    pass


class JsltRuntimeError(JsltError):
    pass


class RegistryError(SemSchemaError):
    pass


class UnknownSchemaError(RegistryError):
    pass


class TargetError(SemSchemaError, ValueError):
    """A target outside the grammar null | "Title" | "Title@N"."""


class GenerationError(SemSchemaError):
    pass


class UnsatisfiableError(GenerationError):
    """A fixed fragment cannot be embedded in any valid instance.

    Carries the validator mismatches that implicate the fragment; this is
    the failure signal of the change-impact test.
    """

    def __init__(self, message: str, mismatches=()):
        super().__init__(message)
        self.mismatches = list(mismatches)


class EvolutionError(SemSchemaError):
    pass


class MissingTransformError(EvolutionError):
    """A breaking step has no transform program; raised when a TransformSet is built."""


class ChainValidationError(EvolutionError):
    """Transformed output failed validation at an intermediate version."""

    def __init__(self, message: str, step_index: int, mismatches=()):
        super().__init__(message)
        self.step_index = step_index
        self.mismatches = list(mismatches)
