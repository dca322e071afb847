"""Versioned schema store: inheritance, references, lifecycle, release tags.

Schemas live one JSON file per version under ``<repo>/<kind>/<slug>/<n>.json``
where kind is ``event`` or ``object``.  A schema file carries:

    id          URL embedding kind, title slug and linear version
    title       human name; words separated by spaces, no hyphens
    description optional freeform text
    allOf       optional id of the parent schema (same kind)
    properties  name -> property definition
    required    optional list of mandatory property names

Property definitions use one of six shapes:

    {"type": "number"}
    {"type": "string", "pattern": "..."?}
    {"enum": ["a", "b", ...]}
    {"type": "array", "items": <definition>}
    {"type": "object", "properties": {...}}
    {"$ref": "<schema title>"}

plus an optional "description" on any of them.  References name an
object-kind schema by title and always resolve to its latest version.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import NamedTuple

from . import jsonmodel
from .errors import PatternError, RegistryError, UnknownSchemaError
from .pattern import compile_pattern

HOST = "https://schema.example.com"

BASE_EVENT_TITLE = "Base Event"
BASE_OBJECT_TITLE = "Base Object"

# the envelope subtree tenants may fill freely; never declared in schemas
CUSTOM_PROPERTY = "custom"

KINDS = ("event", "object")

_TITLE_RE = re.compile(r"[A-Za-z0-9]+( [A-Za-z0-9]+)*")


def title_to_slug(title: str) -> str:
    return title.replace(" ", "-")


def slug_to_title(slug: str) -> str:
    return slug.replace("-", " ")


def make_id(kind: str, title: str, version: int) -> str:
    return f"{HOST}/schemas/{kind}/{title_to_slug(title)}/{version}"


def parse_id(schema_id: str) -> tuple[str, str, int]:
    """Split an id URL into (kind, title, linear_version)."""
    prefix = f"{HOST}/schemas/"
    if not isinstance(schema_id, str) or not schema_id.startswith(prefix):
        raise RegistryError(f"not a schema id: {schema_id!r}")
    parts = schema_id[len(prefix) :].split("/")
    if len(parts) != 3 or parts[0] not in KINDS or not (parts[2].isascii() and parts[2].isdigit()):
        raise RegistryError(f"malformed schema id: {schema_id!r}")
    return parts[0], slug_to_title(parts[1]), int(parts[2])


class PropertyDef(NamedTuple):
    kind: str  # number | string | enum | array | ref | compound
    description: str | None = None
    pattern: str | None = None
    values: tuple[str, ...] = ()
    element: "PropertyDef | None" = None
    ref_title: str | None = None
    children: "tuple[tuple[str, PropertyDef], ...]" = ()

    def child_map(self) -> dict[str, "PropertyDef"]:
        return dict(self.children)

    def same_definition(self, other: "PropertyDef") -> bool:
        """Structural equality ignoring descriptions at every level."""
        if self.kind != other.kind:
            return False
        if self.kind == "string":
            return self.pattern == other.pattern
        if self.kind == "enum":
            return self.values == other.values
        if self.kind == "array":
            return self.element.same_definition(other.element)
        if self.kind == "ref":
            return self.ref_title == other.ref_title
        if self.kind == "compound":
            if [k for k, _ in self.children] != [k for k, _ in other.children]:
                return False
            mine, theirs = self.child_map(), other.child_map()
            return all(mine[k].same_definition(theirs[k]) for k in mine)
        return True

    def to_json(self) -> dict:
        out: dict = {}
        if self.kind == "number":
            out["type"] = "number"
        elif self.kind == "string":
            out["type"] = "string"
            if self.pattern is not None:
                out["pattern"] = self.pattern
        elif self.kind == "enum":
            out["enum"] = list(self.values)
        elif self.kind == "array":
            out["type"] = "array"
            out["items"] = self.element.to_json()
        elif self.kind == "compound":
            out["type"] = "object"
            out["properties"] = {name: d.to_json() for name, d in self.children}
        else:
            out["$ref"] = self.ref_title
        if self.description is not None:
            out["description"] = self.description
        return out

    def describe(self) -> str:
        """One-line rendering used in mismatch and diff messages."""
        if self.kind == "string" and self.pattern is not None:
            return f"string matching {self.pattern}"
        if self.kind == "enum":
            return "one of " + ", ".join(self.values)
        if self.kind == "array":
            return f"array of {self.element.describe()}"
        if self.kind == "ref":
            return f"reference to {self.ref_title}"
        if self.kind == "compound":
            return "object with keys " + ", ".join(k for k, _ in self.children)
        return self.kind


def parse_property(raw, where: str = "property") -> PropertyDef:
    if not isinstance(raw, dict):
        raise RegistryError(f"{where}: property definition must be an object")
    known = {"type", "pattern", "enum", "items", "properties", "$ref", "description"}
    for key in raw:
        if key not in known:
            raise RegistryError(f"{where}: unknown field {key!r} in property definition")
    description = raw.get("description")
    if description is not None and not isinstance(description, str):
        raise RegistryError(f"{where}: description must be a string")
    has_type = "type" in raw
    if "$ref" in raw:
        if has_type or "enum" in raw:
            raise RegistryError(f"{where}: $ref cannot be combined with type or enum")
        title = raw["$ref"]
        if not isinstance(title, str) or not _TITLE_RE.fullmatch(title):
            raise RegistryError(f"{where}: $ref must name a schema title")
        return PropertyDef("ref", description, ref_title=title)
    if "enum" in raw:
        if has_type:
            raise RegistryError(f"{where}: enum carries no type field")
        values = raw["enum"]
        if not isinstance(values, list) or not values or not all(isinstance(v, str) for v in values):
            raise RegistryError(f"{where}: enum needs a non-empty list of strings")
        if len(set(values)) != len(values):
            raise RegistryError(f"{where}: enum values repeat")
        return PropertyDef("enum", description, values=tuple(values))
    if not has_type:
        raise RegistryError(f"{where}: property definition needs type, enum or $ref")
    kind = raw["type"]
    if kind == "number":
        if "pattern" in raw:
            raise RegistryError(f"{where}: pattern applies to string properties only")
        return PropertyDef("number", description)
    if kind == "string":
        pattern = raw.get("pattern")
        if pattern is not None:
            if not isinstance(pattern, str):
                raise RegistryError(f"{where}: pattern must be a string")
            try:
                compile_pattern(pattern)
            except PatternError as exc:
                raise RegistryError(f"{where}: bad pattern: {exc}") from None
        return PropertyDef("string", description, pattern=pattern)
    if kind == "array":
        if "items" not in raw:
            raise RegistryError(f"{where}: array needs an items definition")
        return PropertyDef("array", description, element=parse_property(raw["items"], where + ".items"))
    if kind == "object":
        children = raw.get("properties")
        if not isinstance(children, dict) or not children:
            raise RegistryError(f"{where}: compound needs a non-empty properties mapping")
        parsed = tuple((name, parse_property(d, f"{where}.{name}")) for name, d in children.items())
        for name, _ in parsed:
            if name == CUSTOM_PROPERTY:
                raise RegistryError(f"{where}: {CUSTOM_PROPERTY!r} is reserved and cannot be declared")
        return PropertyDef("compound", description, children=parsed)
    raise RegistryError(f"{where}: unsupported type {kind!r}")


class SchemaDoc(NamedTuple):
    id: str
    title: str
    kind: str
    linear_version: int
    properties: tuple[tuple[str, PropertyDef], ...]
    parent: str | None
    required: tuple[str, ...]
    description: str | None = None

    def is_tombstone(self) -> bool:
        return not self.properties and self.parent is None

    def body(self) -> dict:
        out: dict = {"id": self.id, "title": self.title}
        if self.description is not None:
            out["description"] = self.description
        if self.parent is not None:
            out["allOf"] = self.parent
        out["properties"] = {name: d.to_json() for name, d in self.properties}
        if self.required:
            out["required"] = list(self.required)
        return out

    def render(self) -> str:
        """The text of this version's file, as `write_version` writes it."""
        return jsonmodel.dumps(self.body(), indent=2) + "\n"


class ResolvedSchema(NamedTuple):
    doc: SchemaDoc
    properties: dict[str, PropertyDef]
    required: tuple[str, ...]
    overrides: tuple[str, ...]  # names redefined along the inheritance chain


class ReleaseTag(NamedTuple):
    major: int
    minor: int
    patch: int
    snapshot: tuple[tuple[str, int], ...]
    timestamp: str

    @property
    def version_string(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"

    def to_json(self) -> dict:
        return {
            "version": self.version_string,
            "timestamp": self.timestamp,
            "snapshot": {title: version for title, version in self.snapshot},
        }


def _parse_id_at(schema_id, where: str) -> tuple[str, str, int]:
    """`parse_id`, with its error prefixed by `where`."""
    try:
        return parse_id(schema_id)
    except RegistryError as exc:
        raise RegistryError(f"{where}: {exc}") from None


def _parse_doc(raw, kind: str, where: str) -> SchemaDoc:
    if not isinstance(raw, dict):
        raise RegistryError(f"{where}: schema file must hold a JSON object")
    known = {"id", "title", "description", "allOf", "properties", "required"}
    for key in raw:
        if key not in known:
            raise RegistryError(f"{where}: unknown schema field {key!r}")
    title = raw.get("title")
    if not isinstance(title, str) or not _TITLE_RE.fullmatch(title):
        raise RegistryError(f"{where}: title must be words of letters and digits (no hyphens)")
    schema_id = raw.get("id")
    if not isinstance(schema_id, str):
        raise RegistryError(f"{where}: id is required")
    id_kind, id_title, id_version = _parse_id_at(schema_id, where)
    if id_kind != kind or id_title != title:
        raise RegistryError(f"{where}: id {schema_id!r} does not encode kind {kind!r} and title {title!r}")
    description = raw.get("description")
    if description is not None and not isinstance(description, str):
        raise RegistryError(f"{where}: description must be a string")
    parent = raw.get("allOf")
    if parent is not None:
        _parse_id_at(parent, where)
    props_raw = raw.get("properties")
    if not isinstance(props_raw, dict):
        raise RegistryError(f"{where}: properties mapping is required (may be empty)")
    properties = []
    for name, prop_raw in props_raw.items():
        if name == CUSTOM_PROPERTY:
            raise RegistryError(
                f"{where}: {CUSTOM_PROPERTY!r} is implicit on every event and cannot be declared"
            )
        properties.append((name, parse_property(prop_raw, f"{where}.{name}")))
    required_raw = raw.get("required", [])
    if not isinstance(required_raw, list) or not all(isinstance(n, str) for n in required_raw):
        raise RegistryError(f"{where}: required must be a list of property names")
    if len(set(required_raw)) != len(required_raw):
        raise RegistryError(f"{where}: required repeats a name")
    return SchemaDoc(
        id=schema_id,
        title=title,
        kind=kind,
        linear_version=id_version,
        properties=tuple(properties),
        parent=parent,
        required=tuple(required_raw),
        description=description,
    )


class Registry:
    """All schema versions of all titles, plus ordered release tags.

    Reads are safe from any number of threads; registrations, tombstones
    and tagging assume a single writer.
    """

    def __init__(self):
        # title -> its versions, version n at index n
        self._schemas: dict[str, list[SchemaDoc]] = {}
        # schema id -> flattened form.  A parent is an exact id and a stored
        # SchemaDoc never changes, so an entry holds for the registry's life;
        # only a rolled-back registration removes one, its own
        self._resolved: dict[str, ResolvedSchema] = {}
        # schema id -> compiled checker (see validator).  A $ref binds the
        # latest version of its target, so every registration, tombstone or
        # rollback empties it
        self._checkers: dict[str, object] = {}
        self.releases: list[ReleaseTag] = []

    def clone(self) -> "Registry":
        """Independent copy; the immutable SchemaDocs and flattened forms are shared."""
        out = Registry()
        out._schemas = {title: list(docs) for title, docs in self._schemas.items()}
        out._resolved = dict(self._resolved)
        out.releases = list(self.releases)
        return out

    # -- queries --------------------------------------------------------

    def titles(self) -> list[str]:
        return sorted(self._schemas)

    def kind_of(self, title: str) -> str:
        return self.get(title, 0).kind

    def versions(self, title: str) -> list[int]:
        return list(range(self.latest_version(title) + 1))

    def latest_version(self, title: str) -> int:
        return self.get(title).linear_version

    def get(self, title: str, version: int | None = None) -> SchemaDoc:
        docs = self._schemas.get(title)
        if docs is None:
            raise UnknownSchemaError(f"unknown schema title {title!r}")
        if version is None:
            return docs[-1]
        if version.__class__ is int and 0 <= version < len(docs):
            return docs[version]
        # anything else compares by ==: True and 1.0 find version 1, "1" finds none
        if version in range(len(docs)):
            return docs[int(version)]
        raise UnknownSchemaError(f"no version {version} of {title!r} (latest is {len(docs) - 1})")

    def _kind(self, title: str) -> str | None:
        docs = self._schemas.get(title)
        return docs[0].kind if docs else None

    # -- resolution ------------------------------------------------------

    def resolve(self, title: str, version: int | None = None) -> ResolvedSchema:
        """Flatten the inheritance chain: parent properties overlaid by own.

        Each version is flattened once for the registry's life, and its
        clones', and memoized by schema id.  The result is shared by every
        caller and must not be mutated.
        """
        doc = self.get(title, version)
        resolved = self._resolved.get(doc.id)
        if resolved is None:
            resolved = self._resolved[doc.id] = self._flatten(doc)
        return resolved

    def _flatten(self, doc: SchemaDoc) -> ResolvedSchema:
        chain = [doc]
        seen = {(doc.title, doc.linear_version)}
        current = doc
        while current.parent is not None:
            _, parent_title, parent_version = parse_id(current.parent)
            current = self.get(parent_title, parent_version)
            key = (current.title, current.linear_version)
            if key in seen:
                raise RegistryError(f"inheritance cycle through {current.id}")
            seen.add(key)
            chain.append(current)
        properties: dict[str, PropertyDef] = {}
        required: list[str] = []
        overrides: list[str] = []
        for ancestor in reversed(chain):
            for name, prop in ancestor.properties:
                if name in properties:
                    overrides.append(name)
                properties[name] = prop
            for name in ancestor.required:
                if name not in required:
                    required.append(name)
        for name in required:
            if name not in properties:
                raise RegistryError(f"{doc.id}: required property {name!r} is not declared")
        return ResolvedSchema(doc, properties, tuple(required), tuple(overrides))

    def resolve_ref(self, ref_title: str) -> ResolvedSchema:
        """References always point at the latest version of the named schema."""
        if self._kind(ref_title) != "object":
            raise RegistryError(f"$ref target {ref_title!r} is not an object schema")
        return self.resolve(ref_title)

    # -- consistency checks ----------------------------------------------

    def _check_doc(self, doc: SchemaDoc, acyclic: set[str] | None = None) -> None:
        # `acyclic` holds titles whose $ref graph was walked without a cycle;
        # load_repo shares one set across its documents, so it walks each title once
        if doc.parent is not None:
            parent_kind, parent_title, parent_version = parse_id(doc.parent)
            if parent_kind != doc.kind or self._kind(parent_title) not in (None, doc.kind):
                raise RegistryError(f"{doc.id}: parent must be another {doc.kind} schema")
            parent = self.get(parent_title, parent_version)  # raises if missing
            if parent.is_tombstone():
                raise RegistryError(f"{doc.id}: parent {doc.parent} is tombstoned")
        for path, ref in _iter_refs(doc):
            ref_kind = self._kind(ref)
            if ref_kind is None:
                raise RegistryError(f"{doc.id}: {path}: reference to unknown schema {ref!r}")
            if ref_kind != "object":
                raise RegistryError(f"{doc.id}: {path}: references must target object schemas")
        self.resolve(doc.title, doc.linear_version)  # required-list and cycle checks
        self._check_ref_acyclic(doc.title, set() if acyclic is None else acyclic)

    def _check_ref_acyclic(self, start: str, done: set[str]) -> None:
        # edges at title granularity, across all stored versions; every
        # title walked without meeting a cycle is added to `done`
        visiting: set[str] = set()

        def visit(title: str) -> None:
            if title in done:
                return
            if title in visiting:
                raise RegistryError(f"reference cycle through {title!r}")
            visiting.add(title)
            for doc in self._schemas.get(title, ()):
                for _, ref in _iter_refs(doc):
                    if ref in self._schemas:
                        visit(ref)
            visiting.discard(title)
            done.add(title)

        visit(start)

    # -- mutations -------------------------------------------------------

    def register_version(self, title: str, body: dict, kind: str | None = None) -> int:
        """Store the next linear version of a title; 0 when the title is new."""
        existing = self._schemas.get(title)
        if existing is None:
            if kind is None:
                raise RegistryError(f"new title {title!r} needs a kind (event or object)")
            if kind not in KINDS:
                raise RegistryError(f"unknown kind {kind!r}")
            version = 0
        else:
            if kind is not None and kind != existing[0].kind:
                raise RegistryError(f"{title!r} is an {existing[0].kind} schema, not {kind}")
            kind = existing[0].kind
            version = len(existing)
        expected_id = make_id(kind, title, version)
        body = dict(body)
        body.setdefault("id", expected_id)
        body.setdefault("title", title)
        doc = _parse_doc(body, kind, where=title)
        if doc.id != expected_id:
            raise RegistryError(f"{title!r}: id must be {expected_id}, got {doc.id}")
        if doc.title != title:
            raise RegistryError(f"body title {doc.title!r} does not match {title!r}")
        if existing:
            if _same_body(existing[-1], doc):
                raise RegistryError(f"{title!r}: no change against version {version - 1}")
        self._store(doc)
        try:
            self._check_doc(doc)
        except Exception:
            docs = self._schemas[title]
            docs.pop()
            if not docs:
                del self._schemas[title]
            self._resolved.pop(doc.id, None)
            self._checkers.clear()
            raise
        return version

    def tombstone(self, title: str) -> int:
        latest = self.get(title)
        if latest.is_tombstone():
            raise RegistryError(f"{title!r} is already tombstoned")
        return self.register_version(title, {"properties": {}})

    def tag_release(
        self, breaking_since_last: bool = False, major_override: bool = False, now: datetime | None = None
    ) -> ReleaseTag:
        from datetime import datetime, timezone  # only tagging needs the clock

        if not self._schemas:
            raise RegistryError("cannot tag an empty registry")
        major, minor, patch = (0, 0, 0)
        if self.releases:
            last = self.releases[-1]
            major, minor, patch = last.major, last.minor, last.patch
        if major_override:
            major, minor, patch = major + 1, 0, 0
        elif breaking_since_last:
            minor, patch = minor + 1, 0
        else:
            patch += 1
        stamp = (now or datetime.now(timezone.utc)).isoformat()
        snapshot = tuple((title, len(docs) - 1) for title, docs in sorted(self._schemas.items()))
        tag = ReleaseTag(major, minor, patch, snapshot, stamp)
        self.releases.append(tag)
        return tag

    def _store(self, doc: SchemaDoc) -> None:
        docs = self._schemas.setdefault(doc.title, [])
        if doc.linear_version < len(docs):
            raise RegistryError(f"{doc.id} registered twice")
        if doc.linear_version != len(docs):
            raise RegistryError(f"{doc.title!r}: versions must be contiguous, got {doc.linear_version}")
        docs.append(doc)
        self._checkers.clear()


def _iter_refs(doc: SchemaDoc):
    def walk(name: str, prop: PropertyDef):
        if prop.kind == "ref":
            yield name, prop.ref_title
        elif prop.kind == "array":
            yield from walk(name + ".items", prop.element)
        elif prop.kind == "compound":
            for child_name, child in prop.children:
                yield from walk(f"{name}.{child_name}", child)

    for name, prop in doc.properties:
        yield from walk(name, prop)


def _same_body(a: SchemaDoc, b: SchemaDoc) -> bool:
    """Full structural equality, descriptions included (used to reject no-ops)."""
    return (
        a.parent == b.parent
        and a.required == b.required
        and a.description == b.description
        and jsonmodel.json_equal(
            {name: d.to_json() for name, d in a.properties},
            {name: d.to_json() for name, d in b.properties},
        )
    )


# -- directory loading and writing --------------------------------------


def read_repo(directory: str | Path) -> dict[Path, bytes]:
    """The bytes of every file the loaders read, keyed in the order they take them.

    `load_repo` reads `<kind>/<slug>/*.json` for each kind and
    `releases.json`; `TransformSet.load` reads what `read_transforms` lists
    under `transforms`.  No other file is read: a deployed repository may
    be a git checkout.
    """
    root = Path(directory)
    return _read_schema_files(root) | read_transforms(root / "transforms")


def _read_schema_files(root: Path) -> dict[Path, bytes]:
    if not root.is_dir():
        raise RegistryError(f"not a directory: {root}")
    files: dict[Path, bytes] = {}
    for kind in KINDS:
        files |= _read_slug_dirs(root / kind, ".json", _file_version)
    releases_file = root / "releases.json"
    if releases_file.exists():
        files[releases_file] = releases_file.read_bytes()
    return files


def read_transforms(directory: str | Path) -> dict[Path, bytes]:
    """The bytes of each `<directory>/<slug>/*.jslt` file, as `read_repo` orders them."""
    return _read_slug_dirs(Path(directory), ".jslt")


def _read_slug_dirs(root: Path, suffix: str, key=None) -> dict[Path, bytes]:
    """The bytes of each `<root>/<slug>/*<suffix>` file: slugs sorted, then each slug's files by `key`."""
    if not root.is_dir():
        return {}
    # os.scandir lists in a third of the time Path.glob takes
    with os.scandir(root) as entries:
        slug_dirs = sorted(entry.path for entry in entries if entry.is_dir())
    files: dict[Path, bytes] = {}
    for slug_dir in slug_dirs:
        with os.scandir(slug_dir) as entries:
            slug_files = sorted((Path(entry.path) for entry in entries if entry.name.endswith(suffix)), key=key)
        for file in slug_files:
            files[file] = file.read_bytes()
    return files


def load_repo(directory: str | Path, files: dict[Path, bytes] | None = None) -> Registry:
    """Load every schema version and the release history from a directory.

    `files` is what `read_repo(directory)` returned, when the caller has
    already read it; otherwise this reads it.
    """
    root = Path(directory)
    if files is None:
        files = _read_schema_files(root)
    registry = Registry()
    docs: list[tuple[Path, SchemaDoc]] = []
    for file, data in files.items():
        parts = file.relative_to(root).parts
        if len(parts) != 3 or parts[0] not in KINDS:
            continue
        kind, slug, _ = parts
        if _file_version(file) < 0:
            raise RegistryError(f"{file}: file name must be <version>.json")
        raw = jsonmodel.read_file(file, jsonmodel.parse_json, RegistryError, data)
        doc = _parse_doc(raw, kind, where=str(file))
        if doc.title != slug_to_title(slug):
            raise RegistryError(f"{file}: title {doc.title!r} does not match directory {slug!r}")
        if doc.linear_version != _file_version(file):
            raise RegistryError(f"{file}: id version {doc.linear_version} does not match file name")
        docs.append((file, doc))
    for file, doc in docs:
        try:
            registry._store(doc)
        except RegistryError as exc:
            raise RegistryError(f"{file}: {exc}") from None
    acyclic: set[str] = set()
    for file, doc in docs:
        try:
            registry._check_doc(doc, acyclic)
        except RegistryError as exc:
            raise RegistryError(f"{file}: {exc}") from None
    releases_file = root / "releases.json"
    if releases_file in files:
        registry.releases = jsonmodel.read_file(releases_file, _parse_releases, RegistryError, files[releases_file])
        for tag in registry.releases:
            for title, version in tag.snapshot:
                if version not in range(len(registry._schemas.get(title, ()))):
                    raise RegistryError(
                        f"{releases_file}: tag {tag.version_string} references missing {title!r} version {version}"
                    )
    return registry


def _file_version(path: Path) -> int:
    """The version that a `<n>.json` file name gives, in ASCII digits; -1 for any other name."""
    stem = path.stem
    return int(stem) if stem.isascii() and stem.isdigit() else -1


def _parse_releases(text: str) -> list[ReleaseTag]:
    raw = jsonmodel.parse_json(text)
    if not isinstance(raw, list):
        raise RegistryError("expected a list of release tags")
    releases: list[ReleaseTag] = []
    for entry in raw:
        try:
            major, minor, patch = (int(part) for part in entry["version"].split("."))
            snapshot = tuple(sorted(entry["snapshot"].items()))
            # titles are object keys, so strings; a version must be an int, not a bool (1.0 parses as 1)
            if any(type(version) is not int for _, version in snapshot):
                raise TypeError
            releases.append(ReleaseTag(major, minor, patch, snapshot, entry["timestamp"]))
        except (KeyError, ValueError, AttributeError, TypeError):
            raise RegistryError(f"malformed release entry: {jsonmodel.dumps(entry)}") from None
    for earlier, later in zip(releases, releases[1:]):
        if (earlier.major, earlier.minor, earlier.patch) >= (later.major, later.minor, later.patch):
            raise RegistryError("release versions must strictly increase")
    return releases


def write_version(directory: str | Path, doc: SchemaDoc) -> Path:
    root = Path(directory)
    target = root / doc.kind / title_to_slug(doc.title) / f"{doc.linear_version}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(doc.render(), encoding="utf-8")
    return target


def write_releases(directory: str | Path, releases: list[ReleaseTag]) -> Path:
    target = Path(directory) / "releases.json"
    target.write_text(jsonmodel.dumps([tag.to_json() for tag in releases], indent=2) + "\n", encoding="utf-8")
    return target
