"""Schema evolution: version diffs, forward transform chains, impact tests.

A diff between two versions of one title is expressed as four operation
kinds: Add, Modify, Remove, and Rename (a Remove plus an Add with the
identical definition).  Anything other than adding an optional property
is a breaking change and needs a forward transform registered for that
step; non-breaking steps get an automatic identity transform.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import NamedTuple

from . import jslt, jsonmodel
from .errors import ChainValidationError, EvolutionError, MissingTransformError, UnsatisfiableError
from .jsonmodel import JsonPath
from .registry import PropertyDef, Registry, parse_id, read_transforms, slug_to_title
from .validator import ValidationTarget, validate

ADD = "Add"
MODIFY = "Modify"
REMOVE = "Remove"
RENAME = "Rename"

MUST_STAY_VALID = "must-stay-valid"
MUST_STAY_INVALID = "must-stay-invalid"


class ChangeOp(NamedTuple):
    kind: str
    path: tuple[str, ...]
    before: str | None = None
    after: str | None = None
    old_name: str | None = None  # Rename only
    new_name: str | None = None
    required_after: bool = False  # Add of a required property is breaking

    def to_json(self) -> dict:
        out: dict = {"op": self.kind, "path": ".".join(self.path)}
        if self.kind == RENAME:
            out["from"] = self.old_name
            out["to"] = self.new_name
        if self.before is not None:
            out["before"] = self.before
        if self.after is not None:
            out["after"] = self.after
        if self.kind == ADD:
            out["required"] = self.required_after
        return out


def _describe(prop: PropertyDef, required: bool | None = None) -> str:
    text = prop.describe()
    if required is True:
        return "required " + text
    if required is False:
        return "optional " + text
    return text


def diff(registry: Registry, title: str, version_a: int, version_b: int) -> list[ChangeOp]:
    """Change operations turning version_a's resolved shape into version_b's."""
    if version_a > version_b:
        raise EvolutionError(f"diff runs forward only: {version_a} > {version_b}")
    old = registry.resolve(title, version_a)
    new = registry.resolve(title, version_b)
    return _diff_level(
        old.properties, new.properties, set(old.required), set(new.required), path=()
    )


def _diff_level(old_props, new_props, old_required, new_required, path) -> list[ChangeOp]:
    top = not path  # requiredness exists only at the top level
    removed: list[tuple[str, PropertyDef]] = []
    ops: list[ChangeOp] = []
    for name, old_def in old_props.items():
        if name not in new_props:
            removed.append((name, old_def))
            continue
        new_def = new_props[name]
        was_required, is_required = name in old_required, name in new_required
        if old_def.kind == "compound" and new_def.kind == "compound":
            ops.extend(
                _diff_level(old_def.child_map(), new_def.child_map(), set(), set(), path + (name,))
            )
            if was_required == is_required:
                continue
        elif old_def.same_definition(new_def) and was_required == is_required:
            continue
        ops.append(
            ChangeOp(
                MODIFY, path + (name,),
                before=_describe(old_def, was_required if top else None),
                after=_describe(new_def, is_required if top else None),
            )
        )
    added = [(name, new_props[name]) for name in new_props if name not in old_props]
    claimed: set[str] = set()
    for old_name, old_def in removed:
        match = None
        for new_name, new_def in added:
            if new_name in claimed:
                continue
            if old_def.same_definition(new_def) and (old_name in old_required) == (new_name in new_required):
                match = new_name
                break
        if match is not None:
            claimed.add(match)
            ops.append(
                ChangeOp(RENAME, path + (old_name,), old_name=old_name, new_name=match,
                         before=_describe(old_def, (old_name in old_required) if top else None))
            )
        else:
            ops.append(
                ChangeOp(REMOVE, path + (old_name,),
                         before=_describe(old_def, (old_name in old_required) if top else None))
            )
    for new_name, new_def in added:
        if new_name in claimed:
            continue
        required = new_name in new_required
        ops.append(
            ChangeOp(ADD, path + (new_name,), after=_describe(new_def, required if top else None),
                     required_after=required)
        )
    return ops


def is_breaking(ops: list[ChangeOp]) -> bool:
    """Everything except adding optional properties breaks consumers."""
    return any(op.kind != ADD or op.required_after for op in ops)


# -- forward transforms --------------------------------------------------


class ChainStep(NamedTuple):
    """One step of a composed chain, with what apply_chain needs after it."""

    from_version: int
    to_version: int
    program: jslt.Program
    schema_id: str | None  # written into the event's `schema`; None when the target declares none
    target: ValidationTarget  # what the step's output is checked against


# ASCII digits only: "٠-to-١.jslt" names no step
_STEP_FILE_RE = re.compile(r"([0-9]+)-to-([0-9]+)\.jslt")


class TransformSet:
    """The forward transforms for one registry, every chain settled at construction.

    `programs` maps (title, from_version) to the program of the step
    from_version -> from_version + 1; a step it leaves out is the identity,
    unless it is breaking, which is a MissingTransformError here.  The set
    is not changed after, so any number of threads may share it; it must
    not be used once its registry changes, whose new versions its chains
    do not show.
    """

    def __init__(self, registry: Registry, programs: dict[tuple[str, int], jslt.Program] | None = None):
        self.registry = registry
        self._programs = dict(programs or {})
        identity = jslt.compile(".")  # the program of every non-breaking step left out
        self._chains: dict[tuple[str, int], tuple[ChainStep, ...]] = {}
        for title in registry.titles():
            steps = tuple(self._chain_step(title, v, identity) for v in range(registry.latest_version(title)))
            for v in range(len(steps) + 1):
                self._chains[(title, v)] = steps[v:]

    @classmethod
    def load(cls, registry: Registry, directory: str | Path, files: dict[Path, bytes] | None = None) -> "TransformSet":
        """Compile each <directory>/<title-slug>/<from>-to-<to>.jslt file.

        A file must name one step of a registered title, from_version ->
        from_version + 1 with to_version no later than the latest, in ASCII
        digits, and no other file may name the same step.  `files` is what
        `read_repo` returned for the repository around `directory`, when
        the caller has already read it; otherwise this reads the files.
        """
        root = Path(directory)
        if files is None:
            files = read_transforms(root)
        titles = set(registry.titles())
        programs: dict[tuple[str, int], jslt.Program] = {}
        for file, data in files.items():
            if file.parent.parent != root:
                continue
            title = slug_to_title(file.parent.name)
            m = _STEP_FILE_RE.fullmatch(file.name)
            if m is None:
                raise EvolutionError(f"{file}: transform files are named <from>-to-<to>.jslt")
            from_version, to_version = int(m[1]), int(m[2])
            if to_version != from_version + 1:
                raise EvolutionError(f"{file}: transforms cover adjacent versions only, not {m[1]} -> {m[2]}")
            if title not in titles or to_version > registry.latest_version(title):
                raise EvolutionError(f"{file}: {title!r} has no version {to_version}")
            if (title, from_version) in programs:
                raise EvolutionError(f"{file}: a second transform for {title!r} {from_version} -> {to_version}")
            programs[(title, from_version)] = jsonmodel.read_file(file, jslt.compile, EvolutionError, data)
        return cls(registry, programs)

    def compose_chain(self, title: str, from_version: int) -> tuple[ChainStep, ...]:
        """The steps carrying events at from_version to the latest version.

        The tuple is shared by every caller and must not be mutated.
        """
        chain = self._chains.get((title, from_version))
        if chain is None:
            self.registry.versions(title)  # UnknownSchemaError for an unknown title
            raise EvolutionError(f"{title!r} has no version {from_version}")
        return chain

    def _chain_step(self, title: str, v: int, identity: jslt.Program) -> ChainStep:
        program = self._programs.get((title, v))
        if program is None:
            if is_breaking(diff(self.registry, title, v, v + 1)):
                raise MissingTransformError(f"{title!r} {v} -> {v + 1} is a breaking step with no registered transform")
            program = identity
        target = self.registry.resolve(title, v + 1)
        schema_id = target.doc.id if "schema" in target.properties else None
        return ChainStep(v, v + 1, program, schema_id, ValidationTarget.explicit(title, v + 1))

    def upgrade(self, event):
        """Carry an event to the latest version of the schema it declares.

        Raises UnknownSchemaError when the declared title is not
        registered and another SemSchemaError for any other failure.
        """
        declared = event.get("schema") if isinstance(event, dict) else None
        if not isinstance(declared, str):
            raise EvolutionError("event carries no schema declaration")
        _, title, version = parse_id(declared)
        return self.apply_chain(event, title, version)

    def apply_chain(self, event, title: str, from_version: int):
        """Run the event through every step up to latest.

        After each step the event's `schema` property is rewritten to the
        step's target id, provided the target schema declares one.  Every
        intermediate result is validated against its version and failures
        raise ChainValidationError.
        """
        for index, step in enumerate(self.compose_chain(title, from_version)):
            event = step.program.evaluate(event)
            if step.schema_id is not None and isinstance(event, dict):
                event = {**event, "schema": step.schema_id}
            mismatches = validate(self.registry, event, step.target)
            if mismatches:
                raise ChainValidationError(
                    f"{title!r} step {step.from_version}->{step.to_version} produced an invalid event",
                    step_index=index,
                    mismatches=mismatches,
                )
        return event

    def verify(self, title: str, seeds: int = 50) -> int:
        """Dynamic transform check: generate at each alive version, chain, validate.

        Returns the number of events pushed through; raises on the first
        failure.
        """
        from . import generator  # imported here so transform and serve never load it

        count = 0
        latest = self.registry.latest_version(title)
        for version in self.registry.versions(title):
            if version == latest or self.registry.get(title, version).is_tombstone():
                continue
            for seed in range(seeds):
                cfg = generator.GenConfig(seed=seed)
                event = generator.generate_valid(self.registry, title, version, cfg)
                self.apply_chain(event, title, version)
                count += 1
        return count


# -- change impact testing ----------------------------------------------


class ConsumerSample:
    """A consumer's fragment that must stay valid (or invalid) under a proposal."""

    __slots__ = ("consumer", "title", "fragment", "polarity")

    def __init__(self, consumer: str, title: str, fragment: tuple, polarity: str = MUST_STAY_VALID):
        if polarity not in (MUST_STAY_VALID, MUST_STAY_INVALID):
            raise EvolutionError(f"unknown sample polarity {polarity!r}")
        self.consumer = consumer
        self.title = title
        self.fragment = fragment  # pairs of (dotted path or JsonPath, value)
        self.polarity = polarity


class ImpactResult(NamedTuple):
    consumer: str
    polarity: str
    passed: bool
    detail: str
    mismatches: tuple = ()

    def to_json(self) -> dict:
        out = {"consumer": self.consumer, "polarity": self.polarity,
               "result": "PASS" if self.passed else "FAIL", "detail": self.detail}
        if self.mismatches:
            out["mismatches"] = [m.to_json() for m in self.mismatches]
        return out


class ImpactReport(NamedTuple):
    title: str
    proposed_version: int
    results: tuple[ImpactResult, ...]

    @property
    def blocked(self) -> bool:
        return any(not r.passed for r in self.results)

    def failing_consumers(self) -> list[str]:
        return [r.consumer for r in self.results if not r.passed]


def change_impact_test(
    registry: Registry,
    title: str,
    proposal_body: dict,
    samples: list[ConsumerSample],
    cfg: generator.GenConfig | None = None,
    kind: str | None = None,
) -> ImpactReport:
    """Decide whether a proposed next version of `title` can ship.

    Each consumer's sample fragment is embedded into an otherwise random
    valid event under the proposed schema.  A must-stay-valid sample that
    can no longer be embedded fails (and would block the change); a
    must-stay-invalid sample that becomes embeddable means the proposal
    is too loose, which also fails.
    """
    from . import generator

    cfg = cfg or generator.GenConfig()
    scratch = registry.clone()
    proposed_version = scratch.register_version(title, proposal_body, kind=kind)
    results = []
    for sample in samples:
        if sample.title != title:
            raise EvolutionError(
                f"sample from {sample.consumer!r} targets {sample.title!r}, not {title!r}"
            )
        sample_cfg = cfg._replace(fragment=tuple(sample.fragment))
        try:
            generator.generate_valid(scratch, title, proposed_version, sample_cfg)
            embeddable, mismatches = True, ()
        except UnsatisfiableError as exc:
            embeddable, mismatches = False, tuple(exc.mismatches)
        if sample.polarity == MUST_STAY_VALID:
            passed = embeddable
            detail = ("sample still fits valid events" if passed
                      else "sample no longer fits any valid event")
        else:
            passed = not embeddable
            detail = ("sample is still rejected" if passed
                      else "too loose: an expected-failure sample became valid")
        results.append(ImpactResult(sample.consumer, sample.polarity, passed, detail, mismatches))
    return ImpactReport(title, proposed_version, tuple(results))


def load_samples(directory: str | Path) -> list[ConsumerSample]:
    """One JSON file per consumer sample:

    {"consumer": "...", "schema": "<title>", "polarity": "...",
     "fragment": {"<dotted path>": <value>, ...}}

    consumer defaults to the file stem, polarity to must-stay-valid.
    """
    return [jsonmodel.read_file(file, functools.partial(_parse_sample, file.stem), EvolutionError)
            for file in sorted(Path(directory).glob("*.json"))]


def _parse_sample(stem: str, text: str) -> ConsumerSample:
    raw = jsonmodel.parse_json(text)
    if not isinstance(raw, dict) or not isinstance(raw.get("fragment"), dict):
        raise EvolutionError("expected an object with a fragment mapping")
    unknown = set(raw) - {"consumer", "schema", "polarity", "fragment"}
    if unknown:
        raise EvolutionError(f"unknown fields {sorted(unknown)}")
    try:
        fragment = tuple((JsonPath.parse(path), value) for path, value in raw["fragment"].items())
    except ValueError as exc:  # a path that does not parse
        raise EvolutionError(str(exc)) from None
    return ConsumerSample(raw.get("consumer", stem), raw.get("schema", ""), fragment,
                          raw.get("polarity", MUST_STAY_VALID))
