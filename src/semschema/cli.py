"""Unified command line tool.

Subcommands: schema (load/show/tombstone/tag), validate, generate,
diff, transform, impact-test, jslt, dqt, serve.  Primary output goes to
stdout as NDJSON; diagnostics go to stderr as NDJSON.  Exit code 0 means
success, 1 means the command ran but found failures (invalid events,
blocked proposal), 2 means bad usage or broken inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import sys
from pathlib import Path

from . import jsonmodel
from .errors import SemSchemaError

# Every other module is imported by the commands that use it, so that a
# command loads only what it runs; registry and validator are called
# through their module attributes.  A command loads its repository first:
# compiled from source, registry.py is the largest module, and compiling
# it before the others keeps the command's peak memory down.


def _out(value) -> None:
    sys.stdout.write(jsonmodel.dumps(value) + "\n")


def _diag(value) -> None:
    sys.stderr.write(jsonmodel.dumps(value) + "\n")


def _open(path: str, mode: str = "r"):
    """A UTF-8 text stream on `path`; "-" is stdin or stdout, left open on exit.

    Input bytes that are not UTF-8 arrive as lone surrogates, so that
    iter_ndjson fails only the lines holding them.
    """
    if path != "-":
        return open(path, mode, encoding="utf-8", errors="surrogateescape" if mode == "r" else None)
    if mode != "r":
        return contextlib.nullcontext(sys.stdout)
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    return contextlib.nullcontext(sys.stdin)


def _each_line(path: str, handle) -> int:
    """Run `handle` on each NDJSON value in `path`; the exit code is 1 if a line failed.

    `handle` returns the line's diagnostics, empty or None when it passed.
    A line that does not parse, or whose handler raises SemSchemaError or
    ValueError (an output that cannot be written included), gets one
    {"line", "error"} diagnostic, and the lines after it still run.
    """
    failed = False
    with _open(path) as stream:
        for lineno, value, error in jsonmodel.iter_ndjson(stream):
            try:
                problems = handle(value) if error is None else [{"error": str(error)}]
            except (SemSchemaError, ValueError) as exc:
                problems = [{"error": str(exc)}]
            for problem in problems or ():
                _diag({"line": lineno, **problem})
            failed = failed or bool(problems)
    return 1 if failed else 0


def _load_repo(directory):
    from . import registry

    return registry.load_repo(directory)


# -- schema ---------------------------------------------------------------


def cmd_schema_load(args) -> int:
    registry = _load_repo(args.directory)
    for title in sorted(registry.titles()):
        _out(
            {
                "title": title,
                "kind": registry.kind_of(title),
                "versions": registry.versions(title),
                "latest": registry.latest_version(title),
                "tombstoned": registry.get(title).is_tombstone(),
            }
        )
    if registry.releases:
        _out({"release": registry.releases[-1].version_string})
    return 0


def cmd_schema_show(args) -> int:
    registry = _load_repo(args.repo)
    from .validator import parse_target

    target = parse_target(args.schema)
    if args.resolved:
        resolved = registry.resolve(target.title, target.version)
        sys.stdout.write(
            jsonmodel.dumps(
                {
                    "id": resolved.doc.id,
                    "title": target.title,
                    "kind": registry.kind_of(target.title),
                    "required": list(resolved.required),
                    "overrides": list(resolved.overrides),
                    "properties": {name: p.to_json() for name, p in resolved.properties.items()},
                },
                indent=2,
            )
            + "\n"
        )
    else:
        doc = registry.get(target.title, target.version)
        sys.stdout.write(jsonmodel.dumps(doc.body(), indent=2) + "\n")
    return 0


def cmd_schema_tombstone(args) -> int:
    registry = _load_repo(args.repo)
    from .registry import title_to_slug, write_version

    version = registry.tombstone(args.title)
    path = write_version(args.repo, registry.get(args.title, version))
    # Retiring drops every property, a breaking step: ship its transform so the
    # repository still loads, keeping one already written for the step.
    transform = Path(args.repo) / "transforms" / title_to_slug(args.title) / f"{version - 1}-to-{version}.jslt"
    transform.parent.mkdir(parents=True, exist_ok=True)
    if not transform.exists():
        transform.write_text("{}\n", encoding="utf-8")
    _out({"title": args.title, "version": version, "file": str(path), "transform": str(transform)})
    return 0


def cmd_schema_tag(args) -> int:
    registry = _load_repo(args.repo)
    from .registry import write_releases

    tag = registry.tag_release(breaking_since_last=args.breaking, major_override=args.major)
    path = write_releases(args.repo, registry.releases)
    _out({"release": tag.version_string, "file": str(path)})
    return 0


# -- events ---------------------------------------------------------------


def cmd_validate(args) -> int:
    registry = _load_repo(args.repo)
    from . import validator

    target = validator.ValidationTarget.latest() if args.latest else validator.parse_target(args.schema)
    if target.title is not None:
        registry.resolve(target.title, target.version)  # fail fast on unknown schema

    def check(event):
        return [mismatch.to_json() for mismatch in validator.validate(registry, event, target)]

    return _each_line(args.events, check)


def cmd_generate(args) -> int:
    registry = _load_repo(args.repo)
    from . import generator
    from .validator import parse_target

    target = parse_target(args.schema)
    for offset in range(args.count):
        cfg = generator.GenConfig(seed=args.seed + offset)
        _out(generator.generate_valid(registry, target.title, target.version, cfg))
    return 0


def cmd_diff(args) -> int:
    registry = _load_repo(args.repo)
    from . import evolution

    ops = evolution.diff(registry, args.title, args.version_a, args.version_b)
    for op in ops:
        _out(op.to_json())
    _out({"breaking": evolution.is_breaking(ops)})
    return 0


def cmd_transform(args) -> int:
    registry = _load_repo(args.repo)
    from . import evolution

    transforms = evolution.TransformSet.load(registry, Path(args.repo) / "transforms")
    return _each_line(args.events, lambda event: _out(transforms.upgrade(event)))


def cmd_impact_test(args) -> int:
    registry = _load_repo(args.repo)
    from . import evolution, generator

    proposal = jsonmodel.read_file(args.proposal, jsonmodel.parse_json, SemSchemaError)
    if not isinstance(proposal, dict) or not isinstance(proposal.get("title"), str):
        raise SemSchemaError(f"{args.proposal}: proposal file must be a schema document with a title")
    title = proposal["title"]
    kind = registry.kind_of(title) if title in registry.titles() else "event"
    samples = [s for s in evolution.load_samples(args.samples) if s.title == title]
    if not samples:
        raise SemSchemaError(f"no samples for {title!r} in {args.samples}")
    report = evolution.change_impact_test(
        registry, title, proposal, samples, cfg=generator.GenConfig(seed=args.seed), kind=kind
    )
    for result in report.results:
        _out(result.to_json())
    _out({"title": report.title, "proposed_version": report.proposed_version, "blocked": report.blocked,
          "failing": report.failing_consumers()})
    return 1 if report.blocked else 0


def cmd_jslt_run(args) -> int:
    from . import jslt

    program = jsonmodel.read_file(args.program, jslt.compile, SemSchemaError)
    return _each_line(args.input, lambda value: _out(program.evaluate(value)))


def cmd_dqt_run(args) -> int:
    from . import dqt

    modules = dqt.load_modules(args.modules)
    sampler = dqt.Sampler(rate=args.rate, strategy=args.strategy, seed=args.seed)
    registry = _load_repo(args.repo) if args.repo else None
    with _open("-" if args.sink == "stdout" else args.sink, "w") as out, _open(args.events) as stream:
        summary = dqt.run_stream(
            modules,
            dqt.events_from_ndjson(stream),
            sampler=sampler,
            sink=dqt.NdjsonSink(out),
            registry=registry,
            window=args.window,
        )
    _diag(summary.to_json())
    return 0


def cmd_serve(args) -> int:
    from .server import ServerConfig, serve

    cfg = ServerConfig(
        directory=args.repo, host=args.host, port=args.port, read_only=not args.writable
    )
    serve(cfg)
    return 0


# -- parser ---------------------------------------------------------------


COMMANDS = ("schema", "validate", "generate", "diff", "transform", "impact-test", "jslt", "dqt", "serve")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, or of every command when it names none.

    Either way its usage errors name every command.
    """
    parser = argparse.ArgumentParser(prog="semschema", description=__doc__)
    only = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}" if only else None
    )
    wanted = (command,) if only else COMMANDS

    if "schema" in wanted:
        schema = sub.add_parser("schema", help="inspect and update a schema repository")
        schema_sub = schema.add_subparsers(dest="schema_command", required=True)

        load = schema_sub.add_parser("load", help="load a repository and list its schemas")
        load.add_argument("directory")
        load.set_defaults(handler=cmd_schema_load)

        show = schema_sub.add_parser("show", help="print one schema version")
        show.add_argument("schema", metavar="title[@version]")
        show.add_argument("--repo", required=True)
        show.add_argument("--resolved", action="store_true", help="print the inherited view")
        show.set_defaults(handler=cmd_schema_show)

        tombstone = schema_sub.add_parser("tombstone", help="retire a schema")
        tombstone.add_argument("title")
        tombstone.add_argument("--repo", required=True)
        tombstone.set_defaults(handler=cmd_schema_tombstone)

        tag = schema_sub.add_parser("tag", help="cut a release tag")
        tag.add_argument("--repo", required=True)
        tag.add_argument("--breaking", action="store_true", help="breaking change since last tag")
        tag.add_argument("--major", action="store_true", help="major platform revision")
        tag.set_defaults(handler=cmd_schema_tag)

    if "validate" in wanted:
        val = sub.add_parser("validate", help="validate NDJSON events")
        val.add_argument("events", metavar="events.ndjson")
        val.add_argument("--repo", required=True)
        target = val.add_mutually_exclusive_group()
        target.add_argument("--schema", metavar="title[@version]", help="validate against this schema")
        target.add_argument("--latest", action="store_true", help="force each event's schema to latest")
        target.add_argument("--self", action="store_true", dest="self_mode",
                            help="use each event's declared schema (default)")
        val.set_defaults(handler=cmd_validate)

    if "generate" in wanted:
        gen = sub.add_parser("generate", help="generate random valid events")
        gen.add_argument("--repo", required=True)
        gen.add_argument("--schema", metavar="title[@version]", required=True)
        gen.add_argument("--count", type=int, default=1)
        gen.add_argument("--seed", type=int, default=0)
        gen.set_defaults(handler=cmd_generate)

    if "diff" in wanted:
        dif = sub.add_parser("diff", help="list change operations between two versions")
        dif.add_argument("title")
        dif.add_argument("version_a", type=int)
        dif.add_argument("version_b", type=int)
        dif.add_argument("--repo", required=True)
        dif.set_defaults(handler=cmd_diff)

    if "transform" in wanted:
        tra = sub.add_parser("transform", help="bring NDJSON events to the latest schema version")
        tra.add_argument("events", metavar="events.ndjson")
        tra.add_argument("--repo", required=True)
        tra.add_argument("--to-latest", action="store_true", help="accepted for clarity; the default")
        tra.set_defaults(handler=cmd_transform)

    if "impact-test" in wanted:
        imp = sub.add_parser("impact-test", help="test a schema proposal against consumer samples")
        imp.add_argument("--repo", required=True)
        imp.add_argument("--proposal", required=True, help="proposed schema document (JSON)")
        imp.add_argument("--samples", required=True, help="directory of consumer sample files")
        imp.add_argument("--seed", type=int, default=0)
        imp.set_defaults(handler=cmd_impact_test)

    if "jslt" in wanted:
        jsl = sub.add_parser("jslt", help="run transformation programs")
        jslt_sub = jsl.add_subparsers(dest="jslt_command", required=True)
        run = jslt_sub.add_parser("run", help="apply a program to NDJSON input")
        run.add_argument("program", metavar="program-file")
        run.add_argument("--input", default="-", help="NDJSON file or - for stdin")
        run.set_defaults(handler=cmd_jslt_run)

    if "dqt" in wanted:
        dq = sub.add_parser("dqt", help="streaming data-quality checks")
        dqt_sub = dq.add_subparsers(dest="dqt_command", required=True)
        dqrun = dqt_sub.add_parser("run", help="run check modules over an event stream")
        dqrun.add_argument("--modules", required=True, help="directory of check module files")
        dqrun.add_argument("--rate", type=float, default=0.01)
        dqrun.add_argument("--strategy", choices=("hash", "random"), default="hash")
        dqrun.add_argument("--seed", type=int, default=0)
        dqrun.add_argument("--events", default="-", help="NDJSON file or - for stdin")
        dqrun.add_argument("--sink", default="stdout", help="metric output file or stdout")
        dqrun.add_argument("--repo", help="also validate sampled events against this repository")
        dqrun.add_argument("--window", help="window label stamped on metric lines")
        dqrun.set_defaults(handler=cmd_dqt_run)

    if "serve" in wanted:
        srv = sub.add_parser("serve", help="serve the schema repository over HTTP")
        srv.add_argument("--repo", required=True)
        srv.add_argument("--host", default="127.0.0.1")
        srv.add_argument("--port", type=int, default=8080)
        srv.add_argument("--writable", action="store_true", help="allow POST /reload")
        srv.set_defaults(handler=cmd_serve)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except SemSchemaError as exc:
        _diag({"error": str(exc)})
        return 2
    except OSError as exc:
        _diag({"error": str(exc)})
        return 2
    except KeyboardInterrupt:
        return 130


def run() -> int:
    """The process entry point: `semschema` and `python -m semschema.cli`.

    main() itself never freezes the heap: tests and tracers call it in
    process, and their heap lives on after it returns.
    """
    try:
        return main()
    finally:
        # What main built stays alive until the process ends, so the final
        # collection would walk it only to find it alive; frozen, it is
        # skipped.  That is safe because every file a command writes is
        # closed by its `with` before main returns, so no flush waits on a
        # finalizer, and the interpreter flushes stdout and stderr itself.
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
