"""Traced runs: spans around each semschema module's public callables.

Run a semschema entry point with tracing on:

    python perfbench/tracer.py SPANS.json cli validate events.ndjson --repo ...
    python perfbench/tracer.py SPANS.json script perfbench/evo_child.py plan.json

Before the entry point runs, `install` wraps the public callables of every
module and rebinds the names that caller modules imported (cli.validate,
dqt.validate, Registry.resolve, Program.evaluate, ...).  Nothing under
src/ is edited.  Each call records a span [name, start, end, parent] in a
per-thread list; the lists and a few counters are written to SPANS.json
when the entry point returns; SIGTERM ends `serve` the way Ctrl-C does, so
its spans are written too.

`summarize` (used by run.py) turns a spans file into self times per span
name: a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lists: list[list] = []
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {}

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # spans, stack of open span indices
            self._local.state = state
            with self._lock:
                self._lists.append(state[0])
        return state

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, rename=None):
        """`rename(result)` may return a new span name once the call returns."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if rename is not None:
                span[0] = rename(result)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        with self._lock:
            lists = [list(spans) for spans in self._lists]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"threads": lists, "counts": self.counts, **extra}, handle)


def _rebind(tracer: Tracer, name: str, owners: list, attr: str, rename=None) -> None:
    original = getattr(owners[0], attr)
    traced = tracer.wrap(name, original, rename)
    for owner in owners:
        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    from semschema import cli, dqt, evolution, generator, jslt, jsonmodel, pattern, registry, server, validator

    _rebind(tracer, "jsonmodel.parse_json", [jsonmodel, evolution], "parse_json")
    _rebind(tracer, "jsonmodel.dumps", [jsonmodel, validator], "dumps")
    init = jsonmodel.JsonPath.__init__

    def counting_init(self, *args, **kwargs):
        tracer.count("jsonmodel.JsonPath.created")
        init(self, *args, **kwargs)

    jsonmodel.JsonPath.__init__ = counting_init

    _rebind(tracer, "registry.load_repo", [registry, cli, server], "load_repo")
    _rebind(tracer, "registry.resolve", [registry.Registry], "resolve")

    def validate_name(result):
        tracer.count("validator.mismatches", len(result))
        return "validator.validate.invalid" if result else "validator.validate.valid"

    _rebind(tracer, "validator.validate", [validator, cli, dqt, server, evolution, generator], "validate", validate_name)
    _rebind(tracer, "pattern.search", [pattern.CompiledPattern], "search")
    _rebind(tracer, "pattern.generate", [pattern.CompiledPattern], "generate")
    _rebind(tracer, "generator.generate_valid", [generator, cli, evolution], "generate_valid")
    _rebind(tracer, "jslt.compile", [jslt], "compile")
    _rebind(tracer, "jslt.evaluate", [jslt.Program], "evaluate")
    _rebind(tracer, "evolution.apply_chain", [evolution.TransformSet], "apply_chain")
    _rebind(tracer, "evolution.compose_chain", [evolution.TransformSet], "compose_chain")
    _rebind(tracer, "evolution.diff", [evolution, cli], "diff")
    _rebind(tracer, "dqt.sample", [dqt.Sampler], "keep")
    _rebind(tracer, "dqt.run_check", [dqt], "run_check")
    _rebind(tracer, "dqt.emit", [dqt.NdjsonSink], "emit")
    _rebind(tracer, "cli.emit", [cli], "_out")
    _rebind(tracer, "cli.emit", [cli], "_diag")

    routes = {"/health": "health", "/validate": "validate", "/transform": "transform", "/reload": "reload"}

    def route_of(handler) -> str:
        return routes.get(handler.path, "schema" if handler.path.startswith("/schemas/") else "other")

    for method in ("do_GET", "do_POST"):
        original = getattr(server._Handler, method)
        by_route = {r: tracer.wrap("server." + r, original) for r in ("health", "validate", "transform", "reload", "schema", "other")}

        def routed(handler, _by_route=by_route):
            return _by_route[route_of(handler)](handler)

        setattr(server._Handler, method, routed)


def main(argv: list[str]) -> int:
    out, mode, rest = argv[0], argv[1], argv[2:]

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    tracer = Tracer()
    install(tracer)
    from semschema import pattern

    started = time.perf_counter()
    try:
        if mode == "cli":
            from semschema import cli

            code = cli.main(rest)
        else:
            import runpy

            sys.argv = rest
            code = 0
            try:
                runpy.run_path(rest[0], run_name="__main__")
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        sys.stdout.flush()
        info = pattern.compile_pattern.cache_info()
        tracer.dump(out, {"wall_s": time.perf_counter() - started,
                          "compile_cache": {"hits": info.hits, "misses": info.misses}})
    return code


# -- analysis (runs in the benchmark process) --------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def summarize(path: str) -> dict:
    """{name: {"calls", "self_s", "total_s", "durations"}} plus the raw counters."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    by_name: dict[str, dict] = {}
    for spans in data["threads"]:
        for span, own in zip(spans, self_times(spans)):
            if span[2] == 0.0:  # still open when the process was stopped
                continue
            entry = by_name.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span[2] - span[1]
            entry["durations"].append(span[2] - span[1])
    return {"spans": by_name, "counts": data["counts"], "compile_cache": data["compile_cache"], "wall_s": data["wall_s"]}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
