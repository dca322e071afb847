"""semschema benchmark: five workloads that drive the real entry points.

    python3 perfbench/run.py --workload validate-mixed --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Run it from a checkout of the repository; it needs only the standard
library and src/.  The file workloads run `python -m semschema.cli ...`
in a fresh child process per command, because `jslt.compile` raises the
recursion limit for the whole interpreter and a shared one would let one
workload change another.  evolution-ci runs evo_child.py in a fresh
interpreter; serve-mixed starts `semschema serve` and drives it over
HTTP from this process.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run (see
tracer.py) plus the tracing overhead.  The line before it is a report:
the stamp (Python, nproc, git SHA, seed, run length), the workload's
reason and traffic properties, sample counts and failed_ops_share.
Inputs, outputs and spans go under .bench_cache/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
STREAMS = 2  # concurrent commands per round: both CPUs busy with this benchmark's own work
SETUP_ROUNDS = 3
SERVE_SPAWNS = 5
# Phase A (open loop) rate.  With two connections each one idles 2 / rate
# between requests.  At 16/s (125 ms) every trial stayed in the fast mode;
# at 30/s some runs fell into the ~44 ms keep-alive stall (headers and body
# leave in two writes and the client delays its ACK) and others did not.
# Even in the fast mode the phase A tail (about 2 ms) followed host jitter:
# its p90 spread 0.74 (interquartile range over median) across 10 seeds.
# So the latency metrics come from phase B (closed loop), where every
# request pays the stall and p50 and p90 repeat within 1%; phase A's own
# percentiles go to the report.
OPEN_LOOP_RPS = 16.0
OPEN_SHARE = 0.5



def workload_reasons() -> dict[str, str]:
    """Workload name -> why, from BENCHMARK.json beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"]: w["why"] for w in spec["workloads"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Client of launcher.py, which spawns and reaps every command under test."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Child:
    """A command under test; its output goes to files, its rusage comes from wait4."""

    launcher: Launcher  # set by main()
    counter = 0

    def __init__(self, argv: list[str], scratch: Path):
        Child.counter += 1
        self.out_path = scratch / f"c{Child.counter}.out"
        self.err_path = scratch / f"c{Child.counter}.err"
        reply = Child.launcher.call({"spawn": argv, "out": str(self.out_path), "err": str(self.err_path)})
        self.pid, self.started = reply["pid"], reply["started"]
        self.wall = self.rss_mb = 0.0
        self.code = None
        self.setup_s = None  # evolution-ci: load time as the child reports it

    @staticmethod
    def wait_all(children: list["Child"], timeout: float = 170.0) -> None:
        results = Child.launcher.call({"wait": [c.pid for c in children], "timeout": timeout})
        for child in children:
            result = results[str(child.pid)]
            child.wall = result["ended"] - child.started
            child.code = result["code"]
            child.rss_mb = result["maxrss_kb"] / 1024.0

    def wait(self, timeout: float = 170.0) -> "Child":
        Child.wait_all([self], timeout)
        return self

    def outputs(self) -> tuple[str, str]:
        out = self.out_path.read_text(encoding="utf-8", errors="replace")
        err = self.err_path.read_text(encoding="utf-8", errors="replace")
        self.out_path.unlink()
        self.err_path.unlink()
        return out, err


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed or not self.notes:
            self.notes.append(note)


# -- file workloads and evolution-ci -----------------------------------------


def command(workload: str, corpus_dir: Path, empty: Path | None = None) -> list[str]:
    import corpus

    py = sys.executable
    events = str(empty or corpus_dir / "events.ndjson")
    if workload == "validate-mixed":
        return [py, "-m", "semschema.cli", "validate", events, "--repo", str(corpus.REPO)]
    if workload == "transform-history":
        return [py, "-m", "semschema.cli", "transform", events, "--repo", str(corpus.REPO)]
    if workload == "dqt-checks":
        return [py, "-m", "semschema.cli", "dqt", "run", "--modules", str(corpus.CHECKS), "--rate", "1.0", "--events", events]
    return [py, str(BENCH / "evo_child.py"), str(corpus_dir / "plan.json")]


def traced(argv: list[str], spans: Path) -> list[str]:
    if argv[1] == "-m":
        return [argv[0], str(BENCH / "tracer.py"), str(spans), "cli"] + argv[3:]
    return [argv[0], str(BENCH / "tracer.py"), str(spans), "script"] + argv[1:]


def run_round(workload: str, argvs: list[list[str]], expect, scratch: Path, tally: Tally) -> tuple[list[Child], float]:
    """Start the commands together, wait for all of them, check each output."""
    import checks

    children = [Child(argv, scratch) for argv in argvs]
    Child.wait_all(children)
    elapsed = max(c.started + c.wall for c in children) - min(c.started for c in children)
    for child in children:
        out, err = child.outputs()
        if expect is None:
            continue
        tally.add(*checks.CHECKERS[workload](expect, out, err, child.code))
        if workload == "evolution-ci" and child.code == 0:
            child.setup_s = json.loads(out.splitlines()[-1])["setup_s"]
    return children, elapsed


def rounds(workload, make_argvs, expect, scratch, tally, seconds: float, minimum: int) -> list:
    out = []
    until = time.perf_counter() + seconds
    while len(out) < minimum or time.perf_counter() < until:
        out.append(run_round(workload, make_argvs(len(out)), expect, scratch, tally))
    return out


def run_file_workload(workload: str, data: dict, seconds: float, trace: bool, scratch: Path) -> dict:
    """Closed loop of STREAMS concurrent commands per round, each over the whole corpus."""
    corpus_dir = Path(data["dir"])
    expect = data["expect"]
    events = expect["events"]
    tally = Tally()
    argv = command(workload, corpus_dir)

    def mean_walls(done):
        # one sample per round: on a shared 2-CPU host the two CPUs often
        # run at different speeds, so per-command times split into a fast
        # and a slow half, and their median jumps between the halves from
        # run to run; the round mean does not
        return [statistics.fmean(c.wall for c in children) for children, _ in done]

    def rates(done):
        return [events / wall for wall in mean_walls(done)]

    if not trace:
        # set-up rounds at the start, middle and end of the run, so that
        # their median sees the same host conditions as the measurement
        empty = scratch / "empty.ndjson"
        empty.write_text("")
        idle = [command(workload, corpus_dir, empty)] * STREAMS
        setup_rounds, measured = [], []
        for part in range(SETUP_ROUNDS):
            if workload != "evolution-ci":
                setup_rounds += rounds(workload, lambda _: idle, None, scratch, tally, 0, 1)
            if part < SETUP_ROUNDS - 1:
                measured += rounds(workload, lambda _: [argv] * STREAMS, expect, scratch, tally,
                                   seconds / (SETUP_ROUNDS - 1), 2)
        setups = [c.wall for children, _ in setup_rounds for c in children]
        commands = [c for children, _ in measured for c in children]
        if workload == "evolution-ci":
            setups = [c.setup_s for c in commands if c.setup_s is not None]
        walls = [wall * 1000 for wall in mean_walls(measured)]
        metrics = {
            "events_per_s": (statistics.median(rates(measured)), "1/s"),
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in commands), "MB"),
            "latency_p50_ms": (quantile(walls, 50), "ms"),
            "latency_p90_ms": (quantile(walls, 90), "ms"),
            "saturated_rps": (statistics.median(STREAMS * events / elapsed for _, elapsed in measured), "1/s"),
        }
        samples = {"rounds": len(measured), "commands": len(commands), "streams": STREAMS,
                   "setup_runs": len(setups), "events_per_command": events}
        return {"metrics": metrics, "samples": samples, "tally": tally}

    plain = rounds(workload, lambda _: [argv] * STREAMS, expect, scratch, tally, seconds / 2, 2)

    def with_spans(index):
        return [traced(argv, scratch / f"spans-{index}-{i}.json") for i in range(STREAMS)]

    spanned = rounds(workload, with_spans, expect, scratch, tally, seconds / 2, 1)
    import tracer

    layers = layer_metrics(tracer.summarize(str(scratch / "spans-0-0.json")), events)
    layers["bench.tracing_overhead"] = (statistics.median(rates(spanned)) / statistics.median(rates(plain)), "ratio")
    samples = {"untraced_rounds": len(plain), "traced_rounds": len(spanned), "streams": STREAMS, "events_per_command": events}
    return {"metrics": layers, "samples": samples, "tally": tally}


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(summary: dict, events: int) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def p50_ms(name):
        d = spans.get(name, {}).get("durations")
        return statistics.median(d) * 1000 if d else 0.0

    cache = summary["compile_cache"]
    lookups = cache["hits"] + cache["misses"]
    m = {
        "jsonmodel.parse_json.calls": (calls("jsonmodel.parse_json"), "count"),
        "jsonmodel.parse_json.self_s": (self_s("jsonmodel.parse_json"), "s"),
        "jsonmodel.dumps.self_s": (self_s("jsonmodel.dumps"), "s"),
        "jsonmodel.JsonPath.created_per_event": (counts.get("jsonmodel.JsonPath.created", 0) / events, "count"),
        "registry.load_repo.s": (p50_ms("registry.load_repo") / 1000, "s"),
        "registry.resolve.calls_per_event": (calls("registry.resolve") / events, "count"),
        "registry.resolve.self_s": (self_s("registry.resolve"), "s"),
        "validator.validate.calls": (calls("validator.validate.valid") + calls("validator.validate.invalid"), "count"),
        "validator.validate.valid.self_s": (self_s("validator.validate.valid"), "s"),
        "validator.validate.invalid.self_s": (self_s("validator.validate.invalid"), "s"),
        "validator.mismatches": (counts.get("validator.mismatches", 0), "count"),
        "pattern.search.calls": (calls("pattern.search"), "count"),
        "pattern.search.self_s": (self_s("pattern.search"), "s"),
        "pattern.generate.self_s": (self_s("pattern.generate"), "s"),
        "pattern.compile_cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "generator.generate_valid.calls": (calls("generator.generate_valid"), "count"),
        "generator.generate_valid.self_s": (self_s("generator.generate_valid"), "s"),
        "jslt.compile.calls": (calls("jslt.compile"), "count"),
        "jslt.compile.self_s": (self_s("jslt.compile"), "s"),
        "jslt.evaluate.calls": (calls("jslt.evaluate"), "count"),
        "jslt.evaluate.self_s": (self_s("jslt.evaluate"), "s"),
        "evolution.apply_chain.self_s": (self_s("evolution.apply_chain"), "s"),
        "evolution.compose_chain.self_s": (self_s("evolution.compose_chain"), "s"),
        "evolution.diff.calls": (calls("evolution.diff"), "count"),
        "dqt.sample.self_s": (self_s("dqt.sample"), "s"),
        "dqt.run_check.self_s": (self_s("dqt.run_check"), "s"),
        "dqt.emit.self_s": (self_s("dqt.emit"), "s"),
        "dqt.counters": (calls("dqt.emit"), "count"),
        # a cli.emit span's only children are the dumps calls it makes
        "cli.emit.self_s": (spans.get("cli.emit", {}).get("total_s", 0.0), "s"),
    }
    for route in ("validate", "transform", "schema", "health", "reload"):
        m[f"server.{route}.p50_ms"] = (p50_ms(f"server.{route}"), "ms")
    m["server.reload.calls"] = (calls("server.reload"), "count")
    m["server.overhead_ms"] = (0.0, "ms")
    m["bench.sender_lag_p99_ms"] = (0.0, "ms")
    return m


# -- serve-mixed -----------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    def __init__(self, repo: Path, scratch: Path, spans: Path | None = None):
        import client

        self.port = free_port()
        argv = [sys.executable, "-m", "semschema.cli", "serve", "--repo", str(repo), "--port", str(self.port), "--writable"]
        self.child = Child(traced(argv, spans) if spans else argv, scratch)
        if not client.wait_healthy(self.port):
            self.stop()
            raise RuntimeError("server did not answer /health within 30 s")
        self.setup_s = time.perf_counter() - self.child.started

    def stop(self) -> Child:
        # SIGTERM, not SIGINT: a shell that starts this benchmark in the
        # background makes its children ignore SIGINT
        if self.child.code is None:
            os.kill(self.child.pid, signal.SIGTERM)
            self.child.wait(timeout=15)
            self.child.outputs()
        return self.child


def run_serve(data: dict, seconds: float, trace: bool, scratch: Path) -> dict:
    import client
    import corpus

    requests = [json.loads(line) for line in (Path(data["dir"]) / "requests.ndjson").read_text().splitlines()]
    repo = scratch / "repo"
    shutil.copytree(corpus.REPO, repo)
    tally = Tally()

    def account(results: client.Results, phase: str) -> None:
        bad = sum(not s[3] for s in results.samples)
        tally.add(len(results.samples), bad, f"{phase}: {len(results.samples)} requests, {bad} wrong")

    def phases(server: Server, open_s: float, closed_s: float):
        traffic = client.Traffic(requests, repo)
        a = client.open_loop(traffic, server.port, OPEN_LOOP_RPS, open_s)
        b, elapsed = client.closed_loop(traffic, server.port, closed_s)
        account(a, "open loop")
        account(b, "closed loop")
        return a, b, elapsed

    def event_rate(b, elapsed):
        return sum(1 for s in b.samples if s[0] in ("validate", "transform")) / elapsed

    if not trace:
        # set-up is timed on SERVE_SPAWNS servers: some before the phases
        # (the last of them serves the phases), the rest after
        setups = []
        for _ in range(SERVE_SPAWNS // 2):
            server = Server(repo, scratch)
            setups.append(server.setup_s)
            server.stop()
        server = Server(repo, scratch)
        setups.append(server.setup_s)
        try:
            a, b, elapsed = phases(server, seconds * OPEN_SHARE, seconds * (1 - OPEN_SHARE))
        finally:
            child = server.stop()
        while len(setups) < SERVE_SPAWNS:
            extra = Server(repo, scratch)
            setups.append(extra.setup_s)
            extra.stop()
        latencies = [s[1] * 1000 for s in b.samples]
        open_latencies = [s[1] * 1000 for s in a.samples]
        metrics = {
            "events_per_s": (event_rate(b, elapsed), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (child.rss_mb, "MB"),
            "latency_p50_ms": (quantile(latencies, 50), "ms"),
            "latency_p90_ms": (quantile(latencies, 90), "ms"),
            "saturated_rps": (len(b.samples) / elapsed, "1/s"),
        }
        samples = {"open_loop_requests": len(a.samples), "open_loop_rps": OPEN_LOOP_RPS,
                   "closed_loop_requests": len(b.samples), "server_spawns": SERVE_SPAWNS, "connections": 2,
                   "open_loop_p50_ms": quantile(open_latencies, 50), "open_loop_p90_ms": quantile(open_latencies, 90),
                   "sender_lag_p99_ms": quantile([s[2] * 1000 for s in a.samples], 99)}
        return {"metrics": metrics, "samples": samples, "tally": tally}

    server = Server(repo, scratch)
    try:
        a, b, elapsed = phases(server, seconds * OPEN_SHARE / 2, seconds * (1 - OPEN_SHARE) / 2)
    finally:
        server.stop()
    spans = scratch / "spans.json"
    server = Server(repo, scratch, spans)
    try:
        ta, tb, t_elapsed = phases(server, seconds * OPEN_SHARE / 2, seconds * (1 - OPEN_SHARE) / 2)
    finally:
        server.stop()
    import tracer

    summary = tracer.summarize(str(spans))
    layers = layer_metrics(summary, len(ta.samples) + len(tb.samples))
    validate_p50 = statistics.median([s[1] for s in a.samples if s[0] == "validate"]) * 1000
    layers["server.overhead_ms"] = (validate_p50 - in_process_validate_ms(requests, repo), "ms")
    layers["bench.sender_lag_p99_ms"] = (quantile([s[2] * 1000 for s in a.samples], 99), "ms")
    layers["bench.tracing_overhead"] = ((len(tb.samples) / t_elapsed) / (len(b.samples) / elapsed), "ratio")
    samples = {"open_loop_requests": len(a.samples), "closed_loop_requests": len(b.samples),
               "traced_requests": len(ta.samples) + len(tb.samples)}
    return {"metrics": layers, "samples": samples, "tally": tally}


def in_process_validate_ms(requests: list[dict], repo: Path) -> float:
    """Median time of validator.validate on the /validate bodies, in this process."""
    from semschema.registry import load_repo
    from semschema.server import parse_target
    from semschema.validator import validate

    registry = load_repo(repo)
    times = []
    for r in requests:
        if r["route"] == "validate":
            target = parse_target(r["body"]["target"])
            started = time.perf_counter()
            validate(registry, r["body"]["event"], target)
            times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


# -- driver ------------------------------------------------------------------------


def stamp(args, corpus_digest: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git = None
    import corpus

    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git,
            "source_digest": corpus.source_digest(), "corpus_digest": corpus_digest, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def run_one(workload: str, why: str, args) -> dict:
    import corpus

    scratch = corpus.CACHE / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        data = corpus.load(workload, args.seed)
        if workload == "serve-mixed":
            result = run_serve(data, args.seconds, bool(args.trace), scratch)
        else:
            result = run_file_workload(workload, data, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tally = result["tally"]
    return {
        "workload": workload, "why": why, "stamp": stamp(args, data["digest"]), "traffic": data["props"],
        "samples": result["samples"], "corpus_cached": data["cached"],
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ops_share": tally.failed / max(1, tally.attempted), "checks": tally.notes[:5],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    reasons = workload_reasons()
    parser.add_argument("--workload", required=True, choices=list(reasons) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the servers it started are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "semschema" / "__init__.py").is_file():
        print(f"benchmark: no semschema source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # started before semschema or any corpus is loaded here; see launcher.py
    Child.launcher = Launcher()
    try:
        sys.path.insert(0, str(SRC))
        workloads = list(reasons) if args.workload == "all" else [args.workload]
        reports = [run_one(w, reasons[w], args) for w in workloads]
    finally:
        Child.launcher.close()
    metrics = {}
    for report in reports:
        print(json.dumps({"report": report}))
        prefix = "" if len(reports) == 1 else report["workload"] + "/"
        for name, entry in report["metrics"].items():
            metrics[prefix + name] = entry
    if len(reports) > 1:
        for report in reports:
            print(f"{report['workload']:<18} failed_ops_share={report['failed_ops_share']:.4f} " + " ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in report["metrics"].items()))
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
