"""Run perfbench on two checkouts in alternating order and summarise the pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \
        --workload transform-history --seeds 301-310 --seconds 16 --out BENCH_7.json

For each seed, `perfbench/run.py` runs once in each checkout; the side
that goes first alternates from seed to seed.  Every workload report of
a run becomes one entry of `runs`.  `summary` has one row per workload
and invocation: per side the median and quartiles of every metric, and
for each metric with a known direction (from BENCHMARK.json) the number
of pairs the change won, the median gain and the parent's interquartile
range; each end-to-end metric also gets its bound from BENCHMARK.json
and a `verdict`: worse, unresolved or no worse (see `verdict`).  A
metric that reads 0 on every change run but not on every parent run is
marked `"measured": false` and never met.  A file workload's run also
records `events_per_command`, the events each timed command reads.
evolution-ci's plan.json holds
the checkout's path, so its `corpus_digest` never matches between
checkouts; its rows count `same_plan` instead, the pairs whose two plans
are equal once the `repo` key is dropped.  `src_lines` holds each
checkout's line total of `src/semschema/**/*.py`, the net line count a
change reports.
`--append` adds the new runs to an existing file and recomputes the
summary, so claim pairs, held-out seeds and `--workload all` pairs can
share one file; `what` lists each invocation's `--what` with its
workload and seeds.  `--claim workload/metric` copies that row to
`claim` and marks it met when the change won at least 9 in 10 pairs and
its median gain exceeds the parent's interquartile range.

Standard library only.  The checkouts are run, never written, apart from
the `.bench_cache/` that run.py keeps in each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800  # one `--workload all` run takes a few minutes on a 2-CPU host


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def git_sha(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(checkout: Path) -> int:
    """The line total of the checkout's `src/semschema/**/*.py`, as `wc -l` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "semschema").rglob("*.py"))


def plan_digest(checkout: Path, seed: int, source_digest: str) -> str | None:
    """Digest of evolution-ci's plan.json less its `repo` key, the checkout's own path; None if absent."""
    path = checkout / ".bench_cache" / "corpus" / f"evolution-ci-s{seed}-{source_digest}" / "plan.json"
    try:
        plan = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    plan.pop("repo", None)
    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()[:16]


def run_once(checkout: Path, side: str, first: str, seed: int, args) -> list[dict]:
    """One perfbench invocation; one record per workload report it prints."""
    invocation = ["--workload", args.workload, "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    done = subprocess.run([sys.executable, "perfbench/run.py", *invocation, "--seed", str(seed)],
                          cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{side} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    records = []
    for line in done.stdout.splitlines():
        if not line.startswith('{"report"'):
            continue
        report = json.loads(line)["report"]
        stamp = report["stamp"]
        record = {
            "workload": report["workload"], "side": side, "first": first, "seed": seed,
            "invocation": " ".join(invocation),
            **{key: stamp[key] for key in ("git_sha", "source_digest", "corpus_digest", "python", "nproc")},
            "correct": report["failed"] == 0, "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {name: entry["value"] for name, entry in report["metrics"].items()},
        }
        events = report["samples"].get("events_per_command")
        if events is not None:  # a file workload
            record["events_per_command"] = events
        if report["workload"] == "evolution-ci":
            record["plan_digest"] = plan_digest(checkout, seed, stamp["source_digest"])
        records.append(record)
    return records


def metric_specs(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Each metric's better direction, and each end-to-end metric's regression bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    return better, {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}


def _ratio(part: float, base: float) -> float:
    if base:
        return part / abs(base)
    return 0.0 if not part else float("inf") if part > 0 else float("-inf")


def verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """`worse`, `unresolved` or `no worse`, against a relative bound (choosing-metrics 6.5).

    worse: the change's median is worse than the parent's by more than the
    bound.  unresolved: the parent's interquartile range over its median
    exceeds the bound, unless every change run beats every parent run.
    """
    p, c = spread(parent), spread(change)
    if _ratio(sign * (c["median"] - p["median"]), p["median"]) < -bound:
        return "worse"
    all_better = min(sign * x for x in change) > max(sign * x for x in parent)
    if _ratio(p["q3"] - p["q1"], p["median"]) > bound and not all_better:
        return "unresolved"
    return "no worse"


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> list[dict]:
    rows = []
    groups: dict[tuple[str, str], dict[int, dict[str, dict]]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["invocation"]), {}).setdefault(run["seed"], {})[run["side"]] = run
    for (workload, invocation), by_seed in groups.items():
        pairs = [sides for sides in by_seed.values() if {"parent", "change"} <= set(sides)]
        if not pairs:
            continue
        row = {"workload": workload, "invocation": invocation, "pairs": len(pairs),
               "seeds": sorted(seed for seed, sides in by_seed.items() if len(sides) == 2),
               "same_corpus": sum(p["parent"]["corpus_digest"] == p["change"]["corpus_digest"] for p in pairs),
               "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
               "metrics": {}}
        if workload == "evolution-ci":
            row["same_plan"] = sum(p["parent"].get("plan_digest") is not None
                                   and p["parent"].get("plan_digest") == p["change"].get("plan_digest") for p in pairs)
        for name in pairs[0]["parent"]["metrics"]:
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            entry = {"parent": spread(parent), "change": spread(change)}
            sign = {"higher": 1, "lower": -1}.get(better.get(name))
            if sign is not None:
                gain = entry["change"]["median"] - entry["parent"]["median"]
                iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
                wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
                # a name the change never recorded: a call that is gone and one the tracer
                # no longer sees both read 0, so the pairs cannot show a gain
                measured = any(change) or not any(parent)
                entry.update(better=better[name], change_wins=wins, median_gain=round(gain, 6),
                             parent_iqr=round(iqr, 6),
                             met=measured and wins * 10 >= 9 * len(pairs) and sign * gain > iqr)
                if not measured:
                    entry["measured"] = False
                if name in bounds:
                    entry.update(bound=bounds[name], verdict=verdict(parent, change, sign, bounds[name]))
            row["metrics"][name] = entry
        rows.append(row)
    return rows


def render(doc: dict) -> str:
    """JSON with one line per top-level key, and per run or summary row."""
    parts = []
    for key, value in doc.items():
        if isinstance(value, list):
            value_text = "[\n" + ",\n".join(json.dumps(item) for item in value) + "\n]"
        else:
            value_text = json.dumps(value)
        parts.append(f"{json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change committed")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--seeds", required=True, help="e.g. 301-310 or 301,305-307")
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--append", action="store_true", help="keep the runs already in --out")
    parser.add_argument("--claim", help="workload/metric row to copy to `claim`")
    parser.add_argument("--what", default="perfbench/run.py results, parent and change in alternating order")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.append and args.out.exists() else {}
    runs = doc.get("runs", [])
    what = doc.get("what", [])
    what = [what] if isinstance(what, str) else what  # a file from before `what` was a list
    what.append(f"{args.what} (--workload {args.workload} --seeds {args.seeds})")
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = [("parent", parent), ("change", change)]
        if index % 2:
            order.reverse()
        for side, checkout in order:
            runs.extend(run_once(checkout, side, order[0][0], seed, args))
            print(f"seed {seed} {side} done", file=sys.stderr, flush=True)
    doc.update({
        "what": what,
        "parent_sha": git_sha(parent), "change_sha": git_sha(change),
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "summary": summarise(runs, *metric_specs(change)),
        "runs": runs,
    })
    claim = args.claim or doc.get("claim", {}).get("id")
    if claim:
        workload, _, metric = claim.partition("/")
        rows = [r for r in doc["summary"] if r["workload"] == workload and metric in r["metrics"]]
        if rows:
            row = max(rows, key=lambda r: r["pairs"])
            doc["claim"] = {"id": claim, "invocation": row["invocation"], "pairs": row["pairs"],
                            "seeds": row["seeds"], **row["metrics"][metric]}
    args.out.write_text(render(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
