"""Wall time, CPU time and peak RSS of short CLI commands, for two checkouts in alternating order.

    python3 scripts/cli_spawns.py --parent ../parent --change . --rounds 18 [--events FILE]

Each round spawns `validate` and `transform` (against the checkout's
bundled fixture repository) and `dqt run` (its bundled check modules, at
the default rate) as `python -m semschema.cli`, from each checkout's own
`src/`, over an empty input and, with `--events`, over that file too.
Output goes to /dev/null.  The side that goes first alternates from round
to round.  Each child is reaped with `os.wait4`: `wall_ms` runs from the
spawn to the reap, `cpu_ms` is its `ru_utime + ru_stime` and `maxrss_mb`
its `ru_maxrss`.  Prints one JSON object: every run, and per input,
command and side the median and quartiles of each figure and the exit
codes seen.  Exits 1 if a command exited with anything but 0 or 1.

This is a check on perfbench's `setup_s`, which times the same spawns
among other work.  A child spawned with vfork also counts the resident
size of the process that spawned it, so this script imports only what it
needs.  Standard library only.  The checkouts are run, never written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURES = Path("src") / "semschema" / "fixtures"
COMMANDS = {
    "validate": ["validate", "{events}", "--repo", "{fixtures}/repo"],
    "transform": ["transform", "{events}", "--repo", "{fixtures}/repo"],
    "dqt-run": ["dqt", "run", "--modules", "{fixtures}/checks", "--events", "{events}"],
}
FIGURES = ("wall_ms", "cpu_ms", "maxrss_mb")


def run_once(checkout: Path, command: list[str], events: Path) -> dict:
    argv = [arg.format(events=events, fixtures=checkout / FIXTURES) for arg in command]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "semschema.cli", *argv], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_ms": round(wall * 1000, 3),
            "cpu_ms": round((usage.ru_utime + usage.ru_stime) * 1000, 3),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 3)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--rounds", type=int, default=18)
    parser.add_argument("--events", type=Path, help="an NDJSON file to run each command over as well")
    args = parser.parse_args(argv)
    sides = [("parent", args.parent.resolve()), ("change", args.change.resolve())]
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        empty = Path(scratch) / "empty.ndjson"
        empty.write_text("")
        inputs = {"empty": empty, **({"events": args.events.resolve()} if args.events else {})}
        for index in range(args.rounds):
            order = sides[::-1] if index % 2 else sides
            for input_name, events in inputs.items():
                for name, command in COMMANDS.items():
                    for side, checkout in order:
                        runs.append({"round": index, "input": input_name, "command": name, "side": side,
                                     **run_once(checkout, command, events)})
    summary = {}
    for input_name in inputs:
        for name in COMMANDS:
            row = summary.setdefault(input_name, {}).setdefault(name, {})
            for side, _ in sides:
                mine = [run for run in runs if (run["input"], run["command"], run["side"]) == (input_name, name, side)]
                row[side] = {"exit_codes": sorted({run["code"] for run in mine}),
                             **{figure: quartiles([run[figure] for run in mine]) for figure in FIGURES}}
    print(json.dumps({"python": sys.version.split()[0], "nproc": os.cpu_count(), "rounds": args.rounds,
                      "summary": summary, "runs": runs}))
    return 0 if all(run["code"] in (0, 1) for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
