"""The evolution-ci workload: what a schema repository's CI job runs.

    python perfbench/evo_child.py plan.json

Loads the repository and its transforms, runs TransformSet.verify for
every title, then change_impact_test for every proposal in the plan.
Prints one JSON object: the load time, the verify count (or error) per
title and the blocked flag and failing consumers per proposal.  It
imports semschema itself, so run it with src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    from semschema.errors import SemSchemaError
    from semschema.evolution import ConsumerSample, TransformSet, change_impact_test
    from semschema.generator import GenConfig
    from semschema.registry import load_repo

    started = time.perf_counter()
    registry = load_repo(plan["repo"])
    transforms = TransformSet.load(registry, Path(plan["repo"]) / "transforms")
    setup_s = time.perf_counter() - started

    verify = {}
    for title in plan["titles"]:
        try:
            verify[title] = transforms.verify(title, seeds=plan["seeds"])
        except SemSchemaError as exc:
            verify[title] = f"error: {exc}"
    impact = []
    for item in plan["impact"]:
        samples = [
            ConsumerSample(name, item["title"], tuple((path, value) for path, value in fragment), polarity)
            for name, fragment, polarity in item["samples"]
        ]
        try:
            report = change_impact_test(
                registry, item["title"], item["proposal"], samples, cfg=GenConfig(seed=item["seed"]), kind=item["kind"]
            )
            impact.append({"title": item["title"], "blocked": report.blocked, "failing": report.failing_consumers()})
        except SemSchemaError as exc:
            impact.append({"title": item["title"], "error": str(exc)})
    sys.stdout.write(json.dumps({"setup_s": setup_s, "verify": verify, "impact": impact}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
