"""The verdict rule, the evolution-ci plan check, the recorded events per command and the line totals of scripts/bench_pairs.py (the script is run, not installed)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0]  # interquartile range 2.5% of the median


@pytest.mark.parametrize(
    "change, sign, expected",
    [
        ([70.0, 71.0, 72.0, 69.0, 70.5], 1, "worse"),  # 30% lower where higher is better
        ([80.0, 81.0, 82.0, 79.0, 80.5], 1, "no worse"),  # 20% lower: within the 25% bound
        ([130.0, 131.0, 132.0, 129.0, 130.5], -1, "worse"),  # 30% higher where lower is better
        ([60.0, 61.0, 62.0, 59.0, 60.5], -1, "no worse"),
    ],
)
def test_median_against_the_bound(change, sign, expected):
    assert bench_pairs.verdict(PARENT, change, sign, 0.25) == expected


def test_a_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    wide = [60.0, 100.0, 140.0, 80.0, 120.0]  # interquartile range 50% of the median
    assert bench_pairs.verdict(wide, [95.0, 100.0, 105.0, 100.0, 98.0], 1, 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, [141.0, 150.0, 160.0, 145.0, 155.0], 1, 0.25) == "no worse"


def test_a_zero_median_compares_as_equal_or_worse():
    assert bench_pairs.verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -1, 0.25) == "no worse"
    assert bench_pairs.verdict([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], -1, 0.25) == "worse"


def run(seed, side, value):
    return {"workload": "w", "invocation": "i", "seed": seed, "side": side, "corpus_digest": "c",
            "correct": True, "metrics": {"m.self_s": value}}


def test_a_metric_the_change_never_recorded_is_not_a_gain():
    runs = [run(seed, side, 0.0 if side == "change" else 0.04) for seed in range(10) for side in ("parent", "change")]
    entry = bench_pairs.summarise(runs, {"m.self_s": "lower"}, {})[0]["metrics"]["m.self_s"]
    assert entry["change_wins"] == 10 and entry["measured"] is False and entry["met"] is False
    runs = [run(seed, side, 0.01 if side == "change" else 0.04) for seed in range(10) for side in ("parent", "change")]
    entry = bench_pairs.summarise(runs, {"m.self_s": "lower"}, {})[0]["metrics"]["m.self_s"]
    assert "measured" not in entry and entry["met"] is True


def write_plan(checkout, seed, source_digest, repo, seeds=5):
    where = checkout / ".bench_cache" / "corpus" / f"evolution-ci-s{seed}-{source_digest}"
    where.mkdir(parents=True)
    plan = {"repo": repo, "seeds": seeds, "titles": ["A", "B"], "impact": []}
    (where / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")


def test_plans_that_differ_only_in_the_repo_path_have_one_digest(tmp_path):
    write_plan(tmp_path / "parent", 1, "aaaa", "/x/parent/src/semschema/fixtures/repo")
    write_plan(tmp_path / "change", 1, "bbbb", "/x/change/src/semschema/fixtures/repo")
    write_plan(tmp_path / "other", 1, "cccc", "/x/change/src/semschema/fixtures/repo", seeds=6)
    parent = bench_pairs.plan_digest(tmp_path / "parent", 1, "aaaa")
    assert parent == bench_pairs.plan_digest(tmp_path / "change", 1, "bbbb")
    assert parent != bench_pairs.plan_digest(tmp_path / "other", 1, "cccc")
    assert bench_pairs.plan_digest(tmp_path / "parent", 2, "aaaa") is None


def test_evolution_ci_rows_count_the_pairs_with_the_same_plan():
    def evo(seed, side, plan):
        return {**run(seed, side, 1.0), "workload": "evolution-ci", "plan_digest": plan}

    runs = [evo(0, "parent", "p"), evo(0, "change", "p"), evo(1, "parent", "p"), evo(1, "change", "q"),
            evo(2, "parent", None), evo(2, "change", None)]
    row = bench_pairs.summarise(runs, {}, {})[0]
    assert (row["pairs"], row["same_plan"]) == (3, 1)
    assert "same_plan" not in bench_pairs.summarise([run(0, "parent", 1.0), run(0, "change", 1.0)], {}, {})[0]


def test_src_lines_counts_every_python_file_under_the_package(tmp_path):
    package = tmp_path / "src" / "semschema"
    (package / "jslt").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "jslt" / "b.py").write_text("z = 3\n", encoding="utf-8")
    (package / "fixtures.json").write_text("{}\n{}\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("pass\n", encoding="utf-8")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_the_output_records_both_checkouts_line_totals(tmp_path, monkeypatch):
    for side, lines in (("parent", 4), ("change", 2)):
        (tmp_path / side / "src" / "semschema").mkdir(parents=True)
        (tmp_path / side / "src" / "semschema" / "m.py").write_text("pass\n" * lines, encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, side, first, seed, args: [])
    monkeypatch.setattr(bench_pairs, "metric_specs", lambda checkout: ({}, {}))
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "w", "--seeds", "1", "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["src_lines"] == {"parent": 4, "change": 2}
    assert list(doc)[:4] == ["what", "parent_sha", "change_sha", "src_lines"]


def test_append_records_every_invocations_what(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, side, first, seed, args: [])
    monkeypatch.setattr(bench_pairs, "metric_specs", lambda checkout: ({}, {}))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"what": "written before what was a list", "runs": []}), encoding="utf-8")
    for workload, seeds, what in (("w", "1-3", "claim pairs"), ("all", "7", "held-out pair")):
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--workload", workload, "--seeds", seeds, "--out", str(out), "--append", "--what", what])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc)[0] == "what"
    assert doc["what"] == ["written before what was a list", "claim pairs (--workload w --seeds 1-3)",
                           "held-out pair (--workload all --seeds 7)"]


def report_line(workload, metrics, samples):
    stamp = {"git_sha": "s", "source_digest": "d", "corpus_digest": "c", "python": "3", "nproc": 2}
    report = {"workload": workload, "stamp": stamp, "failed": 0, "attempted": 1, "samples": samples,
              "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}
    return json.dumps({"report": report})


def test_a_file_workload_run_records_its_events_per_command(tmp_path, monkeypatch):
    lines = [
        report_line("transform-history", {"events_per_s": 5000.0, "setup_s": 0.1}, {"events_per_command": 1000}),
        # a traced run has no events_per_s
        report_line("dqt-checks", {"jslt.evaluate.calls": 3.0}, {"events_per_command": 1000}),
        report_line("serve-mixed", {"events_per_s": 3000.0, "setup_s": 0.1}, {"connections": 2}),
    ]
    done = subprocess.CompletedProcess([], 0, stdout="\n".join(lines) + "\n", stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: done)
    args = type("Args", (), {"workload": "all", "seconds": 1.0, "trace": 0})
    records = {r["workload"]: r for r in bench_pairs.run_once(tmp_path, "parent", "parent", 1, args)}
    assert records["transform-history"]["events_per_command"] == 1000
    assert records["dqt-checks"]["events_per_command"] == 1000
    assert "events_per_command" not in records["serve-mixed"]
    # the metrics are perfbench's own, with no rate derived from them
    assert records["transform-history"]["metrics"] == {"events_per_s": 5000.0, "setup_s": 0.1}
    assert records["dqt-checks"]["metrics"] == {"jslt.evaluate.calls": 3.0}
