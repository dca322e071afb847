"""The verdict rule of scripts/bench_pairs.py (the script is run, not installed)."""

import importlib.util
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
