"""Output checkers: compare what one command printed with the planted verdicts.

Each checker returns (attempted, failed, note).  An operation is one input
line (file workloads), one verify title or impact proposal (evolution-ci)
or one HTTP request (serve-mixed, checked in client.py).  A command that
exits with a code other than the documented one is a crash: every
operation after the last one its output accounts for counts as failed.
"""

from __future__ import annotations

import json


def _json_lines(text: str) -> tuple[list, bool]:
    """Parsed NDJSON lines, and whether every non-blank line parsed."""
    out, clean = [], True
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except ValueError:
            clean = False
    return out, clean


def _diag_by_line(stderr: str) -> tuple[dict[int, list], bool]:
    diags, clean = _json_lines(stderr)
    by_line: dict[int, list] = {}
    for d in diags:
        if isinstance(d, dict) and isinstance(d.get("line"), int):
            by_line.setdefault(d["line"], []).append(d)
        else:
            clean = False
    return by_line, clean


def _crash_tail(n: int, evidenced: int, code: int, expected_code: int, clean: bool) -> int:
    """Operations lost to a crash: those after the last line the output covers."""
    if code == expected_code and clean:
        return 0
    return n - evidenced


def check_validate(expect: dict, stdout: str, stderr: str, code: int) -> tuple[int, int, str]:
    verdicts = expect["verdicts"]
    by_line, clean = _diag_by_line(stderr)
    failed = 0
    for lineno, verdict in enumerate(verdicts, start=1):
        diags = by_line.get(lineno, [])
        if verdict[0] in ("valid", "deep-valid"):
            ok = not diags
        elif verdict[0] == "unparseable":
            ok = len(diags) == 1 and "error" in diags[0]
        else:
            ok = any(d.get("kind") == verdict[1] for d in diags)
        failed += not ok
    wants_failure = any(v[0] in ("invalid", "unparseable") for v in verdicts)
    lost = _crash_tail(len(verdicts), max(by_line, default=0), code, 1 if wants_failure else 0, clean and not stdout.strip())
    note = f"exit {code}" + ("" if not lost else f"; {lost} lines after the crash")
    return len(verdicts), min(len(verdicts), failed + lost), note


def check_transform(expect: dict, stdout: str, stderr: str, code: int) -> tuple[int, int, str]:
    verdicts = expect["verdicts"]
    by_line, clean = _diag_by_line(stderr)
    outputs, out_clean = _json_lines(stdout)
    failed, cursor, evidenced = 0, 0, 0
    for lineno, verdict in enumerate(verdicts, start=1):
        diags = by_line.get(lineno, [])
        if verdict[0] == "ok":
            got = outputs[cursor] if cursor < len(outputs) else None
            cursor += got is not None
            ok = not diags and isinstance(got, dict) and got.get("schema") == verdict[1]
            if got is not None:
                evidenced = lineno
        else:
            ok = len(diags) == 1 and "error" in diags[0]
        if diags:
            evidenced = lineno
        failed += not ok
    failed += max(0, len(outputs) - cursor)  # outputs no input line accounts for
    wants_failure = any(v[0] != "ok" for v in verdicts)
    lost = _crash_tail(len(verdicts), evidenced, code, 1 if wants_failure else 0, clean and out_clean)
    note = f"exit {code}; {len(outputs)} upgraded events" + ("" if not lost else f"; {lost} lines after the crash")
    return len(verdicts), min(len(verdicts), failed + lost), note


def check_dqt(expect: dict, stdout: str, stderr: str, code: int) -> tuple[int, int, str]:
    """Every counter must match the oracle's count exactly.

    Failed operations are the summed absolute count differences, capped at
    the number of input lines; a wrong summary line or exit code fails all.
    """
    n = expect["events"]
    lines, clean = _json_lines(stdout)
    got: dict[tuple, int] = {}
    for line in lines:
        try:
            key = (line["metric"], tuple(sorted(line["tags"].items())))
            got[key] = got.get(key, 0) + line["count"]
        except (KeyError, TypeError, AttributeError):
            clean = False
    want = {(metric, tuple(sorted(tags.items()))): count for metric, tags, count in expect["counters"]}
    diff = sum(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want))
    summaries, _ = _json_lines(stderr)
    summary = summaries[-1] if summaries and isinstance(summaries[-1], dict) else {}
    summary_ok = (summary.get("total"), summary.get("sampled"), summary.get("parse_errors")) == (
        n, n - expect["parse_errors"], expect["parse_errors"])
    if code != 0 or not clean or not summary_ok:
        return n, n, f"exit {code}; summary {summary}"
    return n, min(n, diff), f"{len(lines)} metric lines; {diff} counts off"


def check_evolution(expect: dict, stdout: str, stderr: str, code: int) -> tuple[int, int, str]:
    n = len(expect["verify"]) + len(expect["impact"])
    results, _ = _json_lines(stdout)
    result = results[-1] if results and isinstance(results[-1], dict) else {}
    if code != 0 or "verify" not in result:
        return n, n, f"exit {code}"
    failed = sum(result["verify"].get(title) != count for title, count in expect["verify"].items())
    impact = result.get("impact", [])
    for i, want in enumerate(expect["impact"]):
        failed += i >= len(impact) or impact[i] != want
    return n, failed, f"{sum(v for v in result['verify'].values() if isinstance(v, int))} verified events"


CHECKERS = {
    "validate-mixed": check_validate,
    "dqt-checks": check_dqt,
    "transform-history": check_transform,
    "evolution-ci": check_evolution,
}
