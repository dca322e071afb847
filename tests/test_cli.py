import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semschema import cli
from semschema.errors import JsonParseError
from semschema.jslt.parser import MAX_NESTING
from semschema.jsonmodel import MAX_DEPTH, parse_json
from semschema.registry import make_id


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    out = [json.loads(line) for line in captured.out.splitlines() if line.startswith(("{", "["))]
    err = [json.loads(line) for line in captured.err.splitlines() if line.startswith(("{", "["))]
    return code, out, err


def fresh_cli(argv, timeout=120):
    """Run the CLI in a fresh interpreter.

    For deep lines: an uncaught RecursionError ends it at once, where rendering
    its traceback of tens of thousands of frames in process takes minutes.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "semschema.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)


def write_events(path, registry, title, version, count=3, seed=0):
    from semschema.generator import GenConfig, generate_valid

    lines = [
        json.dumps(generate_valid(registry, title, version, GenConfig(seed=seed + i)))
        for i in range(count)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSchemaCommands:
    def test_load_lists_everything(self, capsys, repo_dir):
        code, out, _ = run(capsys, "schema", "load", str(repo_dir))
        assert code == 0
        rows = [line for line in out if "title" in line]
        assert len(rows) == 14
        by_title = {row["title"]: row for row in rows}
        assert by_title["Share Item"]["tombstoned"] is True
        assert by_title["View Item"]["versions"] == [0, 1, 2]
        assert out[-1] == {"release": "1.2.0"}

    def test_load_missing_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "schema", "load", str(tmp_path / "missing"))
        assert code == 2 and "error" in err[0]

    def test_load_refuses_a_non_ascii_digit_file_name(self, capsys, scratch_repo):
        # "\u00b2".isdigit() holds, but int("\u00b2") raises ValueError
        misnamed = scratch_repo / "event" / "View-Item" / "\u00b2.json"
        misnamed.write_text((misnamed.parent / "2.json").read_text())
        code, _, err = run(capsys, "schema", "load", str(scratch_repo))
        assert (code, err) == (2, [{"error": f"{misnamed}: file name must be <version>.json"}])

    def test_show_body(self, capsys, repo_dir):
        code = cli.main(["schema", "show", "Provider@0", "--repo", str(repo_dir)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["id"] == make_id("object", "Provider", 0)
        # "@id" is a local override; "@type" only arrives via the parent
        assert {"name", "@id"} <= set(doc["properties"])
        assert "@type" not in doc["properties"]

    def test_show_resolved_includes_parent(self, capsys, repo_dir):
        code = cli.main(["schema", "show", "Provider@0", "--repo", str(repo_dir), "--resolved"])
        resolved = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {"@id", "@type", "name"} <= set(resolved["properties"])
        assert resolved["required"] == ["@id"]

    def test_tombstone_then_tag(self, capsys, scratch_repo):
        code, out, _ = run(capsys, "schema", "tombstone", "Vehicle", "--repo", str(scratch_repo))
        assert code == 0
        assert out[0]["version"] == 3
        assert (scratch_repo / "object" / "Vehicle" / "3.json").exists()

        code, out, _ = run(capsys, "schema", "load", str(scratch_repo))
        rows = {row["title"]: row for row in out if "title" in row}
        assert rows["Vehicle"]["tombstoned"] is True

        code, out, _ = run(capsys, "schema", "tag", "--repo", str(scratch_repo), "--breaking")
        assert code == 0 and out[0]["release"] == "1.3.0"
        code, out, _ = run(capsys, "schema", "tag", "--repo", str(scratch_repo))
        assert code == 0 and out[0]["release"] == "1.3.1"

    def test_tombstone_ships_its_transform(self, capsys, scratch_repo, tmp_path):
        code, out, _ = run(capsys, "schema", "tombstone", "Vehicle", "--repo", str(scratch_repo))
        step = scratch_repo / "transforms" / "Vehicle" / "2-to-3.jslt"
        assert code == 0 and out[0]["transform"] == str(step)
        assert step.read_text() == "{}\n"

        events = tmp_path / "empty.ndjson"
        events.write_text("")
        code, out, err = run(capsys, "transform", str(events), "--repo", str(scratch_repo))
        assert (code, out, err) == (0, [], [])


class TestValidate:
    def test_self_declared_clean(self, capsys, repo_dir, registry, tmp_path):
        events = write_events(tmp_path / "ok.ndjson", registry, "View Item", 2)
        code, _, err = run(capsys, "validate", str(events), "--repo", str(repo_dir), "--self")
        assert (code, err) == (0, [])

    def test_mismatches_exit_one(self, capsys, repo_dir, registry, tmp_path):
        from semschema.generator import GenConfig, generate_valid

        good = generate_valid(registry, "View Item", 2, GenConfig(seed=1))
        bad = dict(good, stray=1)
        path = tmp_path / "mixed.ndjson"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        code, _, err = run(capsys, "validate", str(path), "--repo", str(repo_dir))
        assert code == 1
        assert err == [{"line": 2, "path": ".stray", "kind": "unknown-property",
                        "expected": err[0]["expected"], "found": err[0]["found"]}]

    def test_parse_errors_are_line_tagged(self, capsys, repo_dir, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("}{\n")
        code, _, err = run(capsys, "validate", str(path), "--repo", str(repo_dir))
        assert code == 1 and err[0]["line"] == 1

    def test_fixed_schema_target(self, capsys, repo_dir, registry, tmp_path):
        # v0 events carry origin, which the latest schema does not know
        events = write_events(tmp_path / "old.ndjson", registry, "View Item", 0, count=6)
        code, _, _ = run(
            capsys, "validate", str(events), "--repo", str(repo_dir), "--schema", "View Item@0"
        )
        assert code == 0
        code, _, err = run(
            capsys, "validate", str(events), "--repo", str(repo_dir), "--schema", "View Item"
        )
        assert code == 1
        assert any(line.get("path") == ".origin" for line in err)

    def test_latest_mode_follows_each_event(self, capsys, repo_dir, registry, tmp_path):
        from semschema.generator import GenConfig, generate_valid

        view = generate_valid(registry, "View Item", 2, GenConfig(seed=2))
        posted = generate_valid(registry, "Post Item", 2, GenConfig(seed=2))
        undeclared = {"no": "schema"}
        path = tmp_path / "mix.ndjson"
        path.write_text("\n".join(json.dumps(e) for e in (view, posted, undeclared)) + "\n")
        code, _, err = run(capsys, "validate", str(path), "--repo", str(repo_dir), "--latest")
        assert code == 1
        assert [line["line"] for line in err] == [3]
        assert err[0]["kind"] == "bad-schema-declaration"

    def test_unknown_fixed_schema_is_usage_error(self, capsys, repo_dir, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        code, _, err = run(
            capsys, "validate", str(path), "--repo", str(repo_dir), "--schema", "No Such"
        )
        assert code == 2 and "error" in err[0]


class TestTargetGrammar:
    @pytest.mark.parametrize("ref", ["View Item@x", "View Item@\u00b2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["validate", "{events}", "--schema", "{ref}"],
            ["generate", "--schema", "{ref}"],
            ["schema", "show", "{ref}"],
        ],
    )
    def test_bad_target_is_one_usage_error(self, capsys, repo_dir, tmp_path, command, ref):
        events = tmp_path / "empty.ndjson"
        events.write_text("")
        argv = [part.format(events=events, ref=ref) for part in command] + ["--repo", str(repo_dir)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]

    def test_latest_mode_reports_unusable_declarations(self, capsys, repo_dir, tmp_path):
        unparseable = {"schema": "https://schema.example.com/schemas/event/View-Item/latest"}
        unknown_title = {"schema": make_id("event", "No Such", 0)}
        path = tmp_path / "events.ndjson"
        path.write_text("\n".join(json.dumps(e) for e in (unparseable, unknown_title)) + "\n")
        code, _, err = run(capsys, "validate", str(path), "--repo", str(repo_dir), "--latest")
        assert code == 1
        assert [(line["line"], line["path"], line["kind"]) for line in err] == [
            (1, ".schema", "bad-schema-declaration"),
            (2, ".schema", "bad-schema-declaration"),
        ]

    def test_latest_mode_ignores_the_declared_version(self, capsys, repo_dir, registry, tmp_path):
        from semschema.generator import GenConfig, generate_valid

        event = generate_valid(registry, "Post Item", 2, GenConfig(seed=3))
        event["schema"] = make_id("event", "Post Item", 9)
        path = tmp_path / "events.ndjson"
        path.write_text(json.dumps(event) + "\n")
        code, _, err = run(capsys, "validate", str(path), "--repo", str(repo_dir), "--latest")
        assert (code, err) == (0, [])
        code, _, err = run(capsys, "validate", str(path), "--repo", str(repo_dir))
        assert code == 1 and err[0]["kind"] == "bad-schema-declaration"


class TestGenerate:
    def test_deterministic_and_valid(self, capsys, repo_dir, registry):
        argv = ["generate", "--repo", str(repo_dir), "--schema", "View Item@0",
                "--count", "3", "--seed", "9"]
        code = cli.main(argv)
        first = capsys.readouterr().out
        assert code == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        from semschema.validator import validate

        events = [json.loads(line) for line in first.splitlines()]
        assert len(events) == 3
        for event in events:
            assert event["schema"] == make_id("event", "View Item", 0)
            assert validate(registry, event) == []
        assert len({json.dumps(e) for e in events}) == 3  # seed advances per event

    def test_tombstone_refused(self, capsys, repo_dir):
        code, _, err = run(capsys, "generate", "--repo", str(repo_dir), "--schema", "Share Item")
        assert code == 2 and "tombstone" in err[0]["error"]


class TestDiff:
    def test_rename_and_breaking_flag(self, capsys, repo_dir):
        code, out, _ = run(capsys, "diff", "Provider", "0", "1", "--repo", str(repo_dir))
        assert code == 0
        assert out[0]["op"] == "Rename" and out[0]["to"] == "displayName"
        assert out[-1] == {"breaking": True}

    def test_nonbreaking_add(self, capsys, repo_dir):
        code, out, _ = run(capsys, "diff", "Base Object", "0", "1", "--repo", str(repo_dir))
        assert out[-1] == {"breaking": False}


class TestTransform:
    def test_events_land_on_latest(self, capsys, repo_dir, registry, tmp_path):
        events = write_events(tmp_path / "old.ndjson", registry, "Send Message", 0, count=4)
        code, out, err = run(
            capsys, "transform", str(events), "--repo", str(repo_dir), "--to-latest"
        )
        assert (code, err) == (0, [])
        assert len(out) == 4
        from semschema.validator import validate

        for event in out:
            assert event["schema"] == make_id("event", "Send Message", 2)
            assert validate(registry, event) == []
            assert "messageKind" not in event

    def test_second_file_for_a_step_is_a_usage_error(self, capsys, scratch_repo, registry, tmp_path):
        events = write_events(tmp_path / "old.ndjson", registry, "View Item", 0, count=1)
        second = scratch_repo / "transforms" / "View-Item" / "00-to-01.jslt"
        second.write_text(".")
        code, out, err = run(capsys, "transform", str(events), "--repo", str(scratch_repo))
        assert (code, out) == (2, [])
        assert err == [{"error": f"{second}: a second transform for 'View Item' 0 -> 1"}]

    MISSING = "'Base Event' 1 -> 2 is a breaking step with no registered transform"

    def test_breaking_step_without_transform_is_a_usage_error(self, capsys, scratch_repo, tmp_path):
        (scratch_repo / "transforms" / "Base-Event" / "1-to-2.jslt").unlink()
        events = tmp_path / "empty.ndjson"
        events.write_text("")
        code, out, err = run(capsys, "transform", str(events), "--repo", str(scratch_repo))
        assert (code, out, err) == (2, [], [{"error": self.MISSING}])

    def test_serve_refuses_a_breaking_step_without_transform(self, scratch_repo):
        (scratch_repo / "transforms" / "Base-Event" / "1-to-2.jslt").unlink()
        done = fresh_cli(["serve", "--repo", scratch_repo, "--port", "0"], timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert json.loads(done.stderr) == {"error": self.MISSING}

    def test_undeclared_event_fails_that_line(self, capsys, repo_dir, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text('{"x": 1}\n')
        code, out, err = run(capsys, "transform", str(path), "--repo", str(repo_dir))
        assert (code, out) == (1, [])
        assert "schema declaration" in err[0]["error"]


class TestImpactTest:
    def write_inputs(self, tmp_path, loose=False, pattern="^sdrn:mp:provider:[0-9]+$"):
        pattern = ".*" if loose else pattern
        proposal = {
            "title": "Provider",
            "allOf": make_id("object", "Provider", 2),
            "properties": {"@id": {"type": "string", "pattern": pattern}},
            "required": ["@id"],
        }
        proposal_file = tmp_path / "proposal.json"
        proposal_file.write_text(json.dumps(proposal))
        samples = tmp_path / "samples"
        samples.mkdir()
        (samples / "legacy-feed.json").write_text(json.dumps({
            "schema": "Provider",
            "fragment": {'."@id"': "sdrn:x:provider:abc"},
        }))
        (samples / "guard.json").write_text(json.dumps({
            "schema": "Provider",
            "polarity": "must-stay-invalid",
            "fragment": {'."@id"': "not-an-sdrn"},
        }))
        return proposal_file, samples

    def test_blocked_proposal_exits_one(self, capsys, repo_dir, tmp_path):
        proposal, samples = self.write_inputs(tmp_path)
        code, out, _ = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(proposal), "--samples", str(samples),
        )
        assert code == 1
        results = {line["consumer"]: line["result"] for line in out if "consumer" in line}
        assert results == {"legacy-feed": "FAIL", "guard": "PASS"}
        assert out[-1] == {"title": "Provider", "proposed_version": 3, "blocked": True, "failing": ["legacy-feed"]}

    def test_unblocked_proposal_exits_zero_and_fails_no_one(self, capsys, repo_dir, tmp_path):
        proposal, samples = self.write_inputs(tmp_path, pattern="^sdrn:[a-z]+:provider:[a-z0-9]+$")
        code, out, _ = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(proposal), "--samples", str(samples),
        )
        assert code == 0
        results = {line["consumer"]: line["result"] for line in out if "consumer" in line}
        assert results == {"legacy-feed": "PASS", "guard": "PASS"}
        assert out[-1] == {"title": "Provider", "proposed_version": 3, "blocked": False, "failing": []}

    def test_loosening_trips_the_guard(self, capsys, repo_dir, tmp_path):
        proposal, samples = self.write_inputs(tmp_path, loose=True)
        code, out, _ = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(proposal), "--samples", str(samples),
        )
        assert code == 1
        results = {line["consumer"]: line["result"] for line in out if "consumer" in line}
        assert results["guard"] == "FAIL"
        assert out[-1]["failing"] == ["guard"]

    def test_proposal_needs_title(self, capsys, repo_dir, tmp_path):
        bad = tmp_path / "proposal.json"
        bad.write_text(json.dumps({"properties": {}}))
        samples = tmp_path / "samples"
        samples.mkdir()
        code, _, err = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(bad), "--samples", str(samples),
        )
        assert code == 2 and "title" in err[0]["error"]

    def test_a_sample_path_with_a_bad_index_is_a_usage_error(self, capsys, repo_dir, tmp_path):
        proposal, samples = self.write_inputs(tmp_path)
        (samples / "guard.json").write_text(json.dumps({"schema": "Provider", "fragment": {".tags[1_0]": "x"}}))
        code, out, err = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(proposal), "--samples", str(samples),
        )
        assert (code, out) == (2, [])
        assert err[0]["error"] == f"{samples / 'guard.json'}: bad index in path: '.tags[1_0]'"

    def test_no_samples_for_title(self, capsys, repo_dir, tmp_path):
        proposal, samples = self.write_inputs(tmp_path)
        for file in samples.glob("*.json"):
            file.unlink()
        code, _, err = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(proposal), "--samples", str(samples),
        )
        assert code == 2 and "no samples" in err[0]["error"]


class TestJsltRun:
    def test_programs_apply_per_line(self, capsys, tmp_path):
        program = tmp_path / "bump.jslt"
        program.write_text('{"n": .n + 1}')
        data = tmp_path / "in.ndjson"
        data.write_text('{"n": 1}\n{"n": 5}\n')
        code, out, _ = run(capsys, "jslt", "run", str(program), "--input", str(data))
        assert (code, out) == (0, [{"n": 2}, {"n": 6}])

    def test_non_ascii_digit_is_a_usage_error(self, capsys, tmp_path):
        program = tmp_path / "digit.jslt"
        program.write_text(".n + ²", encoding="utf-8")
        data = tmp_path / "in.ndjson"
        data.write_text('{"n": 1}\n')
        code, out, err = run(capsys, "jslt", "run", str(program), "--input", str(data))
        assert (code, out) == (2, [])
        assert err == [{"error": f"{program}: unexpected character '²' at 1:6"}]

    def test_long_minus_chain_is_a_usage_error(self, tmp_path):
        # in a fresh interpreter: a RecursionError escaping into pytest stalls it
        program = tmp_path / "minus.jslt"
        program.write_text("-" * 19_990 + "1")
        data = tmp_path / "in.ndjson"
        data.write_text('{"n": 1}\n')
        done = fresh_cli(["jslt", "run", program, "--input", data])
        assert (done.returncode, done.stdout) == (2, "")
        assert json.loads(done.stderr) == {
            "error": f"{program}: expression nesting exceeds {MAX_NESTING} at 1:{MAX_NESTING + 1}"}

    @pytest.mark.parametrize(
        "time_format, reason",
        [
            ("yyyy-'MM", "unterminated quote in time format"),
            ("yyyy-QQ", "unsupported time format token 'QQ'"),
            ("yyyy-MM-dd yyyy", "time format repeats a field"),
        ],
    )
    def test_a_bad_literal_time_format_is_a_usage_error(self, capsys, tmp_path, time_format, reason):
        program = tmp_path / "time.jslt"
        program.write_text('{"at":\n  parse-time(.t, "%s")}' % time_format)
        data = tmp_path / "in.ndjson"
        data.write_text('{"t": "2020"}\n')
        code, out, err = run(capsys, "jslt", "run", str(program), "--input", str(data))
        assert (code, out) == (2, [])
        assert err == [{"error": f"{program}: parse-time: {reason} at 2:18"}]

    def test_runtime_error_marks_the_line(self, capsys, tmp_path):
        program = tmp_path / "div.jslt"
        program.write_text("1 / .n")
        data = tmp_path / "in.ndjson"
        data.write_text('{"n": 0}\n{"n": 2}\n')
        code = cli.main(["jslt", "run", str(program), "--input", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert [json.loads(line) for line in captured.out.splitlines()] == [0.5]
        assert json.loads(captured.err.splitlines()[0])["line"] == 1


    def test_unwritable_result_fails_that_line(self, capsys, tmp_path):
        program = tmp_path / "grow.jslt"
        program.write_text(".n * 10")
        data = tmp_path / "in.ndjson"
        data.write_text('{"n": 1e308}\n{"n": 2}\n')
        code = cli.main(["jslt", "run", str(program), "--input", str(data)])
        captured = capsys.readouterr()
        assert code == 1
        assert [json.loads(line) for line in captured.out.splitlines()] == [20]
        assert [json.loads(line)["line"] for line in captured.err.splitlines()] == [1]

    def test_stdin_bad_bytes_fail_that_line(self, capsys, monkeypatch, tmp_path):
        program = tmp_path / "n.jslt"
        program.write_text(".n")
        stdin = io.TextIOWrapper(io.BytesIO(b'{"n": 1}\n{"n": "\xff"}\n{"n": 2}\n'), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code = cli.main(["jslt", "run", str(program)])
        captured = capsys.readouterr()
        assert code == 1
        assert [json.loads(line) for line in captured.out.splitlines()] == [1, 2]
        assert [json.loads(line)["line"] for line in captured.err.splitlines()] == [2]
        assert not stdin.closed

    def test_lone_surrogate_is_escaped_in_output(self, monkeypatch, tmp_path):
        program = tmp_path / "id.jslt"
        program.write_text(".")
        data = tmp_path / "in.ndjson"
        data.write_text('{"@type": "\\udcff"}\n')
        raw = io.BytesIO()
        # the C/POSIX locale's stdout would write U+DCFF as the raw byte 0xff
        stdout = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["jslt", "run", str(program), "--input", str(data)])
        stdout.flush()
        assert code == 0
        assert raw.getvalue() == b'{"@type":"\\udcff"}\n'


class TestBadLines:
    """Lines 2 and 4 cannot be decoded or parsed; line 3 repeats a key."""

    @pytest.fixture
    def mixed(self, registry, tmp_path):
        from semschema.generator import GenConfig, generate_valid

        good = [
            json.dumps(generate_valid(registry, "View Item", 0, GenConfig(seed=seed)))
            for seed in (1, 2)
        ]
        repeated = '{"schema": "not a schema id", ' + good[1][1:]
        lines = [good[0], '{"n": "\udcff\udcfe"}', repeated, '{"n": 1e400}', good[1]]
        path = tmp_path / "mixed.ndjson"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        return path

    @pytest.mark.parametrize(
        "argv, schemas",
        [
            (["validate", "{events}", "--repo", "{repo}"], []),
            (["transform", "{events}", "--repo", "{repo}"], [make_id("event", "View Item", 2)] * 3),
            (["jslt", "run", "{program}", "--input", "{events}"], [make_id("event", "View Item", 0)] * 3),
        ],
        ids=["validate", "transform", "jslt-run"],
    )
    def test_bad_line_fails_only_that_line(self, capsys, repo_dir, tmp_path, mixed, argv, schemas):
        program = tmp_path / "identity.jslt"
        program.write_text(".")
        paths = {"events": mixed, "repo": repo_dir, "program": program}
        code = cli.main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        out = [json.loads(line) for line in captured.out.splitlines()]
        err = [json.loads(line) for line in captured.err.splitlines()]
        assert code == 1
        assert [event["schema"] for event in out] == schemas
        assert [diag["line"] for diag in err] == [2, 4]
        assert all(set(diag) == {"line", "error"} for diag in err)

    def test_dqt_counts_bad_lines(self, capsys, checks_dir, mixed):
        code = cli.main(["dqt", "run", "--modules", str(checks_dir), "--events", str(mixed), "--rate", "1.0"])
        captured = capsys.readouterr()
        assert code == 0
        assert all(json.loads(line) for line in captured.out.splitlines())
        summary = json.loads(captured.err)
        assert (summary["total"], summary["parse_errors"]) == (5, 2)


def too_deep(column):
    return f"nesting deeper than {MAX_DEPTH} levels (line 1, column {column})"


def fresh_dqt(modules, tmp_path, lines):
    """`dqt run` at rate 1.0 in a fresh interpreter: (summary, {metric: count})."""
    path = tmp_path / "events.ndjson"
    path.write_text("\n".join(lines) + "\n")
    done = fresh_cli(["dqt", "run", "--modules", modules, "--events", path, "--rate", "1.0", "--window", "w"])
    assert done.returncode == 0, done.stderr
    counts = {line["metric"]: line["count"] for line in map(json.loads, done.stdout.splitlines())}
    return json.loads(done.stderr), counts


class TestDeepLines:
    """Line 2 nests one level past MAX_DEPTH; lines 1 and 3 are good."""

    @staticmethod
    def deep_line(depth):
        """An event `depth` levels deep: `custom` nests depth - 1 objects."""
        return '{"custom": ' + '{"a": ' * (depth - 1) + '"x"' + "}" * depth

    # the opening brace of level MAX_DEPTH + 1
    COLUMN = len('{"custom": ' + '{"a": ' * (MAX_DEPTH - 1)) + 1

    @pytest.fixture
    def events(self, registry, tmp_path):
        from semschema.generator import GenConfig, generate_valid

        good = [json.dumps(generate_valid(registry, "View Item", 0, GenConfig(seed=seed))) for seed in (1, 2)]
        path = tmp_path / "deep.ndjson"
        path.write_text("\n".join([good[0], self.deep_line(MAX_DEPTH + 1), good[1]]) + "\n")
        return path

    @pytest.mark.parametrize(
        "argv, schemas",
        [
            (["validate", "{events}", "--repo", "{repo}"], []),
            (["transform", "{events}", "--repo", "{repo}"], [make_id("event", "View Item", 2)] * 2),
            (["jslt", "run", "{program}", "--input", "{events}"], [make_id("event", "View Item", 0)] * 2),
        ],
        ids=["validate", "transform", "jslt-run"],
    )
    def test_deep_line_fails_only_that_line(self, repo_dir, tmp_path, events, argv, schemas):
        program = tmp_path / "identity.jslt"
        program.write_text(".")
        paths = {"events": events, "repo": repo_dir, "program": program}
        done = fresh_cli([arg.format(**paths) for arg in argv])
        code = done.returncode
        out = [json.loads(line) for line in done.stdout.splitlines()]
        err = [json.loads(line) for line in done.stderr.splitlines()]
        assert code == 1
        assert [event["schema"] for event in out] == schemas
        assert err == [{"line": 2, "error": too_deep(self.COLUMN)}]

    def test_dqt_counts_the_deep_line(self, checks_dir, events):
        done = fresh_cli(["dqt", "run", "--modules", checks_dir, "--events", events, "--rate", "1.0"])
        code = done.returncode
        summary = json.loads(done.stderr)
        assert code == 0
        assert (summary["total"], summary["parse_errors"]) == (3, 1)

    def test_validate_at_the_default_recursion_limit(self, repo_dir, registry, tmp_path):
        # a fresh interpreter, at the default recursion limit
        path = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=2)
        first, second = path.read_text().splitlines()
        found = "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1)
        at_bound = first[:-1] + ', "extra": %s}' % found
        path.write_text("\n".join([first, at_bound, self.deep_line(MAX_DEPTH + 1), second]) + "\n")
        done = fresh_cli(["validate", path, "--repo", repo_dir], timeout=60)
        assert done.returncode == 1
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"line": 2, "path": ".extra", "kind": "unknown-property", "expected": "a declared property",
             "found": found[:117] + "..."},
            {"line": 3, "error": too_deep(self.COLUMN)},
        ]


class TestDeepOutput:
    """Line 2 nests exactly MAX_DEPTH levels and gets its full result; lines 1 and 3 are good."""

    def check(self, argv, schemas):
        done = fresh_cli(argv)
        assert (done.returncode, done.stderr) == (0, "")
        out = [json.loads(line) for line in done.stdout.splitlines()]
        assert [value["schema"] for value in out] == schemas
        return out[1]

    def test_jslt_run(self, tmp_path):
        program = tmp_path / "identity.jslt"
        program.write_text(".")
        data = tmp_path / "deep.ndjson"
        deep = '{"schema": "d", "x": ' + "[" * (MAX_DEPTH - 1) + "1" + "]" * (MAX_DEPTH - 1) + "}"
        data.write_text("\n".join(['{"schema": "a"}', deep, '{"schema": "b"}']) + "\n")
        assert self.check(["jslt", "run", str(program), "--input", str(data)], ["a", "d", "b"]) == json.loads(deep)

    def test_transform(self, repo_dir, registry, tmp_path):
        path = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=2)
        first, second = path.read_text().splitlines()
        deep = TestDeepLines.deep_line(MAX_DEPTH)[:-1] + ", " + first[1:]
        path.write_text("\n".join([first, deep, second]) + "\n")
        schema = make_id("event", "View Item", 2)
        assert self.check(["transform", str(path), "--repo", str(repo_dir)], [schema] * 3) == json.loads(deep)

    def test_dqt_run(self, checks_dir, tmp_path):
        # no @id, so the hash sampler serializes the whole event
        good = '{"@id": "%s", "published": "2020-01-01T00:00:00Z"}'
        deep = '{"published": "2020-01-01T00:00:00Z", "a": %s}' % ("[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1))
        summary, counts = fresh_dqt(checks_dir, tmp_path, [good % 1, deep, good % 3])
        assert (summary["total"], summary["sampled"], summary["parse_errors"]) == (3, 3, 0)
        assert counts["published_parses.valid"] == 3


class TestDeepValues:
    """Values that JSLT writes as text: nested up to the bound and past it, or not finite."""

    @staticmethod
    def nested(depth):
        return "[" * depth + "]" * depth

    @pytest.mark.parametrize("program", ['test(.x, "1")', "string(.x)"])
    def test_jslt_run_fails_only_that_line(self, tmp_path, program):
        # line 2 is MAX_DEPTH deep and stringifies; line 3 is one level deeper
        source = tmp_path / "program.jslt"
        source.write_text(program)
        data = tmp_path / "deep.ndjson"
        lines = ['{"x": %s}' % x for x in ("1", self.nested(MAX_DEPTH - 1), self.nested(MAX_DEPTH), "1")]
        data.write_text("\n".join(lines) + "\n")
        done = fresh_cli(["jslt", "run", source, "--input", data])
        assert done.returncode == 1
        out = [json.loads(line) for line in done.stdout.splitlines()]
        assert out[1] == (self.nested(MAX_DEPTH - 1) if program == "string(.x)" else False)
        assert len(out) == 3
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"line": 3, "error": too_deep(len('{"x": ') + MAX_DEPTH)}
        ]

    def test_dqt_counts_an_unstringifiable_value_as_a_check_error(self, tmp_path):
        # .n * 10 overflows to infinity on line 2, which test() cannot write as text
        modules = tmp_path / "checks"
        modules.mkdir()
        (modules / "grow.json").write_text(json.dumps({"grown": {"filter": ".n", "check": 'test(.n * 10, "^1")'}}))
        lines = ['{"@id": "%d", "n": %s}' % pair for pair in enumerate(["1", "1e308", "2"])]
        summary, counts = fresh_dqt(modules, tmp_path, lines)
        assert (summary["sampled"], summary["parse_errors"]) == (3, 0)
        assert {name: counts[f"grown.{name}"] for name in ("valid", "invalid", "error")} == {
            "valid": 1, "invalid": 1, "error": 1,
        }

    @pytest.mark.parametrize(
        "program, at", [("string(.x * 10)", "1:1"), ('"a" + .x * 10', "1:5"), ("{.x * 10: 1}", "1:5")]
    )
    def test_unwritable_operand_error_has_a_position(self, tmp_path, program, at):
        source = tmp_path / "program.jslt"
        source.write_text(program)
        data = tmp_path / "big.ndjson"
        data.write_text('{"x": 1e308}\n')
        done = fresh_cli(["jslt", "run", source, "--input", data])
        assert done.returncode == 1
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"line": 1, "error": f"cannot stringify: cannot serialize NaN or infinity at {at}"}
        ]


class TestEvaluationDepth:
    """A JSLT evaluation that outgrows the recursion limit fails its line alone.

    `w` wraps its value in 50 arrays per call, so `.n` = 30 builds a value
    1,500 levels deep in 30 calls, well under MAX_CALL_DEPTH, and `==`
    cannot compare it within the default recursion limit.
    """

    W = "def w(n, v) if ($n == 0) $v else w($n - 1, %s) " % ("[" * 50 + "$v" + "]" * 50)

    def test_jslt_run(self, tmp_path):
        program = tmp_path / "w.jslt"
        program.write_text(self.W + "w(.n, .) == w(.n, .)")
        data = tmp_path / "in.ndjson"
        data.write_text('{"n": 1}\n{"n": 30}\n{"n": 2}\n')
        done = fresh_cli(["jslt", "run", program, "--input", data])
        assert (done.returncode, done.stdout) == (1, "true\ntrue\n")
        assert [json.loads(line) for line in done.stderr.splitlines()] == [{"line": 2, "error": "nesting too deep"}]

    def test_transform(self, scratch_repo, registry, tmp_path):
        n = "number(.custom.n)"
        (scratch_repo / "transforms" / "View-Item" / "0-to-1.jslt").write_text(
            self.W + '{"referrer": if (w(%s, .) == w(%s, .)) .origin, * - origin : .}' % (n, n)
        )
        path = write_events(tmp_path / "events.ndjson", registry, "View Item", 0, count=3)
        events = path.read_text().splitlines()
        lines = [event[:-1] + ', "custom": {"n": "%s"}}' % n for event, n in zip(events, (1, 30, 2))]
        path.write_text("\n".join(lines) + "\n")
        done = fresh_cli(["transform", path, "--repo", scratch_repo])
        assert done.returncode == 1
        assert [json.loads(line)["custom"] for line in done.stdout.splitlines()] == [{"n": "1"}, {"n": "2"}]
        assert [json.loads(line) for line in done.stderr.splitlines()] == [{"line": 2, "error": "nesting too deep"}]

    def test_dqt_run(self, tmp_path):
        modules = tmp_path / "checks"
        modules.mkdir()
        check = self.W + "w(.n, .) == w(.n, .)"
        (modules / "w.json").write_text(json.dumps({"w": {"filter": ".n", "check": check}}))
        lines = ['{"@id": "%d", "n": %d}' % (i, n) for i, n in enumerate((1, 30, 2))]
        _, counts = fresh_dqt(modules, tmp_path, lines)
        assert {name: counts.get(f"w.{name}") for name in ("applicable", "valid", "invalid", "error")} == {
            "applicable": 3, "valid": 2, "invalid": None, "error": 1,
        }


class TestDeepPatterns:
    """A pattern nested past MAX_GROUP_DEPTH is one usage error naming its file; at the bound it still
    works in a schema nested as deep as MAX_DEPTH allows. Fresh interpreters, at the default recursion
    limit."""

    @staticmethod
    def nested(depth):
        return "(" * depth + "a" + ")" * depth

    def test_jslt_run_refuses_a_deep_test_pattern(self, tmp_path):
        program, data = tmp_path / "deep.jslt", tmp_path / "in.ndjson"
        program.write_text(f'test(., "{self.nested(8_000)}")')
        data.write_text('"a"\n')
        done = fresh_cli(["jslt", "run", program, "--input", data])
        assert (done.returncode, done.stdout) == (2, "")
        assert [json.loads(line) for line in done.stderr.splitlines()] == [{"error": (
            f"{program}: test: groups nested deeper than 64 in pattern {'(' * 64!r}... at offset 64 at 1:9")}]
        assert len(done.stderr.encode()) < 1024  # a fixed prefix of the 16,001-character pattern is quoted

    def test_schema_load_refuses_a_deep_schema_pattern(self, scratch_repo):
        file = scratch_repo / "object" / "Provider" / "0.json"
        doc = json.loads(file.read_text())
        doc["properties"]["code"] = {"type": "string", "pattern": self.nested(500)}
        file.write_text(json.dumps(doc))
        done = fresh_cli(["schema", "load", scratch_repo])
        assert (done.returncode, done.stdout) == (2, "")
        assert [json.loads(line) for line in done.stderr.splitlines()] == [{"error": (
            f"{file}.code: bad pattern: groups nested deeper than 64 in pattern {'(' * 64!r}... at offset 64")}]

    def test_a_pattern_at_the_bound_in_the_deepest_schema_loads_and_validates(self, tmp_path):
        levels = (MAX_DEPTH - 3) // 2  # each compound level is two JSON levels: its definition and its properties
        schema_id = make_id("event", "Deep", 0)

        def schema(levels):
            definition = {"type": "string", "pattern": "^" + self.nested(64) + "$"}
            for _ in range(levels):
                definition = {"type": "object", "properties": {"p": definition}}
            return json.dumps({"id": schema_id, "title": "Deep",
                               "properties": {"schema": {"type": "string"}, "p": definition}})

        with pytest.raises(JsonParseError, match="nesting deeper than"):  # one level more is refused
            parse_json(schema(levels + 1))
        (tmp_path / "event" / "Deep").mkdir(parents=True)
        (tmp_path / "event" / "Deep" / "0.json").write_text(schema(levels))

        def event(leaf):
            for _ in range(levels + 1):
                leaf = {"p": leaf}
            return json.dumps({"schema": schema_id, **leaf})

        events = tmp_path / "events.ndjson"
        events.write_text(event("a") + "\n" + event("b") + "\n")
        done = fresh_cli(["schema", "load", tmp_path])
        assert (done.returncode, done.stderr) == (0, "")
        done = fresh_cli(["validate", events, "--repo", tmp_path])
        assert done.returncode == 1
        ((line, mismatch),) = [(d["line"], d["kind"]) for d in map(json.loads, done.stderr.splitlines())]
        assert (line, mismatch) == (2, "pattern-failed")


class TestDqtRun:
    def test_stream_with_repo_and_sink_file(self, capsys, repo_dir, checks_dir, registry, tmp_path):
        events = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=20)
        sink = tmp_path / "metrics.ndjson"
        code, out, err = run(
            capsys, "dqt", "run", "--modules", str(checks_dir),
            "--events", str(events), "--rate", "1.0",
            "--sink", str(sink), "--repo", str(repo_dir), "--window", "w1",
        )
        assert (code, out) == (0, [])
        summary = err[0]
        assert summary["total"] == 20 and summary["parse_errors"] == 0
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        metrics = {line["metric"] for line in lines}
        assert "schema_compliance.valid" in metrics
        assert all(line["window"] == "w1" for line in lines)

    def test_stdout_sink_without_repo(self, capsys, checks_dir, registry, repo_dir, tmp_path):
        events = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=5)
        code, out, err = run(
            capsys, "dqt", "run", "--modules", str(checks_dir),
            "--events", str(events), "--rate", "1.0",
        )
        assert code == 0
        metrics = {line["metric"] for line in out}
        assert any(m.startswith("user_id_format.") for m in metrics)
        assert not any(m.startswith("schema_compliance.") for m in metrics)

    def test_lone_surrogate_id_is_sampled(self, capsys, checks_dir, tmp_path):
        events = tmp_path / "events.ndjson"
        events.write_text('{"@id": "\\ud800"}\n{"@id": "x"}\n')
        code = cli.main(["dqt", "run", "--modules", str(checks_dir), "--events", str(events), "--rate", "0.5"])
        summary = json.loads(capsys.readouterr().err)
        assert code == 0
        assert (summary["total"], summary["parse_errors"]) == (2, 0)

    def test_bad_rate_is_usage_error(self, capsys, checks_dir, tmp_path):
        events = tmp_path / "events.ndjson"
        events.write_text("")
        code, _, err = run(
            capsys, "dqt", "run", "--modules", str(checks_dir),
            "--events", str(events), "--rate", "7",
        )
        assert code == 2 and "rate" in err[0]["error"]

    def test_check_name_in_two_modules_is_a_usage_error(self, capsys, tmp_path):
        modules = tmp_path / "modules"
        modules.mkdir()
        (modules / "a.json").write_text(json.dumps({"c": {"filter": ".n", "check": ".n > 0"}}))
        (modules / "b.json").write_text(json.dumps({"c": {"filter": ".n", "check": ".n < 0"}}))
        sink = tmp_path / "metrics.ndjson"
        # refused before --events (missing here) or --sink is opened
        code, out, err = run(
            capsys, "dqt", "run", "--modules", str(modules), "--rate", "1.0",
            "--events", str(tmp_path / "missing.ndjson"), "--sink", str(sink),
        )
        assert (code, out) == (2, [])
        assert err == [{"error": f"{modules / 'b.json'}: check 'c' is already defined in {modules / 'a.json'}"}]
        assert not sink.exists()


class TestUnreadableInputs:
    """An input file that cannot be read (not UTF-8, not JSON, a bad path) is one usage error naming it."""

    NOT_UTF8 = b'{"title": "Provider\xff"}'

    def check(self, capsys, file, *argv):
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out, len(err)) == (2, [], 1)
        assert err[0]["error"].startswith(f"{file}: ")

    @pytest.mark.parametrize("data", [NOT_UTF8, b"{"], ids=["not-utf8", "not-json"])
    def test_check_module(self, capsys, tmp_path, data):
        (tmp_path / "team.json").write_bytes(data)
        self.check(capsys, tmp_path / "team.json", "dqt", "run", "--modules", tmp_path, "--events", tmp_path / "none")

    @pytest.mark.parametrize("data", [NOT_UTF8, b"{"], ids=["not-utf8", "not-json"])
    def test_proposal(self, capsys, repo_dir, tmp_path, data):
        proposal, samples = tmp_path / "proposal.json", tmp_path / "samples"
        proposal.write_bytes(data)
        samples.mkdir()
        self.check(capsys, proposal, "impact-test", "--repo", repo_dir, "--proposal", proposal, "--samples", samples)

    @pytest.mark.parametrize("data", [NOT_UTF8, b"{", b'{"schema": "Provider", "fragment": {"..x": 1}}'],
                             ids=["not-utf8", "not-json", "bad-path"])
    def test_sample(self, capsys, repo_dir, tmp_path, data):
        proposal, samples = tmp_path / "proposal.json", tmp_path / "samples"
        proposal.write_text(json.dumps({"title": "Provider", "properties": {}}))
        samples.mkdir()
        (samples / "feed.json").write_bytes(data)
        self.check(capsys, samples / "feed.json",
                   "impact-test", "--repo", repo_dir, "--proposal", proposal, "--samples", samples)

    def test_jslt_program(self, capsys, tmp_path):
        program = tmp_path / "p.jslt"
        program.write_bytes(b'"\xff"')
        self.check(capsys, program, "jslt", "run", program, "--input", tmp_path / "none")

    @pytest.mark.parametrize("bad, error", [
        ("program", "unexpected 'end of input' at 1:5"),
        ("proposal", "proposal file must be a schema document with a title"),
        ("sample", "unknown sample polarity 'sideways'"),
    ])
    def test_refused_file_is_named(self, capsys, repo_dir, tmp_path, bad, error):
        program, proposal, samples = tmp_path / "p.jslt", tmp_path / "proposal.json", tmp_path / "samples"
        samples.mkdir()
        if bad == "program":
            program.write_text(".n +")
            file, argv = program, ["jslt", "run", program, "--input", tmp_path / "none"]
        else:
            proposal.write_text(json.dumps({"properties": {}} if bad == "proposal" else {"title": "Provider", "properties": {}}))
            (samples / "feed.json").write_text(json.dumps({"schema": "Provider", "polarity": "sideways", "fragment": {}}))
            file = proposal if bad == "proposal" else samples / "feed.json"
            argv = ["impact-test", "--repo", repo_dir, "--proposal", proposal, "--samples", samples]
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out, err) == (2, [], [{"error": f"{file}: {error}"}])

    @pytest.mark.parametrize("data", [NOT_UTF8, b"{"], ids=["not-utf8", "not-json"])
    def test_releases(self, capsys, scratch_repo, data):
        (scratch_repo / "releases.json").write_bytes(data)
        self.check(capsys, scratch_repo / "releases.json", "schema", "load", scratch_repo)


class TestMain:
    def test_unknown_command_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_missing_events_file(self, capsys, repo_dir):
        code, _, err = run(capsys, "validate", "nope.ndjson", "--repo", str(repo_dir))
        assert code == 2 and "error" in err[0]


class TestParser:
    """Built for the named command alone, the parser prints and exits as
    the parser of every command does."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        captured = capsys.readouterr()
        return exit_info.value.code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"], [], ["nosuch"], ["-h", "validate"], ["--repo", "r", "validate"],
            ["schema", "--help"], ["schema"], ["schema", "nosuch"],
            ["schema", "load", "--help"], ["schema", "load"],
            ["schema", "show", "--help"], ["schema", "show", "Vehicle"],
            ["schema", "tombstone", "--help"], ["schema", "tombstone", "Vehicle", "--repo", "r", "--bogus"],
            ["schema", "tag", "--help"], ["schema", "tag"],
            ["validate", "--help"], ["validate", "e.ndjson", "--repo", "r", "--latest", "--schema", "X"],
            ["generate", "--help"], ["generate", "--repo", "r", "--schema", "X", "--count", "many"],
            ["diff", "--help"], ["diff", "Vehicle", "1"],
            ["transform", "--help"], ["transform", "e.ndjson", "--repo", "r", "extra"],
            ["impact-test", "--help"], ["impact-test", "--repo", "r"],
            ["jslt", "--help"], ["jslt"], ["jslt", "run", "--help"], ["jslt", "run"],
            ["dqt", "--help"], ["dqt"], ["dqt", "run", "--help"], ["dqt", "run", "--modules", "m", "--strategy", "all"],
            ["serve", "--help"], ["serve", "--repo", "r", "--port", "http"],
        ],
    )
    def test_same_output_and_exit_code_as_the_full_parser(self, capsys, argv):
        full = self.outcome(capsys, lambda argv: cli.build_parser().parse_args(argv), argv)
        assert self.outcome(capsys, cli.main, argv) == full
        assert full[0] in (0, 2)


class TestImportFootprint:
    """A command loads only the modules it runs (counted, not timed)."""

    PROBE = (
        "import sys\n"
        "from semschema import cli\n"
        "if sys.argv[2] == 'serve':  # serve blocks: build its server, then close it\n"
        "    from semschema import server\n"
        "    server.serve = lambda cfg: server.SchemaServer(cfg).server_close()\n"
        "cli.main(sys.argv[2:])\n"
        "open(sys.argv[1], 'w').write('\\n'.join(sys.modules))\n"
    )

    def modules_after(self, tmp_path, *argv):
        events = tmp_path / "empty.ndjson"
        events.write_text("")
        listing = tmp_path / "modules.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = [arg.format(events=events) for arg in argv]
        subprocess.run([sys.executable, "-c", self.PROBE, str(listing), *argv],
                       env=env, check=True, capture_output=True, timeout=60)
        return set(listing.read_text().splitlines())

    def test_validate(self, repo_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "validate", "{events}", "--repo", str(repo_dir))
        assert "semschema.validator" in loaded
        heavy = {"dataclasses", "datetime"} | {f"semschema.{m}" for m in ("dqt", "jslt", "evolution", "generator", "server")}
        assert not loaded & heavy

    # OpenSSL's libcrypto: the generator and the hash sampler use CPython's own SHA-256
    OPENSSL = {"hashlib", "_hashlib"}

    def test_generate(self, repo_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "generate", "--repo", str(repo_dir), "--schema", "View Item")
        assert "semschema.generator" in loaded
        assert not loaded & {"semschema.dqt", "semschema.jslt", "semschema.evolution", "dataclasses", "inspect"}
        assert not loaded & self.OPENSSL

    def test_impact_test(self, repo_dir, tmp_path):
        proposal, samples = TestImpactTest().write_inputs(tmp_path)
        loaded = self.modules_after(tmp_path, "impact-test", "--repo", str(repo_dir), "--proposal", str(proposal),
                                    "--samples", str(samples))
        assert {"semschema.evolution", "semschema.generator"} <= loaded
        assert not loaded & self.OPENSSL

    def test_transform(self, repo_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "transform", "{events}", "--repo", str(repo_dir))
        assert "semschema.evolution" in loaded
        assert not loaded & {"semschema.dqt", "semschema.generator", "dataclasses", "inspect"}

    def test_dqt_run(self, checks_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "dqt", "run", "--modules", str(checks_dir), "--events", "{events}")
        assert "semschema.dqt" in loaded
        assert not loaded & {"semschema.evolution", "semschema.generator", "dataclasses", "inspect",
                             "semschema.registry", "semschema.validator"}

    def test_dqt_run_at_rate_one_never_hashes(self, checks_dir, tmp_path):
        events = tmp_path / "events.ndjson"
        events.write_text('{"@id": "e1", "@type": "View"}\n{"@id": "e2"}\n')
        argv = ("dqt", "run", "--modules", str(checks_dir), "--events", str(events), "--sink", str(tmp_path / "out"))
        assert not self.modules_after(tmp_path, *argv, "--rate", "1.0") & self.OPENSSL
        sampled = self.modules_after(tmp_path, *argv, "--rate", "0.5")
        assert sampled & {"_sha2", "_sha256"} and not sampled & self.OPENSSL

    def test_serve(self, repo_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "serve", "--repo", str(repo_dir), "--port", "0")
        assert "semschema.server" in loaded
        assert not loaded & {"semschema.dqt", "semschema.generator", "dataclasses", "inspect", "hashlib"}
        # http.server would bring OpenSSL in through http.client, and the email package
        assert not loaded & {"ssl", "_ssl", "http.client", "http.server", "email", "mimetypes"}


class TestProcessEntry:
    """`python -m semschema.cli` runs main through `run`, which freezes the heap
    before the interpreter's final collection; a command's output and exit code
    are those of main in process."""

    TIMINGS = re.compile(r'("elapsed_seconds"|"events_per_second"):[-+.e0-9]+')

    def outcomes(self, capsys, argv, written=None):
        """(exit code, stdout, stderr, the `written` file's text) in process, then in a fresh interpreter."""
        results = []
        for spawn in (False, True):
            if spawn:
                env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONIOENCODING="utf-8")
                done = subprocess.run([sys.executable, "-m", "semschema.cli", *argv], env=env, capture_output=True,
                                      timeout=120)
                code, out, err = done.returncode, done.stdout.decode(), done.stderr.decode()
            else:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
            text = written.read_text(encoding="utf-8") if written else None
            results.append((code, out, self.TIMINGS.sub(r"\1:0", err), text))
        return results

    def test_transform_past_a_pipe_buffer(self, capsys, repo_dir, registry, tmp_path):
        events = write_events(tmp_path / "old.ndjson", registry, "View Item", 0, count=260)
        here, fresh = self.outcomes(capsys, ["transform", str(events), "--repo", str(repo_dir)])
        assert here == fresh
        assert here[0] == 0 and len(here[1].encode()) > 65_536

    def test_dqt_run_into_a_sink_file(self, capsys, checks_dir, registry, tmp_path):
        events = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=40)
        sink = tmp_path / "metrics.ndjson"
        argv = ["dqt", "run", "--modules", str(checks_dir), "--events", str(events), "--rate", "0.5",
                "--sink", str(sink), "--window", "w"]
        here, fresh = self.outcomes(capsys, argv, written=sink)
        assert here == fresh
        assert here[0] == 0 and here[3].count("\n") > 10

    def test_an_invalid_event_exits_one(self, capsys, repo_dir, tmp_path):
        events = tmp_path / "events.ndjson"
        events.write_text('{"schema": "nope"}\n{\n')
        here, fresh = self.outcomes(capsys, ["validate", str(events), "--repo", str(repo_dir)])
        assert here == fresh
        assert here[0] == 1

    def test_a_usage_error_exits_two(self, capsys, repo_dir):
        here, fresh = self.outcomes(capsys, ["validate", "--repo", str(repo_dir), "--bogus"])
        assert here == fresh
        assert here[0] == 2 and "usage:" in here[2]

    def test_main_never_freezes_the_heap(self, capsys, repo_dir, tmp_path):
        events = tmp_path / "empty.ndjson"
        events.write_text("")
        assert cli.main(["validate", str(events), "--repo", str(repo_dir)]) == 0
        assert gc.get_freeze_count() == 0

    def test_run_freezes_the_heap(self, tmp_path):
        probe = (
            "import gc, sys\n"
            "from semschema import cli\n"
            "sys.argv = ['semschema', 'validate', sys.argv[1], '--repo', sys.argv[2]]\n"
            "code = cli.run()\n"
            "print(code, gc.get_freeze_count() > 0)\n"
        )
        events = tmp_path / "empty.ndjson"
        events.write_text("")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", probe, str(events), str(Path(cli.__file__).parent / "fixtures" / "repo")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "0 True\n"), done.stderr
