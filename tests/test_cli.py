import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semschema import cli
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

    def test_undeclared_event_fails_that_line(self, capsys, repo_dir, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text('{"x": 1}\n')
        code, out, err = run(capsys, "transform", str(path), "--repo", str(repo_dir))
        assert (code, out) == (1, [])
        assert "schema declaration" in err[0]["error"]


class TestImpactTest:
    def write_inputs(self, tmp_path, loose=False):
        pattern = ".*" if loose else "^sdrn:mp:provider:[0-9]+$"
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
        assert out[-1] == {"title": "Provider", "proposed_version": 3, "blocked": True}

    def test_loosening_trips_the_guard(self, capsys, repo_dir, tmp_path):
        proposal, samples = self.write_inputs(tmp_path, loose=True)
        code, out, _ = run(
            capsys, "impact-test", "--repo", str(repo_dir),
            "--proposal", str(proposal), "--samples", str(samples),
        )
        assert code == 1
        results = {line["consumer"]: line["result"] for line in out if "consumer" in line}
        assert results["guard"] == "FAIL"

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
        assert err == [{"error": "unexpected character '²' at 1:6"}]

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


class TestDeepLines:
    """Line 2 nests deeper than any recursion limit; lines 1 and 3 are good."""

    @staticmethod
    def deep_line(depth):
        return '{"custom": ' + '{"a": ' * depth + '"x"' + "}" * (depth + 1)

    @pytest.fixture
    def events(self, registry, tmp_path):
        from semschema.generator import GenConfig, generate_valid

        good = [json.dumps(generate_valid(registry, "View Item", 0, GenConfig(seed=seed))) for seed in (1, 2)]
        path = tmp_path / "deep.ndjson"
        path.write_text("\n".join([good[0], self.deep_line(25_000), good[1]]) + "\n")
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
        assert err == [{"line": 2, "error": "nesting too deep (line 1, column 1)"}]

    def test_dqt_counts_the_deep_line(self, checks_dir, events):
        done = fresh_cli(["dqt", "run", "--modules", checks_dir, "--events", events, "--rate", "1.0"])
        code = done.returncode
        summary = json.loads(done.stderr)
        assert code == 0
        assert (summary["total"], summary["parse_errors"]) == (3, 1)

    def test_validate_at_the_default_recursion_limit(self, repo_dir, registry, tmp_path):
        # a fresh interpreter: no earlier jslt.compile has raised the limit
        path = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=2)
        first, second = path.read_text().splitlines()
        path.write_text("\n".join([first, self.deep_line(3_000), second]) + "\n")
        done = fresh_cli(["validate", path, "--repo", repo_dir], timeout=60)
        assert done.returncode == 1
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"line": 2, "error": "nesting too deep (line 1, column 1)"}
        ]


class TestDeepOutput:
    """Line 2 parses but nests too deep to serialize; lines 1 and 3 are good."""

    DEPTH = 15_000  # parses under the 20,000 limit jslt.compile sets; dumps needs two frames a level

    def check(self, argv, schemas):
        done = fresh_cli(argv)
        assert done.returncode == 1
        assert [json.loads(line)["schema"] for line in done.stdout.splitlines()] == schemas
        assert [json.loads(line) for line in done.stderr.splitlines()] == [{"line": 2, "error": "nesting too deep"}]

    def test_jslt_run(self, tmp_path):
        program = tmp_path / "identity.jslt"
        program.write_text(".")
        data = tmp_path / "deep.ndjson"
        deep = "[" * self.DEPTH + "1" + "]" * self.DEPTH
        data.write_text("\n".join(['{"schema": "a"}', deep, '{"schema": "b"}']) + "\n")
        self.check(["jslt", "run", str(program), "--input", str(data)], ["a", "b"])

    def test_transform(self, repo_dir, registry, tmp_path):
        path = write_events(tmp_path / "events.ndjson", registry, "View Item", 2, count=2)
        first, second = path.read_text().splitlines()
        deep = '{"custom": ' + '{"a": ' * self.DEPTH + "1" + "}" * self.DEPTH + ", " + first[1:]
        path.write_text("\n".join([first, deep, second]) + "\n")
        self.check(["transform", str(path), "--repo", str(repo_dir)], [make_id("event", "View Item", 2)] * 2)


class TestDeepValues:
    """Values that parse but nest too deep for jsonmodel.dumps: line 2 of each file."""

    DEPTH = 12_000  # parses under the 20,000 limit jslt.compile sets; dumps needs two frames a level
    DEEP = "[" * DEPTH + "]" * DEPTH

    def dqt(self, checks_dir, tmp_path, lines):
        path = tmp_path / "events.ndjson"
        path.write_text("\n".join(lines) + "\n")
        done = fresh_cli(["dqt", "run", "--modules", checks_dir, "--events", path, "--rate", "1.0", "--window", "w"])
        assert done.returncode == 0
        counts = {line["metric"]: line["count"] for line in map(json.loads, done.stdout.splitlines())}
        return json.loads(done.stderr), counts

    def test_dqt_counts_an_unhashable_event_as_a_parse_error(self, checks_dir, tmp_path):
        good = '{"@id": "%s", "published": "2020-01-01T00:00:00Z"}'
        # no @id, so the hash sampler serializes the whole event
        summary, counts = self.dqt(checks_dir, tmp_path, [good % 1, '{"a": %s}' % self.DEEP, good % 3])
        assert (summary["total"], summary["sampled"], summary["parse_errors"]) == (3, 2, 1)
        assert (counts["parse_error"], counts["published_parses.valid"]) == (1, 2)

    def test_dqt_counts_an_unstringifiable_value_as_a_check_error(self, checks_dir, tmp_path):
        line = '{"@id": "%s", "actor": {"spt:userId": %s}}'
        lines = [line % (1, '"sdrn:a:user:1"'), line % (2, self.DEEP), line % (3, '"x"')]
        summary, counts = self.dqt(checks_dir, tmp_path, lines)
        assert (summary["sampled"], summary["parse_errors"]) == (3, 0)
        assert {name: counts[f"user_id_format.{name}"] for name in ("valid", "invalid", "error")} == {
            "valid": 1, "invalid": 1, "error": 1,
        }

    @pytest.mark.parametrize("program", ['test(.x, "1")', "string(.x)"])
    def test_jslt_run_fails_only_that_line(self, tmp_path, program):
        source = tmp_path / "program.jslt"
        source.write_text(program)
        data = tmp_path / "deep.ndjson"
        data.write_text("\n".join(['{"x": 1}', '{"x": %s}' % self.DEEP, '{"x": 1}']) + "\n")
        done = fresh_cli(["jslt", "run", source, "--input", data])
        assert done.returncode == 1
        assert len(done.stdout.splitlines()) == 2
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"line": 2, "error": "cannot stringify: nesting too deep at 1:1"}
        ]

    @pytest.mark.parametrize("program, at", [("string(.x * 10)", "1:11"), ('"a" + .x', "1:5"), ("{.x: 1}", "1:2")])
    def test_unwritable_operand_error_has_a_position(self, tmp_path, program, at):
        source = tmp_path / "program.jslt"
        source.write_text(program)
        data = tmp_path / "deep.ndjson"
        data.write_text('{"x": %s}\n' % self.DEEP)
        done = fresh_cli(["jslt", "run", source, "--input", data])
        assert done.returncode == 1
        assert [json.loads(line) for line in done.stderr.splitlines()] == [
            {"line": 1, "error": f"cannot stringify: nesting too deep at {at}"}
        ]


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

    def test_transform(self, repo_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "transform", "{events}", "--repo", str(repo_dir))
        assert "semschema.evolution" in loaded
        assert not loaded & {"semschema.dqt", "semschema.generator", "dataclasses", "inspect"}

    def test_dqt_run(self, checks_dir, tmp_path):
        loaded = self.modules_after(tmp_path, "dqt", "run", "--modules", str(checks_dir), "--events", "{events}")
        assert "semschema.dqt" in loaded
        assert not loaded & {"semschema.evolution", "semschema.generator", "dataclasses", "inspect",
                             "semschema.registry", "semschema.validator"}
