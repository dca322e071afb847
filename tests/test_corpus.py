"""Every command's output pinned: one sha256 per case over its exit code, stdout and stderr.

The server's bytes are pinned the same way, one sha256 per request script
(see `SERVER_SCRIPTS`).

The inputs are built here from the bundled fixtures: seeded events of every
event title and version, events with planted mismatches, the same events and
some arithmetic operands with their numbers written as floats, bad lines,
proposals and samples, and copies of the repository and check modules with
one file refused. Each case runs `cli.main` in process, in the directory that
holds them, so every path in an output is relative. `dqt run`'s summary
carries two timings, `elapsed_seconds` and `events_per_second`; they are
masked.

A change that means to alter an output updates that case's digest here and
says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import semschema
from semschema import cli
from semschema.generator import GenConfig, generate_valid
from semschema.jsonmodel import MAX_DEPTH, JsonPath, set_path
from semschema.registry import load_repo, make_id, parse_id
from semschema.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES, SchemaServer, ServerConfig

FIXTURES = Path(semschema.__file__).parent / "fixtures"
TRANSFORMS = sorted(path.relative_to(FIXTURES) for path in (FIXTURES / "repo" / "transforms").glob("*/*.jslt"))
# (slug, version) of every schema file, event and object
VERSIONS = sorted((path.parent.name, int(path.stem)) for path in (FIXTURES / "repo").glob("*/*/*.json"))

NOT_UTF8 = b'{"title": "Provider\xff"}'
PROPOSAL = {"title": "Provider", "allOf": make_id("object", "Provider", 2), "required": ["@id"]}
SAMPLES = {
    "legacy-feed.json": {"schema": "Provider", "fragment": {'."@id"': "sdrn:x:provider:abc"}},
    "guard.json": {"schema": "Provider", "polarity": "must-stay-invalid", "fragment": {'."@id"': "not-an-sdrn"}},
}
# a refused copy of one input file: directory -> (the file in it, its bytes)
REFUSED_REPOS = {
    "repo-schema-not-utf8": ("object/Provider/1.json", NOT_UTF8),
    "repo-schema-not-json": ("object/Provider/1.json", b'{"title": "Provider",'),
    "repo-releases-not-utf8": ("releases.json", NOT_UTF8),
    "repo-releases-not-json": ("releases.json", b"[{]"),
    "repo-transform-not-utf8": ("transforms/Provider/0-to-1.jslt", b'{"a": "\xff"}'),
    "repo-transform-not-jslt": ("transforms/Provider/0-to-1.jslt", b'{"a": .x +}'),
    "repo-transform-bad-escape": ("transforms/Provider/0-to-1.jslt", b'{"a": "\\q"}'),
}
PROGRAMS = {
    "not-utf8": b'"\xff"',
    "syntax": b".n +",
    "bad-escape": b'. + "a\\qb"',
    "bad-unicode-escape": b'"\\u12g4"',
    "unterminated": b'{"a": "b}',
    "surrogate-pair": b'{"face": "\\ud83d\\ude00", "lone": "\\ud800"}',
    "out-of-range": b"[.n, 1e400]",
}


def plant(registry, event):
    """One copy of `event` per mismatch kind that its schema lets one plant, in a fixed order."""
    _, title, version = parse_id(event["schema"])
    resolved = registry.resolve(title, version)
    slots = [slot for slot in _slots(registry, resolved.properties, event, ()) if slot[0] != ("schema",)]
    planted = []
    for wanted, value in (("pattern", "!"), ("enum", "not-a-member"), ("number", "seven"), ("compound", 5)):
        for path, prop in slots:
            if prop.kind == wanted or (wanted == "pattern" and prop.kind == "string" and prop.pattern):
                planted.append(set_path(event, JsonPath(path), value))
                break
    present = [name for name in resolved.required if name in event and name != "schema"]
    if present:
        planted.append({k: v for k, v in event.items() if k != present[0]})
    planted.append({**event, "zz_unknown": 1})
    planted.append({**event, "custom": {"n": 1}})
    planted.append({**event, "schema": "https://schema.example.com/schemas/event/Nope/0"})
    return planted


def _slots(registry, properties, value, path):
    """(path, definition) of each declared property present in `value`, depth first."""
    for name, prop in properties.items():
        if not isinstance(value, dict) or name not in value:
            continue
        yield path + (name,), prop
        if prop.kind == "compound":
            yield from _slots(registry, prop.child_map(), value[name], path + (name,))
        elif prop.kind == "ref":
            yield from _slots(registry, registry.resolve(prop.ref_title).properties, value[name], path + (name,))


BAD_LINES = [
    b'{"schema": "\xff"}',
    b'{"schema": 1e400}',
    b'{"schema": "\\ud800", "custom": {"x": "\\udcff"}}',
    b'{"schema": "a", "schema": "https://schema.example.com/schemas/event/View-Item/0", "custom": {}}',
    b'{"schema": ',
    b"[" * 401 + b"]" * 401,
    b"[]",
]


# float texts planted in events: integral floats in several spellings,
# negative zero, and numbers past 2**53 that stay as written
FLOATS = ("2.0", "-0.0", "1E2", "10e-1", "1e16", "9007199254740993", "9007199254740992.0", "0.5", "-1.25e-7",
          "123.456", "-3.0e2", "4.5E+3", "1e-320", "0.0")
# (.n, .m) for ARITHMETIC; no pair of integral operands, one written as a
# float, with an operand or a result past 2**53: that arithmetic is exact
# on ints now and was on doubles before (README, Numbers)
OPERANDS = [("2.0", "0.5"), ("-0.0", "3"), ("1E2", "10e-1"), ("10e-1", "-0.0"), ("1e16", "3"), ("9007199254740993", "0.5"),
            ("9007199254740993", "1"), ("123.456", "7.0"), ("0.1", "0.2"), ("-3.0e2", "4.5E+3"), ("1e-320", "2"),
            ("7", "2"), ("6", "3.0"), ("1e308", "10"), ("9007199254740992.0", "0.5"), ("-1.25e-7", "1e16")]
TIMES = ('"2020-01-02T03:04:05Z"', '"2020-01-02T03:04:05+01:30"', '"junk"', "2.0")
ARITHMETIC = (b'{"sum": .n + .m, "diff": .n - .m, "prod": .n * .m, "quot": .n / .m, "neg": -.n, "round": round(.n),\n'
              b' "text": string(.n) + " " + string(.m), "number": number(string(.m), null), "item": [10, 20, 30][.i],\n'
              b' "time": parse-time(.t, "yyyy-MM-dd\'T\'HH:mm:ssX", null), "literals": [2.0, -0.0, 1E2, 10e-1, 1.5e-7]}\n')


def float_lines(registry, events) -> list[bytes]:
    """Each event with its numbers written as FLOATS, once as it is and once more
    with a float in a string slot and in `custom`; then one line per OPERANDS pair."""
    texts = itertools.cycle(FLOATS)
    lines = []
    for event in events:
        slots = list(_slots(registry, registry.resolve(*parse_id(event["schema"])[1:]).properties, event, ()))
        floats = {}
        for path, prop in slots:
            if prop.kind == "number":
                marker = f"\0{len(floats)}"
                floats[marker] = next(texts)
                event = set_path(event, JsonPath(path), marker)
        variants = [event]
        strings = [path for path, prop in slots if prop.kind == "string" and path != ("schema",)]
        if strings:
            floats["\0s"], floats["\0c"] = next(texts), next(texts)
            variants.append({**set_path(event, JsonPath(strings[0]), "\0s"), "custom": {"f": "\0c"}})
        for variant in variants:
            text = json.dumps(variant)
            for marker, number in floats.items():
                text = text.replace(json.dumps(marker), number)
            lines.append(text.encode())
    for i, (n, m) in enumerate(OPERANDS):
        lines.append(f'{{"n": {n}, "m": {m}, "i": {FLOATS[i % 4]}, "t": {TIMES[i % 4]}}}'.encode())
    return lines


def deep_line(depth: int, event: dict) -> bytes:
    """`event` with a `custom` object that takes the line to `depth` levels."""
    custom = '{"a": ' * (depth - 1) + '"x"' + "}" * (depth - 1)
    return ('{"custom": %s, %s' % (custom, json.dumps(event)[1:])).encode()


def build(root: Path) -> None:
    """Write every input of the corpus under `root`."""
    shutil.copytree(FIXTURES / "repo", root / "repo")
    shutil.copytree(FIXTURES / "checks", root / "checks")
    registry = load_repo(root / "repo")
    events = []
    for title in sorted(registry.titles()):
        if registry.kind_of(title) != "event":
            continue
        for version in registry.versions(title):
            if registry.get(title, version).is_tombstone():
                continue
            for seed in (1, 2):
                events.append(generate_valid(registry, title, version, GenConfig(seed=seed)))
    lines = [json.dumps(event).encode() for event in events]
    for event in events[::5]:
        lines.extend(json.dumps(mutant).encode() for mutant in plant(registry, event))
    (root / "events.ndjson").write_bytes(b"\n".join(lines + BAD_LINES) + b"\n")
    (root / "numbers.ndjson").write_bytes(b'{"n": 1}\n{"n": 2.5}\n')
    first, second = (generate_valid(registry, "View Item", 0, GenConfig(seed=seed)) for seed in (1, 2))
    for depth in (MAX_DEPTH, MAX_DEPTH + 1):
        (root / f"deep-{depth}.ndjson").write_bytes(deep_line(depth, first) + b"\n" + json.dumps(second).encode() + b"\n")
    (root / "floats.ndjson").write_bytes(b"\n".join(float_lines(registry, events)) + b"\n")

    samples = root / "samples"
    samples.mkdir()
    for name, sample in SAMPLES.items():
        (samples / name).write_text(json.dumps(sample))
    for pattern, name in (("^sdrn:mp:provider:[0-9]+$", "blocked"), ("^sdrn:[a-z]+:provider:[a-z0-9]+$", "open")):
        proposal = {**PROPOSAL, "properties": {"@id": {"type": "string", "pattern": pattern}}}
        (root / f"proposal-{name}.json").write_text(json.dumps(proposal))
    (root / "proposal-not-utf8.json").write_bytes(NOT_UTF8)
    (root / "proposal-not-json.json").write_bytes(b'{"title": "Provider"')
    for name, data in (("not-utf8", NOT_UTF8), ("not-json", b'{"schema": "Provider",')):
        (root / f"samples-{name}").mkdir()
        (root / f"samples-{name}" / "feed.json").write_bytes(data)
        (root / f"checks-{name}").mkdir()
        (root / f"checks-{name}" / "team.json").write_bytes(data)
    for directory, (file, data) in REFUSED_REPOS.items():
        shutil.copytree(root / "repo", root / directory)
        (root / directory / file).write_bytes(data)
    (root / "programs").mkdir()
    for name, data in PROGRAMS.items():
        (root / "programs" / f"{name}.jslt").write_bytes(data)
    (root / "programs" / "arithmetic.jslt").write_bytes(ARITHMETIC)


def _impact(proposal, samples="samples"):
    return ["impact-test", "--repo", "repo", "--proposal", proposal, "--samples", samples]


CASES = {
    "schema-load": ["schema", "load", "repo"],
    "validate-self": ["validate", "events.ndjson", "--repo", "repo"],
    "validate-latest": ["validate", "events.ndjson", "--repo", "repo", "--latest"],
    "validate-explicit": ["validate", "events.ndjson", "--repo", "repo", "--schema", "View Item@1"],
    "transform": ["transform", "events.ndjson", "--repo", "repo"],
    "validate-floats": ["validate", "floats.ndjson", "--repo", "repo"],
    "transform-floats": ["transform", "floats.ndjson", "--repo", "repo"],
    "jslt-run-arithmetic-floats": ["jslt", "run", "programs/arithmetic.jslt", "--input", "floats.ndjson"],
    "dqt-run": ["dqt", "run", "--modules", "checks", "--events", "events.ndjson", "--rate", "1.0", "--window", "w"],
    "dqt-run-repo": ["dqt", "run", "--modules", "checks", "--events", "events.ndjson", "--rate", "1.0",
                     "--window", "w", "--repo", "repo"],
    "dqt-run-sampled": ["dqt", "run", "--modules", "checks", "--events", "events.ndjson", "--rate", "0.25",
                        "--window", "w", "--repo", "repo"],
    "impact-test-blocked": _impact("proposal-blocked.json"),
    "impact-test-open": _impact("proposal-open.json"),
    "refused-proposal-not-utf8": _impact("proposal-not-utf8.json"),
    "refused-proposal-not-json": _impact("proposal-not-json.json"),
    "refused-sample-not-utf8": _impact("proposal-open.json", samples="samples-not-utf8"),
    "refused-sample-not-json": _impact("proposal-open.json", samples="samples-not-json"),
    "refused-check-module-not-utf8": ["dqt", "run", "--modules", "checks-not-utf8", "--events", "events.ndjson"],
    "refused-check-module-not-json": ["dqt", "run", "--modules", "checks-not-json", "--events", "events.ndjson"],
    # a refused transform stops `transform`; any other refused file stops `schema load`
    **{f"refused-{directory[5:]}": ["transform", "events.ndjson", "--repo", directory] if "transform" in directory
       else ["schema", "load", directory] for directory in REFUSED_REPOS},
    **{f"schema-show-{slug}-{version}": ["schema", "show", f"{slug.replace('-', ' ')}@{version}", "--repo", "repo",
                                        "--resolved"] for slug, version in VERSIONS},
    **{f"generate-{slug}-{version}": ["generate", "--repo", "repo", "--schema", f"{slug.replace('-', ' ')}@{version}",
                                     "--count", "3", "--seed", "7"] for slug, version in VERSIONS},
    **{f"diff-{slug}-{version}": ["diff", slug.replace("-", " "), str(version - 1), str(version), "--repo", "repo"]
       for slug, version in VERSIONS if version},
    **{f"jslt-run-{name}": ["jslt", "run", f"programs/{name}.jslt", "--input", "numbers.ndjson"] for name in PROGRAMS},
    **{f"jslt-run-{path.parent.name}-{path.stem}": ["jslt", "run", f"repo/transforms/{path.parent.name}/{path.name}",
                                                    "--input", "events.ndjson"] for path in TRANSFORMS},
}

# one line nested MAX_DEPTH levels deep and one a level deeper, each followed by a good line;
# run in a fresh interpreter (see `test_deep_lines_are_pinned`)
DEEP_CASES = {
    f"{name}-deep-{depth}": [*argv[:1], *(arg.format(f"deep-{depth}.ndjson") for arg in argv[1:])]
    for depth in (MAX_DEPTH, MAX_DEPTH + 1)
    for name, argv in (
        ("validate", ["validate", "{}", "--repo", "repo"]),
        ("transform", ["transform", "{}", "--repo", "repo"]),
        ("dqt-run", ["dqt", "run", "--modules", "checks", "--events", "{}", "--rate", "1.0", "--window", "w",
                     "--repo", "repo"]),
    )
}

_TIMINGS = re.compile(r'("elapsed_seconds"|"events_per_second"):[-+.e0-9]+')


def outcome(argv) -> str:
    """The case's exit code, stdout and stderr as one JSON text, with the timings masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps([code, out.getvalue(), _TIMINGS.sub(r"\1:0", err.getvalue())])


def digest(argv) -> str:
    return hashlib.sha256(outcome(argv).encode("utf-8", "surrogatepass")).hexdigest()


DIGESTS = {
    "diff-Base-Event-1": "a2f4bc9796a68712c8cd530474b76ddc1f263a8583ea250a06b60a30b9b6005c",
    "diff-Base-Event-2": "c81c2ea78d4dabe0c5b89fd621cca294dcff23f0fd94b275d15c894285a558a3",
    "diff-Base-Object-1": "a38740fad961db7d79fcc8070408e2f3a84f92f0e4b888e83a32941a81069c2e",
    "diff-Base-Object-2": "f7dc9957c22d0d8874c3b7d11010e35cc2bed7b8f2817a425d433ced84e7ec3e",
    "diff-ClassifiedAd-1": "39cabc013db32a59b62269b063a1946746f1b07885ef4fcb7f134e6aab8a942d",
    "diff-ClassifiedAd-2": "b5ffc07bc0e831c54a24473e4c3b747aac1cc158b75af748eb238843522179de",
    "diff-Message-1": "057e19268aeeda03a12326b049af8b101327782ca5af62c702c0997c495f963a",
    "diff-Message-2": "debc430210c1c12fd74d4d6944f34a1e70fb7915e95f322a185af6af3e652c83",
    "diff-Post-Item-1": "4ffd3bbc7286cd3f3bc5ae499dd6b5a2a7776d36b18ce5e2c70634874e11b614",
    "diff-Post-Item-2": "e5a770dc887723c3a5a0a6f5d2fb9ee7542006b44895755ed0e5a23b8eb78044",
    "diff-Provider-1": "a585301d076bf1cf929cb87c0ff60586d80aebab527b9584ade94d94672a7d60",
    "diff-Provider-2": "5a8dcf0e0ad3ea6f8411f4b7f1e1c47bc6b2ffd71d6e7e255d73623a1fe3bad9",
    "diff-Save-Item-1": "a40132b6fc7c617dc90d77738a942fa2316f6672146511f6cd56e9a525447d65",
    "diff-Save-Item-2": "a532856973f0782176855b737990b2b7099011045a9b448a1534962346b9790a",
    "diff-Search-Listing-1": "544d44a8394d7cde0d19d554e3095dd532c6c9a4357c05033fb4ffd634715f03",
    "diff-Search-Listing-2": "7c9268fadf1547b7dac841efaa17c945134eb6e5559265410d0093435b28bcc1",
    "diff-SearchQuery-1": "f43bbd806848b8f683703dda7518bdf11e87b3362940166040baf2c3009732bd",
    "diff-SearchQuery-2": "59bb8a831bfb6271c14354be93876f78ec883d4637c2f50a16950571195fe0a4",
    "diff-Send-Message-1": "a2f4bc9796a68712c8cd530474b76ddc1f263a8583ea250a06b60a30b9b6005c",
    "diff-Send-Message-2": "d6481a6119de1f8ccb5a97de2cc1604d9dab00386955eddda02a87a5a630905b",
    "diff-Share-Item-1": "5f6a2594618a302ee161ad9e7ac3daf3ab653f9b04c0e2555fba9a00d241f234",
    "diff-Share-Item-2": "05d76f0861a4a33b05bc86e8e0fdfbe7e660bf3db45cb4df426a873865026595",
    "diff-Tracker-1": "afd0a7a26919e90e14620d0d602d3a4e192e4e7ee902b05fd5d07e25e8e58426",
    "diff-Tracker-2": "91e438f9f7d89818b8e95a026d240e0c52dcf5e41d50fd5f8a8a028239497f2f",
    "diff-Vehicle-1": "b25bb0b86cd0eb4ada11070efd50c8c0b8397436e519dd511afd5686b325af80",
    "diff-Vehicle-2": "ce6f6d0b6ab8c4024bda8906c4656cdaddb31d125994aa62f29dd8ff25e99ba9",
    "diff-View-Item-1": "1103d6dd5b59351f31498c36e607d9bdc57ab28a5be6ab7c0d5cbed17b8154ee",
    "diff-View-Item-2": "c3b949dd6d9a63686cb83c8e8744913d0eaa2264ae570ac7bd43d201d237321c",
    "dqt-run": "fe4db967ab31f7487799bfcc15eb673b08849e7a4d00256f385ed8c14a58e90b",
    "dqt-run-repo": "8700cfd823b90b60b2dde8314ed2c74dc708db572c3df02a6cf65923dd378921",
    "dqt-run-sampled": "1685230648bdc3193744437b2de162a0d3d1af3e9815a3d2d1f48fcd394cb341",
    "generate-Base-Event-0": "60430961ba291b47baabbfa41a3df86e802a977ab2358298338010200d4d676a",
    "generate-Base-Event-1": "6ab92a494b1d8217b0c403ce69e74994b0e14e4c2e79afe69a8b463b36818d50",
    "generate-Base-Event-2": "76064fd2075209eed28db6eece73d8604e92517140243812695fd5552cf0d71b",
    "generate-Base-Object-0": "a68c9a20c900aec2291c98c49ef88f8fe64c580507e87c47720bda227d3bf168",
    "generate-Base-Object-1": "4699ed514d559493b590c26f60cef9598ba4a5e5ca5d54dc78a3569f4a19420f",
    "generate-Base-Object-2": "96dcc237e1ad297fea93dd3dc783581a60c86e39acdf8ae201730aebea8daf46",
    "generate-ClassifiedAd-0": "47731000c1aa132e4c03d9e4e21579d284e60d6df2c7f18afa5bafcbdad98552",
    "generate-ClassifiedAd-1": "09114c98a415cbc56f0d79725bd1539bbf85b6e3c86f2167708d668a5fec5e88",
    "generate-ClassifiedAd-2": "3e9dc33cd632cab77b9dccead5b44afa6fdb854c45e4a2304258ef0e63be6ed8",
    "generate-Message-0": "5b140d772509bee05cad975c50cffd1547cea761c3c3d79bb20b5bcb59ee78e0",
    "generate-Message-1": "ad78d7315a99d4d14bffd730e3d04724b42b76eb6c80219816623183f17a2e8c",
    "generate-Message-2": "19362592a1efde98a10a036f6b333d0787637d2a2c51a2e2d601364682edf5f0",
    "generate-Post-Item-0": "583b30fe8709cc86d31c4dcc544e787f011820d5f5ddc618e97ae96adbaaf17d",
    "generate-Post-Item-1": "d704d6b56592aa580fb2f2261aaf5b21a51fa067762b3e6b225df60885d416f1",
    "generate-Post-Item-2": "c990de9d66e2c18b0fa0a1c347e21ee4e05eb6fbc958c1a8f5bc28a2207029d7",
    "generate-Provider-0": "e32c7a8a620f4d436526afa0db3367dd43b7ec6726f500a1135fbae150e1f377",
    "generate-Provider-1": "057323132bc959ceff8c35a9972d8d7284c4e6e3e4346973a873c1fdb628b030",
    "generate-Provider-2": "08b97ee0ccc8bc4e990ef48dfa959c2b159860fd2695a398c9ed235baa10a320",
    "generate-Save-Item-0": "f8d34c9f1d5e476e8a2e2a10217c89d7f653ba1eaf69745cb1935100a1451260",
    "generate-Save-Item-1": "4bfafe70827f584543c41778740bda94fb4590a77ec44bc1b83b5748e46d66d8",
    "generate-Save-Item-2": "6332bdd2ba746f4a64db7d67038841974927954dca9138db763c457ecbcbc693",
    "generate-Search-Listing-0": "f9ec860cc9aa064f248af4576fc41b6c4b4e2afb7a8dd196a03cec9a0670a27f",
    "generate-Search-Listing-1": "2024f10d290fa1b95956af48800359a5b05283fb7041bc76c7b7aa334db3033a",
    "generate-Search-Listing-2": "61737fc1d91e418cf6f3193deffd2b3383a683de592b69558a8a6b04c1560709",
    "generate-SearchQuery-0": "cceda72e48cc3db7ec8db8118f61b9308791ac61761990243e3555e11e79b445",
    "generate-SearchQuery-1": "4e09f4752ff3db995106b6ff2ed00233f873b70564d129b3e2f349740425fedf",
    "generate-SearchQuery-2": "ccabc14380dd841490d84cc697daf8e03cf7a61934a25eac701357e3f9f389b1",
    "generate-Send-Message-0": "436ca84050ef7753f30a8a9537cd3bedef9fe26507afe681ddfd65ac3202957f",
    "generate-Send-Message-1": "6c3437612c8af5f12ad1b6f99f4a7df884b94f582f61e80a3619f7725a5e87e0",
    "generate-Send-Message-2": "bc7dc198608f31e5033ba73fba84230c9d88b77957fff4a5ae505741b129ed00",
    "generate-Share-Item-0": "8c19f956af60216a4a5fa8242e54aed585e6a35922c0f286ee1faffd1e2ff004",
    "generate-Share-Item-1": "fa84a7eb05863e747bada084888b2929d06a4ad091fd6bcb03e7d92c3c1a3374",
    "generate-Share-Item-2": "18c82b611be78c7b841ad59767d6b3313e52c9fb666cf3b94e89f30bbe45569c",
    "generate-Tracker-0": "dc3560806bb9fe052818575b17acc04d4f77cc290a5a06c0cd07a72954c2f773",
    "generate-Tracker-1": "904d89d3521851b95b0edba4faab9e05b38ad08fd73c7986b7e7966dbcb64098",
    "generate-Tracker-2": "cea67e0424b7f42e93623b8ed4e679ba4a805c36ba4ad6019b184a693a480258",
    "generate-Vehicle-0": "7d1aeb52e1ebf30ee752d629cd7fece52152ef87fd90088f4ea5348c7c02ac8d",
    "generate-Vehicle-1": "7641be13ea4ea5938bce62141ad5970176c0ec9fb314cf83c2330cc8229ebf67",
    "generate-Vehicle-2": "85908f20e3382e577fcddc337e6dc1237891c1c9fdc256761ab3674ccfdba642",
    "generate-View-Item-0": "b3c7beb3f689f481afa563feff61e42773f8c0b5de5124b835242b09214311de",
    "generate-View-Item-1": "31e05078f426242a97faadf90af0517870ac992b0d5e835747a48d1b9fa7f9d3",
    "generate-View-Item-2": "5e67e15bce6d6169c10c0697e3da748e80285c451be9802832f12191e641056a",
    "impact-test-blocked": "79f9488095c4cff2edd28438e7f69f0f717d71efb81bb9fe51529b84c50e5048",
    "impact-test-open": "35fadad788419897c6bbe1ccf1c8c44cade7f1e34128859e7a2232dc807beaeb",
    "jslt-run-Base-Event-1-to-2": "3b4d1265d2bc03dbfa3d4e70cdb6311a598f60f5ef9454218cd0dc878e61c062",
    "jslt-run-Base-Object-1-to-2": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-ClassifiedAd-0-to-1": "3b4d1265d2bc03dbfa3d4e70cdb6311a598f60f5ef9454218cd0dc878e61c062",
    "jslt-run-ClassifiedAd-1-to-2": "81731797f60ad13dd60c96ebf6e7b35459671e30d5a62254d86ee5acd7339313",
    "jslt-run-Message-0-to-1": "e359b11f808d7579554582d7c86842f640fe07fefdc305ff2a8481f4dea3295e",
    "jslt-run-Post-Item-0-to-1": "61880ca7ed1206005994e6dd2b8924e5a7d6ba101e4291ad3c2034f17a19112d",
    "jslt-run-Provider-0-to-1": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-Save-Item-1-to-2": "a15c265ecced04dc560d274a18c13a886dd975a6fac206349a984bc25afb314b",
    "jslt-run-Search-Listing-0-to-1": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-Search-Listing-1-to-2": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-SearchQuery-0-to-1": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-SearchQuery-1-to-2": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-Send-Message-1-to-2": "4559b984300466c4c4c9e2967c37d596db01c276d451774ba5e33c287322f5fb",
    "jslt-run-Share-Item-1-to-2": "cbaf6d202d970b438c036463c3d06f5c314aa4d0ca237cd0ac66d21a2a27324b",
    "jslt-run-Tracker-0-to-1": "3b4d1265d2bc03dbfa3d4e70cdb6311a598f60f5ef9454218cd0dc878e61c062",
    "jslt-run-Tracker-1-to-2": "3b4d1265d2bc03dbfa3d4e70cdb6311a598f60f5ef9454218cd0dc878e61c062",
    "jslt-run-Vehicle-0-to-1": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-Vehicle-1-to-2": "93d4bbabbc2ab0ca7f01bc5e53d45246461976e2764432c0a636532ab5e3ebca",
    "jslt-run-View-Item-0-to-1": "d4e8b1a8e2d1a58f54ad75eed8a2be78e5f59c9589fa2065548f9d05d0f0f9f3",
    "jslt-run-arithmetic-floats": "417b3d41c2b08085e77d1ca3868a3aaeb769809962c58db3499edbbfa249f1a1",
    "jslt-run-bad-escape": "16c51a7e6e72c38524b8ad7835de2a082672b9c3c93d6dca5ef48614ef64898f",
    "jslt-run-bad-unicode-escape": "4ba1eba2908573bc3421fbfeb4cfffb9c4ccd70f07922faa80085bd3f99baa98",
    "jslt-run-not-utf8": "18f07df1c9b6f297b4fefd9b5123a3655936fd2acb5df4566554fda65621db0b",
    "jslt-run-out-of-range": "9976e9fb16986bc08364c09d7a5bace58b859dd346e2cb2c06e6f948f102daa1",
    "jslt-run-surrogate-pair": "065fc8b072a58f005f7483a7ce060c97359a96942eb2180743e6825b5171fc04",
    "jslt-run-syntax": "6b8664a0c04ee1df2b6497fac0d153bb73220c0278402cf1624dc29df96960b1",
    "jslt-run-unterminated": "b1cb62f95e9fad93fdb509b9fa3a05cd6365ec4b0d873c5ec2611a7412839591",
    "refused-check-module-not-json": "c1c78341bbaa9b9c14566d64a6e9bef16873950ab2df510e67d983bf437af70b",
    "refused-check-module-not-utf8": "af7b5b6deb8b8cc86aadbf5e3e159ec71a81bfad659c670e6e9c255b4a251253",
    "refused-proposal-not-json": "0c75e6ca13db5f4420ee70086c5d6d3c442995abcb9dbc9ad4416c64b10cd985",
    "refused-proposal-not-utf8": "578ca4132fd74d723546fce896f30e168bc81c67350fa2970595978e79a28f48",
    "refused-releases-not-json": "6b13966b97c1357f50b968d2467a84cc964da7fd6da475c1498b8ac8866b32ff",
    "refused-releases-not-utf8": "f8d51d4391b019df1317340b0e14a619dc10fd571b37727c134df5a3888ace08",
    "refused-sample-not-json": "454fd1009947553b7929981f4b01e9f5899165d47a68a0aa2b18c468b11ab887",
    "refused-sample-not-utf8": "f58b68a9a4994c63dbf468a06a78dd708d6fdf767c646c4408829cae4460159e",
    "refused-schema-not-json": "5bbe44d8030de66ec38247a2cc257e0cf1c3c137eabf1a6c54b28d918e7f1939",
    "refused-schema-not-utf8": "a2d5d4434e09e6abc2e8ab29db53f009666cf3b850921639462fd7a84360bc1d",
    "refused-transform-bad-escape": "ab973eeb8b2f474075d6abb9e244faa835bfeed30a951dc9e543e68f4ae88d05",
    "refused-transform-not-jslt": "f415dfa0fc4afbc98e4d8ff77d050db1e7c112c2307fa38f911a85cd326a469b",
    "refused-transform-not-utf8": "acc8ae95177e48843e46228d0671c19980e239b5da5c09a51e3698bb9eba8a17",
    "schema-load": "83e702a59d5fa17d12c5e9091a5ee60312b9cb80c85d794742c947e669903742",
    "schema-show-Base-Event-0": "cb7972afc91f34c1e1bd7154cd274aca7fa307bc0ec8e2aa037f72629dfcd279",
    "schema-show-Base-Event-1": "46d74f4b7d1ac1127061fd60e07e79a5b5786f5b80e4812ac4804787887f54a7",
    "schema-show-Base-Event-2": "d9d624133f675a143dfdd483d03bfa410088b07b19634a2da9ee5ca3e5eb0958",
    "schema-show-Base-Object-0": "2cf3c3a9193a3b0f7cf84fe56183a3bd2caa1df9ee978e376e9b8b7a315cf81c",
    "schema-show-Base-Object-1": "2ce1c0f282a91f8a7bf416a9fd50ad96ee7880f7a793bdc40b612908f7db4abe",
    "schema-show-Base-Object-2": "51c85ea8bf111a7f461df06f7752902f8adafa743457561579402e896872fef8",
    "schema-show-ClassifiedAd-0": "45ef47c6c81c137c5068db3c59ec23c5d6ab7be3a811d55ca415af768eb01a46",
    "schema-show-ClassifiedAd-1": "d335ca94b9f77e3d5f7d196e61510418c5a24dab76c973aa3b54a656760ac8fe",
    "schema-show-ClassifiedAd-2": "e957ad8a109a8e1220e72095239fe5ddebedc8cf509679b9f016f09a3043c16f",
    "schema-show-Message-0": "8cbdd8af41bb3550b03826304d0f88b699b981208c4e13e51d4da2ac731ca6fd",
    "schema-show-Message-1": "65e5b5bea2605891e908bc31e57621cf9c0ce3d09fec3e3b76d07f893bef7816",
    "schema-show-Message-2": "f1f09db91fce48ff1ca737f82bd325df011f5f4228ae1db81bce92123d971380",
    "schema-show-Post-Item-0": "1f53463c8d9265888da6fc64f2d1753b9543b5ad923ca78450dc2d310cfaead4",
    "schema-show-Post-Item-1": "4bb601f20a674aa0eb4b3d6a45b99001e4bb540aa162b839d0309199937fb604",
    "schema-show-Post-Item-2": "a595578d9b1393d1a12433eb79b850ad538ae7e473fa8a9312a5c8a6d0962c6e",
    "schema-show-Provider-0": "9a890b76985ae1db533a48938a00ba493cd58522ba17f70d3e18a1856028f405",
    "schema-show-Provider-1": "e58673811f5eacd17242aeb85a57927a0fb34ce4018b348eb89c1c5b3a6b2667",
    "schema-show-Provider-2": "08ac857904a777f57f385b66be09a5869ee08784d2f8664c8bfb611a152b6329",
    "schema-show-Save-Item-0": "a766da83955234e31365e090f5670e04af4a1c1b87d050ec356820de4f1b59d6",
    "schema-show-Save-Item-1": "89e07652f2fd06eb8ab9b781b5c31cb068cd8d685d0e12ad5f8eb87f61883be1",
    "schema-show-Save-Item-2": "5501bfb107aa8a83f55d92a3328d2344c47e936bb613678296f03421776a03c1",
    "schema-show-Search-Listing-0": "bed39f546940412b52cafab23ad7d7d656c11cab782c270dfe3007f7a2f7df69",
    "schema-show-Search-Listing-1": "6f8480931c5c66dae3db606c4597907e9b6697e388277c69b9229d6c502d6829",
    "schema-show-Search-Listing-2": "4740271eec0da6304786900253e8dc496f9b6439c1c32bbd74e4aa0ff867d619",
    "schema-show-SearchQuery-0": "5831e298c8534829fa1aa24090d0211e11281b2072ee97f43b9b62112664ecab",
    "schema-show-SearchQuery-1": "baced47f311f104e2ff30634fef7516e37cbaf530d4699bd0b7fa30fd6ae571d",
    "schema-show-SearchQuery-2": "421db6bfb0aa1cfe57f99010624671f2482adf74a0c97cf0094ea92a87e5d477",
    "schema-show-Send-Message-0": "daa1804df8821fedd64a9a656e90766a03e80d3b6ab8e939c7ec54833c34d00d",
    "schema-show-Send-Message-1": "b13b75dfcda093380cc7191ee56bd3594754aebaf08e22ffbe7f36b839b2d47c",
    "schema-show-Send-Message-2": "20b56d6a2cb0ff1d79504f730e2b646d59ab18fa1e0ce6c332fe58fec7d6c299",
    "schema-show-Share-Item-0": "a38575b6b2baa0ea7f8a6c488b35707feb77c06b2b496b80d1933bfaa228b2a5",
    "schema-show-Share-Item-1": "040f217f55eca6fb44aa4cd1ad056dc217ad5e9ae5a6e19658fdfe2943753b9f",
    "schema-show-Share-Item-2": "91ab53eecd35869e7d495bc983603abc50b227f04377fc3071e3ba2d18619134",
    "schema-show-Tracker-0": "dcd5cf44912371da2b9ee7ae2a65e906e2fe1d697eea0b98201496e3e4a6d359",
    "schema-show-Tracker-1": "2285055bd1f92ef3d14e11757d4a56fc77670fb57ea72c3135758ec68077a90e",
    "schema-show-Tracker-2": "a9671faebebafffe9a5191c1f2b6c9f7381feb05dfa6c0bc1d946dce51c46c71",
    "schema-show-Vehicle-0": "1c1690d64cced83882f88af3afd0f725d014454ad4525ba59c09d2ae96a9046e",
    "schema-show-Vehicle-1": "f79920b6a3aa765737bdd368bd3c49fb68157f56f67488784f571b32b0c7fe14",
    "schema-show-Vehicle-2": "b45defa36fada2bb45f20b9ebbf499922fc63685fa50592998653b950114ac42",
    "schema-show-View-Item-0": "b1fb38218cf4576421285361ca1fd3e1a0dd4b181163fa7a906411dfba0d4256",
    "schema-show-View-Item-1": "6e452ec6061d3bab5c4bb8f39aef6b19c6d96dfeac306b264063dc2842777890",
    "schema-show-View-Item-2": "0a1ba82ae480873b05b25f7e568f1d830354ce71e12c22057560cb4d9f08a1e0",
    "transform": "dcf002141c82060d32a8878fa9d1eca9f3eaabb9020fc78cee10935644276c9b",
    "transform-floats": "f6bfd7903e8a85f35587e2c04c6eff3c50d0f424a6d4910671c16293d2284f60",
    "validate-explicit": "e024c407c08391402b76a0e86154d526710be886cfa221747842fd2b74408861",
    "validate-floats": "e76db968300f842e0e3fc25db94304e1b348117522a132583bcfb9e206d0d46c",
    "validate-latest": "2526bcdde27c489e9c6c5058a013afc1446e629ff9f15e98c4c60a5fecfb62c3",
    "validate-self": "a310c57dab69301c85357c27f85886d0fbadee8aac676b99e83dcb0636c76bbb",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    build(root)
    return root


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_pinned(corpus, monkeypatch, case):
    monkeypatch.chdir(corpus)
    assert digest(CASES[case]) == DIGESTS[case], outcome(CASES[case])[:3000]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


DEEP_DIGESTS = {
    "dqt-run-deep-400": "9e397cbda7193d0ce06ca98bb6089e2848f9d2c7cfe62b23780f03f44a1abd9f",
    "dqt-run-deep-401": "b283546147a05a83f40f3bf0b22440f723d44bd87327b988d6483f576bc76759",
    "transform-deep-400": "ae3ec515163df07256824c6179337bd57e3974721193a86b84a795c2b873e0d6",
    "transform-deep-401": "1b460ecf80be0018b3d2019a5058f3e026882c51b61cdd2c99ae9cd63960926f",
    "validate-deep-400": "6cc431ca49b5960aabb437a3691ef8cad4c55175a144cc171193cab183379e80",
    "validate-deep-401": "e9ee58a9371c3855a7b1f2dc12c68fdd29cc79cf64087dac26a95c1adcbcf23a",
}

_DEEP_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from test_corpus import DEEP_CASES, digest
os.chdir(sys.argv[2])
print(json.dumps({case: digest(argv) for case, argv in DEEP_CASES.items()}))
"""


def test_deep_lines_are_pinned(corpus):
    """Every DEEP_CASES case in one fresh interpreter, at the recursion limit semschema leaves it."""
    env = dict(os.environ, PYTHONPATH=str(Path(semschema.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _DEEP_SCRIPT, str(Path(__file__).parent), str(corpus)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == DEEP_DIGESTS


# -- the server ------------------------------------------------------------
#
# A script is a list of connections to an in-process `SchemaServer` on the
# corpus repository; a connection is a list of steps, each the bytes sent and
# the number of responses read before the next step.  After its last step a
# connection is read until the server closes it, so each one ends with a
# request that closes it, or with a step that sends `None`: the client's end
# of the connection, after which the server reads no more.  The first
# connection of "serve-writable" is one keep-alive connection through every
# route; each refused head, which closes its connection, gets one of its own.
# "serve-request-loop" covers what the request loop answers before a route
# runs: a request line too long to read, a method with no route, and a
# client that closes with nothing or after a request.  The digest is over the
# raw response bytes, with the `Date` value and the Python version in
# `Server` masked.


def _request(method: str, path: str, body: bytes | None = None, *fields: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {path} {version}", "Host: t", *fields]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    return "".join(f"{line}\r\n" for line in lines + [""]).encode("latin-1") + (body or b"")


def _json(value) -> bytes:
    return json.dumps(value).encode()


def server_scripts(registry) -> dict[str, tuple[bool, list[list[tuple[bytes | None, int]]]]]:
    """Script name -> (read-only, connections)."""
    valid = generate_valid(registry, "View Item", 2, GenConfig(seed=4))
    old = generate_valid(registry, "View Item", 0, GenConfig(seed=6))
    latest = generate_valid(registry, "Post Item", 2, GenConfig(seed=6))
    health = _request("GET", "/health")
    close = _request("GET", "/health", None, "Connection: close")
    validate = _request("POST", "/validate", _json({"event": valid, "target": None}))
    expect = _request("POST", "/validate", None, "Expect: 100-continue", f"Content-Length: {len(_json({'event': valid}))}")
    keep_alive = [(request, 1) for request in (
        health,
        _request("GET", "/schemas/event/View-Item/1"),
        _request("GET", "/schemas/object/Provider/latest"),
        _request("GET", "/schemas/event/No-Such/0"),
        _request("GET", "/schemas/object/View-Item/0"),
        _request("GET", "/schemas/event/View-Item/9"),
        _request("GET", "/nope"),
        _request("GET", "//health"),
        validate,
        _request("POST", "/validate", _json({"event": {**valid, "stray": 1}, "target": "View Item@2"})),
        _request("POST", "/validate", _json({"event": valid, "target": "View Item"})),
        _request("POST", "/validate", _json({"event": {}, "target": "No Such"})),
        _request("POST", "/validate", _json({"event": {}, "target": "View Item@x"})),
        _request("POST", "/validate", _json({"target": "View Item"})),
        _request("POST", "/validate", b"{not json"),
        _request("POST", "/transform", _json(old)),
        _request("POST", "/transform", _json(latest)),
        _request("POST", "/transform", _json({"x": 1})),
        _request("POST", "/transform", _json({"schema": make_id("event", "No Such", 0)})),
        _request("POST", "/reload", b'{"x": 1}'),
        _request("POST", "/reload"),
        _request("POST", "/nowhere", b"{}"),
        _request("GET", "/health", None, "Connection: keep-alive", version="HTTP/1.0"),
    )]
    keep_alive += [(expect, 1), (_json({"event": valid}), 1)]
    pipelined = [health, validate, _request("GET", "/schemas/event/View-Item/2"), _request("POST", "/transform", _json(old)),
                 _request("GET", "/nope")]
    keep_alive += [(b"".join(pipelined), len(pipelined)), (close, 0)]
    refused = [
        b"GET /health HTTP/1.x\r\nHost: t\r\n\r\n",
        b"GET /a b HTTP/1.1\r\nHost: t\r\n\r\n",
        b"GET /health HTTP/2.0\r\nHost: t\r\n\r\n",
        b"POST /validate\r\n",
        b"GET /health\r\n",
        b"\r\n",
        _request("GET", "/health", None, *(f"X-Field-{i}: {i}" for i in range(MAX_HEADERS + 1))),
        _request("GET", "/health", None, "X-Long: " + "a" * (MAX_LINE_BYTES - len("X-Long: \r\n") + 1)),
        _request("GET", "/health", None, "X-Folded: a", " b"),
        _request("GET", "/health", None, "Host : t"),
        _request("POST", "/validate", b"{}", "Content-Length: 3"),
        _request("POST", "/validate", None, "Content-Length: 1x") + b"{}",
        _request("POST", "/validate", None, f"Content-Length: {MAX_BODY_BYTES + 1}"),
        _request("POST", "/reload", None, "Content-Length: \xb2") + b"{}",
        _request("GET", "/health", version="HTTP/1.0"),
    ]
    # the line is exactly one byte too long, so the server has read all of it when it answers
    too_long = b"GET /" + b"a" * (MAX_LINE_BYTES + 1 - len(b"GET /"))
    loop = [[(too_long, 0)], [(_request("PUT", "/health"), 0)], [(_request("HEAD", "/health"), 0)],
            [(None, 0)], [(health, 1), (None, 0)]]
    return {
        "serve-writable": (False, [keep_alive] + [[(request, 0)] for request in refused]),
        "serve-read-only": (True, [[(_request("POST", "/reload", b"{}"), 1), (close, 0)]]),
        "serve-request-loop": (True, loop),
    }


def _read_response(sock: socket.socket, buffer: bytearray) -> bytes:
    """One response read from `sock`, after what `buffer` already holds; `buffer` keeps what follows it."""
    while b"\r\n\r\n" not in buffer:
        buffer += sock.recv(65_536) or b"\r\n\r\n"
    end = buffer.index(b"\r\n\r\n") + 4
    lengths = [line[15:] for line in bytes(buffer[:end]).lower().split(b"\r\n") if line.startswith(b"content-length:")]
    end += int(lengths[0]) if lengths else 0
    while len(buffer) < end:
        buffer += sock.recv(65_536)
    response = bytes(buffer[:end])
    del buffer[:end]
    return response


def run_connection(port: int, steps: list[tuple[bytes | None, int]]) -> bytes:
    received = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        buffer = bytearray()
        for data, responses in steps:
            if data is None:
                sock.shutdown(socket.SHUT_WR)
            else:
                sock.sendall(data)
            received += [_read_response(sock, buffer) for _ in range(responses)]
        try:
            while chunk := sock.recv(65_536):
                buffer += chunk
        except ConnectionResetError:  # a refused head's unread bytes reset the connection after its response
            pass
    return b"".join(received) + buffer


_MASKS = ((re.compile(rb"\r\nDate: [^\r\n]*"), rb"\r\nDate: -"), (re.compile(rb" Python/[0-9.]+\r\n"), rb" Python/-\r\n"))


def server_outcome(root: Path, read_only: bool, connections) -> bytes:
    """What each connection received, masked, one connection after another."""
    httpd = SchemaServer(ServerConfig(str(root / "repo"), port=0, read_only=read_only))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        received = [run_connection(httpd.server_address[1], steps) for steps in connections]
    finally:
        httpd.shutdown()
        httpd.server_close()
    outcome = b"\n--\n".join(received)
    for pattern, mask in _MASKS:
        outcome = pattern.sub(mask, outcome)
    return outcome


SERVER_DIGESTS = {
    "serve-read-only": "1c42a3c5be7ff0d55b35c3a42d5455637152d14ae6e0f39a629ec1ae2706b25c",
    "serve-request-loop": "61662921f48340484b67a0ec5a8bcd566ae2fb9f15a1e0a1155836146f52a4cf",
    "serve-writable": "f416e2eb9afb65db96e4436f114b5228c5a628240d666e9f8cb76a5d1c2af24f",
}


@pytest.mark.parametrize("script", sorted(SERVER_DIGESTS))
def test_server_bytes_are_pinned(corpus, script):
    read_only, connections = server_scripts(load_repo(corpus / "repo"))[script]
    outcome = server_outcome(corpus, read_only, connections)
    assert hashlib.sha256(outcome).hexdigest() == SERVER_DIGESTS[script], outcome[:3000]


def test_every_server_script_has_a_digest(registry):
    assert sorted(SERVER_DIGESTS) == sorted(server_scripts(registry))
