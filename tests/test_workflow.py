"""The CI workflow's console-script step, read against the checkout.

The workflow runs the installed ``vrueval`` from outside the checkout and
compares its stdout with entries of the golden file; these tests keep the paths,
the keys and the commands of that step in step with the tests' own."""

import json
import re
import shlex
from pathlib import Path

import test_cli
from test_cli import GOLDEN, convert_visdrone_mini, golden_runs
from vrueval.cli import OUTPUT_FORMATS, build_parser

ROOT = Path(__file__).parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
WORKSPACE = "$GITHUB_WORKSPACE/"
# a golden key is a run id and a format, such as ``eval-micro-conf0.2/csv``
GOLDEN_KEYS = re.findall(rf"[\w.-]+/(?:{'|'.join(OUTPUT_FORMATS)})\b", WORKFLOW)
# each ``vrueval`` command of the smoke, its workspace paths read in the checkout
COMMANDS = [
    [arg.replace(WORKSPACE, f"{ROOT}/") for arg in shlex.split(line)[1:]]
    for line in WORKFLOW.replace("\\\n", " ").splitlines()
    if line.lstrip().startswith("vrueval ")
]
(CONVERT,) = [argv for argv in COMMANDS if argv[0] == "convert"]


def test_workspace_paths_exist():
    paths = re.findall(rf"{re.escape(WORKSPACE)}([^\s\"']+)", WORKFLOW)
    assert paths
    assert [path for path in paths if not (ROOT / path).exists()] == []


def test_golden_keys_are_in_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert GOLDEN_KEYS
    assert sorted(set(GOLDEN_KEYS) - golden.keys()) == []


def test_convert_runs_as_convert_visdrone_mini(monkeypatch):
    """The smoke converts what ``convert_visdrone_mini`` converts, with the same
    split, class map and layout, so its converted tree holds the golden reports."""
    args = build_parser().parse_args(CONVERT)
    calls = []
    monkeypatch.setattr(test_cli, "convert_dataset", lambda *a, **kw: calls.append((a, kw)))
    convert_visdrone_mini(Path(args.out))
    [((src, _, out), kwargs)] = calls
    assert (Path(args.src), args.out, args.split) == (src, str(out), kwargs["split"])
    assert (args.classmap, args.source_format) == (None, "auto")  # the default map, as it does


def test_each_report_file_is_written_by_its_golden_run():
    """The smoke writes the report of key ``<run id>/<format>`` to ``<run id>.<format>``."""
    commands = {}  # report file -> argv
    for argv in COMMANDS:
        if argv is not CONVERT:
            *argv, redirect, out = argv
            assert redirect == ">", argv
            commands[out] = argv
    assert sorted(commands) == sorted(key.replace("/", ".") for key in GOLDEN_KEYS)
    runs = golden_runs(Path(CONVERT[2]) / "manifest.json")
    for key in GOLDEN_KEYS:
        run_id, fmt = key.split("/")
        argv = commands[key.replace("/", ".")]
        assert argv == ["--format", fmt, *map(str, runs[run_id])], key
