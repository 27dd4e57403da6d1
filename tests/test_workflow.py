"""The CI workflow's console-script step, read against the checkout.

The workflow runs the installed ``vrueval`` from outside the checkout and
compares its stdout with entries of the golden file; these tests keep the paths,
the keys and the commands of that step in step with the tests' own."""

import json
import re
import shlex
from pathlib import Path

from test_cli import GOLDEN, golden_runs
from vrueval.cli import OUTPUT_FORMATS

ROOT = Path(__file__).parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
WORKSPACE = "$GITHUB_WORKSPACE/"
# a golden key is a run id and a format, such as ``eval-micro-conf0.2/csv``
GOLDEN_KEYS = re.findall(rf"[\w.-]+/(?:{'|'.join(OUTPUT_FORMATS)})\b", WORKFLOW)


def test_workspace_paths_exist():
    paths = re.findall(rf"{re.escape(WORKSPACE)}([^\s\"']+)", WORKFLOW)
    assert paths
    assert [path for path in paths if not (ROOT / path).exists()] == []


def test_golden_keys_are_in_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert GOLDEN_KEYS
    assert sorted(set(GOLDEN_KEYS) - golden.keys()) == []


def test_each_report_file_is_written_by_its_golden_run():
    """The smoke writes the report of key ``<run id>/<format>`` to ``<run id>.<format>``."""
    commands = {}  # report file -> argv
    for line in WORKFLOW.replace("\\\n", " ").splitlines():
        if line.lstrip().startswith("vrueval "):
            *argv, redirect, out = shlex.split(line)[1:]
            assert redirect == ">", line
            commands[out] = [arg.replace(WORKSPACE, f"{ROOT}/") for arg in argv]
    assert sorted(commands) == sorted(key.replace("/", ".") for key in GOLDEN_KEYS)
    runs = golden_runs(Path("manifest.json"))
    for key in GOLDEN_KEYS:
        run_id, fmt = key.split("/")
        argv = commands[key.replace("/", ".")]
        assert argv == ["--format", fmt, *map(str, runs[run_id])], key
