"""What a fresh interpreter loads: each CLI command imports only what it runs.

The subprocess tests start a new interpreter, because in this one other
tests have already imported PyYAML and ``vrueval.benchmark``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vrueval
from helpers import fixtures_root

SRC = Path(__file__).parents[1] / "src"
MICRO = fixtures_root() / "micro"
DATA = Path(__file__).parents[1] / "data"
LAZY = ("yaml", "vrueval.benchmark")


def loaded_after(code: str) -> list[str]:
    """Which of LAZY a fresh interpreter has imported after running ``code``."""
    probe = (
        f"import json, sys\n{code}\n"
        f"print(json.dumps([name for name in {LAZY!r} if name in sys.modules]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(*args) -> str:
    argv = [str(arg) for arg in args]
    return f"import vrueval.cli\nassert vrueval.cli.main({argv!r}) == 0"


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import vrueval", []),
        ("import vrueval.cli", []),
        (cli_run("stats", MICRO / "manifest.json"), []),
        (cli_run("eval", MICRO / "manifest.json", MICRO / "detections"), []),
        # the probe sees what a command does import
        (cli_run("compare", DATA / "model_benchmark.yaml", "--baseline", "yolov5x"), list(LAZY)),
        ("import types, vrueval\nassert isinstance(vrueval.evaluate, types.ModuleType)", []),
    ],
    ids=["package", "cli", "stats", "eval", "compare", "evaluate-module"],
)
def test_fresh_process_imports_only_what_it_runs(code, expected):
    assert loaded_after(code) == expected


def test_every_public_name_resolves():
    for name in vrueval.__all__:
        value = getattr(vrueval, name)
        assert getattr(sys.modules[value.__module__], name) is value
    namespace: dict = {}
    exec("from vrueval import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == vrueval.__all__
    assert set(vrueval.__all__) <= set(dir(vrueval))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        vrueval.nonesuch
