"""What a fresh interpreter loads: each CLI command imports only what it runs.

The subprocess tests start a new interpreter, because in this one other
tests have already imported PyYAML and ``vrueval.benchmark``. ``click`` is
no dependency, and no command loads ``dataclasses`` or the ``inspect`` it
imports: every record type is a ``typing.NamedTuple``.
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
FIXTURES = fixtures_root()
MICRO = FIXTURES / "micro"
DATA = Path(__file__).parents[1] / "data"
LAZY = ("click", "dataclasses", "inspect", "yaml", "vrueval.benchmark")
VRU_MAP = (
    "names: [pedestrian, people, bicycle, tricycle]\n"
    "map: {1: 0, 2: 1, 3: 2, 7: 3}\ndrop: [4, 5, 6, 8, 9, 10, 11]\nignore: [0]\n"
)


def loaded_after(code: str, cwd: Path, names: tuple[str, ...] = LAZY) -> list[str]:
    """Which of ``names`` a fresh interpreter in ``cwd`` has imported after running ``code``."""
    probe = (
        f"import json, sys\n{code}\n"
        f"print(json.dumps([name for name in {names!r} if name in sys.modules]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
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
        # dataset.yaml of plain words is written without PyYAML
        (cli_run("--quiet", "convert", FIXTURES / "visdrone_mini", "out"), []),
        # the probe sees what a command does import: a class map is read with PyYAML
        (
            f"open('map.yaml', 'w').write({VRU_MAP!r})\n"
            + cli_run(
                "--quiet", "convert", FIXTURES / "visdrone_mini", "out", "--classmap", "map.yaml"
            ),
            ["yaml"],
        ),
        (
            cli_run("compare", DATA / "model_benchmark.yaml", "--baseline", "yolov5x"),
            ["yaml", "vrueval.benchmark"],
        ),
        ("import types, vrueval\nassert isinstance(vrueval.evaluate, types.ModuleType)", []),
    ],
    ids=[
        "package", "cli", "stats", "eval", "convert", "convert-classmap", "compare",
        "evaluate-module",
    ],
)
def test_fresh_process_imports_only_what_it_runs(tmp_path, code, expected):
    assert loaded_after(code, tmp_path) == expected


def test_metrics_does_not_load_the_annotation_readers(tmp_path):
    # ignore regions reach sweep_images as a list of their own, with no class id to import
    assert loaded_after("import vrueval.metrics", tmp_path, ("vrueval.annotations",)) == []


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
