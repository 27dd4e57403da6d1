"""Hostile-input probe: mutated micro fixtures and run files never crash the CLI.

Each example copies ``tests/fixtures/micro``, mutates one of its files with a
hostile token or edit, and runs ``stats`` and ``eval`` (table and structured)
in-process. The ``compare`` probe gives one field of a shipped run file, or an
added extra field, a hostile YAML value, or writes one field twice, and runs
both modes in both outputs.
The manifest probe gives one string of micro's manifest (its split, a class
name, an image id or a label path) a hostile JSON value, and runs ``stats`` and
``eval`` in both outputs.
The class-map probe gives one value of README's example class map a hostile
YAML value, or deletes one of its lines, and converts ``visdrone_mini`` with
it; reading the map must succeed or name its path. Every run must exit 0 or
2, and an exit 2 must print an ``error: `` line and never ``internal error``;
stdout is strict UTF-8, as a terminal's is.
The searches are derandomized and bounded, so they guard against
regressions rather than hunting for new bugs.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import fixtures_root
from vrueval.annotations import ClassMap
from vrueval.cli import main
from vrueval.errors import SchemaError

MICRO = fixtures_root() / "micro"
ROOT = Path(__file__).parents[1]
DATA = ROOT / "data"
FILES = sorted(p.relative_to(MICRO).as_posix() for p in MICRO.rglob("*") if p.is_file())
TOKENS = [
    "nan", "inf", "-inf", "1e309", "-1e309", "1e-320", "1_0", "0.5_0", "+1", "-0.0", "-1",
    "0x1", "99999999999999999999", "\uff11", "\u3000", "\ufeff", "\x00", "\xa0", "",
]


def mutate(text: str, kind: str, line: int, field: int, token: str) -> str:
    """``text`` with one hostile edit at (about) the given line and field."""
    lines = text.splitlines(keepends=True) or [""]
    i = line % len(lines)
    if kind == "field":  # replace one whitespace-separated field
        fields = lines[i].split(" ")
        fields[field % len(fields)] = token
        lines[i] = " ".join(fields)
    elif kind == "insert":  # splice the token into the line
        at = field % (len(lines[i]) + 1)
        lines[i] = lines[i][:at] + token + lines[i][at:]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "bom":
        lines.insert(0, "\ufeff")
    return "".join(lines)


@st.composite
def mutated_files(draw):
    name = draw(st.sampled_from(FILES))
    kind = draw(st.sampled_from(["field", "insert", "duplicate", "delete", "bom"]))
    line = draw(st.integers(0, 40))
    field = draw(st.integers(0, 200))
    token = draw(st.sampled_from(TOKENS))
    text = mutate((MICRO / name).read_text(encoding="utf-8"), kind, line, field, token)
    return name, text


def run(args) -> tuple[int, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # strict, as a UTF-8 terminal is
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def check_exit(args) -> None:
    """``args`` runs to exit 0, or to exit 2 with an ``error: `` line and no internal error."""
    code, stderr = run(args)
    assert code in (0, 2), (args, stderr)
    assert "internal error" not in stderr, (args, stderr)
    if code == 2:
        assert any(line.startswith("error: ") for line in stderr.splitlines()), stderr


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated=mutated_files())
def test_mutated_fixture_exits_zero_or_two_with_an_error_line(mutated):
    name, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "micro"
        shutil.copytree(MICRO, root)
        (root / name).write_text(text, encoding="utf-8")
        manifest, detections = root / "manifest.json", root / "detections"
        for args in (
            ("stats", manifest),
            ("eval", manifest, detections),
            ("--format", "structured", "eval", manifest, detections),
        ):
            check_exit(args)


MANIFEST_VALUES = [
    "x\x00", "x\ud800", "/abs/x.txt", "../x.txt", "labels/", "labels/.", "", 5, None, ["x"],
]


@pytest.mark.parametrize(
    "value",
    MANIFEST_VALUES,
    ids=["nul", "lone-surrogate", "absolute", "parent", "dir", "dir-dot", "empty", "int",
         "null", "list"],
)
@pytest.mark.parametrize("field", ["split", "class_name", "image_id", "label_path"])
def test_manifest_string_exits_zero_or_two_with_an_error_line(tmp_path, field, value):
    """One string of micro's manifest made hostile: its split, its first class name,
    or its first image's id or label path."""
    root = tmp_path / "micro"
    shutil.copytree(MICRO, root)
    manifest, detections = root / "manifest.json", root / "detections"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    if field == "split":
        doc["split"] = value
    elif field == "class_name":
        doc["class_names"][0] = value
    else:
        doc["images"][0][field] = value
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    for args in (
        ("stats", manifest),
        ("--format", "structured", "stats", manifest),
        ("eval", manifest, detections),
        ("--format", "structured", "eval", manifest, detections),
    ):
        check_exit(args)


# run file -> its baseline run in comparison mode
RUN_FILES = {"model_benchmark.yaml": "yolov5x", "continual_runs.yaml": "caltech-scratch"}
RUN_VALUES = [
    "x", "'0.5'", "true", "2024-01-01", ".nan", ".inf", "-.inf", "[1, 2]", "{a: 1}", "null",
]


@st.composite
def mutated_run_files(draw):
    """A shipped run file with one field's value, or an added extra field, made hostile,
    or with one field written twice."""
    name = draw(st.sampled_from(sorted(RUN_FILES)))
    lines = (DATA / name).read_text(encoding="utf-8").splitlines(keepends=True)
    fields = [i for i, line in enumerate(lines) if re.match(r"  [- ] \w+: ", line)]
    i = draw(st.sampled_from(fields))
    edit = draw(st.sampled_from(["extra", "value", "repeat"]))
    if edit == "repeat":  # the same field again, in the same run
        lines.insert(i + 1, f"    {lines[i][4:]}")
    elif edit == "extra":  # an extra field after this one
        lines.insert(i + 1, f"    gpu: {draw(st.sampled_from(RUN_VALUES))}\n")
    else:
        lines[i] = f"{lines[i].split(': ')[0]}: {draw(st.sampled_from(RUN_VALUES))}\n"
    return name, "".join(lines)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(mutated=mutated_run_files())
def test_mutated_run_file_exits_zero_or_two_with_an_error_line(mutated):
    name, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        for mode in (("--baseline", RUN_FILES[name]), ("--scenario",)):
            for fmt in ("aligned", "structured"):
                check_exit(("--format", fmt, "compare", path, *mode))


README_CLASS_MAP = re.search(
    r"```yaml\n(names: .*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S
).group(1)
CLASS_MAP_LINES = README_CLASS_MAP.splitlines(keepends=True)
# (line, start, end) of each value: a name, a map key or value, a drop or ignore item
CLASS_MAP_SLOTS = [
    (i, m.start(), m.end())
    for i, line in enumerate(CLASS_MAP_LINES)
    for m in re.compile(r"\w+").finditer(line, line.index(": ") + 2)
]
CLASS_MAP_VALUES = [
    "x", "'1'", "true", "off", "null", "1.5", "0x4", "1_0", "-1", "5", "[1, 2]", "{a: 1}", "<<",
    "",
]


@st.composite
def mutated_class_maps(draw):
    """README's example class map with one value made hostile, or one line deleted."""
    lines = list(CLASS_MAP_LINES)
    value = draw(st.sampled_from(CLASS_MAP_VALUES + [None]))
    if value is None:
        del lines[draw(st.integers(0, len(lines) - 1))]
    else:
        i, start, end = draw(st.sampled_from(CLASS_MAP_SLOTS))
        lines[i] = lines[i][:start] + value + lines[i][end:]
    return "".join(lines)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(text=mutated_class_maps())
def test_mutated_class_map_names_its_path_or_converts(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.yaml"
        path.write_text(text, encoding="utf-8")
        try:
            ClassMap.from_file(str(path))
        except SchemaError as exc:
            assert str(exc).startswith(f"{path}: "), exc
        source, out = fixtures_root() / "visdrone_mini", Path(tmp) / "out"
        check_exit(("convert", source, out, "--classmap", path))
