"""Hostile-input probe: mutated micro fixtures never crash the CLI.

Each example copies ``tests/fixtures/micro``, mutates one of its files with a
hostile token or edit, and runs ``stats`` and ``eval`` (table and structured)
in-process. Every run must exit 0 or 2, and an exit 2 must print an
``error: `` line and never ``internal error``. The search is derandomized and
bounded, so it guards against regressions rather than hunting for new bugs.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import fixtures_root
from vrueval.cli import main

MICRO = fixtures_root() / "micro"
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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


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
            code, stderr = run(args)
            assert code in (0, 2), (args, stderr)
            assert "internal error" not in stderr, (args, stderr)
            if code == 2:
                assert any(line.startswith("error: ") for line in stderr.splitlines()), stderr
