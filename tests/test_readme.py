"""README's "Library use" block, run from the repository root, prints the output
block README shows below it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_library_use_block_prints_what_readme_shows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code, shown = re.findall(r"^```(?:python)?\n(.*?)^```$", section, re.M | re.S)[:2]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == shown
