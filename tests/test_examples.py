"""Every narrated example under ``examples/`` runs to completion.

Each example validates its own results and exits non-zero on failure,
so a clean exit is the whole check.  They run in fresh subprocesses
from a temporary working directory, and anything an example writes
goes under ``tmp_path``, so the tree stays clean.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: extra command-line arguments per example (``{tmp}`` -> tmp_path)
ARGS = {"trace_walkthrough.py": ["{tmp}/lu_trace.json"]}


def test_every_example_is_covered():
    assert len(sorted(EXAMPLES.glob("*.py"))) == 8


@pytest.mark.parametrize(
    "script", sorted(p.name for p in EXAMPLES.glob("*.py"))
)
def test_example_exits_cleanly(script, tmp_path):
    args = [a.format(tmp=tmp_path) for a in ARGS.get(script, [])]
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (
        f"{script} exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout[-2000:]}\nstderr:\n{proc.stderr[-2000:]}"
    )
    if script in ARGS:
        assert (tmp_path / "lu_trace.json").is_file()
