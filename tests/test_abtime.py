"""The A/B timing harness runs the repository against itself and finds the same bits."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_repository_against_itself():
    argv = [sys.executable, str(ROOT / "tests" / "abtime.py"), str(ROOT), str(ROOT),
            "--dim", "1", "--n", "32", "--iters", "20", "--reps", "2"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("parent: ") and lines[1].startswith("change: ")
    assert "ms/iter median, won" in lines[0]
    assert lines[2].split(": ", 1)[1] == lines[3].split(": ", 1)[1]
