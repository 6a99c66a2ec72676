"""Every example script must run end to end (small arguments)."""
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

from repro.__main__ import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

CASES = [
    ("quickstart.py", ["--quick"]),
    ("held_suarez_climate.py", ["--quick"]),
    ("decomposition_study.py", ["--quick"]),
    ("ca_vs_original.py", ["--quick"]),
    ("lamb_wave.py", ["--quick"]),
    ("timeline_trace.py", ["--quick"]),
    ("approximation_error.py", ["--quick"]),
    ("fault_tolerance.py", ["--quick"]),
    ("serve_demo.py", ["--quick"]),
]


@pytest.mark.parametrize("script,args", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\nstdout:\n{proc.stdout[-2000:]}\n"
        f"stderr:\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"


def test_all_examples_covered():
    """Every script in examples/ has a smoke case here."""
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == {c[0] for c in CASES}


def test_package_banner_lists_entry_points_that_exist(capsys):
    """``python -m repro`` names files and modules; each must be there."""
    assert main() == 0
    words = capsys.readouterr().out.split()
    modules = [w for prev, w in zip(words, words[1:]) if prev == "-m"]
    paths = [w for w in words if "/" in w or w.endswith((".py", ".md"))]
    assert modules and "benchmarks/e2e/run.py" in paths
    assert [m for m in modules if find_spec(m) is None] == []
    assert [p for p in paths if not (ROOT / p).exists()] == []
