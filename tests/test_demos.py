"""Every script in demos/, and the README's "Library usage" block, runs to
completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def source(path):
    """A demo's code; for the README, its "Library usage" block with each
    `expr  # -> [values]` line turned into a check of expr to 1e-12."""
    if path.suffix == ".py":
        return path.read_text(encoding="utf-8")
    text = path.read_text(encoding="utf-8").split("## Library usage\n")[1]
    block = text.split("```python\n")[1].split("```")[0]
    lines = ["from numpy.testing import assert_allclose"]
    for line in block.splitlines():
        expr, arrow, expected = line.partition("# ->")
        lines.append(f"assert_allclose({expr.strip()}, {expected.strip()}, "
                     "rtol=0, atol=1e-12)" if arrow else line)
    assert "# ->" in block
    return "\n".join(lines)


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", source(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
