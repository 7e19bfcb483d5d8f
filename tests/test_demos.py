"""Every script in demos/ runs to the end as the README shows it, against the
package in src/, under the suite's warning rule: a RuntimeWarning is an error,
and nothing reaches stderr."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would parametrize no run at all


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=tmp_path,
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
