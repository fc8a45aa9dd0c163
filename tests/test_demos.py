"""Smoke test: every demo script runs to completion."""

import pytest

from helpers import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    # The demos write their trace (and figures) into the working directory.
    proc = run_python([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
