"""The scripts run from a bare checkout: no installed package, no PYTHONPATH,
and no pytest."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))

# runs the script named by its first argument with pytest unimportable
WITHOUT_PYTEST = (
    "import runpy, sys; sys.modules['pytest'] = None; sys.argv = sys.argv[1:]; "
    "runpy.run_path(sys.argv[0], run_name='__main__')"
)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_help_runs_from_a_checkout(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for command in ([str(script)], ["-c", WITHOUT_PYTEST, str(script)]):
        done = subprocess.run(
            [sys.executable, *command, "--help"],
            cwd=tmp_path,  # outside the checkout
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (command[0], done.stderr)
        assert done.stdout.startswith("usage:")
