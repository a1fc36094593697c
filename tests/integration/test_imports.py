"""Importing the package is silent."""

import subprocess
import sys


def test_plain_import_of_repro_stays_silent():
    """``import repro`` and its subpackages emit no DeprecationWarning."""
    code = "import repro, repro.reshaping, repro.faults, repro.infra"
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
