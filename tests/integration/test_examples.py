"""Integration: the example scripts must run cleanly end to end."""

import ast
import pathlib
import subprocess
import sys

import pytest


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Sum-of-peaks reduction" in out
        assert "Extra servers" in out

    def test_operations_workflow(self, tmp_path):
        out = run_example("operations_workflow.py", str(tmp_path))
        assert "round-trip verified" in out
        assert (tmp_path / "placement.json").exists()
        assert (tmp_path / "fleet" / "manifest.json").exists()
        assert (tmp_path / "suite0_power.csv").exists()

    def test_incremental_remapping(self):
        out = run_example("incremental_remapping.py")
        assert "full re-placement" in out
        assert "migration budget" in out


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_run_line_names_the_example(path):
    """Each example's docstring says how to run that very example."""
    docstring = ast.get_docstring(ast.parse(path.read_text()))
    (run_line,) = [
        line for line in docstring.splitlines() if line.startswith("Run:")
    ]
    assert run_line.split()[1:3] == ["python", f"examples/{path.name}"]
