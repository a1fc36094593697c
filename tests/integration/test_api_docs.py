"""docs/API.md must stay in sync with the code."""

import pathlib
import sys


ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_api_docs_current():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_api_docs
    finally:
        sys.path.pop(0)
    expected = gen_api_docs.generate()
    committed = (ROOT / "docs" / "API.md").read_text()
    assert committed == expected, (
        "docs/API.md is stale — run `python tools/gen_api_docs.py`"
    )


def test_api_docs_mention_core_names():
    content = (ROOT / "docs" / "API.md").read_text()
    for name in (
        "WorkloadAwarePlacer",
        "asynchrony_score",
        "Engine",
        "ScenarioSpec",
        "CappingSimulator",
        "TraceSynthesizer",
    ):
        assert name in content
