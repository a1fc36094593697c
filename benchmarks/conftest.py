"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures at full
experiment scale (1440 instances per datacenter, 10-minute sampling), writes
the rendered rows to ``benchmarks/results/<name>.txt``, and asserts the
paper's qualitative shape (who wins, orderings, rough factors).

Datacenters and placement studies are cached inside
:mod:`repro.analysis.experiments`, so the first benchmark pays the build
cost and the rest reuse it.

The timing benchmarks (``bench_profile``, ``bench_engine``,
``bench_scale``) also hold committed reference wall times per stage and
assert each fresh stage against them through :func:`check_walls`.
"""

from __future__ import annotations

import pathlib
from typing import List, Mapping

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: A stage fails its wall gate above ``WALL_TOLERANCE x reference +
#: WALL_FLOOR_S``.  The factor absorbs host-speed differences and the
#: floor absorbs timer jitter on stages under 50 ms: the gate catches
#: order-of-magnitude slowdowns and stages that stop being measured.
WALL_TOLERANCE = 3.0
WALL_FLOOR_S = 0.05


@pytest.fixture(scope="session")
def emit_report():
    """Write a rendered experiment report to benchmarks/results/ and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _emit


@pytest.fixture(scope="session")
def check_walls():
    """Gate stage wall times against their references.

    The returned function gives one message per reference stage that is
    missing from ``walls`` or took longer than its bound.
    """

    def _check(
        walls: Mapping[str, float], references: Mapping[str, float]
    ) -> List[str]:
        failures = []
        for stage, reference in references.items():
            wall = walls.get(stage)
            limit = reference * WALL_TOLERANCE + WALL_FLOOR_S
            if wall is None:
                failures.append(f"stage {stage!r} was not measured")
            elif wall > limit:
                failures.append(
                    f"stage {stage!r} took {wall:.3f}s, over its {limit:.3f}s "
                    f"bound ({WALL_TOLERANCE:g} x {reference:.3f}s reference "
                    f"+ {WALL_FLOOR_S:g}s)"
                )
        return failures

    return _check


@pytest.fixture(scope="session")
def full_scale():
    """Keyword arguments selecting the full experiment scale."""
    return dict(n_instances=1440, step_minutes=10)
