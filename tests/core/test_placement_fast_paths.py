"""The placer's fast path, checked against its exact path.

Scoring in float32 (the scorer's ``dtype=np.float32``, which the placer
does not expose) may change decisions, but must keep the paper's metrics:
the RPP-level peak reduction and the extra-server fraction of Fig. 10.
"""

import functools

import numpy as np
import pytest

from repro.core import asynchrony, placement
from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig
from repro.datasets import facebook
from repro.infra import Level

#: How far float32 scoring may move a Fig. 10 metric at paper scale.
FLOAT32_TOLERANCE = 1e-3


def fig10_metrics(dc):
    operator = SmoothOperator(SmoothOperatorConfig(placement=PlacementConfig()))
    outcome = operator.optimize(dc.records, dc.topology)
    report = operator.evaluate(dc.records, dc.baseline, outcome.assignment)
    return report.peak_reduction[Level.RPP], report.extra_server_fraction


@pytest.mark.parametrize(
    "spec", [facebook.dc1_spec, facebook.dc2_spec, facebook.dc3_spec]
)
def test_float32_scoring_keeps_the_fig10_metrics(spec, monkeypatch):
    dc = facebook.build_datacenter(spec(n_instances=1440), weeks=3, step_minutes=10)
    exact = fig10_metrics(dc)

    kernel = asynchrony._score_rows
    dtypes = set()

    def recording(rows, basis_matrix):
        dtypes.add(np.result_type(rows, basis_matrix))
        return kernel(rows, basis_matrix)

    monkeypatch.setattr(asynchrony, "_score_rows", recording)
    # The placer calls the scorer through its own module's binding.
    monkeypatch.setattr(
        placement,
        "score_matrix",
        functools.partial(asynchrony.score_matrix, dtype=np.float32),
    )
    fast = fig10_metrics(dc)
    assert dtypes == {np.dtype(np.float32)}  # the placer scored in float32
    assert fast == pytest.approx(exact, abs=FLOAT32_TOLERANCE)
