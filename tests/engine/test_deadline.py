"""Unit tests for the deadline policy object (`repro.engine.deadline`).

Covers the pure-policy half of the deadline layer: validation,
environment parsing, the ambient-default/scope plumbing, and the
decorrelated-jitter backoff helper the dispatch driver sleeps on.
"""

import dataclasses
import random

import pytest

from repro.engine import parallel
from repro.engine.deadline import (
    HARD_TIMEOUT_ENV,
    TaskDeadline,
    TaskTimeoutError,
    deadline_from_env,
    deadline_scope,
    get_default_deadline,
)


@pytest.fixture(autouse=True)
def _no_env_deadline(monkeypatch):
    monkeypatch.delenv(HARD_TIMEOUT_ENV, raising=False)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_hard_timeout_is_the_one_required_field():
    assert [field.name for field in dataclasses.fields(TaskDeadline)] == [
        "hard_timeout_s"
    ]
    with pytest.raises(TypeError):
        TaskDeadline()
    assert TaskDeadline(hard_timeout_s=1.5).hard_timeout_s == 1.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(hard_timeout_s=0.0),
        dict(hard_timeout_s=-1.0),
        dict(hard_timeout_s=float("nan")),
    ],
)
def test_rejects_bad_config(kwargs):
    with pytest.raises(ValueError):
        TaskDeadline(**kwargs)


def test_timeout_error_carries_dispatch_context():
    error = TaskTimeoutError("stage", 3, 2, 1.5)
    assert error.label == "stage"
    assert error.shard_id == 3
    assert error.attempt == 2
    assert error.timeout_s == 1.5
    assert "stage" in str(error) and "1.5" in str(error)
    assert isinstance(error, RuntimeError)


# ----------------------------------------------------------------------
# environment parsing
# ----------------------------------------------------------------------
def test_env_deadline_absent_by_default(monkeypatch):
    assert deadline_from_env() is None
    assert get_default_deadline() is None
    monkeypatch.setenv(HARD_TIMEOUT_ENV, "  ")  # empty means unset
    assert deadline_from_env() is None


def test_env_deadline_parses_the_hard_timeout(monkeypatch):
    monkeypatch.setenv(HARD_TIMEOUT_ENV, "12.5")
    deadline = deadline_from_env()
    assert deadline == TaskDeadline(hard_timeout_s=12.5)
    # the env deadline is what pooled stages see when nothing is installed
    assert get_default_deadline() == deadline


def test_env_deadline_rejects_garbage(monkeypatch):
    for raw in ("30s", "abc", "-5", "0", "nan"):
        monkeypatch.setenv(HARD_TIMEOUT_ENV, raw)
        with pytest.raises(ValueError, match=HARD_TIMEOUT_ENV):
            deadline_from_env()
        with pytest.raises(ValueError, match=HARD_TIMEOUT_ENV):
            get_default_deadline()


# ----------------------------------------------------------------------
# deadline_scope
# ----------------------------------------------------------------------
def test_deadline_scope_installs_and_restores():
    outer = TaskDeadline(hard_timeout_s=60.0)
    inner = TaskDeadline(hard_timeout_s=1.0)
    with deadline_scope(outer):
        with deadline_scope(inner) as installed:
            assert installed is inner
            assert get_default_deadline() is inner
        assert get_default_deadline() is outer
    assert get_default_deadline() is None


def test_deadline_scope_none_is_transparent(monkeypatch):
    outer = TaskDeadline(hard_timeout_s=60.0)
    with deadline_scope(outer):
        with deadline_scope(None) as installed:
            assert installed is None
            assert get_default_deadline() is outer
        assert get_default_deadline() is outer
    # with nothing installed, the environment still applies inside
    monkeypatch.setenv(HARD_TIMEOUT_ENV, "5")
    with deadline_scope(None):
        assert get_default_deadline() == TaskDeadline(hard_timeout_s=5.0)


def test_deadline_scope_restores_on_exception():
    with pytest.raises(RuntimeError):
        with deadline_scope(TaskDeadline(hard_timeout_s=1.0)):
            raise RuntimeError("boom")
    assert get_default_deadline() is None


# ----------------------------------------------------------------------
# decorrelated-jitter backoff
# ----------------------------------------------------------------------
def test_backoff_zero_base_never_sleeps():
    rng = random.Random(0)
    assert parallel._decorrelated_backoff(0.0, 0.0, rng) == 0.0
    assert parallel._decorrelated_backoff(-1.0, 5.0, rng) == 0.0


def test_backoff_stays_within_decorrelated_bounds():
    rng = random.Random(1234)
    base, previous = 0.1, 0.1
    for _ in range(200):
        delay = parallel._decorrelated_backoff(base, previous, rng)
        assert base <= delay <= max(base, previous * 3)
        assert delay <= parallel.MAX_RETRY_BACKOFF_S
        previous = max(delay, base)


def test_backoff_is_capped():
    rng = random.Random(7)
    for _ in range(50):
        delay = parallel._decorrelated_backoff(10.0, 1e9, rng)
        assert 10.0 <= delay <= parallel.MAX_RETRY_BACKOFF_S


def test_backoff_varies_across_draws():
    rng = random.Random(99)
    draws = {
        round(parallel._decorrelated_backoff(0.5, 2.0, rng), 6) for _ in range(32)
    }
    assert len(draws) > 1  # jitter, not a constant schedule
