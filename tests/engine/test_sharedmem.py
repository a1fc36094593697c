"""Shared-memory data plane: handles, shards, and leak-proof lifecycle.

The non-negotiable here is the lifecycle: whatever way a sharded job ends
— normal return, a worker dying under it, or a ``KeyboardInterrupt`` — no
``smoothop_*`` segment may survive in ``/dev/shm`` and the owner registry
must come back empty.
"""

import glob
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.engine.parallel import WorkerPool
from repro.obs import get_event_log, get_tracer, reset_metrics, snapshot_metrics
from repro.engine.sharedmem import (
    SEGMENT_PREFIX,
    SharedMatrix,
    attach_matrix,
    attach_rows,
    attached_view,
    detach_all,
    owned_segment_names,
    shard_ranges,
)


_HERE = pathlib.Path(__file__).resolve().parent
#: The import root a child interpreter needs on PYTHONPATH (src layout).
_SRC_DIR = _HERE.parents[1] / "src"


def leaked_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


@pytest.fixture(autouse=True)
def _no_leftover_segments():
    """Every test must leave /dev/shm and the owner registry clean."""
    assert leaked_segments() == []
    yield
    detach_all()
    assert owned_segment_names() == ()
    assert leaked_segments() == []


# ----------------------------------------------------------------------
# shard_ranges
# ----------------------------------------------------------------------
def test_shard_ranges_cover_every_row_exactly_once():
    for n_rows in (0, 1, 7, 8, 100):
        for n_shards in (1, 3, 8):
            ranges = shard_ranges(n_rows, n_shards)
            covered = [r for start, stop in ranges for r in range(start, stop)]
            assert covered == list(range(n_rows))
            # Near-equal: sizes differ by at most one, empties dropped.
            sizes = [stop - start for start, stop in ranges]
            assert all(size > 0 for size in sizes)
            if sizes:
                assert max(sizes) - min(sizes) <= 1


def test_shard_ranges_validates_inputs():
    with pytest.raises(ValueError):
        shard_ranges(-1, 2)
    with pytest.raises(ValueError):
        shard_ranges(4, 0)


# ----------------------------------------------------------------------
# handle round-trip
# ----------------------------------------------------------------------
def test_matrix_round_trips_through_a_handle():
    matrix = np.arange(12, dtype=np.float64).reshape(3, 4)
    with SharedMatrix.create(matrix) as shared:
        handle = shared.handle
        assert handle.name.startswith(SEGMENT_PREFIX)
        assert handle.shape == (3, 4)
        assert handle.nbytes == matrix.nbytes
        attached = attach_matrix(handle)
        try:
            assert np.array_equal(attached.array, matrix)
            assert not attached.array.flags.writeable
            with pytest.raises(RuntimeError, match="creating process"):
                attached.unlink()
        finally:
            attached.close()


def test_create_casts_to_requested_dtype():
    matrix = np.ones((2, 3), dtype=np.float64)
    with SharedMatrix.create(matrix, dtype=np.float32) as shared:
        assert shared.array.dtype == np.float32
        assert shared.handle.dtype == np.dtype(np.float32).str


def test_attach_rows_returns_the_requested_block():
    matrix = np.arange(20, dtype=np.float64).reshape(5, 4)
    with SharedMatrix.create(matrix) as shared:
        block = attach_rows(shared.handle, 1, 3)
        assert np.array_equal(block, matrix[1:3])
        with pytest.raises(ValueError, match="row range"):
            attach_rows(shared.handle, 3, 99)
    detach_all()


def test_attached_view_caches_per_handle():
    matrix = np.zeros((2, 2))
    with SharedMatrix.create(matrix) as shared:
        first = attached_view(shared.handle)
        second = attached_view(shared.handle)
        assert first is second
    detach_all()


# ----------------------------------------------------------------------
# lifecycle: normal exit, exceptions, interrupts, worker death
# ----------------------------------------------------------------------
def test_context_manager_unlinks_on_normal_exit():
    with SharedMatrix.create(np.ones((4, 4))) as shared:
        name = shared.name
        assert owned_segment_names() == (name,)
    assert owned_segment_names() == ()
    assert leaked_segments() == []


def test_context_manager_unlinks_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with SharedMatrix.create(np.ones((4, 4))):
            raise RuntimeError("boom")
    assert owned_segment_names() == ()


def test_context_manager_unlinks_on_keyboard_interrupt():
    with pytest.raises(KeyboardInterrupt):
        with SharedMatrix.create(np.ones((4, 4))):
            raise KeyboardInterrupt
    assert owned_segment_names() == ()


def test_unlink_is_idempotent():
    shared = SharedMatrix.create(np.ones((2, 2)))
    shared.unlink()
    shared.unlink()
    assert owned_segment_names() == ()


def test_segment_gauges_publish_with_no_tracer_or_log():
    """The live-segment gauges are plain metrics, published whether or not
    a tracer or an event log is live."""
    assert get_tracer() is None and get_event_log() is None
    reset_metrics()
    try:
        with SharedMatrix.create(np.ones((4, 4))) as shared:
            live = snapshot_metrics()
            assert live["counters"]["shm.segments_created"] == 1.0
            assert live["gauges"]["shm.segments_live"] == 1.0
            assert live["gauges"]["shm.bytes_live"] == float(shared.handle.nbytes)
        gone = snapshot_metrics()["gauges"]
        assert gone["shm.segments_live"] == 0.0
        assert gone["shm.bytes_live"] == 0.0
    finally:
        reset_metrics()


def read_shard_sum(handle, start, stop):
    """Worker-side task: sum one row block of a shared matrix."""
    return float(attach_rows(handle, start, stop).sum())


def mapped_segments(pid="self"):
    """Names of this package's segments mapped into process ``pid``."""
    with open(f"/proc/{pid}/maps") as maps:
        return sorted(set(re.findall(rf"{SEGMENT_PREFIX}[0-9a-f]+", maps.read())))


def shard_sum_and_mappings(handle, start, stop):
    """Worker-side task: a shard's sum, and the segments mapped meanwhile."""
    return read_shard_sum(handle, start, stop), mapped_segments()


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="reads the process's mappings"
)
def test_workers_map_only_the_segment_of_the_running_stage():
    """Every stage publishes a fresh segment and unlinks it when it ends.

    A worker that kept its attachments would keep every finished stage's
    segment mapped (and its memory allocated) for the pool's lifetime.
    """
    with WorkerPool(2) as pool:
        pool.warm()  # fork before any segment exists
        for stage in range(6):
            matrix = np.arange(32, dtype=np.float64).reshape(8, 4) + stage
            ranges = shard_ranges(8, 4)
            with SharedMatrix.create(matrix) as shared:
                tasks = [(shared.handle, start, stop) for start, stop in ranges]
                results = pool.map_shards(shard_sum_and_mappings, tasks)
            assert [total for total, _ in results] == [
                float(matrix[start:stop].sum()) for start, stop in ranges
            ]
            assert [names for _, names in results] == [[shared.name]] * len(ranges)
        # Between tasks, no worker maps any segment.
        assert pool.map_shards(mapped_segments, [()] * 4) == [[]] * 4


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="reads the processes' mappings"
)
def test_workers_forked_inside_a_stage_close_its_segment():
    """A cold pool forks at the stage's first submit, after the segment was
    mapped here, and each worker inherits that mapping.  The workers must
    drop it, so once the stage has unlinked its segment none maps it."""
    matrix = np.arange(32, dtype=np.float64).reshape(8, 4)
    ranges = shard_ranges(8, 4)
    with WorkerPool(2) as pool:
        with SharedMatrix.create(matrix) as shared:
            tasks = [(shared.handle, start, stop) for start, stop in ranges]
            assert pool.map_shards(read_shard_sum, tasks) == [
                float(matrix[start:stop].sum()) for start, stop in ranges
            ]
        pids = [process.pid for process in pool._executor._processes.values()]
        assert len(pids) == 2
        assert [mapped_segments(pid) for pid in pids] == [[], []]


#: Keeps a slice of the owner's array past the ``with`` block that unlinks
#: the segment, reads it, then drops it.
_VIEW_OUTLIVES_OWNER = """
import os
import numpy as np
from repro.engine.sharedmem import SharedMatrix, owned_segment_names
from test_sharedmem import mapped_segments

matrix = np.arange(12, dtype=np.float64).reshape(3, 4)
with SharedMatrix.create(matrix) as shared:
    view = shared.array[1:]
name = shared.name
assert owned_segment_names() == ()
assert not os.path.exists("/dev/shm/" + name)
assert np.array_equal(view, matrix[1:])
assert mapped_segments() == [name]
del view
assert mapped_segments() == []
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="reads the process's mappings"
)
def test_a_view_outlives_the_owners_unlink():
    """The owner's mapping goes with the last view of it, as an attachment's
    does, while the unlink drops the name and the registry entry at once.

    Unmapping under the view would make reading it crash the interpreter,
    so the reads run in a child process, which must exit 0.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC_DIR), str(_HERE), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _VIEW_OUTLIVES_OWNER],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


class DieOnceThenSum:
    """Kills its worker on first run (flag file), sums the shard after."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def __call__(self, handle, start, stop):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as f:
                f.write("died")
            os._exit(17)
        return read_shard_sum(handle, start, stop)


def test_sharded_job_survives_worker_death_and_unlinks(tmp_path):
    """A worker dying mid-shard breaks the pool; the job must still finish
    on the rebuilt pool and the segment must still be unlinked."""
    matrix = np.arange(40, dtype=np.float64).reshape(10, 4)
    task = DieOnceThenSum(tmp_path / "died.flag")
    with WorkerPool(2) as pool:
        with SharedMatrix.create(matrix) as shared:
            tasks = [
                (shared.handle, start, stop)
                for start, stop in shard_ranges(10, 2)
            ]
            results = pool.map_shards(task, tasks)
        assert results == [float(matrix[s:e].sum()) for s, e in shard_ranges(10, 2)]
        # The death forced at least one executor rebuild.
        assert pool.generation >= 2
    assert owned_segment_names() == ()
    assert leaked_segments() == []


def _stays_present(name, seconds):
    """Whether segment ``name`` exists at every check over ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if not os.path.exists(f"/dev/shm/{name}"):
            return False
        time.sleep(0.05)
    return True


class DieAfterAttachThenSum:
    """Attaches its shard, then kills its worker once (flag file); sums after."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def __call__(self, handle, start, stop):
        rows = attach_rows(handle, start, stop)
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as f:
                f.write("died")
            os._exit(17)
        return float(rows.sum())


def kill_after_attach_stages(flag_dir):
    """Two stages over one segment, the first losing a worker after attach.

    A worker that dies holding an attachment must not unlink the
    coordinator's segment: the rebuilt pool finishes the stage, a second
    stage reads the same segment, and nothing is left behind.  The workers
    fork before the segment exists.
    """
    matrix = np.arange(40, dtype=np.float64).reshape(10, 4)
    expected = [float(matrix[s:e].sum()) for s, e in shard_ranges(10, 2)]
    task = DieAfterAttachThenSum(os.path.join(flag_dir, "died.flag"))
    with WorkerPool(2) as pool:
        pool.warm()
        with SharedMatrix.create(matrix) as shared:
            tasks = [
                (shared.handle, start, stop)
                for start, stop in shard_ranges(10, 2)
            ]
            assert pool.map_shards(task, tasks) == expected
            assert pool.generation >= 2
            assert pool.map_shards(read_shard_sum, tasks) == expected
            # The second stage attached the segment afresh, but a dead
            # worker's private tracker could unlink it a few tens of
            # milliseconds later, so look at the segment itself.
            assert _stays_present(shared.handle.name, seconds=0.5)
    detach_all()
    assert owned_segment_names() == ()
    assert leaked_segments() == []


def test_worker_killed_after_attach_leaves_the_segment(tmp_path):
    """The stages run in a fresh interpreter, so no resource tracker is
    running when the pool forks: the order in which a worker would start a
    private tracker unless the pool starts the coordinator's first."""
    script = (
        f"import sys; sys.path.insert(0, {str(_HERE)!r}); "
        f"import test_sharedmem; "
        f"test_sharedmem.kill_after_attach_stages({str(tmp_path)!r})"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC_DIR), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_interrupted_sharded_job_unlinks(tmp_path):
    """KeyboardInterrupt inside the publish block must not leak segments."""
    with pytest.raises(KeyboardInterrupt):
        with SharedMatrix.create(np.ones((8, 3))) as shared:
            attach_rows(shared.handle, 0, 4)
            raise KeyboardInterrupt
    detach_all()
    assert owned_segment_names() == ()
    assert leaked_segments() == []
