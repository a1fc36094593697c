#!/usr/bin/env python3
"""Fleet-scale, per-layer benchmark of the SmoothOperator pipeline.

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds N]
                         [--trace 0|1] [--out PATH]

With no ``--workload`` every workload in ``BENCHMARK.json`` runs, each in
its own fresh subprocess with BLAS pinned to one thread.  A run sets the
workload up at least three times (``setup_s`` is the median), runs one untimed
warm-up pass, then timed passes (each after ``gc.collect()``) until
``--seconds`` is spent, at least three of them, and finally checks the
outputs.  Set-ups and passes are reported in reference seconds: their
wall time scaled by the host's speed over the same stretch, which a fixed
probe (:mod:`hostspeed`) measures around each of them and, in set-ups and
long passes, within them; the wall times stay in the record.
``--trace 1`` instead runs one traced set-up and alternates
untraced and traced passes, reporting the per-layer metrics and writing
the spans to ``bench/out/trace_<workload>.json``.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record of each workload (checks,
details, host facts) is appended to ``--out`` as one JSON line, the input
``bench/compare.py`` reads.  The exit code is non-zero when any check or
operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run: at least this many, and until this long has been spent,
#: so that a short set-up's median is not one burst of host noise.
MIN_SETUPS = 3
MIN_SETUP_S = 3.0
MIN_PASSES = 3
#: A workload that has not finished by now is killed with its process group.
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: CPython's resource tracker warns ("leaked shared_memory", "No such file")
#: about segments the pool had already unlinked.  Such lines are counted and
#: not echoed; they are not failures (the adapt checks test for real leaks).
TRACKER = "resource_tracker"


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def use_program() -> None:
    """Pin BLAS to one thread and put ``src/`` on the path; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _run_pass(workload, counts, recorder=None, clock=None):
    """One pass after ``gc.collect()``: its wall and reference seconds, or
    None if it raised.  Without a host-speed ``clock`` both are wall time."""
    import gc

    gc.collect()
    context = recorder.phase("bench.pass") if recorder is not None else nullcontext()
    with context:
        try:
            if clock is None:
                started = time.perf_counter()
                ops = workload.run_pass()
                wall = reference = time.perf_counter() - started
            else:
                ops, wall, reference = clock.time(workload.run_pass)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            counts["attempted"] += 1
            counts["failed"] += 1
            return None
    counts["attempted"] += ops
    workload.after_pass()
    return wall, reference


def _finish(workload, recorder=None):
    context = recorder.phase("bench.finish") if recorder is not None else nullcontext()
    with context:
        try:
            return workload.finish()
        except Exception:
            traceback.print_exc()
            return float("nan"), {"finish_completed": False}


def _untraced(workload_factory, seconds, counts):
    """Set-ups and passes, timed in reference seconds by host-speed clocks."""
    import gc
    import resource

    import hostspeed

    setup_clock = hostspeed.Clock(sample=True)
    setup_walls, setup_times = [], []
    workload = None
    while len(setup_walls) < MIN_SETUPS or sum(setup_walls) < MIN_SETUP_S:
        if workload is not None:
            workload.close()
        workload = None
        gc.collect()
        workload = workload_factory()
        _, wall, reference = setup_clock.time(workload.setup)
        setup_walls.append(wall)
        setup_times.append(reference)
    workload.prepare()
    _run_pass(workload, counts)  # warm-up
    clock = hostspeed.Clock(sample=workload.SAMPLE_PASSES)
    walls, times = [], []
    started = time.perf_counter()
    while True:
        timing = _run_pass(workload, counts, clock=clock)
        if timing is None:
            break
        walls.append(timing[0])
        times.append(timing[1])
        spent = time.perf_counter() - started
        if len(walls) >= MIN_PASSES and spent + statistics.median(walls) > seconds:
            break
    quality, checks = _finish(workload)
    details = workload.details()
    workload.close()
    details.update(
        setup_times_s=setup_times,
        setup_walls_s=setup_walls,
        pass_times_s=times,
        pass_walls_s=walls,
        host_slowdown=statistics.median(clock.unit_times or [float("nan")])
        / hostspeed.REFERENCE_S,
    )
    details.update(_pool_details())
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(times) if times else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rpp_peak_reduction": quality,
    }
    return values, checks, details


def _traced(workload_factory, seconds, counts, trace_path):
    import layers

    recorder = layers.SpanRecorder()
    workload = workload_factory()
    with recorder.phase("bench.setup"):
        workload.setup()
    workload.prepare()
    _run_pass(workload, counts)  # warm-up
    untraced, traced = [], []
    checks = {}
    started = time.perf_counter()
    while True:
        plain = _run_pass(workload, counts)
        if plain is None:
            break
        untraced.append(plain[0])
        with_spans = _run_pass(workload, counts, recorder)
        if with_spans is None:
            break
        traced.append(with_spans[0])
        gaps = layers.obs_disagreements(recorder, recorder.phases[-1])
        checks.setdefault("spans_agree_with_obs", True)
        if gaps:
            checks["spans_agree_with_obs"] = False
            print(f"wrapped vs repro.obs span gaps: {gaps}", file=sys.stderr)
        spent = time.perf_counter() - started
        if spent + statistics.median(untraced) + statistics.median(traced) > seconds:
            break
    _, finish_checks = _finish(workload, recorder)
    checks.update(finish_checks)
    details = workload.details()
    workload.close()
    if trace_path is not None:
        recorder.write(trace_path)
    if not traced:
        return {}, checks, details
    values = layers.per_layer_metrics(recorder, untraced)
    details["traced_passes"] = len(traced)
    details["layers"] = layers.layer_table(recorder)
    return values, checks, details


def _pool_details() -> dict:
    """Worker-pool task costs from the program's own ``pool.*`` histograms."""
    from repro import obs

    histograms = obs.snapshot_metrics()["histograms"]
    execute = histograms.get("pool.task_exec_s", {})
    roundtrip = histograms.get("pool.task_roundtrip_s", {})
    if not execute.get("count") or not roundtrip.get("count"):
        return {}
    return {
        "pool_task_count": execute["count"],
        "pool_exec_p50_ms": execute["p50"] * 1e3,
        "pool_roundtrip_p50_ms": roundtrip["p50"] * 1e3,
        "pool_task_overhead_ms": (roundtrip["p50"] - execute["p50"]) * 1e3,
    }


def _host_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict form
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(
    name: str,
    *,
    seed=None,
    seconds: float = 15.0,
    trace: bool = False,
    params=None,
    trace_path=None,
) -> dict:
    """Run one workload in this process and return its full record.

    ``params`` overrides the workload's default parameters (instance
    count, batch size, ...); the command line does not expose them.
    """
    use_program()
    import reference
    import workloads

    spec = load_spec()
    seed = workloads.COMMITTED_SEED if seed is None else seed
    counts = {"attempted": 0, "failed": 0}

    def factory():
        return workloads.make(name, seed, **(params or {}))

    if trace:
        values, checks, details = _traced(factory, seconds, counts, trace_path)
    else:
        values, checks, details = _untraced(factory, seconds, counts)
        if not params:
            checks.update(reference.check(name, seed, values["rpp_peak_reduction"]))
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            checks["metric_" + metric["name"] + "_measured"] = False
            value = None
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = counts["failed"] + sum(1 for ok in checks.values() if not ok)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": counts["attempted"] + len(checks),
        "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "details": details,
        "host": _host_facts(),
    }


# ----------------------------------------------------------------------
# the parent: one subprocess per workload
# ----------------------------------------------------------------------
def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _spawn(name: str, args) -> "dict | None":
    """Run one workload in a fresh process group; its record, or None."""
    OUT_DIR.mkdir(exist_ok=True)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        name,
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        try:  # pool workers or trackers the child left behind
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    tracker_lines = [line for line in stderr.splitlines() if TRACKER in line]
    sys.stderr.writelines(
        line + "\n" for line in stderr.splitlines() if TRACKER not in line
    )
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"{name}: exited with {process.returncode}", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    record["details"]["shm_tracker_warnings"] = sum(
        1 for line in tracker_lines if "UserWarning" in line
    )
    return record


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _report(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}  "
          f"{record['attempted']} attempted, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"  {name:<30} {_format(metric['value']):>12} {metric['unit']}")
    for name, ok in record["checks"].items():
        print(f"  check {name:<36} {'ok' if ok else 'FAILED'}")
    for name, value in record["details"].items():
        if name == "layers":
            print("  layer spans, median traced pass (wall s / cpu s / calls):")
            for span, row in value.items():
                print(f"    {span:<28} {row['wall']:10.4f} {row['cpu']:10.4f} {row['calls']:8.0f}")
        elif isinstance(value, float):
            print(f"  {name:<30} {value:12.6g}")
        elif isinstance(value, list) and value:
            print(f"  {name:<30} n={len(value)} median={statistics.median(value):.6g} "
                  f"min={min(value):.6g} max={max(value):.6g}")
        else:
            print(f"  {name:<30} {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="extend", nargs="+", help="default: all")
    parser.add_argument("--seed", type=int, help="input seed (default: DC3's committed seed, 303)")
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "runs.jsonl")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        trace_path = OUT_DIR / f"trace_{args.child}.json" if args.trace else None
        record = run_workload(
            args.child,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            trace_path=trace_path,
        )
        print(json.dumps(record))
        return 0

    known = [workload["name"] for workload in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    sha = _git_sha()
    records = []
    for name in names:
        record = _spawn(name, args)
        if record is None:
            return 1
        record["host"]["git_sha"] = sha
        _report(record)
        records.append(record)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in records
            for name, metric in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
