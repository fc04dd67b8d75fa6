"""Run one workload's operations in this process through ``balancegame.cli.main``.

Usage: ``python3 bench/worker.py JOB.json RESULT.json``; ``run.py`` writes
the job and reads the result.  The job names the checkout root, the
operations (argv lists), a warm-up argv, the run length, whether to trace
and whether to stop after set-up.

Set-up is timed from just before ``import balancegame.cli`` to the end of the
warm-up operation.  The measured part then runs whole passes over the
operation list until the run length has elapsed, timing every operation,
capturing its stdout and exit code.  With tracing on, passes alternate
between untraced and traced, so one run gives the per-layer numbers and
the tracing overhead.

Each vCPU of a shared host changes speed by up to 2x, from one second to
the next and over minutes, independently of the other vCPU.  So the worker
also times a fixed calibration kernel that uses nothing from the package
(:func:`pace`): once after set-up, and before and after every operation.
``run.py`` scales each time by the kernel's time around it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
import time

ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')
PACE_REPS = 3  # kernel runs per calibration; the fastest is kept, so a cache left cold by an operation does not count

_kernel_data: list = []


def _kernel() -> float:
    """Seconds for a fixed mix of the package's kinds of work: a broadcast
    compare-and-count over small int8 arrays, and string and dict work."""
    if not _kernel_data:
        import numpy as np

        # Fixed pseudo-random digits without numpy.random, which would add to the peak RSS measured.
        _kernel_data.append((np.arange(256 * 243 * 5).reshape(256, 243, 5) * 7919 % 3).astype(np.int8))
        _kernel_data.append((np.arange(243 * 5).reshape(243, 5) * 104729 % 5 % 3).astype(np.int8))
    a, b = _kernel_data
    t0 = time.perf_counter()
    hits = int(((a != b).sum(axis=2, dtype="int16") <= 1).sum())
    table: dict[str, int] = {}
    for i in range(600):
        row = "".join("LRD"[(i >> j) % 3] for j in range(6))
        table[row] = table.get(row, 0) + hits
    return time.perf_counter() - t0


def pace() -> float:
    """The calibration kernel's time now, in seconds."""
    return min(_kernel() for _ in range(PACE_REPS))


def run_op(main, argv: list[str]) -> tuple[object, str, str, float]:
    """(exit code or exception text, stdout, stderr, seconds) of one call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - the run goes on; the failure is reported
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from balancegame import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported balancegame from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    rc, _, err, _ = run_op(cli.main, job["warmup"])
    setup_s = time.perf_counter() - t0
    if rc != 0:
        print(f"error: warm-up {job['warmup']} exited {rc}: {err.strip()}", file=sys.stderr)
        return 2
    pace()  # builds the kernel's arrays
    result: dict = {"setup_s": setup_s, "setup_pace": pace()}

    if not job["setup_only"]:
        result.update(measure(cli, job))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(cli, job) -> dict:
    ops = job["ops"]
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    first: dict[int, dict] = {}  # op id -> first execution's rc/stdout/stderr
    changed: dict[int, int] = {}  # op id -> executions whose output differed from the first
    times: list[list] = []  # [op id, seconds, traced, pass, calibration kernel seconds around it]
    passes = traced_passes = 0
    start = time.perf_counter()
    before = pace()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for op in ops:
            if traced:
                tracer.op_id = op["id"]
            rc, out, err, dt = run_op(cli.main, op["argv"])
            after = pace()
            times.append([op["id"], dt, traced, passes, (before + after) / 2])
            before = after
            seen = first.get(op["id"])
            if seen is None:
                first[op["id"]] = {"rc": rc, "stdout": out, "stderr": err[-2000:]}
            elif seen["rc"] != rc or ELAPSED.sub("", seen["stdout"]) != ELAPSED.sub("", out):
                changed[op["id"]] = changed.get(op["id"], 0) + 1
        if traced:
            tracer.uninstall()
            traced_passes += 1
        passes += 1
        if time.perf_counter() - start >= job["seconds"] and (tracer is None or traced_passes > 1):
            break
    result = {
        "passes": passes,
        "times": times,
        "outputs": first,
        "changed": changed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.save(job["spans_path"])
        result["trace"] = {
            "traced_passes": traced_passes,
            "spans": len(tracer.start),
            "summary": tracer.summary(),
            "counts": dict(tracer.counts),
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
