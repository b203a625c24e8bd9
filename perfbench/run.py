"""momentkit benchmark: time to a verdict on three fixed workloads.

    python3 perfbench/run.py --workload rational --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every job calls ``momentkit.cli.main([...])`` in this process
(single-threaded), except the 1D grid LP of ``gap-lp``, which calls
``gaps.grid_gap_lp``.  Every job's output is checked (``checks.py``).

One run: set-up (fresh-process imports, input files), then one pass over
the seed-shuffled job list, then re-runs that share what is left of
``--seconds`` fairly between the jobs.

Times are scaled to one machine speed.  On a shared host other tenants slow
this process by up to half for minutes at a time, more than a run can
average out, so a fixed pure-Python loop (``reference_loop``) is timed just
before and just after every timed step, and the step's time is scaled by
REFERENCE_S over the loop's mean time around it.  A job's time is the sum
of its runs' times over the sum of their loop times, times REFERENCE_S: its
wall time at the speed at which the loop takes REFERENCE_S.  The raw times
and loop times are in the line before the result.
``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: wall time of the job list, the sum of the per-job times;
* ``job_p50_s``: median per-job time;
* ``setup_s``: median time to import ``momentkit.cli`` in a fresh
  interpreter, taken at the start and at the end of the run, plus median
  time to write the workload's inputs, both scaled;
* ``peak_rss_mb``: peak resident set size of this process;
* ``fail_ratio``: jobs with a run whose exit code, status or checked output
  is wrong, over the jobs in the list.  Known defects are kept in the job
  lists and expect the correct outcome, so they count here until fixed.

``attempted`` and ``failed`` in the result count jobs of the list, not
runs, in both modes, so that they do not depend on machine speed.

``--trace 1`` runs every job once untraced and once with every public
function of the library wrapped (``tracer.py``), and prints the per-layer
self times and counters, unscaled; ``trace.overhead_s`` is traced minus
untraced wall.

The line before the result holds the environment, the seed, a calibration
timing taken at the start and at the end, and the per-job outcomes.  The
last line of standard output is the result object.

``--record`` runs every job once and rewrites ``expected.json`` from the
current library; do it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
# the reference loop's time at the reference machine speed: about its
# median on the 2-vCPU Xeon host the bounds were set on
REFERENCE_S = 0.005
MAX_RUNS = 40
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import momentkit.cli; "
                "print(time.perf_counter() - t)")

UNITS = {"wall_s": "s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "fail_ratio": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "momentkit", "__init__.py")):
        print(f"no momentkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import momentkit
    import workloads

    if os.path.dirname(os.path.abspath(momentkit.__file__)) != os.path.join(SRC, "momentkit"):
        print(f"imported momentkit from {momentkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def run(args, work: str) -> int:
    import checks

    calibration = [calibrate()]
    imports, writes, jobs = set_up(args.workload, args.seed, work)
    expected = checks.load_expected()

    def attempt(job, tracer=None) -> dict:
        gc.collect()  # each job starts from a clean heap, as a fresh CLI call does
        (seconds, rc, result), loop_s = around(lambda: run_job(job, tracer))
        ok, reason = checks.check(job, rc, result, expected, args.workload)
        return {"name": job.name, "seconds": seconds, "loop_s": loop_s, "ok": ok,
                "known_defect": job.check == "expect", "reason": reason}

    if args.trace:
        from tracer import Tracer

        # each job runs untraced and traced back to back, alternating which
        # goes first, so drift and first-run costs fall on both sides alike
        tracer = Tracer()
        untraced, traced = [], []
        for i, job in enumerate(jobs):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced.append(attempt(job))
                    continue
                tracer.install()
                try:
                    traced.append(attempt(job, tracer))
                finally:
                    tracer.restore()
        outcomes = untraced + traced
    else:
        outcomes = measure(jobs, attempt, args.seconds)
    calibration.append(calibrate())

    per_job = {}
    for o in outcomes:
        per_job.setdefault(o["name"], []).append(o)
    # the operations are the jobs of the list, each failed if any of its
    # runs failed: how many runs fit in --seconds depends on machine speed,
    # so counting runs would make these counts differ between runs of the
    # same code and seed
    attempted = len(per_job)
    failed = sum(not all(o["ok"] for o in runs) for runs in per_job.values())
    # a job outside the known-defect list that fails is a broken output
    correct = all(o["ok"] or o["known_defect"] for o in outcomes)

    if args.trace:
        values = tracer.metrics()
        values["trace.wall_s"] = sum(o["seconds"] for o in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - sum(o["seconds"] for o in untraced)
        values["trace.self_sum_s"] = sum(v for k, v in values.items()
                                         if k.endswith(".self_s"))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        scaled = [REFERENCE_S * sum(o["seconds"] for o in runs)
                  / sum(o["loop_s"] for o in runs) for runs in per_job.values()]
        # import time again at the end: the median over both ends of the
        # run depends less on the machine's speed at one moment
        imports += import_times()
        values = {
            "wall_s": sum(scaled),
            "job_p50_s": statistics.median(scaled),
            "setup_s": statistics.median(imports) + statistics.median(writes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_ratio": failed / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "calibration_s": calibration,
        "order": [job.name for job in jobs],
        "jobs": [{k: o[k] for k in ("name", "seconds", "loop_s", "ok", "known_defect",
                                    "reason")}
                 for o in outcomes],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(jobs: list, attempt, seconds: float) -> list:
    """One pass over the job list, then re-runs of the job that has had the
    least time so far, while its median time still fits in what is left of
    ``seconds`` (at most MAX_RUNS runs per job).  Sharing the time fairly
    gives short jobs many runs, spread over the whole run, and long jobs
    more than one where it fits."""
    started = time.perf_counter()
    outcomes, times, spent = [], {}, {}

    def run_once(job) -> None:
        start = time.perf_counter()
        outcome = attempt(job)
        # the time a job has had includes its probes and heap clean-up
        spent[job.name] = spent.get(job.name, 0.0) + time.perf_counter() - start
        times.setdefault(job.name, []).append(outcome["seconds"])
        outcomes.append(outcome)

    for job in jobs:
        run_once(job)
    waiting = list(jobs)
    while waiting:
        job = min(waiting, key=lambda j: spent[j.name])
        mine = times[job.name]
        left = seconds - (time.perf_counter() - started)
        if len(mine) >= MAX_RUNS or statistics.median(mine) > left:
            waiting.remove(job)
            continue
        run_once(job)
    return outcomes


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits") or name.endswith("_bits_max"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# set-up


def import_times() -> list:
    """SETUP_REPEATS scaled times to import ``momentkit.cli``, each in a
    fresh interpreter, as a CLI user pays it on every call."""
    def child() -> float:
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_CHILD, SRC],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    return [scale(*around(child)) for _ in range(SETUP_REPEATS)]


def set_up(workload: str, seed: int, work: str) -> tuple:
    """(import times, input writing times, jobs), the times scaled.  Input
    writing is repeated into fresh directories."""
    import workloads

    def write(target: str) -> tuple:
        start = time.perf_counter()
        inputs, jobs = workloads.build(workload, seed, target)
        workloads.write_inputs(inputs, target)
        return time.perf_counter() - start, jobs

    imports = import_times()
    writes = []
    for i in range(SETUP_REPEATS):
        target = work if i == SETUP_REPEATS - 1 else f"{work}-w{i}"
        (seconds, jobs), loop_s = around(lambda: write(target))
        writes.append(scale(seconds, loop_s))
        if target != work:
            shutil.rmtree(target)
    import momentkit.cli  # noqa: F401  (the jobs below run in this process)

    return imports, writes, jobs


# ---------------------------------------------------------------------------
# jobs


def run_job(job, tracer=None) -> tuple:
    """(seconds, rc, result).  rc is the CLI exit code, 0 for a library
    call, or ``"exception: <type>: <message>"``."""
    from momentkit import cli

    if job.out and os.path.exists(job.out):
        os.remove(job.out)
    if job.argv is not None:
        def call():
            return cli.main(job.argv), None
    else:
        def call():
            return 0, job.call()
    clock = time.perf_counter
    # the library must not write to stdout; keep the result line clean anyway
    with contextlib.redirect_stdout(sys.stderr):
        start = clock()
        try:
            rc, result = tracer.root(call) if tracer else call()
        except Exception as exc:  # counted as a failed job, never fatal
            rc, result = f"exception: {type(exc).__name__}: {exc}"[:300], None
        seconds = clock() - start
    return seconds, rc, result


# ---------------------------------------------------------------------------
# environment and calibration


def reference_loop() -> float:
    """Time of a fixed pure-Python integer loop, about 5 ms: a probe of the
    machine's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def around(step) -> tuple:
    """(step(), mean time of the reference loop just before and just after
    it)."""
    before = reference_loop()
    value = step()
    return value, (before + reference_loop()) / 2


def scale(seconds: float, loop_s: float) -> float:
    """``seconds`` at the speed at which the reference loop takes
    REFERENCE_S."""
    return seconds * REFERENCE_S / loop_s


def calibrate() -> float:
    """Median of nine reference loop times, so that machine drift between
    the start and the end of a run shows."""
    return statistics.median(reference_loop() for _ in range(9))


def environment() -> dict:
    import mpmath

    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# expectations


def record() -> int:
    """Rewrite expected.json: one observed record per digest/signature job."""
    import checks
    import workloads

    out = {}
    for workload in workloads.WORKLOADS:
        work = os.path.join(WORK, f"record-{workload}-{os.getpid()}")
        try:
            inputs, jobs = workloads.build(workload, 0, work)
            workloads.write_inputs(inputs, work)
            for job in jobs:
                if job.check not in ("digest", "signature"):
                    continue
                seconds, rc, result = run_job(job)
                out[f"{workload}/{job.name}"] = checks.observe(job, rc, result)
                print(f"{workload}/{job.name}: rc {rc}, {seconds:.2f} s", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
