"""One workload in a fresh process: set up, then run whole passes of the job
list from a single caller until the time is used.

    python3 bench/worker.py --src SRC --workload NAME --seed N --seconds S
                            --trace 0|1 --out FILE [--setup-only]

Set-up is timed from before ``import datamarket`` to the end of input
building.  Each job is timed alone with ``time.perf_counter``; its output
is summarised for the checks after its clock stops.  The result goes to
``--out`` as JSON, and ``run.py`` does every check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

perf = time.perf_counter
BENCH = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    """This process's own peak resident memory.  getrusage's ru_maxrss is no
    use here: Linux carries the parent's peak over fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _import_seconds(src: str) -> float:
    """A fresh interpreter's `import datamarket.cli`, timed inside it."""
    code = ("import time, sys; t = time.perf_counter(); import datamarket.cli; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, timeout=60)
    return float(out.stdout)


def _cli_in_process(job) -> str:
    """`cli.main(argv)` in this process, so its self time can be traced."""
    from datamarket import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(list(job.argv))
    return out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf()
    sys.path[:0] = [args.src, BENCH]
    import datamarket

    if not os.path.abspath(datamarket.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"datamarket was imported from {datamarket.__file__}, not {args.src}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import jobs

    workdir = os.path.join(BENCH, "out", f"cli-{args.seed}")
    job_list = jobs.build(args.workload, args.seed, workdir, args.src)
    setup_s = perf() - t0
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import calibrate  # after set-up: its kernels are the benchmark's, not the program's

    n = len(job_list)
    # one pass: every job once, then every job with reps >= 2 once more, ...
    schedule = [(r, k) for r in range(max(job.reps for job in job_list))
                for k, job in enumerate(job_list) if job.reps > r]
    samples: list[list[float]] = [[] for _ in range(n)]
    summaries: list = [None] * n
    errors: list = [None] * n
    raised = [0] * n  # samples that raised, per job
    fingerprints: list[list] = [[] for _ in range(n)]
    inprocess: list[list[str]] = [[] for _ in range(n)]  # traced cli.main output per pass
    speeds: list[list] = [[] for _ in range(n)]  # kernel times around each sample
    child_peak_mb = 0.0  # the CLI processes' peak memory, on cli_roundtrip
    passes = 0
    start = perf()
    reading = calibrate.speed()
    while True:
        pass_start = perf()
        for r, k in schedule:
            job = job_list[k]
            if tracer:  # spans cover each job once a pass
                tracer.begin_job(k, record=r == 0)
            t = perf()
            try:
                raw, err = job.run(), None
            except Exception as exc:  # a job that raises counts as failed
                raw, err = None, f"{type(exc).__name__}: {exc}"
            samples[k].append(perf() - t)
            before, reading = reading, calibrate.speed()
            speeds[k].append([(x + y) / 2 for x, y in zip(before, reading)])
            raised[k] += err is not None
            if hasattr(job, "child_peak_mb"):
                child_peak_mb = max(child_peak_mb, job.child_peak_mb())
            if raw is not None and hasattr(job, "fingerprint"):
                fingerprints[k].append(job.fingerprint(raw))
            if len(samples[k]) == 1:
                errors[k] = err
                summaries[k] = None if raw is None else job.summary(raw)
            if tracer and r == 0 and args.workload == "cli_roundtrip":
                # on every pass, as the spans are, so that all sum to one pass
                tracer.add("cli.import_s", _import_seconds(args.src))
                inprocess[k].append(_cli_in_process(job))
                reading = calibrate.speed()
            if tracer:
                tracer.end_job()
        passes += 1
        now = perf()
        if now - start + (now - pass_start) > args.seconds:
            break
    wall = perf() - start

    result = {
        "setup_s": setup_s,
        "samples": samples,
        "speeds": speeds,
        "passes": passes,
        "wall_s": wall,
        "errors": errors,
        "raised": raised,
        "summaries": summaries,
        "fingerprints": fingerprints,
        # the CLI's own peak where the jobs are CLI processes, else this process's
        "peak_rss_mb": child_peak_mb or _peak_rss_mb(),
    }
    if tracer:
        tracer.uninstall()
        result["inprocess_stdout"] = inprocess
        result["per_layer"] = tracer.metrics(passes)
        result["trace_overhead"] = tracer.overhead(sum(map(sum, samples)))
        trace_file = os.path.join(BENCH, "out", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                  "passes": passes, "overhead": result["trace_overhead"]})
        result["trace_file"] = trace_file
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
