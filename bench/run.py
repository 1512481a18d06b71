"""The benchmark of the datamarket pricing engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: plc_ladder, linear_ladder, posted_clearing, cli_roundtrip (see
README.md).  Run from the root of a source checkout; the library is imported
from its ``src/``.  The steps, one after another:

1. build the workload's inputs here and compute every oracle reference;
2. time set-up (import plus input building) in three fresh processes;
3. run the workload in one more fresh process, which times its own set-up,
   in whole passes of its job list, for ``--seconds``; then time set-up in
   three more processes, and take the median of the seven;
4. check every job's output against the references and properties;
5. print one JSON line: correct, attempted, failed and the metrics
   (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).

A job's time is the median of its samples, each scaled by the host-speed
kernels timed around it (``calibrate.py``).  ``python3 bench/oracles.py``
is the oracles' self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate  # the bench directory is first on sys.path

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 3      # set-up-only processes before, and again after, the workload
DEADLINE_S = 170.0    # the whole run ends within this


def _worker(args, out_file: str, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--src", SRC,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_file]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out_file, encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(workload: str, job_list: list, res: dict, failed_jobs: int,
                setups: list[float], ratios: list[float]) -> dict:
    # a job's time: the median of its calibrated samples (see calibrate.py)
    per_job = []
    for job, ts, sp in zip(job_list, res["samples"], res["speeds"]):
        w = calibrate.PYTHON_WEIGHT[workload] if job.py_weight is None else job.py_weight
        per_job.append(statistics.median(t * calibrate.factor(py, nz, w)
                                         for t, (py, nz) in zip(ts, sp)))
    ranked = sorted(per_job)
    n_jobs = len(job_list)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": ((n_jobs - failed_jobs) / sum(per_job), "1/s"),
        "latency_p50_s": (statistics.median(per_job), "s"),
        # the job with exactly ten jobs beyond it
        "latency_tail_s": (ranked[n_jobs - 11], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "revenue_ratio": (statistics.fmean(ratios), "1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "datamarket", "__init__.py")):
        print(f"error: no datamarket sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import checks
    import jobs
    import spans

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {jobs.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"cli-{args.seed}")
    job_list = jobs.build(args.workload, args.seed, workdir, SRC)
    refs = checks.references(job_list)
    if len(job_list) < 40:
        raise AssertionError("a workload needs 40 jobs for its tail latency")

    out_file = os.path.join(OUT, f"worker-{args.workload}-{args.seed}-{os.getpid()}.json")
    # set-up probes before and after the workload process, which times its
    # own set-up too, so that they sample the host over the whole run
    setups = [_worker(args, out_file, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _worker(args, out_file, False, deadline)
    setups.append(res["setup_s"])
    setups += [_worker(args, out_file, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    os.unlink(out_file)

    passes = res["passes"]
    failed_jobs, failed_reps, ratios, wrong = 0, 0, [], []
    for k, job in enumerate(job_list):
        err, summary = res["errors"][k], res["summaries"][k]
        problems, ratio = (["raised " + err], None) if err else checks.check(job, summary, refs[k])
        inproc = res.get("inprocess_stdout", [[]] * len(job_list))[k]
        if summary is not None and any(out != summary["stdout"] for out in inproc):
            problems.append("in-process cli.main output differs from the subprocess")
        if len(set(res["fingerprints"][k])) > 1:
            problems.append("output differs between passes")
        if res["raised"][k] not in (0, len(res["samples"][k])):
            wrong.append(f"job {job.name}: raised on {res['raised'][k]} of "
                         f"{len(res['samples'][k])} samples")
            continue
        if err or (problems and job.expect_fault):
            failed_jobs += 1
            failed_reps += job.reps
            if not job.expect_fault:
                print(f"job {job.name}: {err}", file=sys.stderr)
        elif problems:
            wrong.append(f"job {job.name}: {'; '.join(problems)}")
        elif ratio is not None:
            ratios.append(ratio)
    # every copy of one CLI argv must print the same bytes
    by_argv: dict = {}
    for k, job in enumerate(job_list):
        if hasattr(job, "argv") and res["fingerprints"][k]:
            by_argv.setdefault(tuple(job.argv), set()).update(res["fingerprints"][k])
    wrong += [f"argv {' '.join(a)}: output not byte-identical" for a, f in by_argv.items()
              if len(f) > 1]
    for line in wrong:
        print(line, file=sys.stderr)

    end_to_end = _end_to_end(args.workload, job_list, res, failed_jobs, setups, ratios)
    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": unit}
                   for k, unit in spans.PER_LAYER.items()}
        ov = res["trace_overhead"]
        print(f"trace: {ov['spans']} spans and {ov['folded_calls']} folded calls; "
              f"estimated wrapper overhead {ov['estimated_s']:.4f} s = "
              f"{100 * ov['share_of_job_time']:.2f}% of traced job time; traced "
              f"jobs_per_s {end_to_end['jobs_per_s']['value']:.4g} (compare an untraced run "
              f"of this seed); spans in {os.path.relpath(res['trace_file'], ROOT)}")
    else:
        metrics = end_to_end
    print(f"{args.workload} seed {args.seed}: {len(job_list)} jobs x {passes} passes "
          f"in {res['wall_s']:.1f} s")
    # attempted and failed count one pass: every pass runs the same
    # operations, and a job that fails fails on every sample (checked above)
    print(json.dumps({"correct": not wrong, "attempted": sum(job.reps for job in job_list),
                      "failed": failed_reps, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
