"""Per-job wall time of one benchmark workload, measured in process.

    python3 tools/jobtimes.py --workload small-audits --seed 0 --repeat 3

Imports `bench/workloads.py`, `bench/worker.py` and `src/demerlab` from this
checkout (reading them only). It first prints `worker.runtime_fingerprint()`:
Python, numpy, the BLAS library and its thread count, which can change these
timings several-fold. It then runs the workload's job list `--repeat` times with
`run_pass`, and prints each job's minimum and median time over those passes, then the
minimum and median whole-pass time. A job that exits nonzero is marked with
its exit code.
Last it prints the workload's p90 job time, computed as `bench/run.py`
computes `job_s_p90` (`statistics.quantiles(n=10)[-1]` over every per-job
sample), and the job whose sample lies nearest to it, so a `job_s_p90` claim
can say which job it reads.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median, quantiles

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]

import workloads  # noqa: E402
from worker import runtime_fingerprint  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="small-audits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print("runtime: " + ", ".join(f"{k} {v}" for k, v in runtime_fingerprint().items()))
    jobs = workloads.build_jobs(args.workload, args.seed)
    times = [[] for _ in jobs]
    codes = [0] * len(jobs)
    totals = []
    for _ in range(args.repeat):
        results = workloads.run_pass(jobs)
        totals.append(sum(secs for _, secs, _, _ in results))
        for i, (_, secs, code, _) in enumerate(results):
            times[i].append(secs)
            codes[i] = code or codes[i]
    width = max(len(job.name) for job in jobs)
    print(f"{'job':<{width}}  {'min':>10}  {'median':>10}")
    for job, secs, code in zip(jobs, times, codes):
        print(f"{job.name:<{width}}  {min(secs):8.4f} s  {median(secs):8.4f} s"
              + (f"  exit {code}" if code else ""))
    print(f"{'pass':<{width}}  {min(totals):8.4f} s  {median(totals):8.4f} s")
    samples = [(secs, job.name) for job, job_times in zip(jobs, times) for secs in job_times]
    p90 = quantiles([secs for secs, _ in samples], n=10)[-1]
    holder = min(samples, key=lambda sample: abs(sample[0] - p90))[1]
    print(f"{'p90 job':<{width}}  {p90:8.4f} s  held by {holder}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
