"""One benchmark worker: a fresh process that sets up, runs passes, and reports.

The worker times its own set-up (importing demerlab and building the
workload's jobs), runs one cold pass, then warm passes while the next one
is expected to end within its time budget (at least one), checking every
job's output. It prints one JSON object. With --trace-out it records spans
around demerlab's public functions, reports per-layer metrics of its warm
passes and writes the spans to that file.

    python3 bench/worker.py --workload demerlin-toys --seed 0 --seconds 5
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def runtime_fingerprint() -> dict:
    """Python, numpy, the BLAS library and its thread count; reads, sets nothing."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for set-up and all passes")
    parser.add_argument("--trace-out", help="trace, and write the spans here as JSON lines")
    args = parser.parse_args()

    t0 = perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import demerlab
    from workloads import build_jobs, run_pass
    jobs = build_jobs(args.workload, args.seed)
    setup_s = perf_counter() - t0
    if not Path(demerlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"demerlab imported from {demerlab.__file__}, not from {SRC}")

    from check import check_job, load_refs
    refs = load_refs(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    passes: list[float] = []
    job_s: list[list[float]] = []  # per warm pass, in job order
    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []  # program z-test false alarms, judged correct

    def one_pass() -> list[float]:
        nonlocal attempted, failed
        label = len(passes)
        on_job = (lambda i: setattr(tracer, "request", f"{label}:{i}")) if tracer else None
        results = run_pass(jobs, on_job)
        passes.append(sum(r[1] for r in results))
        for name, _secs, code, text in results:
            found = check_job(name, code, text, refs, notes)
            attempted += 1
            failed += bool(found)
            problems.extend(found)
        return [r[1] for r in results]

    one_pass()  # cold
    while not job_s or perf_counter() - t0 + passes[-1] <= args.seconds:
        job_s.append(one_pass())

    out = {
        "setup_s": setup_s,
        "cold_pass_s": passes[0],
        "pass_s": passes[1:],
        "jobs": [job.name for job in jobs],
        "job_s": job_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "notes": notes[:20],
        "mc_false_alarms": len(notes),
        "check": "references" if refs is not None else "flags only (no references for this seed)",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime": runtime_fingerprint(),
    }
    if tracer is not None:
        tracer.uninstall()
        from layers import per_pass_layers
        out["layers"], out["counts_repeat"] = per_pass_layers(
            tracer.spans, [str(i) for i in range(1, len(passes))])
        tracer.write_jsonl(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
