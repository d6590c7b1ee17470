"""demerlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload small-audits --seed 0 --seconds 40 --trace 0

Runs from the repository root. Fresh worker processes (bench/worker.py) run
one after another, never two at once, so the program sees one closed-loop
client with numpy's default BLAS threads. Each worker sets up, runs one cold
pass, then warm passes within its share of --seconds, so a run lasts about
--seconds however fast the machine is. A process can run fast or slow
throughout, so the passes are spread over several workers and every figure
is a median over them.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced workers and reports the per-layer metrics of the traced ones, plus
the tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("small-audits", "demerlin-toys", "amplified-coin")
WORKERS = 7  # fresh processes per run; each gives one set-up and one cold-pass sample
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"pass_s": "s", "job_s_p90": "s", "cold_pass_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


def run_worker(workload: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:.3f}"]
    if trace:
        cmd += ["--trace-out", str(OUT / f"spans-{workload}-{index}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, traced: list[bool]) -> list[dict]:
    """Run one worker per entry of `traced`, splitting the remaining time evenly."""
    deadline = perf_counter() + seconds
    results = []
    for i, trace in enumerate(traced):
        share = max(deadline - perf_counter(), 0.0) / (len(traced) - i)
        results.append(run_worker(workload, seed, share, trace, i))
    return results


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    passes = [p for w in workers for p in w["pass_s"]]
    jobs = [j for w in workers for one_pass in w["job_s"] for j in one_pass]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    values = {
        "pass_s": median(passes),
        "job_s_p90": quantiles(jobs, n=10)[-1],
        "cold_pass_s": median(w["cold_pass_s"] for w in workers),
        "setup_s": median(w["setup_s"] for w in workers),
        "peak_rss_mb": median(w["peak_rss_mb"] for w in workers),
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {"pass_s": len(passes), "job_s_p90": len(jobs), "cold_pass_s": len(workers),
               "setup_s": len(workers), "peak_rss_mb": len(workers), "ok_frac": attempted}
    return values, samples


def per_layer(workers: list[dict]) -> tuple[dict, dict, dict]:
    from layers import LAYER_METRICS

    plain = [w for w in workers if "layers" not in w]
    traced = [w for w in workers if "layers" in w]
    values = {}
    for name in LAYER_METRICS:
        got = [w["layers"][name] for w in traced]
        values[name] = median(got) if name.endswith("_s") else got[0]
    repeat = all(w["counts_repeat"] for w in traced) and all(
        w["layers"][n] == values[n] for w in traced for n in LAYER_METRICS if not n.endswith("_s"))
    plain_pass = median(p for w in plain for p in w["pass_s"])
    traced_pass = median(p for w in traced for p in w["pass_s"])
    values["trace.overhead_ratio"] = traced_pass / plain_pass
    units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
    samples = {"traced_passes": sum(len(w["pass_s"]) for w in traced),
               "untraced_passes": sum(len(w["pass_s"]) for w in plain),
               "counts_repeat": repeat}
    return values, units, samples


def fingerprint(workload: str, seed: int, seconds: float, worker: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **worker["runtime"], "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "check": worker["check"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "demerlab" / "__init__.py").is_file():
        print(f"no demerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(BENCH))

    if args.trace:
        workers = run_workers(args.workload, args.seed, args.seconds, [False, True, False, True])
        values, units, samples = per_layer(workers)
    else:
        workers = run_workers(args.workload, args.seed, args.seconds, [False] * WORKERS)
        values, samples = end_to_end(workers)
        units = END_TO_END_UNITS
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    notes = [n for w in workers for n in w["notes"]]
    samples["mc_false_alarms"] = sum(w["mc_false_alarms"] for w in workers)
    info = dict(fingerprint(args.workload, args.seed, args.seconds, workers[0]),
                workers=len(workers))
    record = {"fingerprint": info, "samples": samples, "problems": problems[:20],
              "notes": notes[:20],
              "metrics": values, "workers": workers}
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("fingerprint " + json.dumps(info, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    for problem in problems[:20]:
        print("FAILED " + problem)
    for note in dict.fromkeys(notes):
        print("NOTE " + note)
    for name, value in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:42s} {shown:>16} {units[name]}")
    print(f"{'failed_frac':42s} {failed / attempted:>16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
