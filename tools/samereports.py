"""Same-reports check: a git revision's benchmark job reports against the working tree's.

    python3 tools/samereports.py --rev HEAD

Unpacks REV with `git archive` into a temporary directory, then, in one
subprocess per tree, runs every workload named in BENCHMARK.json once per
seed (0, 1 and 7) through that tree's `bench/workloads.py`
`run_pass`, importing that tree's `src/demerlab`. It prints each job whose
exit code or report text differs, with the largest absolute difference
between the numbers in the two texts, and exits 1 if any job differs, else 0.
Both trees are only read.
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import REPO, unpack

SEEDS = (0, 1, 7)
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def emit(tree: Path) -> None:
    """Child side: print one JSON list of [workload, seed, job, exit code, text]."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads

    spec = json.loads((tree / "BENCHMARK.json").read_text())
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for name, _secs, code, text in workloads.run_pass(workloads.build_jobs(workload, seed)):
                rows.append([workload, seed, name, code, text])
    json.dump(rows, sys.stdout)


def reports(tree: Path) -> dict[tuple, tuple[int, str]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: report run exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return {(w, s, name): (code, text) for w, s, name, code, text in json.loads(proc.stdout)}


def largest_difference(a: str, b: str) -> str:
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return f"number count {len(xs)} vs {len(ys)}"
    return f"{max((abs(float(x) - float(y)) for x, y in zip(xs, ys)), default=0.0):.3g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        emit(args.emit)
        return 0
    with tempfile.TemporaryDirectory(prefix="samereports-") as tmp:
        unpack(args.rev, Path(tmp))
        base = reports(Path(tmp))
    change = reports(REPO)
    differ = 0
    for key in sorted(base.keys() | change.keys(), key=str):
        if base.get(key) == change.get(key):
            continue
        differ += 1
        workload, seed, name = key
        if key not in base or key not in change:
            print(f"{workload} seed {seed}: {name}: only in {'change' if key in change else 'base'}")
            continue
        (code_a, text_a), (code_b, text_b) = base[key], change[key]
        print(f"{workload} seed {seed}: {name}: exit {code_a} -> {code_b}, "
              f"largest number difference {largest_difference(text_a, text_b)}")
    print(f"{differ} of {len(base.keys() | change.keys())} job reports differ "
          f"between {args.rev} and the working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
