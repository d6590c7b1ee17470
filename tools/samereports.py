"""Same-reports check: a git revision's benchmark job reports and golden
command outputs against the working tree's.

    python3 tools/samereports.py --rev HEAD

Unpacks REV with `git archive` into a temporary directory, then, in one
subprocess per tree, importing that tree's `src/demerlab`:

* runs every workload named in BENCHMARK.json once per seed (0, 1 and 7)
  through that tree's `bench/workloads.py` `run_pass`;
* runs every command in the working tree's `tests/test_golden.py`
  `COMMANDS` with `--out` into a temporary file, so the goldens are
  recaptured in both trees on the machine that runs the check and compared
  byte for byte, a golden added since REV included.

It prints each job or golden whose exit code or text differs, with the
largest absolute difference between the numbers in the two texts and whether
the text outside the numbers (keys, strings, booleans) differs too, and exits
1 if any differs, else 0. Both trees are only read.
"""
from __future__ import annotations

import argparse
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import REPO, unpack

SEEDS = (0, 1, 7)
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def emit(tree: Path) -> None:
    """Child side: print one JSON list of [kind, key, exit code, text]; a job's
    kind is its workload and its key "seed S: job", a golden's kind is "golden"."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench"), str(REPO / "tests")]
    import workloads
    from demerlab.cli import main
    from test_golden import COMMANDS

    spec = json.loads((tree / "BENCHMARK.json").read_text())
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for name, _secs, code, text in workloads.run_pass(workloads.build_jobs(workload, seed)):
                rows.append([workload, f"seed {seed}: {name}", code, text])
    with tempfile.TemporaryDirectory(prefix="samereports-golden-") as tmp:
        for name, command in sorted(COMMANDS.items()):
            out = Path(tmp) / name
            code = main(shlex.split(command) + ["--out", str(out)])
            rows.append(["golden", name, code, out.read_text() if out.exists() else ""])
    json.dump(rows, sys.stdout)


def reports(tree: Path) -> dict[tuple, tuple[int, str]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: report run exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return {(kind, key): (code, text) for kind, key, code, text in json.loads(proc.stdout)}


def largest_difference(a: str, b: str) -> str:
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return f"number count {len(xs)} vs {len(ys)}"
    rest = "same" if NUMBER.sub("#", a) == NUMBER.sub("#", b) else "differs"
    largest = max((abs(float(x) - float(y)) for x, y in zip(xs, ys)), default=0.0)
    return f"{largest:.3g}, text outside numbers {rest}"


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
    differ = {"jobs": 0, "goldens": 0}
    total = {"jobs": 0, "goldens": 0}
    for key in sorted(base.keys() | change.keys(), key=str):
        group = "goldens" if key[0] == "golden" else "jobs"
        total[group] += 1
        if base.get(key) == change.get(key):
            continue
        differ[group] += 1
        where = f"{key[0]} {key[1]}"
        if key not in base or key not in change:
            print(f"{where}: only in {'change' if key in change else 'base'}")
            continue
        (code_a, text_a), (code_b, text_b) = base[key], change[key]
        print(f"{where}: exit {code_a} -> {code_b}, "
              f"largest number difference {largest_difference(text_a, text_b)}")
    print(f"{differ['jobs']} of {total['jobs']} job reports and {differ['goldens']} of "
          f"{total['goldens']} golden outputs differ between {args.rev} and the working tree")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
