"""Stage times of the paper's pipeline on the amplified coins, in fresh processes.

    python3 tools/pipetimes.py --repeat 5
    python3 tools/pipetimes.py --rev HEAD --repeat 5

Times the coins at base errors 1/4, 3/10 and 1/3, which `desk_plan` amplifies
with u = 3, 5 and 7 outer copies (9, 12 and 14 qubits), at witness angles 0.0
and 0.7. Each coin runs `--repeat` times, each time in a fresh Python process
that imports `src/demerlab` from this checkout, or from REV unpacked with
`git archive` into a temporary directory. A process times two stages:

* build: `desk_plan`, `build_outer(build_inner(...))`, `audit_protocol` and
  `demerlinize`;
* evaluate: `evaluate_demerlinized` on every pair of the coin's function.

It prints `bench/worker.py`'s `runtime_fingerprint()` first, then each coin's
qubits and the minimum and median of each stage. The u = 7 coin at angle
0.7 is listed as an error and not run: its reachable basis runs away on
rounding noise and the evaluation exits at `MAX_REACHABLE_DIM` after seconds
(ROADMAP item 10). The checkout and REV are only read.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

from ab import REPO, unpack

# (base error, yes probability, no probability) of each coin, as the tests build them
COINS = {3: ("1/4", 0.75, 0.25), 5: ("3/10", 0.7, 0.3), 7: ("1/3", 2 / 3, 1 / 3)}
ANGLES = (0.0, 0.7)
RUNAWAY = {(7, 0.7)}  # (u, angle) pairs whose loop does not settle


def child(tree: Path, u: int, angle: float) -> None:
    """Time one coin's two stages in this process and print them as JSON."""
    import time
    from fractions import Fraction

    sys.path[:0] = [str(tree / "src")]
    from demerlab.amplify import build_inner, build_outer, desk_plan
    from demerlab.demerlin import demerlinize, evaluate_demerlinized
    from demerlab.protocol import audit_protocol
    from demerlab.toys import coin_protocol

    error, yes, no = COINS[u]
    base, f = coin_protocol(yes, no, witness_angle=angle)
    start = time.perf_counter()
    plan = desk_plan(base.alice_qubits, base.witness_qubits, Fraction(error))
    amplified = build_outer(build_inner(base, plan.ell), plan.u)
    audit_protocol(amplified, f)
    d = demerlinize(amplified, plan, f=f)
    built = time.perf_counter()
    for (x, y), _ in f.pairs():
        evaluate_demerlinized(d, x, y)
    done = time.perf_counter()
    json.dump({"u": plan.u, "qubits": amplified.verifier.n_qubits,
               "build": built - start, "evaluate": done - built}, sys.stdout)


def run_coin(tree: Path, u: int, angle: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree), str(u), str(angle)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"coin u={u} angle={angle} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def report(tree: Path, repeat: int) -> None:
    print(f"{'coin':<20}  {'qubits':>6}  {'build min':>10}  {'median':>8}  "
          f"{'evaluate min':>12}  {'median':>8}")
    for u in COINS:
        for angle in ANGLES:
            name = f"u={u} angle={angle}"
            if (u, angle) in RUNAWAY:
                print(f"{name:<20}  error: reachable basis runs away (ROADMAP item 10)")
                continue
            runs = [run_coin(tree, u, angle) for _ in range(repeat)]
            if runs[0]["u"] != u:
                raise SystemExit(f"{name}: desk_plan gave u={runs[0]['u']}")
            build = [r["build"] for r in runs]
            evaluate = [r["evaluate"] for r in runs]
            print(f"{name:<20}  {runs[0]['qubits']:>6}  {min(build) * 1e3:8.1f} ms  "
                  f"{median(build) * 1e3:5.1f} ms  {min(evaluate) * 1e3:10.1f} ms  "
                  f"{median(evaluate) * 1e3:5.1f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="git revision to time instead of the checkout")
    parser.add_argument("--repeat", type=int, default=5, help="fresh processes per coin")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        tree, u, angle = args.child
        child(Path(tree), int(u), float(angle))
        return 0
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path[:0] = [str(REPO / "bench")]
    from worker import runtime_fingerprint

    print("runtime: " + ", ".join(f"{k} {v}" for k, v in runtime_fingerprint().items()))
    if args.rev is None:
        print("tree: working tree")
        report(REPO, args.repeat)
        return 0
    with tempfile.TemporaryDirectory(prefix="pipetimes-") as tmp:
        unpack(args.rev, Path(tmp))
        print(f"tree: {args.rev}")
        report(Path(tmp), args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
