"""A/B benchmark: a git revision against the working tree, in alternating pairs.

    python3 tools/ab.py --rev HEAD --workload small-audits --seed 11 --seconds 40 --pairs 10

Unpacks REV with `git archive` into a temporary directory, so no worktree
metadata is created, then runs

    bench/run.py --workload W --seed S --seconds N --trace 0

once from that tree and once from the working tree per pair, swapping which
side runs first from one pair to the next. It reads the JSON object on the
last line of each run. For every end-to-end metric it prints each side's
median and quartiles, how many pairs the change won (ties count for neither
side), and whether a gain may be claimed: the change wins at least 9 of every
10 pairs and the medians differ by more than the distance between the base's
quartiles. Metric directions come from the working tree's BENCHMARK.json.

With --layers it then runs `bench/run.py --trace 1` once per side, with the
same workload, seed and seconds, and prints every per-layer metric whose
value differs, the base's next to the change's, so a gain can be traced to
the layers whose counts and self times moved.
"""
from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

REPO = Path(__file__).resolve().parent.parent


def unpack(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=REPO,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: bench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> list[dict]:
    rows = []
    for name in runs["base"][0]["metrics"]:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        q_base = quantiles(base, n=4) if len(base) > 1 else [base[0]] * 3
        q_change = quantiles(change, n=4) if len(change) > 1 else [change[0]] * 3
        gap = sign * (median(change) - median(base))
        rows.append({"metric": name, "base": [q_base[0], median(base), q_base[2]],
                     "change": [q_change[0], median(change), q_change[2]],
                     "wins": wins, "pairs": len(base),
                     "gain": 10 * wins >= 9 * len(base) and gap > q_base[2] - q_base[0]})
    return rows


def _shown(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def layer_diffs(base: dict, change: dict) -> list[list]:
    """[metric, base value, change value] for each per-layer metric that differs."""
    rows = []
    for name in dict.fromkeys([*base["metrics"], *change["metrics"]]):
        b, c = (run["metrics"].get(name, {}).get("value") for run in (base, change))
        if b != c:
            rows.append([name, b, c])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--layers", action="store_true",
                        help="after the pairs, diff one traced run per side")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": Path(tmp), "change": REPO}
        unpack(args.rev, trees["base"])
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = bench_run(trees[side], args.workload, args.seed, args.seconds)
                if not result["correct"]:
                    print(f"pair {i + 1}: {side} run: {result['failed']} jobs failed")
                runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
                f"{side} pass_s={runs[side][-1]['metrics']['pass_s']['value']:.4g}"
                for side in ("base", "change")), flush=True)
        traced = {side: bench_run(trees[side], args.workload, args.seed, args.seconds, trace=1)
                  for side in trees} if args.layers else None
    rows = summarize(runs, better)
    print(f"\n{args.workload} seed {args.seed}, {args.seconds:g} s runs, base {args.rev} "
          f"vs working tree; medians [q1 .. q3]")
    for r in rows:
        (b1, bm, b3), (c1, cm, c3) = r["base"], r["change"]
        verdict = "holds" if r["gain"] else "fails"
        print(f"{r['metric']:12s} base {bm:10.4g} [{b1:.4g} .. {b3:.4g}]  "
              f"change {cm:10.4g} [{c1:.4g} .. {c3:.4g}]  "
              f"change wins {r['wins']}/{r['pairs']}  gain rule {verdict}")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "rev": args.rev, "metrics": rows}
    if traced is not None:
        result["layers"] = layer_diffs(traced["base"], traced["change"])
        print("\nper-layer metrics that differ, one traced run per side")
        for name, b, c in result["layers"]:
            print(f"{name:42s} base {_shown(b):>14}  change {_shown(c):>14}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
