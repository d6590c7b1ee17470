"""Output check: compare each job's report with references captured at a fixed commit.

Strings, ints and bools must match exactly and floats to 1e-9. Every `pass`
flag must be true. A Monte-Carlo estimate is judged by its agreement with the
exact probability in the same report, not by its value, so a sampler change
that keeps agreement is not a failure. Agreement is an exact two-sided
binomial test at level MC_ALPHA (`binomial_agrees`). The program's own
`within_3_sigma` flag is a normal-approximation z-test at 3 sigma: it rejects
a single miss when the exact probability is within a few 1e-6 of 1. Where
that flag says false and the exact test accepts, the job is correct and a
note says so.
For a seed without references only the flags and the Monte-Carlo agreement
are checked.

Capture references (run from the repository root):

    python3 bench/check.py --seed 0 --seed 1
"""
from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import sys
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "refs"
FLOAT_TOL = 1e-9
MC_VALUES = {"estimate", "stderr"}  # judged by binomial_agrees instead
# Two-sided false-alarm rate per check, about 4.9 sigma. A campaign of ~70
# runs makes ~140 distinct checks (two per run): at 3 sigma (0.0027 each) a
# correct sampler would fail about one campaign in three, at 1e-6 one in 7000.
# An estimate 0.02 off at p = 0.5 and 20000 shots (5.7 sigma) is still rejected.
MC_ALPHA = 1e-6


def binomial_agrees(estimate: float, exact: float, shots: int, alpha: float = MC_ALPHA) -> bool:
    """Exact two-sided binomial test of `estimate` (= hits / shots) against `exact`.

    The p-value is twice the tail on the estimate's side of the mean; the
    estimate agrees when that is at least `alpha`.
    """
    k = round(estimate * shots)
    if abs(k - estimate * shots) > 1e-6:
        return False  # not a fraction of shots
    p = min(max(exact, 0.0), 1.0)
    if p in (0.0, 1.0):
        return k == p * shots
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(shots + 1)
    step = 1 if k >= shots * p else -1
    tail, j = 0.0, k
    while 0 <= j <= shots and 2 * tail < alpha:
        term = math.exp(log_n - math.lgamma(j + 1) - math.lgamma(shots - j + 1)
                        + j * log_p + (shots - j) * log_q)
        tail += term
        if term <= tail * 1e-17:
            break
        j += step
    return 2 * tail >= alpha


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_report(text: str):
    """A report as data: JSON as is, CSV as {"csv": rows} with typed cells."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {"csv": [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]}


def _diff(ref, got, path: str, out: list[str]) -> None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{path}: keys {sorted(ref)} != {sorted(got)}")
            return
        in_mc = path.endswith(".monte_carlo")
        for key in ref:
            if not (in_mc and key in MC_VALUES):
                _diff(ref[key], got[key], f"{path}.{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(ref)} != {len(got)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{path}[{i}]", out)
    elif isinstance(ref, float) and isinstance(got, float):
        if not math.isclose(ref, got, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            out.append(f"{path}: {got!r} != {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")


def _flags(data, path: str, out: list[str]) -> None:
    if isinstance(data, dict):
        for key, value in data.items():
            if key in ("pass", "within_3_sigma", "agrees") and value is not True:
                out.append(f"{path}.{key} is {value!r}")
            _flags(value, f"{path}.{key}", out)
    elif isinstance(data, list):
        if data and isinstance(data[0], list) and "pass" in data[0]:  # CSV header row
            col = data[0].index("pass")
            out.extend(f"{path}[{i}].pass is {row[col]!r}"
                       for i, row in enumerate(data[1:], 1) if row[col] is not True)
        for i, item in enumerate(data):
            _flags(item, f"{path}[{i}]", out)


def ref_path(workload: str, seed: int) -> Path:
    return REF_DIR / f"{workload}.seed{seed}.json"


def load_refs(workload: str, seed: int) -> dict | None:
    path = ref_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _exact_for(block: dict, holder: dict, report: dict) -> float | None:
    """The exact probability a Monte-Carlo block estimates, from its report."""
    if "exact" in holder:  # lemma or-bound: the row holds it
        return holder["exact"]
    if "x" in block:  # demerlin run: the row of the sampled (x, y) pair
        for row in report.get("results", []):
            if isinstance(row, dict) and (row.get("x"), row.get("y")) == (block["x"], block["y"]):
                return row["p_accept"]
    return None  # a benchmark-made report: its flag is binomial_agrees already


def _judge_monte_carlo(name: str, report, problems: list[str], notes: list[str]):
    """The report with each `within_3_sigma` set to the exact test's verdict.

    The `pass` flags that the program derives from that flag (`demerlin
    run`: summary and report) are derived again from the new verdict.
    """
    if not isinstance(report, dict):
        return report
    judged = copy.deepcopy(report)
    holders = [judged.get("summary")] + list(judged.get("results", []))
    for holder in holders:
        if not (isinstance(holder, dict) and isinstance(holder.get("monte_carlo"), dict)):
            continue
        block = holder["monte_carlo"]
        exact = _exact_for(block, holder, judged)
        if exact is None:
            continue
        shots = block.get("shots", judged.get("params", {}).get("shots"))
        agrees = binomial_agrees(block["estimate"], exact, shots)
        if not agrees:
            problems.append(f"{name}: Monte-Carlo estimate {block['estimate']!r} over {shots} "
                            f"shots disagrees with exact {exact!r} (exact binomial test)")
        elif block["within_3_sigma"] is not True:
            notes.append(f"{name}: program z-test says within_3_sigma=false for estimate "
                         f"{block['estimate']!r} over {shots} shots against exact {exact!r}; "
                         f"the exact binomial test accepts")
        block["within_3_sigma"] = agrees
        if holder is judged.get("summary"):  # as cli._run_demerlin_run derives them
            holder["pass"] = all(r["pass"] for r in judged["results"]) and agrees
            judged["pass"] = holder["pass"]
    return judged


def check_job(name: str, code: int, text: str, refs: dict | None,
              notes: list[str] | None = None) -> list[str]:
    """Problems with one job's outcome; empty when it is correct.

    A false alarm of the program's Monte-Carlo z-test, and the exit code 1
    it alone causes, are appended to `notes` instead.
    """
    notes = [] if notes is None else notes
    data = parse_report(text) if code in (0, 1) else None
    if data is None:
        return [f"{name}: exit code {code}: {text[-300:]}"]
    out: list[str] = []
    found: list[str] = []
    judged = _judge_monte_carlo(name, data, out, found)
    if code != 0:
        if not (found and isinstance(judged, dict) and judged.get("pass") is True):
            return [f"{name}: exit code {code}: {text[-300:]}"]
        found = [f"{note}; the program exited 1 for it alone" for note in found]
    notes.extend(found)
    _flags(judged, name, out)
    if refs is not None:
        if name not in refs:
            out.append(f"{name}: no reference for this job")
        else:
            _diff(refs[name], data, name, out)
    return out


def capture(workload: str, seed: int) -> None:
    from workloads import build_jobs, run_pass

    results = run_pass(build_jobs(workload, seed))
    refs = {}
    for name, _secs, code, text in results:
        problems = check_job(name, code, text, None)
        if problems:
            raise SystemExit(f"not capturing a failing job: {problems}")
        refs[name] = parse_report(text)
    REF_DIR.mkdir(exist_ok=True)
    ref_path(workload, seed).write_text(json.dumps(refs, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="Capture output references.")
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    from run import WORKLOADS

    for seed in args.seed:
        for workload in WORKLOADS:
            capture(workload, seed)
            print(f"captured {ref_path(workload, seed).relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
