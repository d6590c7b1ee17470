"""The benchmark's workloads: fixed job lists run through demerlab's public API.

A job is one CLI `main(argv)` call or one group of `demerlab` function calls.
It returns its report text, exactly as a user would see it, and an exit code
that is 0 iff every audited bound in the report held. One pass runs a
workload's whole job list in order, one job at a time (a closed loop).
The workload seed reaches every job, as `--seed` or as a `SeedSequence`.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

from demerlab import cli, toys
from demerlab.amplify import build_inner, build_outer, desk_plan
from demerlab.demerlin import demerlinize, evaluate_demerlinized, sample_demerlinized
from demerlab.protocol import audit_protocol

from check import binomial_agrees

# Every lemma, amplify, rac and advice command of the README, plus a wider
# OR-bound instance and a 2-bit advice table. Explicit README seeds give way
# to the workload seed.
SMALL_AUDITS = (
    "lemma good-as-new",
    "lemma union --instances 1000",
    "lemma or-bound --witness-qubits 1 --shots 100000",
    "lemma or-bound --witness-qubits 2 --shots 20000",
    "amplify plan --alice 1 --witness 2",
    "amplify plan --alice 1 --witness 1 --desk",
    "rac audit --n 8 --w 4 --format csv",
    "rac reduce --w 4 --n 8",
    "rac fingerprint --bits 8 --m-bits 6 --trials 10000",
    "advice ma-fix --n 2",
    "advice qma-fix --n 3",
    "advice qcma-train --n 1",
    "advice qcma-train --n 2",
)

DEMERLIN_TOYS = (
    "demerlin build --toy rac4",
    "demerlin run --toy rac4",
    "demerlin run --toy rac2 --shots 20000",
    "demerlin run --toy coin --final-vote --shots 20000",
)

# The paper's pipeline on a coin with base error 1/4: desk_plan gives u = 3,
# a 9-qubit verifier whose loop runs on a 256-dim rest space.
COIN_BASE_ERROR = Fraction(1, 4)
COIN_ANGLES = (0.0, 0.7)
COIN_SHOTS = 2000


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[dict], tuple[int, str]]  # pass state -> (exit code, report text)


def _cli_job(command: str, seed: int) -> Job:
    argv = command.split() + ["--seed", str(seed)]

    def run(_state: dict) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Job(command, run)


def _emit(report: dict) -> tuple[int, str]:
    return (0 if report["pass"] else 1), json.dumps(report, sort_keys=True, indent=2) + "\n"


def _coin_jobs(angle: float, seed_seq: np.random.SeedSequence) -> list[Job]:
    base, f = toys.coin_protocol(0.75, 0.25, witness_angle=angle)
    tag = f"coin angle={angle}"
    yes_pair = next(pair for pair, v in f.pairs() if v == 1)

    def build(state: dict) -> tuple[int, str]:
        plan = desk_plan(base.alice_qubits, base.witness_qubits, COIN_BASE_ERROR)
        amplified = build_outer(build_inner(base, plan.ell), plan.u)
        audit = audit_protocol(amplified, f)
        state[tag] = demerlinize(amplified, plan, f=f)
        return _emit({"plan": plan.to_json_dict(), "audit": audit.to_json_dict(),
                      "qubits": amplified.verifier.n_qubits, "pass": audit.passed})

    def evaluate(x: str, y: str):
        def run(state: dict) -> tuple[int, str]:
            report = evaluate_demerlinized(state[tag], x, y).to_json_dict()
            state[tag, x, y] = report["p_accept"]
            return _emit(report)
        return run

    def sample(state: dict) -> tuple[int, str]:
        x, y = yes_pair
        est, err = sample_demerlinized(state[tag], x, y, COIN_SHOTS, seed_seq)
        ok = binomial_agrees(est, state[tag, x, y], COIN_SHOTS)
        return _emit({"x": x, "y": y, "shots": COIN_SHOTS, "pass": ok,
                      "monte_carlo": {"estimate": est, "stderr": err, "agrees": ok}})

    jobs = [Job(f"{tag}: amplify, audit, demerlinize", build)]
    jobs += [Job(f"{tag}: evaluate x={x} y={y}", evaluate(x, y)) for (x, y), _ in f.pairs()]
    jobs.append(Job(f"{tag}: sample x={yes_pair[0]} y={yes_pair[1]}", sample))
    return jobs


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one seed; the same seed gives the same jobs."""
    if workload == "small-audits":
        return [_cli_job(c, seed) for c in SMALL_AUDITS]
    if workload == "demerlin-toys":
        return [_cli_job(c, seed) for c in DEMERLIN_TOYS]
    if workload == "amplified-coin":
        seqs = np.random.SeedSequence(seed).spawn(len(COIN_ANGLES))
        return [job for angle, ss in zip(COIN_ANGLES, seqs) for job in _coin_jobs(angle, ss)]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(jobs: list[Job], on_job=None) -> list[tuple[str, float, int, str]]:
    """Run every job once, in order; returns (name, seconds, exit code, text) per job.

    An exception ends that job with exit code -1 and its repr as text; the
    pass goes on. `on_job(index)` is called before each job starts.
    """
    state: dict = {}
    out = []
    for i, job in enumerate(jobs):
        if on_job is not None:
            on_job(i)
        t0 = perf_counter()
        try:
            code, text = job.run(state)
        except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
            code, text = -1, repr(exc)
        out.append((job.name, perf_counter() - t0, code, text))
    return out
