"""Experiment runner: seeded sweeps over every module with bound audits.

Reports are byte-reproducible for a fixed seed on one machine: one root seed
sequence is split hierarchically per trial, floats are serialized with repr
round-trip formatting, and JSON keys are sorted. Across machines the last
digits of floats may differ. The process exits 0 when every
audited bound held, 1 when one failed, and 2 on invalid or unsupported input,
with a one-line message on stderr.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .advice import (
    j_fold_decision,
    ma_fix_advice,
    qcma_train,
    qma_fix_advice,
    true_advice_wrong_probability,
)
from .amplify import binom_tail, desk_plan, identity_plan, plan_amplification
from .demerlin import (
    YES_FLOOR,
    demerlinize,
    evaluate_demerlinized,
    final_vote_acceptance,
    plan_final_vote,
    resource_report,
    sample_demerlinized,
)
from .qcore import StateVector, TwoOutcomeMeasurement
from .qlemmas import (
    THREE_SIGMA_RATE,
    agrees_within_sigma,
    good_as_new_check,
    induced_effects,
    monte_carlo_any_outcome1,
    or_bound_run,
    projector_or_instance,
    random_or_audit,
    random_union_audit,
    random_union_instance,
)
from .rac import (
    audit_reduced,
    build_code,
    fingerprint_collisions,
    honest_round_audit,
    rounds_for_soundness,
    tight_reduction,
    wrapped_code_protocol,
)
from .toys import DEMERLIN_TOYS, demerlin_toy, hint_table_verifier, table_qcma_verifier


def _int_at_least(minimum: int):
    """argparse type for an integer count or seed of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


_POSITIVE = _int_at_least(1)
_NON_NEGATIVE = _int_at_least(0)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text, and exits 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _child_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        rows = report.get("results", [])
        columns = report.get("csv_columns") or (sorted(rows[0]) if rows else [])
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, params: dict, rows: list[dict], **extra) -> dict:
    """The report of every command. It passes iff every row passed and so did
    the summary, if `extra` has one; `extra`'s keys are top-level fields."""
    passed = all(r["pass"] for r in rows) and extra.get("summary", {}).get("pass", True)
    return {"version": __version__, "command": f"{args.group} {args.sub}", "seed": args.seed,
            "params": params, "results": rows, "pass": passed, **extra}


# ---------------------------------------------------------------------------
# lemma subcommands


def _run_good_as_new(args) -> dict:
    plus_state = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    proj1 = TwoOutcomeMeasurement(np.array([[0, 0], [0, 1]], dtype=complex))
    eq = good_as_new_check(plus_state, proj1)
    rows = [{"case": "projector-equality", **eq.to_json_dict()}]
    rng_seeds = _child_seeds(args.seed, args.instances)
    for i, ss in enumerate(rng_seeds):
        rng = np.random.default_rng(ss)
        rho, seq = random_union_instance(rng, max_qubits=2, max_steps=1)
        r = good_as_new_check(rho, seq[0])
        rows.append({"case": f"random-{i}", **r.to_json_dict()})
    return _report(args, {"instances": args.instances}, rows,
                   csv_columns=["case", "lemma", "bound", "pass"])


def _run_union(args) -> dict:
    rows = [r.to_json_dict() for r in random_union_audit(_child_seeds(args.seed, args.instances))]
    return _report(args, {"instances": args.instances}, rows,
                   csv_columns=["lemma", "exact", "bound", "drift", "pass"])


def _run_or_bound(args) -> dict:
    seeds = _child_seeds(args.seed, args.instances + 1)
    rho, sigma, joint, t = projector_or_instance(args.witness_qubits)
    pinned = or_bound_run(rho, sigma, joint, t)
    row = pinned.to_json_dict()
    row["case"] = "eta-two-thirds"
    row["meets_one_ninth"] = pinned.p_any_one >= YES_FLOOR - 1e-9
    if args.shots:
        # a cross-check only: a 3-sigma miss is a 0.0027 false alarm, not a failed bound
        effects = induced_effects(joint, rho.dim, sigma.dim)
        rng = np.random.default_rng(seeds[0])
        est, err = monte_carlo_any_outcome1(rho, [m.m0 for m in effects], t,
                                            args.shots, rng)
        row["monte_carlo"] = {"estimate": est, "stderr": err,
                              "within_3_sigma": agrees_within_sigma(est, pinned.p_any_one,
                                                                    args.shots)}
    rows = [row] + [{**r.to_json_dict(), "case": f"random-{i}"}
                    for i, r in enumerate(random_or_audit(seeds[1:], args.witness_qubits))]
    params = {"witness_qubits": args.witness_qubits, "instances": args.instances,
              "shots": args.shots}
    return _report(args, params, rows, csv_columns=["case", "lemma", "exact", "bound", "pass"])


# ---------------------------------------------------------------------------
# amplify / demerlin subcommands


def _run_amplify_plan(args) -> dict:
    plan = (desk_plan if args.desk else plan_amplification)(args.alice, args.witness)
    row = plan.to_json_dict()
    row["pass"] = plan.soundness_cert_log10 <= plan.soundness_target_log10 + 1e-12
    params = {"alice_qubits": args.alice, "witness_qubits": args.witness, "desk": args.desk}
    return _report(args, params, [row])


def _demerlinized_from_toy(name: str):
    p, f = demerlin_toy(name)
    plan = identity_plan(p.alice_qubits, p.witness_qubits)
    return demerlinize(p, plan, f=f), f


def _run_demerlin_build(args) -> dict:
    d, _ = _demerlinized_from_toy(args.toy)
    row = resource_report(d).to_json_dict()
    row["W"] = d.witness_qubits
    row["T"] = d.t_rounds
    row["pass"] = True
    return _report(args, {"toy": args.toy}, [row])


def _run_demerlin_run(args) -> dict:
    d, f = _demerlinized_from_toy(args.toy)
    yes_vals, no_vals, rows = [], [], []
    for (x, y), v in f.pairs():
        r = evaluate_demerlinized(d, x, y)
        rows.append(r.to_json_dict())
        (yes_vals if v == 1 else no_vals).append(r.p_accept)
    res = resource_report(d)
    summary = {
        "W": d.witness_qubits,
        "T": d.t_rounds,
        "p_accept_yes_min": min(yes_vals) if yes_vals else None,
        "p_accept_no_max": max(no_vals) if no_vals else None,
        "gates": res.gates,
        "qubits": res.qubits,
        "bounds": {"yes_floor": YES_FLOOR, "no_ceiling": d.soundness_ceiling},
        "pass": all(r["pass"] for r in rows),
    }
    if args.shots:
        x, y = next((pair for pair, v in f.pairs() if v == 1))
        est, err = sample_demerlinized(d, x, y, args.shots, _child_seeds(args.seed, 1)[0])
        exact = next(r["p_accept"] for r in rows if r["x"] == x and r["y"] == y)
        summary["monte_carlo"] = {"x": x, "y": y, "estimate": est, "stderr": err,
                                  "within_3_sigma": agrees_within_sigma(est, exact, args.shots)}
        summary["pass"] = summary["pass"] and summary["monte_carlo"]["within_3_sigma"]
    if args.final_vote:
        # plan from the exact measured spread: at least as tight as the
        # loop's formal (1/9, T * sqrt(5^-W)) guarantee whenever that holds
        no_ceiling = summary["p_accept_no_max"] if no_vals else 0.0
        vote = plan_final_vote(yes_floor=summary["p_accept_yes_min"],
                               no_ceiling=no_ceiling)
        summary["final_vote"] = vote.to_json_dict()
        summary["final_vote"]["voted_yes_min"] = final_vote_acceptance(
            summary["p_accept_yes_min"], vote)
        if no_vals:
            summary["final_vote"]["voted_no_max"] = final_vote_acceptance(
                summary["p_accept_no_max"], vote)
    return _report(args, {"toy": args.toy, "shots": args.shots}, rows, summary=summary,
                   csv_columns=["x", "y", "f", "p_accept", "pass"])


# ---------------------------------------------------------------------------
# rac subcommands


RAC_MAX_INPUT_BITS = 16  # the rac audits enumerate all 2^n inputs


def _check_input_bits(n: int) -> None:
    if n > RAC_MAX_INPUT_BITS:
        raise ValueError(f"the audit enumerates all 2^n inputs; n = {n} is above the cap "
                         f"of {RAC_MAX_INPUT_BITS} bits")


def _run_rac_audit(args) -> dict:
    if args.n % args.w:
        raise ValueError("--n must be a multiple of --w")
    _check_input_bits(args.n)
    a = args.n // args.w
    code = build_code(args.w, seed=args.seed)
    rounds = rounds_for_soundness(code)
    rng = np.random.default_rng(_child_seeds(args.seed, 1)[0])
    completeness_failures, min_flipping = honest_round_audit(code, args.n, rng)
    min_detection = float(min(min_flipping))
    soundness = float((Fraction(1) - code.distance_ratio) ** rounds)
    row = {
        "n": args.n, "w": args.w, "a": a, "seed": args.seed,
        "block_length": code.block_length,
        "min_distance": code.verified_min_distance,
        "completeness": 1.0 if completeness_failures == 0 else 0.0,
        "min_detection": min_detection,
        "rounds": rounds,
        "soundness_after_rounds": soundness,
        "pass": (completeness_failures == 0
                 and min_detection >= float(code.distance_ratio) - 1e-12
                 and soundness <= 1.0 / 3.0 + 1e-12),
    }
    return _report(args, {"n": args.n, "w": args.w, "a": a}, [row], csv_columns=list(row))


def _run_rac_reduce(args) -> dict:
    n = args.n if args.n is not None else 2 * args.w
    _check_input_bits(n)
    code = build_code(args.w, seed=args.seed)
    base = wrapped_code_protocol(code, n)
    reduced = tight_reduction(base)
    inputs = [format(v, f"0{n}b") for v in range(2 ** n)]
    records = audit_reduced(reduced, lambda x, i: int(x[i]), inputs)
    worst = max(r.error_bound for r in records)
    row = {"n": n, "w": args.w, "copies": reduced.copies,
           "per_claim_error": reduced.per_claim_error,
           "worst_error_bound": worst, "pass": worst <= 1.0 / 3.0 + 1e-12}
    return _report(args, {"n": n, "w": args.w}, [row])


def _run_rac_fingerprint(args) -> dict:
    collisions = fingerprint_collisions(_child_seeds(args.seed, 1)[0], args.bits, args.m_bits,
                                        args.trials)
    bound = 2.0 ** (1 - args.m_bits)
    # one-sided exact test: this many collisions is not unlikely at rate `bound`
    row = {"collision_rate": collisions / args.trials, "bound": bound,
           "pass": binom_tail(args.trials, bound, collisions) >= THREE_SIGMA_RATE / 2}
    params = {"bits": args.bits, "m_bits": args.m_bits, "trials": args.trials}
    return _report(args, params, [row])


# ---------------------------------------------------------------------------
# advice subcommands


def _run_advice_ma_fix(args) -> dict:
    row = ma_fix_advice(hint_table_verifier(args.n), seed=args.seed).to_json_dict()
    row["pass"] = True
    return _report(args, {"n": args.n}, [row])


def _run_advice_qma_fix(args) -> dict:
    if args.witness_bits != 1:
        raise ValueError("the shipped quantum-witness toy uses a 1-qubit witness")
    row = qma_fix_advice(hint_table_verifier(args.n), seed=args.seed).to_json_dict()
    row["pass"] = True
    return _report(args, {"n": args.n, "witness_bits": args.witness_bits}, [row])


def _run_advice_qcma_train(args) -> dict:
    if args.adv_qubits is not None and args.adv_qubits != 2 ** args.n:
        raise ValueError(f"the table toy at n={args.n} uses {2 ** args.n} advice qubits")
    v = table_qcma_verifier(args.n)
    training, decider = qcma_train(v)
    a_total = decider.amplified.alice_qubits
    t = training.size
    p_t = training.survivals[-1]
    floor = 2.0 ** (-a_total) * (1.0 - t / a_total ** 2) if a_total else 0.0
    correct = all(decider.decide(x).verdict == v.language[x] for x in v.inputs())
    wrong = true_advice_wrong_probability(v, training, decider)
    jfold = {x: j_fold_decision(decider, x).verdict == v.language[x] for x in v.inputs()}
    row = {
        "training": training.to_json_dict(),
        "advice_qubits_total": a_total,
        "survival_floor": floor,
        "survival_ceiling": (2.0 / 3.0) ** t,
        "true_advice_wrong_prob": wrong,
        "decisions_correct": correct,
        "j_fold_correct": all(jfold.values()),
        "pass": (correct and p_t >= floor - 1e-9 and p_t <= (2.0 / 3.0) ** t + 1e-9),
    }
    return _report(args, {"n": args.n, "adv_qubits": args.adv_qubits}, [row])


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--shots", type=_NON_NEGATIVE, default=0)

    parser = _Parser(prog="demerlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="group", required=True)

    lemma = sub.add_parser("lemma").add_subparsers(dest="sub", required=True)
    g = lemma.add_parser("good-as-new", parents=[common])
    g.add_argument("--instances", type=_POSITIVE, default=25)
    g.set_defaults(handler="_run_good_as_new")
    u = lemma.add_parser("union", parents=[common])
    u.add_argument("--instances", type=_POSITIVE, default=100)
    u.set_defaults(handler="_run_union")
    o = lemma.add_parser("or-bound", parents=[common])
    o.add_argument("--witness-qubits", type=_POSITIVE, default=1)
    o.add_argument("--instances", type=_POSITIVE, default=25)
    o.set_defaults(handler="_run_or_bound")

    amp = sub.add_parser("amplify").add_subparsers(dest="sub", required=True)
    ap = amp.add_parser("plan", parents=[common])
    ap.add_argument("--alice", type=_NON_NEGATIVE, required=True)
    ap.add_argument("--witness", type=_NON_NEGATIVE, required=True)
    ap.add_argument("--desk", action="store_true")
    ap.set_defaults(handler="_run_amplify_plan")

    dem = sub.add_parser("demerlin").add_subparsers(dest="sub", required=True)
    db = dem.add_parser("build", parents=[common])
    db.add_argument("--toy", choices=DEMERLIN_TOYS, required=True)
    db.set_defaults(handler="_run_demerlin_build")
    dr = dem.add_parser("run", parents=[common])
    dr.add_argument("--toy", choices=DEMERLIN_TOYS, required=True)
    dr.add_argument("--final-vote", action="store_true",
                    help="append a threshold-vote post-pass restoring 2/3 vs 1/3")
    dr.set_defaults(handler="_run_demerlin_run")

    rac = sub.add_parser("rac").add_subparsers(dest="sub", required=True)
    ra = rac.add_parser("audit", parents=[common])
    ra.add_argument("--n", type=_POSITIVE, default=8)
    ra.add_argument("--w", type=_POSITIVE, default=4)
    ra.set_defaults(handler="_run_rac_audit")
    rr = rac.add_parser("reduce", parents=[common])
    rr.add_argument("--w", type=_POSITIVE, default=1)
    rr.add_argument("--n", type=_POSITIVE, default=None)
    rr.set_defaults(handler="_run_rac_reduce")
    rf = rac.add_parser("fingerprint", parents=[common])
    rf.add_argument("--bits", type=_POSITIVE, default=8)
    rf.add_argument("--m-bits", type=_POSITIVE, default=6)
    rf.add_argument("--trials", type=_POSITIVE, default=10_000)
    rf.set_defaults(handler="_run_rac_fingerprint")

    adv = sub.add_parser("advice").add_subparsers(dest="sub", required=True)
    am = adv.add_parser("ma-fix", parents=[common])
    am.add_argument("--n", type=_POSITIVE, default=2)
    am.set_defaults(handler="_run_advice_ma_fix")
    aq = adv.add_parser("qma-fix", parents=[common])
    aq.add_argument("--n", type=_POSITIVE, default=2)
    aq.add_argument("--witness-bits", type=_POSITIVE, default=1)
    aq.set_defaults(handler="_run_advice_qma_fix")
    at = adv.add_parser("qcma-train", parents=[common])
    at.add_argument("--n", type=_POSITIVE, default=1)
    at.add_argument("--adv-qubits", type=_POSITIVE, default=None)
    at.set_defaults(handler="_run_advice_qcma_train")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process. This pays off where main() runs many
    times in one process (the test suite, a Python session); handlers are kept
    by name, so the kept parser dispatches to the module's current function."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the exit code (a usage error exits 2 itself)."""
    try:
        args = _parser().parse_args(argv)
        report = globals()[args.handler](args)
        _emit(report, args)
    except (ValueError, OSError) as exc:  # bad input, or an --out path we cannot write
        print(f"demerlab: error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
