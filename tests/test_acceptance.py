"""Acceptance suite: every criterion at its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""
import time
from fractions import Fraction

import numpy as np

from demerlab.advice import (
    _majority_operator,
    ma_fix_advice,
    qcma_train,
    qma_fix_advice,
)
from demerlab.amplify import build_inner, build_outer, desk_plan, identity_plan
from demerlab.demerlin import demerlinize, evaluate_demerlinized, sample_demerlinized
from demerlab.protocol import induced_witness_operator, optimal_witness
from demerlab.qcore import StateVector, TwoOutcomeMeasurement, top_eigenpair
from demerlab.qlemmas import (
    agrees_within_sigma,
    good_as_new_check,
    or_bound_run,
    projector_or_instance,
    random_or_instance,
    random_union_instance,
    union_bound_run,
)
from demerlab.rac import (
    audit_reduced,
    build_code,
    cheat_detection_profile,
    rac_round,
    rounds_for_soundness,
    tight_reduction,
    wrapped_code_protocol,
)
from demerlab.toys import coin_protocol, hint_table_verifier, rac_claim_protocol, table_qcma_verifier

from conftest import boosted_basis_accepts


def report(n, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {detail}")
    assert passed, detail


def test_criterion_1_union_bound_suite():
    """1000 seeded random instances, dim <= 16 and T <= 8, in under 30 s."""
    start = time.monotonic()
    failures = 0
    for ss in np.random.SeedSequence(7).spawn(1000):
        rng = np.random.default_rng(ss)
        rho, seq = random_union_instance(rng, max_qubits=4, max_steps=8)
        r = union_bound_run(rho, seq)
        if not (r.p_any_one <= r.bound + 1e-9):
            failures += 1
    elapsed = time.monotonic() - start
    report(1, failures == 0 and elapsed < 30.0,
           f"union bound held on 1000/1000 random instances in {elapsed:.1f}s "
           f"({failures} failures)")


def test_criterion_2_or_bound_suite():
    """Pinned eta = 2/3 instance for W in {1, 2} plus 200 random instances."""
    start = time.monotonic()
    ok = True
    details = []
    for w in (1, 2):
        rho, sigma, joint, t = projector_or_instance(w)
        assert t == 9 * 2 ** w
        r = or_bound_run(rho, sigma, joint, t)
        ok &= abs(r.params["eta"] - 2 / 3) < 1e-9
        ok &= r.p_any_one >= 1 / 9 - 1e-9
        details.append(f"W={w}: exact={r.p_any_one:.6f}")
    failures = 0
    for i, ss in enumerate(np.random.SeedSequence(11).spawn(200)):
        rng = np.random.default_rng(ss)
        rho, sigma, joint, t = random_or_instance(rng, 1 if i % 2 == 0 else 2)
        r = or_bound_run(rho, sigma, joint, t)
        if not (r.p_any_one >= r.bound - 1e-9):
            failures += 1
    elapsed = time.monotonic() - start
    report(2, ok and failures == 0 and elapsed < 60.0,
           f"{'; '.join(details)}; 200/200 random instances passed in {elapsed:.1f}s")


def test_criterion_3_good_as_new_equality():
    """Projector-on-|+> instance reaches damage = bound = 1/sqrt(2)."""
    plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
    m = TwoOutcomeMeasurement(np.diag([0.0, 1.0]).astype(complex))
    r = good_as_new_check(plus, m)
    target = 1 / np.sqrt(2)
    ok = (abs(r.damage - target) <= 1e-9 and abs(r.bound - target) <= 1e-9
          and abs(r.epsilon - 0.5) <= 1e-9)
    report(3, ok, f"equality case: damage={r.damage:.12f} bound={r.bound:.12f}")


def test_criterion_4_amplification_audit():
    """Doubly amplified 1-qubit-witness toy: soundness <= 5^-W, completeness
    error <= 1/3, both exact via the optimal witness, W per shipped plan."""
    start = time.monotonic()
    base, _ = coin_protocol()  # completeness 2/3, soundness 1/3
    plan = desk_plan(1, 1)
    amplified = build_outer(build_inner(base, plan.ell), plan.u)
    w_total = plan.witness_qubits_total
    lam_no, _ = optimal_witness(amplified, "0", "0")
    lam_yes, _ = optimal_witness(amplified, "0", "1")
    soundness_target = 5.0 ** (-w_total)
    elapsed = time.monotonic() - start
    ok = (lam_no <= soundness_target + 1e-9
          and 1.0 - lam_yes <= 1.0 / 3.0 + 1e-9
          and elapsed < 120.0)
    report(4, ok,
           f"plan (ell={plan.ell}, u={plan.u}), W={w_total}: soundness "
           f"{lam_no:.6f} <= {soundness_target}, completeness error "
           f"{1 - lam_yes:.6f} <= 1/3, in {elapsed:.1f}s")


def test_criterion_5_end_to_end_demerlinization():
    """RAC toy (N=4, w=1): separation gap on every pair, exact values, and
    Monte-Carlo agreement within 3 sigma."""
    start = time.monotonic()
    p, f = rac_claim_protocol(4)
    d = demerlinize(p, identity_plan(p.alice_qubits, 1), f=f)
    w = d.witness_qubits
    gap_floor = 1.0 / 9.0 - 9 * 2 ** w / np.sqrt(5.0 ** w)
    yes_vals, no_vals = [], []
    exact_by_pair = {}
    for (x, y), v in f.pairs():
        r = evaluate_demerlinized(d, x, y)
        exact_by_pair[(x, y)] = r.p_accept
        (yes_vals if v == 1 else no_vals).append(r.p_accept)
    gap = min(yes_vals) - max(no_vals)
    mc_ok = True
    shots = 20_000
    for (x, y) in (("1010", "00"), ("1010", "01"), ("0001", "11")):
        est, _ = sample_demerlinized(d, x, y, shots=shots, seed=9)
        mc_ok &= agrees_within_sigma(est, exact_by_pair[(x, y)], shots)
    elapsed = time.monotonic() - start
    ok = (gap >= gap_floor - 1e-9 and min(yes_vals) >= 1.0 / 9.0 - 1e-9
          and mc_ok and elapsed < 300.0)
    report(5, ok,
           f"gap {gap:.6f} >= {gap_floor:.3f}, yes-min {min(yes_vals):.6f} >= 1/9, "
           f"Monte-Carlo within 3 sigma, in {elapsed:.1f}s")


def test_criterion_6_classical_rac():
    """N=8, w=4, a=2: exact completeness 1, detection floor, repetition
    soundness, and the reduced Merlin-free protocol at error <= 1/3."""
    start = time.monotonic()
    code = build_code(4, seed=0)
    rng = np.random.default_rng(123)
    completeness_ok = True
    min_detection = Fraction(1)
    for xv in range(256):
        x = format(xv, "08b")
        for i in range(8):
            t = rac_round(x, i, code, rng=rng)
            completeness_ok &= t.accepted and t.output == int(x[i])
            min_detection = min(min_detection,
                                cheat_detection_profile(x, i, code).min_flipping)
    delta = code.distance_ratio
    r = rounds_for_soundness(code)
    formula = int(np.ceil(np.log(3) / -np.log(1 - float(delta))))
    soundness = (Fraction(1) - delta) ** r
    base = wrapped_code_protocol(code, 8)
    reduced = tight_reduction(base)
    records = audit_reduced(reduced, lambda x, i: int(x[i]),
                            [format(v, "08b") for v in range(256)])
    worst = max(rec.error_bound for rec in records)
    elapsed = time.monotonic() - start
    ok = (completeness_ok and min_detection >= delta and r == formula
          and soundness <= Fraction(1, 3) and worst <= 1.0 / 3.0)
    report(6, ok,
           f"completeness 1 on 2048 pairs, min detection {float(min_detection):.4f} "
           f">= {float(delta):.4f}, soundness {float(soundness):.4f} <= 1/3 at "
           f"r={r}, reduced worst error {worst:.5f} <= 1/3, in {elapsed:.1f}s")


def test_criterion_7_advice_fixing():
    """ma and qma advice fixing on shipped toys re-verify with zero errors."""
    start = time.monotonic()
    errors = 0
    for n in (2, 3):
        v = hint_table_verifier(n)
        fixed = ma_fix_advice(v, seed=7)
        for x in v.inputs():
            if bool(boosted_basis_accepts(v, fixed.advice_tuple, x)) != (v.language[x] == 1):
                errors += 1
    basis_checked = True
    for n in (2, 3):
        q = hint_table_verifier(n, witness_angle=0.5)
        qfixed = qma_fix_advice(q, seed=7)
        w = qfixed.boosted_witness_qubits
        for x in q.inputs():
            ops = [induced_witness_operator(q.protocol, r, x) for r in qfixed.advice_tuple]
            boosted = _majority_operator(ops)
            lam, _ = top_eigenpair(boosted)
            if q.language[x] == 1:
                if lam < qfixed.yes_threshold - 1e-9:
                    errors += 1
            else:
                diag_max = float(np.max(boosted.diagonal().real))
                # the exact mixed-state inequality: optimal <= 2^w * best basis
                if not (lam <= 2 ** w * diag_max + 1e-9 and lam <= 1 / 3 + 1e-9
                        and diag_max <= qfixed.basis_threshold + 1e-9):
                    basis_checked = False
    elapsed = time.monotonic() - start
    report(7, errors == 0 and basis_checked,
           f"ma/qma certificates re-verified with zero errors (n=2,3) in {elapsed:.1f}s")


def test_criterion_8_qcma_training():
    """2-qubit-advice toy: survival floor and decay ceiling both hold and the
    trained rule classifies every input correctly."""
    start = time.monotonic()
    v = table_qcma_verifier(1, truth_table="10")
    training, decider = qcma_train(v)
    a_total = decider.amplified.alice_qubits
    t = training.size
    p_t = training.survivals[-1]
    floor = 2.0 ** (-a_total) * (1.0 - t / a_total ** 2)
    ceiling = (2.0 / 3.0) ** t
    correct = all(decider.decide(x).verdict == v.language[x] for x in v.inputs())
    elapsed = time.monotonic() - start
    ok = (a_total == 2 and p_t >= floor - 1e-9 and p_t <= ceiling + 1e-9
          and correct and elapsed < 300.0)
    report(8, ok,
           f"A={a_total}, T={t}: floor {floor:.4f} <= p_T={p_t:.4f} <= "
           f"ceiling {ceiling:.4f}, all decisions correct, in {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical CLI reports under a fixed seed."""
    from demerlab.cli import main

    runs = [
        ["rac", "audit", "--n", "8", "--w", "4", "--seed", "1"],
        ["lemma", "or-bound", "--witness-qubits", "1", "--seed", "7",
         "--instances", "5"],
        ["demerlin", "run", "--toy", "rac2", "--seed", "3"],
    ]
    identical = True
    for k, args in enumerate(runs):
        a, b = tmp_path / f"a{k}.json", tmp_path / f"b{k}.json"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        identical &= a.read_bytes() == b.read_bytes()
    report(9, identical, "three CLI reports byte-identical across repeated runs")


def test_criterion_10_amplified_pipeline():
    """The paper's pipeline on the coin at base error 3/10 (u=5) and at 1/3
    (u=7, 14 qubits): desk plan, amplify, de-Merlinize, exact loop value with
    yes >= 1/9 and reachable-subspace residual <= 1e-9, in under 30 s."""
    start = time.monotonic()
    ok = True
    details = []
    for base_error, (base, f) in ((Fraction(3, 10), coin_protocol(0.7, 0.3)),
                                  (Fraction(1, 3), coin_protocol())):
        plan = desk_plan(base.alice_qubits, base.witness_qubits, base_error)
        amplified = build_outer(build_inner(base, plan.ell), plan.u)
        d = demerlinize(amplified, plan, f=f)
        for (x, y), v in f.pairs():
            r = evaluate_demerlinized(d, x, y)
            ok &= r.passed and r.residual <= 1e-9
            if v == 1:
                ok &= r.p_accept >= 1.0 / 9.0 - 1e-9
                details.append(f"u={plan.u} ({amplified.verifier.n_qubits} qubits): "
                               f"yes {r.p_accept:.6f}, reachable dim {r.reachable_dim}, "
                               f"residual {r.residual:.1e}")
    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 30.0, f"{'; '.join(details)}, in {elapsed:.1f}s")
