import json
from fractions import Fraction

import numpy as np
import pytest

from demerlab.advice import (
    AdviceVerifier,
    PromiseViolationError,
    RandomizedAdvice,
    TrainingSet,
    _majority_operator,
    _witness_strings,
    j_fold_decision,
    ma_fix_advice,
    qcma_train,
    qma_fix_advice,
    true_advice_wrong_probability,
)
from demerlab.amplify import binom_tail, build_inner, majority_threshold
from demerlab.protocol import induced_witness_operator, witness_operators
from demerlab.qcore import mcx, ry_gate, top_eigenpair
from demerlab.toys import (
    _accept_angle,
    coin_protocol,
    hint_table_verifier,
    table_protocol,
    table_qcma_verifier,
)

from conftest import boosted_basis_accepts, one_qubit_advice_verifier


# ---------------------------------------------------------------------------
# classical advice fixing


def test_advice_distribution_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        RandomizedAdvice(values=("a", "b"), probs=(Fraction(1, 2), Fraction(1, 3)))


def test_advice_verifier_rejects_inputs_that_do_not_fit_bob_register():
    with pytest.raises(ValueError, match="input register"):
        one_qubit_advice_verifier((), {"00": 1})


def test_ma_fix_ignores_advice_when_verifier_decides_alone():
    # accept iff Bob's bit is 0 and the witness claims 1, whatever the advice
    v = one_qubit_advice_verifier([mcx(controls=(0, 2), target=3, control_values=(0, 1))],
                                  {"0": 1, "1": 0})
    fixed = ma_fix_advice(v, seed=3)
    assert fixed.draws_used == 1  # every tuple works


def test_ma_fix_parity_toy_certificate():
    v = hint_table_verifier(2)
    fixed = ma_fix_advice(v, seed=7)
    # per-pair boosted error target is 2^-n * 2^-w
    assert fixed.per_pair_error_target == pytest.approx(2.0 ** (-2) * 2.0 ** (-1))
    # exhaustive re-verification with zero errors
    for x in v.inputs():
        accepted = boosted_basis_accepts(v, fixed.advice_tuple, x)
        assert bool(accepted) == (v.language[x] == 1)
        assert fixed.certificate[x] == (accepted[0] if accepted else -1)


def test_ma_fix_boost_reaches_target_exactly():
    v = hint_table_verifier(2)
    fixed = ma_fix_advice(v, seed=7)
    maj = majority_threshold(fixed.reps)
    # constrained yes-pairs sit at 3/4, no-pairs at 1/4; both boosted errors
    # must clear the target while one fewer repetition pair must not
    err = binom_tail(fixed.reps, Fraction(1, 4), maj)
    assert err < Fraction(1, 8)
    err_prev = binom_tail(fixed.reps - 2, Fraction(1, 4), majority_threshold(fixed.reps - 2))
    assert err_prev >= Fraction(1, 8)


def test_ma_fix_keeps_strict_union_bound_at_n1(tmp_path):
    # at n=1 the single-run tail equals the target 1/4 exactly, and a union
    # bound over 4 pairs at 1/4 each totals 1, so one repetition is not enough
    from demerlab.cli import main

    assert binom_tail(1, Fraction(1, 4), 1) == Fraction(1, 2 ** 1 * 2 ** 1)
    out = tmp_path / "ma1.json"
    assert main(["advice", "ma-fix", "--n", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["reps"] == 3


def test_ma_fix_detects_promise_violation():
    # an empty circuit never accepts, so the yes-instance has no witness
    v = one_qubit_advice_verifier((), {"0": 1, "1": 0}, values=("0",))
    with pytest.raises(PromiseViolationError):
        ma_fix_advice(v)


def test_ma_fix_requires_zero_one_basis_acceptances():
    # the witness claim half-accepts, which a counting argument cannot use
    v = one_qubit_advice_verifier([ry_gate(3, _accept_angle(0.5), controls=(2,))],
                                  {"0": 1, "1": 0})
    with pytest.raises(ValueError, match="deterministic"):
        ma_fix_advice(v)


def test_ma_fix_n3():
    v = hint_table_verifier(3)
    fixed = ma_fix_advice(v, seed=11)
    for x in v.inputs():
        assert bool(boosted_basis_accepts(v, fixed.advice_tuple, x)) == (v.language[x] == 1)


# ---------------------------------------------------------------------------
# quantum witness fixing


def test_majority_operator_diag_matches_binomial():
    op = np.diag([0.0, 1.0 / 3.0]).astype(complex)
    boosted = _majority_operator([op, op, op])
    idx = 0b111
    assert boosted[idx, idx].real == pytest.approx(float(binom_tail(3, Fraction(1, 3), 2)))


def test_qma_fix_parity_certificates():
    v = hint_table_verifier(2, witness_angle=0.6)
    fixed = qma_fix_advice(v, seed=7)
    w = fixed.boosted_witness_qubits
    assert fixed.yes_threshold == pytest.approx(1.0 - 2.0 ** (-3 * w))
    assert fixed.basis_threshold == pytest.approx(2.0 ** (-2 * w))
    # exhaustive re-verification: rebuild the boosted operators from the tuple
    for x in v.inputs():
        ops = [induced_witness_operator(v.protocol, r, x) for r in fixed.advice_tuple]
        boosted = _majority_operator(ops)
        lam, _ = top_eigenpair(boosted)
        if v.language[x] == 1:
            assert lam >= fixed.yes_threshold - 1e-9
        else:
            diag_max = float(np.max(boosted.diagonal().real))
            assert diag_max <= fixed.basis_threshold + 1e-9
            # mixed-state cap: optimal <= 2^w * best basis state, and <= 1/3
            assert lam <= 2 ** w * diag_max + 1e-9
            assert lam <= 1.0 / 3.0 + 1e-9


@pytest.mark.parametrize("angle", [0.0, 0.5])
def test_majority_operator_matches_inner_repetition_circuit(angle):
    # second route: three copies of one hint through build_inner's reversible
    # majority vote (a 14-qubit circuit) give the DP's boosted operator
    p = table_protocol(1, angle)
    inner = build_inner(p, 3)
    assert inner.verifier.n_qubits == 14
    for x in ("0", "1"):
        for hint in ("00", "01", "10", "11"):
            op = witness_operators(p, x, [hint])[0]
            circuit = witness_operators(inner, x, [hint])[0]
            assert np.allclose(_majority_operator([op] * 3), circuit, atol=1e-12)


def test_mixed_state_inequality_on_rotated_operator(rng):
    # lambda_max <= 2^w * max diagonal entry holds for any PSD W via the trace
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    w = g @ g.conj().T
    w /= np.linalg.eigvalsh(w).max() * 2.0
    lam, _ = top_eigenpair(w)
    assert lam <= 2 * float(np.max(w.diagonal().real)) + 1e-9


def test_qma_fix_basis_bound_arithmetic():
    # 2^n * 2^w * (1 / (2^n * 2^3w)) = 2^-2w
    n, w = 3, 2
    assert 2 ** n * 2 ** w / (2 ** n * 2 ** (3 * w)) == 2.0 ** (-2 * w)


# ---------------------------------------------------------------------------
# postselection training


def test_training_set_invariants():
    with pytest.raises(ValueError, match="p_0"):
        TrainingSet(triples=(), survivals=(0.9,), maximal=True)
    with pytest.raises(ValueError, match="2/3"):
        TrainingSet(triples=(("0", "1", 1),), survivals=(1.0, 0.9), maximal=True)


def test_empty_training_is_maximally_mixed():
    ts = TrainingSet(triples=(), survivals=(1.0,), maximal=False)
    assert ts.size == 0
    assert ts.survivals[0] == 1.0


def test_training_error_rounds_outward():
    # true base error 1/3 + 1e-12: rounding the acceptance to the nearest
    # 1e-9 would certify exactly 1/3 and let the promise pass
    p, _ = coin_protocol(2 / 3 - 1e-12, 1 / 3 - 1e-12)
    v = AdviceVerifier(protocol=p, language={"1": 1, "0": 0},
                       advice=RandomizedAdvice(values=("0",), probs=(Fraction(1),)))
    with pytest.raises(PromiseViolationError, match="exceeds 1/3"):
        qcma_train(v)


def test_qcma_train_two_qubit_table():
    v = table_qcma_verifier(1, truth_table="10")
    training, decider = qcma_train(v)
    a_total = decider.amplified.alice_qubits
    assert a_total == 2
    t = training.size
    p_t = training.survivals[-1]
    # survival floor and decay ceiling hold simultaneously
    assert p_t >= 2.0 ** (-a_total) * (1.0 - t / a_total ** 2) - 1e-9
    assert p_t <= (2.0 / 3.0) ** t + 1e-9
    # trained machine decides every input correctly
    for x in v.inputs():
        assert decider.decide(x).verdict == v.language[x]
    assert training.maximal
    assert t <= 4 * a_total


def test_qcma_train_unionbound_invariant():
    v = table_qcma_verifier(1, truth_table="10")
    training, decider = qcma_train(v)
    wrong = true_advice_wrong_probability(v, training, decider)
    a_total = decider.amplified.alice_qubits
    assert wrong <= training.size / a_total ** 2 + 1e-9


def test_qcma_train_maximality_counterfactual():
    # appending any further pair to the trained state cannot shrink survival
    # by 2/3 again; the greedy loop stopped exactly because of that
    from demerlab.advice import _branch_kraus

    v = table_qcma_verifier(1, truth_table="10")
    training, decider = qcma_train(v)
    rho = decider.advice_matrix
    for x in v.inputs():
        for z in _witness_strings(decider.amplified.witness_qubits):
            if v.language[x] == 1 and decider.lambdas(x)[z] < 1 - decider.error_rate - 1e-9:
                continue  # rule (b) excludes invalid witnesses for yes-instances
            kraus = _branch_kraus(decider.amplified, x, z, v.language[x])
            branch = sum(k @ rho @ k.conj().T for k in kraus)
            assert float(np.trace(branch).real) > 2.0 / 3.0 + 1e-9


def test_qcma_train_builds_each_kraus_list_once(monkeypatch):
    import demerlab.advice as advice

    seen = []

    def counting(p, y, cols, outcome):
        # column 0 is |0> (x) |z> (x) |0>, so its row names the witness
        seen.append((y, int(np.argmax(np.abs(cols[:, 0]))), outcome))
        return kernel(p, y, cols, outcome)

    kernel = advice.project
    monkeypatch.setattr(advice, "project", counting)
    training, _ = qcma_train(table_qcma_verifier(2))
    assert training.size > 1
    assert len(seen) > training.size
    assert len(set(seen)) == len(seen)


def test_qcma_train_four_qubit_table():
    v = table_qcma_verifier(2, truth_table="0110")
    training, decider = qcma_train(v)
    for x in v.inputs():
        assert decider.decide(x).verdict == v.language[x]
    assert training.size <= 4 * decider.amplified.alice_qubits


def test_qcma_decide_flags_promise_gap():
    v = table_qcma_verifier(1, truth_table="10")
    _, decider = qcma_train(v)
    broken = decider.__class__(verifier=decider.verifier, amplified=decider.amplified,
                               ell=decider.ell,
                               advice_matrix=np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex),
                               error_rate=decider.error_rate)
    with pytest.raises(PromiseViolationError, match="1/3"):
        broken.decide("0")


# ---------------------------------------------------------------------------
# J-fold decision layer


def test_j_fold_all_zero_rejects():
    v = table_qcma_verifier(1, truth_table="10")
    _, decider = qcma_train(v)
    rec = j_fold_decision(decider, "1")
    assert rec.verdict == 0
    assert rec.mean_acceptance == pytest.approx(0.0, abs=1e-12)


def test_j_fold_single_perfect_witness_formula():
    # one witness at 1 among 2^w: S = 2^-w >= 2^-(w+1)
    v = table_qcma_verifier(1, truth_table="10")
    _, decider = qcma_train(v)
    rec = j_fold_decision(decider, "0")
    w = decider.amplified.witness_qubits
    assert rec.verdict == 1
    assert rec.mean_acceptance == pytest.approx(2.0 ** (-w), abs=1e-9)


def test_j_fold_mean_matches_sampling_oracle(rng):
    v = table_qcma_verifier(2, truth_table="0110")
    _, decider = qcma_train(v)
    rec = j_fold_decision(decider, "01")
    lams = decider.lambdas("01")
    maj = majority_threshold(rec.j_copies)
    trials = 20_000
    zs = list(lams)
    hits = 0
    for _ in range(trials):
        z = zs[int(rng.integers(0, len(zs)))]
        votes = int(np.sum(rng.random(rec.j_copies) < lams[z]))
        hits += 1 if votes >= maj else 0
    est = hits / trials
    sigma = max(np.sqrt(rec.mean_acceptance * (1 - rec.mean_acceptance) / trials), 1e-9)
    assert abs(est - rec.mean_acceptance) <= 3 * sigma + 1e-9


def test_float_binom_tail_matches_exact():
    assert binom_tail(7, 1 / 3, 4) == pytest.approx(
        float(binom_tail(7, Fraction(1, 3), 4)), rel=1e-12)


def test_witness_effects_are_built_once_per_input_and_witness(monkeypatch, tmp_path):
    import demerlab.advice as advice
    from demerlab.cli import main

    built = []
    kernel = advice.accept_effect

    def counting(p, y, cols):
        built.append(y)
        return kernel(p, y, cols)

    monkeypatch.setattr(advice, "accept_effect", counting)
    assert main(["advice", "qcma-train", "--n", "2", "--seed", "7",
                 "--out", str(tmp_path / "train.json")]) == 0
    # 4 inputs x 2 witnesses, shared by the error estimate, rule (b), decide and j-fold
    assert len(built) == 8


def test_kraus_lists_are_built_once_per_protocol(monkeypatch, tmp_path):
    import demerlab.advice as advice
    from demerlab.cli import main

    seen = []
    kernel = advice.project

    def counting(p, y, cols, outcome):
        # column 0 is |0> (x) |z> (x) |0>, so its row names the witness
        seen.append((y, int(np.argmax(np.abs(cols[:, 0]))), outcome))
        return kernel(p, y, cols, outcome)

    monkeypatch.setattr(advice, "project", counting)
    assert main(["advice", "qcma-train", "--n", "2", "--seed", "7",
                 "--out", str(tmp_path / "train.json")]) == 0
    # one per training candidate; the true-advice replay reuses them
    assert len(seen) == 6
    assert len(set(seen)) == len(seen)
