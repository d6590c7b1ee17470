from fractions import Fraction
from math import comb, isclose

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from demerlab.amplify import (
    DESK_MAX_REPS,
    MAX_REPS,
    binom_tail,
    build_inner,
    build_outer,
    desk_plan,
    identity_plan,
    majority_threshold,
    min_majority_reps,
    plan_amplification,
)
from demerlab.protocol import induced_witness_operator, optimal_witness
from demerlab.toys import coin_protocol, table_qcma_verifier
from conftest import random_state


# ---------------------------------------------------------------------------
# exact binomial machinery


@pytest.mark.parametrize("n,p,k", [(5, Fraction(1, 3), 3), (9, Fraction(1, 4), 5),
                                   (21, Fraction(1, 3), 11), (81, Fraction(2, 3), 41)])
def test_binom_tail_against_scipy(n, p, k):
    oracle = scipy.stats.binom.sf(k - 1, n, float(p))
    assert float(binom_tail(n, p, k)) == pytest.approx(oracle, rel=1e-10)


def test_binom_tail_edges():
    assert binom_tail(5, Fraction(1, 3), 0) == 1
    assert binom_tail(5, Fraction(1, 3), 6) == 0


def test_binom_tail_keeps_the_type_of_p():
    exact = binom_tail(7, Fraction(1, 3), 4)
    assert isinstance(exact, Fraction)
    approx = binom_tail(7, 1 / 3, 4)
    assert isinstance(approx, float) and approx == pytest.approx(float(exact), rel=1e-12)
    for k in (0, 8):
        assert type(binom_tail(7, Fraction(1, 3), k)) is Fraction
        assert type(binom_tail(7, 1 / 3, k)) is float


@pytest.mark.parametrize("n,p,k", [(1100, 0.5, 550), (2001, 0.5, 1001), (5, 0.0, 1),
                                   (5, 1e-300, 1), (10, 1e-6, 1),
                                   (2001, 0.25, 620), (1000, 0.0625, 110)])
def test_float_binom_tail_matches_exact_at_large_n_and_tiny_p(n, p, k):
    assert isclose(binom_tail(n, p, k), float(binom_tail(n, Fraction(p), k)),
                   rel_tol=1e-12, abs_tol=1e-15)


@st.composite
def tail_cases(draw):
    n = draw(st.integers(0, 60))
    b = draw(st.integers(1, 10 ** 6))
    return n, Fraction(draw(st.integers(0, b)), b), draw(st.integers(-1, n + 1))


@given(tail_cases())
@settings(max_examples=120, deadline=None)
def test_exact_binom_tail_matches_termwise_fraction_sum(case):
    n, p, k = case
    oracle = sum((comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(max(k, 0), n + 1)),
                 Fraction(0))
    got = binom_tail(n, p, k)
    assert type(got) is Fraction and got == oracle


def test_min_majority_reps_is_minimal():
    target = Fraction(1, 8000)
    n = min_majority_reps(Fraction(1, 3), target)
    assert binom_tail(n, Fraction(1, 3), majority_threshold(n)) <= target
    assert binom_tail(n - 2, Fraction(1, 3), majority_threshold(n - 2)) > target


def _exact_majority_scan(error, target, cap):
    """Reference: exact tails at every odd count up to cap, no float bracket."""
    for n in range(1, cap + 1, 2):
        tail = binom_tail(n, error, majority_threshold(n))
        if tail <= target:
            return n, tail
    return None


@pytest.mark.parametrize("error", [Fraction(1, 3), Fraction(1, 4), Fraction(1, 10), Fraction(0)])
@pytest.mark.parametrize("target", [Fraction(1, 5), Fraction(1, 8000), Fraction(1, 5 ** 12)])
def test_min_majority_reps_matches_exact_scan(error, target):
    assert min_majority_reps(error, target) == _exact_majority_scan(error, target, MAX_REPS)[0]


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("base_error", [Fraction(1, 3), Fraction(1, 4)])
def test_desk_plan_matches_exact_scan(w, base_error):
    expected = None
    for ell in range(1, DESK_MAX_REPS + 1, 2):
        eps = binom_tail(ell, base_error, majority_threshold(ell))
        found = _exact_majority_scan(eps, Fraction(1, 5 ** (w * ell)), DESK_MAX_REPS)
        if found is not None:
            expected = ell, found[0]
            break
    plan = desk_plan(1, w, base_error)
    assert (plan.ell, plan.u) == expected


def test_plan_amplification_matches_exact_scan():
    w = 2
    ell0 = _exact_majority_scan(Fraction(1, 3), Fraction(1, 1000 * w ** 3), MAX_REPS)[0]

    def first_certified():
        for ell in range(ell0, MAX_REPS + 1, 2):
            eps = binom_tail(ell, Fraction(1, 3), majority_threshold(ell))
            u = 1
            while u * u * eps < Fraction(1, 9):
                if binom_tail(u, eps, majority_threshold(u)) <= Fraction(1, 5 ** (w * ell)):
                    return ell, u
                u += 2

    plan = plan_amplification(1, w)
    assert (plan.ell, plan.u) == first_certified()


def test_plan_inner_target_formula():
    # w = 3 pins the inner error target at 1/27000
    plan = desk_plan(1, 3)
    assert plan.target_inner_error == pytest.approx(1.0 / 27000.0)


def test_plan_amplification_w2_certificates():
    plan = plan_amplification(1, 2)
    assert plan.ell % 2 == 1 and plan.u % 2 == 1
    assert plan.inner_error <= plan.target_inner_error
    assert plan.soundness_cert_log10 <= plan.soundness_target_log10 + 1e-9
    assert plan.completeness_union_bound < 1.0 / 3.0
    assert plan.alice_qubits_total == plan.ell * plan.u
    assert plan.witness_qubits_total == 2 * plan.ell
    # the minimal inner-certifying ell alone admits no valid u
    ell0 = min_majority_reps(Fraction(1, 3), Fraction(1, 8000))
    assert plan.ell > ell0


def test_plan_rejects_narrow_witness():
    with pytest.raises(ValueError, match="w >= 2"):
        plan_amplification(1, 1)


def test_desk_plan_w1():
    plan = desk_plan(1, 1)
    assert (plan.ell, plan.u) == (1, 7)
    # certified soundness: Pr[Bin(7, 1/3) >= 4] = 379/2187 <= 1/5
    assert 10.0 ** plan.soundness_cert_log10 == pytest.approx(379 / 2187, rel=1e-9)
    assert plan.soundness_cert_log10 <= plan.soundness_target_log10


def test_degenerate_single_rep_rejected():
    # a bare (ell=1, u=1) plan cannot certify 5^-W at base error 1/3
    eps = Fraction(1, 3)
    assert binom_tail(1, eps, 1) > Fraction(1, 5)


def test_identity_plan_shape():
    plan = identity_plan(4, 1)
    assert plan.ell == plan.u == 1
    assert plan.alice_qubits_total == 4


def test_plan_totals_derive_from_counts():
    for plan in (desk_plan(3, 1), identity_plan(3, 2), plan_amplification(3, 2)):
        assert plan.alice_qubits_total == 3 * plan.ell * plan.u
        assert plan.witness_qubits_total == plan.base_witness_qubits * plan.ell


# ---------------------------------------------------------------------------
# inner layer


def test_inner_single_copy_matches_base():
    p, _ = coin_protocol(witness_angle=0.4)
    inner = build_inner(p, 1)
    for y in ("0", "1"):
        w_base = induced_witness_operator(p, "0", y)
        w_inner = induced_witness_operator(inner, "0", y)
        assert np.allclose(w_inner, w_base, atol=1e-9)


def test_inner_five_copies_binomial_oracle():
    p, _ = coin_protocol()
    inner = build_inner(p, 5)
    assert inner.witness_qubits == 5
    assert inner.alice_qubits == 5
    w = induced_witness_operator(inner, "0", "1")
    honest = np.real(w[0b11111, 0b11111])
    assert honest == pytest.approx(192 / 243, abs=1e-9)  # Pr[Bin(5, 2/3) >= 3]


def test_inner_soundness_matches_binomial_even_entangled():
    # optimal witness over the full 2^5-dim register equals the product tail
    p, _ = coin_protocol()
    inner = build_inner(p, 5)
    lam, _ = optimal_witness(inner, "0", "0")
    assert lam == pytest.approx(float(binom_tail(5, Fraction(1, 3), 3)), abs=1e-9)


def test_inner_preserves_unitarity_and_accept_contract():
    p, _ = coin_protocol(witness_angle=0.2)
    inner = build_inner(p, 3)
    mat = inner.verifier.to_matrix()
    assert np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-9)
    assert inner.accept_qubit < inner.verifier.n_qubits


def test_layers_past_the_qubit_cap_raise_before_building():
    # the composed protocol's register layout holds the one 16-qubit cap
    with pytest.raises(ValueError, match="layout needs 22 qubits, cap is 16"):
        build_inner(table_qcma_verifier(1).protocol, 5)
    p, _ = coin_protocol()
    with pytest.raises(ValueError, match="layout needs 19 qubits, cap is 16"):
        build_outer(build_inner(p, 1), 11)


# ---------------------------------------------------------------------------
# outer layer


def test_outer_single_invocation_matches_inner():
    p, _ = coin_protocol(witness_angle=0.3)
    inner = build_inner(p, 1)
    outer = build_outer(inner, 1)
    for y in ("0", "1"):
        w_in = induced_witness_operator(inner, "0", y)
        w_out = induced_witness_operator(outer, "0", y)
        assert np.allclose(w_out, w_in, atol=1e-9)


def test_outer_double_amplification_exact_values():
    # coin toy, plan (1, 7): soundness hits Pr[Bin(7, 1/3) >= 4] exactly and
    # lands under 5^-1; completeness error does the same under 1/3
    p, _ = coin_protocol()
    outer = build_outer(build_inner(p, 1), 7)
    lam_no, _ = optimal_witness(outer, "0", "0")
    lam_yes, _ = optimal_witness(outer, "0", "1")
    tail = float(binom_tail(7, Fraction(1, 3), 4))
    assert lam_no == pytest.approx(tail, abs=1e-9)
    assert lam_no <= 0.2
    assert 1.0 - lam_yes == pytest.approx(tail, abs=1e-9)
    assert 1.0 - lam_yes <= 1.0 / 3.0


def test_outer_completeness_union_bound_on_low_error_toy():
    # inner error 0.01: exact rejection of the honest witness <= u * sqrt(eps)
    p, _ = coin_protocol(yes_prob=0.99, no_prob=0.01, witness_angle=0.6)
    outer = build_outer(build_inner(p, 1), 3)
    lam_yes, _ = optimal_witness(outer, "0", "1")
    assert 1.0 - lam_yes <= 3 * np.sqrt(0.01) + 1e-9


def test_outer_zero_acceptance_witness():
    # a witness the inner layer never accepts keeps the outer tally at zero
    p, _ = coin_protocol()
    outer = build_outer(build_inner(p, 1), 3)
    w = induced_witness_operator(outer, "0", "1")
    assert np.real(w[0, 0]) == pytest.approx(0.0, abs=1e-12)


def test_outer_gate_count_linear_in_u():
    p, _ = coin_protocol()
    inner = build_inner(p, 1)
    g3 = len(build_outer(inner, 3).verifier.gates)
    g5 = len(build_outer(inner, 5).verifier.gates)
    g7 = len(build_outer(inner, 7).verifier.gates)
    assert g5 - g3 == g7 - g5  # one invocation block each


def test_outer_verifier_unitary():
    p, _ = coin_protocol()
    outer = build_outer(build_inner(p, 1), 3)
    mat = outer.verifier.to_matrix()
    assert np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-9)


def test_outer_soundness_freshness_conditional(rng):
    """Conditioned on any outcome history, the next invocation accepts with
    probability at most the inner soundness, because its advice copy is fresh.

    Verified by exact branch simulation on the (1, 3)-amplified no-instance:
    walk every outcome history, apply each invocation's block unitary, and
    check the conditional accept chance; witness states include basis,
    random, and the optimal cheat.
    """
    p, _ = coin_protocol()
    inner = build_inner(p, 1)
    outer = build_outer(inner, 3)
    n = outer.verifier.n_qubits
    n_block = len(inner.verifier.gates)
    # invocation t occupies gates [t * (2*n_block + 1), ...): block, inc, block^-1
    from demerlab.qcore import UnitaryCircuit

    blocks = []
    stride = 2 * n_block + 1
    for t in range(3):
        gates = outer.verifier.gates[t * stride: t * stride + n_block]
        blocks.append(UnitaryCircuit(n, gates).to_matrix())
    # accept qubit of the inner layer inside the outer layout, invocation-independent
    inner_accept_gate = outer.verifier.gates[n_block]  # the first controlled increment
    accept_q = inner_accept_gate.controls[0]
    idx = np.arange(2 ** n)
    acc_mask = ((idx >> (n - 1 - accept_q)) & 1) == 1
    eps = 1.0 / 3.0  # inner soundness of the base no-instance

    witnesses = [np.array([1, 0], complex), np.array([0, 1], complex),
                 random_state(1, rng).amplitudes]

    def zero_ket(k):
        v = np.zeros(2 ** k, dtype=complex)
        v[0] = 1.0
        return v

    for wit in witnesses:
        # registers: bob(1) "0", advice(3) |000>, witness(1), ancilla(4) zeroed
        psi = np.kron(np.kron(np.kron(zero_ket(1), zero_ket(3)), wit), zero_ket(4))
        branches = [psi]
        for t in range(3):
            new_branches = []
            for b in branches:
                norm2 = float(np.vdot(b, b).real)
                if norm2 < 1e-15:
                    continue
                after = blocks[t] @ b
                p_acc = float(np.sum(np.abs(after[acc_mask]) ** 2)) / norm2
                assert p_acc <= eps + 1e-9
                keep = after.copy()
                keep[acc_mask] = 0.0
                flip = after - keep
                inv = blocks[t].conj().T
                new_branches.extend([inv @ keep, inv @ flip])
            branches = new_branches
