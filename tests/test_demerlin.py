import gc
import weakref
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demerlab.demerlin as demerlin_mod
from demerlab.amplify import build_inner, build_outer, desk_plan, identity_plan
from demerlab.demerlin import (
    DemerlinizedProtocol,
    demerlinize,
    emitted_circuit,
    emitted_layout,
    evaluate_demerlinized,
    resource_report,
    sample_demerlinized,
)
from demerlab.protocol import OneWayQmaProtocol
from demerlab.qcore import (
    UnitaryCircuit,
    apply_kraus,
    basis_state,
    ry_gate,
)
from demerlab.qlemmas import agrees_within_sigma
from demerlab.toys import coin_protocol, demerlin_toy, rac_claim_protocol
from conftest import maximally_mixed
from test_protocol import block_diagonal_protocols, dense_projectors


def cached_loops(p):
    """The loops memoized on protocol p, by (Bob input, Alice inputs covered first)."""
    return {key[1:]: loop for key, loop in p._operators.items()
            if key[0] is demerlin_mod._loop.__wrapped__}


def make_rac(n_bits=4):
    p, f = rac_claim_protocol(n_bits)
    return demerlinize(p, identity_plan(p.alice_qubits, 1), f=f), f


def make_coin():
    p, f = coin_protocol(yes_prob=2 / 3, no_prob=0.15)
    return demerlinize(p, identity_plan(1, 1), f=f), f


# ---------------------------------------------------------------------------
# construction


def test_round_and_counter_sizes():
    d, _ = make_rac()
    assert d.t_rounds == 18  # 9 * 2^1
    assert d.counter_qubits == 5


def test_round_count_formula_w2():
    # two parallel copies widen the witness register to W = 2, so T = 36
    from demerlab.amplify import AmplificationPlan

    p, f = coin_protocol(yes_prob=2 / 3, no_prob=0.15)
    inner = build_inner(p, 2)  # inner soundness 0.15^2 <= 5^-2
    plan = AmplificationPlan(
        base_alice_qubits=1, base_witness_qubits=1, ell=2, u=1,
        inner_error=0.0225, target_inner_error=0.0225,
        soundness_cert_log10=np.log10(0.0225))
    d = demerlinize(inner, plan, f=f)
    assert d.t_rounds == 36
    assert d.counter_qubits == 6
    r = evaluate_demerlinized(d, "0", "1")
    assert r.passed and r.p_accept >= 1.0 / 9.0


def test_soundness_precondition_audited():
    p, f = coin_protocol(yes_prob=2 / 3, no_prob=1 / 3)  # soundness 1/3 > 5^-1
    with pytest.raises(ValueError, match="precondition"):
        demerlinize(p, identity_plan(1, 1), f=f)


@pytest.mark.parametrize("w, t_rounds, counter_qubits", [(1, 18, 5), (2, 36, 6), (3, 72, 7)])
def test_round_count_and_counter_width_derive_from_w(w, t_rounds, counter_qubits):
    inner = build_inner(coin_protocol()[0], w)
    d = DemerlinizedProtocol(base=inner, f=None)
    assert (d.t_rounds, d.counter_qubits) == (t_rounds, counter_qubits)
    assert 2 ** (d.counter_qubits - 1) <= d.t_rounds < 2 ** d.counter_qubits


# ---------------------------------------------------------------------------
# exact evaluation


def test_geometric_oracle_on_deterministic_base():
    # base accepts z=1 with probability 1 and z=0 with probability 0, so each
    # round accepts with chance 1/2 and never damages the advice:
    # p_accept = 1 - 2^-T
    d, _ = make_rac()
    r = evaluate_demerlinized(d, "1010", "00")
    assert r.p_accept == pytest.approx(1.0 - 2.0 ** (-18), abs=1e-12)
    assert r.passed


def test_rejecting_base_never_accepts():
    d, _ = make_rac()
    r = evaluate_demerlinized(d, "0101", "00")  # x_0 = 0
    assert r.p_accept == pytest.approx(0.0, abs=1e-12)
    assert r.passed


def test_eta_two_thirds_instance_meets_one_ninth():
    d, _ = make_coin()
    r = evaluate_demerlinized(d, "0", "1")
    assert r.p_accept >= 1.0 / 9.0 - 1e-9
    assert r.passed


def test_all_pairs_separate_with_gap():
    d, f = make_rac()
    yes_vals, no_vals = [], []
    for (x, y), v in f.pairs():
        r = evaluate_demerlinized(d, x, y)
        assert r.passed
        (yes_vals if v == 1 else no_vals).append(r.p_accept)
    w = d.witness_qubits
    gap_floor = 1.0 / 9.0 - 9 * 2 ** w / np.sqrt(5.0 ** w)
    assert min(yes_vals) - max(no_vals) >= gap_floor - 1e-9
    assert min(yes_vals) >= 1.0 / 9.0 - 1e-9


def test_mixed_advice_supported():
    d, _ = make_coin()
    rho = maximally_mixed(d.base.alice_qubits)
    r = evaluate_demerlinized(d, "0", "1", rho_alice=rho)
    assert 0.0 <= r.p_accept <= 1.0


# ---------------------------------------------------------------------------
# dense Schroedinger-picture oracle on the whole rest space (<= 8 rest qubits)


def dense_round_projectors(p, y):
    """P0_z = X^z V' Pi_0 V X^z as dense matrices on advice (x) witness (x) ancilla,
    with V built gate by gate apart from the code under test."""
    n_rest = p.verifier.n_qubits - p.bob_bits
    assert n_rest <= 8, "the dense oracle is for small rest spaces"
    p0 = dense_projectors(p, y)[0]
    idx = np.arange(2 ** n_rest)
    perms = [idx ^ (z << p.ancilla_qubits) for z in range(2 ** p.witness_qubits)]
    return [p0[np.ix_(perm, perm)] for perm in perms]


def dense_loop(d, x, y, rho_alice=None, projectors=None):
    """p_accept by iterating Phi0 on dense matrices."""
    p = d.base
    pad = np.zeros(2 ** (p.witness_qubits + p.ancilla_qubits), dtype=complex)
    pad[0] = 1.0
    if rho_alice is None:
        init = np.kron(p.advice_state(x).amplitudes, pad)
        rho = np.outer(init, init.conj())
    else:
        rho = np.kron(rho_alice.matrix, np.outer(pad, pad.conj()))
    if projectors is None:
        projectors = dense_round_projectors(p, y)
    for _ in range(d.t_rounds):
        rho = apply_kraus(rho, projectors) / len(projectors)
    return min(max(1.0 - float(np.trace(rho).real), 0.0), 1.0)


def assert_matches_oracle(d, x, y, rho_alice=None):
    r = evaluate_demerlinized(d, x, y, rho_alice=rho_alice)
    assert r.p_accept == pytest.approx(dense_loop(d, x, y, rho_alice), abs=1e-12)
    assert r.residual <= 1e-9


@given(block_diagonal_protocols(witness=(2, 3), ancilla=(1, 1)))
@settings(max_examples=30, deadline=None)
def test_random_wide_witness_loops_match_dense_oracle(case):
    """Loops with W = 2 and 3 (T = 36 and 72, 4 to 8 witness coins per round) on
    random block-diagonal verifiers of at most 6 rest qubits, from pure and from
    maximally mixed advice."""
    p, y, _, _ = case
    d = DemerlinizedProtocol(base=p, f=None)  # no f: the precondition is skipped
    assert_matches_oracle(d, "0", y)
    assert_matches_oracle(d, "0", y, maximally_mixed(p.alice_qubits))


@pytest.mark.parametrize("name", ["rac2", "rac4", "coin"])
def test_every_toy_pair_matches_dense_oracle(name):
    p, f = demerlin_toy(name)
    plan = identity_plan(p.alice_qubits, p.witness_qubits)
    d = demerlinize(p, plan, f=f)
    # without f the basis starts empty and grows with every new Alice input
    d_bare = demerlinize(p, plan)
    projectors = {y: dense_round_projectors(p, y) for (_, y), _ in f.pairs()}
    for (x, y), _ in f.pairs():
        expected = dense_loop(d, x, y, projectors=projectors[y])
        for dd in (d, d_bare):
            r = evaluate_demerlinized(dd, x, y)
            assert r.p_accept == pytest.approx(expected, abs=1e-12)
            assert r.residual <= 1e-9
    ys = {y for (_, y), _ in f.pairs()}
    # d covers f's Alice inputs first; d_bare shares the protocol with its own loops
    assert set(cached_loops(p)) == {(y, xs) for y in ys for xs in (tuple(f.alice_inputs()), ())}


@pytest.mark.parametrize("angle", [0.0, 0.7])
def test_amplified_coin_matches_dense_oracle(angle):
    # the paper's pipeline at u = 3: 9 qubits, 8 rest qubits
    base, f = coin_protocol(0.75, 0.25, witness_angle=angle)
    plan = desk_plan(1, 1, Fraction(1, 4))
    d = demerlinize(build_outer(build_inner(base, plan.ell), plan.u), plan, f=f)
    for (x, y), _ in f.pairs():
        assert_matches_oracle(d, x, y)
    assert cached_loops(d.base)["1", tuple(f.alice_inputs())].basis.shape[1] < 2 ** 8


def test_drift_sequences_match_dense_oracle():
    # a leaky and a low-leak coin (no_prob 0.15 and 0.002), on both Bob inputs
    d, _ = make_coin()
    p, f = coin_protocol(yes_prob=2 / 3, no_prob=0.002)
    d_low = demerlinize(p, identity_plan(1, 1), f=f)
    for dd in (d, d_low):
        for y in ("0", "1"):
            assert_matches_oracle(dd, "0", y)


@pytest.mark.parametrize("name", ["coin", "rac4"])
def test_maximally_mixed_advice_matches_dense_oracle(name):
    p, f = demerlin_toy(name)
    d = demerlinize(p, identity_plan(p.alice_qubits, p.witness_qubits), f=f)
    rho = maximally_mixed(p.alice_qubits)
    for y in sorted({y for (_, y), _ in f.pairs()}):
        x = f.alice_inputs()[0]
        assert_matches_oracle(d, x, y, rho_alice=rho)


@settings(max_examples=25, deadline=None)
@given(yes=st.floats(0.0, 1.0), no=st.floats(0.0, 1.0), angle=st.floats(-3.2, 3.2))
def test_coin_loop_matches_dense_oracle(yes, no, angle):
    p, f = coin_protocol(yes_prob=yes, no_prob=no, witness_angle=angle)
    # built directly: the precondition audit would reject most drawn coins
    d = DemerlinizedProtocol(base=p, f=f)
    for (x, y), _ in f.pairs():
        assert_matches_oracle(d, x, y)


def test_loop_rejects_non_block_diagonal_verifier():
    circ = UnitaryCircuit(3, (ry_gate(0, 0.4),))  # rotates Bob's register
    p = OneWayQmaProtocol(
        bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=0,
        verifier=circ, accept_qubit=1,
        alice_encode=lambda x: basis_state(1, "0"))
    d = demerlinize(p, identity_plan(1, 1))
    with pytest.raises(ValueError, match="block diagonal"):
        evaluate_demerlinized(d, "0", "0")
    with pytest.raises(ValueError, match="block diagonal"):
        sample_demerlinized(d, "0", "0", shots=10, seed=0)
    assert not cached_loops(p)


def test_residual_audit_raises_and_caches_nothing(monkeypatch):
    d, _ = make_coin()
    for name, value, match in [("RESIDUAL_BOUND", -1.0, "not invariant"),
                               ("MAX_REACHABLE_DIM", 0, "grew past 0 dimensions")]:
        monkeypatch.setattr(demerlin_mod, name, value)
        with pytest.raises(ValueError, match=match):
            evaluate_demerlinized(d, "0", "1")
        assert not cached_loops(d.base)
        monkeypatch.undo()
    assert evaluate_demerlinized(d, "0", "1").passed


def _u3_coin(angle):
    base, f = coin_protocol(0.75, 0.25, witness_angle=angle)
    plan = desk_plan(1, 1, Fraction(1, 4))
    return demerlinize(build_outer(build_inner(base, plan.ell), plan.u), plan, f=f), f


@pytest.mark.parametrize("make", [lambda: make_rac(2), make_rac, make_coin,
                                  lambda: _u3_coin(0.0), lambda: _u3_coin(0.7)],
                         ids=["rac2", "rac4", "coin", "coin-u3-0.0", "coin-u3-0.7"])
def test_covered_starts_read_the_cover_path_coordinates(make):
    d, f = make()
    for (x, y), _ in f.pairs():
        loop, coords = demerlin_mod._reachable_loop(d, x, y)
        assert x in loop.covered
        want = loop.cover(d.base, demerlin_mod._initial_columns(d.base, x))
        assert coords.tobytes() == want.tobytes()


def test_covered_starts_run_no_span_check(monkeypatch):
    d, f = make_rac()
    for y in sorted({y for (_, y), _ in f.pairs()}):
        evaluate_demerlinized(d, f.alice_inputs()[0], y)
    calls = []
    new_directions = demerlin_mod._new_directions
    monkeypatch.setattr(demerlin_mod, "_new_directions",
                        lambda *args: calls.append(1) or new_directions(*args))
    assert len([evaluate_demerlinized(d, x, y) for (x, y), _ in f.pairs()]) == 64
    assert not calls
    # a mixed start still goes through cover, which checks its span
    evaluate_demerlinized(d, "0000", "00", rho_alice=maximally_mixed(4))
    assert calls


def test_cache_lives_on_the_protocol_instance():
    d, f = make_coin()
    key = ("1", tuple(f.alice_inputs()))
    evaluate_demerlinized(d, "0", "1")
    loop = cached_loops(d.base)[key]
    evaluate_demerlinized(d, "0", "1")
    evaluate_demerlinized(DemerlinizedProtocol(base=d.base, f=f), "1", "1")
    assert cached_loops(d.base) == {key: loop}
    twin, _ = make_coin()
    assert not cached_loops(twin.base)
    assert [fl.name for fl in fields(DemerlinizedProtocol)] == ["base", "f"]


def test_cached_loops_do_not_keep_their_protocol_alive():
    # the loop lives in the protocol's memo; a loop that held the protocol would
    # make a cycle that only the garbage collector frees, raising peak memory
    d, _ = make_coin()
    evaluate_demerlinized(d, "0", "1")
    assert cached_loops(d.base)
    ref = weakref.ref(d.base)
    gc.disable()
    try:
        del d
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# emitted circuit replay oracle


def replay_never_probability(d, coins, x, y):
    circ = emitted_circuit(d, coins)
    layout = emitted_layout(d)
    n = layout.n_qubits
    bits = []
    bits.append(y)
    bits.append(x if d.base.alice_qubits == len(x) else None)
    psi_x = d.base.advice_state(x).amplitudes
    bob = np.zeros(2 ** d.base.bob_bits, dtype=complex)
    bob[int(y, 2)] = 1.0
    rest_zero = np.zeros(2 ** (n - d.base.bob_bits - d.base.alice_qubits), dtype=complex)
    rest_zero[0] = 1.0
    init = np.kron(np.kron(bob, psi_x), rest_zero)
    out = circ.apply(init)
    idx = np.arange(2 ** n)
    mask = np.ones(2 ** n, dtype=bool)
    for q in layout.qubits("counter"):
        mask &= ((idx >> (n - 1 - q)) & 1) == 0
    return float(np.sum(np.abs(out[mask]) ** 2))


def test_circuit_replay_matches_projector_chain():
    from demerlab.demerlin import _reachable_loop

    d, _ = make_coin()
    rng = np.random.default_rng(23)
    coins = [int(z) for z in rng.integers(0, 2, size=d.t_rounds)]
    loop, coords = _reachable_loop(d, "0", "1")
    vec = coords[:, 0]
    for z in coins:
        vec = loop.rounds[z] @ vec
    chain = float(np.vdot(vec, vec).real)
    replay = replay_never_probability(d, coins, "0", "1")
    assert replay == pytest.approx(chain, abs=1e-10)


def test_circuit_replay_on_rac_toy():
    d, _ = make_rac()
    rng = np.random.default_rng(5)
    coins = [int(z) for z in rng.integers(0, 2, size=d.t_rounds)]
    # deterministic base: any round with coin 1 on x_i = 1 accepts, so the
    # never-accept probability is 0 unless every coin is 0; for x_i = 0 it is 1
    assert replay_never_probability(d, coins, "1010", "00") == pytest.approx(
        0.0 if any(coins) else 1.0, abs=1e-10)
    assert replay_never_probability(d, coins, "0101", "00") == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo agreement


def test_monte_carlo_matches_exact():
    d, _ = make_coin()
    exact = evaluate_demerlinized(d, "0", "1").p_accept
    est, _ = sample_demerlinized(d, "0", "1", shots=50_000, seed=3)
    assert agrees_within_sigma(est, exact, 50_000)


def test_monte_carlo_no_instance():
    d, _ = make_rac()
    est, _ = sample_demerlinized(d, "0101", "00", shots=5_000, seed=1)
    assert est == 0.0


# ---------------------------------------------------------------------------
# amplified wrapping equivalence and resources


def test_wrapped_identity_plan_matches_base():
    # running the loop on build_outer(build_inner(p, 1), 1) must reproduce the
    # bare protocol's acceptance: the wrapper only adds bookkeeping qubits
    p, f = rac_claim_protocol(2)
    wrapped = build_outer(build_inner(p, 1), 1)
    d_base = demerlinize(p, identity_plan(p.alice_qubits, 1), f=f)
    d_wrap = demerlinize(wrapped, identity_plan(wrapped.alice_qubits, 1), f=f)
    for (x, y) in (("10", "0"), ("10", "1")):
        a = evaluate_demerlinized(d_base, x, y).p_accept
        b = evaluate_demerlinized(d_wrap, x, y).p_accept
        assert b == pytest.approx(a, abs=1e-9)


def test_resource_report_counts():
    d, _ = make_rac()
    r = resource_report(d)
    base_gates = len(d.base.verifier.gates)
    assert r.gates == d.t_rounds * (2 * base_gates + 2 * d.witness_qubits + 3)
    assert r.qubits == d.base.verifier.n_qubits + 1 + d.counter_qubits
    # emitted circuit agrees up to coins that skip witness-prep X gates
    coins = [1] * d.t_rounds
    assert len(emitted_circuit(d, coins).gates) == r.gates


def test_resource_scales_linearly_in_u():
    p, _ = coin_protocol(yes_prob=2 / 3, no_prob=0.15)
    inner = build_inner(p, 1)
    gates = []
    for u in (1, 3, 5):
        outer = build_outer(inner, u)
        d = DemerlinizedProtocol(base=outer, f=None)
        gates.append(resource_report(d).gates)
    assert gates[1] - gates[0] == gates[2] - gates[1]


def test_final_vote_restores_standard_convention():
    from demerlab.amplify import binom_tail
    from demerlab.demerlin import final_vote_acceptance, plan_final_vote

    # the loop's formal guarantee shape: yes at least 1/9, no far below it
    vote = plan_final_vote(yes_floor=1.0 / 9.0, no_ceiling=1e-6)
    assert vote.certified_yes >= 2.0 / 3.0
    assert vote.certified_no <= 1.0 / 3.0
    # exact acceptance mapping is the binomial tail at the vote threshold
    assert final_vote_acceptance(0.2, vote) == pytest.approx(
        binom_tail(vote.repetitions, 0.2, vote.threshold))
    # minimality: one fewer repetition cannot certify with any threshold
    r = vote.repetitions - 1
    assert r == 0 or all(
        not (binom_tail(r, 1.0 / 9.0, k) >= 2.0 / 3.0
             and binom_tail(r, 1e-6, k) <= 1.0 / 3.0)
        for k in range(1, r + 1))


def _scan_every_threshold(yes_floor, no_ceiling):
    """Reference: the first (r, k) in a scan of every threshold at every r."""
    from demerlab.amplify import binom_tail

    for r in range(1, 500):
        for k in range(1, r + 1):
            if (binom_tail(r, yes_floor, k) >= 2.0 / 3.0
                    and binom_tail(r, no_ceiling, k) <= 1.0 / 3.0):
                return r, k


@pytest.mark.parametrize("kwargs", [
    {}, {"no_ceiling": 1e-6}, {"yes_floor": 0.5}, {"yes_floor": 0.02},
    {"yes_floor": 0.5, "no_ceiling": 0.1}, {"yes_floor": 0.3, "no_ceiling": 0.05},
    {"yes_floor": 0.9, "no_ceiling": 0.5}, {"yes_floor": 0.6, "no_ceiling": 0.3},
    {"yes_floor": 0.2, "no_ceiling": 0.1}, {"yes_floor": 1.0, "no_ceiling": 0.0}])
def test_final_vote_matches_a_scan_of_every_threshold(kwargs):
    from demerlab.demerlin import plan_final_vote

    vote = plan_final_vote(**kwargs)
    assert (vote.repetitions, vote.threshold) == _scan_every_threshold(vote.yes_floor,
                                                                       vote.no_ceiling)


def test_final_vote_close_separation():
    from demerlab.demerlin import plan_final_vote

    # a scan of every threshold at every r also gives (293, 56)
    vote = plan_final_vote(yes_floor=0.2, no_ceiling=0.18)
    assert (vote.repetitions, vote.threshold) == (293, 56)
    assert vote.certified_yes >= 2.0 / 3.0 and vote.certified_no <= 1.0 / 3.0


def test_final_vote_needs_separation():
    from demerlab.demerlin import plan_final_vote

    with pytest.raises(ValueError, match="strictly below"):
        plan_final_vote(yes_floor=0.2, no_ceiling=0.5)


def test_cli_toy_registry():
    for name in ("coin", "rac2", "rac4"):
        p, f = demerlin_toy(name)
        assert f.pairs()
    with pytest.raises(ValueError, match="unknown toy"):
        demerlin_toy("nope")


# ---------------------------------------------------------------------------
# per-input work done once


def test_precondition_runs_the_verifier_once_per_no_side_bob_input(monkeypatch):
    p, f = rac_claim_protocol(4)
    widths = []
    apply = UnitaryCircuit.apply

    def counting(self, amps):
        widths.append(amps.shape[1])
        return apply(self, amps)

    monkeypatch.setattr(UnitaryCircuit, "apply", counting)
    demerlinize(p, identity_plan(p.alice_qubits, 1), f=f)
    no_side = {}
    for (x, y), v in f.pairs():
        if v == 0:
            no_side.setdefault(y, []).append(x)
    assert len(no_side) == 4 and len(widths) == 4
    # one run per y, on 2^W columns for each of its no-side x
    assert sorted(widths) == sorted(2 * len(xs) for xs in no_side.values())


def test_initial_columns_are_built_once_and_read_only():
    p, _ = rac_claim_protocol(4)
    cols = demerlin_mod._initial_columns(p, "1011")
    assert demerlin_mod._initial_columns(p, "1011") is cols
    assert cols.shape == (2 ** (p.verifier.n_qubits - p.bob_bits), 1)
    with pytest.raises(ValueError, match="read-only"):
        cols[0, 0] = 0.0


def random_basis(rng, dim, k):
    return np.linalg.qr(rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k)))[0]


def test_new_directions_of_spanned_columns_skip_the_svd(monkeypatch):
    rng = np.random.default_rng(3)
    basis = random_basis(rng, 16, 4)
    cols = basis @ (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))

    def no_svd(*args, **kwargs):
        raise AssertionError("svd called on columns inside the basis")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert demerlin_mod._new_directions(basis, cols).shape == (16, 0)


def test_new_directions_grow_the_basis_by_one_new_direction():
    rng = np.random.default_rng(4)
    basis = random_basis(rng, 16, 4)
    outside = rng.normal(size=(16, 1)) + 1j * rng.normal(size=(16, 1))
    cols = np.hstack([basis[:, :2] + 0.5 * outside, basis[:, 2:3] - outside])
    new = demerlin_mod._new_directions(basis, cols)
    assert new.shape == (16, 1)
    grown = np.hstack([basis, new])
    np.testing.assert_allclose(grown.conj().T @ grown, np.eye(5), atol=1e-12)
    residual = outside - grown @ (grown.conj().T @ outside)
    assert np.linalg.norm(residual) < 1e-12
