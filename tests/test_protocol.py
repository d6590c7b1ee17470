import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demerlab.advice import _branch_kraus, _witness_effect
from demerlab.amplify import build_inner, build_outer, desk_plan, identity_plan
from demerlab.demerlin import _initial_columns, demerlinize, evaluate_demerlinized
from demerlab.protocol import (
    CommunicationFunction,
    OneWayQmaProtocol,
    advice_amplitudes,
    audit_protocol,
    block_circuit,
    induced_witness_operator,
    optimal_acceptances,
    optimal_witness,
    project,
    protocol_layout,
    rest_columns,
    rest_projector,
    witness_operators,
)
from demerlab.qcore import (
    Gate,
    UnitaryCircuit,
    basis_state,
    complex_gaussian,
    ry_gate,
    x_gate,
)
from demerlab.toys import (
    DEMERLIN_TOYS,
    coin_protocol,
    demerlin_toy,
    rac_claim_protocol,
    table_protocol,
)
from conftest import (
    per_gate_apply,
    perturbed_rac_protocol,
    rac_plain_protocol,
    random_density,
    random_state,
    random_unitary,
)
from test_qcore import dense_apply


def direct_acceptance(p: OneWayQmaProtocol, x: str, y: str, witness: np.ndarray) -> float:
    """Independent oracle: simulate the full input vector and read the accept bit."""
    psi = p.advice_state(x).amplitudes
    bob = np.zeros(2 ** p.bob_bits, dtype=complex)
    bob[int(y, 2) if y else 0] = 1.0
    anc = np.zeros(2 ** p.ancilla_qubits, dtype=complex)
    anc[0] = 1.0
    vec = np.kron(np.kron(np.kron(bob, psi), witness), anc)
    out = p.verifier.apply(vec)
    n = p.verifier.n_qubits
    idx = np.arange(2 ** n)
    mask = ((idx >> (n - 1 - p.accept_qubit)) & 1) == 1
    return float(np.sum(np.abs(out[mask]) ** 2))


# ---------------------------------------------------------------------------
# communication functions


def test_function_validation():
    with pytest.raises(ValueError, match="nonempty"):
        CommunicationFunction(1, 1, {})
    with pytest.raises(ValueError, match="widths"):
        CommunicationFunction(1, 1, {("00", "0"): 1})
    with pytest.raises(ValueError, match="not a bit"):
        CommunicationFunction(1, 1, {("0", "0"): 2})


def test_partial_function_pairs_skip_undefined():
    f = CommunicationFunction(1, 1, {("0", "0"): 1})
    assert f.value("0", "1") is None
    assert f.pairs() == [(("0", "0"), 1)]


# ---------------------------------------------------------------------------
# induced witness operator


def witness_independent_protocol() -> OneWayQmaProtocol:
    """No Bob bits; rotates its accept ancilla to 0.4 whatever the witness."""
    layout = protocol_layout(0, 1, 1, 1)
    accept = layout.offset("ancilla")
    circ = UnitaryCircuit(3, (ry_gate(accept, 2 * np.arcsin(np.sqrt(0.4))),))
    return OneWayQmaProtocol(
        bob_bits=0, alice_qubits=1, witness_qubits=1, ancilla_qubits=1,
        verifier=circ, accept_qubit=accept,
        alice_encode=lambda x: basis_state(1, "0"))


def test_witness_independent_verifier(rng):
    p = witness_independent_protocol()
    w = induced_witness_operator(p, "0", "")
    assert np.allclose(w, 0.4 * np.eye(2), atol=1e-9)
    lam, _ = optimal_witness(p, "0", "")
    assert lam == pytest.approx(0.4, abs=1e-9)


def test_accept_on_one_witness():
    p, _ = rac_claim_protocol(2)
    w = induced_witness_operator(p, "11", "0")
    assert np.allclose(w, np.diag([0.0, 1.0]), atol=1e-12)
    lam, wit = optimal_witness(p, "11", "0")
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert abs(wit.amplitudes[1]) == pytest.approx(1.0, abs=1e-9)


def test_induced_operator_matches_direct_simulation(rng):
    # random 1-qubit-witness verifier: <phi|W|phi> equals direct simulation
    gates = []
    for q in (1, 2, 3):
        gates.append(ry_gate(q, float(rng.uniform(0, np.pi))))
    gates.append(Gate("u", (3,), random_unitary(2, rng), controls=(2,), control_values=(1,)))
    gates.append(Gate("v", (1,), random_unitary(2, rng), controls=(0, 3), control_values=(1, 1)))
    circ = UnitaryCircuit(4, tuple(gates))
    p = OneWayQmaProtocol(
        bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=1,
        verifier=circ, accept_qubit=3,
        alice_encode=lambda x: basis_state(1, "0"))
    w = induced_witness_operator(p, "0", "1")
    for _ in range(50):
        phi = random_state(1, rng).amplitudes
        expected = direct_acceptance(p, "0", "1", phi)
        assert np.real(phi.conj() @ w @ phi) == pytest.approx(expected, abs=1e-9)


def test_optimal_witness_beats_random_search(rng):
    p, _ = coin_protocol(witness_angle=0.9)
    lam, _ = optimal_witness(p, "0", "1")
    best = 0.0
    for _ in range(10_000):
        phi = random_state(1, rng).amplitudes
        best = max(best, direct_acceptance(p, "0", "1", phi))
    assert best <= lam + 1e-9
    assert lam - best <= 1e-3  # the random search certifies lambda from below


def test_mixed_witness_dominance(rng):
    p, _ = coin_protocol(witness_angle=0.5)
    w = induced_witness_operator(p, "0", "1")
    lam, _ = optimal_witness(p, "0", "1")
    for _ in range(100):
        sigma = random_density(1, rng)
        assert float(np.real(np.trace(w @ sigma.matrix))) <= lam + 1e-9


def test_lambda_invariant_under_witness_unitary(rng):
    p, _ = coin_protocol(witness_angle=0.3)
    lam, _ = optimal_witness(p, "0", "1")
    u = random_unitary(2, rng)
    witness_q = p.layout.offset("witness")
    pre = Gate("u", (witness_q,), u)
    circ = UnitaryCircuit(p.verifier.n_qubits, (pre,) + p.verifier.gates)
    rotated = OneWayQmaProtocol(
        bob_bits=p.bob_bits, alice_qubits=p.alice_qubits,
        witness_qubits=p.witness_qubits, ancilla_qubits=p.ancilla_qubits,
        verifier=circ, accept_qubit=p.accept_qubit, alice_encode=p.alice_encode)
    lam_rot, _ = optimal_witness(rotated, "0", "1")
    assert lam_rot == pytest.approx(lam, abs=1e-9)


# ---------------------------------------------------------------------------
# audits


def test_audit_always_reject_trivial():
    circ = UnitaryCircuit(4, ())  # empty verifier never flips the accept bit
    p = OneWayQmaProtocol(
        bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=1,
        verifier=circ, accept_qubit=3,
        alice_encode=lambda x: basis_state(1, "0"))
    f = CommunicationFunction(1, 1, {("0", "0"): 0, ("0", "1"): 0})
    assert audit_protocol(p, f).passed


def test_audit_rac_instance_exhaustive():
    p, f = rac_claim_protocol(2)
    audit = audit_protocol(p, f)
    assert audit.passed
    assert all(r.lam in (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))
               for r in audit.records)


def test_audit_plain_protocol_without_witness():
    # w = 0 reduces to the plain one-way success condition
    p, f = rac_plain_protocol(2)
    audit = audit_protocol(p, f)
    assert audit.passed
    w = induced_witness_operator(p, "10", "0")
    assert w.shape == (1, 1)
    assert w[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_audit_reports_exact_violation_set():
    p, f = perturbed_rac_protocol(2, bad_index=1)
    audit = audit_protocol(p, f)
    assert not audit.passed
    violated = {(r.x, r.y) for r in audit.violations()}
    expected = {(x, "1") for x in ("00", "01", "10", "11") if x[1] == "0"}
    assert violated == expected


def test_audit_missing_encoding():
    p, f = rac_claim_protocol(2)
    broken = OneWayQmaProtocol(
        bob_bits=p.bob_bits, alice_qubits=p.alice_qubits,
        witness_qubits=p.witness_qubits, ancilla_qubits=p.ancilla_qubits,
        verifier=p.verifier, accept_qubit=p.accept_qubit,
        alice_encode=lambda x: (_ for _ in ()).throw(ValueError(f"missing encoding for {x!r}")))
    with pytest.raises(ValueError, match="missing encoding"):
        audit_protocol(broken, f)


# ---------------------------------------------------------------------------
# slicing helpers


def rest_identity(p):
    return np.eye(2 ** (p.verifier.n_qubits - p.bob_bits), dtype=complex)


def test_block_circuit_blocks_are_unitary():
    p, _ = rac_claim_protocol(2)
    for y in ("0", "1"):
        block = block_circuit(p, y).apply(rest_identity(p))
        assert np.allclose(block @ block.conj().T, np.eye(block.shape[0]), atol=1e-9)


@pytest.mark.parametrize("build", [lambda: rac_claim_protocol(2), coin_protocol])
def test_block_circuit_is_the_block_of_the_full_unitary(build):
    p, _ = build()
    full = p.verifier.to_matrix()
    dim_rest = 2 ** (p.verifier.n_qubits - p.bob_bits)
    for y_index in range(2 ** p.bob_bits):
        y = format(y_index, f"0{p.bob_bits}b")
        lo, hi = y_index * dim_rest, (y_index + 1) * dim_rest
        np.testing.assert_allclose(block_circuit(p, y).apply(rest_identity(p)),
                                   full[lo:hi, lo:hi], rtol=0, atol=1e-12)


def test_block_circuit_is_built_once_and_keeps_only_matching_bob_controls():
    p, _ = coin_protocol()  # one rotation under Bob bit 1, one under Bob bit 0
    block = block_circuit(p, "1")
    assert block_circuit(p, "1") is block
    (g,) = block.gates
    assert block.n_qubits == 2 and g.targets == (0,)
    assert g.controls == (1,) and g.control_values == (1,)
    np.testing.assert_array_equal(g.matrix, p.verifier.gates[0].matrix)


def test_rest_projector_keeps_the_dense_cap():
    p = OneWayQmaProtocol(
        bob_bits=1, alice_qubits=12, witness_qubits=0, ancilla_qubits=0,
        verifier=UnitaryCircuit(13, ()), accept_qubit=1,
        alice_encode=lambda x: basis_state(12, 0))
    with pytest.raises(ValueError, match="capped at 12 qubits"):
        rest_projector(p, "0", outcome=1)


def test_rest_projector_is_projector():
    p, _ = coin_protocol()
    pr = rest_projector(p, "1", outcome=0)
    assert np.allclose(pr @ pr, pr, atol=1e-9)
    assert np.allclose(pr, pr.conj().T, atol=1e-9)
    # outcome projectors resolve the identity
    pa = rest_projector(p, "1", outcome=1)
    assert np.allclose(pr + pa, np.eye(pr.shape[0]), atol=1e-9)


def bob_targeting_protocol(gates):
    return OneWayQmaProtocol(
        bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=0,
        verifier=UnitaryCircuit(3, gates), accept_qubit=1,
        alice_encode=lambda x: basis_state(1, "0"))


def test_block_circuit_rejects_non_block_diagonal():
    p = bob_targeting_protocol((ry_gate(0, 0.4),))  # rotates Bob's register
    with pytest.raises(ValueError, match="block diagonal"):
        block_circuit(p, "0")


def test_a_build_that_raises_caches_nothing():
    p = bob_targeting_protocol((ry_gate(0, 0.4),))
    _initial_columns(p, "0")  # needs no verifier run: it and its advice amplitudes are cached
    before = dict(p._operators)
    for _ in range(2):
        with pytest.raises(ValueError, match="block diagonal"):
            block_circuit(p, "0")
    assert p._operators == before and len(before) == 2


def test_each_advice_state_is_built_once_per_input():
    """The precondition's witness operators and the loop's start columns share one
    read-only copy of each input's advice amplitudes."""
    p, f = rac_claim_protocol(4)
    encoded = []
    p = dataclasses.replace(p, alice_encode=lambda x, enc=p.alice_encode: encoded.append(x)
                            or enc(x))
    d = demerlinize(p, identity_plan(p.alice_qubits, 1), f=f)
    for (x, y), _ in f.pairs():
        evaluate_demerlinized(d, x, y)
    assert sorted(encoded) == sorted(f.alice_inputs())
    amps = advice_amplitudes(p, encoded[0])
    assert amps is advice_amplitudes(p, encoded[0]) and not amps.flags.writeable


def test_memo_takes_positional_arguments_only():
    p, _ = coin_protocol()
    kraus = _branch_kraus(p, "1", "0", 1)
    assert _branch_kraus(p, "1", "0", 1) is kraus
    assert block_circuit(p, "1") is block_circuit(p, "1")
    assert _branch_kraus(p, "1", "0", 0) is not kraus
    before = dict(p._operators)
    with pytest.raises(TypeError, match="unexpected keyword argument 'keep_outcome'"):
        _branch_kraus(p, "1", "0", keep_outcome=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'y'"):
        block_circuit(p, y="0")
    assert p._operators == before


def test_a_gate_on_a_bob_qubit_is_rejected_even_when_undone():
    """Flipping Bob's bit and flipping it back leaves V block diagonal, but the
    verifier still writes Bob's classical input, which the model forbids."""
    p = bob_targeting_protocol((x_gate(0), x_gate(0)))
    with pytest.raises(ValueError, match="block diagonal"):
        project(p, "0", rest_identity(p), 0)
    d = demerlinize(p, identity_plan(p.alice_qubits, p.witness_qubits))
    with pytest.raises(ValueError, match="block diagonal"):
        evaluate_demerlinized(d, "0", "0")


ENTRY_POINTS = {
    "block_circuit": lambda p, y: block_circuit(p, y).apply(rest_identity(p)),
    "rest_projector": lambda p, y: rest_projector(p, y, outcome=1),
    "induced_witness_operator": lambda p, y: induced_witness_operator(p, "0", y),
    "evaluate_demerlinized": lambda p, y: evaluate_demerlinized(
        demerlinize(p, identity_plan(p.alice_qubits, p.witness_qubits)), "0", y),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("build, y", [
    (lambda: coin_protocol()[0], ""),
    (lambda: coin_protocol()[0], "01"),
    (witness_independent_protocol, "0"),  # no Bob bits: only y = "" fits
])
def test_bob_input_must_have_bob_bits(entry, build, y):
    with pytest.raises(ValueError, match="Bob input"):
        ENTRY_POINTS[entry](build(), y)


# ---------------------------------------------------------------------------
# the verifier-operator kernel against a dense oracle


def dense_projectors(p, y):
    """{o: V' Pi_o V} on the rest space for Bob input y, from a dense V built
    gate by gate with `dense_apply`, a route that never runs `block_circuit`."""
    n = p.verifier.n_qubits
    full = np.eye(2 ** n, dtype=complex)
    for g in p.verifier.gates:
        full = dense_apply(full, g, n)
    dim = 2 ** (n - p.bob_bits)
    lo = (int(y, 2) if y else 0) * dim
    v = full[lo:lo + dim, lo:lo + dim]
    bits = (np.arange(lo, lo + dim) >> (n - 1 - p.accept_qubit)) & 1
    return {o: v.conj().T @ np.diag((bits == o).astype(complex)) @ v for o in (0, 1)}


@st.composite
def block_diagonal_protocols(draw, witness=(0, 2), ancilla=(1, 2)):
    """A random verifier whose gates read Bob's bits only as controls, with a Bob
    input y, a classical witness z and an outcome. Bob's and the advice register
    have at most 2 qubits; the witness and ancilla widths lie in the given ranges."""
    b, a, w, c = (draw(st.integers(lo, hi)) for lo, hi in ((0, 2), (1, 2), witness, ancilla))
    n = b + a + w + c
    rest = list(range(b, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        targets = draw(st.permutations(rest))[:draw(st.integers(1, min(2, len(rest))))]
        others = draw(st.permutations([q for q in range(n) if q not in targets]))
        controls = tuple(others[:draw(st.integers(0, min(2, len(others))))])
        values = tuple(draw(st.lists(st.integers(0, 1), min_size=len(controls),
                                     max_size=len(controls))))
        gates.append(Gate("u", tuple(targets), random_unitary(2 ** len(targets), rng),
                          controls, values))
    psi = random_state(a, rng)
    p = OneWayQmaProtocol(
        bob_bits=b, alice_qubits=a, witness_qubits=w, ancilla_qubits=c,
        verifier=UnitaryCircuit(n, tuple(gates)),
        accept_qubit=draw(st.sampled_from(rest)), alice_encode=lambda x: psi)
    y = format(draw(st.integers(0, 2 ** b - 1)), f"0{b}b") if b else ""
    z = format(draw(st.integers(0, 2 ** w - 1)), f"0{w}b") if w else ""
    return p, y, z, draw(st.integers(0, 1))


@given(block_diagonal_protocols())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_dense_oracle(case):
    p, y, z, b = case
    proj = dense_projectors(p, y)
    dim = proj[0].shape[0]
    anc = np.eye(2 ** p.ancilla_qubits)[:, :1]
    c_x = np.kron(p.advice_state("0").amplitudes[:, None],
                  np.kron(np.eye(2 ** p.witness_qubits), anc))
    env = np.kron(np.eye(2 ** p.witness_qubits)[:, [int(z, 2) if z else 0]], anc)
    c_z = np.kron(np.eye(2 ** p.alice_qubits), env)
    tol = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(project(p, y, np.eye(dim, dtype=complex), b), proj[b], **tol)
    np.testing.assert_allclose(induced_witness_operator(p, "0", y),
                               c_x.conj().T @ proj[1] @ c_x, **tol)
    kraus = _branch_kraus(p, y, z, b)
    np.testing.assert_allclose(sum(k.conj().T @ k for k in kraus),
                               c_z.conj().T @ proj[b] @ c_z, **tol)
    np.testing.assert_allclose(_witness_effect(p, y, z), c_z.conj().T @ proj[1] @ c_z, **tol)


# ---------------------------------------------------------------------------
# one verifier run per Bob input


def amplified_coin_u3():
    base, f = coin_protocol(0.75, 0.25, witness_angle=0.7)
    plan = desk_plan(1, 1, Fraction(1, 4))
    assert plan.u == 3
    return build_outer(build_inner(base, plan.ell), plan.u), f


def amplified_coin_u5(angle: float) -> OneWayQmaProtocol:
    base, _ = coin_protocol(0.7, 0.3, witness_angle=angle)
    plan = desk_plan(1, 1, Fraction(3, 10))
    assert plan.u == 5
    return build_outer(build_inner(base, plan.ell), plan.u)


FUSED_BLOCK_CASES = {
    **{name: lambda name=name: demerlin_toy(name)[0] for name in DEMERLIN_TOYS},
    **{f"table{n}": lambda n=n: table_protocol(n, 0.7) for n in (1, 2, 3)},
    "coin-u3": lambda: amplified_coin_u3()[0],
    "coin-u5-angle0": lambda: amplified_coin_u5(0.0),
    "coin-u5-angle0.7": lambda: amplified_coin_u5(0.7),
}


@pytest.mark.parametrize("name", sorted(FUSED_BLOCK_CASES))
def test_fused_blocks_match_per_gate_kernel(name, rng):
    """Every Bob input's block and its inverse, fused, against one step per gate."""
    p = FUSED_BLOCK_CASES[name]()
    for y in (format(v, f"0{p.bob_bits}b") for v in range(2 ** p.bob_bits)):
        block = block_circuit(p, y)
        cols = complex_gaussian(rng, (block.dim, 3))
        cols /= np.linalg.norm(cols, axis=0)
        for circ in (block, block.inverse()):
            np.testing.assert_allclose(circ.apply(cols), per_gate_apply(circ, cols),
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("make", [lambda: rac_claim_protocol(4), coin_protocol, amplified_coin_u3],
                         ids=["rac4", "coin", "coin-u3"])
def test_witness_operators_equal_one_input_calls(make):
    """The batch is split per x after one run; a column's result does not depend
    on which other columns ran beside it, to the last bit."""
    p, f = make()
    xs = f.alice_inputs()
    for y in sorted({y for (_, y), _ in f.pairs()}):
        ws = witness_operators(p, y, xs)
        assert len(ws) == len(xs)
        for x, w in zip(xs, ws):
            assert w.shape == (2 ** p.witness_qubits,) * 2
            assert np.array_equal(w, induced_witness_operator(p, x, y))


def test_audit_records_keep_pair_order():
    p, f = rac_claim_protocol(4)
    audit = audit_protocol(p, f)
    assert [(r.x, r.y, r.f_value) for r in audit.records] == [
        (x, y, v) for (x, y), v in f.pairs()]
    assert all(r.lam == optimal_witness(p, r.x, r.y)[0] for r in audit.records)


@pytest.mark.parametrize("make", [lambda: rac_claim_protocol(4), coin_protocol, amplified_coin_u3],
                         ids=["rac4", "coin", "coin-u3"])
def test_stacked_optimal_acceptances_equal_one_pair_calls(make):
    p, f = make()
    pairs = [pair for pair, _ in f.pairs()]
    lams = optimal_acceptances(p, pairs)
    assert all(lams[x, y] == optimal_witness(p, x, y)[0] for x, y in pairs)


def test_rest_columns_are_np_kron_products(rng):
    # negative and complex advice entries times the 0/1 factors give signed zeros,
    # which must match np.kron's too
    p, _ = rac_claim_protocol(4)
    anc = np.eye(2 ** p.ancilla_qubits, 1, dtype=complex)
    for advice, witness in [(random_unitary(16, rng)[:, :3], np.eye(2, dtype=complex)),
                            (random_unitary(16, rng), np.eye(2, 1, dtype=complex)),
                            (-np.ones((16, 1), dtype=complex), np.eye(2, dtype=complex))]:
        want = np.kron(advice, np.kron(witness, anc))
        assert rest_columns(p, advice, witness).tobytes() == want.tobytes()


def test_alice_inputs_are_sorted_once_per_function():
    f = CommunicationFunction(2, 1, {("10", "0"): 1, ("01", "1"): 0, ("10", "1"): 0})
    assert f.alice_inputs() == ("01", "10")
    assert f.alice_inputs() is f.alice_inputs()


def test_optimal_acceptances_follow_the_given_order():
    p, f = rac_claim_protocol(2)
    pairs = [pair for pair, _ in reversed(f.pairs())]
    lams = optimal_acceptances(p, pairs)
    assert list(lams) == pairs
    assert all(lams[x, y] == optimal_witness(p, x, y)[0] for x, y in pairs)
