import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demerlab.qcore import (
    DensityMatrix,
    Gate,
    RegisterLayout,
    StateVector,
    TwoOutcomeMeasurement,
    UnitaryCircuit,
    apply_kraus,
    average_channel_power,
    basis_state,
    cnot,
    complex_gaussian,
    majority_gate,
    measure_two_outcome,
    mcx,
    ry_gate,
    increment_gate,
    counter_threshold_gate,
    kron_pairs,
    kron_power,
    top_eigenpair,
    trace_distance,
)
import demerlab.qcore as qcore_mod
from conftest import (
    h_gate,
    maximally_mixed,
    per_kraus_channel_power,
    random_density,
    random_effect,
    random_state,
    random_unitary,
    tensor_product,
    two_call_gaussian,
)



def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def plus_state():
    return StateVector(ket(1, 1))


# ---------------------------------------------------------------------------
# layouts and construction invariants


def test_layout_rejects_name_collision():
    with pytest.raises(ValueError, match="collision"):
        RegisterLayout.of(("a", 1), ("a", 2))


def test_layout_rejects_unknown_register():
    with pytest.raises(ValueError, match="unknown register"):
        RegisterLayout.of(("q", 1)).offset("nope")


def test_state_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0]))


def test_density_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_state_length_is_a_power_of_two_within_the_cap():
    with pytest.raises(ValueError, match="not a power of 2"):
        StateVector(np.ones(3) / np.sqrt(3.0))
    big = np.zeros(2 ** 17, dtype=complex)
    big[0] = 1.0
    with pytest.raises(ValueError, match="needs 17 qubits, cap is 16"):
        StateVector(big)
    assert StateVector(np.ones(1)).amplitudes.shape == (1,)  # no qubits is one amplitude


def test_density_size_is_a_square_power_of_two_within_the_cap():
    with pytest.raises(ValueError, match="not a power of 2"):
        DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 4)) / 2.0)
    # a broadcast view of one complex zero: the 2^13-square matrix is never allocated
    big = np.broadcast_to(np.complex128(0.0), (2 ** 13, 2 ** 13))
    with pytest.raises(ValueError, match="needs 13 qubits, cap is 12"):
        DensityMatrix(big)
    assert DensityMatrix(np.ones((1, 1))).dim == 1


def test_basis_state_takes_a_qubit_count():
    assert np.flatnonzero(basis_state(3, "011").amplitudes).tolist() == [3]
    assert np.flatnonzero(basis_state(2, 2).amplitudes).tolist() == [2]
    with pytest.raises(ValueError, match="length 2 != 3 qubits"):
        basis_state(3, "01")
    with pytest.raises(ValueError, match="cap is 16"):  # raised before 2^40 amplitudes exist
        basis_state(40, 0)


@pytest.mark.parametrize("shape", [4, (2, 2), (16, 16)])
def test_complex_gaussian_is_the_two_call_draw(shape):
    rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
    got, want = complex_gaussian(rng, shape), two_call_gaussian(oracle, shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.random() == oracle.random()


# ---------------------------------------------------------------------------
# tensor product


def test_tensor_basis_case():
    a = basis_state(1, "0").density()
    b = basis_state(1, "0").density()
    out = tensor_product(a, b)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(out.matrix, expected)


def test_kron_pairs_match_np_kron(rng):
    a = random_density(1, rng).matrix, random_density(1, rng).matrix
    b = random_density(2, rng).matrix, random_density(2, rng).matrix
    got = kron_pairs(np.array(a), np.array(b))
    assert got.tobytes() == np.array([np.kron(x, y) for x, y in zip(a, b)]).tobytes()


def test_tensor_maximally_mixed_composes():
    a = maximally_mixed(1)
    b = maximally_mixed(1)
    assert np.allclose(tensor_product(a, b).matrix, np.eye(4) / 4)


def test_tensor_matches_kronecker_oracle():
    # |+><+| (x) |1><1| against an explicit index-loop Kronecker product
    a = plus_state().density()
    b = basis_state(1, "1").density()
    out = tensor_product(a, b)
    oracle = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    oracle[i * 2 + k, j * 2 + l] = a.matrix[i, j] * b.matrix[k, l]
    assert np.allclose(out.matrix, oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# trace distance


def test_trace_distance_basics():
    assert trace_distance(plus_state(), plus_state()) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(basis_state(1, "0"), basis_state(1, "1")) == pytest.approx(1.0, abs=1e-9)
    assert trace_distance(basis_state(1, "0"), plus_state()) == pytest.approx(
        np.sqrt(0.5), abs=1e-9)


def test_trace_distance_singular_value_oracle(rng):
    rho, sigma = random_density(2, rng), random_density(2, rng)
    oracle = 0.5 * np.linalg.svd(rho.matrix - sigma.matrix, compute_uv=False).sum()
    assert trace_distance(rho, sigma) == pytest.approx(oracle, abs=1e-9)


def test_dimension_mismatch_raises(rng):
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_distance(random_density(1, rng), random_density(2, rng))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_trace_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_density(1, rng) for _ in range(3))
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


def test_orthonormal_basis_averages_to_identity(rng):
    # (1/N) sum |psi_j><psi_j| = I/N-normalized identity for any orthonormal basis
    dim = 8
    u = random_unitary(dim, rng)
    avg = sum(np.outer(u[:, j], u[:, j].conj()) for j in range(dim)) / dim
    assert np.allclose(avg, np.eye(dim) / dim, atol=1e-9)


# ---------------------------------------------------------------------------
# two-outcome measurements


def test_apply_kraus_matches_explicit_sum(rng):
    rho = random_density(2, rng).matrix
    kraus = [random_unitary(4, rng) / np.sqrt(3) for _ in range(3)]
    expected = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(apply_kraus(rho, kraus), expected, atol=1e-14)
    assert np.trace(apply_kraus(rho, kraus)).real == pytest.approx(1.0, abs=1e-12)
    assert not apply_kraus(rho, []).any()


@settings(max_examples=60, deadline=None)
@given(n_kraus=st.integers(1, 16), d=st.sampled_from([1, 2, 3, 4, 8]),
       batch=st.sampled_from([None, 1, 3]), t=st.integers(0, 20),
       adjoint=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_average_channel_power_matches_per_kraus_loop(n_kraus, d, batch, t, adjoint, seed):
    # d = 1 is where numpy would sum a complex Kraus axis pairwise; `adjoint` passes
    # transposed views, as the loop's dual picture does
    rng = np.random.default_rng(seed)
    shape = (d, d) if batch is None else (batch, d, d)
    kraus = list(complex_gaussian(rng, (n_kraus, *shape)) / np.sqrt(2 * d))
    if adjoint:
        kraus = [k.conj().swapaxes(-1, -2) for k in kraus]
    m = complex_gaussian(rng, shape)
    got = average_channel_power(m, kraus, t)
    assert got.tobytes() == per_kraus_channel_power(m, kraus, t).tobytes()


def test_average_channel_power_of_real_inputs_is_complex():
    kraus = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    m = np.array([[0.75, 0.25], [0.25, 0.25]])
    got = average_channel_power(m, kraus, 3)
    assert got.dtype == complex
    assert got.tobytes() == per_kraus_channel_power(m, kraus, 3).tobytes()


def test_kron_power_matches_kron_chain(rng):
    v = random_state(1, rng).amplitudes
    assert np.array_equal(kron_power(v, 1), v)
    np.testing.assert_allclose(kron_power(v, 3), np.kron(np.kron(v, v), v), atol=0)
    m = random_density(1, rng).matrix
    assert kron_power(m, 2).shape == (4, 4)


def test_measurement_spectrum_validated():
    with pytest.raises(ValueError, match="spectrum"):
        TwoOutcomeMeasurement(np.diag([1.5, 0.0]).astype(complex))


def test_measurement_kraus_completeness(rng):
    m = TwoOutcomeMeasurement(np.diag([0.3, 0.9]).astype(complex))
    assert np.allclose(m.m0.conj().T @ m.m0 + m.m1.conj().T @ m.m1, np.eye(2), atol=1e-12)


def test_measure_certain_outcome(rng):
    rho = random_density(1, rng)
    m = TwoOutcomeMeasurement(np.eye(2, dtype=complex))
    r = measure_two_outcome(rho, m)
    assert r.p1 == pytest.approx(1.0, abs=1e-12)
    assert r.post0 is None
    assert np.allclose(r.post1.matrix, rho.matrix, atol=1e-9)


def test_measure_uniform_effect_leaves_state(rng):
    rho = random_density(1, rng)
    m = TwoOutcomeMeasurement(np.eye(2, dtype=complex) / 2)
    r = measure_two_outcome(rho, m)
    assert r.p1 == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(r.post0.matrix, rho.matrix, atol=1e-9)
    assert np.allclose(r.post1.matrix, rho.matrix, atol=1e-9)


def test_measure_projector_update_oracle():
    m = TwoOutcomeMeasurement(np.diag([0.0, 1.0]).astype(complex))
    r = measure_two_outcome(plus_state(), m)
    assert r.p1 == pytest.approx(0.5, abs=1e-12)
    # projector oracle: post_b = P_b rho P_b / p_b
    rho = plus_state().density().matrix
    p1_proj = np.diag([0.0, 1.0]) @ rho @ np.diag([0.0, 1.0])
    p0_proj = np.diag([1.0, 0.0]) @ rho @ np.diag([1.0, 0.0])
    assert np.allclose(r.post1.matrix, p1_proj / np.trace(p1_proj), atol=1e-12)
    assert np.allclose(r.post0.matrix, p0_proj / np.trace(p0_proj), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_effect_spectrum_is_decomposed_once(n):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.05, 0.9))
        m = random_effect(n, rng, scale=scale)
        assert np.linalg.eigvalsh(m.effect)[-1] == pytest.approx(scale, abs=1e-12)
        eye = np.eye(2 ** n)
        np.testing.assert_allclose(m.m0.conj().T @ m.m0 + m.m1.conj().T @ m.m1, eye, atol=1e-12)
        # the handed-over spectrum gives the Kraus pair a fresh decomposition gives
        ref = TwoOutcomeMeasurement(m.effect)
        np.testing.assert_allclose(m.m0, ref.m0, atol=1e-12)
        np.testing.assert_allclose(m.m1, ref.m1, atol=1e-12)


def test_random_effect_default_scale_is_an_effect():
    m = random_effect(2, np.random.default_rng(3))
    w = np.linalg.eigvalsh(m.effect)
    assert -1e-12 <= w[0] and w[-1] <= 1.0 + 1e-12
    np.testing.assert_allclose(m.m0.conj().T @ m.m0 + m.m1.conj().T @ m.m1, np.eye(4),
                               atol=1e-12)


def test_handed_over_spectrum_is_still_checked():
    v = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="spectrum"):
        TwoOutcomeMeasurement(np.diag([1.5, 0.0]).astype(complex),
                              spectrum=(np.array([0.0, 1.5]), v))
    with pytest.raises(ValueError, match="non-Hermitian"):
        TwoOutcomeMeasurement(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),
                              spectrum=(np.array([0.5, 0.5]), v))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_measurement_conserves_probability(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    e = g @ g.conj().T
    e = e / (np.linalg.eigvalsh(e).max() * float(rng.uniform(1.0, 3.0)))
    m = TwoOutcomeMeasurement(e)
    r = measure_two_outcome(rho, m)
    total = 0.0
    if r.post0 is not None:
        total += r.p0 * np.trace(r.post0.matrix).real
    if r.post1 is not None:
        total += r.p1 * np.trace(r.post1.matrix).real
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# eigenpairs


def test_top_eigenpair_identity():
    lam, vec = top_eigenpair(np.eye(4, dtype=complex))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_top_eigenpair_diagonal():
    lam, vec = top_eigenpair(np.diag([0.2, 0.9]).astype(complex))
    assert lam == pytest.approx(0.9, abs=1e-12)
    assert abs(vec[1]) == pytest.approx(1.0, abs=1e-12)


def test_top_eigenpair_full_spectrum_oracle(rng):
    import scipy.linalg

    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (g + g.conj().T) / 2
    lam, vec = top_eigenpair(h)
    oracle = scipy.linalg.eigh(h, eigvals_only=True)
    assert lam == pytest.approx(oracle[-1], abs=1e-8)
    assert np.linalg.norm(h @ vec - lam * vec) <= 1e-8


def test_top_eigenpair_rejects_non_hermitian():
    with pytest.raises(ValueError, match="non-Hermitian"):
        top_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_stacked_top_eigenpair_matches_one_matrix_calls(d, rng):
    g = complex_gaussian(rng, (5, d, d))
    stack = g + g.conj().swapaxes(1, 2)
    lams, vecs = top_eigenpair(stack)
    assert lams.shape == (5,) and vecs.shape == (5, d)
    for h, lam, vec in zip(stack, lams, vecs):
        one_lam, one_vec = top_eigenpair(h)
        assert lam == one_lam and np.array_equal(vec, one_vec)


def test_stacked_top_eigenpair_runs_both_checks(monkeypatch, rng):
    g = complex_gaussian(rng, (3, 4, 4))
    stack = g + g.conj().swapaxes(1, 2)
    bad = stack.copy()
    bad[1, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="^non-Hermitian input for top_eigenpair$"):
        top_eigenpair(bad)
    monkeypatch.setattr(qcore_mod, "EIG_ATOL", 0.0)
    with pytest.raises(ArithmeticError, match="exceeds 0.0"):
        top_eigenpair(stack)


# ---------------------------------------------------------------------------
# circuits


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError, match="not unitary"):
        Gate("bad", (0,), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not unitary"):  # controls do not bypass the check
        Gate("bad", (0,), np.array([[2.0, 0.0], [0.0, 1.0]]), (1,), (0,))


def test_gate_inverse_of_a_checked_gate_is_its_inverse(rng):
    g = Gate("u", (2, 0), random_unitary(4, rng), (1,), (0,))
    inv = g.inverse()
    assert (inv.targets, inv.controls, inv.control_values) == ((2, 0), (1,), (0,))
    np.testing.assert_allclose(inv.matrix @ g.matrix, np.eye(4), atol=1e-12)
    circ = UnitaryCircuit(3, (g, inv))
    np.testing.assert_allclose(circ.to_matrix(), np.eye(8), atol=1e-12)


def test_rebuilt_gates_keep_the_structural_checks():
    g = cnot(0, 1)
    with pytest.raises(ValueError, match="repeated qubit"):
        g.remapped({0: 2, 1: 2})
    with pytest.raises(ValueError, match="matrix shape"):
        Gate._from_checked("x", (0, 1), g.matrix, (), ())
    with pytest.raises(ValueError, match="length mismatch"):
        Gate._from_checked("x", (0,), g.matrix, (1,), (1, 0))


def test_circuit_inverse_roundtrip(rng):
    circ = UnitaryCircuit(3, (h_gate(0), cnot(0, 1), ry_gate(2, 0.7),
                              mcx((0, 2), 1, (1, 0))))
    mat = circ.to_matrix()
    inv = circ.inverse().to_matrix()
    assert np.allclose(inv @ mat, np.eye(8), atol=1e-9)


def test_circuit_apply_matches_matrix(rng):
    circ = UnitaryCircuit(3, (h_gate(1), cnot(1, 2), ry_gate(0, 1.1)))
    psi = random_state(3, rng).amplitudes
    assert np.allclose(circ.apply(psi), circ.to_matrix() @ psi, atol=1e-9)


def full_operator(g: Gate) -> np.ndarray:
    """Dense oracle: the gate's matrix over (controls + targets), controls as
    the high-order bits, identity off the selected control pattern."""
    if not g.controls:
        return g.matrix
    c, k = len(g.controls), len(g.targets)
    op = np.eye(2 ** (c + k), dtype=complex)
    pat = int("".join(str(v) for v in g.control_values), 2)
    lo, hi = pat * 2 ** k, (pat + 1) * 2 ** k
    op[lo:hi, lo:hi] = g.matrix
    return op


def dense_apply(amps: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Dense oracle: move the gate's qubit axes to the front of the whole
    2^n (x B) tensor and multiply by `full_operator`."""
    positions, k = list(g.qubits), len(g.qubits)
    t = amps.reshape([2] * n + list(amps.shape[1:]))
    t = np.moveaxis(t, positions, list(range(k)))
    rest = t.shape[k:]
    t = full_operator(g) @ t.reshape(2 ** k, -1)
    t = np.moveaxis(t.reshape([2] * k + list(rest)), list(range(k)), positions)
    return t.reshape(amps.shape)


def test_controlled_gate_blocks():
    g = cnot(0, 1)
    op = full_operator(g)
    # control = qubit 0 (high bit): identity on the 0-block, X on the 1-block
    assert np.allclose(op[:2, :2], np.eye(2))
    assert np.allclose(op[2:, 2:], [[0, 1], [1, 0]])
    assert np.array_equal(UnitaryCircuit(2, (g,)).to_matrix(), op)
    # a 0-valued control selects the other block
    g0 = mcx((0,), 1, (0,))
    assert np.array_equal(UnitaryCircuit(2, (g0,)).to_matrix(), full_operator(g0))
    assert np.allclose(full_operator(g0)[:2, :2], [[0, 1], [1, 0]])


@st.composite
def random_gates(draw):
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(3, n)))
        c = draw(st.integers(0, min(3, n - k)))
        qubits = draw(st.permutations(range(n)))
        targets = qubits[:k]
        if draw(st.booleans()):  # targets in descending order
            targets = sorted(targets, reverse=True)
        values = tuple(draw(st.lists(st.integers(0, 1), min_size=c, max_size=c)))
        gates.append(Gate("u", tuple(targets), random_unitary(2 ** k, rng),
                          tuple(qubits[k:k + c]), values))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    shape = (2 ** n,) + batch
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return n, gates, amps


@given(random_gates())
@settings(max_examples=80, deadline=None)
def test_compiled_kernel_matches_dense_oracle(case):
    n, gates, amps = case
    circ = UnitaryCircuit(n, tuple(gates))
    expected = amps
    for g in gates:
        expected = dense_apply(expected, g, n)
    before = amps.copy()
    out = circ.apply(amps)
    assert out.shape == amps.shape
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    assert np.array_equal(amps, before)  # the input is not written
    np.testing.assert_allclose(circ.inverse().apply(out), amps, rtol=0, atol=1e-12)


def test_circuit_compiles_once(rng):
    circ = UnitaryCircuit(3, (h_gate(0), mcx((0, 2), 1, (1, 0)), increment_gate((2, 0))))
    assert circ._steps is None  # nothing is compiled before the first apply
    psi = random_state(3, rng).amplitudes
    first = circ.apply(psi)
    steps = circ._steps
    # mcx on target 1, controls 0=1 and 2=0: the slice keeps qubit 1 and the batch
    # axis; the target comes first and `undo` inverts `order`
    select, order, undo, m = steps[1]
    assert len(steps) == 3 and select == (1, slice(None), 0)
    assert order == (0, 1) and undo == (0, 1) and m.shape == (2, 2)
    select, order, undo, m = steps[0]  # h on qubit 0 of an uncontrolled slice
    assert select == (slice(None),) * 3 and order == (0, 1, 2, 3) and m.shape == (2, 2)
    select, order, undo, m = steps[2]  # targets (2, 0) lead, in the gate's order
    assert select == (slice(None),) * 3 and order == (2, 0, 1, 3) and undo == (1, 2, 0, 3)
    assert m.shape == (4, 4)
    assert circ.apply(np.zeros((8, 0), dtype=complex)).shape == (8, 0)
    assert np.array_equal(circ.apply(psi), first) and circ._steps is steps
    inv = circ.inverse()  # built once, like the steps, and neither compared nor printed
    assert circ.inverse() is inv
    assert circ == UnitaryCircuit(3, circ.gates) and "_inverse" not in repr(circ)
    np.testing.assert_allclose(inv.apply(first), psi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(16,), (4,), (0,), (16, 2), ()])
def test_apply_rejects_wrong_row_count(shape):
    # a 2**(n+1) vector must not run as a batch of columns over its last qubit
    circ = UnitaryCircuit(3, (h_gate(0),))
    with pytest.raises(ValueError, match="needs 8 rows"):
        circ.apply(np.zeros(shape, dtype=complex))


def test_increment_gate_counts():
    circ = UnitaryCircuit(3, (increment_gate((0, 1, 2)),))
    for v in range(8):
        vec = np.zeros(8, dtype=complex)
        vec[v] = 1.0
        out = circ.apply(vec)
        assert abs(out[(v + 1) % 8]) == pytest.approx(1.0)


def test_counter_threshold_gate():
    g = counter_threshold_gate((0, 1), target=2, threshold=2)
    circ = UnitaryCircuit(3, (g,))
    for v in range(4):
        vec = np.zeros(8, dtype=complex)
        vec[v << 1] = 1.0
        out = circ.apply(vec)
        expected_bit = 1 if v >= 2 else 0
        assert abs(out[(v << 1) | expected_bit]) == pytest.approx(1.0)


def test_majority_gate_popcount():
    g = majority_gate((0, 1, 2), target=3)
    circ = UnitaryCircuit(4, (g,))
    for v in range(8):
        vec = np.zeros(16, dtype=complex)
        vec[v << 1] = 1.0
        out = circ.apply(vec)
        expected = 1 if bin(v).count("1") >= 2 else 0
        assert abs(out[(v << 1) | expected]) == pytest.approx(1.0)
