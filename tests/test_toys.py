"""Sanity checks on the shipped toys: the promise values the audits rely on."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demerlab.protocol import audit_protocol, optimal_witness
from demerlab.rac import build_code
from demerlab.toys import (
    coin_protocol,
    hint_table_verifier,
    rac_claim_protocol,
    table_qcma_verifier,
)


def test_coin_promise_values():
    p, f = coin_protocol()
    lam_yes, wit = optimal_witness(p, "0", "1")
    lam_no, _ = optimal_witness(p, "0", "0")
    assert lam_yes == pytest.approx(2 / 3, abs=1e-9)
    assert lam_no == pytest.approx(1 / 3, abs=1e-9)
    assert abs(wit.amplitudes[1]) == pytest.approx(1.0, abs=1e-9)
    assert audit_protocol(p, f).passed


def test_rotated_coin_optimal_witness_is_superposition():
    p, f = coin_protocol(witness_angle=0.8)
    lam, wit = optimal_witness(p, "0", "1")
    assert lam == pytest.approx(2 / 3, abs=1e-9)  # rotation preserves the spectrum
    assert 0.05 < abs(wit.amplitudes[0]) < 0.95  # but moves the optimizer off-basis
    assert audit_protocol(p, f).passed


@pytest.mark.parametrize("n_bits", [2, 4])
def test_rac_claim_promise_is_zero_one(n_bits):
    p, f = rac_claim_protocol(n_bits)
    for (x, y), v in f.pairs():
        lam, _ = optimal_witness(p, x, y)
        assert lam == pytest.approx(float(v), abs=1e-9)


def test_ma_toy_hint_probabilities():
    from demerlab.advice import _advice_operators

    v = hint_table_verifier(2)
    for x, ops in _advice_operators(v).items():
        # acceptance of basis witness z averaged over the hint draw
        p_claim = [sum(p * ops[r][z, z].real for r, p in zip(v.advice.values, v.advice.probs))
                   for z in (0, 1)]
        assert p_claim[1] == (0.75 if v.language[x] == 1 else 0.25)
        assert p_claim[0] == 0


def test_qma_toy_operators_are_scaled_projectors():
    from demerlab.advice import _advice_operators

    angle = 0.4
    v = hint_table_verifier(2, witness_angle=angle)
    truth, anti = v.advice.values
    claim = np.array([-np.sin(angle / 2), np.cos(angle / 2)])
    for x, ops in _advice_operators(v).items():
        w_good = ops[truth if v.language[x] else anti]
        eigs = np.linalg.eigvalsh(w_good)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-9)
        assert eigs[0] == pytest.approx(0.0, abs=1e-9)
        # the rotated claim state ry(angle)|1>, projected
        assert np.allclose(w_good, np.outer(claim, claim), atol=1e-12)
        assert np.array_equal(ops[anti if v.language[x] else truth], np.zeros((2, 2)))


def test_qcma_toy_base_errors_are_zero():
    v = table_qcma_verifier(1, truth_table="10")
    from demerlab.advice import _witness_effect, _witness_strings

    psi = v.protocol.advice_state(*v.advice.values).amplitudes
    for x in v.inputs():
        for z in _witness_strings(v.protocol.witness_qubits):
            acc = float(np.real(psi.conj() @ _witness_effect(v.protocol, x, z) @ psi))
            if v.language[x] == 1 and z == "1":
                assert acc == pytest.approx(1.0, abs=1e-12)
            else:
                assert acc == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_random_codes_always_verify_their_distance(seed):
    # independent oracle: accumulate codeword weights by XOR over columns
    code = build_code(3, rate_factor=4, seed=seed)
    cols = [code.generator[:, j].astype(int) for j in range(3)]
    best = code.block_length + 1
    for m in range(1, 8):
        word = np.zeros(code.block_length, dtype=int)
        for j in range(3):
            if (m >> j) & 1:
                word ^= cols[j]
        best = min(best, int(word.sum()))
    assert code.verified_min_distance == best
    assert code.verified_min_distance >= max(1, -(-code.block_length // 8))
