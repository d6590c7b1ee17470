"""Shipped toy protocols and verifiers used by the test suite and the CLI.

Every toy is small enough for exhaustive, exact auditing and is built from
the same circuit vocabulary the composition machinery manipulates.
"""
from __future__ import annotations

from fractions import Fraction
from math import asin, log2, sqrt

import numpy as np

from .advice import (
    MaToyVerifier,
    QmaToyVerifier,
    QuantumAdviceVerifier,
    RandomizedAdvice,
)
from .protocol import (
    ADVICE_REGISTER,
    ANCILLA_REGISTER,
    BOB_REGISTER,
    WITNESS_REGISTER,
    CommunicationFunction,
    OneWayQmaProtocol,
    protocol_layout,
)
from .qcore import RegisterLayout, StateVector, UnitaryCircuit, basis_state, mcx, ry_gate

__all__ = [
    "coin_protocol",
    "rac_claim_protocol",
    "parity_ma_verifier",
    "parity_qma_verifier",
    "table_qcma_verifier",
    "demerlin_toy",
    "DEMERLIN_TOYS",
]


def _accept_angle(p: float) -> float:
    """Rotation angle writing acceptance probability p onto a |0> qubit."""
    return 2.0 * asin(sqrt(p))


def _basis_encoder(n_qubits: int):
    layout = RegisterLayout.of((ADVICE_REGISTER, n_qubits))

    def encode(x: str) -> StateVector:
        return basis_state(layout, x)

    return encode


def _constant_encoder(n_qubits: int):
    layout = RegisterLayout.of((ADVICE_REGISTER, n_qubits))

    def encode(_: str) -> StateVector:
        return basis_state(layout, 0)

    return encode


def coin_protocol(yes_prob: float = 2.0 / 3.0, no_prob: float = 1.0 / 3.0,
                  witness_angle: float = 0.0) -> tuple[OneWayQmaProtocol, CommunicationFunction]:
    """One advice qubit, one witness qubit, Bob's bit selects the instance.

    On Bob input 1 a witness-controlled rotation writes acceptance yes_prob
    onto the advice qubit; on input 0 it writes no_prob. The accept qubit is
    the advice qubit itself, so failed rounds genuinely damage Alice's
    message. A nonzero witness_angle rotates the witness basis first, making
    the optimal witness a superposition.
    """
    layout = protocol_layout(1, 1, 1, 0)
    bob, advice, witness = 0, 1, 2
    gates = []
    if witness_angle:
        gates.append(ry_gate(witness, witness_angle))
    gates.append(ry_gate(advice, _accept_angle(yes_prob),
                         controls=(bob, witness), control_values=(1, 1)))
    gates.append(ry_gate(advice, _accept_angle(no_prob),
                         controls=(bob, witness), control_values=(0, 1)))
    verifier = UnitaryCircuit(layout.n_qubits, tuple(gates))
    p = OneWayQmaProtocol(
        bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=0,
        verifier=verifier, accept_qubit=advice,
        alice_encode=_constant_encoder(1))
    f = CommunicationFunction(n_bits_alice=1, m_bits_bob=1,
                              table={("0", "1"): 1, ("0", "0"): 0})
    return p, f


def _index_select_verifier(m_bits: int) -> tuple[UnitaryCircuit, int]:
    """Bob's m-bit input i selects advice qubit i of 2^m.

    One mcx per i flips the single ancilla qubit iff Bob's input is i, advice
    qubit i is 1 and the witness qubit claims 1. Returns the circuit and its
    accept qubit.
    """
    layout = protocol_layout(m_bits, 2 ** m_bits, 1, 1)
    bob = layout.qubits(BOB_REGISTER)
    claim = layout.offset(WITNESS_REGISTER)
    advice_off = layout.offset(ADVICE_REGISTER)
    accept = layout.offset(ANCILLA_REGISTER)
    gates = []
    for i in range(2 ** m_bits):
        pattern = tuple(int(b) for b in format(i, f"0{m_bits}b"))
        gates.append(mcx(controls=bob + (advice_off + i, claim), target=accept,
                         control_values=pattern + (1, 1)))
    return UnitaryCircuit(layout.n_qubits, tuple(gates)), accept


def rac_claim_protocol(n_bits: int) -> tuple[OneWayQmaProtocol, CommunicationFunction]:
    """Random-access toy: Alice sends |X> and Merlin's qubit claims x_i = 1.

    Bob accepts iff the witness qubit is 1 and Alice's i-th qubit is 1, so
    completeness is exactly 1 and soundness exactly 0.
    """
    m_bits = int(log2(n_bits))
    if 2 ** m_bits != n_bits:
        raise ValueError("n_bits must be a power of two")
    verifier, accept = _index_select_verifier(m_bits)
    p = OneWayQmaProtocol(
        bob_bits=m_bits, alice_qubits=n_bits, witness_qubits=1,
        ancilla_qubits=1, verifier=verifier, accept_qubit=accept,
        alice_encode=_basis_encoder(n_bits))
    table = {}
    for x in range(2 ** n_bits):
        xs = format(x, f"0{n_bits}b")
        for i in range(n_bits):
            table[(xs, format(i, f"0{m_bits}b"))] = int(xs[i])
    f = CommunicationFunction(n_bits_alice=n_bits, m_bits_bob=m_bits, table=table)
    return p, f


# ---------------------------------------------------------------------------
# advice-module toys


def _parity(x: str) -> int:
    return sum(int(b) for b in x) % 2


def _truth_table(n: int) -> str:
    return "".join(str(_parity(format(i, f"0{n}b"))) for i in range(2 ** n))


def _hint_advice(n: int) -> tuple[RandomizedAdvice, dict[str, int]]:
    """Hint-table advice for parity on n bits, and the parity language: the
    advice is the full truth table with probability 3/4 and its complement
    otherwise."""
    table = _truth_table(n)
    anti = "".join("1" if c == "0" else "0" for c in table)
    advice = RandomizedAdvice(values=(table, anti), probs=(Fraction(3, 4), Fraction(1, 4)))
    language = {format(i, f"0{n}b"): _parity(format(i, f"0{n}b")) for i in range(2 ** n)}
    return advice, language


def parity_ma_verifier(n: int) -> MaToyVerifier:
    """Parity language with hint-table advice (`_hint_advice`).
    Arthur accepts iff the witness claims 1 and the hint row agrees."""
    advice, language = _hint_advice(n)

    def accept(x: str, hint: object, z: str) -> int:
        row = str(hint)[int(x, 2)]
        return 1 if (z == "1" and row == "1") else 0

    return MaToyVerifier(n_bits=n, witness_bits=1, language=language,
                         advice=advice, accept=accept)


def parity_qma_verifier(n: int, witness_angle: float = 0.0) -> QmaToyVerifier:
    """Quantum-witness parity toy with hint-table advice (`_hint_advice`): the
    acceptance operator projects onto the claim state |1> (rotated by
    witness_angle) scaled by the hint row."""
    advice, language = _hint_advice(n)
    c, s = np.cos(witness_angle / 2.0), np.sin(witness_angle / 2.0)
    claim = np.array([-s, c], dtype=complex)
    proj = np.outer(claim, claim.conj())

    def witness_operator(x: str, hint: object) -> np.ndarray:
        row = str(hint)[int(x, 2)]
        return proj if row == "1" else np.zeros((2, 2), dtype=complex)

    return QmaToyVerifier(n_bits=n, witness_qubits=1, language=language,
                          advice=advice, witness_operator=witness_operator)


def table_qcma_verifier(n: int, truth_table: str | None = None) -> QuantumAdviceVerifier:
    """Quantum advice = the language's truth table as 2^n basis qubits.

    The verifier accepts iff the witness claims 1 and the advice qubit
    indexed by x measures 1. Base errors are exactly zero, so the training
    loop's amplification fixpoint is ell = 1.
    """
    if truth_table is None:
        truth_table = _truth_table(n)
    a_qubits = 2 ** n
    verifier, accept = _index_select_verifier(n)
    p = OneWayQmaProtocol(
        bob_bits=n, alice_qubits=a_qubits, witness_qubits=1, ancilla_qubits=1,
        verifier=verifier, accept_qubit=accept,
        alice_encode=_constant_encoder(a_qubits))
    language = {format(i, f"0{n}b"): int(truth_table[i]) for i in range(2 ** n)}
    true_advice = basis_state(RegisterLayout.of((ADVICE_REGISTER, a_qubits)), truth_table)
    return QuantumAdviceVerifier(protocol=p, language=language, true_advice=true_advice)


# ---------------------------------------------------------------------------
# named demerlinization toys for the CLI


def demerlin_toy(name: str):
    """Toy registry: returns (protocol, f) ready for a (1, 1) plan.

    The coin toy's no-instance is tuned to 0.15 < 5^-1 so the soundness
    precondition of the loop holds without amplification.
    """
    if name == "rac2":
        return rac_claim_protocol(2)
    if name == "rac4":
        return rac_claim_protocol(4)
    if name == "coin":
        return coin_protocol(yes_prob=2.0 / 3.0, no_prob=0.15)
    raise ValueError(f"unknown toy {name!r}; pick one of {sorted(DEMERLIN_TOYS)}")


DEMERLIN_TOYS = ("coin", "rac2", "rac4")
