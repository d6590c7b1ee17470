"""Shipped toy protocols and verifiers used by the test suite and the CLI.

Every toy is small enough for exhaustive, exact auditing and is built from
the same circuit vocabulary the composition machinery manipulates.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import asin, log2, sqrt

from .advice import AdviceVerifier, RandomizedAdvice
from .protocol import (
    ADVICE_REGISTER,
    ANCILLA_REGISTER,
    BOB_REGISTER,
    WITNESS_REGISTER,
    CommunicationFunction,
    OneWayQmaProtocol,
    protocol_layout,
)
from .qcore import UnitaryCircuit, basis_state, mcx, ry_gate

__all__ = [
    "coin_protocol",
    "rac_claim_protocol",
    "table_protocol",
    "hint_table_verifier",
    "table_qcma_verifier",
    "demerlin_toy",
    "DEMERLIN_TOYS",
]


def _accept_angle(p: float) -> float:
    """Rotation angle writing acceptance probability p onto a |0> qubit."""
    return 2.0 * asin(sqrt(p))


def _basis_encoder(n_qubits: int):
    """Alice's x as the basis state |x> on n_qubits qubits."""
    return partial(basis_state, n_qubits)


def _constant_encoder(n_qubits: int):
    """|0...0> on n_qubits qubits for every input."""
    return lambda _: basis_state(n_qubits, 0)


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
# advice-module toys: one table protocol, two kinds of advice


def table_protocol(n: int, witness_angle: float) -> OneWayQmaProtocol:
    """Alice's input is a 2^n-bit table in basis qubits; Bob's n-bit input x
    reads its bit x (`_index_select_verifier(n)`).

    Bob accepts iff the witness claims 1 and table bit x is 1. A nonzero
    witness_angle puts ry(-angle) on the witness qubit first, so the accepted
    claim becomes ry(angle)|1>, a superposition.
    """
    a_qubits = 2 ** n
    verifier, accept = _index_select_verifier(n)
    if witness_angle:
        claim = protocol_layout(n, a_qubits, 1, 1).offset(WITNESS_REGISTER)
        verifier = UnitaryCircuit(verifier.n_qubits,
                                  (ry_gate(claim, -witness_angle),) + verifier.gates)
    return OneWayQmaProtocol(
        bob_bits=n, alice_qubits=a_qubits, witness_qubits=1, ancilla_qubits=1,
        verifier=verifier, accept_qubit=accept, alice_encode=_basis_encoder(a_qubits))


def _truth_table(n: int) -> str:
    """Parity's truth table on n bits."""
    return "".join(str(bin(i).count("1") % 2) for i in range(2 ** n))


def _table_language(n: int, table: str) -> dict[str, int]:
    return {format(i, f"0{n}b"): int(bit) for i, bit in enumerate(table)}


def hint_table_verifier(n: int, witness_angle: float = 0.0) -> AdviceVerifier:
    """Parity on n bits with hint-table advice on `table_protocol`.

    The advice is parity's truth table with probability 3/4 and its
    complement otherwise, so the best witness accepts yes-instances with
    probability 3/4 and no-instances with 1/4.
    """
    table = _truth_table(n)
    anti = "".join("1" if c == "0" else "0" for c in table)
    advice = RandomizedAdvice(values=(table, anti), probs=(Fraction(3, 4), Fraction(1, 4)))
    return AdviceVerifier(protocol=table_protocol(n, witness_angle),
                          language=_table_language(n, table), advice=advice)


def table_qcma_verifier(n: int, truth_table: str | None = None) -> AdviceVerifier:
    """Training toy on `table_protocol`: the true advice is the language's
    truth table itself, with probability 1.

    Base errors are exactly zero, so the training loop's amplification
    fixpoint is ell = 1.
    """
    if truth_table is None:
        truth_table = _truth_table(n)
    advice = RandomizedAdvice(values=(truth_table,), probs=(Fraction(1),))
    return AdviceVerifier(protocol=table_protocol(n, 0.0),
                          language=_table_language(n, truth_table), advice=advice)


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
