"""One-way communication protocols with a quantum message and a quantum witness.

Alice maps her input to a pure advice state, Merlin proposes a witness, and
Bob runs a unitary verifier over (bob_input, advice, witness, ancilla)
registers before measuring a designated accept qubit. For each input pair the
verifier induces a Hermitian operator W on the witness register with
acceptance probability <phi|W|phi> for every witness |phi>, so the
existential quantifier over witnesses collapses to a top eigenpair.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import (
    ATOL,
    DENSITY_MAX_QUBITS,
    Gate,
    RegisterLayout,
    StateVector,
    UnitaryCircuit,
    hermitize,
    matrix_from_json,
    top_eigenpair,
)

__all__ = [
    "BOB_REGISTER",
    "ADVICE_REGISTER",
    "WITNESS_REGISTER",
    "ANCILLA_REGISTER",
    "CommunicationFunction",
    "OneWayQmaProtocol",
    "PairAudit",
    "SuccessAudit",
    "protocol_layout",
    "induced_witness_operator",
    "optimal_witness",
    "audit_protocol",
    "sliced_verifier",
    "rest_projector",
    "protocol_to_json",
    "protocol_from_json",
]

BOB_REGISTER = "bob_input"
ADVICE_REGISTER = "advice"
WITNESS_REGISTER = "witness"
ANCILLA_REGISTER = "ancilla"

COMPLETENESS_THRESHOLD = 2.0 / 3.0
SOUNDNESS_THRESHOLD = 1.0 / 3.0


def protocol_layout(bob_bits: int, alice_qubits: int, witness_qubits: int,
                    ancilla_qubits: int) -> RegisterLayout:
    """Canonical register order; zero-width registers are omitted."""
    regs = []
    for name, width in ((BOB_REGISTER, bob_bits), (ADVICE_REGISTER, alice_qubits),
                        (WITNESS_REGISTER, witness_qubits), (ANCILLA_REGISTER, ancilla_qubits)):
        if width:
            regs.append((name, width))
    return RegisterLayout.of(*regs)


@dataclass(frozen=True)
class CommunicationFunction:
    """Partial Boolean function of an Alice string and a Bob string."""

    n_bits_alice: int
    m_bits_bob: int
    table: dict[tuple[str, str], int]

    def __post_init__(self):
        if not self.table:
            raise ValueError("communication function needs a nonempty domain")
        for (x, y), v in self.table.items():
            if len(x) != self.n_bits_alice or len(y) != self.m_bits_bob:
                raise ValueError(f"entry ({x!r}, {y!r}) does not match declared widths")
            if v not in (0, 1):
                raise ValueError(f"table value {v!r} is not a bit")

    def value(self, x: str, y: str) -> int | None:
        return self.table.get((x, y))

    def pairs(self):
        return sorted(self.table.items())

    def alice_inputs(self) -> list[str]:
        return sorted({x for x, _ in self.table})


@dataclass(frozen=True)
class OneWayQmaProtocol:
    """Alice's encoder plus Bob's verifier circuit and accept qubit."""

    bob_bits: int
    alice_qubits: int
    witness_qubits: int
    ancilla_qubits: int
    verifier: UnitaryCircuit
    accept_qubit: int
    alice_encode: Callable[[str], StateVector]

    def __post_init__(self):
        expected = protocol_layout(self.bob_bits, self.alice_qubits,
                                   self.witness_qubits, self.ancilla_qubits)
        if self.verifier.n_qubits != expected.n_qubits:
            raise ValueError(
                f"verifier acts on {self.verifier.n_qubits} qubits, layout has {expected.n_qubits}")
        if not (0 <= self.accept_qubit < expected.n_qubits):
            raise ValueError("accept qubit index out of range")
        if self.bob_bits and self.accept_qubit < self.bob_bits:
            raise ValueError("accept qubit may not sit in Bob's input register")

    @property
    def layout(self) -> RegisterLayout:
        return protocol_layout(self.bob_bits, self.alice_qubits,
                               self.witness_qubits, self.ancilla_qubits)

    @property
    def witness_layout(self) -> RegisterLayout:
        if self.witness_qubits == 0:
            return RegisterLayout(())
        return RegisterLayout.of((WITNESS_REGISTER, self.witness_qubits))

    def advice_state(self, x: str) -> StateVector:
        state = self.alice_encode(x)
        if state.amplitudes.shape[0] != 2 ** self.alice_qubits:
            raise ValueError(f"missing or ill-sized encoding for input {x!r}")
        return state


def _accept_mask(n_qubits: int, accept_qubit: int) -> np.ndarray:
    idx = np.arange(2 ** n_qubits)
    return ((idx >> (n_qubits - 1 - accept_qubit)) & 1).astype(bool)


def sliced_verifier(p: OneWayQmaProtocol, y: str) -> np.ndarray:
    """Verifier unitary restricted to Bob's classical input block |y>.

    Verifiers here read bob_input only through gate controls, so the full
    unitary is block diagonal over Bob's basis; anything else is rejected.
    """
    if p.verifier.n_qubits > DENSITY_MAX_QUBITS:
        raise ValueError(f"full matrix capped at {DENSITY_MAX_QUBITS} qubits")
    if p.bob_bits and len(y) != p.bob_bits:
        raise ValueError(f"Bob input {y!r} does not have {p.bob_bits} bits")
    dim_rest = 2 ** (p.verifier.n_qubits - p.bob_bits)
    y_index = int(y, 2) if p.bob_bits else 0  # without Bob bits the block is the whole unitary
    lo, hi = y_index * dim_rest, (y_index + 1) * dim_rest
    # only the unitary's columns lo..hi: the circuit run on |y> (x) every rest basis state
    cols = p.verifier.apply(np.eye(p.verifier.dim, dim_rest, -lo, dtype=complex))
    block = cols[lo:hi]
    leak = float((np.abs(cols) ** 2).sum() - (np.abs(block) ** 2).sum())
    if leak > 1e-12:
        raise ValueError("verifier is not block diagonal over bob_input; "
                         "cannot slice a classical input block")
    return block


def rest_projector(p: OneWayQmaProtocol, y: str, outcome: int) -> np.ndarray:
    """Projector V' Pi_outcome V on the advice (x) witness (x) ancilla space."""
    v = sliced_verifier(p, y)
    n_rest = p.verifier.n_qubits - p.bob_bits
    accept_in_rest = p.accept_qubit - p.bob_bits
    idx = np.arange(2 ** n_rest)
    mask = ((idx >> (n_rest - 1 - accept_in_rest)) & 1) == outcome
    return v.conj().T @ (mask[:, None] * v)


def induced_witness_operator(p: OneWayQmaProtocol, x: str, y: str) -> np.ndarray:
    """Hermitian W on the witness register with acceptance <phi|W|phi>.

    Runs one statevector simulation per witness basis state and assembles
    W[z', z] = <out_z'| P_accept |out_z>; the result satisfies 0 <= W <= I
    because it is a compression of a projector.
    """
    if len(y) != p.bob_bits:
        raise ValueError(f"Bob input {y!r} does not have {p.bob_bits} bits")
    psi = p.advice_state(x).amplitudes
    n = p.verifier.n_qubits
    dim_w = 2 ** p.witness_qubits
    anc = np.zeros(2 ** p.ancilla_qubits, dtype=complex)
    anc[0] = 1.0
    bob = np.zeros(2 ** p.bob_bits, dtype=complex)
    bob[int(y, 2) if y else 0] = 1.0
    outs = np.empty((dim_w, 2 ** n), dtype=complex)
    for z in range(dim_w):
        wit = np.zeros(dim_w, dtype=complex)
        wit[z] = 1.0
        vec = np.kron(np.kron(np.kron(bob, psi), wit), anc)
        outs[z] = p.verifier.apply(vec)
    mask = _accept_mask(n, p.accept_qubit)
    acc = outs[:, mask]
    w = acc.conj() @ acc.T  # W[z', z] = <out_z' | P_accept | out_z>
    return hermitize(w)


def optimal_witness(p: OneWayQmaProtocol, x: str, y: str) -> tuple[float, StateVector]:
    """Best acceptance over all witnesses, with an attaining pure state.

    Linearity makes the top eigenvector dominate every mixed witness as well.
    """
    w = induced_witness_operator(p, x, y)
    lam, vec = top_eigenpair(w)
    lam = min(max(lam, 0.0), 1.0)
    return lam, StateVector(vec, p.witness_layout)


@dataclass(frozen=True)
class PairAudit:
    x: str
    y: str
    f_value: int
    lam: float
    verdict: str  # "complete" | "sound" | "violated"


@dataclass(frozen=True)
class SuccessAudit:
    records: tuple[PairAudit, ...]
    passed: bool

    def violations(self) -> tuple[PairAudit, ...]:
        return tuple(r for r in self.records if r.verdict == "violated")

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "records": [
                {"x": r.x, "y": r.y, "f": r.f_value, "lambda": r.lam, "verdict": r.verdict}
                for r in self.records
            ],
        }


def audit_protocol(p: OneWayQmaProtocol, f: CommunicationFunction) -> SuccessAudit:
    """Exhaustive success audit: every f=1 pair needs an accepting witness with
    probability at least 2/3, every f=0 pair must stay at or below 1/3."""
    records = []
    ok = True
    for (x, y), v in f.pairs():
        lam, _ = optimal_witness(p, x, y)
        if v == 1:
            verdict = "complete" if lam >= COMPLETENESS_THRESHOLD - ATOL else "violated"
        else:
            verdict = "sound" if lam <= SOUNDNESS_THRESHOLD + ATOL else "violated"
        ok = ok and verdict != "violated"
        records.append(PairAudit(x=x, y=y, f_value=v, lam=lam, verdict=verdict))
    return SuccessAudit(records=tuple(records), passed=ok)


# ---------------------------------------------------------------------------
# JSON circuit format


def protocol_to_json(p: OneWayQmaProtocol, alice_inputs: list[str]) -> str:
    """Serialize a protocol; the encoder is tabulated over the given inputs."""
    doc = {
        "registers": p.layout.to_json(),
        "widths": {
            "bob_input": p.bob_bits,
            "advice": p.alice_qubits,
            "witness": p.witness_qubits,
            "ancilla": p.ancilla_qubits,
        },
        "accept_qubit": p.accept_qubit,
        "gates": [g.to_json_dict() for g in p.verifier.gates],
        "alice_encoding": {
            x: [[float(a.real), float(a.imag)] for a in p.advice_state(x).amplitudes]
            for x in alice_inputs
        },
    }
    return json.dumps(doc, sort_keys=True)


def protocol_from_json(text: str) -> OneWayQmaProtocol:
    doc = json.loads(text)
    widths = doc["widths"]
    layout = protocol_layout(widths["bob_input"], widths["advice"],
                             widths["witness"], widths["ancilla"])
    gates = []
    for g in doc["gates"]:
        gates.append(Gate(
            name=g["name"],
            targets=tuple(g["targets"]),
            matrix=matrix_from_json(g["matrix"]),
            controls=tuple(g.get("controls", ())),
            control_values=tuple(g.get("control_values", ())),
        ))
    circ = UnitaryCircuit(layout.n_qubits, tuple(gates), layout)
    table = {x: matrix_from_json(amps) for x, amps in doc["alice_encoding"].items()}
    advice_layout = RegisterLayout.of((ADVICE_REGISTER, widths["advice"]))

    def encode(x: str) -> StateVector:
        if x not in table:
            raise ValueError(f"missing encoding for input {x!r}")
        return StateVector(table[x], advice_layout)

    return OneWayQmaProtocol(
        bob_bits=widths["bob_input"],
        alice_qubits=widths["advice"],
        witness_qubits=widths["witness"],
        ancilla_qubits=widths["ancilla"],
        verifier=circ,
        accept_qubit=doc["accept_qubit"],
        alice_encode=encode,
    )
