"""One-way communication protocols with a quantum message and a quantum witness.

Alice maps her input to a pure advice state, Merlin proposes a witness, and
Bob runs a unitary verifier over (bob_input, advice, witness, ancilla)
registers before measuring a designated accept qubit. For each input pair the
verifier induces a Hermitian operator W on the witness register with
acceptance probability <phi|W|phi> for every witness |phi>, so the
existential quantifier over witnesses collapses to a top eigenpair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
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
    "witness_operators",
    "induced_witness_operator",
    "optimal_witness",
    "optimal_acceptances",
    "audit_protocol",
    "per_protocol",
    "block_circuit",
    "accept_rows",
    "project",
    "accept_effect",
    "rest_columns",
    "rest_projector",
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
    _alice_inputs: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.table:
            raise ValueError("communication function needs a nonempty domain")
        for (x, y), v in self.table.items():
            if len(x) != self.n_bits_alice or len(y) != self.m_bits_bob:
                raise ValueError(f"entry ({x!r}, {y!r}) does not match declared widths")
            if v not in (0, 1):
                raise ValueError(f"table value {v!r} is not a bit")
        object.__setattr__(self, "_alice_inputs", tuple(sorted({x for x, _ in self.table})))

    def value(self, x: str, y: str) -> int | None:
        return self.table.get((x, y))

    def pairs(self):
        return sorted(self.table.items())

    def alice_inputs(self) -> tuple[str, ...]:
        """The sorted Alice inputs of the domain, computed once at construction."""
        return self._alice_inputs


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
    _operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def advice_state(self, x: str) -> StateVector:
        state = self.alice_encode(x)
        if state.amplitudes.shape[0] != 2 ** self.alice_qubits:
            raise ValueError(f"missing or ill-sized encoding for input {x!r}")
        return state


def per_protocol(build):
    """Memoize `build(p, *args)` in `p._operators`: it runs once per protocol and args.

    The key is `build` with its arguments, which are positional only (a keyword
    call is a TypeError); a build that raises stores nothing.
    """

    @wraps(build)
    def memo(p: OneWayQmaProtocol, *args):
        key = (build, *args)
        if key not in p._operators:
            p._operators[key] = build(p, *args)
        return p._operators[key]

    return memo


@per_protocol
def block_circuit(p: OneWayQmaProtocol, y: str) -> UnitaryCircuit:
    """V on Bob's |y> block, as a circuit on the n - b rest qubits.

    Verifiers read bob_input only through gate controls, so V is block diagonal
    over Bob's basis: a gate whose Bob controls differ from y is dropped, matching
    Bob controls are stripped, and a gate that targets a Bob qubit is rejected.
    """
    if len(y) != p.bob_bits or y.strip("01"):
        raise ValueError(f"Bob input {y!r} does not have {p.bob_bits} bits")
    b, gates = p.bob_bits, []
    for g in p.verifier.gates:
        if any(t < b for t in g.targets):
            raise ValueError("verifier is not block diagonal over bob_input; "
                             "cannot slice a classical input block")
        controls = list(zip(g.controls, g.control_values))
        if all(y[q] == str(v) for q, v in controls if q < b):
            kept = [(q - b, v) for q, v in controls if q >= b]
            gates.append(Gate._from_checked(g.name, tuple(t - b for t in g.targets), g.matrix,
                                            tuple(q for q, _ in kept),
                                            tuple(v for _, v in kept)))
    return UnitaryCircuit(p.verifier.n_qubits - b, tuple(gates))


def accept_rows(p: OneWayQmaProtocol, outcome: int) -> np.ndarray:
    """Mask of the rest-space basis states whose accept bit reads `outcome`."""
    n_rest = p.verifier.n_qubits - p.bob_bits
    idx = np.arange(2 ** n_rest)
    return ((idx >> (n_rest - 1 - (p.accept_qubit - p.bob_bits))) & 1) == outcome


def project(p: OneWayQmaProtocol, y: str, cols: np.ndarray, outcome: int) -> np.ndarray:
    """V' Pi_outcome V cols: run, keep the outcome's rows, uncompute."""
    out = block_circuit(p, y).apply(cols)
    out[~accept_rows(p, outcome)] = 0.0
    return block_circuit(p, y).inverse().apply(out)


def accept_effect(p: OneWayQmaProtocol, y: str, cols: np.ndarray) -> np.ndarray:
    """(Pi_1 V C)'(Pi_1 V C): the accept effect compressed onto the columns C."""
    acc = block_circuit(p, y).apply(cols)[accept_rows(p, 1)]
    return hermitize(acc.conj().T @ acc)


def rest_columns(p: OneWayQmaProtocol, advice: np.ndarray, witness: np.ndarray) -> np.ndarray:
    """Columns advice (x) witness (x) |0...0>: the one builder of the rest-space layout.

    Every factor but `advice` has entries 0 or 1, so the products are exact.
    """
    anc = np.zeros((2 ** p.ancilla_qubits, 1), dtype=complex)
    anc[0] = 1.0
    return _kron(advice, _kron(witness, anc))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices: the same products, without its shape handling."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def rest_projector(p: OneWayQmaProtocol, y: str, outcome: int) -> np.ndarray:
    """Projector V' Pi_outcome V on the whole rest space, as a dense matrix.

    Nothing in the package calls it; the benchmark's layer tracer wraps it by name.
    """
    if p.verifier.n_qubits > DENSITY_MAX_QUBITS:
        raise ValueError(f"full matrix capped at {DENSITY_MAX_QUBITS} qubits")
    return project(p, y, np.eye(2 ** (p.verifier.n_qubits - p.bob_bits), dtype=complex), outcome)


def witness_operators(p: OneWayQmaProtocol, y: str, xs: list[str]) -> list[np.ndarray]:
    """The induced witness operator of (x, y) for every x in `xs`, from one run of Bob's block.

    The columns psi_x (x) |z> (x) |0> for every x and every witness basis state
    z go through `block_circuit(p, y)` as one batch; each x's 2^W columns are
    then compressed into its own accept effect, as `accept_effect` does.
    """
    advice = np.stack([p.advice_state(x).amplitudes for x in xs], axis=1)
    m = 2 ** p.witness_qubits
    cols = rest_columns(p, advice, np.eye(m, dtype=complex))
    acc = block_circuit(p, y).apply(cols)[accept_rows(p, 1)]
    return [hermitize(a.conj().T @ a) for a in np.split(acc, len(xs), axis=1)]


def induced_witness_operator(p: OneWayQmaProtocol, x: str, y: str) -> np.ndarray:
    """Hermitian W on the witness register with acceptance <phi|W|phi>.

    A compression of the accept projector onto psi_x (x) witness (x) |0>, so
    0 <= W <= I.
    """
    return witness_operators(p, y, [x])[0]


def optimal_witness(p: OneWayQmaProtocol, x: str, y: str) -> tuple[float, StateVector]:
    """Best acceptance over all witnesses, with an attaining pure state.

    Linearity makes the top eigenvector dominate every mixed witness as well.
    """
    lam, vec = top_eigenpair(induced_witness_operator(p, x, y))
    return min(max(lam, 0.0), 1.0), StateVector(vec)


def optimal_acceptances(p: OneWayQmaProtocol,
                        pairs: list[tuple[str, str]]) -> dict[tuple[str, str], float]:
    """Best witness acceptance of every (x, y) pair, in the order given, with one
    verifier run and one stacked `top_eigenpair` per distinct y."""
    xs_by_y: dict[str, list[str]] = {}
    for x, y in pairs:
        xs_by_y.setdefault(y, []).append(x)
    lams = {}
    for y, xs in xs_by_y.items():
        tops, _ = top_eigenpair(np.array(witness_operators(p, y, xs)))
        for x, lam in zip(xs, tops.tolist()):
            lams[x, y] = min(max(lam, 0.0), 1.0)
    return {(x, y): lams[x, y] for x, y in pairs}


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
    lams = optimal_acceptances(p, [pair for pair, _ in f.pairs()])
    for (x, y), v in f.pairs():
        lam = lams[x, y]
        if v == 1:
            verdict = "complete" if lam >= COMPLETENESS_THRESHOLD - ATOL else "violated"
        else:
            verdict = "sound" if lam <= SOUNDNESS_THRESHOLD + ATOL else "violated"
        ok = ok and verdict != "violated"
        records.append(PairAudit(x=x, y=y, f_value=v, lam=lam, verdict=verdict))
    return SuccessAudit(records=tuple(records), passed=ok)
