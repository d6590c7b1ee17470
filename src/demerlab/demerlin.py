"""Witness-enumeration transform: turn a Merlin-aided one-way protocol into a
plain one-way protocol.

Given an amplified verifier with W witness qubits and soundness at most
5^-W, Bob loops T = 9 * 2^W times: draw a uniformly random classical witness
z, run the verifier, copy the accept bit into a flag, add the flag into a
reversible counter, copy the accept bit out of the flag again (which returns
the flag to |0> because the verifier has not run in between), and uncompute
the verifier. He accepts iff the counter is nonzero.

Exact evaluation never samples the coins: conditioned on a coin sequence the
counter stays at zero exactly on the branch where every round applied the
no-accept projector P0_z = prep_z V' (I - Pi_accept) V prep_z, so averaging
over independent uniform coins gives

    Pr[counter = 0] = trace(Phi0^T(rho_full)),
    Phi0(rho) = mean_z P0_z rho P0_z,

where rho_full is the verifier-side initial state (advice tensor zeroed
witness and ancilla) with Bob's classical input sliced out. This is
polynomial in T and matches the emitted circuit gate for gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, sqrt

import numpy as np

from .amplify import AmplificationPlan, binom_tail
from .protocol import (
    WITNESS_REGISTER,
    CommunicationFunction,
    OneWayQmaProtocol,
    optimal_witness,
    rest_projector,
)
from .qcore import (
    ATOL,
    DensityMatrix,
    Gate,
    RegisterLayout,
    UnitaryCircuit,
    apply_kraus,
    cnot,
    hermitize,
    increment_gate,
    trace_norm,
    x_gate,
)
from .qlemmas import monte_carlo_any_outcome1

__all__ = [
    "DemerlinizedProtocol",
    "DemerlinReport",
    "ResourceReport",
    "FinalVotePlan",
    "demerlinize",
    "evaluate_demerlinized",
    "sample_demerlinized",
    "resource_report",
    "emitted_circuit",
    "plan_final_vote",
    "final_vote_acceptance",
]


@dataclass(frozen=True)
class DemerlinizedProtocol:
    """Loop structure emitted from an amplified protocol.

    The witness register is driven internally by classical coins; Merlin is
    gone. `f` rides along so evaluations know which bound applies.
    """

    base: OneWayQmaProtocol
    plan: AmplificationPlan
    f: CommunicationFunction | None
    t_rounds: int
    counter_qubits: int

    def __post_init__(self):
        w_total = self.base.witness_qubits
        expected_t = 9 * 2 ** w_total
        if self.t_rounds != expected_t:
            raise ValueError(f"round count must be 9 * 2^W = {expected_t}")
        if 2 ** self.counter_qubits <= self.t_rounds:
            raise ValueError("counter too narrow to hold the round count")

    @property
    def witness_qubits(self) -> int:
        return self.base.witness_qubits

    @property
    def soundness_ceiling(self) -> float:
        """Union-bound soundness of the loop: T * sqrt(5^-W)."""
        w = self.base.witness_qubits
        return self.t_rounds * sqrt(5.0 ** (-w))


def demerlinize(p: OneWayQmaProtocol, plan: AmplificationPlan,
                f: CommunicationFunction | None = None,
                audit_soundness: bool = True) -> DemerlinizedProtocol:
    """Emit the witness-enumeration loop for an already-amplified protocol.

    When `f` is supplied and `audit_soundness` is set, every f=0 pair is
    checked to have optimal-witness acceptance at most 5^-W, the precondition
    the loop's soundness analysis rests on.
    """
    w_total = p.witness_qubits
    if w_total != plan.witness_qubits_total:
        raise ValueError("protocol witness width does not match the plan")
    if w_total < 1:
        raise ValueError("the loop needs at least one witness qubit to enumerate")
    t_rounds = 9 * 2 ** w_total
    counter_qubits = ceil(log2(t_rounds + 1))
    if audit_soundness and f is not None:
        target = 5.0 ** (-w_total)
        for (x, y), v in f.pairs():
            if v == 0:
                lam, _ = optimal_witness(p, x, y)
                if lam > target + ATOL:
                    raise ValueError(
                        f"precondition failed: f=0 pair ({x!r}, {y!r}) has soundness "
                        f"{lam:.6f} > 5^-W = {target:.6f}")
    return DemerlinizedProtocol(base=p, plan=plan, f=f, t_rounds=t_rounds,
                                counter_qubits=counter_qubits)


# ---------------------------------------------------------------------------
# round operators on the space with Bob's classical input sliced out


def _round_projectors(p: OneWayQmaProtocol, y: str) -> list[np.ndarray]:
    """No-accept round operators P0_z on the advice (x) witness (x) ancilla space.

    P0_z conjugates the no-accept projector by the witness preparation X^z,
    which is a basis permutation, so it comes out as an index shuffle.
    """
    p0 = rest_projector(p, y, outcome=0)
    n_rest = p.verifier.n_qubits - p.bob_bits
    idx = np.arange(2 ** n_rest)
    w = p.witness_qubits
    wit_shift = p.ancilla_qubits  # witness bits sit just above the ancilla bits
    out = []
    for z in range(2 ** w):
        perm = idx ^ (z << wit_shift)
        out.append(p0[np.ix_(perm, perm)])
    return out


def _initial_rest_vector(p: OneWayQmaProtocol, x: str,
                         rho_alice: DensityMatrix | None = None) -> np.ndarray:
    """Initial state on advice (x) witness (x) ancilla, witness and ancilla zeroed.

    Returns a density matrix when `rho_alice` is mixed, else a vector.
    """
    pad = np.zeros(2 ** (p.witness_qubits + p.ancilla_qubits), dtype=complex)
    pad[0] = 1.0
    if rho_alice is None:
        return np.kron(p.advice_state(x).amplitudes, pad)
    return np.kron(rho_alice.matrix, np.outer(pad, pad.conj()))


@dataclass(frozen=True)
class DemerlinReport:
    x: str
    y: str
    f_value: int | None
    p_accept: float
    yes_bound: float
    no_bound: float
    advice_drift: tuple[float, ...] = ()
    drift_budget: tuple[float, ...] = ()
    passed: bool = True

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "f": self.f_value,
                "p_accept": self.p_accept, "yes_bound": self.yes_bound,
                "no_bound": self.no_bound, "pass": self.passed}


def evaluate_demerlinized(d: DemerlinizedProtocol, x: str, y: str,
                          track_drift: bool = False,
                          rho_alice: DensityMatrix | None = None) -> DemerlinReport:
    """Exact acceptance probability of the emitted loop on input pair (x, y).

    Audited against the bounds the construction guarantees: at least 1/9 for
    f=1 pairs (the OR-bound arithmetic at eta = 2/3, T = 9N) and at most
    T * sqrt(5^-W) for f=0 pairs (the union bound over rounds).
    """
    p = d.base
    projectors = _round_projectors(p, y)
    init = _initial_rest_vector(p, x, rho_alice)
    if init.ndim == 1:
        rho = np.outer(init, init.conj())
    else:
        rho = init
    drift: list[float] = []
    budget: list[float] = []
    if track_drift:
        adv_dim = 2 ** p.alice_qubits
        rest = rho.shape[0] // adv_dim
        adv0 = _advice_marginal(rho, adv_dim, rest)
        spent = 0.0
    for _ in range(d.t_rounds):
        prev_tr = float(np.trace(rho).real)
        rho = apply_kraus(rho, projectors) / len(projectors)
        if track_drift:
            tr = float(np.trace(rho).real)
            eps_round = 0.0 if prev_tr <= 1e-15 else max(0.0, 1.0 - tr / prev_tr)
            spent += sqrt(eps_round)
            budget.append(spent)
            if tr > 1e-15:
                adv_t = _advice_marginal(rho / tr, adv_dim, rest)
                drift.append(0.5 * trace_norm(adv_t - adv0))
            else:
                drift.append(1.0)
    p_accept = min(max(1.0 - float(np.trace(rho).real), 0.0), 1.0)
    f_value = d.f.value(x, y) if d.f is not None else None
    yes_bound = 1.0 / 9.0
    no_bound = d.soundness_ceiling
    passed = True
    if f_value == 1:
        passed = p_accept >= yes_bound - ATOL
    elif f_value == 0:
        passed = p_accept <= no_bound + ATOL
    return DemerlinReport(x=x, y=y, f_value=f_value, p_accept=p_accept,
                          yes_bound=yes_bound, no_bound=no_bound,
                          advice_drift=tuple(drift), drift_budget=tuple(budget),
                          passed=passed)


def _advice_marginal(rho: np.ndarray, adv_dim: int, rest_dim: int) -> np.ndarray:
    t = rho.reshape(adv_dim, rest_dim, adv_dim, rest_dim)
    return hermitize(np.einsum("arbr->ab", t))


def sample_demerlinized(d: DemerlinizedProtocol, x: str, y: str, shots: int,
                        seed: int | np.random.SeedSequence) -> tuple[float, float]:
    """Monte-Carlo estimate of the loop acceptance with per-shot coin draws.

    Walks normalized pure-state trajectories through the same no-accept
    projectors the exact evaluation uses. Returns (estimate, stderr).
    """
    rng = np.random.default_rng(seed)
    return monte_carlo_any_outcome1(_initial_rest_vector(d.base, x),
                                    _round_projectors(d.base, y), d.t_rounds, shots, rng)


# ---------------------------------------------------------------------------
# emitted circuit and resource accounting


def _witness_prep_gates(d: DemerlinizedProtocol, z: int,
                        layout: RegisterLayout) -> list[Gate]:
    w = d.base.witness_qubits
    wit = layout.qubits(WITNESS_REGISTER)
    return [x_gate(wit[i]) for i in range(w) if (z >> (w - 1 - i)) & 1]


def emitted_layout(d: DemerlinizedProtocol) -> RegisterLayout:
    regs = list(d.base.layout.registers)
    regs.append(("flag", 1))
    regs.append(("counter", d.counter_qubits))
    return RegisterLayout(tuple(regs))


def emitted_circuit(d: DemerlinizedProtocol, coins: list[int]) -> UnitaryCircuit:
    """Concrete loop circuit for a fixed coin sequence.

    Per round: prepare the witness register at |z>, run the verifier, CNOT
    the accept qubit into the flag, add the flag into the counter, CNOT the
    accept qubit into the flag again (returning it to |0>), uncompute the
    verifier, unprepare the witness. Acceptance is the classical readout
    counter > 0.
    """
    if len(coins) != d.t_rounds:
        raise ValueError(f"need {d.t_rounds} coins, got {len(coins)}")
    layout = emitted_layout(d)
    verifier = list(d.base.verifier.gates)
    flag = layout.qubits("flag")[0]
    counter = layout.qubits("counter")
    accept = d.base.accept_qubit
    gates: list[Gate] = []
    for z in coins:
        prep = _witness_prep_gates(d, z, layout)
        gates.extend(prep)
        gates.extend(verifier)
        gates.append(cnot(accept, flag))
        gates.append(increment_gate(counter, controls=(flag,)))
        gates.append(cnot(accept, flag))
        gates.extend(g.inverse() for g in reversed(verifier))
        gates.extend(prep)
    return UnitaryCircuit(layout.n_qubits, tuple(gates), layout)


# ---------------------------------------------------------------------------
# optional final threshold vote


@dataclass(frozen=True)
class FinalVotePlan:
    """Independent repetitions of the whole loop with a threshold vote.

    The loop's native separation (yes at least 1/9, no below some ceiling) is
    weaker than the 2/3 vs 1/3 convention; repeating it with fresh advice and
    accepting at `threshold` of `repetitions` votes restores the convention.
    Certified by exact binomial tails at the stated floor and ceiling.
    """

    repetitions: int
    threshold: int
    yes_floor: float
    no_ceiling: float
    certified_yes: float
    certified_no: float

    def to_json_dict(self) -> dict:
        return {"repetitions": self.repetitions, "threshold": self.threshold,
                "yes_floor": self.yes_floor, "no_ceiling": self.no_ceiling,
                "certified_yes": self.certified_yes, "certified_no": self.certified_no}


def plan_final_vote(yes_floor: float = 1.0 / 9.0, no_ceiling: float = 0.0,
                    max_reps: int = 2001) -> FinalVotePlan:
    """Smallest repetition count whose threshold vote certifies 2/3 vs 1/3."""
    if not no_ceiling < yes_floor:
        raise ValueError("no-instance ceiling must sit strictly below the yes floor")
    for r in range(1, max_reps + 1):
        for k in range(1, r + 1):
            yes = binom_tail(r, yes_floor, k)
            no = binom_tail(r, no_ceiling, k)
            if yes >= 2.0 / 3.0 and no <= 1.0 / 3.0:
                return FinalVotePlan(repetitions=r, threshold=k,
                                     yes_floor=yes_floor, no_ceiling=no_ceiling,
                                     certified_yes=yes, certified_no=no)
    raise ValueError(f"no threshold vote within {max_reps} repetitions")


def final_vote_acceptance(p_accept: float, plan: FinalVotePlan) -> float:
    """Exact acceptance of the voted protocol given one run's acceptance."""
    return binom_tail(plan.repetitions, p_accept, plan.threshold)


@dataclass(frozen=True)
class ResourceReport:
    gates: int
    qubits: int
    rounds: int
    base_gates: int
    base_qubits: int
    counter_qubits: int

    def to_json_dict(self) -> dict:
        return {"gates": self.gates, "qubits": self.qubits, "rounds": self.rounds,
                "base_gates": self.base_gates, "base_qubits": self.base_qubits,
                "counter_qubits": self.counter_qubits}


def resource_report(d: DemerlinizedProtocol) -> ResourceReport:
    """Deterministic gate and qubit counts of the emitted loop.

    Witness preparation is counted as one X gate per witness qubit per prep
    (the worst case over coins), so the total is
    T * (2 * base_gates + 2 * W + 3) with qubits = base + flag + counter.
    """
    base_gates = len(d.base.verifier.gates)
    w = d.base.witness_qubits
    per_round = 2 * base_gates + 2 * w + 3
    return ResourceReport(
        gates=d.t_rounds * per_round,
        qubits=d.base.verifier.n_qubits + 1 + d.counter_qubits,
        rounds=d.t_rounds,
        base_gates=base_gates,
        base_qubits=d.base.verifier.n_qubits,
        counter_qubits=d.counter_qubits,
    )
