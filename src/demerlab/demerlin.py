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

    Pr[counter = 0] = trace(Phi0^T(rho_full)) = trace(rho_full E_y),
    Phi0(rho) = mean_z P0_z rho P0_z,   E_y = (Phi0*)^T(I),

where rho_full is the verifier-side initial state (advice tensor zeroed
witness and ancilla) with Bob's classical input y sliced out. This is
polynomial in T and matches the emitted circuit gate for gate.

The effect E_y depends on y alone, so it is computed once per Bob input and
cached on the base protocol. It lives on the subspace the round
operators can reach from the initial states (reachability analysis of
quantum Markov chains, Ying-Feng-Yu-Ying 2013), which for the amplified
coin has 4 to 8 dimensions while the rest space has 256 to 8192. The round
operators are applied to statevector batches, never built as 2^n matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .amplify import MAX_REPS, AmplificationPlan, binom_tail
from .protocol import (
    WITNESS_REGISTER,
    CommunicationFunction,
    OneWayQmaProtocol,
    advice_amplitudes,
    block_circuit,
    optimal_acceptances,
    per_protocol,
    project,
    rest_columns,
)
from .qcore import (
    ATOL,
    DensityMatrix,
    Gate,
    RegisterLayout,
    UnitaryCircuit,
    average_channel_power,
    cnot,
    hermitize,
    increment_gate,
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

YES_FLOOR = 1.0 / 9.0  # the loop's acceptance floor on f=1 pairs (OR bound at eta = 2/3)


@dataclass(frozen=True)
class DemerlinizedProtocol:
    """Loop structure emitted from an amplified protocol.

    The witness register is driven internally by classical coins; Merlin is
    gone. `f` rides along so evaluations know which bound applies.
    """

    base: OneWayQmaProtocol
    f: CommunicationFunction | None

    @property
    def witness_qubits(self) -> int:
        return self.base.witness_qubits

    @property
    def t_rounds(self) -> int:
        """T = 9 * 2^W loop rounds."""
        return 9 * 2 ** self.base.witness_qubits

    @property
    def counter_qubits(self) -> int:
        """Width ceil(log2(T + 1)) of the counter that holds 0..T."""
        return self.t_rounds.bit_length()

    @property
    def soundness_ceiling(self) -> float:
        """Union-bound soundness of the loop: T * sqrt(5^-W)."""
        w = self.base.witness_qubits
        return self.t_rounds * sqrt(5.0 ** (-w))


def demerlinize(p: OneWayQmaProtocol, plan: AmplificationPlan,
                f: CommunicationFunction | None = None) -> DemerlinizedProtocol:
    """Emit the witness-enumeration loop for an already-amplified protocol.

    When `f` is supplied, every f=0 pair is checked to have optimal-witness
    acceptance at most 5^-W, the precondition the loop's soundness analysis
    rests on.
    """
    w_total = p.witness_qubits
    if w_total != plan.witness_qubits_total:
        raise ValueError("protocol witness width does not match the plan")
    if w_total < 1:
        raise ValueError("the loop needs at least one witness qubit to enumerate")
    if f is not None:
        target = 5.0 ** (-w_total)
        no_pairs = [pair for pair, v in f.pairs() if v == 0]
        for (x, y), lam in optimal_acceptances(p, no_pairs).items():
            if lam > target + ATOL:
                raise ValueError(
                    f"precondition failed: f=0 pair ({x!r}, {y!r}) has soundness "
                    f"{lam:.6f} > 5^-W = {target:.6f}")
    return DemerlinizedProtocol(base=p, f=f)


# ---------------------------------------------------------------------------
# the loop on the subspace its round operators reach, one Bob input at a time

_RANK_TOL = 1e-10  # a candidate direction with a smaller residual counts as spanned
RESIDUAL_BOUND = 1e-9  # audited bound on max_z ||P0_z B - B M_z||
MAX_REACHABLE_DIM = 256  # a larger basis ran away on rounding noise; toys need at most 16


def _initial_columns(p: OneWayQmaProtocol, x: str,
                     rho_alice: DensityMatrix | None = None) -> np.ndarray:
    """Columns L of the initial state L L' on advice (x) witness (x) ancilla.

    Witness and ancilla are zeroed. Pure advice gives `_pure_columns`; mixed
    advice gives its eigenvectors scaled by the square roots of their weights.
    """
    if rho_alice is None:
        return _pure_columns(p, x)
    if rho_alice.dim != 2 ** p.alice_qubits:
        raise ValueError(f"advice state has dimension {rho_alice.dim}, "
                         f"the protocol {2 ** p.alice_qubits}")
    w, v = np.linalg.eigh(hermitize(rho_alice.matrix))
    zero = np.eye(2 ** p.witness_qubits, 1, dtype=complex)
    return rest_columns(p, v * np.sqrt(np.clip(w, 0.0, None)), zero)


@per_protocol
def _pure_columns(p: OneWayQmaProtocol, x: str) -> np.ndarray:
    """The one column psi_x (x) |0...0>, built once per (protocol, x) and read-only."""
    zero = np.eye(2 ** p.witness_qubits, 1, dtype=complex)
    cols = rest_columns(p, advice_amplitudes(p, x)[:, None], zero)
    cols.setflags(write=False)
    return cols


def _new_directions(basis: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of span(cols) outside span(basis)."""
    for _ in range(2):  # the second pass restores orthogonality lost to rounding
        cols = cols - basis @ (basis.conj().T @ cols)
    if np.linalg.norm(cols) <= _RANK_TOL:  # bounds every singular value: nothing is new
        return cols[:, :0]
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    u = u[:, s > _RANK_TOL]
    # dividing by a small singular value magnifies what rounding left inside span(basis)
    return np.linalg.qr(u - basis @ (basis.conj().T @ u))[0]


class _ReachableLoop:
    """The loop's round operators for one Bob input y, on the subspace they reach.

    `basis` B is an orthonormal basis of the smallest subspace that holds
    every initial vector covered so far and is invariant under every P0_z;
    `rounds` are M_z = B' P0_z B and `effect` is the never-accept effect
    E_y = (Phi0*)^T(I) in that basis. Round operators act on statevector
    batches, so no 2^n unitary is built.

    Once per y: the witness flips, Bob's block circuit (cached on the
    protocol), and B with its images, rounds and effect, which grow only when
    `cover` meets a vector outside span(B). Per x: nothing but the coordinates
    B' C of x's initial columns C, which are themselves built once per
    (protocol, x). An x in `covered`, whose C the loop spanned when it was
    built, gets B' C with no span check; covering any other already spanned C
    runs the span check but no verifier and no SVD.

    The loop is memoized on its protocol, so it keeps no reference to it (that
    would be a cycle only the garbage collector frees): `cover` takes it.
    """

    def __init__(self, p: OneWayQmaProtocol, y: str):
        # T = 9 * 2^W rounds, as in DemerlinizedProtocol.t_rounds
        self.y, self.t_rounds = y, 9 * 2 ** p.witness_qubits
        block_circuit(p, y)  # rejects a bad y or verifier before the loop is cached
        self.dim = 2 ** (p.verifier.n_qubits - p.bob_bits)
        # X^z is the index permutation that flips the witness bits set in z;
        # the witness bits sit just above the ancilla bits
        idx = np.arange(self.dim)
        self.perms = [idx ^ (z << p.ancilla_qubits) for z in range(2 ** p.witness_qubits)]
        self.basis = np.zeros((self.dim, 0), dtype=complex)
        self.images = np.zeros((len(self.perms), self.dim, 0), dtype=complex)  # P0_z B
        self.rounds = np.zeros((len(self.perms), 0, 0), dtype=complex)
        self.effect = np.zeros((0, 0), dtype=complex)
        self.residual = 0.0
        self.covered: frozenset[str] = frozenset()  # Alice inputs spanned at build

    def round_images(self, p: OneWayQmaProtocol, cols: np.ndarray) -> np.ndarray:
        """P0_z cols = X^z V' Pi_0 V X^z cols for every z, shape (2^W, dim, m)."""
        m = cols.shape[1]
        flipped = np.concatenate([cols[perm] for perm in self.perms], axis=1)
        back = project(p, self.y, flipped, 0)
        return np.stack([back[perm, z * m:(z + 1) * m] for z, perm in enumerate(self.perms)])

    def cover(self, p: OneWayQmaProtocol, cols: np.ndarray) -> np.ndarray:
        """Grow the basis until it spans `cols`, running p's verifier; returns
        their coordinates B' cols."""
        new = _new_directions(self.basis, cols)
        if not new.shape[1]:
            return self.basis.conj().T @ cols
        basis, images = self.basis, self.images
        while new.shape[1]:
            basis = np.hstack([basis, new])
            if basis.shape[1] > MAX_REACHABLE_DIM:
                raise ValueError(f"reachable subspace grew past {MAX_REACHABLE_DIM} dimensions")
            grown = self.round_images(p, new)
            images = np.concatenate([images, grown], axis=2)
            new = _new_directions(basis, np.hstack(list(grown)))
        rounds = basis.conj().T @ images
        residual = float(np.linalg.norm(images - basis @ rounds, 2, axis=(1, 2)).max())
        if residual > RESIDUAL_BOUND:
            raise ValueError(f"reachable subspace is not invariant: residual "
                             f"{residual:.3g} > {RESIDUAL_BOUND:g}")
        effect = average_channel_power(np.eye(basis.shape[1], dtype=complex),
                                       rounds.conj().swapaxes(1, 2), self.t_rounds)
        # commit only a loop that passed its audit
        self.basis, self.images, self.rounds = basis, images, rounds
        self.residual, self.effect = residual, effect
        return basis.conj().T @ cols


@per_protocol
def _loop(p: OneWayQmaProtocol, y: str, alice_inputs: tuple[str, ...]) -> _ReachableLoop:
    """The loop for y, built once per (protocol, y, alice_inputs): it first covers
    the initial states of `alice_inputs`, so its basis and effect are computed once
    however many pairs share y. A loop whose audit raises is not cached."""
    loop = _ReachableLoop(p, y)
    if alice_inputs:
        loop.cover(p, np.hstack([_initial_columns(p, a) for a in alice_inputs]))
        loop.covered = frozenset(alice_inputs)
    return loop


def _reachable_loop(d: DemerlinizedProtocol, x: str, y: str,
                    rho_alice: DensityMatrix | None = None) -> tuple[_ReachableLoop, np.ndarray]:
    """The cached loop for y and `d.f`'s Alice inputs, covering the initial state
    of x (or rho_alice).

    For one of those inputs it only projects x's cached initial columns onto the
    basis, which spans them since the build; any other x, and `rho_alice`, whose
    columns are built on every call, go through `cover`.
    """
    loop = _loop(d.base, y, d.f.alice_inputs() if d.f is not None else ())
    if rho_alice is None and x in loop.covered:
        return loop, loop.basis.conj().T @ _pure_columns(d.base, x)
    return loop, loop.cover(d.base, _initial_columns(d.base, x, rho_alice))


@dataclass(frozen=True)
class DemerlinReport:
    x: str
    y: str
    f_value: int | None
    p_accept: float
    yes_bound: float
    no_bound: float
    passed: bool
    residual: float  # invariance residual of the reachable subspace
    reachable_dim: int

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "f": self.f_value,
                "p_accept": self.p_accept, "yes_bound": self.yes_bound,
                "no_bound": self.no_bound, "pass": self.passed}


def evaluate_demerlinized(d: DemerlinizedProtocol, x: str, y: str,
                          rho_alice: DensityMatrix | None = None) -> DemerlinReport:
    """Exact acceptance probability of the emitted loop on input pair (x, y).

    Audited against the bounds the construction guarantees: at least 1/9 for
    f=1 pairs (the OR-bound arithmetic at eta = 2/3, T = 9N) and at most
    T * sqrt(5^-W) for f=0 pairs (the union bound over rounds).
    """
    loop, coords = _reachable_loop(d, x, y, rho_alice)
    p_never = float(np.vdot(coords, loop.effect @ coords).real)  # tr(C' E_y C)
    p_accept = min(max(1.0 - p_never, 0.0), 1.0)
    f_value = d.f.value(x, y) if d.f is not None else None
    yes_bound = YES_FLOOR
    no_bound = d.soundness_ceiling
    passed = True
    if f_value == 1:
        passed = p_accept >= yes_bound - ATOL
    elif f_value == 0:
        passed = p_accept <= no_bound + ATOL
    return DemerlinReport(x=x, y=y, f_value=f_value, p_accept=p_accept,
                          yes_bound=yes_bound, no_bound=no_bound, passed=passed,
                          residual=loop.residual, reachable_dim=loop.basis.shape[1])


def sample_demerlinized(d: DemerlinizedProtocol, x: str, y: str, shots: int,
                        seed: int | np.random.SeedSequence) -> tuple[float, float]:
    """Monte-Carlo estimate of the loop acceptance with per-shot coin draws.

    Walks normalized pure-state trajectories through the same round operators
    the exact evaluation uses, in reachable-subspace coordinates, with
    `monte_carlo_any_outcome1`: every shot starts in x's one start state, so
    a round steps only the few distinct states its alive shots share, each
    once per coin. Returns (estimate, stderr); `shots` must be at least 1.
    """
    rng = np.random.default_rng(seed)
    loop, coords = _reachable_loop(d, x, y)
    return monte_carlo_any_outcome1(coords[:, 0], loop.rounds, d.t_rounds, shots, rng)


# ---------------------------------------------------------------------------
# emitted circuit and resource accounting


def _witness_prep_gates(d: DemerlinizedProtocol, z: int,
                        layout: RegisterLayout) -> list[Gate]:
    w = d.base.witness_qubits
    wit = layout.qubits(WITNESS_REGISTER)
    return [x_gate(wit[i]) for i in range(w) if (z >> (w - 1 - i)) & 1]


def emitted_layout(d: DemerlinizedProtocol) -> RegisterLayout:
    """The base protocol's registers, then the loop's flag and counter."""
    return RegisterLayout.of(*d.base.layout.registers, ("flag", 1), ("counter", d.counter_qubits))


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
    return UnitaryCircuit(layout.n_qubits, tuple(gates))


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


def plan_final_vote(yes_floor: float = YES_FLOOR, no_ceiling: float = 0.0) -> FinalVotePlan:
    """Smallest repetition count whose threshold vote certifies 2/3 vs 1/3.

    At each r only the smallest threshold k with no-tail <= 1/3 is tried:
    both tails fall as k grows, so if that k misses the yes side, no k at
    this r certifies. That k never falls as r grows, so the scan carries it.
    """
    if not no_ceiling < yes_floor:
        raise ValueError("no-instance ceiling must sit strictly below the yes floor")
    k = 1
    for r in range(1, MAX_REPS + 1):
        while (no := binom_tail(r, no_ceiling, k)) > 1.0 / 3.0:
            k += 1
        yes = binom_tail(r, yes_floor, k)
        if yes >= 2.0 / 3.0:
            return FinalVotePlan(repetitions=r, threshold=k,
                                 yes_floor=yes_floor, no_ceiling=no_ceiling,
                                 certified_yes=yes, certified_no=no)
    raise ValueError(f"no threshold vote within {MAX_REPS} repetitions")


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
