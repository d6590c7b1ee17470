"""Fixing randomized advice by counting, and training quantum advice by
postselection, at exhaustively checkable scale.

All three procedures audit one `AdviceVerifier`: a `OneWayQmaProtocol` whose
Bob input is the problem input and whose Alice input is the advice string,
with a language and a distribution over advice strings.

* ma_fix_advice: majority-boost a verifier that uses randomized advice until
  each constrained (input, witness) pair errs with probability below
  2^-n * 2^-w, then sample advice tuples until one decides every pair
  correctly; the tuple ships with an exhaustive certificate.
* qma_fix_advice: same counting trick with a quantum witness. Yes-instances
  are certified through the optimal witness; no-instances only need checking
  on computational basis witnesses, because the maximally mixed state bounds
  the optimal acceptance by 2^w times the best basis acceptance.
* qcma_train: start from the maximally mixed advice state, repeatedly run an
  amplified verifier on training pairs, postselect the output onto the known
  label, and keep extending while each step multiplies the survival
  probability by at most 2/3. At the greedy fixpoint the surviving state
  decides every input by thresholding witness acceptances at 2/3 and 1/3.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Sequence

import numpy as np

from .amplify import binom_tail, build_inner, majority_threshold, min_majority_reps
from .protocol import (
    OneWayQmaProtocol,
    accept_effect,
    per_protocol,
    project,
    rest_columns,
    witness_operators,
)
from .qcore import ATOL, apply_kraus, hermitize, kron_power, top_eigenpair

__all__ = [
    "PromiseViolationError",
    "RandomizedAdvice",
    "AdviceVerifier",
    "FixedMaAdvice",
    "FixedQmaAdvice",
    "TrainingSet",
    "TrainedDecider",
    "DecisionRecord",
    "ma_fix_advice",
    "qma_fix_advice",
    "qcma_train",
    "j_fold_decision",
]


MAX_DRAWS = 10_000  # seeded advice draws tried per repetition count


class PromiseViolationError(RuntimeError):
    """The verifier broke its completeness/soundness promise."""


def _witness_strings(w: int) -> list[str]:
    """Every w-bit classical witness, in increasing order."""
    return [format(z, f"0{w}b") for z in range(2 ** w)]


@dataclass(frozen=True)
class RandomizedAdvice:
    """Explicit finite advice distribution; probabilities are exact rationals."""

    values: tuple
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must align")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("advice probabilities must sum to 1")

    def sample_tuple(self, rng: np.random.Generator, reps: int) -> tuple:
        weights = np.array([float(p) for p in self.probs])
        picks = rng.choice(len(self.values), size=reps, p=weights / weights.sum())
        return tuple(self.values[i] for i in picks)


@dataclass(frozen=True)
class AdviceVerifier:
    """A protocol deciding a language with randomized advice.

    Bob's input register carries the problem input x. Alice's input is an
    advice string, which `protocol.alice_encode` maps to the advice state.
    The fixers draw advice strings from `advice`; training takes the mixture
    of their encoded states as the true advice.
    """

    protocol: OneWayQmaProtocol
    language: dict[str, int]
    advice: RandomizedAdvice

    def __post_init__(self):
        for x in self.language:
            if len(x) != self.protocol.bob_bits:
                raise ValueError(f"language input {x!r} does not fit the input register")

    def inputs(self) -> list[str]:
        return sorted(self.language)


def _advice_operators(v: AdviceVerifier) -> dict[str, dict[object, np.ndarray]]:
    """Witness operator of every input under every advice value, one Bob-block run per input."""
    values = list(v.advice.values)
    return {x: dict(zip(values, witness_operators(v.protocol, x, values))) for x in v.inputs()}


def _basis_acceptances(op: np.ndarray) -> list[int]:
    """Acceptance of each basis witness, read off the diagonal; each must be exactly 0 or 1."""
    diag = op.diagonal().real
    if not np.isin(diag, (0.0, 1.0)).all():
        raise ValueError("verifier must be deterministic (accept in {0, 1})")
    return [int(d) for d in diag]


@dataclass(frozen=True)
class FixedMaAdvice:
    reps: int
    advice_tuple: tuple
    per_pair_error_target: float
    draws_used: int
    certificate: dict[str, int]  # input -> chosen witness index, -1 for reject-all

    def to_json_dict(self) -> dict:
        return {"reps": self.reps, "draws_used": self.draws_used,
                "advice_tuple": [str(r) for r in self.advice_tuple],
                "per_pair_error_target": self.per_pair_error_target,
                "certificate": dict(sorted(self.certificate.items()))}


def _first_qualifying(advice: RandomizedAdvice, rng: np.random.Generator, reps: int,
                      certify: Callable[[tuple], dict | None]) -> tuple[int, tuple, dict] | None:
    """(draw number, tuple, certificate) of the first of MAX_DRAWS seeded advice tuples
    of length `reps` for which `certify` returns a certificate, or None."""
    for draw in range(1, MAX_DRAWS + 1):
        advice_tuple = advice.sample_tuple(rng, reps)
        cert = certify(advice_tuple)
        if cert is not None:
            return draw, advice_tuple, cert
    return None


def ma_fix_advice(v: AdviceVerifier, seed: int = 7) -> FixedMaAdvice:
    """Find a fixed advice tuple deciding every input of a verifier whose basis
    witnesses are accepted with probability 0 or 1 under each advice value.

    Boosting: the smallest odd tuple length whose exact majority-vote error on
    every constrained pair drops below 2^-n * 2^-w. Constrained pairs are the
    best witness of each yes-instance and every witness of each no-instance;
    other pairs carry no promise. The tuple itself is found by seeded
    sampling, whose success probability the union bound keeps positive, and
    is re-verified exhaustively before being returned.
    """
    zs = _witness_strings(v.protocol.witness_qubits)
    target = Fraction(1, 2 ** v.protocol.bob_bits * len(zs))
    hits = {x: {r: _basis_acceptances(op) for r, op in ops.items()}
            for x, ops in _advice_operators(v).items()}
    worst = Fraction(0)  # largest single-run error over the constrained pairs
    for x in v.inputs():
        probs = [sum((p * hits[x][r][i] for r, p in zip(v.advice.values, v.advice.probs)),
                     Fraction(0)) for i in range(len(zs))]
        if v.language[x] == 1:
            best = max(probs)
            if best < Fraction(2, 3):
                raise PromiseViolationError(f"yes-instance {x!r} has no witness at 2/3")
            worst = max(worst, 1 - best)
        else:
            for z, p in zip(zs, probs):
                if p > Fraction(1, 3):
                    raise PromiseViolationError(f"no-instance {x!r} accepts witness {z!r}")
                worst = max(worst, p)
    # at odd reps a pair wanting 1 errs with Pr[Bin(reps, 1 - p) >= maj], and
    # the tail rises with the error, so the worst pair bounds every pair; the
    # union bound over all pairs needs the strict <
    reps = 1
    while binom_tail(reps, worst, majority_threshold(reps)) >= target:
        reps += 2
        if reps > 501:
            raise PromiseViolationError("boosting does not converge; promise too weak")

    def certify(advice_tuple: tuple) -> dict[str, int] | None:
        maj = majority_threshold(len(advice_tuple))
        cert: dict[str, int] = {}
        for x in v.inputs():
            accepted = [i for i in range(len(zs))
                        if sum(hits[x][r][i] for r in advice_tuple) >= maj]
            if bool(accepted) != (v.language[x] == 1):
                return None
            cert[x] = accepted[0] if accepted else -1
        return cert

    found = _first_qualifying(v.advice, np.random.default_rng(seed), reps, certify)
    if found is None:
        raise PromiseViolationError(f"no qualifying advice tuple within {MAX_DRAWS} draws")
    draw, advice_tuple, cert = found
    return FixedMaAdvice(reps=reps, advice_tuple=advice_tuple,
                         per_pair_error_target=float(target),
                         draws_used=draw, certificate=cert)


# ---------------------------------------------------------------------------
# quantum witness variant


@dataclass(frozen=True)
class FixedQmaAdvice:
    reps: int
    advice_tuple: tuple
    boosted_witness_qubits: int
    yes_threshold: float
    basis_threshold: float
    draws_used: int
    mixed_state_certificates: dict[str, float]  # no-instance -> optimal acceptance

    def to_json_dict(self) -> dict:
        return {"reps": self.reps, "draws_used": self.draws_used,
                "advice_tuple": [str(r) for r in self.advice_tuple],
                "boosted_witness_qubits": self.boosted_witness_qubits,
                "yes_threshold": self.yes_threshold,
                "basis_threshold": self.basis_threshold,
                "mixed_state_certificates": dict(sorted(self.mixed_state_certificates.items()))}


def _majority_operator(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Acceptance operator of a majority vote over commuting tensor factors.

    DP over copies: track the operator-valued distribution of the accept
    count, then sum the tail at the majority threshold.
    """
    table: list[np.ndarray] = [np.eye(1, dtype=complex)]
    for op in ops:
        dim = op.shape[0]
        miss = np.eye(dim, dtype=complex) - op
        new_table = []
        for c in range(len(table) + 1):
            acc = None
            if c < len(table):
                acc = np.kron(table[c], miss)
            if c > 0:
                hit = np.kron(table[c - 1], op)
                acc = hit if acc is None else acc + hit
            new_table.append(acc)
        table = new_table
    need = majority_threshold(len(ops))
    return hermitize(sum(table[need:]))


def qma_fix_advice(v: AdviceVerifier, seed: int = 7) -> FixedQmaAdvice:
    """Fixed advice tuple for a quantum-witness toy verifier.

    Parallel repetition replaces in-place amplification, so the boosted
    witness has reps * w qubits. A tuple qualifies when every yes-instance
    clears 1 - 2^-3w' through its optimal witness and every no-instance stays
    at or below 2^-2w' on every computational basis witness; the maximally
    mixed state then caps the optimal no-instance witness at 2^w' times the
    basis maximum, which is checked numerically and must land at or below 1/3.
    """
    w = v.protocol.witness_qubits
    reps = 3 if w == 1 else 1
    rng = np.random.default_rng(seed)
    ops = _advice_operators(v)
    while True:
        w_boost = reps * w
        if w_boost > 10:
            raise PromiseViolationError("boosted witness register exceeds desk scale")
        yes_threshold = 1.0 - 2.0 ** (-3 * w_boost)
        basis_threshold = 2.0 ** (-2 * w_boost)

        def certify(advice_tuple: tuple) -> dict[str, float] | None:
            certificates: dict[str, float] = {}
            for x in v.inputs():
                boosted = _majority_operator([ops[x][r] for r in advice_tuple])
                if v.language[x] == 1:
                    if top_eigenpair(boosted)[0] < yes_threshold - ATOL:
                        return None
                    continue
                # the basis-diagonal check is cheaper than top_eigenpair, so it runs first
                diag_max = float(np.max(boosted.diagonal().real))
                if diag_max > basis_threshold + ATOL:
                    return None
                lam, _ = top_eigenpair(boosted)
                if lam > 2 ** w_boost * diag_max + ATOL or lam > 1.0 / 3.0 + ATOL:
                    return None
                certificates[x] = lam
            return certificates

        found = _first_qualifying(v.advice, rng, reps, certify)
        if found is not None:
            draw, advice_tuple, certificates = found
            return FixedQmaAdvice(
                reps=reps, advice_tuple=advice_tuple,
                boosted_witness_qubits=w_boost,
                yes_threshold=yes_threshold, basis_threshold=basis_threshold,
                draws_used=draw, mixed_state_certificates=certificates)
        reps += 2


# ---------------------------------------------------------------------------
# quantum advice with classical witnesses: postselection training


@dataclass(frozen=True)
class TrainingSet:
    """Greedy postselection history with survival probabilities p_0 = 1 >= ..."""

    triples: tuple[tuple[str, str, int], ...]
    survivals: tuple[float, ...]
    maximal: bool

    def __post_init__(self):
        if not self.survivals or abs(self.survivals[0] - 1.0) > ATOL:
            raise ValueError("survival sequence must start at p_0 = 1")
        if len(self.survivals) != len(self.triples) + 1:
            raise ValueError("need one survival value per step plus p_0")
        for t in range(len(self.triples)):
            if self.survivals[t + 1] > (2.0 / 3.0) * self.survivals[t] + ATOL:
                raise ValueError(f"step {t + 1} shrinks survival by less than 2/3")

    @property
    def size(self) -> int:
        return len(self.triples)

    def to_json_dict(self) -> dict:
        return {"triples": [list(t) for t in self.triples],
                "survivals": list(self.survivals), "maximal": self.maximal}


@dataclass(frozen=True)
class DecisionRecord:
    x: str
    verdict: int
    lambdas: dict[str, float]


@dataclass(frozen=True)
class TrainedDecider:
    verifier: AdviceVerifier
    amplified: OneWayQmaProtocol
    ell: int
    advice_matrix: np.ndarray  # trained state on the amplified advice register
    error_rate: float          # certified per-run error of the amplified verifier

    def lambdas(self, x: str) -> dict[str, float]:
        return _acceptances(self.amplified, x, self.advice_matrix)

    def decide(self, x: str) -> DecisionRecord:
        lams = self.lambdas(x)
        best = max(lams.values())
        verdict = _verdict(best, 2.0 / 3.0, 1.0 / 3.0,
                           f"input {x!r}: best witness acceptance {best:.4f} falls in (1/3, 2/3)")
        return DecisionRecord(x=x, verdict=verdict, lambdas=lams)


def _verdict(value: float, accept_floor: float, reject_ceiling: float, message: str) -> int:
    """1 at or above `accept_floor`, 0 at or below `reject_ceiling`, within ATOL; else raise."""
    if value >= accept_floor - ATOL:
        return 1
    if value <= reject_ceiling + ATOL:
        return 0
    raise PromiseViolationError(message)


def _advice_columns(p: OneWayQmaProtocol, z: str) -> np.ndarray:
    """Columns |a> (x) |z> (x) |0> for every advice basis state a."""
    wit = np.eye(2 ** p.witness_qubits, dtype=complex)[:, [int(z, 2) if z else 0]]
    return rest_columns(p, np.eye(2 ** p.alice_qubits, dtype=complex), wit)


@per_protocol
def _branch_kraus(p: OneWayQmaProtocol, x: str, z: str, keep_outcome: int) -> list[np.ndarray]:
    """Kraus operators on the advice register for one postselected run.

    Run the verifier with witness |z> and zeroed ancillas, record the accept
    bit, uncompute; keeping outcome b applies the projector V' Pi_b V on the
    joint space. Tracing the witness and ancilla registers afterwards leaves
    the advice-register map sum_m K_m rho K_m'. Built once per protocol.
    """
    dim_a = 2 ** p.alice_qubits
    t = project(p, x, _advice_columns(p, z), keep_outcome).reshape(dim_a, -1, dim_a)
    return [np.ascontiguousarray(t[:, m, :]) for m in range(t.shape[1])]


@per_protocol
def _witness_effect(p: OneWayQmaProtocol, x: str, z: str) -> np.ndarray:
    """Acceptance effect on the advice register for a fixed classical witness,
    built once per protocol."""
    return accept_effect(p, x, _advice_columns(p, z))


def _acceptances(p: OneWayQmaProtocol, x: str, rho: np.ndarray) -> dict[str, float]:
    """tr(E_xz rho), clipped to [0, 1], for every classical witness z of `p`."""
    return {z: min(max(float(np.real(np.trace(_witness_effect(p, x, z) @ rho))), 0.0), 1.0)
            for z in _witness_strings(p.witness_qubits)}


def _true_advice(v: AdviceVerifier) -> np.ndarray:
    """Density matrix of the true advice: the advice values' encoded states, mixed."""
    return sum(float(p) * v.protocol.advice_state(r).density().matrix
               for r, p in zip(v.advice.values, v.advice.probs))


def _amplify_for_training(v: AdviceVerifier) -> tuple[OneWayQmaProtocol, int, float]:
    """Inner-repetition count with error 1/A^4 at the fixpoint A = a * ell."""
    base = v.protocol
    rho = _true_advice(v)
    base_err = Fraction(0)
    for x in v.inputs():
        best = Fraction(max(_acceptances(base, x, rho).values()))
        # completeness is promised for some witness, soundness for every one;
        # the error rounds up to the 1e-9 grid, so the bound is never optimistic
        err = 1 - best if v.language[x] == 1 else best
        base_err = max(base_err, Fraction(ceil(err * 10 ** 9), 10 ** 9))
    if base_err > Fraction(1, 3):
        raise PromiseViolationError(f"base verifier error {float(base_err):.3f} exceeds 1/3")
    ell = 1
    for _ in range(10):
        a_total = base.alice_qubits * ell
        target = Fraction(1, a_total ** 4) if a_total > 1 else Fraction(1, 3)
        need = min_majority_reps(base_err, target) if base_err > 0 else 1
        if need <= ell:
            err = float(binom_tail(ell, base_err, majority_threshold(ell)))
            return (build_inner(base, ell) if ell > 1 else base), ell, err
        ell = need
    raise PromiseViolationError("amplification fixpoint did not converge")


def qcma_train(v: AdviceVerifier) -> tuple[TrainingSet, TrainedDecider]:
    """Greedy maximal postselection training from the maximally mixed state.

    Candidates are (input, witness) pairs; rule (b) restricts yes-instances
    to witnesses the true advice accepts with probability >= 1 - error.
    Greedy picks the surviving-probability-minimizing pair (lexicographic
    tie-break) while the ratio stays at or below 2/3, then records
    maximality. Postselection is exact projection plus renormalization;
    zero-probability branches are errors, not skips.
    """
    amplified, ell, err = _amplify_for_training(v)
    dim_a = 2 ** amplified.alice_qubits
    rho = np.eye(dim_a, dtype=complex) / dim_a
    true_rho = kron_power(_true_advice(v), ell)
    # rule (b): yes-instances train only on witnesses the true advice accepts
    cand = [(x, z) for x in v.inputs() for z, acc in _acceptances(amplified, x, true_rho).items()
            if v.language[x] == 0 or acc >= 1.0 - err - ATOL]
    triples: list[tuple[str, str, int]] = []
    survivals = [1.0]
    while True:
        best_pair = None
        best_ratio = None
        for x, z in cand:
            branch = apply_kraus(rho, _branch_kraus(amplified, x, z, v.language[x]))
            ratio = float(np.trace(branch).real)
            if ratio <= 1e-12:
                continue  # degenerate pair: nothing to postselect on
            if ratio <= 2.0 / 3.0 + ATOL and (best_ratio is None or ratio < best_ratio - 1e-12):
                best_ratio = ratio
                best_pair = (x, z, branch)
        if best_pair is None:
            break
        x, z, branch = best_pair
        p_step = float(np.trace(branch).real)
        rho = hermitize(branch) / p_step
        survivals.append(survivals[-1] * p_step)
        triples.append((x, z, v.language[x]))
        if len(triples) > 16 * dim_a:
            raise PromiseViolationError("training set grew past the survival floor")
    training = TrainingSet(triples=tuple(triples), survivals=tuple(survivals), maximal=True)
    decider = TrainedDecider(verifier=v, amplified=amplified, ell=ell,
                             advice_matrix=rho, error_rate=err)
    return training, decider


def true_advice_wrong_probability(v: AdviceVerifier, training: TrainingSet,
                                  decider: TrainedDecider) -> float:
    """Exact probability that the true advice errs somewhere along the history."""
    rho = kron_power(_true_advice(v), decider.ell)
    for x, z, label in training.triples:
        rho = apply_kraus(rho, _branch_kraus(decider.amplified, x, z, label))
    return min(max(1.0 - float(np.trace(rho).real), 0.0), 1.0)


# ---------------------------------------------------------------------------
# decision amplification over independent trained registers


@dataclass(frozen=True)
class JFoldDecision:
    x: str
    verdict: int
    j_copies: int
    mean_acceptance: float
    boosted_lambdas: dict[str, float]


def j_fold_decision(decider: TrainedDecider, x: str) -> JFoldDecision:
    """Majority vote over J independent trained advice registers per witness.

    J is the smallest odd count boosting error 1/3 to 2^-2w, so acceptances
    separate into >= 1 - 2^-2w versus <= 2^-2w; the witness-averaged mean S
    then splits at 2^-(w+1) versus 2^-2w and a threshold on S decides. A mean
    inside the forbidden band raises.
    """
    w = decider.amplified.witness_qubits
    j_copies = min_majority_reps(Fraction(1, 3), Fraction(1, 2 ** (2 * w)))
    maj = majority_threshold(j_copies)
    lams = decider.lambdas(x)
    boosted = {z: binom_tail(j_copies, lam, maj) for z, lam in lams.items()}
    s = sum(boosted.values()) / len(boosted)
    verdict = _verdict(s, 2.0 ** (-(w + 1)), 2.0 ** (-2 * w),
                       f"input {x!r}: mean boosted acceptance {s:.5f} in the forbidden band")
    return JFoldDecision(x=x, verdict=verdict, j_copies=j_copies,
                         mean_acceptance=s, boosted_lambdas=boosted)
