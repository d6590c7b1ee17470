"""Two-layer error amplification for one-way protocols with a witness.

Inner layer: run the verifier ell times in parallel on fresh advice and
witness copies, output the majority. Outer layer: run the inner verifier u
times on fresh advice blocks while reusing one shared witness register,
count accepts in a reversible tally, uncompute each invocation, and output
the tally majority. The outer layer keeps the witness short while pushing the
certified soundness below 5^-W for W total witness qubits.

All planning arithmetic is exact rational binomial-tail computation; no
asymptotic constants are trusted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, expm1, isqrt, log, log1p, log10, sqrt

from .protocol import (
    ADVICE_REGISTER,
    ANCILLA_REGISTER,
    BOB_REGISTER,
    WITNESS_REGISTER,
    OneWayQmaProtocol,
    protocol_layout,
)
from .qcore import (
    Gate,
    RegisterLayout,
    StateVector,
    UnitaryCircuit,
    counter_threshold_gate,
    increment_gate,
    kron_power,
    majority_gate,
)

__all__ = [
    "AmplificationPlan",
    "PlanInfeasibleError",
    "binom_tail",
    "majority_threshold",
    "min_majority_reps",
    "plan_amplification",
    "desk_plan",
    "identity_plan",
    "build_inner",
    "build_outer",
]

MAX_REPS = 2001  # search cap on majority-vote repetition counts
DESK_MAX_REPS = 99  # search cap on ell and u in desk_plan
BASE_ERROR = Fraction(1, 3)  # the bounded-error promise every plan starts from


class PlanInfeasibleError(ValueError):
    """No repetition counts satisfy the requested certificates."""


def majority_threshold(n: int) -> int:
    """Votes needed for a strict majority of n outcomes (n odd avoids ties)."""
    return n // 2 + 1


def binom_tail(n: int, p, k: int):
    """Pr[Binomial(n, p) >= k]: exact for a Fraction p, float for a float p.

    p is never coerced, so the result has p's type. With p = a/b the exact
    tail is one integer sum over b^n, reduced once. A float tail sums in log
    space, so it does not overflow at large n, on the side of k away from the
    mean n p: the upper tail itself when k > n p, else 1 minus a lower tail of
    at most about 1/2, so a small tail is never a difference of two near 1.
    """
    if k <= 0:
        return type(p)(1)
    if k > n:
        return type(p)(0)
    if isinstance(p, Fraction):
        a, b = p.numerator, p.denominator
        return Fraction(sum(comb(n, j) * a ** j * (b - a) ** (n - j) for j in range(k, n + 1)),
                        b ** n)
    if not 0.0 < p < 1.0:
        return 1.0 if p >= 1.0 else 0.0
    if k > n * p:
        return exp(_log_binom_sum(n, p, range(k, n + 1)))
    return -expm1(_log_binom_sum(n, p, range(k - 1, -1, -1)))


def _log_binom_sum(n: int, p: float, js: range) -> float:
    """Float log of sum over j in js of Pr[Binomial(n, p) = j], for 0 < p < 1.

    `js` steps by +1 or -1. The first term's log comes from the exact integer
    comb(n, j), each later one from the pmf ratio of neighbours. The pmf is
    unimodal, so once a term falls 40 nats below the largest so far every
    later term is smaller still; the sum stops there.
    """
    lodds = log(p) - log1p(-p)
    t = log(comb(n, js[0])) + js[0] * lodds + n * log1p(-p)
    top, terms = t, [t]
    for j in js[1:]:
        t += log((n - j + 1) / j) + lodds if js.step > 0 else log((j + 1) / (n - j)) - lodds
        if t < top - 40.0:
            break
        top = max(top, t)
        terms.append(t)
    return top + log(sum(exp(t - top) for t in terms))


def _majority_reps(error: Fraction, target: Fraction, cap: int) -> tuple[int, Fraction] | None:
    """Smallest odd n <= cap with exact Pr[Bin(n, error) >= maj] <= target, and that tail.

    Float log tails, with two nats of slack, only find the first count worth
    an exact check; exact tails decide from that count on.
    """
    start, p = 1, float(error)
    if 0.0 < p < 1.0 and target > 0:
        log_target = log(target.numerator) - log(target.denominator) + 2.0
        start = next((n for n in range(1, cap + 1, 2)
                      if _log_binom_sum(n, p, range(majority_threshold(n), n + 1)) <= log_target),
                     cap + 1)
    for n in range(start, cap + 1, 2):
        tail = binom_tail(n, error, majority_threshold(n))
        if tail <= target:
            return n, tail
    return None


def min_majority_reps(base_error: Fraction, target: Fraction) -> int:
    """Smallest odd n whose exact majority-vote error is at most `target`."""
    found = _majority_reps(Fraction(base_error), Fraction(target), MAX_REPS)
    if found is None:
        raise PlanInfeasibleError(
            f"no odd repetition count up to {MAX_REPS} reaches {float(target):.3e}")
    return found[0]


@dataclass(frozen=True)
class AmplificationPlan:
    """Repetition counts plus the exact certificates they earn.

    ell: inner parallel repetitions (odd); u: outer invocations (odd);
    alice_qubits_total = a * ell * u; witness_qubits_total = w * ell.
    `soundness_cert_log10` is the exact conditional-domination certificate
    log10 Pr[tally majority | each invocation accepts w.p. <= inner_error];
    `completeness_union_bound` is u * sqrt(inner_error), the damage-union
    guarantee for a reused honest witness (it may exceed 1/3 for desk plans,
    whose completeness is audited exactly on the built circuit instead).
    """

    base_alice_qubits: int
    base_witness_qubits: int
    ell: int
    u: int
    inner_error: float
    target_inner_error: float
    soundness_cert_log10: float

    def __post_init__(self):
        if self.ell < 1 or self.u < 1:
            raise ValueError("repetition counts must be at least 1")

    @property
    def alice_qubits_total(self) -> int:
        return self.base_alice_qubits * self.ell * self.u

    @property
    def witness_qubits_total(self) -> int:
        return self.base_witness_qubits * self.ell

    @property
    def soundness_target_log10(self) -> float:
        return -self.witness_qubits_total * log10(5.0)

    @property
    def completeness_union_bound(self) -> float:
        return float(self.u) * sqrt(self.inner_error)

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "u": self.u,
            "alice_qubits_total": self.alice_qubits_total,
            "witness_qubits_total": self.witness_qubits_total,
            "inner_error": self.inner_error,
            "target_inner_error": self.target_inner_error,
            "soundness_cert_log10": self.soundness_cert_log10,
            "soundness_target_log10": self.soundness_target_log10,
            "completeness_union_bound": self.completeness_union_bound,
        }


def _make_plan(a: int, w: int, ell: int, u: int, eps: Fraction,
               target_eps: Fraction, cert: Fraction) -> AmplificationPlan:
    if cert > 0:
        cert_log10 = (log10(cert.numerator) - log10(cert.denominator))
    else:
        cert_log10 = float("-inf")
    return AmplificationPlan(
        base_alice_qubits=a,
        base_witness_qubits=w,
        ell=ell,
        u=u,
        inner_error=float(eps),
        target_inner_error=float(target_eps),
        soundness_cert_log10=cert_log10,
    )


def plan_amplification(a: int, w: int) -> AmplificationPlan:
    """Smallest (ell, u) meeting the inner-error target and both outer certificates.

    The inner target is 1/(1000 w^3) from base error BASE_ERROR; u must
    satisfy the completeness union bound u * sqrt(eps) < 1/3 and the exact
    soundness certificate Pr[Bin(u, eps) >= maj] <= 5^-(w*ell). The smallest
    ell certifying the inner target alone admits no valid u at small w, so the
    search raises ell until the window between the two u-constraints opens.
    """
    if w < 2:
        raise ValueError("amplification planning requires witness width w >= 2")
    target_eps = Fraction(1, 1000 * w ** 3)
    ell0 = min_majority_reps(BASE_ERROR, target_eps)
    for ell in range(ell0, MAX_REPS + 1, 2):
        eps = binom_tail(ell, BASE_ERROR, majority_threshold(ell))
        # completeness cap: u * sqrt(eps) < 1/3, kept rational as u^2 * eps < 1/9
        u_cap = isqrt(int(Fraction(1, 9) / eps)) + 1
        while u_cap * u_cap * eps >= Fraction(1, 9):
            u_cap -= 1
        found = _majority_reps(eps, Fraction(1, 5 ** (w * ell)), u_cap)
        if found is not None:
            u, cert = found
            return _make_plan(a, w, ell, u, eps, target_eps, cert)
    raise PlanInfeasibleError("no feasible (ell, u) within the search cap")


def identity_plan(a: int, w: int) -> AmplificationPlan:
    """Trivial (ell=1, u=1) plan for protocols that already meet their targets.

    Used when a toy's native soundness is at or below 5^-w, which the
    witness-enumeration loop audits independently.
    """
    return _make_plan(a, w, 1, 1, BASE_ERROR, BASE_ERROR, BASE_ERROR)


def desk_plan(a: int, w: int, base_error: Fraction = BASE_ERROR) -> AmplificationPlan:
    """Smallest (ell, u) whose exact certificates reach soundness 5^-(w*ell).

    Desk-scale variant: drops the 1/(1000 w^3) inner target and the union
    completeness constraint (completeness is audited exactly on the built
    protocol instead), so the resulting widths stay simulable. Works for
    w >= 1.
    """
    if w < 1:
        raise ValueError("witness width must be at least 1")
    base_error = Fraction(base_error)
    for ell in range(1, DESK_MAX_REPS + 1, 2):
        eps = binom_tail(ell, base_error, majority_threshold(ell))
        found = _majority_reps(eps, Fraction(1, 5 ** (w * ell)), DESK_MAX_REPS)
        if found is not None:
            u, cert = found
            return _make_plan(a, w, ell, u, eps, Fraction(1, 1000 * w ** 3), cert)
    raise PlanInfeasibleError("no desk-scale plan within the repetition cap")


# ---------------------------------------------------------------------------
# circuit construction


def _register_map(src: OneWayQmaProtocol, dst_layout: RegisterLayout,
                  advice_block: int, witness_block: int,
                  ancilla_block: int) -> dict[int, int]:
    """Map a base-protocol qubit index into a composed layout; every copy
    shares Bob's register, so it keeps block 0."""
    blocks = {BOB_REGISTER: 0, ADVICE_REGISTER: advice_block,
              WITNESS_REGISTER: witness_block, ANCILLA_REGISTER: ancilla_block}
    mapping: dict[int, int] = {}
    src_layout = src.layout
    for name in src_layout.names:
        off = dst_layout.offset(name) + blocks[name]
        mapping.update((q, off + j) for j, q in enumerate(src_layout.qubits(name)))
    return mapping


def _tensor_power_encoder(base_encode, copies: int):
    def encode(x: str) -> StateVector:
        return StateVector(kron_power(base_encode(x).amplitudes, copies))
    return encode


def build_inner(p: OneWayQmaProtocol, ell: int) -> OneWayQmaProtocol:
    """Parallel ell-fold repetition with a reversible majority vote.

    Advice and witness registers become ell-fold copies; each copy keeps its
    own ancilla block, and one fresh ancilla qubit collects the majority of
    the per-copy accept qubits.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    a, w, k = p.alice_qubits, p.witness_qubits, p.ancilla_qubits
    layout = protocol_layout(p.bob_bits, a * ell, w * ell, k * ell + 1)
    gates: list[Gate] = []
    accepts: list[int] = []
    for i in range(ell):
        m = _register_map(p, layout, advice_block=i * a, witness_block=i * w,
                          ancilla_block=i * k)
        gates.extend(g.remapped(m) for g in p.verifier.gates)
        accepts.append(m[p.accept_qubit])
    out_qubit = layout.offset(ANCILLA_REGISTER) + k * ell
    gates.append(majority_gate(accepts, out_qubit))
    circuit = UnitaryCircuit(layout.n_qubits, tuple(gates))
    return OneWayQmaProtocol(
        bob_bits=p.bob_bits,
        alice_qubits=a * ell,
        witness_qubits=w * ell,
        ancilla_qubits=k * ell + 1,
        verifier=circuit,
        accept_qubit=out_qubit,
        alice_encode=_tensor_power_encoder(p.advice_state, ell),
    )


def build_outer(inner: OneWayQmaProtocol, u: int) -> OneWayQmaProtocol:
    """u sequential invocations sharing one witness register and ancilla block.

    Each invocation consumes a fresh advice copy, adds its accept bit to a
    log2(u+1)-bit tally via a controlled reversible increment, and is then
    uncomputed gate-by-gate; the final accept qubit holds the tally majority.
    """
    if u < 1:
        raise ValueError("u must be at least 1")
    a_in, w_in, k_in = inner.alice_qubits, inner.witness_qubits, inner.ancilla_qubits
    tally_bits = u.bit_length()  # holds counts 0..u
    anc_total = k_in + tally_bits + 1
    layout = protocol_layout(inner.bob_bits, a_in * u, w_in, anc_total)
    anc_off = layout.offset(ANCILLA_REGISTER)
    tally = tuple(range(anc_off + k_in, anc_off + k_in + tally_bits))
    out_qubit = anc_off + k_in + tally_bits
    gates: list[Gate] = []
    for t in range(u):
        m = _register_map(inner, layout, advice_block=t * a_in, witness_block=0,
                          ancilla_block=0)
        block = [g.remapped(m) for g in inner.verifier.gates]
        gates.extend(block)
        gates.append(increment_gate(tally, controls=(m[inner.accept_qubit],)))
        gates.extend(g.inverse() for g in reversed(block))
    gates.append(counter_threshold_gate(tally, out_qubit, majority_threshold(u)))
    circuit = UnitaryCircuit(layout.n_qubits, tuple(gates))
    return OneWayQmaProtocol(
        bob_bits=inner.bob_bits,
        alice_qubits=a_in * u,
        witness_qubits=w_in,
        ancilla_qubits=anc_total,
        verifier=circuit,
        accept_qubit=out_qubit,
        alice_encode=_tensor_power_encoder(inner.advice_state, u),
    )
