import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from demerlab.advice import AdviceVerifier, RandomizedAdvice
from demerlab.amplify import binom_tail, majority_threshold
from demerlab.protocol import (
    ADVICE_REGISTER,
    ANCILLA_REGISTER,
    BOB_REGISTER,
    WITNESS_REGISTER,
    OneWayQmaProtocol,
    induced_witness_operator,
    protocol_layout,
)
from demerlab.qcore import (
    DensityMatrix,
    Gate,
    StateVector,
    TwoOutcomeMeasurement,
    UnitaryCircuit,
    apply_kraus,
    basis_state,
    complex_gaussian,
    kron_pairs,
    mcx,
    ry_gate,
    scaled_gram,
    unit_trace_gram,
)
from demerlab.rac import (
    DEFAULT_MODULUS,
    FingerprintScheme,
    LinearCode,
    ReducedAuditRecord,
    cheat_detection_profile,
    fingerprint,
    rac_round,
)
from demerlab.toys import _accept_angle, rac_claim_protocol


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def two_call_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """The two-call draw, real part first, that `qcore.complex_gaussian` makes in one call."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = two_call_gaussian(rng, (dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    return DensityMatrix(np.eye(2 ** n_qubits, dtype=complex) / 2 ** n_qubits)


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    z = complex_gaussian(rng, 2 ** n_qubits)
    return StateVector(z / np.linalg.norm(z))


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """a (x) b through `qcore.kron_pairs` on stacks of one; a's qubits come first."""
    return DensityMatrix(kron_pairs(a.matrix[None], b.matrix[None])[0])


def random_density(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    return DensityMatrix(unit_trace_gram(complex_gaussian(rng, (2 ** n_qubits, 2 ** n_qubits))))


def random_effect(n_qubits: int, rng: np.random.Generator,
                  scale: float | None = None) -> TwoOutcomeMeasurement:
    """Random effect operator 0 <= E <= scale * I (scale defaults to uniform)."""
    g = complex_gaussian(rng, (2 ** n_qubits, 2 ** n_qubits))
    if scale is None:
        scale = float(rng.uniform(0.0, 1.0))
    effect, spectrum = scaled_gram(g, scale)
    return TwoOutcomeMeasurement(effect, spectrum=spectrum)


def h_gate(q: int) -> Gate:
    return Gate("h", (q,), np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


def rac_plain_protocol(n_bits: int):
    """Witness-free variant of `rac_claim_protocol`: Bob just measures Alice's i-th qubit."""
    p, f = rac_claim_protocol(n_bits)
    layout = protocol_layout(p.bob_bits, n_bits, 0, 1)
    bob = layout.qubits(BOB_REGISTER)
    advice, accept = layout.offset(ADVICE_REGISTER), layout.offset(ANCILLA_REGISTER)
    gates = tuple(mcx(controls=bob + (advice + i,), target=accept,
                      control_values=tuple(map(int, format(i, f"0{p.bob_bits}b"))) + (1,))
                  for i in range(n_bits))
    return dataclasses.replace(p, witness_qubits=0, verifier=UnitaryCircuit(layout.n_qubits, gates),
                               accept_qubit=accept), f


def perturbed_rac_protocol(n_bits: int, bad_index: int):
    """rac_claim_protocol with soundness deliberately broken at one index.

    On query bad_index the verifier leaks acceptance probability 0.4 > 1/3
    even when Alice's bit is 0, so every pair (X, bad_index) with that bit 0
    violates soundness and nothing else does.
    """
    p, f = rac_claim_protocol(n_bits)
    layout = p.layout
    pattern = tuple(int(b) for b in format(bad_index, f"0{p.bob_bits}b"))
    extra = ry_gate(p.accept_qubit, _accept_angle(0.4),
                    controls=layout.qubits(BOB_REGISTER) + (
                        layout.offset(ADVICE_REGISTER) + bad_index,
                        layout.offset(WITNESS_REGISTER)),
                    control_values=pattern + (0, 1))
    verifier = UnitaryCircuit(layout.n_qubits, p.verifier.gates + (extra,))
    return dataclasses.replace(p, verifier=verifier), f


def one_qubit_advice_verifier(gates, language: dict[str, int],
                              values: tuple = ("0", "1")) -> AdviceVerifier:
    """Advice verifier on qubits (bob, advice, witness, accept) = (0, 1, 2, 3):
    each advice string is a basis state of the advice qubit, drawn uniformly."""
    p = OneWayQmaProtocol(bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=1,
                          verifier=UnitaryCircuit(4, tuple(gates)), accept_qubit=3,
                          alice_encode=lambda r: basis_state(1, r))
    advice = RandomizedAdvice(values=values, probs=(Fraction(1, len(values)),) * len(values))
    return AdviceVerifier(protocol=p, language=language, advice=advice)


def boosted_basis_accepts(v: AdviceVerifier, advice_tuple: tuple, x: str) -> list[int]:
    """Basis witnesses that a majority of `advice_tuple` accepts on input x, each
    vote read off one pair's induced witness operator."""
    votes = sum(induced_witness_operator(v.protocol, r, x).diagonal().real for r in advice_tuple)
    return [z for z, count in enumerate(votes) if count >= majority_threshold(len(advice_tuple))]


def repetition_code(copies: int) -> LinearCode:
    return LinearCode(generator=np.ones((copies, 1), dtype=np.uint8))


def exact_collision_probability(modulus: int, output_bits: int, x: int, y: int) -> Fraction:
    """Collision probability of the modular fingerprint of x != y over all
    (alpha, beta) draws, by full enumeration; only sensible for small moduli."""
    mask = 2 ** output_bits
    hits = sum(((alpha * x + beta) % modulus) % mask == ((alpha * y + beta) % modulus) % mask
               for alpha in range(modulus) for beta in range(modulus))
    return Fraction(hits, modulus * modulus)


def draw_scheme(rng: np.random.Generator, modulus: int = DEFAULT_MODULUS,
                output_bits: int = 32) -> FingerprintScheme:
    """Coefficients from four 63-bit words, each pair joined high word first."""
    a_hi, a_lo, b_hi, b_lo = rng.integers(0, 2 ** 63, size=4).tolist()
    return FingerprintScheme(modulus=modulus, output_bits=output_bits,
                             alpha=(a_hi << 63 | a_lo) % modulus,
                             beta=(b_hi << 63 | b_lo) % modulus)


def per_call_collisions(seed: np.random.SeedSequence, bits: int, output_bits: int,
                        trials: int) -> int:
    """The per-call draw loop that `rac.fingerprint_collisions` replays from raw
    words: per trial a scheme, then x, then y until y != x, each bit string from
    one `integers(0, 2, size=bits)` call, hashed with `rac.fingerprint`."""
    rng = np.random.default_rng(seed)

    def random_bits() -> str:
        return "".join(map(str, rng.integers(0, 2, size=bits).tolist()))

    collisions = 0
    for _ in range(trials):
        scheme = draw_scheme(rng, output_bits=output_bits)
        x = y = random_bits()
        while y == x:
            y = random_bits()
        collisions += fingerprint(x, scheme) == fingerprint(y, scheme)
    return collisions


def per_pair_audit(reduced, bit_of, inputs: list[str]) -> list[ReducedAuditRecord]:
    """The per-(x, i) loop that `rac.audit_reduced` runs once per (substring, offset,
    value): every pair's bound computed from its own acceptance probabilities."""
    base = reduced.base
    w = base.substring_bits
    maj = majority_threshold(reduced.copies)
    claims = [format(m, f"0{w}b") for m in range(2 ** w)] if w else [""]
    records = []
    for x in inputs:
        for i in range(base.n_bits):
            value = bit_of(x, i)
            if value == 1:
                honest = x[i // w * w:i // w * w + w] if w else ""
                err = 1.0 - float(binom_tail(reduced.copies, base.accept_prob(x, i, honest), maj))
            else:
                err = 0.0
                for z in claims:
                    p = base.accept_prob(x, i, z)
                    if p:
                        err += float(binom_tail(reduced.copies, p, maj))
                err = min(err, 1.0)
            records.append(ReducedAuditRecord(x=x, i=i, value=value, error_bound=err))
    return records


def per_round_rac_audit(code: LinearCode, n_bits: int,
                        rng: np.random.Generator) -> tuple[int, list[Fraction]]:
    """`rac.honest_round_audit` as one `rac_round` and one `cheat_detection_profile`
    per (x, i), x major."""
    w = code.message_bits
    failures, flips = 0, [Fraction(1)] * w
    for xv in range(2 ** n_bits):
        x = format(xv, f"0{n_bits}b")
        for i in range(n_bits):
            t = rac_round(x, i, code, rng=rng)
            failures += not (t.accepted and t.output == int(x[i]))
            flips[i % w] = min(flips[i % w], cheat_detection_profile(x, i, code).min_flipping)
    return failures, flips


def per_kraus_channel_power(m: np.ndarray, kraus, t: int) -> np.ndarray:
    """`qcore.average_channel_power` as one `apply_kraus` pass, Kraus term by term, per step."""
    for _ in range(t):
        m = apply_kraus(m, kraus) / len(kraus)
    return m


def per_gate_apply(circ: UnitaryCircuit, amps: np.ndarray) -> np.ndarray:
    """`UnitaryCircuit.apply` one step per gate, with no fusion: each gate rewrites
    only the slice its controls select, by one matrix product on that slice with
    its targets moved first."""
    n, amps = circ.n_qubits, np.asarray(amps, dtype=complex)
    t = amps.reshape((2,) * n + (amps.size // circ.dim,)).copy()
    for g in circ.gates:
        select = [slice(None)] * n
        for q, v in zip(g.controls, g.control_values):
            select[q] = v
        select = tuple(select)
        free = [q for q in range(n) if q not in g.controls]
        order = [free.index(q) for q in g.targets]
        order += [a for a, q in enumerate(free) if q not in g.targets] + [len(free)]
        moved = t[select].transpose(order)
        out = np.dot(g.matrix, moved.reshape(g.matrix.shape[0], -1))
        t[select] = out.reshape(moved.shape).transpose(np.argsort(order))
    return t.reshape(amps.shape)
