"""Classical Merlin-aided random-access-code protocols over linear codes.

Alice splits her N-bit string into a substrings of w bits, encodes each with
a random linear code g over GF(2), and sends one uniformly chosen codeword
position k plus the k-th bit of every encoded substring. Merlin claims the
substring containing the queried bit; Bob cross-checks g(claim) against
Alice's bit at position k and outputs the claimed bit only when the check
passes. A cheat at codeword distance e from the truth is caught with
probability exactly e/W per round, so fresh-k repetition drives the
soundness error below any target at rate (1 - d/W) per round.

Also here: the amplify-and-enumerate reduction that removes Merlin from any
such protocol by majority-boosting Alice's message and looping over all 2^w
claims, and a pairwise-independent modular fingerprint for authenticating
long strings with short random advice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .amplify import binom_tail, majority_threshold, min_majority_reps

__all__ = [
    "LinearCode",
    "RacTranscript",
    "DetectionProfile",
    "MerlinRacProtocol",
    "ReducedRacProtocol",
    "ReducedAuditRecord",
    "FingerprintScheme",
    "build_code",
    "rac_round",
    "honest_merlin",
    "cheat_detection_profile",
    "honest_round_audit",
    "rounds_for_soundness",
    "wrapped_code_protocol",
    "tight_reduction",
    "audit_reduced",
    "fingerprint",
    "fingerprint_collisions",
    "DEFAULT_MODULUS",
]


def _gf2_rank(m: np.ndarray) -> int:
    m = m.copy() % 2
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def _codewords(g: np.ndarray) -> np.ndarray:
    """Every codeword of generator g, row m encoding the w-bit message m (big-endian)."""
    w = g.shape[1]
    messages = (np.arange(2 ** w)[:, None] >> np.arange(w - 1, -1, -1)) & 1
    return (messages.astype(np.uint8) @ g.T) % 2


MAX_CODE_TRIES = 500  # generators sampled by build_code before it gives up


@dataclass(frozen=True)
class LinearCode:
    """Generator matrix over GF(2), its codeword table and weights, and its
    minimum distance found by enumerating every codeword."""

    generator: np.ndarray  # shape (W, w), carries w-bit messages to W-bit words
    table: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    verified_min_distance: int = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=np.uint8) % 2
        object.__setattr__(self, "generator", g)
        w = g.shape[1]
        if w > 16:
            raise ValueError("exhaustive distance verification is capped at w = 16")
        if _gf2_rank(g) != w:
            raise ValueError("generator must have full column rank")
        table = _codewords(g)
        table.flags.writeable = False
        weights = table.sum(axis=1)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "verified_min_distance",
                           int(weights[1:].min(initial=g.shape[0] + 1)))

    @property
    def block_length(self) -> int:
        return int(self.generator.shape[0])

    @property
    def message_bits(self) -> int:
        return int(self.generator.shape[1])

    @property
    def distance_ratio(self) -> Fraction:
        return Fraction(self.verified_min_distance, self.block_length)

    def encode(self, message: str) -> np.ndarray:
        return self.table[int(message, 2)]

    def distance(self, a: str, b: str) -> int:
        """Distance between the codewords of a and b; by linearity, the weight of a ^ b's."""
        return int(self.weights[int(a, 2) ^ int(b, 2)])


def build_code(w: int, rate_factor: int = 4, seed: int = 0,
               target_ratio: Fraction = Fraction(1, 8)) -> LinearCode:
    """Seeded random linear code with min distance at least target_ratio * W.

    Resamples generators until the exhaustively computed distance clears the
    target; the shipped defaults make that quick for w <= 8.
    """
    if w < 1:
        raise ValueError("message width must be positive")
    big_w = rate_factor * w
    target = -(-big_w * target_ratio.numerator // target_ratio.denominator)  # ceil
    rng = np.random.default_rng(seed)
    for _ in range(MAX_CODE_TRIES):
        g = rng.integers(0, 2, size=(big_w, w), dtype=np.uint8)
        if _gf2_rank(g) != w:
            continue
        code = LinearCode(g)
        if code.verified_min_distance >= max(target, 1):
            return code
    raise ValueError(f"no code with distance >= {target} found in {MAX_CODE_TRIES} tries")


# ---------------------------------------------------------------------------
# single-round protocol


@dataclass(frozen=True)
class RacTranscript:
    k: int
    alice_bits: tuple[int, ...]
    merlin_message: str
    accepted: bool
    output: int | None


def _substring_index(i: int, w: int) -> tuple[int, int]:
    """Which substring holds bit i, and the bit's offset inside it."""
    return i // w, i % w


def _split(x: str, w: int) -> list[str]:
    if len(x) % w:
        x = x + "0" * (w - len(x) % w)  # zero-pad; queries to pad positions are rejected upstream
    return [x[j:j + w] for j in range(0, len(x), w)]


def honest_merlin(x: str, i: int, code: LinearCode) -> str:
    j, _ = _substring_index(i, code.message_bits)
    return _split(x, code.message_bits)[j]


def rac_round(x: str, i: int, code: LinearCode,
              merlin: Callable[[str, int], str] | None = None,
              rng: np.random.Generator | None = None) -> RacTranscript:
    """One round: Alice sends (k, k-th bit of each encoded substring), Merlin
    claims a substring, Bob checks the claim's codeword at position k and
    outputs the claimed bit on accept, abstaining on reject. Without `rng`,
    k is drawn from a generator seeded with 0."""
    if not 0 <= i < len(x):
        raise ValueError(f"index {i} out of range for {len(x)} bits")
    w = code.message_bits
    rng = rng or np.random.default_rng(0)
    substrings = _split(x, w)
    words = [code.encode(s) for s in substrings]
    k = int(rng.integers(0, code.block_length))
    alice_bits = tuple(int(word[k]) for word in words)
    claim = merlin(x, i) if merlin is not None else honest_merlin(x, i, code)
    if len(claim) != w:
        raise ValueError(f"Merlin message must have {w} bits")
    j, pos = _substring_index(i, w)
    accepted = int(code.encode(claim)[k]) == alice_bits[j]
    output = int(claim[pos]) if accepted else None
    return RacTranscript(k=k, alice_bits=alice_bits, merlin_message=claim,
                         accepted=accepted, output=output)


@dataclass(frozen=True)
class DetectionProfile:
    x: str
    i: int
    per_message: dict[str, Fraction]
    min_flipping: Fraction


def cheat_detection_profile(x: str, i: int, code: LinearCode) -> DetectionProfile:
    """Exact detection probability e/W for every dishonest claim.

    A claim at codeword distance e from the true substring is caught exactly
    when Alice's uniform k lands on a disagreeing position. The reported
    minimum ranges over answer-flipping claims only, the ones that would make
    Bob output the wrong bit.
    """
    w = code.message_bits
    big_w = code.block_length
    truth = honest_merlin(x, i, code)
    _, pos = _substring_index(i, w)
    per_message: dict[str, Fraction] = {}
    min_flip = Fraction(1)
    for m in range(2 ** w):
        claim = format(m, f"0{w}b")
        if claim == truth:
            continue
        e = code.distance(claim, truth)
        detection = Fraction(e, big_w)
        per_message[claim] = detection
        if claim[pos] != truth[pos]:
            min_flip = min(min_flip, detection)
    return DetectionProfile(x=x, i=i, per_message=per_message, min_flipping=min_flip)


def honest_round_audit(code: LinearCode, n_bits: int,
                       rng: np.random.Generator) -> tuple[int, list[Fraction]]:
    """`rac_round` with honest Merlin on every n_bits-bit x and index i, x major: the
    rounds that reject or output a bit other than x[i], and per bit offset the least
    `cheat_detection_profile(x, i, code).min_flipping` over the (x, i) at it.

    One `rng.integers` call draws every round's k, as one call per round would. By
    linearity a claim c against the truth s is caught with probability
    weight(c ^ s) / W and flips the answer iff c ^ s has the offset's bit set, so an
    offset's minimum is the least weight of a word with that bit set, over W."""
    w, big_w = code.message_bits, code.block_length
    if n_bits % w:
        raise ValueError(f"{n_bits} input bits do not split into {w}-bit substrings")
    x, i = np.arange(2 ** n_bits)[:, None], np.arange(n_bits)
    k = rng.integers(0, big_w, size=2 ** n_bits * n_bits).reshape(2 ** n_bits, n_bits)
    truth = (x >> (n_bits - w * (i // w + 1))) & (2 ** w - 1)  # the substring holding bit i
    claim = truth  # honest Merlin
    accepted = code.table[claim, k] == code.table[truth, k]
    output, bit = (claim >> (w - 1 - i % w)) & 1, (x >> (n_bits - 1 - i)) & 1
    failures = int(np.count_nonzero(~accepted | (output != bit)))
    d = np.arange(1, 2 ** w)
    flips = [Fraction(int(code.weights[d[((d >> (w - 1 - pos)) & 1) == 1]].min()), big_w)
             for pos in range(w)]
    return failures, flips


def rounds_for_soundness(code: LinearCode) -> int:
    """Fresh-k repetitions needed for worst-case cheat survival <= 1/3."""
    delta = code.distance_ratio
    if delta <= 0:
        raise ValueError("code has zero distance")
    survive = Fraction(1) - delta
    r, acc = 1, survive
    while acc > Fraction(1, 3):
        r += 1
        acc *= survive
    return r


# ---------------------------------------------------------------------------
# amplify-and-enumerate reduction


@dataclass(frozen=True)
class MerlinRacProtocol:
    """Randomized (a, w) protocol with Merlin, given as an exact acceptance map.

    `accept_prob(x, i, z)` is the probability (over Alice's randomness) that
    Bob accepts claim z as a proof that x_i = 1. Accepting conventionally
    requires the claimed bit to be 1. It reads x only through the w-bit
    substring holding bit i and i's offset in it (with w = 0, freely);
    `audit_reduced` relies on this.
    """

    n_bits: int
    substring_bits: int
    accept_prob: Callable[[str, int, str], Fraction]


def wrapped_code_protocol(code: LinearCode, n_bits: int) -> MerlinRacProtocol:
    """The code-checked round wrapped with fresh-k repetition to 1/3 soundness.

    Acceptance requires all r = rounds_for_soundness(code) checks to pass and
    the claimed bit to be 1, so a flipping cheat at codeword distance e
    survives with probability exactly (1 - e/W)^r.
    """
    w = code.message_bits
    if n_bits % w:
        raise ValueError("n_bits must be a multiple of the substring width")
    r = rounds_for_soundness(code)
    big_w = code.block_length
    survival = tuple(Fraction(big_w - e, big_w) ** r for e in range(big_w + 1))

    def accept_prob(x: str, i: int, z: str) -> Fraction:
        j, pos = _substring_index(i, w)
        if z[pos] != "1":
            return Fraction(0)
        return survival[code.distance(z, _split(x, w)[j])]

    return MerlinRacProtocol(n_bits=n_bits, substring_bits=w, accept_prob=accept_prob)


@dataclass(frozen=True)
class ReducedRacProtocol:
    """Merlin-free protocol: majority-vote copies, then loop over all claims."""

    base: MerlinRacProtocol
    copies: int
    per_claim_error: float


@dataclass(frozen=True)
class ReducedAuditRecord:
    x: str
    i: int
    value: int
    error_bound: float


def tight_reduction(base: MerlinRacProtocol) -> ReducedRacProtocol:
    """Send enough independent copies that any fixed claim errs with
    probability at most 2^-2(w+1), then have Bob enumerate all 2^w claims and
    output 1 iff some claim's majority vote accepts. With w = 0 there is
    nothing to enumerate and the protocol is returned as a single copy."""
    w = base.substring_bits
    if w == 0:
        return ReducedRacProtocol(base=base, copies=1, per_claim_error=0.0)
    target = Fraction(1, 2 ** (2 * (w + 1)))
    copies = min_majority_reps(Fraction(1, 3), target)
    return ReducedRacProtocol(base=base, copies=copies, per_claim_error=float(target))


def audit_reduced(reduced: ReducedRacProtocol, bit_of: Callable[[str, int], int],
                  inputs: list[str]) -> list[ReducedAuditRecord]:
    """Exhaustive one-sided error certificates for the reduced protocol.

    For x_i = 1 the error is at most the honest claim's majority-miss
    probability; for x_i = 0 it is at most the union over claims asserting 1
    of their majority-accept probabilities. Both are exact binomial tails;
    the union may overcount but never undercounts, so a certificate <= 1/3
    is sound. By the protocol's contract each bound depends only on the
    substring holding bit i, i's offset in it and the bit's value, so it is
    computed once per such key and shared by every (x, i) that has it.
    """
    base = reduced.base
    w = base.substring_bits
    maj = majority_threshold(reduced.copies)
    records = []
    tail_cache: dict[tuple[int, int], float] = {}
    bounds: dict[tuple, float] = {}  # by (substring holding bit i, i mod w, value)

    def tail(p: Fraction) -> float:
        key = p.numerator, p.denominator
        if key not in tail_cache:
            tail_cache[key] = float(binom_tail(reduced.copies, p, maj))
        return tail_cache[key]

    def bound(x: str, i: int, value: int, honest: str) -> float:
        if value == 1:
            return 1.0 - tail(base.accept_prob(x, i, honest))
        err = 0.0
        for z in claims:
            p = base.accept_prob(x, i, z)
            if p:
                err += tail(p)
        return min(err, 1.0)

    # with w = 0 the one claim is the empty string
    claims = [format(m, f"0{w}b") for m in range(2 ** w)] if w else [""]
    for x in inputs:
        parts = _split(x, w) if w else None
        for i in range(base.n_bits):
            value = bit_of(x, i)
            honest = parts[i // w] if w else ""
            key = (honest, i % w, value) if w else (x, i, value)
            if key not in bounds:
                bounds[key] = bound(x, i, value, honest)
            records.append(ReducedAuditRecord(x=x, i=i, value=value, error_bound=bounds[key]))
    return records


# ---------------------------------------------------------------------------
# pairwise-independent fingerprinting

DEFAULT_MODULUS = (1 << 89) - 1  # Mersenne prime, 89-bit capacity
_RAW_CHUNK = 4096  # raw PCG64 words read as one block of trials at a time; bounds memory


def _check_output_range(modulus: int, output_bits: int) -> None:
    if 2 ** output_bits > modulus:
        raise ValueError("output range must not exceed the modulus")


def _check_capacity(data_bits: int, modulus: int) -> None:
    capacity = modulus.bit_length() - 1
    if data_bits > capacity:
        raise ValueError(f"data length {data_bits} exceeds capacity {capacity}")


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 word array as a Python int, the first column leading."""
    values = [0] * len(bits)
    for lo in range(0, bits.shape[1], 64):
        chunk = bits[:, lo:lo + 64]
        shifts = np.arange(chunk.shape[1] - 1, -1, -1, dtype=np.uint64)
        packed = (chunk << shifts).sum(axis=1, dtype=np.uint64).tolist()
        values = [v << chunk.shape[1] | p for v, p in zip(values, packed)]
    return values


def _hash(value: int, alpha: int, beta: int, modulus: int, output_bits: int) -> int:
    return ((alpha * value + beta) % modulus) % 2 ** output_bits


@dataclass(frozen=True)
class FingerprintScheme:
    """One draw of (alpha, beta) for the hash data -> ((alpha*data + beta) mod p) mod 2^m."""

    modulus: int
    output_bits: int
    alpha: int
    beta: int

    def __post_init__(self):
        if not (0 <= self.alpha < self.modulus and 0 <= self.beta < self.modulus):
            raise ValueError("coefficients must lie in [0, modulus)")
        _check_output_range(self.modulus, self.output_bits)


def fingerprint(data: str, scheme: FingerprintScheme) -> int:
    _check_capacity(len(data), scheme.modulus)
    value = int(data, 2) if data else 0
    return _hash(value, scheme.alpha, scheme.beta, scheme.modulus, scheme.output_bits)


def fingerprint_collisions(seed: np.random.SeedSequence, bits: int, output_bits: int,
                           trials: int) -> int:
    """Collisions of the DEFAULT_MODULUS fingerprint over `trials` draws of a scheme
    and two distinct `bits`-bit strings.

    A trial takes, from `np.random.default_rng(seed)`, `integers(0, 2**63, size=4)`
    for the scheme (alpha from the first pair of words, beta from the second, each
    pair joined high word first, reduced mod p), then `integers(0, 2, size=bits)` for
    x, then again for y until y != x; the first bit drawn leads the string. Those
    values are replayed from a fresh PCG64's raw words: a 63-bit draw is a word >> 1
    (Lemire's method never rejects at that range), and a bit draw is the top bit of
    the next 32-bit half, the low half of a new word first. PCG64 keeps an unused
    high half for the next bit draw, past 64-bit draws.

    Until y is redrawn, every trial takes 4 + bits whole words, and whether a high
    half is pending stays the same, so up to _RAW_CHUNK words are read as one block
    of trials, one row each. The trials before the block's first x == y are hashed
    from it; that trial's redraws are replayed one bit at a time, and the next block
    starts after them.
    """
    _check_output_range(DEFAULT_MODULUS, output_bits)
    _check_capacity(bits, DEFAULT_MODULUS)
    bit_generator = np.random.PCG64(seed)
    width = 4 + bits
    raw = np.empty(0, dtype=np.uint64)  # drawn words not yet used
    pending = None  # top bit of the unused high half, if there is one

    def draw_bits() -> int:
        nonlocal raw, pending
        value = 0
        for _ in range(bits):
            if pending is None:
                if not len(raw):
                    raw = bit_generator.random_raw(_RAW_CHUNK)
                word, raw = int(raw[0]), raw[1:]
                bit, pending = word >> 31 & 1, word >> 63
            else:
                bit, pending = pending, None
            value = value << 1 | bit
        return value

    collisions = 0
    while trials:
        n = min(trials, _RAW_CHUNK // width)
        if len(raw) < n * width:
            raw = np.concatenate((raw, bit_generator.random_raw(_RAW_CHUNK)))
        block = raw[:n * width].reshape(n, width)
        halves = np.empty((n, 2 * bits), dtype=np.uint64)
        halves[:, 0::2], halves[:, 1::2] = block[:, 4:] >> 31 & 1, block[:, 4:] >> 63
        if pending is not None:  # each trial starts with the high half the last one left
            last = halves[:, -1].copy()
            halves[:, 1:] = halves[:, :-1]
            halves[0, 0], halves[1:, 0] = pending, last[:-1]
        redraw = (halves[:, :bits] == halves[:, bits:]).all(axis=1)
        rows = int(redraw.argmax()) + 1 if redraw.any() else n
        raw = raw[rows * width:]
        if pending is not None:
            pending = int(last[rows - 1])
        x, y = _pack_rows(halves[:rows, :bits]), _pack_rows(halves[:rows, bits:])
        while y[-1] == x[-1]:
            y[-1] = draw_bits()
        for (a_hi, a_lo, b_hi, b_lo), xv, yv in zip((block[:rows, :4] >> 1).tolist(), x, y):
            alpha = (a_hi << 63 | a_lo) % DEFAULT_MODULUS
            beta = (b_hi << 63 | b_lo) % DEFAULT_MODULUS
            collisions += (_hash(xv, alpha, beta, DEFAULT_MODULUS, output_bits)
                           == _hash(yv, alpha, beta, DEFAULT_MODULUS, output_bits))
        trials -= rows
    return collisions
