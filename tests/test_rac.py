import json
from fractions import Fraction
from math import ceil, log

import numpy as np
import pytest

from demerlab.rac import (
    DEFAULT_MODULUS,
    LinearCode,
    MerlinRacProtocol,
    audit_reduced,
    build_code,
    cheat_detection_profile,
    fingerprint,
    fingerprint_collisions,
    honest_merlin,
    honest_round_audit,
    rac_round,
    rounds_for_soundness,
    tight_reduction,
    wrapped_code_protocol,
)
from conftest import (
    draw_scheme,
    exact_collision_probability,
    per_call_collisions,
    per_pair_audit,
    per_round_rac_audit,
    repetition_code,
)


def oracle_min_distance(generator: np.ndarray) -> int:
    """Independent distance oracle: XOR generator columns per message bit."""
    big_w, w = generator.shape
    cols = [generator[:, j].astype(int) for j in range(w)]
    best = big_w + 1
    for m in range(1, 2 ** w):
        word = np.zeros(big_w, dtype=int)
        for j in range(w):
            if (m >> j) & 1:
                word ^= cols[j]
        best = min(best, int(word.sum()))
    return best


# ---------------------------------------------------------------------------
# codes


def test_repetition_code_distance():
    assert repetition_code(3).verified_min_distance == 3


def test_code_distance_matches_oracle():
    code = build_code(4, rate_factor=4, seed=0)
    assert code.verified_min_distance == oracle_min_distance(code.generator)
    assert code.verified_min_distance >= 2  # ceil(16/8)


def test_default_w8_code_distance():
    code = build_code(8, rate_factor=4, seed=0)
    assert code.block_length == 32
    assert code.verified_min_distance == oracle_min_distance(code.generator)
    assert code.verified_min_distance >= 4


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
def test_codeword_table_matches_generator(w):
    for seed in range(3):
        code = build_code(w, seed=seed)
        messages = [format(m, f"0{w}b") for m in range(2 ** w)]
        words = {}
        for s in messages:
            bits = np.array([int(b) for b in s], dtype=np.uint8)
            words[s] = (code.generator @ bits) % 2
            assert np.array_equal(code.encode(s), words[s])
        for a in messages:
            for b in messages:
                assert code.distance(a, b) == int((words[a] != words[b]).sum())


def test_codeword_table_is_read_only():
    code = build_code(3, seed=0)
    with pytest.raises(ValueError):
        code.encode("101")[0] = 1


def test_build_code_enumerates_each_generator_once(monkeypatch):
    import demerlab.rac as rac

    seen = []

    def counting(g):
        seen.append(g.tobytes())
        return enumerate_codewords(g)

    enumerate_codewords = rac._codewords
    monkeypatch.setattr(rac, "_codewords", counting)
    # a demanding target makes build_code reject some generators first
    code = build_code(4, seed=0, target_ratio=Fraction(3, 8))
    assert len(seen) > 1
    assert len(set(seen)) == len(seen)
    assert seen[-1] == code.generator.tobytes()
    assert code.verified_min_distance == oracle_min_distance(code.generator) >= 6
    seen.clear()
    repetition_code(3)
    assert len(seen) == 1


def test_code_rejects_rank_deficiency():
    g = np.zeros((4, 2), dtype=np.uint8)
    g[:, 0] = 1
    g[:, 1] = 1
    with pytest.raises(ValueError, match="rank"):
        LinearCode(generator=g)


# ---------------------------------------------------------------------------
# single round


def test_honest_round_exhaustive_n8():
    code = build_code(4, seed=0)
    rng = np.random.default_rng(0)
    for xv in range(256):
        x = format(xv, "08b")
        for i in range(8):
            t = rac_round(x, i, code, rng=rng)
            assert t.accepted
            assert t.output == int(x[i])
            assert len(t.alice_bits) == 2


def test_honest_substring_indistinguishable():
    code = build_code(4, seed=0)
    t = rac_round("10110100", 2, code,
                  merlin=lambda x, i: honest_merlin(x, i, code),
                  rng=np.random.default_rng(1))
    assert t.accepted


def test_index_out_of_range():
    code = build_code(2, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        rac_round("1010", 4, code)


def test_detection_probability_is_distance_ratio():
    # detection for a cheat at codeword distance e is exactly e / W
    code = build_code(4, seed=0)
    x, i = "10110100", 5
    truth = honest_merlin(x, i, code)
    true_word = code.encode(truth)
    profile = cheat_detection_profile(x, i, code)
    for claim, detection in profile.per_message.items():
        e = int((code.encode(claim) != true_word).sum())
        assert detection == Fraction(e, code.block_length)
    assert profile.min_flipping >= code.distance_ratio


def test_detection_repetition_code_is_certain():
    profile = cheat_detection_profile("1", 0, repetition_code(3))
    assert profile.min_flipping == 1


def test_cheat_detection_frequency_matches_exact():
    # empirical detection frequency over every k equals the exact ratio
    code = build_code(2, seed=1)
    x, i = "1001", 1
    truth = honest_merlin(x, i, code)
    cheat = "".join("1" if c == "0" else "0" for c in truth)
    hits = 0
    for k in range(code.block_length):
        class FixedK:
            def __init__(self, k):
                self.k = k

            def integers(self, lo, hi):
                return self.k
        t = rac_round(x, i, code, merlin=lambda *_: cheat, rng=FixedK(k))
        hits += 0 if t.accepted else 1
    exact = cheat_detection_profile(x, i, code).per_message[cheat]
    assert Fraction(hits, code.block_length) == exact


def test_rounds_for_soundness_formula():
    code = build_code(4, seed=0)
    r = rounds_for_soundness(code)
    delta = code.distance_ratio
    survive = Fraction(1) - delta
    assert survive ** r <= Fraction(1, 3)
    assert survive ** (r - 1) > Fraction(1, 3)
    formula = ceil(log(3) / -log(1 - float(delta)))
    assert r == formula


# ---------------------------------------------------------------------------
# amplify-and-enumerate reduction


def test_reduction_identity_without_witness():
    base = wrapped_code_protocol(build_code(1, rate_factor=3, seed=0), 2)
    base0 = base.__class__(n_bits=base.n_bits, substring_bits=0, accept_prob=base.accept_prob)
    reduced = tight_reduction(base0)
    assert reduced.copies == 1
    assert reduced.per_claim_error == 0.0


def test_audit_reduced_without_witness():
    base0 = MerlinRacProtocol(n_bits=3, substring_bits=0,
                              accept_prob=lambda x, i, z: Fraction(int(x[i])))
    reduced = tight_reduction(base0)
    assert reduced.copies == 1
    inputs = ["000", "101", "111"]
    records = audit_reduced(reduced, lambda x, i: int(x[i]), inputs)
    assert len(records) == 9
    assert all(r.error_bound == 0 for r in records)


def test_reduction_per_claim_error_target():
    code = build_code(1, rate_factor=3, seed=0)
    base = wrapped_code_protocol(code, 4)
    reduced = tight_reduction(base)
    assert reduced.per_claim_error <= 2.0 ** (-2 * (base.substring_bits + 1))


def test_reduced_protocol_passes_exhaustive_audit_n4():
    code = repetition_code(3)
    base = wrapped_code_protocol(code, 4)
    reduced = tight_reduction(base)
    inputs = [format(v, "04b") for v in range(16)]
    records = audit_reduced(reduced, lambda x, i: int(x[i]), inputs)
    assert max(r.error_bound for r in records) <= 1.0 / 3.0


def test_reduced_protocol_w4_certificates():
    code = build_code(4, seed=0)
    base = wrapped_code_protocol(code, 8)
    reduced = tight_reduction(base)
    inputs = [format(v, "08b") for v in range(256)]
    records = audit_reduced(reduced, lambda x, i: int(x[i]), inputs)
    worst = max(r.error_bound for r in records)
    assert worst <= 1.0 / 3.0
    # soundness certificates stay below the claim-union target
    assert worst <= 2.0 ** (-base.substring_bits - 2) + 1e-12


def _counting_protocol(base: MerlinRacProtocol, calls: list) -> MerlinRacProtocol:
    def accept_prob(x, i, z):
        calls.append((x, i, z))
        return base.accept_prob(x, i, z)

    return MerlinRacProtocol(n_bits=base.n_bits, substring_bits=base.substring_bits,
                             accept_prob=accept_prob)


@pytest.mark.parametrize("code, n", [
    *((build_code(w, seed=0), 2 * w) for w in (1, 2, 3, 4)),
    (repetition_code(3), 4),
], ids=["w1", "w2", "w3", "w4", "repetition3"])
def test_audit_reduced_matches_the_per_pair_oracle(code, n):
    reduced = tight_reduction(wrapped_code_protocol(code, n))
    inputs = [format(v, f"0{n}b") for v in range(2 ** n)]
    calls = []
    counted = tight_reduction(_counting_protocol(reduced.base, calls))
    records = audit_reduced(counted, lambda x, i: int(x[i]), inputs)
    assert records == per_pair_audit(reduced, lambda x, i: int(x[i]), inputs)
    # one bound per (substring, offset): a 1 asks the honest claim, a 0 all 2^w claims
    w = code.message_bits
    assert len(calls) == 2 ** w * w // 2 * (1 + 2 ** w)
    if w == 4:
        assert len(calls) == 544  # not 2^8 inputs x 8 bits, 1024 x 1 + 1024 x 16 = 17408


def test_wrapped_protocol_acceptance_values():
    code = build_code(4, seed=0)
    r = rounds_for_soundness(code)
    base = wrapped_code_protocol(code, 8)
    x, i = "10110100", 5
    honest = honest_merlin(x, i, code)
    if x[i] == "1":
        assert base.accept_prob(x, i, honest) == 1
    cheat_profile = cheat_detection_profile(x, i, code)
    for claim, detection in cheat_profile.per_message.items():
        if claim[i % 4] == "1":
            expected = (Fraction(1) - detection) ** r
            assert base.accept_prob(x, i, claim) == expected


def test_wrapped_protocol_survival_table_matches_formula():
    code = build_code(2, seed=0)
    r, big_w = rounds_for_soundness(code), code.block_length
    base = wrapped_code_protocol(code, 4)
    for x in (format(v, "04b") for v in range(16)):
        for i in range(4):
            truth = x[i // 2 * 2:i // 2 * 2 + 2]
            for z in ("00", "01", "10", "11"):
                formula = (Fraction(big_w - code.distance(z, truth), big_w) ** r
                           if z[i % 2] == "1" else Fraction(0))
                got = base.accept_prob(x, i, z)
                assert type(got) is Fraction and got == formula


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_capacity_enforced(rng):
    scheme = draw_scheme(rng, modulus=97, output_bits=3)
    assert fingerprint("1" * 6, scheme) < 8
    with pytest.raises(ValueError, match="capacity"):
        fingerprint("1" * 64, scheme)


def test_exact_collision_bound_small_modulus():
    # exhaustive over all (alpha, beta): bound 2^(1-m) and pair-independence
    p, m = 13, 2
    base = exact_collision_probability(p, m, 3, 7)
    assert base <= Fraction(2, 2 ** m)
    for x, y in ((0, 1), (5, 12), (2, 9)):
        assert exact_collision_probability(p, m, x, y) == base


def test_single_bit_flip_collision_equals_random_pair():
    # pairwise independence: a one-bit flip collides exactly as often as any
    # other distinct pair
    p, m = 17, 2
    flip = exact_collision_probability(p, m, 0b1010, 0b1011)
    other = exact_collision_probability(p, m, 3, 14)
    assert flip == other


def test_empirical_collision_rate_8bit(rng):
    # all-pairs sampling at m = 6: rate <= 2^-5 plus 3 standard errors
    trials = 10_000
    collisions = 0
    for _ in range(trials):
        scheme = draw_scheme(rng, output_bits=6)
        x = int(rng.integers(0, 256))
        y = int(rng.integers(0, 256))
        while y == x:
            y = int(rng.integers(0, 256))
        xs, ys = format(x, "08b"), format(y, "08b")
        if fingerprint(xs, scheme) == fingerprint(ys, scheme):
            collisions += 1
    bound = 2.0 ** (-5)
    sigma = (bound * (1 - bound) / trials) ** 0.5
    assert collisions / trials <= bound + 3 * sigma


def test_counting_floor_no_short_deterministic_encoding():
    """Falsification of sub-logarithmic messages at N = 8, w = 0.

    A deterministic Merlin-free protocol is a decoder mapping each of the 2^a
    messages to the N-bit string it answers queries by; correctness on every
    (X, i) forces every X to equal some decoder row. Exhausting every decoder
    with a < log2(N) - 1 message bits shows none covers {0,1}^N, so no
    deterministic Alice encoding passes the audit.
    """
    import itertools

    n = 8
    for a in (0, 1):
        best_coverage = 0
        for decoder in itertools.product(range(2 ** n), repeat=2 ** a):
            best_coverage = max(best_coverage, len(set(decoder)))
        assert best_coverage == 2 ** a
        assert best_coverage < 2 ** n  # some X is never decodable


def test_default_modulus_is_prime():
    # deterministic Miller-Rabin witnesses suffice below 3.3 * 10^24; for the
    # 89-bit Mersenne default use sympy as an independent oracle
    import sympy

    assert sympy.isprime(DEFAULT_MODULUS)


def test_draw_scheme_keeps_the_four_scalar_draw_stream():
    def four_scalar_draws(rng, modulus=DEFAULT_MODULUS, output_bits=32):
        def draw():
            raw = int(rng.integers(0, 2 ** 63)) << 63 | int(rng.integers(0, 2 ** 63))
            return raw % modulus
        alpha = draw()
        return alpha, draw()

    for seed in range(50):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            scheme = draw_scheme(new, output_bits=6)
            assert (scheme.alpha, scheme.beta) == four_scalar_draws(old)
        assert new.integers(0, 2 ** 63) == old.integers(0, 2 ** 63)


@pytest.mark.parametrize("n_bits, w", [(1, 1), (2, 1), (3, 3), (4, 2), (6, 3), (8, 4), (6, 6)])
def test_honest_round_audit_matches_the_per_round_oracle(n_bits, w):
    # one substring and several, one-bit messages and six-bit ones, three codes each
    for seed in range(3):
        code = build_code(w, seed=seed)
        rng, oracle = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        assert honest_round_audit(code, n_bits, rng) == per_round_rac_audit(code, n_bits, oracle)
        assert rng.random() == oracle.random()  # the one draw consumed what the rounds did


def test_rac_audit_runs_no_round_and_builds_no_profile(monkeypatch, tmp_path):
    import demerlab.cli as cli
    import demerlab.rac as rac

    def refuse(*args, **kwargs):
        raise AssertionError("rac audit ran a per-(x, i) step")

    for name in ("rac_round", "cheat_detection_profile", "honest_merlin"):
        monkeypatch.setattr(rac, name, refuse)
    out = tmp_path / "audit.json"
    assert cli.main(["rac", "audit", "--n", "8", "--w", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["pass"] is True


@pytest.mark.parametrize("bits, output_bits", [
    (1, 1), (2, 1), (3, 2), (7, 3), (8, 6), (16, 4), (16, 88), (88, 40)])
def test_fingerprint_collisions_match_the_per_call_oracle(bits, output_bits):
    # bits 1 redraws y on about half the trials, odd widths leave a half word for
    # the next draw, 88-bit strings pack past one 64-bit word, and 3000 trials span
    # several blocks of trials, at odd widths with a half word pending across their edges
    seeds = np.random.SeedSequence(bits * 100 + output_bits).spawn(21)
    for seed, trials in zip(seeds, [150] * 20 + [3000]):
        assert (fingerprint_collisions(seed, bits, output_bits, trials)
                == per_call_collisions(seed, bits, output_bits, trials))


@pytest.mark.parametrize("bits, output_bits, message", [
    (8, 89, "output range must not exceed the modulus"),
    (89, 6, "data length 89 exceeds capacity 88"),
])
def test_fingerprint_collisions_check_sizes_once_like_the_scheme(bits, output_bits, message):
    seed = np.random.SeedSequence(0)
    with pytest.raises(ValueError, match=message):
        per_call_collisions(seed, bits, output_bits, 1)
    with pytest.raises(ValueError, match=message):
        fingerprint_collisions(seed, bits, output_bits, 1)


def test_rac_fingerprint_report_counts_the_per_call_oracle_collisions(tmp_path):
    import demerlab.cli as cli

    out = tmp_path / "fp.json"
    for seed in (1, 7):  # seed 0 is the golden report's
        assert cli.main(["rac", "fingerprint", "--trials", "10000", "--seed", str(seed),
                         "--out", str(out)]) == 0
        want = per_call_collisions(cli._child_seeds(seed, 1)[0], 8, 6, 10_000)
        assert json.loads(out.read_text())["results"][0]["collision_rate"] == want / 10_000


def test_rac_fingerprint_judges_collisions_by_an_exact_binomial_tail(monkeypatch, tmp_path):
    import demerlab.cli as cli

    # every trial collides
    monkeypatch.setattr(cli, "fingerprint_collisions", lambda seed, bits, m, trials: trials)
    out = tmp_path / "fp.json"
    # one collision has probability 2^(1-6) = 1/32 at the bound, above the
    # one-sided 3-sigma rate 0.00135, so it is no evidence against the bound
    assert cli.main(["rac", "fingerprint", "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["collision_rate"] == 1.0
    assert cli.main(["rac", "fingerprint", "--trials", "20", "--out", str(out)]) == 1
    # at m = 1 the bound is 1, so no collision count is evidence against it
    assert cli.main(["rac", "fingerprint", "--m-bits", "1", "--trials", "20",
                     "--out", str(out)]) == 0


@pytest.mark.parametrize("name, argv", [
    ("rac-audit.csv", "rac audit --n 8 --w 4 --seed 1 --format csv"),
    ("rac-fingerprint.json", "rac fingerprint --bits 8 --m-bits 6 --trials 10000"),
])
def test_rac_reports_are_byte_identical_to_golden(name, argv, tmp_path):
    from pathlib import Path

    from demerlab.cli import main

    out = tmp_path / name
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / name).read_bytes()
