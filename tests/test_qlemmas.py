import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from demerlab.amplify import binom_tail, build_inner, build_outer, desk_plan, identity_plan
from demerlab.demerlin import _reachable_loop, demerlinize, sample_demerlinized
from demerlab.qcore import (
    DensityMatrix,
    StateVector,
    TwoOutcomeMeasurement,
    hermitize,
    scaled_gram,
    unit_trace_gram,
)
from demerlab.qlemmas import (
    agrees_within_sigma,
    good_as_new_check,
    induced_effects,
    monte_carlo_any_outcome1,
    or_bound_run,
    projector_or_instance,
    random_or_audit,
    random_or_instance,
    random_union_audit,
    random_union_instance,
    union_bound_run,
)
import demerlab.qlemmas as qlemmas
from demerlab.cli import main
from demerlab.toys import coin_protocol, demerlin_toy
from conftest import random_density, random_effect, random_state, two_call_gaussian

def plus():
    return StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))


# ---------------------------------------------------------------------------
# gentle measurement


def test_good_as_new_zero_effect(rng):
    rho = random_density(1, rng)
    r = good_as_new_check(rho, TwoOutcomeMeasurement(np.zeros((2, 2), dtype=complex)))
    assert r.epsilon == pytest.approx(0.0, abs=1e-12)
    assert r.damage == pytest.approx(0.0, abs=1e-9)
    assert r.passed


def test_good_as_new_uniform_effect(rng):
    rho = random_density(1, rng)
    r = good_as_new_check(rho, TwoOutcomeMeasurement(np.eye(2, dtype=complex) / 2))
    assert r.epsilon == pytest.approx(0.5, abs=1e-12)
    assert r.damage == pytest.approx(0.0, abs=1e-9)
    assert r.bound == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_good_as_new_equality_case():
    # projector |1><1| on |+>: damage hits the bound sqrt(1/2) exactly
    r = good_as_new_check(plus(), TwoOutcomeMeasurement(np.diag([0.0, 1.0]).astype(complex)))
    assert r.epsilon == pytest.approx(0.5, abs=1e-9)
    assert r.damage == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert r.bound == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert r.passed


def test_good_as_new_rejects_certain_outcome():
    with pytest.raises(ValueError, match="probability zero"):
        good_as_new_check(plus().density(), TwoOutcomeMeasurement(np.eye(2, dtype=complex)))


def test_good_as_new_random_sweep(rng):
    for _ in range(50):
        rho, seq = random_union_instance(rng, max_qubits=2, max_steps=1)
        assert good_as_new_check(rho, seq[0]).passed


# ---------------------------------------------------------------------------
# union bound


def test_union_all_zero_effects(rng):
    rho = random_density(1, rng)
    seq = [TwoOutcomeMeasurement(np.zeros((2, 2), dtype=complex)) for _ in range(4)]
    r = union_bound_run(rho, seq)
    assert r.p_any_one == pytest.approx(0.0, abs=1e-12)
    assert r.passed


def test_union_single_step_equals_epsilon(rng):
    rho = random_density(1, rng)
    m = random_effect(1, rng, scale=0.4)
    r = union_bound_run(rho, [m])
    assert r.p_any_one == pytest.approx(m.outcome1_probability(rho), abs=1e-12)
    assert r.p_any_one <= np.sqrt(r.p_any_one) + 1e-12


def test_union_exact_matches_branch_enumeration(rng):
    # enumerate all 2^T outcome branches explicitly and add up every branch
    # that contains at least one outcome 1
    rho = random_density(2, rng)
    seq = [random_effect(2, rng, scale=0.3) for _ in range(4)]
    r = union_bound_run(rho, seq)
    total = 0.0
    for outcomes in itertools.product((0, 1), repeat=4):
        if not any(outcomes):
            continue
        branch = rho.matrix
        for m, b in zip(seq, outcomes):
            k = m.m1 if b else m.m0
            branch = k @ branch @ k.conj().T
        total += float(np.trace(branch).real)
    assert r.p_any_one == pytest.approx(total, abs=1e-10)


def test_union_four_steps_at_four_percent(rng):
    # four effects rescaled to trigger at exactly 0.04 on the initial state:
    # the exact any-outcome-1 probability must stay at or below 4 * 0.2 = 0.8
    rho = random_density(2, rng)
    seq = []
    for _ in range(4):
        raw = random_effect(2, rng, scale=1.0)
        eps = raw.outcome1_probability(rho)
        seq.append(TwoOutcomeMeasurement(raw.effect * (0.04 / eps)))
    r = union_bound_run(rho, seq)
    assert r.bound == pytest.approx(0.8, abs=1e-12)
    assert r.p_any_one <= 0.8
    # and the exact value still matches the branch-enumeration oracle
    total = 0.0
    for outcomes in itertools.product((0, 1), repeat=4):
        if not any(outcomes):
            continue
        branch = rho.matrix
        for m, b in zip(seq, outcomes):
            k = m.m1 if b else m.m0
            branch = k @ branch @ k.conj().T
        total += float(np.trace(branch).real)
    assert r.p_any_one == pytest.approx(total, abs=1e-10)


def test_union_bound_thousand_random_instances():
    # exact p_any_one <= T * sqrt(max per-step eps) on a large seeded sweep
    seeds = np.random.SeedSequence(7).spawn(1000)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        rho, seq = random_union_instance(rng)
        r = union_bound_run(rho, seq)
        assert r.passed, f"bound violated: {r}"
        assert r.averaged_state_drift <= r.bound + 1e-9


def assert_same_audit(stacked, single):
    assert stacked.t_steps == single.t_steps
    assert stacked.to_json_dict() == single.to_json_dict()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 140))
@settings(max_examples=12, deadline=None)
def test_stacked_audit_matches_single_instances(root, count):
    # chunks of 64 mixing dimensions 2..16 and step counts 1..8, against one
    # union_bound_run per instance on the public generator
    seeds = np.random.SeedSequence(root).spawn(count)
    stacked = random_union_audit(seeds)
    assert len(stacked) == count
    for ss, r in zip(seeds, stacked):
        assert_same_audit(r, union_bound_run(*random_union_instance(np.random.default_rng(ss))))


def test_stacked_audit_chunks_mix_dimensions_and_step_counts(monkeypatch):
    stacks = []
    audit = qlemmas._union_audit

    def recording(rho, steps, *kraus):
        stacks.append((rho.shape[-1], steps.tolist()))
        return audit(rho, steps, *kraus)

    monkeypatch.setattr(qlemmas, "_union_audit", recording)
    seeds = np.random.SeedSequence(7).spawn(qlemmas.AUDIT_CHUNK)
    stacked = random_union_audit(seeds)
    assert {r.params["dim"] for r in stacked} == {2, 4, 8, 16}
    assert {r.t_steps for r in stacked} == set(range(1, 9))
    # one ragged stack per dimension, most steps first, each holding several step counts
    assert [d for d, _ in stacks] == [2, 4, 8, 16]
    assert sum(len(steps) for _, steps in stacks) == len(seeds)
    for _, steps in stacks:
        assert steps == sorted(steps, reverse=True) and len(set(steps)) > 1
    for ss, r in zip(seeds, stacked):
        assert_same_audit(r, union_bound_run(*random_union_instance(np.random.default_rng(ss))))


MIDDLE = 32  # instance position inside the first chunk that gets a bad effect


def _mark_middle_instance(monkeypatch, scale):
    """Make instance MIDDLE of a run draw every effect scaled to `scale`."""
    drawn = []
    draw = qlemmas._union_draws

    def draws(rng):
        n, g_rho, scales, g_effects = draw(rng)
        if len(drawn) == MIDDLE:
            scales = np.full_like(scales, scale)
        drawn.append(n)
        return n, g_rho, scales, g_effects

    monkeypatch.setattr(qlemmas, "_union_draws", draws)
    return drawn


def _break_marked_effects(monkeypatch, marker):
    """Add an anti-Hermitian part to every stacked effect whose top eigenvalue is `marker`."""
    gram = qlemmas.scaled_gram

    def scaled(g, scales):
        effects, (w, v) = gram(g, scales)
        effects = effects.copy()
        effects[w[..., -1] == marker, 0, 1] += 0.1
        return effects, (w, v)

    monkeypatch.setattr(qlemmas, "scaled_gram", scaled)


@pytest.mark.parametrize("case", ["non-Hermitian", "spectrum above 1"])
def test_one_bad_effect_in_a_chunk_is_rejected(case, monkeypatch, capsys):
    scale = 0.5 if case == "non-Hermitian" else 1.5
    drawn = _mark_middle_instance(monkeypatch, scale)
    if case == "non-Hermitian":
        _break_marked_effects(monkeypatch, scale)
    message = "non-Hermitian" if case == "non-Hermitian" else "outside \\[0, 1\\]"
    with pytest.raises(ValueError, match=message):
        random_union_audit(np.random.SeedSequence(7).spawn(40))
    drawn.clear()
    assert main(["lemma", "union", "--instances", "40", "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "effect" in err
    monkeypatch.undo()
    assert main(["lemma", "union", "--instances", "40", "--seed", "7"]) == 0


@pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
def test_union_report_is_prefix_stable(k, tmp_path):
    def rows(instances):
        out = tmp_path / f"union{instances}.json"
        assert main(["lemma", "union", "--instances", str(instances), "--seed", "7",
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())["results"]

    assert rows(k) == rows(200)[:k]


# ---------------------------------------------------------------------------
# OR bound


def test_or_bound_certain_acceptance(rng):
    rho = random_density(1, rng)
    sigma = random_density(1, rng)
    joint = TwoOutcomeMeasurement(np.eye(4, dtype=complex))
    r = or_bound_run(rho, sigma, joint, t_steps=18)
    assert r.p_any_one == pytest.approx(1.0, abs=1e-12)
    assert r.passed


def test_or_bound_pinned_arithmetic():
    # eta = 2/3, N = 2^W, T = 9 * 2^W: the floor is (2/3 - 1/3)^2 = 1/9
    for w in (1, 2):
        rho, sigma, joint, t = projector_or_instance(w)
        assert t == 9 * 2 ** w
        r = or_bound_run(rho, sigma, joint, t)
        assert r.params["eta"] == pytest.approx(2 / 3, abs=1e-12)
        assert r.bound == pytest.approx(1 / 9, abs=1e-9)
        assert r.p_any_one >= 1 / 9 - 1e-9
        assert r.passed


def test_or_bound_matched_projector_instance(rng):
    # 1-qubit witness, joint projector onto |psi>_A |+>_B, eta = 1/2, T = 18
    psi = np.array([0.6, 0.8], dtype=complex)
    plus_b = np.array([1, 1], dtype=complex) / np.sqrt(2)
    joint = TwoOutcomeMeasurement(np.kron(np.outer(psi, psi.conj()),
                                          np.outer(plus_b, plus_b.conj())))
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    r = or_bound_run(rho, sigma, joint, t_steps=18)
    assert r.params["eta"] == pytest.approx(0.5, abs=1e-12)
    assert r.p_any_one >= (0.5 - np.sqrt(2 / 18)) ** 2 - 1e-9
    # cross-check the averaged-channel value by Monte Carlo
    effects = induced_effects(joint, 2, 2)
    est, _ = monte_carlo_any_outcome1(rho, [m.m0 for m in effects], 18, 100_000,
                                      np.random.default_rng(5))
    assert agrees_within_sigma(est, r.p_any_one, 100_000)


def test_or_bound_precondition_enforced(rng):
    rho, sigma, joint, _ = projector_or_instance(1)
    with pytest.raises(ValueError, match="N/eta"):
        or_bound_run(rho, sigma, joint, t_steps=2)


def test_or_bound_random_sweep():
    seeds = np.random.SeedSequence(11).spawn(200)
    for i, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        w = 1 if i % 2 == 0 else 2
        rho, sigma, joint, t = random_or_instance(rng, w)
        r = or_bound_run(rho, sigma, joint, t)
        assert r.passed, f"instance {i} violated the bound: {r}"


def one_at_a_time_or_draw(rng, witness_qubits):
    """`random_or_instance`'s candidate loop with the two-call Gaussian draw: the
    accepted (rho, sigma, effect) and how many candidates were drawn, the last one accepted."""
    da, db = 2, 2 ** witness_qubits
    for count in range(1, qlemmas.OR_MAX_DRAWS + 1):
        g_rho = two_call_gaussian(rng, (da, da))
        g_sigma = two_call_gaussian(rng, (db, db))
        scale = rng.uniform(0.5, 1.0)
        g_effect = two_call_gaussian(rng, (da * db, da * db))
        rho, sigma = unit_trace_gram(g_rho), unit_trace_gram(g_sigma)
        effect, _ = scaled_gram(g_effect, scale)
        if np.real(np.trace(effect @ np.kron(rho, sigma))) >= qlemmas.OR_MIN_ETA:
            return rho, sigma, effect, count
    raise AssertionError("no candidate accepted")


@pytest.mark.parametrize("w", [1, 2, 3])
def test_random_or_audit_matches_single_instances(w):
    seeds = np.random.SeedSequence(100 + w).spawn(40)
    rows = random_or_audit(seeds, w)
    assert len(rows) == len(seeds)
    for ss, r in zip(seeds, rows):
        single = or_bound_run(*random_or_instance(np.random.default_rng(ss), w))
        assert r.t_steps == single.t_steps and r.to_json_dict() == single.to_json_dict()
    # some seed rejects candidates before the one it accepts
    counts = [one_at_a_time_or_draw(np.random.default_rng(ss), w)[3] for ss in seeds]
    assert max(counts) > 1


def test_random_or_audit_stacks_each_chunk(monkeypatch):
    sizes = []
    audit = qlemmas._or_audit

    def recording(rho, sigma, effects, t_steps):
        sizes.append(len(rho))
        return audit(rho, sigma, effects, t_steps)

    monkeypatch.setattr(qlemmas, "_or_audit", recording)
    assert random_or_audit([], 2) == [] and random_or_audit([], 4) == []
    seeds = np.random.SeedSequence(3).spawn(qlemmas.AUDIT_CHUNK + 6)
    rows = random_or_audit(seeds, 1)
    assert sizes == [qlemmas.AUDIT_CHUNK, 6] and len(rows) == len(seeds)


@pytest.mark.parametrize("draw", [
    lambda rng: random_or_instance(rng, 1),
    lambda rng: random_or_audit([np.random.SeedSequence(0)], 1),
])
def test_or_draws_stop_at_the_cap(draw, monkeypatch):
    drawn = []
    gaussian = qlemmas.complex_gaussian
    monkeypatch.setattr(qlemmas, "OR_MIN_ETA", 1.5)
    monkeypatch.setattr(qlemmas, "complex_gaussian",
                        lambda rng, shape: drawn.append(shape) or gaussian(rng, shape))
    with pytest.raises(ValueError, match="could not draw an instance with eta above the floor"):
        draw(np.random.default_rng(0))
    assert drawn.count((4, 4)) == qlemmas.OR_MAX_DRAWS == 1000


def test_random_or_audit_checks_each_effect(monkeypatch):
    # the second of three members gets 1.5 times the projector on (|00> + |11>)/sqrt 2:
    # its top eigenvalue is 1.5, yet every induced effect is 0.75 |j><j|, so only the
    # joint effects' check can fail
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bad = 1.5 * np.outer(psi, psi.conj())
    draw, drawn = qlemmas._or_draw, []

    def second_bad(rng, witness_qubits):
        rho, sigma, effect, spectrum = draw(rng, witness_qubits)
        drawn.append(effect)
        return (rho, sigma, bad, np.linalg.eigh(bad)) if len(drawn) == 2 else (
            rho, sigma, effect, spectrum)

    monkeypatch.setattr(qlemmas, "_or_draw", second_bad)
    with pytest.raises(ValueError, match=r"effect spectrum .* outside \[0, 1\]"):
        random_or_audit(np.random.SeedSequence(5).spawn(3), 1)
    assert len(drawn) == 3


@pytest.mark.parametrize("w", [1, 2, 3])
def test_random_or_instance_draws_like_the_one_at_a_time_loop(w):
    for ss in np.random.SeedSequence(w).spawn(20):
        rng, oracle = np.random.default_rng(ss), np.random.default_rng(ss)
        rho, sigma, joint, t = random_or_instance(rng, w)
        want_rho, want_sigma, want_effect, _ = one_at_a_time_or_draw(oracle, w)
        assert rho.matrix.tobytes() == want_rho.tobytes()
        assert sigma.matrix.tobytes() == want_sigma.tobytes()
        assert joint.effect.tobytes() == want_effect.tobytes() and t == 9 * 2 ** w
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("w", [1, 2, 3])
def test_or_draw_screen_keeps_the_accepted_draw_and_candidate_count(w, monkeypatch):
    d, shapes, exact, candidates = 2 * 2 ** w, [], [], 0
    gaussian, gram = qlemmas.complex_gaussian, qlemmas.scaled_gram
    monkeypatch.setattr(qlemmas, "complex_gaussian",
                        lambda rng, shape: shapes.append(shape) or gaussian(rng, shape))
    monkeypatch.setattr(qlemmas, "scaled_gram", lambda g, scale: exact.append(1) or gram(g, scale))
    for ss in np.random.SeedSequence(200 + w).spawn(40):
        shapes.clear()
        rng, oracle = np.random.default_rng(ss), np.random.default_rng(ss)
        rho, sigma, effect, _ = qlemmas._or_draw(rng, w)
        want_rho, want_sigma, want_effect, count = one_at_a_time_or_draw(oracle, w)
        assert rho.tobytes() == want_rho.tobytes() and sigma.tobytes() == want_sigma.tobytes()
        assert effect.tobytes() == want_effect.tobytes()
        assert shapes.count((d, d)) == count and rng.random() == oracle.random()
        candidates += count
    # only the 40 accepted candidates pass the screen: the rejected ones get no exact test
    assert len(exact) == 40 < candidates


def test_or_bound_no_damage_geometric_oracle(rng):
    # with rho an eigenstate of every induced effect the rounds are i.i.d.,
    # so Pr[some accept] = 1 - (1 - mean_j q_j)^T exactly
    rho, sigma, joint, t = projector_or_instance(2)
    effects = induced_effects(joint, rho.dim, sigma.dim)
    qs = [m.outcome1_probability(rho) for m in effects]
    expected = 1.0 - (1.0 - np.mean(qs)) ** t
    r = or_bound_run(rho, sigma, joint, t)
    assert r.p_any_one == pytest.approx(expected, abs=1e-10)


def test_monte_carlo_agrees_on_mixed_state(rng):
    rho, sigma, joint, t = random_or_instance(rng, 1)
    r = or_bound_run(rho, sigma, joint, t)
    effects = induced_effects(joint, rho.dim, sigma.dim)
    est, _ = monte_carlo_any_outcome1(rho, [m.m0 for m in effects], t, 100_000,
                                      np.random.default_rng(18))
    assert agrees_within_sigma(est, r.p_any_one, 100_000)


@pytest.mark.parametrize("mixed", [False, True])
def test_monte_carlo_holds_only_alive_rows(rng, mixed):
    # the walk keeps the surviving shots' rows and nothing of full size
    # beyond them, so its heap peak stays under three (shots, d) arrays
    shots = 20_000
    kraus0 = [random_effect(3, rng, scale=0.2).m0 for _ in range(3)]
    rho = random_density(3, rng) if mixed else random_state(3, rng)
    tracemalloc.start()
    try:
        monte_carlo_any_outcome1(rho, kraus0, 10, shots, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * shots * 2 ** 3 * np.dtype(complex).itemsize


def per_shot_walk(rho, kraus0, t_steps, shots, rng):
    """`monte_carlo_any_outcome1` by its definition: one state row per shot, each
    multiplied by its own Kraus choice every round. The oracle for the kernel,
    which steps each distinct state once; it makes the same draws in the same order."""
    if isinstance(rho, StateVector):
        rho = rho.amplitudes
    if isinstance(rho, DensityMatrix):
        w, v = np.linalg.eigh(hermitize(rho.matrix))
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        picks = rng.choice(len(w), size=shots, p=w)
        states = v.T[picks]
    else:
        states = np.tile(rho, (shots, 1))
    n_choices = len(kraus0)
    accepted = np.zeros(shots, dtype=bool)
    alive = np.arange(shots)  # states holds the rows of these shots, in this order
    for _ in range(t_steps):
        if alive.size == 0:
            break
        choices = rng.integers(0, n_choices, size=alive.size)
        for j in range(n_choices):
            mask = choices == j
            if mask.any():
                states[mask] = states[mask] @ kraus0[j].T
        norms2 = np.einsum("ij,ij->i", states, states.conj()).real
        norms2 = np.clip(norms2, 0.0, 1.0)
        hits = rng.random(alive.size) > norms2
        accepted[alive[hits]] = True
        keep = ~hits
        states = states[keep]
        states /= np.sqrt(np.maximum(norms2[keep], 1e-300))[:, None]
        alive = alive[keep]
    p_hat = accepted.mean()
    return float(p_hat), float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / shots))


def _walk_instance(seed, qubits, n_choices, start):
    """Kraus operators sqrt(I - E) of random effects, one of them replaced by a
    0/1 diagonal projector, and a start of the given kind, all drawn from `seed`."""
    gen = np.random.default_rng(seed)
    dim = 2 ** qubits
    kraus0 = [random_effect(qubits, gen, scale=float(gen.uniform(0.0, 0.5))).m0
              for _ in range(n_choices)]
    kraus0[int(gen.integers(n_choices))] = np.diag(gen.integers(0, 2, size=dim)).astype(complex)
    if start == "density":  # rank below the dimension whenever the dimension allows
        rank = int(gen.integers(1, max(dim, 2)))
        g = gen.normal(size=(dim, rank)) + 1j * gen.normal(size=(dim, rank))
        rho = g @ g.conj().T
        return kraus0, DensityMatrix(rho / np.trace(rho).real)
    psi = random_state(qubits, gen)
    return kraus0, (psi if start == "state" else psi.amplitudes)


class _Draws(np.ndarray):
    """Uniform draws that log the norms they are compared with."""

    def __gt__(self, norms2):
        self.log.append(np.array(norms2).tobytes())
        return np.asarray(self) > norms2


class _LoggingRng:
    """A seeded generator whose `random` draws log, per round, the norms each walk
    tests them against, so two walks can be compared bit for bit."""

    def __init__(self, seed):
        self.gen, self.norms = np.random.default_rng(seed), []

    def choice(self, *args, **kwargs):
        return self.gen.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def random(self, size):
        draws = self.gen.random(size).view(_Draws)
        draws.log = self.norms
        return draws


def assert_same_walk(rho, kraus0, t_steps, shots, seed):
    """The kernel and the oracle give the same result from the same seed, see the same
    norms in every round and leave their generators in the same state."""
    kernel_rng, oracle_rng = _LoggingRng(seed), _LoggingRng(seed)
    got = monte_carlo_any_outcome1(rho, kraus0, t_steps, shots, kernel_rng)
    want = per_shot_walk(rho, kraus0, t_steps, shots, oracle_rng)
    assert got == want
    assert kernel_rng.norms == oracle_rng.norms
    assert kernel_rng.gen.bit_generator.state == oracle_rng.gen.bit_generator.state
    return want


@pytest.mark.parametrize("start", ["state", "density", "flat"])
@given(seed=st.integers(0, 2 ** 31 - 1), qubits=st.integers(0, 3),
       n_choices=st.integers(1, 4), t_steps=st.integers(0, 30), shots=st.integers(1, 3000))
@settings(max_examples=40, deadline=None)
def test_monte_carlo_matches_per_shot_walk(start, seed, qubits, n_choices, t_steps, shots):
    kraus0, rho = _walk_instance(seed, qubits, n_choices, start)
    assert_same_walk(rho, kraus0, t_steps, shots, seed)


def _demerlinized(toy):
    """A README toy as the CLI runs it, or the paper's pipeline on a coin at u = 3."""
    if toy == "amplified-coin":
        base, f = coin_protocol(0.75, 0.25, witness_angle=0.7)
        plan = desk_plan(1, 1, Fraction(1, 4))
        return demerlinize(build_outer(build_inner(base, plan.ell), plan.u), plan, f=f), f
    p, f = demerlin_toy(toy)
    return demerlinize(p, identity_plan(p.alice_qubits, p.witness_qubits), f=f), f


@pytest.mark.parametrize("toy,shots", [("rac2", 20_000), ("coin", 20_000), ("amplified-coin", 2_000)])
def test_demerlinized_loops_match_per_shot_walk(toy, shots):
    d, f = _demerlinized(toy)
    for seed, ((x, y), _) in enumerate(f.pairs()):
        loop, coords = _reachable_loop(d, x, y)
        want = assert_same_walk(coords[:, 0], loop.rounds, d.t_rounds, shots, seed)
        assert sample_demerlinized(d, x, y, shots, seed) == want


@pytest.mark.parametrize("shots,t_steps,message", [(0, 5, "shots must be at least 1"),
                                                   (-1, 5, "shots must be at least 1"),
                                                   (10, -1, "t_steps must be non-negative")])
def test_sampler_rejects_bad_sizes(shots, t_steps, message):
    with pytest.raises(ValueError, match=message):
        monte_carlo_any_outcome1(plus(), [np.eye(2)], t_steps, shots, np.random.default_rng(0))
    if t_steps >= 0:
        d, _ = _demerlinized("coin")
        with pytest.raises(ValueError, match=message):
            sample_demerlinized(d, "0", "1", shots, 0)


def test_report_serialization(rng):
    rho, seq = random_union_instance(rng)
    d = union_bound_run(rho, seq).to_json_dict()
    assert set(d) == {"lemma", "params", "exact", "bound", "drift", "pass"}


def test_agrees_within_sigma_is_an_exact_binomial_test():
    # one miss in 20000 shots near p = 1 is a likely outcome (Pr = 0.073)
    assert agrees_within_sigma(19999 / 20000, 0.9999961853, 20000)
    # four misses where 0.64 are expected: 4.2 sigma, but the exact tail is 0.004
    assert agrees_within_sigma(19996 / 20000, 0.9999682, 20000)
    assert not agrees_within_sigma(0.52, 0.5, 20000)  # 5.7 sigma
    assert not agrees_within_sigma(0.48, 0.5, 20000)
    assert agrees_within_sigma(0.505, 0.5, 20000)  # 1.4 sigma
    # an exact 0 or 1 admits only the estimate equal to it
    assert agrees_within_sigma(1.0, 1.0, 100) and not agrees_within_sigma(0.99, 1.0, 100)
    assert agrees_within_sigma(0.0, 0.0, 100) and not agrees_within_sigma(0.01, 0.0, 100)


@pytest.mark.parametrize("n,p,k", [(100_000, 0.3, 30_500), (100_000, 0.3, 29_000),
                                   (20_000, 0.5, 10_100), (50, 0.9, 49), (7, 0.2, 0),
                                   (7, 0.2, 8)])
def test_binomial_tail_sums_either_side(n, p, k):
    assert binom_tail(n, p, k) == pytest.approx(scipy.stats.binom.sf(k - 1, n, p), abs=1e-9)
