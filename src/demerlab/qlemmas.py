"""Executable damage lemmas for sequences of two-outcome measurements.

Each runner computes the exact probability in question plus the matching
analytic guarantee, so bound audits carry no sampling noise:

* gentle-measurement check: damage to the outcome-0 state is at most
  sqrt(outcome-1 probability);
* union bound: running T measurements in sequence triggers outcome 1 with
  probability at most T * sqrt(eps) when each triggers with probability at
  most eps on the initial state;
* OR bound: if a joint effect accepts some product state rho (x) sigma with
  probability eta, then measuring the effects induced by uniformly random
  basis states of the sigma register accepts rho with probability at least
  (eta - sqrt(N/T))^2 after T >= N/eta^2 rounds.

Exactness strategy: sequential randomized measurement branches exponentially
in T, but for i.i.d. uniform round choices linearity gives
Pr[all outcomes 0] = trace(Phi0^T(rho)) where Phi0 averages the outcome-0
Kraus updates, which is polynomial in T.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from .amplify import binom_tail
from .qcore import (
    ATOL,
    DensityMatrix,
    StateVector,
    TwoOutcomeMeasurement,
    apply_kraus,
    as_density,
    average_channel_power,
    check_density,
    complex_gaussian,
    effect_kraus,
    hermitize,
    kron_pairs,
    measure_two_outcome,
    scaled_gram,
    trace_distance,
    trace_norm,
    unit_trace_gram,
)

AUDIT_CHUNK = 64  # seeds per stacked batch in the random audits; bounds peak memory
THREE_SIGMA_RATE = erfc(3.0 / sqrt(2.0))  # two-sided normal tail rate at 3 sigma, 0.0027

__all__ = [
    "GoodAsNewReport",
    "MeasurementSequenceReport",
    "good_as_new_check",
    "union_bound_run",
    "or_bound_run",
    "induced_effects",
    "agrees_within_sigma",
    "monte_carlo_any_outcome1",
    "random_union_instance",
    "random_union_audit",
    "random_or_instance",
    "random_or_audit",
    "projector_or_instance",
]


@dataclass(frozen=True)
class GoodAsNewReport:
    epsilon: float
    damage: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"lemma": "good-as-new", "params": {},
                "exact": {"epsilon": self.epsilon, "damage": self.damage},
                "bound": self.bound, "pass": self.passed}


@dataclass(frozen=True)
class MeasurementSequenceReport:
    lemma: str
    t_steps: int
    p_any_one: float
    bound: float
    averaged_state_drift: float
    params: dict
    passed: bool

    def to_json_dict(self) -> dict:
        return {"lemma": self.lemma, "params": dict(self.params),
                "exact": self.p_any_one, "bound": self.bound,
                "drift": self.averaged_state_drift, "pass": self.passed}


def good_as_new_check(rho, m: TwoOutcomeMeasurement) -> GoodAsNewReport:
    """Measure once, keep outcome 0, and compare damage against sqrt(eps)."""
    result = measure_two_outcome(rho, m)
    if result.post0 is None:
        raise ValueError("outcome 0 has probability zero; post-state undefined")
    damage = trace_distance(rho, result.post0)
    bound = sqrt(result.p1)
    return GoodAsNewReport(epsilon=result.p1, damage=damage, bound=bound,
                           passed=damage <= bound + ATOL)


def union_bound_run(rho, seq: list[TwoOutcomeMeasurement]) -> MeasurementSequenceReport:
    """Exact probability that a measurement sequence ever yields outcome 1.

    Composes the outcome-0 square-root updates, so
    Pr[all 0] = trace(M0_T ... M0_1 rho M0_1' ... M0_T'). Epsilon is the
    largest trigger probability measured on the initial state. This is
    `_union_audit` on a stack of one instance.
    """
    rho = as_density(rho)
    d, t = rho.dim, len(seq)
    for m in seq:
        if m.dim != d:
            raise ValueError(f"dimension mismatch: {d} vs {m.dim}")
    stacks = (np.array([getattr(m, name) for m in seq], dtype=complex).reshape(t, d, d)
              for name in ("effect", "m0", "m1"))
    return _union_audit(rho.matrix[None], np.array([t]), *stacks)[0]


def _union_audit(rho: np.ndarray, steps: np.ndarray, effects: np.ndarray, m0: np.ndarray,
                 m1: np.ndarray) -> list[MeasurementSequenceReport]:
    """`union_bound_run` on a (B, d, d) stack of checked densities at once.

    Instance i has steps[i] measurements, most steps first, and its effects and
    Kraus pairs are the next steps[i] rows of the flat (sum(steps), d, d) stacks.
    Step j updates the prefix of instances with more than j steps. The averaged
    states are checked too.
    """
    b, d = rho.shape[:2]
    starts = np.cumsum(steps) - steps
    per_step = np.trace(effects @ rho.repeat(steps, axis=0), axis1=-2, axis2=-1).real
    eps = np.zeros(b)
    eps[steps > 0] = np.maximum.reduceat(per_step, starts[steps > 0])
    survivor, unconditioned = rho.copy(), rho.copy()
    for j in range(steps.max(initial=0)):
        k = np.count_nonzero(steps > j)
        rows = starts[:k] + j
        survivor[:k] = apply_kraus(survivor[:k], [m0[rows]])
        unconditioned[:k] = apply_kraus(unconditioned[:k], [m0[rows], m1[rows]])
    p_any = np.clip(1.0 - np.trace(survivor, axis1=-2, axis2=-1).real, 0.0, 1.0)
    bound = steps * np.sqrt(np.maximum(eps, 0.0))
    averaged = hermitize(unconditioned)
    check_density(averaged)
    drift = 0.5 * trace_norm(rho - averaged)
    return [MeasurementSequenceReport(
        lemma="union-bound", t_steps=t, p_any_one=p, bound=bd, averaged_state_drift=dr,
        params={"epsilon": e, "dim": d}, passed=(p <= bd + ATOL) and (dr <= bd + ATOL))
        for t, p, bd, dr, e in zip(steps.tolist(), p_any.tolist(), bound.tolist(),
                                   drift.tolist(), eps.tolist())]


def random_union_audit(seeds: list[np.random.SeedSequence]) -> list[MeasurementSequenceReport]:
    """`union_bound_run(*random_union_instance(np.random.default_rng(s)))` for each seed, in order.

    Instances are drawn AUDIT_CHUNK seeds at a time; within a chunk, those of
    one dimension are built, checked and audited as one stack, most steps first.
    """
    reports = []
    for start in range(0, len(seeds), AUDIT_CHUNK):
        draws = [_union_draws(np.random.default_rng(s)) for s in seeds[start:start + AUDIT_CHUNK]]
        chunk = {}
        for n in sorted({draw[0] for draw in draws}):
            members = sorted((k for k, draw in enumerate(draws) if draw[0] == n),
                             key=lambda k: len(draws[k][2]), reverse=True)
            _, g_rho, scales, g_effects = zip(*(draws[k] for k in members))
            rho = unit_trace_gram(np.stack(g_rho))
            check_density(rho)
            effects, spectrum = scaled_gram(np.concatenate(g_effects), np.concatenate(scales))
            m0, m1 = effect_kraus(effects, spectrum)
            steps = np.array([len(s) for s in scales])
            chunk.update(zip(members, _union_audit(rho, steps, effects, m0, m1)))
        reports += [chunk[k] for k in range(len(draws))]
    return reports


def induced_effects(joint: TwoOutcomeMeasurement, dim_a: int,
                    dim_b: int) -> list[TwoOutcomeMeasurement]:
    """Effects on the first factor induced by fixing computational basis states of the second."""
    e = joint.effect
    if e.shape[0] != dim_a * dim_b:
        raise ValueError(f"joint effect dim {e.shape[0]} != {dim_a}*{dim_b}")
    t = e.reshape(dim_a, dim_b, dim_a, dim_b)
    return [TwoOutcomeMeasurement(hermitize(t[:, j, :, j])) for j in range(dim_b)]


def or_bound_run(rho, sigma, joint: TwoOutcomeMeasurement,
                 t_steps: int) -> MeasurementSequenceReport:
    """Exact accept probability of T induced measurements at random basis states.

    eta is measured from the supplied instance rather than declared, so the
    precondition T >= N/eta^2 can never go stale. This is `_or_audit` on a
    stack of one instance.
    """
    rho, sigma = as_density(rho), as_density(sigma)
    if joint.dim != rho.dim * sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim * sigma.dim} vs {joint.dim}")
    return _or_audit(rho.matrix[None], sigma.matrix[None], joint.effect[None], t_steps)[0]


def _or_audit(rho: np.ndarray, sigma: np.ndarray, effects: np.ndarray,
              t_steps: int) -> list[MeasurementSequenceReport]:
    """`or_bound_run` on (B, d, d), (B, N, N) and (B, dN, dN) stacks at once, all with T = t_steps.

    The induced effects form one (B, N, d, d) stack, and one averaged walk runs all members.
    """
    (b, d, _), n_b = rho.shape, sigma.shape[-1]
    joint = kron_pairs(rho, sigma)
    for m in (rho, sigma, joint):
        check_density(m)
    etas = np.trace(effects @ joint, axis1=-2, axis2=-1).real.tolist()
    for eta in etas:
        if eta <= 0.0:
            raise ValueError("joint effect never accepts the product state (eta = 0)")
        if t_steps < n_b / eta ** 2:
            raise ValueError(f"need T >= N/eta^2 = {n_b / eta ** 2:.3f}, got T = {t_steps}")
    induced = effects.reshape(b, d, n_b, d, n_b).diagonal(axis1=2, axis2=4).transpose(0, 3, 1, 2)
    m0, _ = effect_kraus(hermitize(induced), None)
    state = average_channel_power(rho, list(m0.swapaxes(0, 1)), t_steps)
    tr = np.trace(state, axis1=-2, axis2=-1).real
    p_any = np.clip(1.0 - tr, 0.0, 1.0)
    drift, kept = np.ones(b), tr > 1e-15
    if kept.any():
        survivors = hermitize(state[kept]) / tr[kept, None, None]
        check_density(survivors)
        drift[kept] = 0.5 * trace_norm(rho[kept] - survivors)
    bounds = [(eta - sqrt(n_b / t_steps)) ** 2 for eta in etas]
    return [MeasurementSequenceReport(
        lemma="or-bound", t_steps=t_steps, p_any_one=p, bound=bd, averaged_state_drift=dr,
        params={"eta": eta, "n_witness_states": n_b}, passed=p >= bd - ATOL)
        for eta, p, bd, dr in zip(etas, p_any.tolist(), bounds, drift.tolist())]


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check and instance generators


def agrees_within_sigma(estimate: float, exact: float, shots: int) -> bool:
    """Exact two-sided binomial test of a Monte-Carlo estimate against an exact probability.

    The estimate is hits / shots. It agrees when twice the binomial tail on
    its side of the mean is at least THREE_SIGMA_RATE. Unlike a normal
    approximation this stays calibrated near p = 0 and p = 1, where a single
    miss can be a likely outcome. An exact value of 0 or 1 admits only the
    estimate equal to it.
    """
    k = round(estimate * shots)
    p = min(max(exact, 0.0), 1.0)
    if p in (0.0, 1.0):
        return k == p * shots
    if k >= shots * p:
        tail = binom_tail(shots, p, k)
    else:
        tail = binom_tail(shots, 1.0 - p, shots - k)
    return 2.0 * tail >= THREE_SIGMA_RATE


def monte_carlo_any_outcome1(rho, kraus0: list[np.ndarray], t_steps: int,
                             shots: int, rng: np.random.Generator) -> tuple[float, float]:
    """Sample the sequential process and estimate Pr[some outcome is 1].

    `rho` is a StateVector, a DensityMatrix or a flat amplitude vector. For a
    DensityMatrix each shot first draws a pure state from its eigenmixture.
    Each shot then walks T rounds picking a uniformly random outcome-0 Kraus
    operator; the accept chance per round is 1 - ||K psi||^2. Returns
    (estimate, standard error).

    A shot's normalized state is fixed by its start row and its choices so
    far, so shots share states: the walk keeps one row per distinct state and
    one state id per alive shot. Each round steps every (state, choice) pair
    that some alive shot takes once, with its norm, and then moves only ids.
    It makes the draws of a walk that steps every shot's own row, in the same
    order, and gets the same norms bit for bit, hence the same estimate.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if t_steps < 0:
        raise ValueError(f"t_steps must be non-negative, got {t_steps}")
    if isinstance(rho, StateVector):
        rho = rho.amplitudes
    if isinstance(rho, DensityMatrix):
        w, v = np.linalg.eigh(hermitize(rho.matrix))
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        ids = rng.choice(len(w), size=shots, p=w)
        states = v.T
    else:
        ids = np.zeros(shots, dtype=np.intp)
        states = np.asarray(rho)[None]
    n_choices, n_accepted = len(kraus0), 0
    for _ in range(t_steps):  # ids holds the row of states that each walking shot is in
        if ids.size == 0:
            break
        # pair (state s, choice j) is child j * len(states) + s, so each choice's pairs are a run
        child = rng.integers(0, n_choices, size=ids.size) * len(states) + ids
        takers = np.bincount(child, minlength=n_choices * len(states))
        pairs = np.flatnonzero(takers)
        runs = np.searchsorted(pairs, len(states) * np.arange(n_choices + 1))
        stepped = np.empty((pairs.size, states.shape[1]), dtype=complex)
        for j, (lo, hi) in enumerate(zip(runs[:-1], runs[1:])):
            if lo == hi:
                continue
            rows = states[pairs[lo:hi] % len(states)]
            if hi - lo == 1 and takers[pairs[lo]] > 1:
                # a row-per-shot walk multiplies this row as one of several, by BLAS's
                # matrix product, which rounds unlike the matrix-vector one a lone row gets
                rows = rows.repeat(2, axis=0)
            stepped[lo:hi] = (rows @ kraus0[j].T)[:hi - lo]
        states = stepped
        norms2 = np.einsum("ij,ij->i", states, states.conj()).real
        norms2 = np.clip(norms2, 0.0, 1.0)
        # a shot survives a zero-norm round only if its uniform draw was exactly 0
        states /= np.sqrt(np.maximum(norms2, 1e-300))[:, None]
        ids = (np.cumsum(takers > 0) - 1)[child]
        hits = rng.random(ids.size) > norms2[ids]
        n_accepted += int(np.count_nonzero(hits))
        ids = ids[~hits]
    p_hat = n_accepted / shots
    return p_hat, sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / shots)


def _union_draws(rng: np.random.Generator, max_qubits: int = 4, max_steps: int = 8):
    """A union-bound instance's raw draws, in the one order both generators use:
    qubit count n, the density's Gaussian factor, step count t, a scale exponent,
    then per step a scale and the effect's Gaussian factor. Returns
    (n, factor, scales (t,), effect factors (t, 2^n, 2^n))."""
    n = int(rng.integers(1, max_qubits + 1))
    g_rho = complex_gaussian(rng, (2 ** n, 2 ** n))
    t = int(rng.integers(1, max_steps + 1))
    scale_exp = rng.uniform(-4.0, 0.0)
    scales, g_effects = [], []
    for _ in range(t):
        scales.append(float(10.0 ** scale_exp * rng.uniform(0.2, 1.0)))
        g_effects.append(complex_gaussian(rng, (2 ** n, 2 ** n)))
    return n, g_rho, np.array(scales), np.array(g_effects)


def random_union_instance(rng: np.random.Generator, max_qubits: int = 4,
                          max_steps: int = 8) -> tuple[DensityMatrix, list[TwoOutcomeMeasurement]]:
    """Seeded random (state, measurement sequence) pair for union-bound audits."""
    n, g_rho, scales, g_effects = _union_draws(rng, max_qubits, max_steps)
    effects, (w, v) = scaled_gram(g_effects, scales)
    return (DensityMatrix(unit_trace_gram(g_rho)),
            [TwoOutcomeMeasurement(e, spectrum=s) for e, s in zip(effects, zip(w, v))])


OR_ALICE_QUBITS = 1
OR_MIN_ETA = 0.34  # eta floor that makes T = 9N rounds enough
OR_MAX_WITNESS_QUBITS = 3  # above it random draws' eta stays below OR_MIN_ETA
OR_MAX_DRAWS = 1000  # candidates one random OR instance may draw
OR_SCREEN_MARGIN = 1e-9  # far above the ~1e-15 by which a screened eta rounds off the exact one


def _or_draw(rng: np.random.Generator, witness_qubits: int):
    """The first of up to OR_MAX_DRAWS random candidates, drawn one at a time, with
    eta >= OR_MIN_ETA, as unchecked (rho, sigma, effect, effect spectrum). Past
    OR_MAX_WITNESS_QUBITS it raises before drawing: in 300 draws at W = 4 the
    largest eta was 0.328.

    A candidate is screened first, with eta from the top eigenvalue alone, from
    the unnormalized Gram matrices of rho and sigma over their traces and without
    forming rho (x) sigma; one that the screen puts OR_SCREEN_MARGIN or more below
    the floor is skipped before rho and sigma are normalized. Only the exact eta
    below, computed as for the accepted instance, decides acceptance."""
    if witness_qubits > OR_MAX_WITNESS_QUBITS:
        raise ValueError(
            f"random OR instances reach eta >= {OR_MIN_ETA} only up to "
            f"{OR_MAX_WITNESS_QUBITS} witness qubits, got {witness_qubits}; larger W "
            "needs a constructed family (ROADMAP item 14)")
    da, db = 2 ** OR_ALICE_QUBITS, 2 ** witness_qubits
    for _ in range(OR_MAX_DRAWS):
        g_rho = complex_gaussian(rng, (da, da))
        g_sigma = complex_gaussian(rng, (db, db))
        scale = float(rng.uniform(0.5, 1.0))
        g_effect = complex_gaussian(rng, (da * db, da * db))
        gram_rho, gram_sigma = g_rho @ g_rho.conj().T, g_sigma @ g_sigma.conj().T
        tr_rho, tr_sigma = np.trace(gram_rho).real, np.trace(gram_sigma).real
        gram = g_effect @ g_effect.conj().T
        overlap = np.einsum("ijkl,ki,lj->", gram.reshape(da, db, da, db),
                            gram_rho, gram_sigma).real / (tr_rho * tr_sigma)
        if overlap * scale / np.linalg.eigvalsh(gram)[-1] < OR_MIN_ETA - OR_SCREEN_MARGIN:
            continue
        rho, sigma = gram_rho / tr_rho, gram_sigma / tr_sigma  # as unit_trace_gram
        effect, spectrum = scaled_gram(g_effect, scale)
        eta = float(np.real(np.trace(effect @ np.kron(rho, sigma))))
        if eta >= OR_MIN_ETA:
            return rho, sigma, effect, spectrum
    raise ValueError("could not draw an instance with eta above the floor")


def random_or_instance(rng: np.random.Generator, witness_qubits: int,
                       ) -> tuple[DensityMatrix, DensityMatrix, TwoOutcomeMeasurement, int]:
    """Random OR-bound instance with measured eta large enough for T = 9N.

    Only the accepted draw is built into (and checked as) states and a measurement."""
    rho, sigma, effect, spectrum = _or_draw(rng, witness_qubits)
    return (DensityMatrix(rho), DensityMatrix(sigma),
            TwoOutcomeMeasurement(effect, spectrum=spectrum), 9 * len(sigma))


def random_or_audit(seeds: list[np.random.SeedSequence],
                    witness_qubits: int) -> list[MeasurementSequenceReport]:
    """`or_bound_run(*random_or_instance(np.random.default_rng(s), witness_qubits))` per seed.

    The instances, which share T = 9N, are audited AUDIT_CHUNK at a time as one stack;
    their effects get `TwoOutcomeMeasurement`'s check as one stack, from their spectra."""
    reports = []
    for start in range(0, len(seeds), AUDIT_CHUNK):
        rho, sigma, effects, spectra = zip(*(_or_draw(np.random.default_rng(s), witness_qubits)
                                             for s in seeds[start:start + AUDIT_CHUNK]))
        effects = np.array(effects)
        effect_kraus(effects, tuple(map(np.array, zip(*spectra))))
        reports += _or_audit(np.array(rho), np.array(sigma), effects, 9 * 2 ** witness_qubits)
    return reports


def projector_or_instance(witness_qubits: int,
                          ) -> tuple[DensityMatrix, DensityMatrix, TwoOutcomeMeasurement, int]:
    """Rank-one instance whose measured acceptance equals eta = 2/3 exactly.

    The joint effect projects onto |0> (x) |phi> where |phi> overlaps the
    supplied sigma with probability eta, so eta is hit by construction.
    """
    eta = 2.0 / 3.0
    n_b = 2 ** witness_qubits
    s = np.zeros(n_b, dtype=complex)
    s[0] = 1.0
    phi = np.zeros(n_b, dtype=complex)
    phi[0] = sqrt(eta)
    phi[1] = sqrt(1.0 - eta)
    rho = StateVector(np.array([1.0, 0.0], dtype=complex)).density()
    sigma = StateVector(s).density()
    proj_a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    joint = TwoOutcomeMeasurement(np.kron(proj_a, np.outer(phi, phi.conj())))
    return rho, sigma, joint, 9 * n_b
