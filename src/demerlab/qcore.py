"""Dense linear algebra on qubit registers.

States, density matrices, two-outcome measurements, and gate-list unitary
circuits, all as small immutable values backed by numpy arrays. A state is
its checked amplitudes or matrix; which qubits form which named register is
decided by the protocol that owns them (`RegisterLayout`). Every operation
is a pure function, so callers may fan out over independent instances
freely. Qubit 0 is the most significant bit of the basis index, i.e.
``basis_state(3, "011")`` puts amplitude 1 at index 3.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

ATOL = 1e-9              # construction / identity tolerance
EIG_ATOL = 1e-8          # eigenpair residual tolerance
MAX_QUBITS = 16          # statevector paths are capped at 2**16 amplitudes
DENSITY_MAX_QUBITS = 12  # dense density matrices are capped at 2**12 x 2**12
FUSE_QUBITS = 4          # a circuit step fuses adjacent gates on at most this many qubits

__all__ = [
    "ATOL",
    "EIG_ATOL",
    "MAX_QUBITS",
    "DENSITY_MAX_QUBITS",
    "FUSE_QUBITS",
    "RegisterLayout",
    "StateVector",
    "DensityMatrix",
    "TwoOutcomeMeasurement",
    "MeasurementResult",
    "Gate",
    "UnitaryCircuit",
    "basis_state",
    "kron_pairs",
    "trace_distance",
    "measure_two_outcome",
    "apply_kraus",
    "average_channel_power",
    "kron_power",
    "top_eigenpair",
    "trace_norm",
    "hermitize",
    "check_density",
    "as_density",
    "effect_kraus",
    "complex_gaussian",
    "unit_trace_gram",
    "scaled_gram",
    "x_gate",
    "ry_gate",
    "cnot",
    "mcx",
    "increment_gate",
    "counter_threshold_gate",
    "majority_gate",
]


# ---------------------------------------------------------------------------
# register layouts


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; concatenation order defines qubit indices."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError(f"register-name collision in {names}")
        for name, width in self.registers:
            if not isinstance(width, int) or width <= 0:
                raise ValueError(f"register {name!r} must have positive width, got {width}")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"layout needs {self.n_qubits} qubits, cap is {MAX_QUBITS}")

    @classmethod
    def of(cls, *registers: tuple[str, int]) -> "RegisterLayout":
        return cls(tuple((str(n), int(w)) for n, w in registers))

    @property
    def n_qubits(self) -> int:
        return sum(w for _, w in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    def width(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise ValueError(f"unknown register name {name!r}")

    def offset(self, name: str) -> int:
        off = 0
        for n, w in self.registers:
            if n == name:
                return off
            off += w
        raise ValueError(f"unknown register name {name!r}")

    def qubits(self, name: str) -> tuple[int, ...]:
        off = self.offset(name)
        return tuple(range(off, off + self.width(name)))


# ---------------------------------------------------------------------------
# numeric helpers


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _check_hermitian(m: np.ndarray, what: str, atol: float = ATOL):
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be square, got {m.shape}")
    if np.max(np.abs(m - _dagger(m))) > atol:
        raise ValueError(f"non-Hermitian input for {what}")


def check_density(m: np.ndarray):
    """Hermitian, unit trace and no eigenvalue below -ATOL, for a matrix or a stack."""
    _check_hermitian(m, "density matrix")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = (np.abs(tr.real - 1.0) > ATOL) | (np.abs(tr.imag) > ATOL)
    if np.any(off):
        raise ValueError(f"density matrix trace {tr[off].flat[0]} is not 1 within {ATOL}")
    if np.min(np.linalg.eigvalsh(hermitize(m))) < -ATOL:
        raise ValueError("density matrix has eigenvalue below -1e-9")


def effect_kraus(effect: np.ndarray, spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Check 0 <= E <= I and return the square-root Kraus pair (sqrt(I - E), sqrt(E)),
    for an effect or a stack of them; `spectrum` is E's `np.linalg.eigh`, or None."""
    _check_hermitian(effect, "effect operator")
    w, v = np.linalg.eigh(hermitize(effect)) if spectrum is None else spectrum
    if np.min(w) < -ATOL or np.max(w) > 1.0 + ATOL:
        raise ValueError(f"effect spectrum [{w.min():.3e}, {w.max():.3e}] outside [0, 1]")
    w, vh = np.clip(w, 0.0, 1.0)[..., None, :], _dagger(v)
    return (v * np.sqrt(1.0 - w)) @ vh, (v * np.sqrt(w)) @ vh


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal real and imaginary parts, real part drawn first, in one draw call."""
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = rng.normal(size=(2, *out.shape))
    return out


def unit_trace_gram(g: np.ndarray) -> np.ndarray:
    """g g' scaled to unit trace, for a matrix or a stack."""
    m = g @ _dagger(g)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def scaled_gram(g: np.ndarray, scale) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """g g' scaled to top eigenvalue `scale`, with its spectrum, for a matrix or a stack."""
    m = g @ _dagger(g)
    w, v = np.linalg.eigh(m)
    top, scale = w[..., -1:], np.asarray(scale)[..., None]
    return m / top[..., None] * scale[..., None], (w / top * scale, v)


def trace_norm(m: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix (a float), or of each in a stack."""
    norms = np.sum(np.abs(np.linalg.eigvalsh(hermitize(m))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def top_eigenpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a Hermitian matrix (a float and a
    vector), or of each in a (B, d, d) stack (arrays, from one `eigh` of the stack)."""
    h = np.asarray(h, dtype=complex)
    _check_hermitian(h, "top_eigenpair")
    w, v = np.linalg.eigh(hermitize(h))
    lam, vec = w[..., -1], v[..., -1]
    resid = float(np.max(np.linalg.norm((h @ vec[..., None])[..., 0] - lam[..., None] * vec,
                                        axis=-1)))
    if resid > EIG_ATOL:
        raise ArithmeticError(f"eigenpair residual {resid:.3e} exceeds {EIG_ATOL}")
    return (float(lam), vec) if h.ndim == 2 else (lam, vec)


# ---------------------------------------------------------------------------
# states


def _check_qubits(size: int, cap: int, what: str):
    """Check that `size` is 2^n for some n with 0 <= n <= cap."""
    if size < 1 or size & (size - 1):
        raise ValueError(f"{what} {size} is not a power of 2")
    if size > 2 ** cap:
        raise ValueError(f"{what} {size} needs {size.bit_length() - 1} qubits, cap is {cap}")


@dataclass(frozen=True)
class StateVector:
    """Pure state with unit L2 norm on at most MAX_QUBITS qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        _check_qubits(amps.shape[0], MAX_QUBITS, "amplitude length")
        if abs(np.linalg.norm(amps) - 1.0) > ATOL:
            raise ValueError(f"state norm {np.linalg.norm(amps)} is not 1 within {ATOL}")

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix on at most DENSITY_MAX_QUBITS qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _check_qubits(m.shape[0], DENSITY_MAX_QUBITS, "density matrix size")
        check_density(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_density(state) -> DensityMatrix:
    """A DensityMatrix as is, or a StateVector's density."""
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, StateVector):
        return state.density()
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(state).__name__}")


def basis_state(n_qubits: int, bits: str | int) -> StateVector:
    """|bits> on n_qubits qubits; `bits` is a bit string or a basis index."""
    _check_qubits(2 ** n_qubits, MAX_QUBITS, "basis state length")
    if isinstance(bits, str):
        if len(bits) != n_qubits:
            raise ValueError(f"bit string length {len(bits)} != {n_qubits} qubits")
        index = int(bits, 2) if bits else 0
    else:
        index = int(bits)
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


# ---------------------------------------------------------------------------
# operations on states


def kron_power(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power v (x) ... (x) v of a vector or matrix, n >= 1."""
    out = v
    for _ in range(n - 1):
        out = np.kron(out, v)
    return out


def apply_kraus(rho: np.ndarray, kraus: Iterable[np.ndarray]) -> np.ndarray:
    """The map rho -> sum_K K rho K' on a dense matrix (not renormalized)."""
    out = np.zeros(rho.shape, dtype=complex)
    for k in kraus:
        out += k @ rho @ _dagger(k)
    return out


def average_channel_power(m: np.ndarray, kraus: Sequence[np.ndarray], t: int) -> np.ndarray:
    """t applications of the averaged channel m -> sum_K K m K' / len(kraus).

    `m` and each Kraus operator may be (B, d, d) stacks, one channel per member.
    A round is one stacked product K m K' over all Kraus terms, summed over the
    Kraus axis from zero in order, so it equals `apply_kraus` bit for bit. The sum
    runs over real and imaginary parts as floats: on a complex axis alone (d = 1)
    numpy would sum pairwise, in another order."""
    k = np.asarray(kraus)
    kh, n = _dagger(k), len(k)
    for _ in range(t):
        terms = (k @ m @ kh).astype(complex, copy=False)
        flat = np.add.reduce(terms.reshape(n, -1).view(float), axis=0, initial=0.0)
        m = flat.view(complex).reshape(terms.shape[1:]) / n
    return m


def kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[i], b[i]) for each i of a (B, m, m) and a (B, n, n) stack; a's qubits first."""
    (k, m, _), n = a.shape, b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, m * n, m * n)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma."""
    rho, sigma = as_density(rho), as_density(sigma)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)


# ---------------------------------------------------------------------------
# two-outcome measurements


@dataclass(frozen=True)
class TwoOutcomeMeasurement:
    """Effect operator E with 0 <= E <= I and its square-root update pair.

    The Kraus pair M1 = sqrt(E), M0 = sqrt(I - E) is computed in E's
    eigenbasis once at construction, so M0'M0 + M1'M1 = I to machine
    precision. The square-root update is the minimally disturbing one; it
    attains the gentle-measurement damage bound with equality on projectors.
    `spectrum`, if given, is E's (eigenvalues, eigenvectors) as `np.linalg.eigh` returns them.
    """

    effect: np.ndarray
    spectrum: InitVar[tuple[np.ndarray, np.ndarray] | None] = None
    m0: np.ndarray = field(init=False, repr=False)
    m1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, spectrum=None):
        e = np.asarray(self.effect, dtype=complex)
        m0, m1 = effect_kraus(e, spectrum)
        object.__setattr__(self, "effect", e)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m0", m0)

    @property
    def dim(self) -> int:
        return self.effect.shape[0]

    def outcome1_probability(self, rho) -> float:
        rho = as_density(rho)
        if rho.dim != self.dim:
            raise ValueError(f"dimension mismatch: {rho.dim} vs {self.dim}")
        return float(np.real(np.trace(self.effect @ rho.matrix)))


@dataclass(frozen=True)
class MeasurementResult:
    p1: float
    post0: DensityMatrix | None
    post1: DensityMatrix | None

    @property
    def p0(self) -> float:
        return 1.0 - self.p1


def measure_two_outcome(rho, m: TwoOutcomeMeasurement) -> MeasurementResult:
    """Apply the square-root update; a zero-probability branch comes back None."""
    rho = as_density(rho)
    if rho.dim != m.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {m.dim}")
    p1 = m.outcome1_probability(rho)
    p1 = min(max(p1, 0.0), 1.0)
    posts: list[DensityMatrix | None] = []
    for kraus, p in ((m.m0, 1.0 - p1), (m.m1, p1)):
        if p <= 1e-15:
            posts.append(None)
            continue
        branch = apply_kraus(rho.matrix, [kraus])
        posts.append(DensityMatrix(hermitize(branch) / np.trace(branch).real))
    return MeasurementResult(p1=p1, post0=posts[0], post1=posts[1])


# ---------------------------------------------------------------------------
# gate-list circuits


@dataclass(frozen=True)
class Gate:
    """A unitary on named target qubits, optionally with classical-pattern controls."""

    name: str
    targets: tuple[int, ...]
    matrix: np.ndarray
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()

    def __post_init__(self):
        self._check_structure()
        m = self.matrix
        if np.max(np.abs(m @ m.conj().T - np.eye(len(m)))) > ATOL:
            raise ValueError(f"gate {self.name!r} is not unitary within {ATOL}")

    @classmethod
    def _from_checked(cls, name: str, targets, matrix: np.ndarray, controls,
                      control_values) -> "Gate":
        """A gate whose matrix comes from an already checked gate (its own, or its
        adjoint): the structural checks run, the unitarity product does not."""
        g = object.__new__(cls)
        # set one by one: touching g.__dict__ would give every gate its own dict
        for attr, value in (("name", name), ("targets", targets), ("matrix", matrix),
                            ("controls", controls), ("control_values", control_values)):
            object.__setattr__(g, attr, value)
        g._check_structure()
        return g

    def _check_structure(self):
        """Normalize the fields and check shape, control values and distinct qubits."""
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))
        vals = self.control_values or tuple(1 for _ in self.controls)
        object.__setattr__(self, "control_values", tuple(int(v) for v in vals))
        k = len(self.targets)
        if m.shape != (2 ** k, 2 ** k):
            raise ValueError(f"gate {self.name!r}: matrix shape {m.shape} for {k} targets")
        if len(self.control_values) != len(self.controls):
            raise ValueError(f"gate {self.name!r}: control/value length mismatch")
        qubits = self.controls + self.targets
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {self.name!r}: repeated qubit in {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def inverse(self) -> "Gate":
        return Gate._from_checked(self.name + "^-1", self.targets, self.matrix.conj().T,
                                  self.controls, self.control_values)

    def remapped(self, index_map: dict[int, int]) -> "Gate":
        return Gate._from_checked(self.name, tuple(index_map[t] for t in self.targets),
                                  self.matrix, tuple(index_map[c] for c in self.controls),
                                  self.control_values)


@dataclass(frozen=True)
class UnitaryCircuit:
    """Ordered gate list over a fixed qubit count."""

    n_qubits: int
    gates: tuple[Gate, ...]
    _steps: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _inverse: "UnitaryCircuit | None" = field(default=None, init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.n_qubits or q < 0 for q in g.qubits):
                raise ValueError(f"gate {g.name!r} targets qubit outside 0..{self.n_qubits - 1}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def _compiled(self) -> tuple:
        """The circuit's steps, built on first use. Walking the gates left to right,
        each joins the current group while the group's qubits number at most
        FUSE_QUBITS; a one-gate group is its gate's slice step, a larger group one
        uncontrolled step on its qubits with the matrix of its gates."""
        if self._steps is None:
            groups: list[tuple[set, list[Gate]]] = []
            for g in self.gates:
                if groups and len(groups[-1][0].union(g.qubits)) <= FUSE_QUBITS:
                    groups[-1][0].update(g.qubits)
                    groups[-1][1].append(g)
                else:
                    groups.append((set(g.qubits), [g]))
            axes, steps = range(self.n_qubits), []
            for qubits, gates in groups:
                if len(gates) == 1:
                    steps.append(_gate_step(gates[0], axes))
                else:
                    qubits = sorted(qubits)
                    steps.append(_slice_step(axes, qubits, _group_matrix(qubits, gates)))
            object.__setattr__(self, "_steps", tuple(steps))
        return self._steps

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Run the circuit on a flat statevector (or a batch of columns), step by
        step in a working copy (see `_run_steps`)."""
        amps = np.asarray(amps, dtype=complex)
        if amps.shape[:1] != (self.dim,):
            raise ValueError(f"circuit on {self.n_qubits} qubits needs {self.dim} rows, "
                             f"got shape {amps.shape}")
        t = amps.reshape((2,) * self.n_qubits + (amps.size // self.dim,)).copy()
        return _run_steps(self._compiled(), t).reshape(amps.shape)

    def inverse(self) -> "UnitaryCircuit":
        """The reversed circuit of inverted gates, built on first use. Its steps are
        this circuit's steps reversed, each matrix conjugate-transposed, so building
        it compiles nothing."""
        if self._inverse is None:
            inv = UnitaryCircuit(self.n_qubits,
                                 tuple(g.inverse() for g in reversed(self.gates)))
            object.__setattr__(inv, "_steps", tuple(
                (select, order, undo, _dagger(m))
                for select, order, undo, m in reversed(self._compiled())))
            object.__setattr__(self, "_inverse", inv)
        return self._inverse

    def to_matrix(self) -> np.ndarray:
        if self.n_qubits > DENSITY_MAX_QUBITS:
            raise ValueError(f"full matrix capped at {DENSITY_MAX_QUBITS} qubits")
        return self.apply(np.eye(self.dim, dtype=complex))


def _slice_step(axes: Sequence[int], targets: Sequence[int], matrix: np.ndarray,
                controls: Sequence[int] = (), values: Sequence[int] = ()) -> tuple:
    """A step on a tensor with one axis per qubit in `axes`, then a batch axis: the
    index fixing the control axes to their values; `order`, the slice's axes with
    the targets first and the batch axis last; `undo`, its inverse permutation;
    and the matrix."""
    axes = list(axes)
    select = [slice(None)] * len(axes)
    for q, v in zip(controls, values):
        select[axes.index(q)] = v
    free = [q for q in axes if q not in controls]
    order = [free.index(t) for t in targets]
    order += [a for a, q in enumerate(free) if q not in targets] + [len(free)]
    undo = sorted(range(len(order)), key=order.__getitem__)
    return tuple(select), tuple(order), tuple(undo), matrix


def _gate_step(g: Gate, axes: Sequence[int]) -> tuple:
    return _slice_step(axes, g.targets, g.matrix, g.controls, g.control_values)


def _group_matrix(qubits: list[int], gates: list[Gate]) -> np.ndarray:
    """The matrix of `gates` run left to right on `qubits` (the first most
    significant): their slice steps applied to the identity."""
    k = len(qubits)
    eye = np.eye(2 ** k, dtype=complex).reshape((2,) * k + (2 ** k,))
    return _run_steps([_gate_step(g, qubits) for g in gates], eye).reshape(2 ** k, 2 ** k)


def _run_steps(steps, t: np.ndarray) -> np.ndarray:
    """Apply steps to tensor t, which they may overwrite: each rewrites the slice
    its controls select, by one matrix product on that slice with its targets
    moved first. An uncontrolled step's product replaces t, with no copy back."""
    for select, order, undo, m in steps:
        moved = t[select].transpose(order)
        out = np.dot(m, moved.reshape(m.shape[0], -1)).reshape(moved.shape).transpose(undo)
        if moved.ndim == t.ndim:
            t = out
        else:
            t[select] = out
    return t


# ---------------------------------------------------------------------------
# gate vocabulary

_X = np.array([[0, 1], [1, 0]], dtype=complex)


def x_gate(q: int) -> Gate:
    return Gate("x", (q,), _X)


def ry_gate(q: int, theta: float, controls: Sequence[int] = (),
            control_values: Sequence[int] | None = None) -> Gate:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m = np.array([[c, -s], [s, c]], dtype=complex)
    return Gate("ry", (q,), m, tuple(controls), tuple(control_values or ()))


def cnot(control: int, target: int) -> Gate:
    return Gate("cx", (target,), _X, (control,), (1,))


def mcx(controls: Sequence[int], target: int,
        control_values: Sequence[int] | None = None) -> Gate:
    return Gate("mcx", (target,), _X, tuple(controls), tuple(control_values or ()))


def _basis_permutation(name: str, targets: Sequence[int], perm: Callable[[int], int]) -> Gate:
    k = len(targets)
    m = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for v in range(2 ** k):
        m[perm(v), v] = 1.0
    return Gate(name, tuple(targets), m)


def increment_gate(targets: Sequence[int], controls: Sequence[int] = ()) -> Gate:
    """Reversible +1 mod 2^k on a counter register (big-endian)."""
    k = len(targets)
    g = _basis_permutation("inc", targets, lambda v: (v + 1) % 2 ** k)
    if controls:
        return Gate("inc", g.targets, g.matrix, tuple(controls), tuple(1 for _ in controls))
    return g


def counter_threshold_gate(counter: Sequence[int], target: int, threshold: int) -> Gate:
    """Flip target iff the counter register holds a value >= threshold."""
    k = len(counter)

    def perm(v: int) -> int:
        count, bit = v >> 1, v & 1
        return (count << 1) | (bit ^ (1 if count >= threshold else 0))

    return _basis_permutation(f"ge{threshold}", tuple(counter) + (target,), perm)


def majority_gate(inputs: Sequence[int], target: int) -> Gate:
    """Flip target iff at least ceil((m+1)/2) of the m input qubits are 1."""
    m = len(inputs)
    need = m // 2 + 1

    def perm(v: int) -> int:
        bits, out = v >> 1, v & 1
        return (bits << 1) | (out ^ (1 if bin(bits).count("1") >= need else 0))

    return _basis_permutation("maj", tuple(inputs) + (target,), perm)
