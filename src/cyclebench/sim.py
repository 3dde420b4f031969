"""Exact dense simulation of small qubit registers.

Pure states are held as statevectors, mixed states as density matrices;
everything is exact linear algebra on registers of at most five qubits.

Conventions, asserted throughout the test suite:
  * qubit 0 is the leftmost tensor factor;
  * bitstrings read qubit 0 first, so basis index ``i`` corresponds to
    ``format(i, f"0{n}b")``;
  * equivalence up to global phase is decided by aligning the
    largest-magnitude entry.

Randomness uses a single splittable counter-based generator (Philox keyed
through ``SeedSequence``); independent streams are derived from a master seed
plus an integer/string path, which makes parallel fan-out deterministic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString

MAX_QUBITS = 5

_ATOL_NORM = 1e-10
_ATOL_CHANNEL = 1e-9


class SimulationError(ValueError):
    pass


def rng_from(seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent deterministic stream from (seed, path)."""
    key = tuple(
        zlib.crc32(p.encode()) if isinstance(p, str) else int(p) & 0xFFFFFFFF
        for p in path
    )
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class StateVector:
    """Pure state of an n-qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        n = int(np.log2(amps.size))
        if amps.ndim != 1 or 2**n != amps.size:
            raise SimulationError(f"amplitude vector length {amps.size} is not a power of two")

    @property
    def n_qubits(self) -> int:
        return int(np.log2(self.amplitudes.size))

    def validate(self, atol: float = _ATOL_NORM) -> "StateVector":
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > atol:
            raise SimulationError(f"state norm {norm} deviates from 1")
        return self

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        n = len(bits)
        amps = np.zeros(2**n, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of an n-qubit register."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SimulationError("density matrix must be square")
        n = int(np.log2(mat.shape[0]))
        if 2**n != mat.shape[0]:
            raise SimulationError("density matrix dimension is not a power of two")

    @property
    def n_qubits(self) -> int:
        return int(np.log2(self.entries.shape[0]))

    def validate(self, atol: float = _ATOL_NORM, check_psd: bool = True) -> "DensityMatrix":
        mat = self.entries
        if np.max(np.abs(mat - mat.conj().T)) > atol:
            raise SimulationError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > atol:
            raise SimulationError(f"density trace {tr} deviates from 1")
        if check_psd:
            lo = np.linalg.eigvalsh(mat)[0]
            if lo < -1e-9:
                raise SimulationError(f"density matrix has eigenvalue {lo} < 0")
        return self

    def probabilities(self) -> np.ndarray:
        return np.abs(np.diag(self.entries).real)

    @classmethod
    def zero(cls, n_qubits: int) -> "DensityMatrix":
        return StateVector.zero(n_qubits).to_density()


State = StateVector | DensityMatrix


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise SimulationError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise SimulationError("Kraus operators must share a square shape")
        object.__setattr__(self, "operators", ops)

    @property
    def arity(self) -> int:
        return int(np.log2(self.operators[0].shape[0]))

    def validate(self, atol: float = _ATOL_CHANNEL) -> "KrausChannel":
        dim = self.operators[0].shape[0]
        total = sum(k.conj().T @ k for k in self.operators)
        if np.max(np.abs(total - np.eye(dim))) > atol:
            raise SimulationError("channel is not trace preserving")
        choi = sum(
            np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in self.operators
        )
        lo = np.linalg.eigvalsh(choi)[0]
        if lo < -atol:
            raise SimulationError(f"Choi matrix has eigenvalue {lo} < 0")
        return self

def identity_channel(arity: int = 1) -> KrausChannel:
    return KrausChannel((np.eye(2**arity, dtype=complex),))


# ---------------------------------------------------------------------------
# Operator embedding

def _check_targets(targets: tuple[int, ...], n: int, arity: int) -> None:
    if len(set(targets)) != len(targets):
        raise SimulationError(f"duplicate targets {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise SimulationError(f"targets {targets} out of range for {n} qubits")
    if len(targets) != arity:
        raise SimulationError(
            f"operator arity {arity} does not match {len(targets)} targets"
        )


def embed_operator(op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit operator on ``targets`` into the full 2^n space."""
    k = len(targets)
    if k == n and tuple(targets) == tuple(range(n)):
        return op
    big = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    # Axis order of `big`: targets first, then the remaining qubits ascending.
    order = list(targets) + [q for q in range(n) if q not in targets]
    inv = np.argsort(order)
    tensor = big.reshape([2] * (2 * n))
    perm = list(inv) + [n + i for i in inv]
    return tensor.transpose(perm).reshape(2**n, 2**n)


def is_unitary(mat: np.ndarray, atol: float = _ATOL_NORM) -> bool:
    dim = mat.shape[0]
    return np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) <= atol


def apply_unitary(state: State, gate: np.ndarray, targets: tuple[int, ...]) -> State:
    """Apply a unitary on the given target qubits.

    Returns the same representation as the input.  The gate must be unitary
    within 1e-10 and act on as many qubits as there are targets.
    """
    gate = np.asarray(gate, dtype=complex)
    arity = int(np.log2(gate.shape[0]))
    n = state.n_qubits
    _check_targets(tuple(targets), n, arity)
    if not is_unitary(gate):
        raise SimulationError("gate is not unitary within 1e-10")
    full = embed_operator(gate, tuple(targets), n)
    if isinstance(state, StateVector):
        return StateVector(full @ state.amplitudes)
    return DensityMatrix(full @ state.entries @ full.conj().T)


def apply_channel(
    rho: DensityMatrix, channel: KrausChannel, targets: tuple[int, ...]
) -> DensityMatrix:
    """Apply a Kraus channel to a density matrix on the given targets."""
    if not isinstance(rho, DensityMatrix):
        raise SimulationError("channels act on density matrices")
    channel.validate()
    n = rho.n_qubits
    _check_targets(tuple(targets), n, channel.arity)
    ops = [embed_operator(k, tuple(targets), n) for k in channel.operators]
    out = np.zeros_like(rho.entries)
    for k in ops:
        out += k @ rho.entries @ k.conj().T
    return DensityMatrix(out)


def expectation_pauli(state: State, pauli: PauliString) -> float:
    """<P> for a pure or mixed state; the sign of the Pauli is included."""
    if pauli.n_qubits != state.n_qubits:
        raise SimulationError(
            f"Pauli on {pauli.n_qubits} qubits vs state on {state.n_qubits}"
        )
    mat = pauli.to_matrix()
    if isinstance(state, StateVector):
        val = np.vdot(state.amplitudes, mat @ state.amplitudes)
    else:
        val = np.trace(mat @ state.entries)
    if abs(val.imag) > _ATOL_NORM:
        raise SimulationError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


# ---------------------------------------------------------------------------
# Measurement

def _validate_confusion(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    # written so that NaN entries fail every test
    if (mat.shape != (2, 2) or not np.all(mat >= 0)
            or not np.all(np.abs(mat.sum(axis=1) - 1) <= 1e-12)):
        raise SimulationError("confusion matrix rows must be probability distributions")
    return mat


def readout_distribution(
    probs: np.ndarray, readout: dict[int, np.ndarray] | None, n: int
) -> np.ndarray:
    """Push an ideal bitstring distribution through per-qubit confusion."""
    if not readout:
        return probs
    tensor = probs.reshape([2] * n)
    for q in sorted(readout):
        conf = _validate_confusion(readout[q])
        tensor = np.moveaxis(
            np.tensordot(tensor, conf, axes=([q], [0])), -1, q
        )
    return tensor.reshape(-1)


def sample_counts(
    state: State,
    readout: dict[int, np.ndarray] | None,
    shots: int,
    seed: int | np.random.Generator,
) -> dict[str, int]:
    """Sample measurement counts: Born rule, then independent readout flips.

    Identical (state, readout, shots, seed) inputs reproduce identical counts
    bit for bit.
    """
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    n = state.n_qubits
    probs = state.probabilities()
    probs = probs / probs.sum()
    probs = readout_distribution(probs, readout, n)
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    draws = rng.multinomial(shots, probs)
    counts = {}
    for idx in np.nonzero(draws)[0]:
        counts[format(idx, f"0{n}b")] = int(draws[idx])
    return counts


# ---------------------------------------------------------------------------
# Global-phase-insensitive comparison

def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """Compare matrices after dividing out phase at a's largest entry."""
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.abs(a).argmax(), a.shape)
    pa, pb = a[idx], b[idx]
    if abs(pa) < atol or abs(pb) < atol:
        return bool(np.max(np.abs(a - b)) <= atol)
    ratio = pb / pa
    phase = ratio / abs(ratio)
    return bool(np.max(np.abs(b - phase * a)) <= atol)
