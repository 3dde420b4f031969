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
``rng_from`` builds one such stream; ``stream_keys`` computes the keys of many
in one vectorised pass, and ``Streams`` serves them from one rekeyed generator
or draws integers from many of them in one vectorised Philox pass.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

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


# SeedSequence's pool size and hash constants (numpy.random.bit_generator).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def stream_keys(seed: int, paths: Iterable[Sequence[int | str]]) -> np.ndarray:
    """Philox keys of ``rng_from(seed, *path)`` for equally long paths, shape
    (rows, 2).

    Reimplements ``SeedSequence``'s uint32 entropy mixing and
    ``generate_state(2, np.uint64)`` on whole columns at once, so key ``i``
    equals the key of ``rng_from(seed, *paths[i])`` bit for bit.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    run = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        run.append(seed & _MASK32)
    paths = list(paths)
    if not paths:
        return np.empty((0, 2), dtype=np.uint64)
    length = len(paths[0])
    if any(len(path) != length for path in paths):
        raise ValueError("paths must be equally long")
    # a spawn key pads the run entropy with zeros to the pool size
    head = run + [0] * (_POOL_SIZE - len(run)) if length else run
    entropy = np.empty((len(paths), len(head) + length), dtype=np.uint32)
    entropy[:, :len(head)] = head
    # one column per path element, each distinct value hashed once
    for i, col in enumerate(zip(*paths), len(head)):
        word = {v: zlib.crc32(v.encode()) if isinstance(v, str) else int(v) & _MASK32
                for v in set(col)}
        entropy[:, i] = np.fromiter(map(word.__getitem__, col), np.uint32, len(col))
    return _mix_entropy(entropy)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """Per row: SeedSequence's pool from an entropy row, then two uint64 words."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    width = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    const = _INIT_B
    words = []
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # little-endian pairs of uint32 words make one uint64
    high = np.uint64(32)
    return np.stack([words[0] | words[1] << high, words[2] | words[3] << high], axis=1)


class Streams:
    """The streams ``rng_from(seed, *path)`` of many paths, from one generator.

    ``streams[i]`` rekeys a single Philox generator to path ``i`` (counter 0,
    empty buffer, no cached 32-bit half) and returns it, so its draws equal
    those of a fresh ``rng_from(seed, *paths[i])``.  The returned generator is
    shared: indexing again rekeys it, so use each stream before the next.
    """

    def __init__(self, seed: int, paths: Iterable[Sequence[int | str]]):
        self._keys = stream_keys(seed, paths)
        self._rng = np.random.Generator(np.random.Philox(key=0))
        # one state dict, rekeyed per stream; the setter copies it, Python ints fastest
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int) -> np.random.Generator:
        self._state["state"]["key"] = self._keys[i].tolist()
        self._rng.bit_generator.state = self._state
        return self._rng

    def integers(self, rows: Sequence[int], high: int, count: int) -> np.ndarray:
        """``self[i].integers(0, high, size=count)`` for every i in ``rows``,
        as one (len(rows), count) int64 array: one Philox pass over all rows,
        then numpy's 32-bit Lemire map ``(word * high) >> 32``.  A row with a
        word in Lemire's rejection zone is redrawn through ``self[i]``."""
        if not 1 <= high <= 2**32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        rows = np.asarray(rows, dtype=np.intp)
        scaled = _philox_words(self._keys[rows], count) * np.uint64(high)
        reject = ((scaled & np.uint64(_MASK32)) < np.uint64((2**32 - high) % high)).any(axis=1)
        out = (scaled >> np.uint64(32)).view(np.int64)
        for r in np.flatnonzero(reject).tolist():
            out[r] = self[rows[r]].integers(0, high, size=count)
        return out


# Philox4x64-10 (Random123): round multipliers and key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = tuple(map(np.uint64, (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products ``m * x``."""
    low, shift = np.uint64(_MASK32), np.uint64(32)
    m0, m1 = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x0, x1 = x & low, x >> shift
    p01, p10 = m0 * x1, m1 * x0
    mid = (m0 * x0 >> shift) + (p01 & low) + (p10 & low)
    return m1 * x1 + (p01 >> shift) + (p10 >> shift) + (mid >> shift), np.uint64(m) * x


def _philox_words(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` uint32 words, as (rows, count) uint64, of a fresh
    Philox generator per key row, in numpy's ``next_uint32`` order: blocks at
    counters 1, 2, ..., and each uint64 output's low half before its high."""
    blocks = -(-count // 8)
    zero = np.zeros((len(keys), blocks), dtype=np.uint64)
    ctr = [zero + np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero]
    key = [keys[:, :1], keys[:, 1:]]
    for r in range(10):
        if r:
            key = [key[0] + _PHILOX_W[0], key[1] + _PHILOX_W[1]]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    halves = np.stack(ctr, axis=-1)[..., None] >> np.array([0, 32], dtype=np.uint64)
    return (halves & np.uint64(_MASK32)).reshape(len(keys), 8 * blocks)[:, :count]


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


# ---------------------------------------------------------------------------
# Operator embedding

@functools.lru_cache(maxsize=256)
def _scatter(positions: tuple[tuple[int, ...], ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of a product of k-qubit gates, one tuple of
    ``positions`` per gate (all of one arity k), land in the flat 2^n x 2^n
    matrix: the one placement rule for gates, cycles and superoperators.

    The product is stored as ``T[sum_t (r_t 2^k + c_t) 4^(k t)]`` for row r_t
    and column c_t of gate t (the first gate least significant; within a
    gate, its first position is the most significant bit).  Returns
    ``(dest, src)`` with ``U.flat[dest] = T[src]`` for every entry whose
    idle-qubit bits agree; all other entries are 0.
    """
    pos = np.array(positions)
    m, k = pos.shape
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    idle = [p for p in range(n) if p not in pos]
    spectator = bits[:, idle] @ (1 << np.arange(len(idle)))
    rows, cols = np.nonzero(spectator[:, None] == spectator[None, :])
    local = 1 << np.arange(k)[::-1]
    entry = (bits[rows][:, pos] @ local) * 2**k + bits[cols][:, pos] @ local
    dest = rows * 2**n + cols
    src = entry @ (4 ** (k * np.arange(m)))
    dest.setflags(write=False)
    src.setflags(write=False)
    return dest, src


def embed_operator(op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit operator on ``targets`` into the full 2^n space."""
    dest, src = _scatter((tuple(targets),), n)
    full = np.zeros(4**n, dtype=complex)
    full[dest] = op.reshape(-1)[src]
    return full.reshape(2**n, 2**n)


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
    """Push ideal bitstring distributions, the last axis of ``probs``, through
    per-qubit confusion matrices, which the caller has validated
    (``NoiseModel`` does on entry), by one single-row matmul per row and qubit."""
    if not readout:
        return probs
    tensor = probs.reshape((-1,) + (2,) * n)
    for q in sorted(readout):
        moved = np.moveaxis(tensor, q + 1, -1)
        out = np.matmul(moved.reshape(len(tensor), -1, 2), readout[q]).reshape(moved.shape)
        tensor = np.moveaxis(out, -1, q + 1)
    return tensor.reshape(probs.shape)


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
    if readout:
        readout = {q: _validate_confusion(m) for q, m in readout.items()}
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

