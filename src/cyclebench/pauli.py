"""Pauli strings, gate matrices and table-driven Clifford frame tracking.

Each fixed gate is defined once, by its matrix in ``GATE_MATRICES``.  Its
frame rule, a signed permutation of the Paulis on its qubits, is read off
that matrix once, and so are the rules of the 24 single-qubit Cliffords.
Operator propagation through Clifford circuits then works on integer
signed-permutation tables over Pauli indices, never on dense matrices, so
frames stay exact through arbitrarily deep circuits; a ``PauliString`` is
pushed through a gate or cycle by one lookup in its table.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LETTERS = "IXYZ"

# The one definition of every fixed gate; read-only, shared by all callers.
GATE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
for _mat in GATE_MATRICES.values():
    _mat.setflags(write=False)


@dataclass(frozen=True)
class PauliString:
    """An n-qubit tensor product of {I,X,Y,Z} with an overall sign."""

    letters: str
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not self.letters:
            raise ValueError("empty Pauli string")
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return all(c == "I" for c in self.letters)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, sign included."""
        mat = np.array([[self.sign]], dtype=complex)
        for c in self.letters:
            mat = np.kron(mat, GATE_MATRICES[c])
        return mat

    def __str__(self) -> str:
        return self.letters if self.sign == 1 else "-" + self.letters

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        text = text.strip()
        sign = 1
        if text.startswith("-"):
            sign, text = -1, text[1:]
        elif text.startswith("+"):
            text = text[1:]
        return cls(text, sign)


def all_pauli_letters(n: int, include_identity: bool = False) -> list[str]:
    """All 4^n letter strings in lexicographic I<X<Y<Z per-position order."""
    strings = ["".join(p) for p in itertools.product(LETTERS, repeat=n)]
    if not include_identity:
        strings = [s for s in strings if s != "I" * n]
    return strings


class NonCliffordGateError(ValueError):
    """Raised when a frame is pushed through a gate that is not Clifford."""


# ---------------------------------------------------------------------------
# The 24 single-qubit Cliffords: the words of ``clifford_group(1)``, in its
# order, so a C1 index is a group index.

@dataclass(frozen=True)
class C1Element:
    index: int
    word: tuple[str, ...]  # gates applied left-to-right in time
    matrix: np.ndarray
    inverse: int


@functools.lru_cache(maxsize=1)
def _c1_table() -> tuple[C1Element, ...]:
    out = []
    for idx, word in enumerate(clifford_group(1)[0]):
        mat = np.eye(2, dtype=complex)
        for name, _ in word:
            mat = GATE_MATRICES[name] @ mat
        inverse = clifford_inverse(1, [(name, pos, None) for name, *pos in word])
        out.append(C1Element(idx, tuple(name for name, _ in word), mat, inverse))
    return tuple(out)


def c1_element(index: int) -> C1Element:
    table = _c1_table()
    if not 0 <= index < len(table):
        raise ValueError(f"C1 index out of range: {index}")
    return table[index]


def c1_count() -> int:
    return len(_c1_table())


@functools.lru_cache(maxsize=None)
def _c1_sending(source: str, target: str) -> int:
    """Index of the first C1 whose table maps ``source`` to +``target``; the
    identity when either letter is I."""
    if "I" in (source, target):
        return 0
    i, j = LETTERS.index(source), LETTERS.index(target)
    for k in range(c1_count()):
        image, sign = _local_table("C1", k)
        if image[i] == j and sign[i] == 1:
            return k
    raise RuntimeError(f"no single-qubit Clifford maps {source} to +{target}")


def c1_preparing(letter: str) -> int:
    """Index of a C1 taking |0> to the +1 eigenstate of ``letter`` (I: |0>)."""
    return _c1_sending("Z", letter)


def c1_measuring(letter: str) -> int:
    """Index of a C1 rotating ``letter`` onto +Z for computational readout."""
    return _c1_sending(letter, "Z")


# ---------------------------------------------------------------------------
# Integer Pauli frames.
#
# A Pauli string on n qubits is an index in [0, 4^n) plus a sign.  Letter
# codes are I=0, X=1, Y=2, Z=3 with qubit 0 most significant, so indices
# follow ``all_pauli_letters`` order.  A Clifford acts on the indices as a
# signed permutation.  Each gate's table is read off its matrix once, lazily;
# ``PauliString`` propagation is a lookup in these tables.

class FrameTable(NamedTuple):
    """C P_i C^dagger = sign[i] * P_image[i] for every Pauli index i."""

    image: np.ndarray
    sign: np.ndarray

    def then(self, other: "FrameTable") -> "FrameTable":
        """Table of ``other`` applied after this one."""
        return FrameTable(other.image[self.image], self.sign * other.sign[self.image])

    def apply(self, pauli: PauliString) -> PauliString:
        """C P C^dagger for one Pauli string on the table's qubits."""
        n = pauli.n_qubits
        if len(self.image) != 4**n:
            raise ValueError(f"Pauli on {n} qubits vs a table on {len(self.image)} indices")
        i = pauli_index(pauli.letters)
        return PauliString(pauli_letters(int(self.image[i]), n), pauli.sign * int(self.sign[i]))


def pauli_index(letters: str) -> int:
    index = 0
    for c in letters:
        index = 4 * index + LETTERS.index(c)
    return index


@functools.lru_cache(maxsize=None)
def index_letters(n: int) -> np.ndarray:
    """Read-only (4^n, n) letter codes of every Pauli index."""
    codes = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.intp)
    codes = codes.reshape(4**n, n)
    codes.setflags(write=False)
    return codes


def pauli_letters(index: int, n: int) -> str:
    return "".join(LETTERS[c] for c in index_letters(n)[index])


def letter_place_values(n: int) -> np.ndarray:
    """Weights mapping (..., n) letter codes to Pauli indices by a dot product."""
    return 4 ** np.arange(n - 1, -1, -1)


@functools.lru_cache(maxsize=None)
def _local_table(name: str, param) -> tuple[np.ndarray, np.ndarray]:
    """(image, sign) of a gate on its own k qubits, read off its matrix U:
    U P_i U^dagger = sign[i] P_image[i], where |tr(P_j U P_i U^dagger)| / 2^k
    is 1 for j = image[i] and 0 for every other j."""
    if name == "C1":
        u = c1_element(int(param)).matrix
    elif name in GATE_MATRICES:
        u = GATE_MATRICES[name]
    else:
        raise NonCliffordGateError(f"gate {name!r} is not Clifford")
    k = len(u).bit_length() - 1
    paulis = np.stack([PauliString(s).to_matrix() for s in all_pauli_letters(k, True)])
    overlap = np.einsum("jab,iba->ij", paulis, u @ paulis @ u.conj().T).real / 2**k
    image = np.abs(overlap).argmax(axis=1)
    return image, np.where(overlap[np.arange(4**k), image] > 0, 1, -1).astype(np.int8)


@functools.lru_cache(maxsize=1024)
def gate_table(
    name: str, positions: tuple[int, ...], n: int, param: int | float | None = None
) -> FrameTable:
    """Read-only table of one primitive gate on an n-qubit frame."""
    k = len(positions)
    local_image, local_sign = _local_table(name, param)
    codes = index_letters(n)
    cols = list(positions)
    sub = codes[:, cols] @ letter_place_values(k)
    moved = codes.copy()
    moved[:, cols] = index_letters(k)[local_image[sub]]
    table = FrameTable(moved @ letter_place_values(n), local_sign[sub])
    for array in table:
        array.setflags(write=False)
    return table


def frame_table(gates, n: int) -> FrameTable:
    """Table of a (name, positions, param) gate sequence applied in order.

    Raises :class:`NonCliffordGateError` for a non-Clifford gate.
    """
    table = FrameTable(np.arange(4**n), np.ones(4**n, dtype=np.int8))
    for name, pos, param in gates:
        table = table.then(gate_table(name, tuple(pos), n, param))
    return table


def conjugate_gate(
    pauli: PauliString, name: str, positions: tuple[int, ...], param: int | float | None = None
) -> PauliString:
    """Return (gate) P (gate)^dagger for one primitive gate.

    ``positions`` index into the Pauli string.  ``param`` is the canonical
    single-qubit-Clifford index for C1 gates; any other parametrised gate is
    rejected as non-Clifford.
    """
    return gate_table(name, tuple(positions), pauli.n_qubits, param).apply(pauli)


# ---------------------------------------------------------------------------
# Clifford groups on one and two qubits, enumerated as canonical gate words.
# Elements are keyed by their tableau: the signed indices (sign * index) of
# the images of X_0..X_{n-1}, Z_0..Z_{n-1}.  Images are never the identity,
# so the sign is unambiguous, and sequences compose and invert without any
# matrix algebra.

GateSpec = tuple  # (name, positions...) with positions local to the group


def _generator_indices(n: int) -> list[int]:
    return [code * 4 ** (n - 1 - q) for code in (1, 3) for q in range(n)]


@functools.lru_cache(maxsize=4)
def clifford_group(n: int) -> tuple[tuple[tuple[GateSpec, ...], ...], dict]:
    """Enumerate the n-qubit Clifford group (n <= 2).

    Returns (words, index) where ``words[i]`` is a canonical gate word and
    ``index`` maps a tableau to i.  BFS order is deterministic, so the
    enumeration is stable across runs.
    """
    if n == 1:
        generators: list[GateSpec] = [("H", 0), ("S", 0)]
    elif n == 2:
        generators = [("H", 0), ("H", 1), ("S", 0), ("S", 1), ("CNOT", 0, 1)]
    else:
        raise ValueError("Clifford group enumeration supports n <= 2 only")
    size = 4**n
    # per generator, signed index v -> signed image, stored at v + size
    lookups = []
    for name, *pos in generators:
        table = gate_table(name, tuple(pos), n)
        signed = (table.sign * table.image).tolist()
        lut = [0] * (2 * size)
        for i, v in enumerate(signed):
            lut[size + i], lut[size - i] = v, -v
        lookups.append(lut)
    start = tuple(_generator_indices(n))
    index: dict[tuple, int] = {start: 0}
    words: list[tuple[GateSpec, ...]] = [()]
    tableaus: list[tuple[int, ...]] = [start]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for gen, lut in zip(generators, lookups):
            key = tuple([lut[size + v] for v in tableaus[i]])
            if key not in index:
                index[key] = len(words)
                words.append(words[i] + (gen,))
                tableaus.append(key)
                queue.append(index[key])
    return tuple(words), index


def clifford_count(n: int) -> int:
    return len(clifford_group(n)[0])


def clifford_word(n: int, idx: int) -> tuple[GateSpec, ...]:
    return clifford_group(n)[0][idx]


def clifford_inverse(n: int, gates) -> int:
    """Group index of the inverse of a sequence of (name, positions, param)."""
    table = frame_table(gates, n)
    return _inverse_indices(n, table.image[None], table.sign[None])[0]


def _inverse_indices(n: int, image: np.ndarray, sign: np.ndarray) -> list[int]:
    """Group indices of the inverses of (rows, 4^n) frame tables: if C maps P
    to s * Q, its inverse maps Q to s * P, read off at the generators' preimages."""
    pre = (image[:, :, None] == _generator_indices(n)).argmax(axis=1)  # generator preimages
    keys = np.take_along_axis(sign, pre, axis=1) * pre
    index = clifford_group(n)[1]
    return [index[key] for key in map(tuple, keys.tolist())]


def clifford_inverse_word(n: int, gates) -> tuple[GateSpec, ...]:
    """Canonical word for the inverse of a Clifford gate sequence."""
    return clifford_word(n, clifford_inverse(n, gates))


@functools.lru_cache(maxsize=2)
def clifford_tables(n: int) -> FrameTable:
    """Read-only (N, 4^n) ``uint8`` images and ``int8`` signs of every
    ``clifford_group(n)`` element, in its order.  Per BFS level and generator,
    the parents' tables followed by the generator's are one gather."""
    words = clifford_group(n)[0]
    gens = sorted({word[-1] for word in words[1:]})
    depth = np.fromiter(map(len, words), np.uint8, len(words))
    # BFS appends each element's children as one block, in element order
    parent, last, p = np.zeros(len(words), dtype=np.int32), np.zeros(len(words), dtype=np.uint8), 0
    for i, word in enumerate(words[1:], 1):
        while word[:-1] != words[p]:
            p += 1
        parent[i], last[i] = p, gens.index(word[-1])
    image = np.zeros((len(words), 4**n), dtype=np.uint8)
    sign = np.ones((len(words), 4**n), dtype=np.int8)
    image[0] = np.arange(4**n)
    for level in range(1, depth[-1] + 1):
        for k, (g_image, g_sign) in enumerate(gate_table(name, tuple(pos), n) for name, *pos in gens):
            rows = np.flatnonzero((depth == level) & (last == k))
            above = image[parent[rows]]
            sign[rows] = sign[parent[rows]] * g_sign[above]
            image[rows] = g_image[above]
    image.setflags(write=False)
    sign.setflags(write=False)
    return FrameTable(image, sign)


def clifford_inverses(n: int, draws: np.ndarray) -> list[int]:
    """``clifford_inverse`` of each row of ``draws``, (rows, m) group indices:
    the rows' ``clifford_tables`` compose at once, one gather per position."""
    image, sign = clifford_tables(n)
    composed = np.broadcast_to(np.arange(4**n, dtype=np.uint8), (len(draws), 4**n))
    signs = np.ones(composed.shape, dtype=np.int8)
    for col in np.asarray(draws).T[:, :, None]:
        signs = signs * sign[col, composed]
        composed = image[col, composed]
    return _inverse_indices(n, composed, signs)
