"""Pauli strings, gate matrices and table-driven Clifford frame tracking.

Each fixed gate is defined once, by its matrix in ``GATE_MATRICES``.  Its
frame rule, a signed permutation of the Paulis on its qubits, is read off
that matrix once; the rules of the 24 single-qubit Cliffords are rows of the
tables that the Clifford group's BFS composes from those of H and S.
Operator propagation through Clifford circuits then works on integer
signed-permutation tables over Pauli indices, never on dense matrices, so
frames stay exact through arbitrarily deep circuits; a ``PauliString`` is
pushed through a gate or cycle by one lookup in its table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
    words, _, tables = clifford_group(1)
    out = []
    for idx, (word, inverse) in enumerate(zip(words, _inverse_indices(1, *tables))):
        mat = np.eye(2, dtype=complex)
        for name, _ in word:
            mat = GATE_MATRICES[name] @ mat
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
    image, sign = clifford_group(1)[2]
    return int(np.flatnonzero((image[:, i] == j) & (sign[:, i] == 1))[0])


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
    is 1 for j = image[i] and 0 for every other j.  A C1 element's is its row
    of the ``clifford_group(1)`` tables."""
    if name == "C1":
        k = c1_element(int(param)).index  # range-checked
        return tuple(table[k] for table in clifford_group(1)[2])
    if name not in GATE_MATRICES:
        raise NonCliffordGateError(f"gate {name!r} is not Clifford")
    u = GATE_MATRICES[name]
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
# An element is its frame table, keyed by the bytes of its ``uint8`` images
# and ``int8`` signs, so sequences compose and invert by gathers and
# scatters, without any matrix algebra.

GateSpec = tuple  # (name, positions...) with positions local to the group


def _table_keys(image: np.ndarray, sign: np.ndarray) -> Iterator[bytes]:
    """Group-index keys of (rows, 4^n) ``uint8`` images and ``int8`` signs, made
    one at a time: a list of a BFS level's keys leaves the heap fragmented."""
    return map(bytes, np.concatenate([image, sign.view(np.uint8)], axis=1))


@functools.lru_cache(maxsize=4)
def clifford_group(n: int) -> tuple[tuple[tuple[GateSpec, ...], ...], dict[bytes, int], FrameTable]:
    """Enumerate the n-qubit Clifford group (n <= 2).

    Returns (words, index, tables): ``words[i]`` is a canonical gate word,
    ``tables`` holds the read-only (N, 4^n) ``uint8`` images and ``int8``
    signs of every word in that order, and ``index`` maps a row's
    ``_table_keys`` key to i.  The BFS runs a level at a time, one gather per
    generator, and takes new children parent by parent, then generator by
    generator, the order a queue finds them in, so the enumeration is stable
    across runs.
    """
    if n == 1:
        generators: list[GateSpec] = [("H", 0), ("S", 0)]
    elif n == 2:
        generators = [("H", 0), ("H", 1), ("S", 0), ("S", 1), ("CNOT", 0, 1)]
    else:
        raise ValueError("Clifford group enumeration supports n <= 2 only")
    gens = [gate_table(name, tuple(pos), n) for name, *pos in generators]
    gen_images = [g.image.astype(np.uint8) for g in gens]  # gathers of intp would peak 8x higher
    image = np.arange(4**n, dtype=np.uint8)[None]
    sign = np.ones(image.shape, dtype=np.int8)
    words: list[tuple[GateSpec, ...]] = [()]
    index = dict.fromkeys(_table_keys(image, sign), 0)
    levels, first = [FrameTable(image, sign)], 0  # ``first``: group index of a level's row 0
    while len(image):
        # each row followed by each generator, (rows * generators, 4^n)
        sign = np.stack([sign * g.sign[image] for g in gens], axis=1).reshape(-1, 4**n)
        image = np.stack([g[image] for g in gen_images], axis=1).reshape(-1, 4**n)
        new = []
        for r, key in enumerate(_table_keys(image, sign)):
            if key not in index:
                index[key] = len(words)
                words.append(words[first + r // len(gens)] + (generators[r % len(gens)],))
                new.append(r)
        first = len(words) - len(new)
        image, sign = image[new], sign[new]
        levels.append(FrameTable(image, sign))
    tables = FrameTable(*(np.concatenate(arrays) for arrays in zip(*levels)))
    for array in tables:
        array.setflags(write=False)
    return tuple(words), index, tables


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
    to s * Q, its inverse maps Q to s * P."""
    inverse = FrameTable(np.empty(image.shape, np.uint8), np.empty(sign.shape, np.int8))
    np.put_along_axis(inverse.image, image, np.arange(4**n, dtype=np.uint8), axis=1)
    np.put_along_axis(inverse.sign, image, sign, axis=1)
    return list(map(clifford_group(n)[1].__getitem__, _table_keys(*inverse)))


def clifford_inverse_word(n: int, gates) -> tuple[GateSpec, ...]:
    """Canonical word for the inverse of a Clifford gate sequence."""
    return clifford_word(n, clifford_inverse(n, gates))


def clifford_inverses(n: int, draws: np.ndarray) -> list[int]:
    """``clifford_inverse`` of each row of ``draws``, (rows, m) group indices:
    the rows' group tables compose at once, one gather per position."""
    image, sign = clifford_group(n)[2]
    composed = np.broadcast_to(np.arange(4**n, dtype=np.uint8), (len(draws), 4**n))
    signs = np.ones(composed.shape, dtype=np.int8)
    for col in np.asarray(draws).T[:, :, None]:
        signs = signs * sign[col, composed]
        composed = image[col, composed]
    return _inverse_indices(n, composed, signs)
