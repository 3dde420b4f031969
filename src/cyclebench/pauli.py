"""Pauli strings and table-driven Clifford frame tracking.

Operator propagation through Clifford circuits is done entirely with lookup
tables (letter maps for single-qubit Cliffords, a 16-entry signed table for
CNOT), never with dense matrices, so frames stay exact through arbitrarily
deep circuits.  Hot paths use the same rules as integer signed-permutation
tables over Pauli indices.  Dense matrices are only materialised on demand
for linear-algebra work such as channel construction.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LETTERS = "IXYZ"

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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

    def weight(self) -> int:
        return len(self.support)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, sign included."""
        mat = np.array([[self.sign]], dtype=complex)
        for c in self.letters:
            mat = np.kron(mat, _MATS[c])
        return mat

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise ValueError("Pauli length mismatch")
        anti = sum(
            1
            for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

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


# ---------------------------------------------------------------------------
# Conjugation tables: maps P -> C P C^dagger.

_SQ_CONJ: dict[str, dict[str, tuple[str, int]]] = {
    "I": {"I": ("I", 1), "X": ("X", 1), "Y": ("Y", 1), "Z": ("Z", 1)},
    "H": {"I": ("I", 1), "X": ("Z", 1), "Y": ("Y", -1), "Z": ("X", 1)},
    "S": {"I": ("I", 1), "X": ("Y", 1), "Y": ("X", -1), "Z": ("Z", 1)},
    "SDG": {"I": ("I", 1), "X": ("Y", -1), "Y": ("X", 1), "Z": ("Z", 1)},
    "X": {"I": ("I", 1), "X": ("X", 1), "Y": ("Y", -1), "Z": ("Z", -1)},
    "Y": {"I": ("I", 1), "X": ("X", -1), "Y": ("Y", 1), "Z": ("Z", -1)},
    "Z": {"I": ("I", 1), "X": ("X", -1), "Y": ("Y", -1), "Z": ("Z", 1)},
}

# CNOT(control, target) conjugation with signs; verified against the dense
# oracle in the test suite.
_CNOT_CONJ: dict[str, tuple[str, int]] = {
    "II": ("II", 1),
    "IX": ("IX", 1),
    "IY": ("ZY", 1),
    "IZ": ("ZZ", 1),
    "XI": ("XX", 1),
    "XX": ("XI", 1),
    "XY": ("YZ", 1),
    "XZ": ("YY", -1),
    "YI": ("YX", 1),
    "YX": ("YI", 1),
    "YY": ("XZ", -1),
    "YZ": ("XY", 1),
    "ZI": ("ZI", 1),
    "ZX": ("ZX", 1),
    "ZY": ("IY", 1),
    "ZZ": ("IZ", 1),
}


class NonCliffordGateError(ValueError):
    """Raised when a frame is pushed through a gate that is not Clifford."""


def conjugate_gate(
    pauli: PauliString,
    name: str,
    positions: tuple[int, ...],
    param: int | float | None = None,
) -> PauliString:
    """Return (gate) P (gate)^dagger for one primitive gate.

    ``positions`` index into the Pauli string.  ``param`` is the canonical
    single-qubit-Clifford index for C1 gates; any other parametrised gate is
    rejected as non-Clifford.
    """
    letters = list(pauli.letters)
    sign = pauli.sign
    if name == "CNOT":
        c, t = positions
        new, s = _CNOT_CONJ[letters[c] + letters[t]]
        letters[c], letters[t] = new[0], new[1]
        sign *= s
    elif name == "C1":
        (q,) = positions
        new, s = c1_element(int(param)).conj[letters[q]]
        letters[q] = new
        sign *= s
    elif name in _SQ_CONJ:
        (q,) = positions
        new, s = _SQ_CONJ[name][letters[q]]
        letters[q] = new
        sign *= s
    else:
        raise NonCliffordGateError(f"gate {name!r} is not Clifford")
    return PauliString("".join(letters), sign)


# ---------------------------------------------------------------------------
# The 24 single-qubit Cliffords, enumerated once as words over {H, S}.

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)


@dataclass(frozen=True)
class C1Element:
    index: int
    word: tuple[str, ...]  # gates applied left-to-right in time
    conj: dict[str, tuple[str, int]]
    matrix: np.ndarray
    inverse: int


def _compose_conj(
    first: dict[str, tuple[str, int]], second: dict[str, tuple[str, int]]
) -> dict[str, tuple[str, int]]:
    """Conjugation map of (second after first)."""
    out = {}
    for letter in LETTERS:
        mid, s1 = first[letter]
        new, s2 = second[mid]
        out[letter] = (new, s1 * s2)
    return out


def _conj_key(conj: dict[str, tuple[str, int]]) -> tuple:
    return tuple(conj[c] for c in "XZ")


@functools.lru_cache(maxsize=1)
def _c1_table() -> tuple[C1Element, ...]:
    gate_mats = {"H": _H_MAT, "S": _S_MAT}
    identity_conj = dict(_SQ_CONJ["I"])
    seen: dict[tuple, int] = {_conj_key(identity_conj): 0}
    elems: list[tuple[tuple[str, ...], dict, np.ndarray]] = [
        ((), identity_conj, np.eye(2, dtype=complex))
    ]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        word, conj, mat = elems[i]
        for g in ("H", "S"):
            new_conj = _compose_conj(conj, _SQ_CONJ[g])
            key = _conj_key(new_conj)
            if key not in seen:
                seen[key] = len(elems)
                elems.append((word + (g,), new_conj, gate_mats[g] @ mat))
                queue.append(seen[key])
    # Inverse map: if C maps a -> (b, s) then C^-1 maps b -> (a, s).
    out = []
    for idx, (word, conj, mat) in enumerate(elems):
        inv_conj = {}
        for letter in LETTERS:
            b, s = conj[letter]
            inv_conj[b] = (letter, s)
        inv_idx = seen[_conj_key(inv_conj)]
        out.append(C1Element(idx, word, conj, mat, inv_idx))
    return tuple(out)


def c1_element(index: int) -> C1Element:
    table = _c1_table()
    if not 0 <= index < len(table):
        raise ValueError(f"C1 index out of range: {index}")
    return table[index]


def c1_count() -> int:
    return len(_c1_table())


@functools.lru_cache(maxsize=1)
def _c1_index_by_key() -> dict[tuple, int]:
    return {_conj_key(e.conj): e.index for e in _c1_table()}


def c1_index_for_word(word) -> int:
    """Index of the single-qubit Clifford realised by a word of H/S-like gates."""
    conj = dict(_SQ_CONJ["I"])
    for name, *_ in word:
        conj = _compose_conj(conj, _SQ_CONJ[name])
    return _c1_index_by_key()[_conj_key(conj)]


def _find_c1(predicate) -> int:
    for elem in _c1_table():
        if predicate(elem):
            return elem.index
    raise RuntimeError("no single-qubit Clifford satisfies the predicate")


@functools.lru_cache(maxsize=None)
def c1_preparing(letter: str) -> int:
    """Index of a C1 whose action on |0> yields the +1 eigenstate of ``letter``.

    Identity letters prepare |0>.
    """
    if letter in ("I", "Z"):
        return 0
    return _find_c1(lambda e: e.conj["Z"] == (letter, 1))


@functools.lru_cache(maxsize=None)
def c1_measuring(letter: str) -> int:
    """Index of a C1 rotating ``letter`` onto +Z for computational readout."""
    if letter in ("I", "Z"):
        return 0
    return _find_c1(lambda e: e.conj[letter] == ("Z", 1))




# ---------------------------------------------------------------------------
# Integer Pauli frames.
#
# A Pauli string on n qubits is an index in [0, 4^n) plus a sign.  Letter
# codes are I=0, X=1, Y=2, Z=3 with qubit 0 most significant, so indices
# follow ``all_pauli_letters`` order.  A Clifford acts on the indices as a
# signed permutation.  Tables are built lazily from ``conjugate_gate``, which
# stays the one source of every conjugation rule.

class FrameTable(NamedTuple):
    """C P_i C^dagger = sign[i] * P_image[i] for every Pauli index i."""

    image: np.ndarray
    sign: np.ndarray

    def then(self, other: "FrameTable") -> "FrameTable":
        """Table of ``other`` applied after this one."""
        return FrameTable(other.image[self.image], self.sign * other.sign[self.image])


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


@functools.lru_cache(maxsize=1024)
def gate_table(
    name: str, positions: tuple[int, ...], n: int, param: int | float | None = None
) -> FrameTable:
    """Read-only table of one primitive gate on an n-qubit frame."""
    k = len(positions)
    local = [
        conjugate_gate(PauliString(s), name, tuple(range(k)), param)
        for s in all_pauli_letters(k, include_identity=True)
    ]
    local_image = np.array([pauli_index(p.letters) for p in local])
    local_sign = np.array([p.sign for p in local], dtype=np.int8)
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


def clifford_inverse_word(n: int, gates) -> tuple[GateSpec, ...]:
    """Canonical word for the inverse of a Clifford gate sequence.

    ``gates`` holds (name, positions, param) triples.  If the sequence C maps
    P to s * Q, its inverse maps Q back to s * P, so the inverse tableau is
    read off the composed frame table at the generators' preimages; the
    canonical word is then a direct dictionary lookup in the enumerated group.
    """
    table = frame_table(gates, n)
    preimage = np.empty_like(table.image)
    preimage[table.image] = np.arange(4**n)
    pre = preimage[_generator_indices(n)]
    key = tuple((table.sign[pre] * pre).tolist())
    words, index = clifford_group(n)
    return words[index[key]]
