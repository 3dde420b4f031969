"""Independent dense-matrix oracles for the test suite.

Everything here is built from scratch with plain numpy / scipy (kron
products, explicit Kraus sums, dense conjugation, matrix exponentials) so
the checks never share a code path with the machinery they verify.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
PAULI_1Q = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_MAT = np.diag([1, 1j]).astype(complex)
CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(letters: str, sign: int = 1) -> np.ndarray:
    return sign * kron_all(PAULI_1Q[c] for c in letters)


def embed(mat: np.ndarray, targets, n: int) -> np.ndarray:
    """Embed a k-qubit operator by summing over basis projectors (slow, simple)."""
    k = len(targets)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        bits_r = [(row >> (n - 1 - q)) & 1 for q in range(n)]
        sub_r = 0
        for t in targets:
            sub_r = (sub_r << 1) | bits_r[t]
        for col in range(dim):
            bits_c = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            if any(bits_r[q] != bits_c[q] for q in range(n) if q not in targets):
                continue
            sub_c = 0
            for t in targets:
                sub_c = (sub_c << 1) | bits_c[t]
            out[row, col] = mat[sub_r, sub_c]
    return out


def apply_kraus_dense(rho: np.ndarray, kraus) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def all_letters(n: int, include_identity: bool = True):
    import itertools

    for combo in itertools.product("IXYZ", repeat=n):
        s = "".join(combo)
        if include_identity or s != "I" * n:
            yield s


def ptm(kraus, n: int) -> np.ndarray:
    """Full Pauli transfer matrix R[P, Q] = tr(P L(Q)) / 2^n."""
    letters = list(all_letters(n))
    dim = len(letters)
    out = np.zeros((dim, dim))
    mats = {s: pauli_matrix(s) for s in letters}
    for j, q in enumerate(letters):
        image = apply_kraus_dense(mats[q], kraus)
        for i, p in enumerate(letters):
            val = np.trace(mats[p] @ image) / 2**n
            out[i, j] = val.real
    return out


def ptm_diagonal(kraus, n: int) -> dict[str, float]:
    fid = {}
    for s in all_letters(n):
        mat = pauli_matrix(s)
        fid[s] = float((np.trace(mat @ apply_kraus_dense(mat, kraus)) / 2**n).real)
    return fid


def process_fidelity_from_kraus(kraus, n: int) -> float:
    """Uniform average of Pauli fidelities, identity included."""
    fid = ptm_diagonal(kraus, n)
    return sum(fid.values()) / 4**n


def unitary_kraus(u: np.ndarray):
    return [u]


# ---------------------------------------------------------------------------
# Ising-chain references

def tfim_sum_terms(sites: int):
    hz = np.zeros((2**sites, 2**sites), dtype=complex)
    hxx = np.zeros_like(hz)
    for i in range(sites):
        ops = ["I"] * sites
        ops[i] = "Z"
        hz += pauli_matrix("".join(ops))
    for i in range(sites - 1):
        ops = ["I"] * sites
        ops[i] = "X"
        ops[i + 1] = "X"
        hxx += pauli_matrix("".join(ops))
    return hz, hxx


def tfim_trotter_step(sites: int, coupling: float, field: float, dt: float) -> np.ndarray:
    hz, hxx = tfim_sum_terms(sites)
    return expm(-1j * dt * field * hz) @ expm(-1j * dt * coupling * hxx)


def tfim_hamiltonian(sites: int, coupling: float, field: float) -> np.ndarray:
    hz, hxx = tfim_sum_terms(sites)
    return -coupling * hxx - field * hz


def occupation_from_vector(vec: np.ndarray, site: int, sites: int) -> float:
    ops = ["I"] * sites
    ops[site - 1] = "Z"
    z = pauli_matrix("".join(ops))
    return float((1.0 - np.vdot(vec, z @ vec).real) / 2.0)


# ---------------------------------------------------------------------------
# String-based Pauli-frame references.  These are the loops the integer frame
# kernel replaced: one validated PauliString pushed through every gate.  They
# share the conjugation tables with the package, not its frame kernel.

def reference_generator_paulis(n: int):
    from cyclebench.pauli import PauliString

    gens = []
    for kind in "XZ":
        for q in range(n):
            letters = ["I"] * n
            letters[q] = kind
            gens.append(PauliString("".join(letters)))
    return gens


def _reference_tableau_key(images) -> tuple:
    return tuple((p.letters, p.sign) for p in images)


def reference_clifford_group(n: int):
    """(words, index by string tableau) from a BFS over PauliString tableaus."""
    from collections import deque

    from cyclebench.pauli import conjugate_gate

    if n == 1:
        generators = [("H", 0), ("S", 0)]
    elif n == 2:
        generators = [("H", 0), ("H", 1), ("S", 0), ("S", 1), ("CNOT", 0, 1)]
    else:
        raise ValueError("Clifford group enumeration supports n <= 2 only")
    start = tuple(reference_generator_paulis(n))
    index = {_reference_tableau_key(start): 0}
    words = [()]
    tableaus = [start]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for gen in generators:
            name, *pos = gen
            images = tuple(conjugate_gate(p, name, tuple(pos)) for p in tableaus[i])
            key = _reference_tableau_key(images)
            if key not in index:
                index[key] = len(words)
                words.append(words[i] + (gen,))
                tableaus.append(images)
                queue.append(index[key])
    return tuple(words), index


_INVERSE_GATE = {"H": "H", "S": "SDG", "SDG": "S", "X": "X", "Y": "Y", "Z": "Z",
                 "I": "I", "CNOT": "CNOT"}


def reference_clifford_inverse_word(n: int, gates, group=None):
    """Push the generators through the reversed, gate-inverted sequence and
    look the resulting tableau up in the string-keyed group."""
    from cyclebench.pauli import c1_element, conjugate_gate

    inverted = []
    for name, pos, param in reversed(gates):
        if name == "C1":
            inverted.append(("C1", pos, c1_element(int(param)).inverse))
        else:
            inverted.append((_INVERSE_GATE[name], pos, param))
    images = []
    for p in reference_generator_paulis(n):
        for name, pos, param in inverted:
            p = conjugate_gate(p, name, pos, param)
        images.append(p)
    words, index = group if group is not None else reference_clifford_group(n)
    return words[index[_reference_tableau_key(images)]]


def reference_make_cb(cycle, m_list, n_random, n_decays, twirl="pauli", seed=0,
                      register=None):
    """CB collection built cycle by cycle, with m draws of n twirl indices
    per stream and the frame pushed through propagate_through_cycles."""
    from cyclebench import pauli as pl
    from cyclebench.bench import CbCircuit, CbCollection, sample_decay_terms
    from cyclebench.circuits import Circuit, Cycle, Gate, propagate_through_cycles
    from cyclebench.pauli import PauliString
    from cyclebench.sim import rng_from

    if register is None:
        register = cycle.qubits
    n = len(register)

    def twirl_cycle(rng):
        if twirl == "pauli":
            names = [pl.LETTERS[i] for i in rng.integers(0, 4, size=n)]
            gates = tuple(Gate(name, (register[i],)) for i, name in enumerate(names))
        else:
            idx = rng.integers(0, pl.c1_count(), size=n)
            gates = tuple(Gate("C1", (register[i],), int(k)) for i, k in enumerate(idx))
        return Cycle("easy", gates)

    def basis_cycle(letters, choose):
        return Cycle("easy", tuple(
            Gate("C1", (register[i],), choose(c)) for i, c in enumerate(letters)
        ))

    decays = sample_decay_terms(n, n_decays, rng_from(seed, "decays"))
    circuits = []
    index = 0
    for d_idx, prepared in enumerate(decays):
        prep = basis_cycle(prepared.letters, pl.c1_preparing)
        for m in m_list:
            for j in range(n_random):
                rng = rng_from(seed, "twirl", d_idx, m, j)
                body = []
                for _ in range(m):
                    body.append(twirl_cycle(rng))
                    body.append(cycle)
                frame = propagate_through_cycles(body, prepared, register)
                inv = basis_cycle(frame.letters, pl.c1_measuring)
                frame = propagate_through_cycles([inv], frame, register)
                measured = PauliString(
                    "".join("Z" if c != "I" else "I" for c in frame.letters), frame.sign
                )
                circuits.append(CbCircuit(
                    circuit=Circuit(register, tuple([prep] + body + [inv])),
                    prepared=prepared, measured=measured, m=m, index=index,
                ))
                index += 1
    return CbCollection(
        cycle=cycle, register=tuple(register), twirl=twirl, m_list=tuple(m_list),
        n_random=n_random, n_decays=len(decays), seed=seed, circuits=tuple(circuits),
    )
