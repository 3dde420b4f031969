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


def _check_targets(targets: tuple[int, ...], n: int, arity: int) -> None:
    from cyclebench.sim import SimulationError

    if len(set(targets)) != len(targets):
        raise SimulationError(f"duplicate targets {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise SimulationError(f"targets {targets} out of range for {n} qubits")
    if len(targets) != arity:
        raise SimulationError(
            f"operator arity {arity} does not match {len(targets)} targets"
        )


def apply_unitary(state, gate: np.ndarray, targets):
    """Apply a unitary on the given target qubits of a ``StateVector`` or
    ``DensityMatrix``, returning the same representation.  The gate must be
    unitary within 1e-10 and act on as many qubits as there are targets."""
    from cyclebench.sim import DensityMatrix, SimulationError, StateVector

    gate = np.asarray(gate, dtype=complex)
    arity = int(np.log2(gate.shape[0]))
    n = state.n_qubits
    _check_targets(tuple(targets), n, arity)
    if np.max(np.abs(gate.conj().T @ gate - np.eye(gate.shape[0]))) > 1e-10:
        raise SimulationError("gate is not unitary within 1e-10")
    full = embed(gate, tuple(targets), n)
    if isinstance(state, StateVector):
        return StateVector(full @ state.amplitudes)
    return DensityMatrix(full @ state.entries @ full.conj().T)


def identity_channel(arity: int = 1):
    from cyclebench.sim import KrausChannel

    return KrausChannel((np.eye(2**arity, dtype=complex),))


def apply_channel(rho, channel, targets):
    """Apply a validated Kraus channel to a ``DensityMatrix`` on the given
    targets, as an explicit Kraus sum."""
    from cyclebench.sim import DensityMatrix, SimulationError

    if not isinstance(rho, DensityMatrix):
        raise SimulationError("channels act on density matrices")
    channel.validate()
    n = rho.n_qubits
    _check_targets(tuple(targets), n, channel.arity)
    ops = [embed(k, tuple(targets), n) for k in channel.operators]
    return DensityMatrix(apply_kraus_dense(rho.entries, ops))


def all_letters(n: int, include_identity: bool = True):
    import itertools

    for combo in itertools.product("IXYZ", repeat=n):
        s = "".join(combo)
        if include_identity or s != "I" * n:
            yield s


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


def commutes(a, b) -> bool:
    """Whether two ``PauliString``s commute: an even count of positions where
    both are non-identity and differ."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("Pauli length mismatch")
    anti = sum(1 for x, y in zip(a.letters, b.letters) if x != "I" and y != "I" and x != y)
    return anti % 2 == 0


def depolarizing_channel(lam: float, n_qubits: int):
    """rho -> (1 - lam) rho + lam I / 2^n as a validated Pauli channel."""
    from cyclebench.noise import NoiseModelError, depolarizing_pauli_probs, pauli_channel

    if not 0 <= lam <= 1:
        raise NoiseModelError(f"depolarizing strength {lam} outside [0, 1]")
    return pauli_channel(depolarizing_pauli_probs(lam, n_qubits))


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of the whole circuit, cycle unitaries composed in time
    order."""
    from cyclebench.circuits import _cycle_unitary_cached

    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for cyc in circuit.cycles:
        u = _cycle_unitary_cached(cyc.gates, circuit.qubits) @ u
    return u


def hard_cycle_count(circuit) -> int:
    return sum(1 for c in circuit.cycles if c.kind == "hard")


def cnot_count(circuit) -> int:
    return sum(len(c.cnot_pairs()) for c in circuit.cycles if c.kind == "hard")


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


def reference_c1_table():
    """The 24 single-qubit Cliffords from their own BFS over H then S, keyed
    by the images of X and Z: ``(word, conjugation map, matrix, inverse
    index)`` per element, in BFS order."""
    from collections import deque

    letters = "IXYZ"
    # P -> C P C^dagger per letter, written out by hand
    rows = {
        "I": {"I": ("I", 1), "X": ("X", 1), "Y": ("Y", 1), "Z": ("Z", 1)},
        "H": {"I": ("I", 1), "X": ("Z", 1), "Y": ("Y", -1), "Z": ("X", 1)},
        "S": {"I": ("I", 1), "X": ("Y", 1), "Y": ("X", -1), "Z": ("Z", 1)},
    }

    def key(conj):
        return conj["X"], conj["Z"]

    def then(conj, gate):
        out = {}
        for letter in letters:
            mid, s1 = conj[letter]
            new, s2 = rows[gate][mid]
            out[letter] = (new, s1 * s2)
        return out

    gate_mats = {"H": H_MAT, "S": S_MAT}
    start = dict(rows["I"])
    seen = {key(start): 0}
    elems = [((), start, np.eye(2, dtype=complex))]
    queue = deque([0])
    while queue:
        word, conj, mat = elems[queue.popleft()]
        for g in ("H", "S"):
            new = then(conj, g)
            if key(new) not in seen:
                seen[key(new)] = len(elems)
                elems.append((word + (g,), new, gate_mats[g] @ mat))
                queue.append(seen[key(new)])
    table = []
    for word, conj, mat in elems:
        # C maps a -> s b, so C^-1 maps b -> s a
        inverse = {b: (a, s) for a, (b, s) in conj.items()}
        table.append((word, conj, mat, seen[key(inverse)]))
    return table


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
    per stream and the frame pushed through propagate_through_cycles, and
    the ``Circuit`` objects it was built from, in index order."""
    from cyclebench import pauli as pl
    from cyclebench.bench import CbCircuit, CbCollection, sample_decay_terms
    from cyclebench.circuits import Circuit, Cycle, Gate, propagate_through_cycles
    from cyclebench.engine import Batch
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
    records, circuits = [], []
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
                records.append(CbCircuit(prepared=prepared, measured=measured, m=m, index=index))
                circuits.append(Circuit(register, tuple([prep] + body + [inv])))
                index += 1
    return CbCollection(
        cycle=cycle, register=tuple(register), twirl=twirl, m_list=tuple(m_list),
        n_random=n_random, n_decays=len(decays), seed=seed, circuits=tuple(records),
        batch=Batch.of(register, circuits),
    ), circuits


def reference_run(executor, circuit, initial=None, prepare=True):
    """``executor.run(circuit, initial)`` one circuit and one op at a time:
    each cycle's unitary as a dense ``U rho U^H`` (or ``U psi``), then each
    compiled op of the executor's tail as its own matrix product, Kraus ops as
    one superoperator matvec on vec(rho).  ``prepare=False`` skips the
    preparation flips, as ``executor.advance`` does."""
    from cyclebench.circuits import _cycle_unitary_cached
    from cyclebench.sim import DensityMatrix, StateVector

    dim = 2**executor.n
    if isinstance(initial, DensityMatrix):
        state = initial.entries.copy()
    elif initial is not None and executor.use_density:
        state = np.outer(initial.amplitudes, initial.amplitudes.conj())
    elif initial is not None:
        state = initial.amplitudes.copy()
    elif executor.use_density:
        state = np.zeros((dim, dim), dtype=complex)
        state[0, 0] = 1.0
    else:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0

    def apply(state, tail):
        for kind, op in tail:
            if kind == "kraus":
                state = (op @ state.reshape(-1)).reshape(dim, dim)
            else:
                state = conjugate(state, op)
        return state

    def conjugate(state, u):
        return u @ state if state.ndim == 1 else u @ state @ u.conj().T

    if prepare:
        state = apply(state, executor._prep)
    for cyc in circuit.cycles:
        state = conjugate(state, _cycle_unitary_cached(cyc.gates, executor.register))
        state = apply(state, executor._tail(cyc.structure))
    return StateVector(state) if state.ndim == 1 else DensityMatrix(state)


def reference_probabilities(executor, state):
    """Born probabilities of one ``state``, renormalised, through
    ``executor``'s confusion matrices one qubit at a time."""
    probs = state.probabilities()
    probs = probs / probs.sum()
    if executor._readout:
        tensor = probs.reshape([2] * executor.n)
        for q in sorted(executor._readout):
            tensor = np.moveaxis(
                np.tensordot(tensor, executor._readout[q], axes=([q], [0])), -1, q
            )
        probs = tensor.reshape(-1)
    return probs


def measured_expectation(executor, state, observable, shots, seed=0):
    """One circuit's readout, the per-circuit loop that the stacked
    ``Executor.measured_expectation`` replaced: Born probabilities of
    ``state``, renormalised, through ``executor``'s confusion matrices one
    qubit at a time, then ``shots`` counts from ``seed`` (an int or a
    Generator) scored by the parity of ``observable``'s support.
    ``shots=None`` gives the analytic expectation with zero shot error."""
    from cyclebench.sim import rng_from

    n = executor.n
    probs = reference_probabilities(executor, state)
    idx = np.arange(2**n)
    acc = np.zeros(2**n, dtype=int)
    for q in observable.support:
        acc ^= (idx >> (n - 1 - q)) & 1
    parity = 1.0 - 2.0 * acc
    if shots is None:
        return float(observable.sign * np.dot(parity, probs)), 0.0
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    draws = rng.multinomial(shots, probs)
    x = float(observable.sign * np.dot(parity, draws) / shots)
    return x, float(np.sqrt(max(0.0, 1.0 - x * x) / shots))


def reference_execute_collection(coll, noise, shots):
    """CB collection executed one circuit at a time through ``reference_run``,
    each read out by ``measured_expectation`` with its own (seed, "exec",
    index) stream."""
    from cyclebench.bench import DecayPoint
    from cyclebench.engine import Executor
    from cyclebench.sim import rng_from

    executor = Executor(coll.register, noise)
    points = []
    for cc in coll.circuits:
        state = reference_run(executor, coll.batch.circuit(cc.index))
        x, err = measured_expectation(
            executor, state, cc.measured, shots, rng_from(coll.seed, "exec", cc.index)
        )
        points.append(DecayPoint(cc.prepared.letters, cc.m, cc.index, x, err))
    return points


def reference_rb_sequences(qubits, m_list, n_random, seed=0):
    """``run_rb``'s sequences one at a time, as ``Circuit``s of one-gate
    cycles, lengths ascending: m draws of stream ``(seed, "rb", m, j)``, each
    element one C1 (one qubit) or its ``clifford_word`` (two), then the
    inverse of the expanded gate list from ``clifford_inverse`` (one qubit)
    or ``clifford_inverse_word`` (two)."""
    from cyclebench import pauli as pl
    from cyclebench.circuits import Circuit, Cycle, Gate
    from cyclebench.sim import rng_from

    register = tuple(qubits)
    n = len(register)
    sequences = []
    for m in sorted(m_list):
        for j in range(n_random):
            logical = []
            for k in rng_from(seed, "rb", m, j).integers(0, pl.clifford_count(n), size=m).tolist():
                if n == 1:
                    logical.append(("C1", (0,), k))
                else:
                    logical.extend((name, tuple(pos), None) for name, *pos in pl.clifford_word(n, k))
            if n == 1:
                logical.append(("C1", (0,), pl.clifford_inverse(1, logical)))
            else:
                inverse_word = pl.clifford_inverse_word(n, logical)
                logical.extend((name, tuple(pos), None) for name, *pos in inverse_word)
            sequences.append(Circuit(register, tuple(
                Cycle("hard" if name == "CNOT" else "easy",
                      (Gate(name, tuple(register[p] for p in pos), param),))
                for name, pos, param in logical
            )))
    return sequences


def reference_run_rb(qubits, m_list, n_random, noise, shots, seed=0, resamples=200, label=""):
    """``run_rb`` one sequence at a time: each of ``reference_rb_sequences``
    run by ``reference_run`` and read out by ``reference_probabilities``, and
    the counts of sequence i drawn from stream ``(seed, "rb-exec", i)``, and
    the survivals fitted by ``reference_fit_decay``.  Returns the result and
    the points it was fitted to."""
    import math

    from cyclebench.bench import DecayPoint, InfidelityEstimate, RbResult, rb_to_process_infidelity
    from cyclebench.engine import Executor
    from cyclebench.sim import rng_from

    n = len(qubits)
    executor = Executor(tuple(qubits), noise)
    points = []
    for circuit in reference_rb_sequences(qubits, m_list, n_random, seed):
        m = sorted(m_list)[len(points) // n_random]
        probs = reference_probabilities(executor, reference_run(executor, circuit))
        if shots is None:
            survival, err = float(probs[0]), 0.0
        else:
            counts = rng_from(seed, "rb-exec", len(points)).multinomial(shots, probs)
            survival = int(counts[0]) / shots
            err = math.sqrt(max(0.0, survival * (1 - survival)) / shots)
        points.append(DecayPoint("survival", m, len(points), survival - 1.0 / 2**n, err))
    fit = reference_fit_decay(points, resamples=resamples, seed=seed, pauli="survival")
    d = 2**n
    r, e_f = rb_to_process_infidelity(d, p=fit.decay)
    r_std = (d - 1) / d * fit.decay_std
    est = InfidelityEstimate(infidelity=e_f, sigma=r_std * (d + 1) / d, source="RB", label=label)
    return RbResult(estimate=est, fit=fit, error_rate=r, error_rate_std=r_std), points


class RngFromStreams:
    """``sim.Streams`` built the slow way: a fresh ``rng_from`` per path."""

    def __init__(self, seed, paths):
        self.seed, self.paths = seed, list(paths)

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, i):
        from cyclebench.sim import rng_from

        return rng_from(self.seed, *self.paths[i])

    def integers(self, rows, high, count):
        """``Streams.integers`` as one fresh stream's draw per row."""
        draws = [self[i].integers(0, high, size=count) for i in rows]
        return np.array(draws, dtype=np.int64).reshape(len(draws), count)


def reference_cycle_unitary(cycle, register) -> np.ndarray:
    """Cycle unitary entry by entry, without BLAS: entry (row, col) is zero
    unless the idle qubits' bits agree, else the product, in gate order, of
    each gate's entry at its qubits' bits.  The product is taken in Python
    floats, each real product of a complex multiply rounded on its own."""
    from cyclebench.circuits import gate_matrix

    n = len(register)
    gates = [(gate_matrix(g), [register.index(q) for q in g.qubits]) for g in cycle.gates]
    idle = [q for q in range(n) if all(q not in pos for _, pos in gates)]
    out = np.zeros((2**n, 2**n), dtype=complex)
    for row in range(2**n):
        bits_r = [(row >> (n - 1 - q)) & 1 for q in range(n)]
        for col in range(2**n):
            bits_c = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            if any(bits_r[q] != bits_c[q] for q in idle):
                continue
            re, im = 1.0, 0.0
            for mat, pos in gates:
                entry = mat[int("".join(str(bits_r[p]) for p in pos), 2),
                            int("".join(str(bits_c[p]) for p in pos), 2)]
                mr, mi = float(entry.real), float(entry.imag)
                re, im = mr * re - mi * im, mr * im + mi * re
            out[row, col] = complex(re, im)
    return out


def reference_simulate_occupations(config, model):
    """Occupation rows with the step-N circuit rebuilt and run from the
    initial state for every N."""
    from cyclebench.circuits import (
        TfimParams, build_tfim_circuit, layout_qubits, occupation,
    )
    from cyclebench.engine import Executor
    from cyclebench.sim import StateVector

    register = layout_qubits(config.layout)
    ideal_exec = Executor(register, None)
    noisy_exec = Executor(register, model)
    n = config.tfim.sites
    start = StateVector.from_bits("1" + "0" * (n - 1))
    rows = []
    for step in range(config.tfim.steps + 1):
        params = TfimParams(
            sites=n, coupling=config.tfim.coupling, field=config.tfim.field,
            dt=config.tfim.dt, steps=step,
        )
        circuit = build_tfim_circuit(config.variant, params, config.layout)
        noisy = noisy_exec.run(circuit, initial=start)
        ideal = ideal_exec.run(circuit, initial=start)
        for site in range(1, n + 1):
            rows.append((step, step * config.tfim.dt, site,
                         occupation(noisy, site), occupation(ideal, site)))
    return rows


def _reference_aggregate(points):
    """Lengths, their mean expectations, and each length's expectations and shot errors."""
    by_m = {}
    for p in points:
        xs, errs = by_m.setdefault(int(p.m), ([], []))
        xs.append(float(p.expectation))
        errs.append(p.shot_error)
    lengths = sorted(by_m)
    groups = [np.array(by_m[m][0]) for m in lengths]
    means = np.array([g.mean() for g in groups])
    return np.array(lengths, dtype=float), means, groups, [np.array(by_m[m][1]) for m in lengths]


def _reference_group_weights(groups, shot_errs):
    """Inverse-variance weights per sequence length."""
    import math

    sig = np.zeros(len(groups))
    for i, (g, se) in enumerate(zip(groups, shot_errs)):
        k = len(g)
        empirical = g.std(ddof=1) / math.sqrt(k) if k > 1 else 0.0
        propagated = math.sqrt(float(np.sum(se**2))) / k
        sig[i] = max(empirical, propagated)
    if np.all(sig <= 0):
        return np.ones(len(groups))
    floor = max(1e-12, 0.05 * sig[sig > 0].min())
    return 1.0 / np.maximum(sig, floor) ** 2


def reference_fit_decay(points, resamples=200, seed=0, pauli=None):
    """``bench.fit_decay`` one term at a time: the points aggregated per
    length in a Python loop, one ``_fit_rows`` call for the point row and
    one for the bootstrap rows, a fresh ``(seed, "bootstrap", pauli)``
    stream per term.  Every point is fitted as term ``pauli`` (the first
    point's if None), whatever its own label."""
    from cyclebench.bench import DecayFit, DecayPoint, FitError, _check_integer, _fit_rows
    from cyclebench.sim import rng_from

    _check_integer("resamples", resamples, error=FitError)
    if resamples == 1 or resamples < 0:
        raise FitError(f"resamples must be 0 (no bootstrap) or an integer >= 2, got {resamples!r}")
    pts = [DecayPoint(*p) for p in points]
    if not pts:
        raise FitError("no points to fit")
    if pauli is None:
        pauli = pts[0].pauli
    ms, means, groups, shot_errs = _reference_aggregate(pts)
    if len(ms) < 3:
        raise FitError(f"need at least three distinct sequence lengths, got {len(ms)}")
    if np.all(means <= 0):
        raise FitError("all mean expectations are non-positive; decay unresolvable")
    weights = _reference_group_weights(groups, shot_errs)

    a, p = _fit_rows(ms, means[None], weights[None])
    amplitude, decay = float(a[0]), float(p[0])

    if resamples > 0 and max(len(g) for g in groups) > 1:
        rng = rng_from(seed, "bootstrap", pauli)
        boot_means = np.empty((resamples, len(ms)))
        for i, g in enumerate(groups):
            idx = rng.integers(0, len(g), size=(resamples, len(g)))
            boot_means[:, i] = g[idx].mean(axis=1)
        _, boot_p = _fit_rows(ms, boot_means, np.broadcast_to(weights, boot_means.shape))
        decay_std = float(boot_p.std(ddof=1))
    else:
        decay_std = 0.0
    return DecayFit(pauli=pauli, amplitude=amplitude, decay=decay, decay_std=decay_std)


def reference_fit_all_decays(points, resamples=200, seed=0):
    """``bench.fit_all_decays`` as one ``reference_fit_decay`` per term, the
    terms in sorted order, each term's points in input order."""
    by_pauli = {}
    for p in points:
        by_pauli.setdefault(p[0], []).append(p)
    return [reference_fit_decay(by_pauli[s], resamples=resamples, seed=seed, pauli=s)
            for s in sorted(by_pauli)]
