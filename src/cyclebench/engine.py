"""Noisy circuit execution.

An :class:`Executor` binds a register and a noise model, pre-compiles every
channel it will need, and then runs circuits as pure functions of
(circuit, seed).  Noiseless circuits run on statevectors; as soon as the
model introduces any non-unitary channel the run switches to density
matrices.  Coherent-only noise (over-rotations, crosstalk) stays on the
statevector path.

Per cycle the engine applies: the ideal cycle unitary, then coherent CNOT
rotations, then crosstalk rotations (hard cycles only), then the stochastic
Pauli channel of each gate, then damping (gate qubits for the gate's
duration, idle qubits for the cycle duration).  Everything after the ideal
unitary is one op list per cycle structure (``Executor._tail``), read both by
``Executor.run`` and by ``Executor.run_many``, which advances stacks of
equally long circuits together with bit-identical results.  ``run_many``
applies layers of monomial cycles (Pauli twirls, CNOTs) as signed
permutations instead of matrix products.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from .circuits import Circuit, Cycle, cycle_permutation, cycle_unitaries, cycle_unitary
from .noise import NoiseModel, coherent_overrotation, damping_channel, pauli_channel
from .pauli import PauliString
from .sim import (
    MAX_QUBITS,
    DensityMatrix,
    KrausChannel,
    SimulationError,
    State,
    StateVector,
    embed_operator,
    readout_distribution,
    rng_from,
    sample_counts,
)

# Circuits per stack in ``Executor.run_many``.  It bounds the transient
# memory: a stack of 256 five-qubit density matrices is 4 MiB.
CHUNK = 256


class Executor:
    """Runs circuits on a fixed register under one noise model."""

    def __init__(
        self,
        register: tuple[int, ...],
        noise: NoiseModel | None = None,
        force_density: bool = False,
    ):
        self.register = tuple(register)
        self.n = len(self.register)
        if self.n > MAX_QUBITS:
            raise SimulationError(f"registers are limited to {MAX_QUBITS} qubits")
        self.noise = noise
        self.use_density = force_density or (
            noise is not None and noise.introduces_channels(self.register)
        )
        self._superops: dict = {}
        self._tails: dict = {}
        self._embedded_unitary: dict = {}
        self._damping: dict = {}
        self._pauli_chans: dict = {}
        self._parity: dict = {}
        self._readout = None
        self._prep_flips: list[tuple[int, KrausChannel]] = []
        if noise is not None:
            self._readout = {
                i: np.asarray(noise.readout[q], dtype=float)
                for i, q in enumerate(self.register)
                if q in noise.readout
            } or None
            for i, q in enumerate(self.register):
                p = noise.prep_flip.get(q, 0.0)
                if p > 0:
                    self._prep_flips.append((i, pauli_channel({"X": p})))

    # -- cached embeddings ----------------------------------------------

    def _superop(self, key, channel: KrausChannel, positions: tuple[int, ...]):
        """Embedded channel as a superoperator on row-major vec(rho)."""
        cache_key = (key, positions)
        if cache_key not in self._superops:
            acc = None
            for k in channel.operators:
                full = embed_operator(k, positions, self.n)
                term = np.kron(full, full.conj())
                acc = term if acc is None else acc + term
            self._superops[cache_key] = acc
        return self._superops[cache_key]

    def _unitary_full(self, key, mat: np.ndarray, positions: tuple[int, ...]):
        cache_key = (key, positions)
        if cache_key not in self._embedded_unitary:
            self._embedded_unitary[cache_key] = embed_operator(mat, positions, self.n)
        return self._embedded_unitary[cache_key]

    def _pauli_channel_for(self, gate_class: str, pair: tuple[int, int] | None):
        key = (gate_class, pair)
        if key not in self._pauli_chans:
            probs = self.noise.gate_pauli_probs(gate_class, pair)
            if probs and any(p > 0 for p in probs.values()):
                self._pauli_chans[key] = pauli_channel(probs)
            else:
                self._pauli_chans[key] = None
        return self._pauli_chans[key]

    def _damping_channel(self, qubit_label: int, duration: float) -> KrausChannel | None:
        noise = self.noise
        if noise is None or duration <= 0:
            return None
        if qubit_label not in noise.t1 and qubit_label not in noise.t2:
            return None
        key = (qubit_label, duration)
        if key not in self._damping:
            t1 = noise.t1.get(qubit_label, np.inf)
            t2 = noise.t2.get(qubit_label)
            self._damping[key] = damping_channel(t1, t2, duration)
        return self._damping[key]

    # -- state transforms -------------------------------------------------

    def _apply_unitary(self, state, key, mat, positions):
        full = self._unitary_full(key, mat, positions)
        if isinstance(state, np.ndarray) and state.ndim == 1:
            return full @ state
        return full @ state @ full.conj().T

    def _apply_kraus(self, rho, key, channel, positions):
        dim = rho.shape[0]
        s = self._superop(key, channel, positions)
        return (s @ rho.reshape(-1)).reshape(dim, dim)

    # -- execution ---------------------------------------------------------

    def run(self, circuit: Circuit, initial: State | None = None) -> State:
        """Prepare ``initial`` (default |0...0>), with this model's
        preparation flips, and apply every cycle of ``circuit``."""
        self._check_register(circuit)
        if initial is not None:
            state = self._array(initial)
        elif self.use_density:
            state = np.zeros((2**self.n, 2**self.n), dtype=complex)
            state[0, 0] = 1.0
        else:
            state = np.zeros(2**self.n, dtype=complex)
            state[0] = 1.0

        for pos, chan in self._prep_flips:
            state = self._apply_kraus(state, ("prep", pos), chan, (pos,))
        return self._run_cycles(state, circuit)

    def advance(self, state: State, circuit: Circuit) -> State:
        """Apply ``circuit``'s cycles to ``state``, without preparation:
        ``advance(run(a), b)`` equals ``run`` of a followed by b bit for bit."""
        self._check_register(circuit)
        return self._run_cycles(self._array(state), circuit)

    def _check_register(self, circuit: Circuit) -> None:
        if tuple(circuit.qubits) != self.register:
            raise SimulationError(
                f"circuit register {circuit.qubits} does not match executor register"
            )

    def _array(self, state: State) -> np.ndarray:
        if isinstance(state, DensityMatrix):
            return state.entries.copy()
        if self.use_density:
            return np.outer(state.amplitudes, state.amplitudes.conj())
        return state.amplitudes.copy()

    def _run_cycles(self, state: np.ndarray, circuit: Circuit) -> State:
        for cyc in circuit.cycles:
            state = self._run_cycle(state, cyc)
        if self.use_density or state.ndim == 2:
            return DensityMatrix(state)
        return StateVector(state)

    def _positions(self, qubits: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.register.index(q) for q in qubits)

    def _run_cycle(self, state, cyc: Cycle):
        ideal = cycle_unitary(cyc, self.register)
        if state.ndim == 1:
            state = ideal @ state
        else:
            state = ideal @ state @ ideal.conj().T
        for kind, key, op, positions in self._tail(cyc):
            if kind == "kraus":
                state = self._apply_kraus(self._as_density(state), key, op, positions)
            else:
                state = self._apply_unitary(state, key, op, positions)
        return state

    def _tail(self, cyc: Cycle) -> tuple:
        """The noise ops that follow ``cyc``'s ideal unitary, in order.

        Each op is ``(kind, key, matrix or channel, positions)`` with kind
        ``"unitary"`` or ``"kraus"``.  The tail depends only on the cycle kind
        and on each gate's (is-CNOT, qubits); the kind fixes is-CNOT (hard
        cycles hold only CNOTs, easy ones none), so tails are interned by
        kind and gate qubits: twirl draws that differ only in their
        single-qubit gates share one tail.
        """
        if self.noise is None:
            return ()
        tail = self._tails.get(cyc.structure)
        if tail is None:
            tail = self._tails[cyc.structure] = self._build_tail(cyc)
        return tail

    def _build_tail(self, cyc: Cycle) -> tuple:
        noise = self.noise
        ops = []
        # coherent over-rotation riding on each CNOT
        for g in cyc.gates:
            if g.name != "CNOT":
                continue
            rot = noise.rotation_for_pair(g.qubits)
            if rot is not None and rot[1] != 0.0:
                axis, angle = rot
                ops.append((
                    "unitary", ("rot", axis, angle), self._rotation(axis, angle),
                    self._positions(g.qubits),
                ))

        # spectator crosstalk during hard cycles
        if cyc.kind == "hard":
            fired = {frozenset(p) for p in cyc.cnot_pairs()}
            for term in noise.crosstalk:
                if frozenset(term.pair) in fired and term.spectator in self.register:
                    ops.append((
                        "unitary", ("xt", term.angle), self._rotation("ZZ", term.angle),
                        self._positions((term.pair[0], term.spectator)),
                    ))

        # stochastic Pauli errors per gate
        for g in cyc.gates:
            pair = g.qubits if g.name == "CNOT" else None
            chan = self._pauli_channel_for(g.gate_class, pair)
            if chan is not None:
                ops.append((
                    "kraus", ("pauli", g.gate_class, pair), chan, self._positions(g.qubits)
                ))

        # damping: gate qubits for the gate duration, idle for the cycle
        cycle_dur = max((noise.duration(g.gate_class) for g in cyc.gates), default=0.0)
        busy = {}
        for g in cyc.gates:
            for q in g.qubits:
                busy[q] = noise.duration(g.gate_class)
        for i, q in enumerate(self.register):
            dur = busy.get(q, cycle_dur)
            chan = self._damping_channel(q, dur)
            if chan is not None:
                ops.append(("kraus", ("damp", q, dur), chan, (i,)))
        return tuple(ops)

    # -- batched execution -------------------------------------------------

    def run_many(self, circuits: Sequence[Circuit]) -> Iterator[tuple[int, State]]:
        """Run many circuits from |0...0>, yielding ``(index, final state)``.

        Circuits with the same cycle count advance together, at most
        ``CHUNK`` at a time, as one stack per layer.  Every op of ``run`` is
        applied in the same order, and every circuit still gets its own BLAS
        call of the same shape (numpy's stacked ``matmul``), so each state is
        bit-identical to ``run(circuits[index])`` whatever the chunk size.
        Pairs come grouped by cycle count, not in index order.
        """
        groups: dict[int, list[int]] = {}
        for i, circuit in enumerate(circuits):
            if tuple(circuit.qubits) != self.register:
                raise SimulationError(
                    f"circuit register {circuit.qubits} does not match executor register"
                )
            groups.setdefault(len(circuit.cycles), []).append(i)
        wrap = DensityMatrix if self.use_density else StateVector
        for members in groups.values():
            for lo in range(0, len(members), CHUNK):
                part = members[lo:lo + CHUNK]
                stack = self._run_stack([circuits[i] for i in part])
                for i, state in zip(part, stack):
                    yield i, wrap(state)

    def _run_stack(self, circuits: list[Circuit]) -> np.ndarray:
        """Final states of equally long circuits: (b, d, d) densities, or
        (b, d) amplitudes when the model introduces no channel (then no tail
        holds a Kraus op, so the stack never needs promoting)."""
        dim = 2**self.n
        state = np.zeros((len(circuits), dim, dim if self.use_density else 1), dtype=complex)
        state[:, 0, 0] = 1.0
        prep = tuple(("kraus", ("prep", pos), chan, (pos,)) for pos, chan in self._prep_flips)
        state = self._apply_tail(state, prep)
        for layer in zip(*(c.cycles for c in circuits)):
            state = self._apply_layer(state, layer)
        return state if self.use_density else state[..., 0]

    def _apply_layer(self, state: np.ndarray, layer: tuple[Cycle, ...]) -> np.ndarray:
        """One cycle per circuit: ideal unitaries, then each circuit's tail."""
        # distinct cycle objects (CB collections intern them) and each
        # circuit's slot among them
        ids = np.fromiter(map(id, layer), dtype=np.uint64, count=len(layer))
        _, first, slot = np.unique(ids, return_index=True, return_inverse=True)
        cycles = [layer[i] for i in first.tolist()]
        signed = []
        for c in cycles:
            found = cycle_permutation(c, self.register)
            if found is None:
                break
            signed.append(found)
        if len(signed) == len(cycles):
            state = self._permute(state, signed, slot)
        else:
            u = cycle_unitaries(cycles, self.register)
            u = u[0] if len(cycles) == 1 else u[slot]
            state = np.matmul(u, state)
            if self.use_density:
                state = np.matmul(state, u.conj().swapaxes(-1, -2))

        # one tail per structure, looked up once
        groups: dict[tuple, list[int]] = {}
        for k, c in enumerate(cycles):
            groups.setdefault(c.structure, []).append(k)
        if len(groups) == 1:
            return self._apply_tail(state, self._tail(cycles[0]))
        owner = np.empty(len(cycles), dtype=np.intp)
        for g, members in enumerate(groups.values()):
            owner[members] = g
        owner = owner[slot]
        for g, members in enumerate(groups.values()):
            tail = self._tail(cycles[members[0]])
            if tail:
                sel = np.flatnonzero(owner == g)
                state[sel] = self._apply_tail(state[sel], tail)
        return state

    def _permute(self, state: np.ndarray, signed: list, slot: np.ndarray) -> np.ndarray:
        """Monomial cycle unitaries as a gather and a phase multiply.

        With ``U[i, perm[i]] = phase[i]`` the only nonzero of row i,
        ``(U rho U^H)[i, j] = phase[i] rho[perm[i], perm[j]] conj(phase[j])``
        and ``(U psi)[i] = phase[i] psi[perm[i]]``.  Each BLAS dot product of
        the matmul path has a single nonzero term and unit-phase products are
        exact, so every nonzero entry is bit-identical to it; only the sign
        of an exact zero may differ.
        """
        b, dim = state.shape[:2]
        perm = np.stack([p for p, _ in signed])
        phase = np.stack([f for _, f in signed])
        if self.use_density:
            perm = (perm[:, :, None] * dim + perm[:, None, :]).reshape(len(signed), -1)
            phase = (phase[:, :, None] * phase.conj()[:, None, :]).reshape(len(signed), -1)
        flat = state.reshape(b, -1)
        if len(signed) == 1:
            out = flat[:, perm[0]] * phase[0]
        else:
            out = np.take_along_axis(flat, perm[slot], axis=1) * phase[slot]
        return out.reshape(state.shape)

    def _apply_tail(self, state: np.ndarray, tail: tuple) -> np.ndarray:
        """A tail's ops on a stack, with the shared embedded matrices."""
        for kind, key, op, positions in tail:
            if kind == "kraus":
                b, dim = state.shape[:2]
                s = self._superop(key, op, positions)
                state = np.matmul(s, state.reshape(b, dim * dim, 1)).reshape(b, dim, dim)
            else:
                full = self._unitary_full(key, op, positions)
                state = np.matmul(full, state)
                if self.use_density:
                    state = np.matmul(state, full.conj().T)
        return state

    def _as_density(self, state):
        if state.ndim == 1:
            return np.outer(state, state.conj())
        return state

    @staticmethod
    @functools.lru_cache(maxsize=512)
    def _rotation(axis: str, angle: float) -> np.ndarray:
        return coherent_overrotation(axis, angle)

    # -- measurement -------------------------------------------------------

    def sample(self, state: State, shots: int, seed) -> dict[str, int]:
        """Counts through this model's readout confusion."""
        return sample_counts(state, self._readout, shots, seed)

    def measured_expectation(
        self, state: State, observable: PauliString, shots: int | None, seed=0
    ) -> tuple[float, float]:
        """Estimate <observable> (a signed Z/I string) from sampled counts.

        ``shots=None`` returns the analytic expectation through the readout
        confusion (an infinite-shot surrogate) with zero shot error.
        """
        if any(c not in ("I", "Z") for c in observable.letters):
            raise SimulationError("measured observables must be Z/I strings")
        support = tuple(i for i, c in enumerate(observable.letters) if c != "I")
        probs = state.probabilities()
        probs = probs / probs.sum()
        probs = readout_distribution(probs, self._readout, state.n_qubits)
        if support not in self._parity:
            self._parity[support] = _parity_vector(state.n_qubits, support)
        parity = self._parity[support]
        if shots is None:
            return float(observable.sign * np.dot(parity, probs)), 0.0
        rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
        draws = rng.multinomial(shots, probs)
        x = float(observable.sign * np.dot(parity, draws) / shots)
        err = float(np.sqrt(max(0.0, 1.0 - x * x) / shots))
        return x, err


def _parity_vector(n: int, support: tuple[int, ...]) -> np.ndarray:
    idx = np.arange(2**n)
    acc = np.zeros(2**n, dtype=int)
    for q in support:
        acc ^= (idx >> (n - 1 - q)) & 1
    return 1.0 - 2.0 * acc


def run_circuit(
    circuit: Circuit,
    noise: NoiseModel | None = None,
    force_density: bool = False,
) -> State:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(circuit.qubits, noise, force_density=force_density).run(circuit)
