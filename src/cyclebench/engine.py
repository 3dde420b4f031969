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
unitary is one op list per cycle structure (``Executor._tail``).  There is
one execution kernel, ``Executor._run_stack``, which advances a stack of
equally long circuits layer by layer: ``run_many`` feeds it stacks of up to
``CHUNK`` circuits, ``run`` and ``advance`` a stack of one.  A stack of one
takes the cached cycle unitary; larger stacks apply layers of monomial
cycles (Pauli twirls, CNOTs) as signed permutations instead of matrix
products.
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

    # -- execution ---------------------------------------------------------

    def run(self, circuit: Circuit, initial: State | None = None) -> State:
        """Prepare ``initial`` (default |0...0>), with this model's
        preparation flips, and apply every cycle of ``circuit``."""
        self._check_register(circuit)
        state = self._zero_stack(1) if initial is None else self._stack_of(initial)
        return _wrap(self._run_stack([circuit], self._prepare(state))[0])

    def advance(self, state: State, circuit: Circuit) -> State:
        """Apply ``circuit``'s cycles to ``state``, without preparation:
        ``advance(run(a), b)`` equals ``run`` of a followed by b bit for bit."""
        self._check_register(circuit)
        return _wrap(self._run_stack([circuit], self._stack_of(state))[0])

    def run_many(self, circuits: Sequence[Circuit]) -> Iterator[tuple[int, State]]:
        """Run many circuits from |0...0>, yielding ``(index, final state)``.

        Circuits with the same cycle count advance together, at most
        ``CHUNK`` at a time, as one stack per layer.  Every circuit still
        gets its own BLAS call of the same shape (numpy's stacked
        ``matmul``), so each state is bit-identical whatever the chunk size,
        and to ``run(circuits[index])``.  Pairs come grouped by cycle count,
        not in index order.
        """
        groups: dict[int, list[int]] = {}
        for i, circuit in enumerate(circuits):
            self._check_register(circuit)
            groups.setdefault(len(circuit.cycles), []).append(i)
        wrap = DensityMatrix if self.use_density else StateVector
        for members in groups.values():
            for lo in range(0, len(members), CHUNK):
                part = members[lo:lo + CHUNK]
                stack = self._run_stack([circuits[i] for i in part],
                                        self._prepare(self._zero_stack(len(part))))
                if not self.use_density:
                    stack = stack[..., 0]
                for i, state in zip(part, stack):
                    yield i, wrap(state)

    def _check_register(self, circuit: Circuit) -> None:
        if tuple(circuit.qubits) != self.register:
            raise SimulationError(
                f"circuit register {circuit.qubits} does not match executor register"
            )

    def _prepare(self, state: np.ndarray) -> np.ndarray:
        """The preparation flips on a stack."""
        prep = tuple(("kraus", ("prep", pos), chan, (pos,)) for pos, chan in self._prep_flips)
        return self._apply_tail(state, prep)

    def _zero_stack(self, b: int) -> np.ndarray:
        """``b`` copies of |0...0>."""
        dim = 2**self.n
        state = np.zeros((b, dim, dim if self.use_density else 1), dtype=complex)
        state[:, 0, 0] = 1.0
        return state

    def _stack_of(self, state: State) -> np.ndarray:
        """A stack of one: ``state``'s density matrix, or its amplitudes as a
        column when this model introduces no channel."""
        if state.n_qubits != self.n:
            raise SimulationError(
                f"state has {state.n_qubits} qubits but the executor register has {self.n}"
            )
        if isinstance(state, DensityMatrix):
            return state.entries[None].copy()
        if self.use_density:
            return np.outer(state.amplitudes, state.amplitudes.conj())[None]
        return state.amplitudes.reshape(1, -1, 1).copy()

    def _positions(self, qubits: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.register.index(q) for q in qubits)

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

    # -- the kernel ----------------------------------------------------------

    def _run_stack(self, circuits: list[Circuit], state: np.ndarray) -> np.ndarray:
        """Apply equally long circuits' cycles to a stack of initial states,
        (b, d, d) densities or (b, d, 1) amplitudes, one circuit per state.

        Every op reads density from the stack's last axis: a pure stack stays
        pure, since only a model that introduces channels has Kraus ops."""
        if len(circuits) == 1:
            # a stack of one (an RB sequence, a Trotter step): the cached cycle
            # unitary and a plain matmul, without per-cycle helper calls
            dense = state.shape[-1] != 1
            for cyc in circuits[0].cycles:
                u = cycle_unitary(cyc, self.register)
                state = u @ state
                if dense:
                    state = state @ u.conj().T
                tail = self._tail(cyc)
                if tail:
                    state = self._apply_tail(state, tail)
            return state
        for layer in zip(*(c.cycles for c in circuits)):
            state = self._apply_layer(state, layer)
        return state

    def _apply_layer(self, state: np.ndarray, layer: tuple[Cycle, ...]) -> np.ndarray:
        """One cycle per circuit of a stack of two or more: ideal unitaries,
        then each circuit's tail."""
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
            state = _conjugate(state, u[0] if len(cycles) == 1 else u[slot])

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
        if state.shape[-1] != 1:
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
                state = self._apply_kraus(state, key, op, positions)
            else:
                state = self._apply_unitary(state, key, op, positions)
        return state

    def _apply_unitary(self, state: np.ndarray, key, mat, positions) -> np.ndarray:
        return _conjugate(state, self._unitary_full(key, mat, positions))

    def _apply_kraus(self, state: np.ndarray, key, channel, positions) -> np.ndarray:
        b, dim = state.shape[:2]
        s = self._superop(key, channel, positions)
        return np.matmul(s, state.reshape(b, dim * dim, 1)).reshape(b, dim, dim)

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


def _conjugate(state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``U rho U^H`` on a density stack, ``U psi`` on an amplitude stack; ``u``
    is one matrix for the whole stack or one per state."""
    state = np.matmul(u, state)
    if state.shape[-1] == 1:
        return state
    return np.matmul(state, u.conj().swapaxes(-1, -2))


def _wrap(state: np.ndarray) -> State:
    """One state of a stack as a :class:`DensityMatrix` or a :class:`StateVector`."""
    return DensityMatrix(state) if state.shape[-1] != 1 else StateVector(state[:, 0])
