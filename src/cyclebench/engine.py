"""Noisy circuit execution.

An :class:`Executor` binds a register and a noise model, compiles every noise
op the model implies for that register once, as a matrix embedded in the
register, and then runs circuits as pure functions of (circuit, seed).
Noiseless circuits run on statevectors; as soon as the model introduces any
non-unitary channel the run switches to density matrices.  Coherent-only
noise (over-rotations, crosstalk) stays on the statevector path.

Per cycle the engine applies: the ideal cycle unitary, then coherent CNOT
rotations, then crosstalk rotations (hard cycles only), then the stochastic
Pauli channel of each gate, then damping (gate qubits for the gate's
duration, idle qubits for the cycle duration).  Everything after the ideal
unitary is one op list per cycle structure (``Executor._tail``).

One kernel, ``Executor._run``, advances a stack of circuits of any
structures and lengths, longest first, layer by layer, with one BLAS call of
a single circuit's shape per circuit and op, so no state depends on its
stack; layers of monomial cycles are signed permutations.  ``run`` and
``advance`` call it with one circuit; ``probabilities``, the one batched
entry point (CB and RB), sorts its circuits longest first once, runs them
``CHUNK`` at a time and returns their outcome rows in input order, which
``measured_expectation`` scores.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .circuits import Circuit, Cycle, _cycle_unitaries, cycle_permutation
from .noise import NoiseModel, coherent_overrotation, damping_channel, pauli_channel
from .pauli import PauliString
from .sim import (
    MAX_QUBITS,
    DensityMatrix,
    SimulationError,
    State,
    StateVector,
    embed_operator,
    readout_distribution,
)

# Circuits per stack in ``Executor.probabilities``.  It bounds the transient
# memory: a stack of 256 five-qubit density matrices is 4 MiB.
CHUNK = 256


class Executor:
    """Runs circuits on a fixed register under one noise model."""

    def __init__(self, register: tuple[int, ...], noise: NoiseModel | None = None):
        self.register = tuple(register)
        self.n = len(self.register)
        if self.n > MAX_QUBITS:
            raise SimulationError(f"registers are limited to {MAX_QUBITS} qubits")
        self.noise = noise
        self.use_density = noise is not None and noise.introduces_channels(self.register)
        # (op key, positions) -> ("unitary", U) or ("kraus", superoperator)
        self._ops: dict = {}
        self._tails: dict = {}
        self._parity: dict = {}
        self._readout = None
        self._prep: tuple = ()
        if noise is not None:
            # NoiseModel validated these and holds them read-only
            self._readout = {
                i: noise.readout[q] for i, q in enumerate(self.register) if q in noise.readout
            } or None
            flips = ((i, noise.prep_flip.get(q, 0.0)) for i, q in enumerate(self.register))
            self._prep = tuple(
                self._kraus(("prep", p), (i,), lambda: pauli_channel({"X": p}))
                for i, p in flips if p > 0
            )

    # -- compiled ops --------------------------------------------------------

    def _unitary(self, key, positions: tuple[int, ...], build) -> tuple:
        """``("unitary", U)`` with ``build()`` embedded at ``positions``."""
        op = self._ops.get((key, positions))
        if op is None:
            op = self._ops[key, positions] = ("unitary", embed_operator(build(), positions, self.n))
        return op

    def _kraus(self, key, positions: tuple[int, ...], build) -> tuple:
        """``("kraus", S)`` with S the superoperator, on row-major vec(rho),
        of the channel ``build()`` embedded at ``positions``."""
        op = self._ops.get((key, positions))
        if op is None:
            acc = None
            for k in build().operators:
                term = np.kron(k, k.conj())
                acc = term if acc is None else acc + term
            # sum_k K (x) conj(K) on (positions, their copies n up): vec(rho)
            # is row-major, so the column index is n more qubits
            wide = positions + tuple(p + self.n for p in positions)
            op = self._ops[key, positions] = ("kraus", embed_operator(acc, wide, 2 * self.n))
        return op

    # -- execution ---------------------------------------------------------

    def run(self, circuit: Circuit, initial: State | None = None) -> State:
        """Prepare ``initial`` (default |0...0>), with this model's
        preparation flips, and apply every cycle of ``circuit``."""
        state = self._zero_stack(1) if initial is None else self._stack_of(initial)
        return _wrap(self._run([circuit], self._apply_tail(state, self._prep))[0])

    def advance(self, state: State, circuit: Circuit) -> State:
        """Apply ``circuit``'s cycles to ``state``, without preparation:
        ``advance(run(a), b)`` equals ``run`` of a followed by b bit for bit."""
        return _wrap(self._run([circuit], self._stack_of(state))[0])

    def _check_register(self, circuit: Circuit) -> None:
        if tuple(circuit.qubits) != self.register:
            raise SimulationError(
                f"circuit register {circuit.qubits} does not match executor register"
            )

    def _check_width(self, what: str, n: int) -> None:
        if n != self.n:
            raise SimulationError(f"{what} has {n} qubits but the executor register has {self.n}")

    def _zero_stack(self, b: int) -> np.ndarray:
        """``b`` copies of |0...0>."""
        dim = 2**self.n
        state = np.zeros((b, dim, dim if self.use_density else 1), dtype=complex)
        state[:, 0, 0] = 1.0
        return state

    def _stack_of(self, state: State) -> np.ndarray:
        """A stack of one: ``state``'s density matrix, or its amplitudes as a
        column when this model introduces no channel; it may be a view, which
        ``_run`` copies."""
        self._check_width("state", state.n_qubits)
        if isinstance(state, DensityMatrix):
            return state.entries[None]
        if self.use_density:
            return np.outer(state.amplitudes, state.amplitudes.conj())[None]
        return state.amplitudes.reshape(1, -1, 1)

    def _positions(self, qubits: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.register.index(q) for q in qubits)

    def _tail(self, cyc: Cycle) -> tuple:
        """The noise ops that follow ``cyc``'s ideal unitary, in order.

        Each op is ``("unitary", U)`` or ``("kraus", S)`` with the matrix
        already embedded in the register.  The tail depends only on the cycle
        kind and on each gate's (is-CNOT, qubits); the kind fixes is-CNOT
        (hard cycles hold only CNOTs, easy ones none), so tails are interned
        by kind and gate qubits: twirl draws that differ only in their
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
                ops.append(self._unitary(
                    ("rot", axis, angle), self._positions(g.qubits),
                    lambda: coherent_overrotation(axis, angle),
                ))

        # spectator crosstalk during hard cycles
        if cyc.kind == "hard":
            fired = {frozenset(p) for p in cyc.cnot_pairs()}
            for term in noise.crosstalk:
                if frozenset(term.pair) in fired and term.spectator in self.register:
                    ops.append(self._unitary(
                        ("rot", "ZZ", term.angle),
                        self._positions((term.pair[0], term.spectator)),
                        lambda: coherent_overrotation("ZZ", term.angle),
                    ))

        # stochastic Pauli errors per gate
        for g in cyc.gates:
            pair = g.qubits if g.name == "CNOT" else None
            probs = noise.gate_pauli_probs(g.gate_class, pair)
            if probs and any(p > 0 for p in probs.values()):
                ops.append(self._kraus(
                    ("pauli", g.gate_class, pair), self._positions(g.qubits),
                    lambda: pauli_channel(probs),
                ))

        # damping: gate qubits for the gate duration, idle for the cycle
        cycle_dur = max((noise.duration(g.gate_class) for g in cyc.gates), default=0.0)
        busy = {}
        for g in cyc.gates:
            for q in g.qubits:
                busy[q] = noise.duration(g.gate_class)
        for i, q in enumerate(self.register):
            dur = busy.get(q, cycle_dur)
            if dur > 0 and (q in noise.t1 or q in noise.t2):
                ops.append(self._kraus(
                    ("damp", q, dur), (i,),
                    lambda: damping_channel(noise.t1.get(q, np.inf), noise.t2.get(q), dur),
                ))
        return tuple(ops)

    # -- the kernel ----------------------------------------------------------

    def _run(self, circuits: Sequence[Circuit], state: np.ndarray) -> np.ndarray:
        """Apply each circuit's cycles to its row of a stack of initial states,
        (b, d, d) densities or (b, d, 1) amplitudes, the circuits longest
        first.  Aligned at their last cycle, the rows started at each layer
        are a prefix ``[:a]``, which takes one ``_apply_layer``.  A pure stack
        stays pure: only a model that introduces channels has Kraus ops."""
        for circuit in circuits:
            self._check_register(circuit)
        lengths = [len(c.cycles) for c in circuits]
        steps = max(lengths, default=0)
        # each row's first layer, ascending; bisect, since numpy's first
        # search pages in up to 0.4 MB of kernels
        starts = [steps - n for n in lengths]
        layers = zip(*((None,) * (steps - n) + c.cycles for n, c in zip(lengths, circuits)))
        # run and advance pass views of the caller's state
        state = state.copy()
        # by cycle id, for this call (the circuits hold their cycles alive)
        signed: dict[int, tuple | None] = {}
        kept: dict[int, np.ndarray] = {}
        for t, layer in enumerate(layers):
            a = bisect_right(starts, t)
            state[:a] = self._apply_layer(state[:a], layer[:a], signed, kept)
        return state

    def _apply_layer(self, state: np.ndarray, layer: tuple[Cycle, ...], signed: dict,
                     kept: dict) -> np.ndarray:
        """One cycle per row of a stack: its ideal unitary, then its
        structure's tail.  ``signed`` caches ``cycle_permutation`` by cycle
        id, and ``kept`` unitaries (``_unitaries``)."""
        # distinct cycle objects (CB collections intern them) in order of first
        # appearance, so lookups run in the same order on every run, and each
        # row's slot among them when there are several
        ids = list(map(id, layer))
        distinct = dict(zip(ids, layer))
        slot = None
        if len(distinct) > 1:
            slot_of = dict(zip(distinct, range(len(distinct))))
            slot = np.fromiter(map(slot_of.__getitem__, ids), np.intp, len(ids))
        structures = [c.structure for c in distinct.values()]
        one = structures.count(structures[0]) == len(structures)
        perms = []
        for key, c in distinct.items():
            if key not in signed:
                signed[key] = cycle_permutation(c, self.register)
            if signed[key] is None:
                break
            perms.append(signed[key])
        if len(perms) == len(distinct):
            state = self._permute(state, perms, slot)
        else:
            state = _conjugate(state, self._unitaries(distinct, slot, one, kept))
        if one:
            return self._apply_tail(state, self._tail(layer[0]))
        # each structure's tail, looked up once, on its own rows
        for s, c in dict(zip(structures, distinct.values())).items():
            if tail := self._tail(c):
                rows = np.flatnonzero(np.array([t == s for t in structures])[slot])
                state[rows] = self._apply_tail(state[rows], tail)
        return state

    def _unitaries(self, distinct: dict, slot: np.ndarray | None, one: bool,
                   kept: dict) -> np.ndarray:
        """The ideal unitaries of a layer's ``distinct`` cycles, one matrix
        or one per row, from one ``_cycle_unitaries`` call per structure.

        ``kept`` holds, by cycle id, a layer's lone cycle and every cycle of a
        layer of several structures (RB's few gate cycles).  A layer of one
        structure, such as a C1-twirl layer of mostly new cycles, is built
        whole and keeps none: merging kept ones in cost more than it saved."""
        if slot is None:
            (key, cyc), = distinct.items()
            if key not in kept:
                kept[key] = _cycle_unitaries([cyc.gates], self.register)[0]
            return kept[key]
        if one:
            u = _cycle_unitaries([c.gates for c in distinct.values()], self.register)
            return u if len(u) == len(slot) else u[slot]
        groups: dict[tuple, list[int]] = {}
        for key in distinct:
            if key not in kept:
                groups.setdefault(distinct[key].structure, []).append(key)
        for keys in groups.values():
            kept.update(zip(keys, _cycle_unitaries([distinct[k].gates for k in keys], self.register)))
        return np.array([kept[key] for key in distinct])[slot]

    def _permute(self, state: np.ndarray, signed: list, slot: np.ndarray | None) -> np.ndarray:
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
            out = flat.take(perm[0], axis=1) * phase[0]
        else:
            # one gather on the flattened stack: row r reads r * width + perm
            rows = np.arange(0, flat.size, flat.shape[1])[:, None]
            out = flat.take(perm[slot] + rows) * phase[slot]
        return out.reshape(state.shape)

    def _apply_tail(self, state: np.ndarray, tail: tuple) -> np.ndarray:
        """A tail's compiled ops on a stack."""
        for kind, op in tail:
            if kind == "kraus":
                state = self._apply_kraus(state, op)
            else:
                state = self._apply_unitary(state, op)
        return state

    def _apply_unitary(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _conjugate(state, u)

    def _apply_kraus(self, state: np.ndarray, superop: np.ndarray) -> np.ndarray:
        b, dim = state.shape[:2]
        return np.matmul(superop, state.reshape(b, dim * dim, 1)).reshape(b, dim, dim)

    # -- measurement -------------------------------------------------------

    def probabilities(self, circuits: Sequence[Circuit]) -> np.ndarray:
        """Outcome rows (N, 2^n) of ``circuits`` run from |0...0>, in input
        order: each final state's Born probabilities, renormalised, then
        through this model's readout confusion.

        The circuits run longest first, ``CHUNK`` at a time, which bounds
        memory; a chunk costs its first circuit's cycle count.  Each row is
        bit-identical whatever the chunk size, and to ``run(circuits[i])``
        read out alone.
        """
        # Python's stable sort: numpy's first sort pages in about 0.3 MB
        order = sorted(range(len(circuits)), key=lambda i: len(circuits[i].cycles), reverse=True)
        out = np.empty((len(circuits), 2**self.n))
        for lo in range(0, len(order), CHUNK):
            part = order[lo:lo + CHUNK]
            start = self._apply_tail(self._zero_stack(len(part)), self._prep)
            out[part] = self._outcomes(self._run([circuits[i] for i in part], start))
        return out

    def _outcomes(self, stack: np.ndarray) -> np.ndarray:
        """Outcome rows (b, 2^n) of a (b, d, d) density or (b, d, 1) amplitude stack."""
        if stack.shape[-1] == 1:
            probs = np.abs(stack[:, :, 0]) ** 2
        else:
            probs = np.abs(np.diagonal(stack, axis1=1, axis2=2).real)
        return readout_distribution(probs / probs.sum(axis=1, keepdims=True), self._readout, self.n)

    def measured_expectation(
        self, probs: np.ndarray, observables: Sequence[PauliString], shots: int | None,
        streams=None,
    ) -> tuple[list[float], list[float]]:
        """Estimate outcome row k's <observable> (a signed Z/I string) and shot
        error from ``shots`` counts of its own stream ``streams[k]``.

        Each row draws its own multinomial, so counts do not depend on the
        stacking, and the parity arithmetic on integer counts is exact, so
        it runs over all rows at once.  ``shots=None`` returns the analytic
        expectation through the readout confusion (an infinite-shot
        surrogate) with zero shot error.
        """
        if len(observables) != len(probs):
            raise SimulationError(f"{len(observables)} observables for {len(probs)} outcome rows")
        if shots is not None and len(streams or ()) != len(probs):
            raise SimulationError(f"{len(streams or ())} streams for {len(probs)} outcome rows")
        parity = [self._parity_row(o) for o in observables]
        signs = [o.sign for o in observables]
        if shots is None:
            exact = [s * float(np.dot(p, row)) for s, p, row in zip(signs, parity, probs, strict=True)]
            return exact, [0.0] * len(exact)
        # filled in place: a list of small per-row arrays fragments the heap
        counts = np.empty(probs.shape, dtype=np.int64)
        for k, row in enumerate(probs):
            counts[k] = streams[k].multinomial(shots, row)
        x = np.array(signs) * (np.array(parity) * counts).sum(axis=1) / shots
        return x.tolist(), np.sqrt(np.maximum(0.0, 1.0 - x * x) / shots).tolist()

    def _parity_row(self, observable: PauliString) -> np.ndarray:
        """The unsigned +-1 parity of ``observable`` per outcome, checked and
        built once per observable."""
        row = self._parity.get(observable)
        if row is None:
            self._check_width("observable", observable.n_qubits)
            if any(c not in ("I", "Z") for c in observable.letters):
                raise SimulationError("measured observables must be Z/I strings")
            # contiguous: BLAS sums a strided vector in another order
            diagonal = np.diag(PauliString(observable.letters).to_matrix()).real
            row = self._parity[observable] = np.ascontiguousarray(diagonal)
        return row


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
