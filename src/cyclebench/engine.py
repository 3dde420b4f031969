"""Noisy circuit execution.

An :class:`Executor` binds a register and a noise model, compiles every noise
op the model implies for that register once, as a matrix embedded in the
register, and runs circuits as pure functions of (circuit, seed): on
statevectors, or on density matrices as soon as the model introduces a
non-unitary channel (coherent-only noise, over-rotations and crosstalk,
stays on statevectors).  Per cycle it applies the ideal cycle unitary, then
coherent CNOT rotations, then crosstalk rotations (hard cycles only), then
each gate's stochastic Pauli channel, then damping (gate qubits for the
gate's duration, idle qubits for the cycle's): after the unitary, one op
list per cycle structure, its tail (``Executor._tail``).

Circuits reach the kernel as a :class:`Batch`, its gate rows (``GateRows``)
and an integer grid of codes into them, one right-aligned row per circuit.
One kernel, ``Executor._run``, advances a stack of rows longest first, one
grid column (a layer of codes) at a time, with one BLAS call of a single
circuit's shape per circuit and op, so no state depends on its stack.  What
a call learns on the way has one owner, the call's ``_Plan``: each
structure's tail, and by code, through one lookup, each monomial cycle's
signed permutation and the unitary of each cycle met in a layer of several
structures.  ``run`` and ``advance`` compile one circuit; ``probabilities``,
the one batched entry point (CB and RB), runs a batch's rows ``CHUNK`` at a
time, longest first, and returns their outcome rows in input order, which
``measured_expectation`` scores.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from .circuits import (
    _UNIT_PHASES,
    Circuit,
    Cycle,
    Gate,
    _cycle_unitaries,
    _flat_matrices,
    _unit_monomial,
)
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


def _distinct(register: Sequence[int]) -> tuple[int, ...]:
    """``register`` as a tuple, checked to repeat no label."""
    register = tuple(register)
    if len(set(register)) != len(register):
        repeated = next(q for q in register if register.count(q) > 1)
        raise SimulationError(f"register label {repeated!r} is repeated in {register}")
    return register


class GateRows:
    """A batch's table as integers, one int32 row per code in table order:
    the code's structure, an index into ``structures`` (each a cycle kind
    and its gates' qubits) and ``positions`` (the same gates' register
    positions), then its gates as codes into ``gates``, the distinct (name,
    param) met so far, -1 past its last gate.

    ``cycles`` appends the rows of ``Cycle`` objects and raises
    ``SimulationError`` for an entry that is not one, or for a gate off the
    register; ``block`` appends codes of one structure whose gate codes a
    producer already holds, such as ``make_cb``'s twirl draws, coded by the
    ``gates`` given first.
    """

    def __init__(self, register: tuple[int, ...], gates: Iterable[Gate] = ()):
        self.register = register
        self.structures: list[tuple] = []
        self.positions: list[tuple[tuple[int, ...], ...]] = []
        self.gates: list[Gate] = []
        self.blocks = [np.empty((0, 1 + len(register)), dtype=np.int32)]
        self._structures: dict[tuple, int] = {}
        self._codes: dict[tuple, int] = {}
        for g in gates:
            self._code(g)

    def cycles(self, cycles: Iterable[Cycle]) -> None:
        rows = []
        for c in cycles:
            if not isinstance(c, Cycle):
                raise SimulationError(f"a batch table holds {c!r}, not a Cycle")
            rows.append([self._structure(c.structure), *map(self._code, c.gates)]
                        + [-1] * (len(self.register) - len(c.gates)))
        self.blocks.append(np.array(rows, dtype=np.int32).reshape(-1, 1 + len(self.register)))

    def block(self, structure: tuple, gates: np.ndarray) -> None:
        s, hard = self._structure(structure), structure[0] == "hard"
        if not (isinstance(gates, np.ndarray) and gates.dtype.kind in "iu"
                and gates.shape[1:] == (len(structure[1]),)):
            raise SimulationError(f"a block of {structure} takes one integer column per gate")
        cnot = np.array([g.name == "CNOT" for g in self.gates])
        if gates.size and (gates.min() < 0 or gates.max() >= len(cnot)):
            raise SimulationError(f"block gate codes must lie in [0, {len(cnot)})")
        # with _structure's check of the positions, this checks each gate's arity
        if (cnot[gates] != hard).any():
            raise SimulationError(f"{structure} holds a CNOT in an easy cycle or another gate in "
                                  "a hard one")
        pad = np.full((len(gates), len(self.register) - gates.shape[1]), -1)
        self.blocks.append(np.column_stack((np.full(len(gates), s), gates, pad)).astype(np.int32))

    def _structure(self, structure: tuple) -> int:
        if structure not in self._structures:
            kind, gates = structure
            used = [q for gate in gates for q in gate]
            if (kind not in ("easy", "hard") or len(set(used)) < len(used)
                    or any(len(g) != 1 + (kind == "hard") for g in gates)):
                raise SimulationError(f"{structure} is not an easy cycle of one-qubit gates or a "
                                      "hard one of qubit pairs, on distinct qubits")
            outside = sorted(set(used) - set(self.register))
            if outside:
                raise SimulationError(
                    f"a batch cycle uses qubits {outside} outside the register {self.register}"
                )
            self._structures[structure] = len(self.structures)
            self.structures.append(structure)
            self.positions.append(tuple(tuple(map(self.register.index, gate))
                                        for gate in structure[1]))
        return self._structures[structure]

    def _code(self, gate: Gate) -> int:
        key = gate.name, gate.param
        if key not in self._codes:
            self._codes[key] = len(self.gates)
            self.gates.append(gate)
        return self._codes[key]


class Batch:
    """Circuits on one register in compiled form: ``rows``, the gate rows of
    its distinct cycles (``GateRows``), and an integer ``codes`` grid (N, W)
    whose row i holds circuit i's cycles as codes into them, right-aligned
    behind -1 padding.  A batch is its gate rows: ``cycle`` and ``circuit``
    derive ``Cycle`` and ``Circuit`` objects from them.

    The kernel reads, per code, its ``structure`` and its ``gates`` row of
    codes into ``mats``, the (real, imaginary) parts of flat gate matrices,
    and whether it is ``monomial``, which holds iff each of its gate
    matrices has one unit-phase entry per row; and per structure its
    ``rows.structures`` tuple for the noise tail and its ``rows.positions``.
    ``make_cb`` builds its rows from its draws; ``of`` and ``of_rows``
    compile cycles.  The register and the grid are checked here.
    """

    def __init__(self, register: Sequence[int], rows: GateRows, codes: np.ndarray):
        self.register = _distinct(register)
        if rows.register != self.register:
            raise SimulationError(f"gate rows on {rows.register} for a batch on {self.register}")
        self.rows = rows
        self.codes = codes
        self._cycles: dict[int, Cycle] = {}
        compiled = np.concatenate(rows.blocks)
        if not isinstance(codes, np.ndarray) or codes.ndim != 2 or codes.dtype.kind not in "iu":
            raise SimulationError("batch codes must be a 2-D integer array")
        if codes.size and (codes.min() < -1 or codes.max() >= len(compiled)):
            raise SimulationError(f"batch codes must lie in [-1, {len(compiled)})")
        started = codes >= 0
        if (started[:, :-1] & ~started[:, 1:]).any():
            raise SimulationError("a batch row holds -1 after a code: padding must lead")
        self.structure, self.gates = compiled[:, 0], compiled[:, 1:]
        flat = _flat_matrices(rows.gates)
        self.mats = np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)
        nonzero = flat != 0
        unit = ((nonzero.sum(axis=1) == [2 ** len(g.qubits) for g in rows.gates])
                & (np.isin(flat, _UNIT_PHASES) | ~nonzero).all(axis=1))
        # -1 past a cycle's last gate reads the appended True
        self.monomial = np.append(unit, True)[self.gates].all(axis=1)

    @classmethod
    def of(cls, register: Sequence[int], circuits: Sequence[Circuit]) -> "Batch":
        """``circuits`` on ``register``, each distinct cycle object one code,
        in order of first appearance."""
        register = tuple(register)
        for circuit in circuits:
            if tuple(circuit.qubits) != register:
                raise SimulationError(
                    f"circuit register {circuit.qubits} does not match batch register {register}"
                )
        # by id: the circuits hold their cycles alive
        distinct = {id(c): c for circuit in circuits for c in circuit.cycles}
        code_of = dict(zip(distinct, range(len(distinct))))
        width = max((len(circuit.cycles) for circuit in circuits), default=0)
        codes = np.full((len(circuits), width), -1, dtype=np.int32)
        for row, circuit in zip(codes, circuits):
            row[width - len(circuit.cycles):] = [code_of[id(c)] for c in circuit.cycles]
        return cls.of_rows(register, distinct.values(), codes)

    @classmethod
    def of_rows(cls, register: Sequence[int], table: Sequence[Cycle], rows: np.ndarray) -> "Batch":
        """The batch of the cycles ``table`` whose row i holds the codes of
        ``rows[i]`` in order, its -1 entries dropped wherever they fall."""
        kept = rows >= 0
        lengths = kept.sum(axis=1)
        width = int(lengths.max(initial=0))
        codes = np.full((len(rows), width), -1, dtype=np.int32)
        # each kept code's column, counted back from the end of its row
        column = kept.cumsum(axis=1, dtype=np.int32)
        column += (width - 1 - lengths)[:, None]
        codes[kept.nonzero()[0], column[kept]] = rows[kept]
        gate_rows = GateRows(tuple(register))
        gate_rows.cycles(table)
        return cls(register, gate_rows, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def cycle(self, code: int) -> Cycle:
        """Code ``code`` as a :class:`Cycle`, derived once per batch, so
        the circuits of ``circuit`` share one object per code."""
        cyc = self._cycles.get(code)
        if cyc is None:
            kind, qubits = self.rows.structures[self.structure[code]]
            gates = map(self.rows.gates.__getitem__, self.gates[code, :len(qubits)].tolist())
            cyc = self._cycles[code] = Cycle(kind, tuple(Gate(g.name, q, g.param)
                                                         for g, q in zip(gates, qubits)))
        return cyc

    def circuit(self, k: int) -> Circuit:
        """Row k as a :class:`Circuit`."""
        row = self.codes[k]
        return Circuit(self.register, tuple(map(self.cycle, row[row >= 0].tolist())))

    def unitaries(self, codes: Sequence[int]) -> np.ndarray:
        """The unitaries of table ``codes``, all of one structure, as a stack."""
        positions = self.rows.positions[self.structure[codes[0]]]
        return _cycle_unitaries(self.gates[codes, :len(positions)], self.mats, positions,
                                len(self.register))

    def __eq__(self, other) -> bool:
        """The same register and, row by row, equal circuits."""
        if not isinstance(other, Batch):
            return NotImplemented
        return (self.register, len(self)) == (other.register, len(other)) and all(
            self.circuit(k) == other.circuit(k) for k in range(len(self))
        )


class Executor:
    """Runs circuits on a fixed register under one noise model."""

    def __init__(self, register: tuple[int, ...], noise: NoiseModel | None = None):
        self.register = _distinct(register)
        self.n = len(self.register)
        if self.n > MAX_QUBITS:
            raise SimulationError(f"registers are limited to {MAX_QUBITS} qubits")
        self.noise = noise
        self.use_density = noise is not None and noise.introduces_channels(self.register)
        # (op key, positions) -> ("unitary", U) or ("kraus", superoperator)
        self._ops: dict = {}
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
        return self._run_one(circuit, self._apply_tail(state, self._prep))

    def advance(self, state: State, circuit: Circuit) -> State:
        """Apply ``circuit``'s cycles to ``state``, without preparation:
        ``advance(run(a), b)`` equals ``run`` of a followed by b bit for bit."""
        return self._run_one(circuit, self._stack_of(state))

    def _run_one(self, circuit: Circuit, state: np.ndarray) -> State:
        batch = Batch.of(self.register, [circuit])
        plan = _Plan(batch, state.shape[-1] != 1, self._tail)
        return _wrap(self._run(plan, batch.codes, state)[0])

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

    def _tail(self, structure: tuple) -> tuple:
        """The noise ops that follow the ideal unitary of a cycle of
        ``structure``, its kind and each gate's qubits, in order.

        Each op is ``("unitary", U)`` or ``("kraus", S)``, compiled once per
        executor with the matrix already embedded in the register.  A tail
        depends on nothing else, since the kind fixes each gate's class (hard
        cycles hold only CNOTs, easy ones none): twirl draws that differ only
        in their single-qubit gates share one tail.
        """
        if self.noise is None:
            return ()
        kind, gates = structure
        hard = kind == "hard"
        gate_class = "cnot" if hard else "single_qubit"
        noise = self.noise
        ops = []
        if hard:
            # coherent over-rotation riding on each CNOT
            for pair in gates:
                rot = noise.rotation_for_pair(pair)
                if rot is not None and rot[1] != 0.0:
                    axis, angle = rot
                    ops.append(self._unitary(
                        ("rot", axis, angle), tuple(map(self.register.index, pair)),
                        lambda: coherent_overrotation(axis, angle),
                    ))
            # spectator crosstalk
            fired = {frozenset(pair) for pair in gates}
            for term in noise.crosstalk:
                if frozenset(term.pair) in fired and term.spectator in self.register:
                    ops.append(self._unitary(
                        ("rot", "ZZ", term.angle),
                        (self.register.index(term.pair[0]), self.register.index(term.spectator)),
                        lambda: coherent_overrotation("ZZ", term.angle),
                    ))

        # stochastic Pauli errors per gate
        for qubits in gates:
            pair = qubits if hard else None
            probs = noise.gate_pauli_probs(gate_class, pair)
            if probs and any(p > 0 for p in probs.values()):
                ops.append(self._kraus(
                    ("pauli", gate_class, pair), tuple(map(self.register.index, qubits)),
                    lambda: pauli_channel(probs),
                ))

        # damping: gate qubits for the gate duration, idle for the cycle
        gate_dur = noise.duration(gate_class)
        cycle_dur = gate_dur if gates else 0.0
        busy = {q for qubits in gates for q in qubits}
        for i, q in enumerate(self.register):
            dur = gate_dur if q in busy else cycle_dur
            if dur > 0 and (q in noise.t1 or q in noise.t2):
                ops.append(self._kraus(
                    ("damp", q, dur), (i,),
                    lambda: damping_channel(noise.t1.get(q, np.inf), noise.t2.get(q), dur),
                ))
        return tuple(ops)

    # -- the kernel ----------------------------------------------------------

    def _run(self, plan: "_Plan", grid: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Apply each row of a code ``grid`` to its row of a stack of initial
        states, (b, d, d) densities or (b, d, 1) amplitudes, the rows longest
        first.  Rows are right-aligned behind -1 padding, so the rows started
        at each layer are a prefix ``[:a]``, which takes one
        ``_apply_layer``.  A pure stack stays pure: only a model that
        introduces channels has Kraus ops."""
        # each row's first layer, ascending; bisect, since numpy's first
        # search pages in up to 0.4 MB of kernels
        starts = (grid < 0).sum(axis=1).tolist()
        # run and advance pass views of the caller's state
        state = state.copy()
        for t, column in enumerate(np.ascontiguousarray(grid.T)):
            a = bisect_right(starts, t)
            state[:a] = self._apply_layer(state[:a], column[:a], plan)
        return state

    def _apply_layer(self, state: np.ndarray, column: np.ndarray, plan: "_Plan") -> np.ndarray:
        """One cycle per row of a stack, by its code in ``column``: its ideal
        unitary, then its structure's tail."""
        batch = plan.batch
        structures = batch.structure[column]
        one = bool((structures == structures[0]).all())
        if batch.monomial[column].all():
            state = plan.permute(state, column)
        else:
            state = _conjugate(state, plan.unitaries(column, one))
        if one:
            return self._apply_tail(state, plan.tails[structures[0]])
        # each structure's tail on its own rows
        for s in dict.fromkeys(structures.tolist()):
            if tail := plan.tails[s]:
                rows = np.flatnonzero(structures == s)
                state[rows] = self._apply_tail(state[rows], tail)
        return state

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

    def probabilities(self, batch: Batch) -> np.ndarray:
        """Outcome rows (N, 2^n) of the circuits of ``batch`` run from
        |0...0>, in input order: each final state's Born probabilities,
        renormalised, then through this model's readout confusion.

        The circuits run longest first, ``CHUNK`` at a time, which bounds
        memory; a chunk costs its first circuit's cycle count.  Each row is
        bit-identical whatever the chunk size, and to ``run(batch.circuit(i))``
        read out alone.
        """
        if not isinstance(batch, Batch):
            raise SimulationError(
                f"probabilities takes a Batch (Batch.of(register, circuits)), got {type(batch)}"
            )
        if batch.register != self.register:
            raise SimulationError(
                f"batch register {batch.register} does not match executor register"
            )
        codes = batch.codes
        lengths = (codes >= 0).sum(axis=1).tolist()
        # Python's stable sort: numpy's first sort pages in about 0.3 MB
        order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
        out = np.empty((len(lengths), 2**self.n))
        plan = _Plan(batch, self.use_density, self._tail)
        for lo in range(0, len(order), CHUNK):
            part = order[lo:lo + CHUNK]
            start = self._apply_tail(self._zero_stack(len(part)), self._prep)
            grid = codes[part, codes.shape[1] - lengths[part[0]]:]
            out[part] = self._outcomes(self._run(plan, grid, start))
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


class _Rows:
    """Arrays stored by code: ``row[code]`` is the code's row in each of
    ``stacks``, -1 until ``add``.  The stacks double as they fill; one row per
    table code would be an allocation large enough to raise glibc's mmap
    threshold when freed, and then heap pages pile up."""

    def __init__(self, codes: int):
        self.row = np.full(codes, -1, dtype=np.int32)
        self.stacks: list[np.ndarray] = []
        self.count = 0

    def add(self, codes: list[int], *values: np.ndarray) -> None:
        """Store row i of each of ``values`` as code ``codes[i]``'s."""
        end = self.count + len(codes)
        size = len(self.stacks[0]) if self.stacks else 8
        while size < end:
            size *= 2
        if not self.stacks:
            self.stacks = [np.empty((size, *v.shape[1:]), dtype=v.dtype) for v in values]
        elif size > len(self.stacks[0]):
            # np.resize repeats the rows, which later adds overwrite
            self.stacks = [np.resize(a, (size, *a.shape[1:])) for a in self.stacks]
        for a, v in zip(self.stacks, values):
            a[self.count:end] = v
        self.row[codes] = np.arange(self.count, end)
        self.count = end


class _Plan:
    """What one ``run``, ``advance`` or ``probabilities`` call learns about a
    batch, kept until it returns: each structure's ``tail``, built when the
    plan is made, and two stores by code, filled as codes are first met: the
    signed permutation of each monomial cycle, in the form of the stack it
    acts on, and the unitary of each cycle met in a layer of several
    structures."""

    def __init__(self, batch: Batch, density: bool, tail):
        self.batch = batch
        self.density = density
        self.tails = list(map(tail, batch.rows.structures))
        self.signed = _Rows(len(batch.structure))
        self.kept = _Rows(len(batch.structure))

    def _rows(self, store: _Rows, column: np.ndarray, build) -> np.ndarray:
        """``store``'s row for each code of ``column``.  The codes it lacks
        are built first, one ``Batch.unitaries`` call per structure in order
        of first appearance, and stored as ``build`` of their unitaries."""
        rows = store.row[column]
        if rows.min() < 0:
            groups: dict[int, list[int]] = {}
            for code in dict.fromkeys(column[rows < 0].tolist()):
                groups.setdefault(int(self.batch.structure[code]), []).append(code)
            for codes in groups.values():
                store.add(codes, *build(self.batch.unitaries(codes)))
            rows = store.row[column]
        return rows

    def _signed(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``U[i, perm[i]] = phase[i]`` of each monomial unitary of ``u``
        as a gather of the flattened state: on a density, ``(U rho U^H)[i, j]
        = phase[i] rho[perm[i], perm[j]] conj(phase[j])``."""
        perm, phase = _unit_monomial(u)
        if self.density:
            perm = perm[:, :, None] * perm.shape[1] + perm[:, None, :]
            phase = phase[:, :, None] * phase.conj()[:, None, :]
        return perm.reshape(len(u), -1), phase.reshape(len(u), -1)

    def permute(self, state: np.ndarray, column: np.ndarray) -> np.ndarray:
        """Monomial cycle unitaries, one per row by its code, as one gather
        of the flattened stack and a phase multiply.

        Each BLAS dot product of the matmul path has a single nonzero term
        and unit-phase products are exact, so every nonzero entry is
        bit-identical to it; only the sign of an exact zero may differ.
        """
        rows = self._rows(self.signed, column, self._signed)
        flat = state.reshape(len(state), -1)
        perm, phase = self.signed.stacks
        if (rows == rows[0]).all():
            out = flat.take(perm[rows[0]], axis=1) * phase[rows[0]]
        else:
            # state row r reads r * width + perm
            offsets = np.arange(0, flat.size, flat.shape[1])[:, None]
            out = flat.take(perm[rows] + offsets) * phase[rows]
        return out.reshape(state.shape)

    def unitaries(self, column: np.ndarray, one: bool) -> np.ndarray:
        """The ideal unitaries of a layer's cycles, one per row; ``one`` says
        the layer has a single structure.

        A layer of several structures (RB's few gate cycles, the CB target
        beside shorter rows' preparations) reads the unitaries kept for the
        call.  A layer of one structure, such as a C1-twirl layer of mostly
        new cycles, builds its distinct cycles in one call and keeps none:
        merging kept ones in cost more than it saved."""
        if not one:
            rows = self._rows(self.kept, column, lambda u: (u,))
            return self.kept.stacks[0][rows]
        codes = column.tolist()
        # distinct codes in order of first appearance
        distinct = dict.fromkeys(codes)
        if len(distinct) == len(codes):
            # every row's own cycle: built in row order, used without a gather
            return self.batch.unitaries(column)
        u = self.batch.unitaries(list(distinct))
        slot = {code: i for i, code in enumerate(distinct)}
        return u[np.fromiter(map(slot.__getitem__, codes), np.intp, len(codes))]
