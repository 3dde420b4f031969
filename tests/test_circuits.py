import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench.circuits import (
    Circuit,
    CircuitError,
    Cycle,
    Gate,
    TfimParams,
    _cycle_unitary_cached,
    _unit_monomial,
    build_tfim_circuit,
    build_tfim_step,
    hard_cycle_ids_per_step,
    layout_cycles,
    layout_qubits,
    occupation,
    propagate_pauli,
)
from cyclebench import pauli as pl
from cyclebench.engine import Batch
from cyclebench.pauli import NonCliffordGateError, PauliString
from cyclebench.sim import StateVector

import oracles
from oracles import circuit_unitary, cnot_count, equal_up_to_phase, hard_cycle_count


class TestTypes:
    def test_cycle_rules(self):
        with pytest.raises(CircuitError):
            Cycle("hard", (Gate("H", (0,)),))
        with pytest.raises(CircuitError):
            Cycle("easy", (Gate("CNOT", (0, 1)),))
        with pytest.raises(CircuitError):
            Cycle("easy", (Gate("H", (0,)), Gate("S", (0,))))
        with pytest.raises(CircuitError):
            Cycle("soft", (Gate("H", (0,)),))
        cyc = Cycle("hard", (Gate("CNOT", (7, 2)), Gate("CNOT", (0, 5))))
        assert cyc.qubits == (0, 2, 5, 7)
        assert cyc == Cycle("hard", cyc.gates)

    def test_cnot_on_one_qubit_is_rejected(self):
        with pytest.raises(CircuitError, match=r"CNOT takes two distinct qubits, got \(0, 0\)"):
            Gate("CNOT", (0, 0))

    def test_circuit_register_check(self):
        cyc = Cycle("hard", (Gate("CNOT", (6, 7)),))
        Circuit((6, 7, 12, 11), (cyc,))
        with pytest.raises(CircuitError):
            Circuit((0, 1), (cyc,))

    def test_structure_is_kind_and_gate_qubits(self):
        cyc = Cycle("easy", (Gate("H", (3,)), Gate("C1", (1,), 4)))
        assert cyc.structure == ("easy", ((3,), (1,)))
        assert Cycle("hard", (Gate("CNOT", (1, 0)),)).structure == ("hard", ((1, 0),))

    def test_gate_arity(self):
        with pytest.raises(CircuitError):
            Gate("CNOT", (0,))
        with pytest.raises(CircuitError):
            Gate("RZ", (0,))
        with pytest.raises(CircuitError):
            Gate("WIBBLE", (0,))

    @pytest.mark.parametrize("name, param", [
        ("C1", 2.5), ("C1", 2.0), ("C1", True), ("C1", "3"), ("C1", -1), ("C1", 24), ("C1", None),
        ("RZ", "a"), ("RZ", math.nan), ("RZ", math.inf), ("RZ", 1j), ("RZ", False), ("RZ", None),
        ("X", 3), ("H", 0.5), ("I", False),
    ])
    def test_gate_params_are_checked_at_construction(self, name, param):
        """C1 takes an integer index below ``c1_count()``, RZ a finite real
        angle, every other gate no parameter."""
        with pytest.raises(CircuitError, match=name):
            Gate(name, (0,), param)

    @pytest.mark.parametrize("name, param", [
        ("C1", 0), ("C1", 23), ("C1", np.int64(5)), ("RZ", 0), ("RZ", -0.7),
        ("RZ", np.float64(1.5)), ("RZ", np.int32(2)), ("X", None),
    ])
    def test_gate_params_in_range_are_accepted(self, name, param):
        assert Gate(name, (0,), param).param is param


class TestLayouts:
    def test_layout_registers(self):
        assert layout_qubits(1) == (0, 1, 2, 3)
        assert layout_qubits(2) == (6, 7, 12, 11)
        assert layout_qubits(3) == (16, 17, 18, 19)

    def test_cycle_one_is_parallel_outer_pairs(self):
        cyc = layout_cycles(1, 1)
        assert cyc.kind == "hard"
        assert cyc.cnot_pairs() == ((0, 1), (2, 3))

    def test_cycle_three_layout_two(self):
        assert layout_cycles(2, 3).cnot_pairs() == ((7, 12),)

    def test_cycle_four_layout_three(self):
        assert layout_cycles(3, 4).cnot_pairs() == ((18, 19),)

    def test_invalid_ids(self):
        with pytest.raises(CircuitError):
            layout_cycles(4, 1)
        with pytest.raises(CircuitError):
            layout_cycles(1, 5)


PAPER_PARAMS = dict(sites=4, coupling=0.02, field=1.0, dt=10.0)


class TestTfimStep:
    @pytest.mark.parametrize(
        "name, value",
        [("coupling", math.inf), ("field", math.nan), ("dt", math.nan), ("dt", math.inf)],
    )
    def test_rejects_non_finite_params(self, name, value):
        with pytest.raises(CircuitError, match=f"tfim {name}"):
            TfimParams(**{name: value})

    def test_zero_dt_is_identity_up_to_phase(self):
        step = build_tfim_step("circuit1", TfimParams(**{**PAPER_PARAMS, "dt": 0.0}, steps=0))
        assert equal_up_to_phase(circuit_unitary(step), np.eye(16), 1e-9)

    def test_zero_coupling_limit(self):
        params = TfimParams(**{**PAPER_PARAMS, "coupling": 0.0}, steps=0)
        step = circuit_unitary(build_tfim_step("circuit1", params))
        hz, _ = oracles.tfim_sum_terms(4)
        from scipy.linalg import expm

        assert equal_up_to_phase(step, expm(-1j * 10.0 * hz), 1e-9)

    def test_step_matches_dense_exponentials(self):
        params = TfimParams(**PAPER_PARAMS, steps=0)
        for variant in ("circuit1", "circuit2"):
            step = circuit_unitary(build_tfim_step(variant, params))
            oracle = oracles.tfim_trotter_step(4, 0.02, 1.0, 10.0)
            assert equal_up_to_phase(step, oracle, 1e-9)

    def test_hard_cycle_structure(self):
        params = TfimParams(**PAPER_PARAMS, steps=0)
        c1 = build_tfim_step("circuit1", params)
        c2 = build_tfim_step("circuit2", params)
        assert hard_cycle_count(c1) == 4 and cnot_count(c1) == 6
        assert hard_cycle_count(c2) == 6 and cnot_count(c2) == 6

    def test_layout_mapping(self):
        params = TfimParams(**PAPER_PARAMS, steps=0)
        step = build_tfim_step("circuit2", params, layout=2)
        assert step.qubits == (6, 7, 12, 11)
        pairs = [p for cyc in step.cycles if cyc.kind == "hard" for p in cyc.cnot_pairs()]
        assert pairs == [(6, 7), (6, 7), (7, 12), (7, 12), (12, 11), (12, 11)]

    def test_unknown_variant(self):
        with pytest.raises(CircuitError):
            build_tfim_step("circuit3", TfimParams(**PAPER_PARAMS, steps=0))

    def test_layout_size_mismatch(self):
        with pytest.raises(CircuitError):
            build_tfim_step("circuit1", TfimParams(sites=3, steps=0), layout=1)


class TestTfimCircuit:
    def test_zero_steps_empty(self):
        circ = build_tfim_circuit("circuit1", TfimParams(**PAPER_PARAMS, steps=0))
        assert circ.cycles == ()

    def test_counting_two_steps(self):
        circ = build_tfim_circuit("circuit1", TfimParams(**PAPER_PARAMS, steps=2))
        assert hard_cycle_count(circ) == 8 and cnot_count(circ) == 12

    def test_variants_equivalent_each_step_count(self):
        for steps in range(0, 7):
            params = TfimParams(**PAPER_PARAMS, steps=steps)
            u1 = circuit_unitary(build_tfim_circuit("circuit1", params))
            u2 = circuit_unitary(build_tfim_circuit("circuit2", params))
            assert equal_up_to_phase(u1, u2, 1e-9), f"mismatch at {steps} steps"

    def test_trotter_error_shrinks_with_substeps(self):
        """Fixed t=10: finer substepping approaches the dense exponential of
        the circuit's generator, h*sum(Z) + J*sum(XX), monotonically."""
        from scipy.linalg import expm

        hz, hxx = oracles.tfim_sum_terms(4)
        target = expm(-1j * 10.0 * (1.0 * hz + 0.02 * hxx))
        errors = []
        for n_sub in (1, 2, 4, 8, 16):
            params = TfimParams(sites=4, coupling=0.02, field=1.0, dt=10.0 / n_sub, steps=n_sub)
            u = circuit_unitary(build_tfim_circuit("circuit1", params))
            # phase-align on the largest entry of the target before comparing
            idx = np.unravel_index(np.abs(target).argmax(), target.shape)
            phase = u[idx] / target[idx]
            errors.append(np.linalg.norm(u - phase / abs(phase) * target))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors

    def test_hard_cycle_ids(self):
        assert hard_cycle_ids_per_step("circuit1") == (1, 1, 3, 3)
        assert hard_cycle_ids_per_step("circuit2") == (2, 2, 3, 3, 4, 4)


class TestOccupation:
    def test_basis_states(self):
        state = StateVector.from_bits("1000")
        assert occupation(state, 1) == pytest.approx(1.0)
        for site in (2, 3, 4):
            assert occupation(state, site) == pytest.approx(0.0)
        vac = StateVector.from_bits("0000")
        assert all(occupation(vac, s) == pytest.approx(0.0) for s in range(1, 5))

    def test_site_range(self):
        with pytest.raises(CircuitError):
            occupation(StateVector.zero(2), 3)

    def test_five_steps_match_dense_trotter(self):
        params = TfimParams(**PAPER_PARAMS, steps=5)
        circ = build_tfim_circuit("circuit1", params)
        # run from |1000>
        init = StateVector.from_bits("1000")
        from cyclebench.engine import Executor

        state = Executor(circ.qubits).run(circ, initial=init)
        step = oracles.tfim_trotter_step(4, 0.02, 1.0, 10.0)
        vec = np.zeros(16, dtype=complex)
        vec[0b1000] = 1.0
        for _ in range(5):
            vec = step @ vec
        assert occupation(state, 1) == pytest.approx(
            oracles.occupation_from_vector(vec, 1, 4), abs=1e-9
        )


class TestPropagation:
    def test_textbook(self):
        cnot = Cycle("hard", (Gate("CNOT", (0, 1)),))
        assert propagate_pauli(cnot, PauliString("XI")) == PauliString("XX")
        assert propagate_pauli(cnot, PauliString("IZ")) == PauliString("ZZ")

    def test_register_mapping(self):
        cyc = layout_cycles(2, 3)  # CNOT(7, 12)
        out = propagate_pauli(cyc, PauliString("IXII"), register=(6, 7, 12, 11))
        assert out == PauliString("IXXI")

    def test_non_clifford_rejected(self):
        cyc = Cycle("easy", (Gate("RZ", (0,), 0.3),))
        with pytest.raises(NonCliffordGateError):
            propagate_pauli(cyc, PauliString("X"))

    def test_random_cycles_match_dense(self):
        rng = np.random.default_rng(17)
        n = 3
        for _ in range(200):
            letters = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=n))
            p = PauliString(letters)
            if rng.random() < 0.5:
                a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
                cyc = Cycle("hard", (Gate("CNOT", (a, b)),))
                u = oracles.embed(oracles.CNOT_MAT, (a, b), n)
            else:
                idx = [int(k) for k in rng.integers(0, 24, size=n)]
                cyc = Cycle("easy", tuple(Gate("C1", (q,), idx[q]) for q in range(n)))
                from cyclebench.pauli import c1_element

                u = oracles.kron_all(c1_element(k).matrix for k in idx)
            got = propagate_pauli(cyc, p)
            assert np.allclose(
                got.to_matrix(), u @ p.to_matrix() @ u.conj().T, atol=1e-10
            )


def _table(cycles, register) -> Batch:
    """A batch whose codes are ``cycles``, compiled to gate rows, and no grid rows."""
    return Batch.of_rows(register, cycles, np.empty((0, 0), dtype=np.int32))


def _built(cycles, register) -> np.ndarray:
    """The unitaries of ``cycles``, all of one structure, built from gate
    codes as the engine builds a layer."""
    return _table(cycles, register).unitaries(list(range(len(cycles))))


class TestCyclePermutation:
    """A code is monomial iff all its gate matrices are; its signed
    permutation is read off its unitary."""

    def test_monomial_c1_elements_are_the_exact_ones(self):
        """A C1 element is monomial exactly when its computed matrix has one
        nonzero per row, each in {1, -1, 1j, -1j}: the identity, S, Z, SDG."""
        exact = {
            e.index for e in pl._c1_table()
            if np.count_nonzero(e.matrix) == 2
            and set(e.matrix[e.matrix != 0].tolist()) <= {1, -1, 1j, -1j}
        }
        assert exact == {0, 2, 5, 10}
        batch = _table([Cycle("easy", (Gate("C1", (0,), k),)) for k in range(pl.c1_count())], (0,))
        assert set(np.flatnonzero(batch.monomial).tolist()) == exact
        assert {e.index for e in pl._c1_table() if _unit_monomial(e.matrix) is not None} == exact

    @pytest.mark.parametrize("seed", range(6))
    def test_describes_the_cycle_unitary_exactly(self, seed):
        rng = np.random.default_rng(seed)
        register = (4, 1, 7)
        names = [("I", None), ("X", None), ("Y", None), ("Z", None), ("S", None),
                 ("SDG", None), ("C1", 2), ("C1", 10)]
        for _ in range(20):
            order = [int(q) for q in rng.permutation(register)]
            if rng.integers(2):
                cycle = Cycle("hard", (Gate("CNOT", tuple(order[:2])),))
            else:
                picks = rng.integers(0, len(names), size=3)
                cycle = Cycle("easy", tuple(
                    Gate(names[k][0], (q,), names[k][1]) for q, k in zip(order, picks)
                ))
            assert _table([cycle], register).monomial.tolist() == [True]
            (perm,), (phase,) = _unit_monomial(_built([cycle], register))
            expected = np.zeros((8, 8), dtype=complex)
            expected[np.arange(8), perm] = phase
            assert np.array_equal(oracles.reference_cycle_unitary(cycle, register), expected)
            assert sorted(perm.tolist()) == list(range(8))

    @pytest.mark.parametrize(
        "gate", [Gate("H", (1,)), Gate("RZ", (1,), 0.5), Gate("C1", (1,), 12), Gate("C1", (1,), 1)]
    )
    def test_none_for_other_gates(self, gate):
        cycle = Cycle("easy", (Gate("X", (0,)), gate))
        assert _table([cycle], (0, 1)).monomial.tolist() == [False]
        assert _unit_monomial(_built([cycle], (0, 1))[0]) is None


# every one-qubit gate the package builds: the 24 C1 elements, the fixed
# gates and RZ at two angles
ONE_QUBIT_GATES = (
    [("C1", k) for k in range(24)]
    + [(name, None) for name in ("I", "X", "Y", "Z", "H", "S", "SDG")]
    + [("RZ", 0.3), ("RZ", -1.7)]
)


@st.composite
def easy_cycles(draw, max_qubits=5):
    """An easy cycle on a permuted register of 1-5 labels, with its gates on
    a random subset in random order (the rest idle)."""
    n = draw(st.integers(1, max_qubits))
    register = tuple(draw(st.permutations(range(2 * max_qubits)))[:n])
    busy = draw(st.permutations(register))[:draw(st.integers(0, n))]
    picks = draw(st.lists(st.sampled_from(ONE_QUBIT_GATES), min_size=len(busy),
                          max_size=len(busy)))
    gates = tuple(Gate(name, (q,), param) for q, (name, param) in zip(busy, picks))
    return Cycle("easy", gates), register


class TestEasyCycleUnitaries:
    """Easy-cycle unitaries are built as tensor products; they must equal the
    BLAS-free entry-by-entry oracle bit for bit, never only within a tolerance."""

    def test_every_ordered_pair(self):
        register = (0, 1)
        cycles = [
            Cycle("easy", (Gate(a, (0,), pa), Gate(b, (1,), pb)))
            for a, pa in ONE_QUBIT_GATES for b, pb in ONE_QUBIT_GATES
        ]
        batched = _built(cycles, register)
        for cyc, u in zip(cycles, batched):
            expected = oracles.reference_cycle_unitary(cyc, register)
            assert np.array_equal(u, expected), cyc
            assert np.array_equal(_cycle_unitary_cached(cyc.gates, register), expected), cyc

    @settings(max_examples=80, deadline=None)
    @given(easy_cycles())
    def test_matches_the_chain(self, case):
        cyc, register = case
        expected = oracles.reference_cycle_unitary(cyc, register)
        assert np.array_equal(_built([cyc], register)[0], expected)

    @pytest.mark.parametrize("size", [1, 7, 70, 256])
    def test_batched_equals_per_cycle(self, size):
        rng = np.random.default_rng(size)
        register = (5, 2, 9, 4)
        gates = {q: [Gate(name, (q,), param) for name, param in ONE_QUBIT_GATES]
                 for q in register}
        for order in ((5, 2, 9, 4), (4, 2, 5), (9,)):
            batch = [Cycle("easy", tuple(gates[q][k] for q, k in zip(order, picks)))
                     for picks in rng.integers(len(ONE_QUBIT_GATES), size=(size, len(order)))]
            stack = _built(batch, register)
            assert stack.shape == (len(batch), 16, 16)
            for cyc, u in zip(batch, stack):
                assert np.array_equal(u, _built([cyc], register)[0])
                assert np.array_equal(u, oracles.reference_cycle_unitary(cyc, register))

    def test_empty_cycle_is_identity(self):
        cyc = Cycle("easy", ())
        assert np.array_equal(_built([cyc], (3, 1))[0], np.eye(4))
        assert np.array_equal(_built([cyc, cyc], (3, 1)), np.stack([np.eye(4)] * 2))
        assert np.array_equal(_cycle_unitary_cached((), (3, 1)), np.eye(4))


@st.composite
def hard_cycles(draw, max_qubits=5):
    """A hard cycle on a permuted register of 2-5 labels: one CNOT, or two on
    disjoint pairs when there are four labels or more, in random order."""
    n = draw(st.integers(2, max_qubits))
    register = tuple(draw(st.permutations(range(2 * max_qubits)))[:n])
    busy = draw(st.permutations(register))
    n_gates = draw(st.integers(1, 2)) if n >= 4 else 1
    gates = tuple(Gate("CNOT", busy[2 * i:2 * i + 2]) for i in range(n_gates))
    return Cycle("hard", gates), register


class TestCodeBuiltUnitaries:
    """A layer's unitaries come from gate codes into a batch's gate stack;
    structures whose gates cover the register are placed by one gather,
    the rest scattered among zeros.  Both must equal the BLAS-free oracle."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_cover_and_idle_structures(self, n):
        """Easy cycles on every qubit and on all but one, the first of each
        all RZ; CNOT cycles on as many pairs as fit and on one pair; 34
        cycles per structure, two blocks of the build."""
        rng = np.random.default_rng(n)
        register = tuple(int(q) for q in rng.permutation(2 * n)[:n])
        busy = [int(q) for q in rng.permutation(register)]
        rz = ONE_QUBIT_GATES.index(("RZ", -1.7))
        for kind, qubits in [("easy", busy), ("easy", busy[:-1]),
                             ("hard", busy[:n - n % 2]), ("hard", busy[:2])]:
            if kind == "hard" and n < 2:
                continue
            cycles = []
            for t in range(34):
                if kind == "hard":
                    gates = [Gate("CNOT", (a, b)) for a, b in zip(qubits[::2], qubits[1::2])]
                else:
                    picks = [rz] * len(qubits) if t == 0 else rng.integers(len(ONE_QUBIT_GATES),
                                                                           size=len(qubits))
                    gates = [Gate(ONE_QUBIT_GATES[k][0], (q,), ONE_QUBIT_GATES[k][1])
                             for q, k in zip(qubits, picks)]
                cycles.append(Cycle(kind, tuple(gates)))
            for cyc, u in zip(cycles, _built(cycles, register), strict=True):
                assert np.array_equal(u, oracles.reference_cycle_unitary(cyc, register)), cyc


class TestHardCycleUnitaries:
    """Hard cycles take the same product build and scatter as easy ones; CNOT
    entries are 0 and 1, so the result is the oracle's exactly."""

    @settings(max_examples=80, deadline=None)
    @given(hard_cycles())
    def test_matches_the_chain(self, case):
        cyc, register = case
        expected = oracles.reference_cycle_unitary(cyc, register)
        assert np.array_equal(_built([cyc], register)[0], expected)
        assert np.array_equal(_built([cyc, cyc], register), np.stack([expected] * 2))
        assert np.array_equal(_cycle_unitary_cached(cyc.gates, register), expected)
