import numpy as np
import pytest

from cyclebench.circuits import (
    Circuit,
    CircuitError,
    Cycle,
    Gate,
    TfimParams,
    build_tfim_circuit,
    build_tfim_step,
    circuit_from_text,
    circuit_to_text,
    circuit_unitary,
    hard_cycle_ids_per_step,
    layout_cycles,
    layout_qubits,
    occupation,
    propagate_pauli,
)
from cyclebench.engine import run_circuit
from cyclebench.pauli import NonCliffordGateError, PauliString
from cyclebench.sim import StateVector, equal_up_to_phase

import oracles


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

    def test_circuit_register_check(self):
        cyc = Cycle("hard", (Gate("CNOT", (6, 7)),))
        Circuit((6, 7, 12, 11), (cyc,))
        with pytest.raises(CircuitError):
            Circuit((0, 1), (cyc,))

    def test_gate_arity(self):
        with pytest.raises(CircuitError):
            Gate("CNOT", (0,))
        with pytest.raises(CircuitError):
            Gate("RZ", (0,))
        with pytest.raises(CircuitError):
            Gate("WIBBLE", (0,))


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
        assert c1.hard_cycle_count() == 4 and c1.cnot_count() == 6
        assert c2.hard_cycle_count() == 6 and c2.cnot_count() == 6

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
        assert circ.hard_cycle_count() == 8 and circ.cnot_count() == 12

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
        state = run_circuit(circ)
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


class TestSerialization:
    def test_round_trip(self):
        params = TfimParams(**PAPER_PARAMS, steps=1)
        circ = build_tfim_circuit("circuit1", params, layout=2)
        again = circuit_from_text(circuit_to_text(circ))
        assert again == circ

    def test_c1_and_rz_tokens(self):
        circ = Circuit(
            (0, 1),
            (
                Cycle("easy", (Gate("C1", (0,), 7), Gate("RZ", (1,), 0.25))),
                Cycle("hard", (Gate("CNOT", (0, 1)),)),
            ),
        )
        assert circuit_from_text(circuit_to_text(circ)) == circ

    def test_bad_text(self):
        with pytest.raises(CircuitError):
            circuit_from_text("easy H 0")
