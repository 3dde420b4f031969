import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench.bench import TWIRL_GROUPS, execute_collection, make_cb
from cyclebench.circuits import (
    Circuit, CircuitError, Cycle, Gate, _cycle_unitary_cached, _unit_monomial,
)
from cyclebench import engine, sim
from cyclebench.engine import Batch, Executor, GateRows
from cyclebench.noise import CrosstalkTerm, NoiseModel, confusion_from_scalar
from cyclebench.pauli import PauliString
from cyclebench.sim import DensityMatrix, SimulationError, StateVector, expectation_pauli

import oracles


def cnot_circuit(register=(0, 1)):
    return Circuit(register, (Cycle("hard", (Gate("CNOT", register),)),))


def bell_circuit():
    return Circuit(
        (0, 1),
        (
            Cycle("easy", (Gate("H", (0,)),)),
            Cycle("hard", (Gate("CNOT", (0, 1)),)),
        ),
    )


class TestRepresentationPolicy:
    def test_noiseless_stays_pure(self):
        state = Executor((0, 1)).run(bell_circuit())
        assert isinstance(state, StateVector)
        assert expectation_pauli(state, PauliString("XX")) == pytest.approx(1.0)

    def test_coherent_only_stays_pure(self):
        noise = NoiseModel(cnot_rotation={"*": ("ZZ", 0.3)})
        state = Executor((0, 1), noise).run(bell_circuit())
        assert isinstance(state, StateVector)

    def test_stochastic_noise_forces_density(self):
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.05}})
        state = Executor((0, 1), noise).run(bell_circuit())
        assert isinstance(state, DensityMatrix)
        state.validate()

    def test_damping_forces_density(self):
        noise = NoiseModel(t1={0: 50.0, 1: 50.0})
        assert isinstance(Executor((0, 1), noise).run(bell_circuit()), DensityMatrix)

    def test_density_path_matches_outer_product_when_noiseless(self):
        circ = bell_circuit()
        pure = Executor(circ.qubits).run(circ)
        rho = Executor(circ.qubits).run(circ, initial=DensityMatrix.zero(2))
        outer = np.outer(pure.amplitudes, pure.amplitudes.conj())
        assert np.max(np.abs(rho.entries - outer)) < 1e-9

    def test_register_mismatch_rejected(self):
        with pytest.raises(Exception):
            Executor((0, 1)).run(cnot_circuit((6, 7)))


class TestCompositionOrder:
    def test_gate_then_rotation_then_pauli_then_damping(self):
        """The engine must realise D . S . C . G for a noisy CNOT cycle."""
        noise = NoiseModel(
            t1={0: 40.0, 1: 60.0},
            t2={0: 50.0, 1: 80.0},
            pauli_errors={"cnot": {"XZ": 0.07}},
            cnot_rotation={"*": ("ZZ", 0.21)},
        )
        state = Executor((0, 1), noise).run(cnot_circuit())

        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        # start from |00> through a Hadamard-free CNOT: trivial, but dress it
        g = oracles.CNOT_MAT
        rho = g @ rho @ g.conj().T
        c = math.cos(0.21 / 2) * np.eye(4) - 1j * math.sin(0.21 / 2) * oracles.pauli_matrix("ZZ")
        rho = c @ rho @ c.conj().T
        xz = oracles.pauli_matrix("XZ")
        rho = 0.93 * rho + 0.07 * xz @ rho @ xz.conj().T
        for q, (t1, t2) in enumerate([(40.0, 50.0), (60.0, 80.0)]):
            dt = 0.3  # 300 ns cnot
            gamma = 1 - math.exp(-dt / t1)
            k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
            k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
            resid = math.exp(-dt / t2) / math.sqrt(1 - gamma)
            pz = (1 - resid) / 2
            z = oracles.PAULI_1Q["Z"]
            kraus = [
                math.sqrt(1 - pz) * k0,
                math.sqrt(1 - pz) * k1,
                math.sqrt(pz) * z @ k0,
                math.sqrt(pz) * z @ k1,
            ]
            full = [oracles.embed(k, (q,), 2) for k in kraus]
            rho = oracles.apply_kraus_dense(rho, full)
        assert np.max(np.abs(state.entries - rho)) < 1e-12

    def test_order_is_not_commutative_here(self):
        """Sanity: swapping rotation and gate changes the state, so the
        previous test genuinely pins the order."""
        noise = NoiseModel(cnot_rotation={"*": ("XY", 0.4)})
        circ = Circuit(
            (0, 1),
            (
                Cycle("easy", (Gate("H", (0,)),)),
                Cycle("hard", (Gate("CNOT", (0, 1)),)),
            ),
        )
        state = Executor(circ.qubits, noise).run(circ).amplitudes
        h_full = oracles.embed(oracles.H_MAT, (0,), 2)
        rot = (
            math.cos(0.2) * np.eye(4)
            - 1j * math.sin(0.2) * oracles.pauli_matrix("XY")
        )
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1
        correct = rot @ oracles.CNOT_MAT @ h_full @ vec
        swapped = oracles.CNOT_MAT @ rot @ h_full @ vec
        assert np.max(np.abs(state - correct)) < 1e-12
        assert np.max(np.abs(state - swapped)) > 1e-3


class TestCompiledOps:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(n)), st.integers(1, min(n, 2)), st.integers(1, 4),
        st.integers(0, 2**32 - 1))))
    def test_superoperator_is_the_sum_of_embedded_krons(self, case):
        """The local sum of K (x) conj(K), placed on the positions and their
        column copies, equals the Kraus sum of full-size krons."""
        n, order, k, terms, seed = case
        positions = tuple(order[:k])
        rng = np.random.default_rng(seed)
        kraus = tuple(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
                      for _ in range(terms))
        kind, superop = Executor(tuple(range(n)))._kraus(
            "random", positions, lambda: sim.KrausChannel(kraus))
        expected = None
        for op in kraus:
            full = oracles.embed(op, positions, n)
            term = np.kron(full, full.conj())
            expected = term if expected is None else expected + term
        assert kind == "kraus"
        assert np.array_equal(superop, expected)


class TestIdleDamping:
    def test_idle_qubit_damps_for_cycle_duration(self):
        register = (0, 1, 2)
        noise = NoiseModel(t1={2: 30.0}, t2={2: 60.0})
        circ = Circuit(
            register,
            (
                Cycle(
                    "easy",
                    (Gate("X", (2,)),),
                ),
                Cycle("hard", (Gate("CNOT", (0, 1)),)),
            ),
        )
        rho = Executor(register, noise).run(circ)
        # qubit 2 excited by X (50 ns decay) then idles through a 300 ns cnot
        expected = math.exp(-0.05 / 30.0) * math.exp(-0.3 / 30.0)
        tensor = rho.entries.reshape(2, 2, 2, 2, 2, 2)
        pop = np.einsum("abcabc->c", tensor)[1]
        assert pop.real == pytest.approx(expected, abs=1e-12)


class TestCrosstalk:
    def setup_method(self):
        self.noise = NoiseModel(
            crosstalk=(CrosstalkTerm((0, 1), 2, 0.5),),
        )

    def test_applied_when_pair_fires_and_spectator_present(self):
        register = (0, 1, 2)
        circ = Circuit(register, (cnot_circuit((0, 1)).cycles[0],))
        circ = Circuit(register, circ.cycles)
        state = Executor(circ.qubits, self.noise).run(circ)
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        rot = math.cos(0.25) * np.eye(8) - 1j * math.sin(0.25) * oracles.pauli_matrix("ZIZ")
        expected = rot @ oracles.embed(oracles.CNOT_MAT, (0, 1), 3) @ vec
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_skipped_when_spectator_outside_register(self):
        state = Executor((0, 1), self.noise).run(cnot_circuit((0, 1)))
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        assert np.max(np.abs(state.amplitudes - oracles.CNOT_MAT @ vec)) < 1e-12

    def test_skipped_when_pair_does_not_fire(self):
        register = (0, 1, 2)
        circ = Circuit(register, (Cycle("hard", (Gate("CNOT", (1, 2)),)),))
        state = Executor(circ.qubits, self.noise).run(circ)
        expected = oracles.embed(oracles.CNOT_MAT, (1, 2), 3) @ np.eye(8)[:, 0]
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def _measure(ex, state, observable, shots, seed=0):
    """The stacked readout of one state, whose width ``_stack_of`` checks,
    with stream ``rng_from(seed)``."""
    xs, errs = ex.measured_expectation(
        ex._outcomes(ex._stack_of(state)), [observable], shots, [sim.rng_from(seed)]
    )
    return xs[0], errs[0]


def _run_states(ex, circuits):
    """Final states of ``circuits`` from |0...0>, in input order, as
    ``StateVector`` or ``DensityMatrix``: the kernel ``_run`` over prepared
    zero stacks of the circuits' code rows sorted longest first,
    ``engine.CHUNK`` at a time, so a stack can hold circuits of several
    lengths."""
    batch = Batch.of(ex.register, circuits)
    plan = engine._Plan(batch, ex.use_density, ex._tail)
    width = batch.codes.shape[1]
    order = sorted(range(len(circuits)), key=lambda i: len(circuits[i].cycles), reverse=True)
    states = [None] * len(circuits)
    for lo in range(0, len(order), engine.CHUNK):
        part = order[lo:lo + engine.CHUNK]
        start = ex._apply_tail(ex._zero_stack(len(part)), ex._prep)
        grid = batch.codes[part, width - len(circuits[part[0]].cycles):]
        stack = ex._run(plan, grid, start)
        assert len(stack) == len(part)
        for i, row in zip(part, stack):
            states[i] = engine._wrap(row)
    return states


def _probabilities(ex, circuits):
    return ex.probabilities(Batch.of(ex.register, circuits))


def _circuits(coll):
    """The circuits of a CB collection, in index order."""
    return [coll.batch.circuit(k) for k in range(len(coll.batch))]


def _gate_rows(register, table):
    """``table``'s cycles compiled to the gate rows of a batch on ``register``."""
    rows = GateRows(tuple(register))
    rows.cycles(table)
    return rows


def _spy_builds(monkeypatch):
    """The gates of every cycle whose unitary ``Batch.unitaries`` builds for
    ``_Plan.unitaries``, the matmul path of a layer, in build order; the
    builds that ``_Plan.permute`` reads signed permutations off are not
    counted."""
    built, inside = [], []
    build, matmul_path = Batch.unitaries, engine._Plan.unitaries

    def spy_build(self, codes):
        if inside:
            built.extend(self.cycle(c).gates for c in codes)
        return build(self, codes)

    def spy_matmul_path(self, column, one):
        inside.append(column)
        try:
            return matmul_path(self, column, one)
        finally:
            inside.pop()

    monkeypatch.setattr(Batch, "unitaries", spy_build)
    monkeypatch.setattr(engine._Plan, "unitaries", spy_matmul_path)
    return built


def _stack_layers(circuits):
    """Per stack that ``probabilities`` runs (``engine.CHUNK`` circuits of
    them sorted longest first), its layers: the cycles of the rows that the
    layer reaches, the rows aligned at their last cycle."""
    ordered = sorted(circuits, key=lambda c: len(c.cycles), reverse=True)
    for lo in range(0, len(ordered), engine.CHUNK):
        part = ordered[lo:lo + engine.CHUNK]
        steps = len(part[0].cycles)
        yield [[c.cycles[t - steps + len(c.cycles)] for c in part if t + len(c.cycles) >= steps]
               for t in range(steps)]


class TestPrepAndReadout:
    def test_prep_flip_probability(self):
        noise = NoiseModel(prep_flip={0: 0.02})
        circ = Circuit((0, 1), ())
        rho = Executor(circ.qubits, noise).run(circ)
        assert rho.entries[0b10, 0b10].real == pytest.approx(0.02)

    def test_sampling_uses_model_readout(self):
        noise = NoiseModel(readout={0: confusion_from_scalar(0.1)})
        ex = Executor((0,), noise)
        probs = _probabilities(ex, [Circuit((0,), ())])[0]
        assert np.array_equal(probs, [0.9, 0.1])
        draws = np.random.default_rng(3).multinomial(200_000, probs)
        assert abs(draws[1] / 200_000 - 0.1) < 0.004

    def test_measured_expectation_analytic_vs_sampled(self):
        noise = NoiseModel(readout={0: confusion_from_scalar(0.05), 1: confusion_from_scalar(0.05)})
        ex = Executor((0, 1), noise)
        state = ex.run(bell_circuit())
        exact, err0 = _measure(ex, state, PauliString("ZZ"), None)
        assert err0 == 0.0
        # symmetric flips scale a two-qubit parity by (1-2e)^2
        assert exact == pytest.approx((1 - 0.1) ** 2, abs=1e-12)
        sampled, err = _measure(ex, state, PauliString("ZZ"), 200_000, seed=9)
        assert err == pytest.approx(math.sqrt((1 - sampled**2) / 200_000))
        assert abs(sampled - exact) < 6 * max(err, 1e-4)

    @pytest.mark.parametrize("shots", [10, None])
    def test_measured_expectation_rejects_mismatched_counts(self, shots):
        """One observable for three rows returned three points with shots and
        failed in ``zip`` without; too few streams failed deep in the loop."""
        ex = Executor((0, 1))
        probs = _probabilities(ex, [Circuit((0, 1), ())] * 3)
        streams = [sim.rng_from(k) for k in range(3)]
        with pytest.raises(SimulationError, match="1 observables for 3 outcome rows"):
            ex.measured_expectation(probs, [PauliString("ZZ")], shots, streams)
        if shots is not None:
            with pytest.raises(SimulationError, match="2 streams for 3 outcome rows"):
                ex.measured_expectation(probs, [PauliString("ZZ")] * 3, shots, streams[:2])
            with pytest.raises(SimulationError, match="0 streams for 3 outcome rows"):
                ex.measured_expectation(probs, [PauliString("ZZ")] * 3, shots)

    def test_measured_expectation_rejects_xy(self):
        ex = Executor((0, 1))
        state = ex.run(bell_circuit())
        with pytest.raises(Exception):
            _measure(ex, state, PauliString("XI"), 100)

    @pytest.mark.parametrize("state, observable, message", [
        (StateVector.zero(2), "Z", "observable has 1 qubits .* register has 2"),
        (StateVector.zero(2), "ZZZ", "observable has 3 qubits .* register has 2"),
        (StateVector.zero(3), "ZZ", "state has 3 qubits .* register has 2"),
        (DensityMatrix.zero(1), "ZZ", "state has 1 qubits .* register has 2"),
    ], ids=["short-observable", "long-observable", "wide-state", "narrow-density"])
    def test_measurement_rejects_other_widths(self, state, observable, message):
        noise = NoiseModel(readout={0: confusion_from_scalar(0.05)})
        for ex in (Executor((0, 1)), Executor((0, 1), noise)):
            for shots in (None, 10):
                with pytest.raises(SimulationError, match=message):
                    _measure(ex, state, PauliString(observable), shots)

    def test_readout_is_copied_and_validated_on_entry(self, monkeypatch):
        """The model keeps its own read-only confusion matrices, so a caller
        who later mutates theirs changes neither the model nor a measured
        expectation, and measuring never validates them again."""
        conf = confusion_from_scalar(0.05)
        noise = NoiseModel(readout={0: conf})
        ex = Executor((0, 1), noise)
        state = ex.run(bell_circuit())
        before = _measure(ex, state, PauliString("ZZ"), None)
        conf[:] = [[0.5, 0.5], [0.5, 0.5]]
        assert np.array_equal(noise.readout[0], confusion_from_scalar(0.05))
        assert not noise.readout[0].flags.writeable
        monkeypatch.setattr(sim, "_validate_confusion", None)
        for ex in (ex, Executor((0, 1), noise)):
            assert _measure(ex, state, PauliString("ZZ"), None) == before
            _measure(ex, state, PauliString("ZZ"), 64, seed=1)


def test_every_emitted_channel_is_cptp():
    noise = NoiseModel(
        t1={0: 40.0, 1: 55.0},
        t2={0: 60.0, 1: 90.0},
        pauli_errors={"cnot": {"XX": 0.01, "IZ": 0.02}, "single_qubit": {"X": 0.001}},
        prep_flip={0: 0.02},
    )
    ex = Executor((0, 1), noise)
    ex.run(bell_circuit())
    kinds = [kind for kind, _ in ex._ops.values()]
    # one prep flip, one CNOT and one single-qubit Pauli channel, damping for
    # two qubits at two durations
    assert kinds.count("kraus") == 7
    for kind, op in ex._ops.values():
        if kind == "kraus":
            _assert_cptp(op)


def test_seeded_sampling_is_reproducible():
    noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.02}},
                       readout={1: confusion_from_scalar(0.03)})
    ex = Executor((0, 1), noise)
    state = ex.run(bell_circuit())
    zz = PauliString("ZZ")
    assert _measure(ex, state, zz, 1000, 11) == _measure(ex, state, zz, 1000, 11)
    assert _measure(ex, state, zz, 1000, 11) == oracles.measured_expectation(ex, state, zz, 1000, 11)


class TestInitialStates:
    def test_pure_initial_promoted_to_density_under_noise(self):
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.02}})
        init = StateVector.from_bits("10")
        out = Executor((0, 1), noise).run(cnot_circuit(), initial=init)
        assert isinstance(out, DensityMatrix)
        assert out.entries[0b11, 0b11].real == pytest.approx(0.98)

    def test_pure_initial_stays_pure_without_noise(self):
        init = StateVector.from_bits("10")
        out = Executor((0, 1)).run(cnot_circuit(), initial=init)
        assert isinstance(out, StateVector)
        assert abs(out.amplitudes[0b11]) == pytest.approx(1.0)

    def test_density_initial_accepted_by_pure_executor(self):
        init = StateVector.from_bits("10").to_density()
        out = Executor((0, 1)).run(cnot_circuit(), initial=init)
        assert isinstance(out, DensityMatrix)
        assert out.entries[0b11, 0b11].real == pytest.approx(1.0)

    def test_run_rejects_initial_of_other_width(self):
        with pytest.raises(SimulationError, match="3 qubits .* register has 2"):
            Executor((0, 1)).run(cnot_circuit(), initial=StateVector.zero(3))

    def test_advance_rejects_state_of_other_width(self):
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.02}})
        for ex in (Executor((0, 1)), Executor((0, 1), noise)):
            with pytest.raises(SimulationError, match="1 qubits .* register has 2"):
                ex.advance(StateVector.zero(1), Circuit((0, 1), ()))
            with pytest.raises(SimulationError, match="3 qubits .* register has 2"):
                ex.advance(DensityMatrix.zero(3), cnot_circuit())

    @pytest.mark.parametrize("noise", [
        None,
        NoiseModel(cnot_rotation={"*": ("ZZ", 0.1)}),
        NoiseModel(pauli_errors={"cnot": {"XX": 0.02}}, t1={0: 40.0}, t2={1: 30.0},
                   durations={"cnot": 0.5}, prep_flip={0: 0.03, 1: 0.01}),
    ])
    def test_advance_continues_a_run(self, noise):
        """``advance`` applies cycles only: no second round of prep flips."""
        a = Circuit((0, 1), (Cycle("easy", (Gate("H", (0,)), Gate("RZ", (1,), 0.4))),
                             Cycle("hard", (Gate("CNOT", (0, 1)),))))
        b = Circuit((0, 1), (Cycle("easy", (Gate("C1", (1,), 7),)),) + a.cycles)
        ex = Executor((0, 1), noise)
        init = StateVector.from_bits("10")
        whole = oracles.reference_run(ex, Circuit((0, 1), a.cycles + b.cycles), init)
        stepped = ex.advance(ex.run(a, initial=init), b)
        assert type(stepped) is type(whole)
        assert np.array_equal(_final(stepped), _final(whole))


# ---------------------------------------------------------------------------
# Batched execution: every state bit-identical to the per-circuit reference

PAIR_LETTERS = ("XX", "IZ", "ZZ", "XY", "YI", "ZX")


def _final(state):
    return state.entries if isinstance(state, DensityMatrix) else state.amplitudes


@st.composite
def cb_cases(draw):
    """A random CB collection (1-5 qubits, spectators, m = 0 allowed) and a
    random noise model on its register, or no model at all."""
    n = draw(st.integers(1, 5))
    register = tuple(draw(st.permutations(range(n + 2)))[:n])
    order = draw(st.permutations(register))
    n_cnots = draw(st.integers(min(1, n // 2), n // 2))
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n_cnots)]
    cycle = Cycle("hard", tuple(Gate("CNOT", p) for p in pairs))
    m_list = tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=3, max_size=3))))
    coll = make_cb(
        cycle, m_list,
        n_random=draw(st.integers(1, 3)),
        n_decays=draw(st.integers(1, 3)),
        twirl=draw(st.sampled_from(TWIRL_GROUPS)),
        seed=draw(st.integers(0, 2**16)),
        register=register,
    )
    if draw(st.booleans()):
        return coll, None
    return coll, draw(noise_models(register, pairs))


@st.composite
def noise_models(draw, register, pairs):
    """A random model on ``register`` with every noise feature, CNOT terms
    on ``pairs``; channels only up to 4 qubits."""
    n = len(register)
    # density runs stay at <= 4 qubits: a 5-qubit superop is 16 MiB
    dense = n <= 4
    prob = st.floats(0.0, 0.05)
    kw: dict = {}
    if draw(st.booleans()):
        errors: dict = {}
        if dense and pairs and draw(st.booleans()):
            errors["cnot"] = {draw(st.sampled_from(PAIR_LETTERS)): draw(prob)}
        if dense and pairs and draw(st.booleans()):
            a, b = draw(st.sampled_from(pairs))
            errors[f"cnot:{a}-{b}"] = {draw(st.sampled_from(PAIR_LETTERS)): draw(prob)}
        if dense and draw(st.booleans()):
            errors["single_qubit"] = {draw(st.sampled_from("XYZ")): draw(prob)}
        kw["pauli_errors"] = errors
    if dense and draw(st.booleans()):
        qubits = draw(st.lists(st.sampled_from(register), unique=True))
        kw["t1"] = {q: draw(st.floats(20.0, 200.0)) for q in qubits}
        kw["t2"] = {
            q: draw(st.floats(10.0, 2 * kw["t1"][q]))
            for q in qubits if draw(st.booleans())
        }
        kw["durations"] = {
            "single_qubit": draw(st.floats(0.0, 100.0)),
            "cnot": draw(st.floats(0.0, 500.0)),
        }
    if draw(st.booleans()):
        kw["readout"] = {
            q: confusion_from_scalar(draw(st.floats(0.0, 0.1)))
            for q in draw(st.lists(st.sampled_from(register), unique=True))
        }
    if dense and draw(st.booleans()):
        kw["prep_flip"] = {draw(st.sampled_from(register)): draw(prob)}
    if pairs and draw(st.booleans()):
        kw["cnot_rotation"] = {
            "*": (draw(st.sampled_from(("ZZ", "XI", "XY"))), draw(st.floats(-0.3, 0.3)))
        }
    if pairs and n >= 3 and draw(st.booleans()):
        a, b = pairs[0]
        spectator = draw(st.sampled_from([q for q in register if q not in (a, b)]))
        kw["crosstalk"] = (CrosstalkTerm((a, b), spectator, draw(st.floats(-0.5, 0.5))),)
    return NoiseModel(**kw)


class TestBatchedExecution:
    @settings(max_examples=40, deadline=None)
    @given(cb_cases())
    def test_states_and_points_match_reference(self, case):
        coll, noise = case
        circuits = _circuits(coll)
        ex = Executor(coll.register, noise)
        reference = [oracles.reference_run(ex, c) for c in circuits]
        for c, ref in zip(circuits, reference):
            assert np.array_equal(_final(ex.run(c)), _final(ref))
        for chunk in (1, 7, engine.CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK", chunk)
                got = _run_states(ex, circuits)
            for state, ref in zip(got, reference, strict=True):
                assert type(state) is type(ref)
                assert np.array_equal(_final(state), _final(ref))

    @settings(max_examples=40, deadline=None)
    @given(cb_cases(), st.integers(1, 10**6))
    def test_stacked_readout_matches_oracle(self, case, shots):
        """Stacked readout equals the per-circuit oracle bit for bit, with
        and without shots, whatever the chunk size."""
        coll, noise = case
        for count in (None, shots):
            expected = repr(oracles.reference_execute_collection(coll, noise, count))
            for chunk in (1, 5, 256):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "CHUNK", chunk)
                    assert repr(execute_collection(coll, noise, count)) == expected

    def test_uninterned_cycles_and_mixed_lengths(self, monkeypatch):
        """Cycles that are equal but distinct objects, and circuits of
        different lengths in one call."""
        noise = NoiseModel(
            t1={6: 50.0, 7: 70.0}, t2={6: 60.0},
            pauli_errors={"cnot": {"XZ": 0.03}, "single_qubit": {"Y": 0.01}},
            cnot_rotation={"*": ("ZZ", 0.1)},
            crosstalk=(CrosstalkTerm((6, 7), 11, 0.2),),
            prep_flip={7: 0.02},
        )
        coll, _ = oracles.reference_make_cb(
            Cycle("hard", (Gate("CNOT", (6, 7)),)), (0, 1, 3), 3, 3, "c1", seed=4,
            register=(11, 6, 7),
        )
        circuits = _circuits(coll)
        ex = Executor(coll.register, noise)
        monkeypatch.setattr(engine, "CHUNK", 5)
        got = _run_states(ex, circuits)
        for i, c in enumerate(circuits):
            assert np.array_equal(got[i].entries, oracles.reference_run(ex, c).entries)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(
                pauli_errors={"cnot": {"XX": 0.04}, "cnot:1-2": {"ZI": 0.02}},
                cnot_rotation={"*": ("ZZ", 0.2)},
                crosstalk=(CrosstalkTerm((0, 1), 2, 0.3),),
            ),
            NoiseModel(
                t1={0: 40.0, 2: 80.0}, t2={0: 50.0},
                pauli_errors={"single_qubit": {"X": 0.01}, "cnot": {"IY": 0.03}},
                readout={1: confusion_from_scalar(0.03)},
            ),
            None,
        ],
    )
    def test_mixed_structure_layer_matches_reference(self, noise):
        """A stack whose cycles at one layer differ in kind, gate qubits or
        gate order runs each row as it runs alone."""
        pool = [
            Cycle("easy", (Gate("H", (0,)),)),
            Cycle("easy", (Gate("X", (1,)), Gate("S", (2,)))),
            Cycle("easy", (Gate("S", (2,)), Gate("X", (1,)))),
            Cycle("hard", (Gate("CNOT", (0, 1)),)),
            Cycle("hard", (Gate("CNOT", (1, 0)),)),
        ]
        ex = Executor((0, 1, 2), noise)
        for k, a in enumerate(pool):
            for b in pool[k + 1:]:
                circuits = [Circuit((0, 1, 2), (a,)), Circuit((0, 1, 2), (b,))]
                got = _run_states(ex, circuits)
                for i, c in enumerate(circuits):
                    ref = _final(oracles.reference_run(ex, c))
                    assert np.array_equal(_final(got[i]), ref)
                    assert np.array_equal(_final(ex.run(c)), ref)

    def test_layer_cycles_are_met_in_order_of_first_appearance(self, monkeypatch):
        """A layer's distinct monomial cycles are built in one call per
        structure, in the order the circuits hold them, not by memory
        address."""
        pair = [Cycle("easy", (Gate("X", (0,)), Gate("Z", (1,)))),
                Cycle("easy", (Gate("Y", (0,)), Gate("X", (1,))))]
        first, second = sorted(pair, key=id, reverse=True)
        circuits = [Circuit((0, 1), (c,)) for c in (first, second, first, second)]
        calls = []
        original = Batch.unitaries
        monkeypatch.setattr(Batch, "unitaries", lambda self, codes: calls.append(
            [self.cycle(c) for c in codes]) or original(self, codes))
        _probabilities(Executor((0, 1)), circuits)
        assert calls == [[first, second]]

    def test_run_cycle_and_batched_path_read_the_same_tail(self, monkeypatch):
        """Changing the one tail list changes both paths alike."""
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.05}}, t1={0: 40.0})
        coll = make_cb(Cycle("hard", (Gate("CNOT", (0, 1)),)), (0, 1, 2), 2, 2, seed=1)
        circuits = _circuits(coll)
        before = [Executor((0, 1), noise).run(c).entries for c in circuits]

        ry = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        extra = ("unitary", oracles.embed(ry.astype(complex), (1,), 2))
        original = Executor._tail
        monkeypatch.setattr(Executor, "_tail",
                            lambda self, structure: original(self, structure) + (extra,))
        ex = Executor((0, 1), noise)
        batched = _run_states(ex, circuits)
        changed = 0
        for i, c in enumerate(circuits):
            ref = oracles.reference_run(ex, c).entries
            assert np.array_equal(batched[i].entries, ref)
            assert np.array_equal(ex.run(c).entries, ref)
            changed += not np.allclose(ref, before[i])
        assert changed >= len(circuits) // 2

    def test_each_structure_tail_is_looked_up_once_per_call(self, monkeypatch):
        """A C1-twirl collection has one tail lookup per structure and
        ``probabilities`` call, however many distinct twirl cycles, layers
        and stacks it runs, and though a stack that straddles two lengths
        has layers of two structures (the target beside the shorter rows'
        preparations)."""
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.05}}, t1={0: 40.0})
        coll = make_cb(Cycle("hard", (Gate("CNOT", (0, 1)),)), (1, 3, 5), 6, 3,
                       twirl="c1", seed=3)
        circuits = _circuits(coll)
        calls = []
        original = Executor._tail
        monkeypatch.setattr(Executor, "_tail",
                            lambda self, structure: calls.append(structure)
                            or original(self, structure))
        for chunk in (engine.CHUNK, 7):
            monkeypatch.setattr(engine, "CHUNK", chunk)
            for batch in (coll.batch, Batch.of(coll.register, circuits)):
                calls.clear()
                Executor((0, 1), noise).probabilities(batch)
                assert sorted(kind for kind, _ in calls) == ["easy", "hard"]
            layers = [layer for stack in _stack_layers(circuits) for layer in stack]
            assert any(len({c.structure for c in layer}) > 1 for layer in layers)

    def test_tails_are_interned_by_structure(self):
        """Cycles of one structure get equal tails whose ops are the same
        compiled objects; another structure gets other ops."""
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.05}, "single_qubit": {"Z": 0.01}})
        ex = Executor((0, 1), noise)
        a = Cycle("easy", (Gate("X", (0,)), Gate("H", (1,))))
        b = Cycle("easy", (Gate("C1", (0,), 5), Gate("S", (1,))))
        tail = ex._tail(a.structure)
        assert len(tail) == 2
        assert all(p is q for p, q in zip(tail, ex._tail(b.structure), strict=True))
        hard = ex._tail(Cycle("hard", (Gate("CNOT", (0, 1)),)).structure)
        assert len(hard) == 1 and all(hard[0] is not op for op in tail)


# ---------------------------------------------------------------------------
# Batches: a table of cycles and a right-aligned grid of codes into it

@st.composite
def batch_cases(draw):
    """A batch built directly on 1-5 qubits: a table of easy and hard
    cycles, some never used and some equal to another but a distinct
    object, and 0-10 rows of 0-8 codes right-aligned behind -1 padding, with
    empty rows, repeated codes and leading columns of padding alone; and no
    model or a random one with every noise feature."""
    n = draw(st.integers(1, 5))
    register = tuple(draw(st.permutations(range(n + 2)))[:n])
    table = []
    for _ in range(draw(st.integers(1, 6))):
        if table and draw(st.booleans()):
            twin = draw(st.sampled_from(table))
            table.append(Cycle(twin.kind, twin.gates))
        elif n >= 2 and draw(st.booleans()):
            order = draw(st.permutations(register))
            table.append(Cycle("hard", tuple(Gate("CNOT", tuple(order[2 * i:2 * i + 2]))
                                             for i in range(draw(st.integers(1, n // 2))))))
        else:
            qubits = draw(st.lists(st.sampled_from(register), unique=True))
            picks = [draw(st.sampled_from(MONOMIAL_1Q + OTHER_1Q)) for _ in qubits]
            table.append(Cycle("easy", tuple(Gate(g, (q,), p) for q, (g, p) in zip(qubits, picks))))
    lengths = draw(st.lists(st.integers(0, 8), max_size=10))
    width = max(lengths, default=0) + draw(st.integers(0, 2))
    codes = np.full((len(lengths), width), -1, dtype=draw(st.sampled_from((np.int32, np.int64))))
    for row, k in zip(codes, lengths):
        row[width - k:] = draw(st.lists(st.integers(0, len(table) - 1), min_size=k, max_size=k))
    pairs = sorted({g.qubits for c in table if c.kind == "hard" for g in c.gates})
    return (Batch(register, _gate_rows(register, table), codes),
            draw(st.none() | noise_models(register, pairs)))


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_probabilities_match_reference(self, case):
        """Every outcome row of ``probabilities(batch)`` is the reference
        readout of ``reference_run`` of its row's circuit, whatever the chunk
        size."""
        batch, noise = case
        ex = Executor(batch.register, noise)
        expected = np.reshape(
            [oracles.reference_probabilities(ex, oracles.reference_run(ex, batch.circuit(k)))
             for k in range(len(batch))],
            (len(batch), 2**ex.n),
        )
        for chunk in (1, 7, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK", chunk)
                assert np.array_equal(ex.probabilities(batch), expected)

    def test_of_round_trip(self):
        """``Batch.of`` gives each distinct cycle object one code, in order
        of first appearance, and ``circuit(k)`` gives circuit k back."""
        h, cnot = Cycle("easy", (Gate("H", (1,)),)), Cycle("hard", (Gate("CNOT", (1, 0)),))
        twin = Cycle("easy", (Gate("H", (1,)),))
        circuits = [Circuit((1, 0), (h, cnot, h)), Circuit((1, 0), ()),
                    Circuit((1, 0), (twin,)), Circuit((1, 0), (cnot, cnot, twin, h))]
        batch = Batch.of((1, 0), circuits)
        assert len(batch) == 4 and batch.register == (1, 0)
        assert len(batch.structure) == 3
        assert [batch.cycle(code) for code in range(3)] == [h, cnot, twin]
        assert batch.codes.dtype == np.int32
        assert batch.codes.tolist() == [[-1, 0, 1, 0], [-1, -1, -1, -1],
                                        [-1, -1, -1, 2], [1, 1, 2, 0]]
        assert [batch.circuit(k) for k in range(4)] == circuits
        assert batch == Batch.of_rows((1, 0), (twin, cnot),
                                      np.array([[-1, 0, 1, 0], [-1, -1, -1, -1],
                                                [-1, -1, -1, 0], [1, 1, 0, 0]]))
        assert batch != Batch.of((1, 0), circuits[:3])
        assert Batch.of((0,), []).codes.shape == (0, 0)

    @pytest.mark.parametrize("codes, message", [
        (np.array([0, 1]), "2-D integer"),
        (np.zeros((1, 2)), "2-D integer"),
        (np.zeros((1, 2), dtype=bool), "2-D integer"),
        ([[0, 1]], "2-D integer"),
        (np.array([[0, 2]]), r"lie in \[-1, 2\)"),
        (np.array([[-2, 0]]), r"lie in \[-1, 2\)"),
        (np.array([[-1, 0], [0, -1]]), "padding must lead"),
    ], ids=["1-D", "float", "bool", "list", "past-the-table", "below-padding", "-1-after-a-code"])
    def test_rejects_bad_grids(self, codes, message):
        table = (Cycle("easy", (Gate("X", (0,)),)), Cycle("hard", (Gate("CNOT", (0, 1)),)))
        with pytest.raises(SimulationError, match=message):
            Batch((0, 1), _gate_rows((0, 1), table), codes)

    def test_rejects_other_registers(self):
        batch = Batch.of((1, 0), [cnot_circuit((1, 0))])
        with pytest.raises(SimulationError, match=r"batch register \(1, 0\) does not match"):
            Executor((0, 1)).probabilities(batch)
        with pytest.raises(SimulationError, match=r"circuit register \(0, 1\) does not match"):
            Batch.of((1, 0), [cnot_circuit((0, 1))])
        with pytest.raises(SimulationError, match="probabilities takes a Batch"):
            Executor((0, 1)).probabilities([cnot_circuit((0, 1))])
        with pytest.raises(SimulationError, match=r"gate rows on \(0, 1\) for a batch on \(1, 0\)"):
            Batch((1, 0), GateRows((0, 1)), np.empty((0, 0), dtype=np.int32))

    def test_cnot_on_one_qubit_fails_before_run(self):
        """Such a circuit used to reach the kernel and fail there with a
        TypeError."""
        with pytest.raises(CircuitError, match="CNOT takes two distinct qubits"):
            Executor((0, 1)).run(Circuit((0, 1), (Cycle("hard", (Gate("CNOT", (0, 0)),)),)))

    def test_rejects_repeated_register_labels(self):
        """A repeated label would let two positions share a qubit."""
        with pytest.raises(SimulationError, match=r"register label 0 is repeated in \(0, 0\)"):
            Executor((0, 0))
        with pytest.raises(SimulationError, match=r"register label 2 is repeated"):
            Batch((1, 2, 2), GateRows((1, 2, 2)), np.empty((0, 0), dtype=np.int32))
        with pytest.raises(SimulationError, match=r"register label 2 is repeated"):
            Batch.of((2, 2), [])

    @pytest.mark.parametrize("entry, message", [
        (Cycle("easy", (Gate("X", (0,)), Gate("Z", (2,)))),
         r"uses qubits \[2\] outside the register \(0, 1\)"),
        (Cycle("hard", (Gate("CNOT", (5, 1)),)), r"uses qubits \[5\] outside the register"),
        ("X", "a batch table holds 'X', not a Cycle"),
        (Gate("X", (0,)), "not a Cycle"),
    ], ids=["easy-off-register", "hard-off-register", "str", "gate"])
    def test_rejects_bad_table_entries_at_construction(self, entry, message):
        """Every table entry is compiled when the batch is made, so a bad
        one fails there, even if no row uses it."""
        table = (Cycle("easy", (Gate("X", (0,)),)), entry)
        with pytest.raises(SimulationError, match=message):
            Batch.of_rows((0, 1), table, np.array([[0, 0]]))


class TestGateRows:
    """The integer form of a batch table, which the kernel reads instead of
    its cycles."""

    @staticmethod
    def _collection(twirl):
        # the target leaves qubit 2 idle; the twirls cover the register
        return make_cb(Cycle("hard", (Gate("CNOT", (1, 0)),)), (0, 1, 3), 4, 3, twirl=twirl,
                       seed=7, register=(0, 1, 2))

    @staticmethod
    def _resolved(batch):
        """Each code's gate matrices, in gate order, NaN past its last gate."""
        mats = batch.mats[0] + 1j * batch.mats[1]
        return np.where((batch.gates >= 0)[..., None], mats[batch.gates], np.nan)

    @staticmethod
    def _cells(batch):
        """Per grid cell, row by row, its code's structure tuple, positions,
        resolved gate matrices and monomial flag."""
        codes = batch.codes[batch.codes >= 0]
        structures = batch.structure[codes].tolist()
        return ([batch.rows.structures[s] for s in structures],
                [batch.rows.positions[s] for s in structures],
                TestGateRows._resolved(batch)[codes], batch.monomial[codes])

    @pytest.mark.parametrize("twirl", TWIRL_GROUPS)
    def test_derived_circuits_compile_to_the_same_rows(self, twirl):
        """``make_cb``'s rows, its twirl draws taken as gate codes, say cell
        for cell what ``Batch.of`` compiles from the circuits derived from
        them, and both run to the same outcome rows bit for bit."""
        made = self._collection(twirl).batch
        derived = Batch.of(made.register, [made.circuit(k) for k in range(len(made))])
        assert made.codes.shape == derived.codes.shape
        assert np.array_equal(made.codes < 0, derived.codes < 0)
        (s1, p1, g1, m1), (s2, p2, g2, m2) = self._cells(made), self._cells(derived)
        assert s1 == s2 and p1 == p2
        assert np.array_equal(g1, g2, equal_nan=True)
        assert np.array_equal(m1, m2)
        assert np.array_equal(Executor(made.register).probabilities(made),
                              Executor(made.register).probabilities(derived))

    @pytest.mark.parametrize("twirl", TWIRL_GROUPS)
    def test_monomial_flags_match_the_built_unitaries(self, twirl):
        batch = self._collection(twirl).batch
        flags = []
        for s in range(len(batch.rows.positions)):
            codes = np.flatnonzero(batch.structure == s)
            assert np.array_equal(batch.monomial[codes], [
                _unit_monomial(u) is not None for u in batch.unitaries(codes)])
            flags += batch.monomial[codes].tolist()
        # both kinds of code occur: the CNOT is monomial, some C1 rotations are not
        assert set(flags) == {True, False}

    @pytest.mark.parametrize("structure, gates, message", [
        (("weird", ((0,),)), np.array([[0]]), "not an easy cycle"),
        (("easy", ((0,), (0,))), np.array([[0, 0]]), "on distinct qubits"),
        (("hard", ((0, 1),)), np.array([[0]]), "another gate in a hard one"),
        (("easy", ((0,),)), np.array([[2]]), "a CNOT in an easy cycle"),
        (("easy", ((0, 1),)), np.array([[2]]), "one-qubit gates"),
        (("hard", ((0,),)), np.array([[2]]), "qubit pairs"),
        (("easy", ((0,), (1,))), np.array([[0]]), "one integer column per gate"),
        (("easy", ((0,),)), np.array([0]), "one integer column per gate"),
        (("easy", ((0,),)), np.array([[0.0]]), "one integer column per gate"),
        (("easy", ((0,),)), [[0]], "one integer column per gate"),
        (("easy", ((0,),)), np.array([[5]]), r"lie in \[0, 3\)"),
        (("easy", ((0,),)), np.array([[-3]]), r"lie in \[0, 3\)"),
    ], ids=["kind", "overlap", "hard-non-cnot", "easy-cnot", "pair-in-easy", "cnot-on-one",
            "short-row", "1-D", "float", "list", "code-5", "code-minus-3"])
    def test_block_rejects_malformed_rows(self, structure, gates, message):
        """``Batch(register, rows, codes)`` is public and ``block`` is how a
        producer hands rows over: each of these used to fail deep in the
        kernel (IndexError, TypeError, ValueError) or run silently."""
        rows = GateRows((0, 1), (Gate("X", (0,)), Gate("H", (0,)), Gate("CNOT", (0, 1))))
        with pytest.raises(SimulationError, match=message):
            rows.block(structure, gates)

    def test_block_narrower_than_the_register(self):
        """A block's rows are padded to the register with -1; they used to
        fail at ``Batch`` with a ValueError."""
        rows = GateRows((0, 1, 2), (Gate("X", (0,)), Gate("H", (0,))))
        rows.block(("easy", ((2,),)), np.array([[1], [0]]))
        batch = Batch((0, 1, 2), rows, np.array([[0, 1]]))
        circuit = Circuit((0, 1, 2), (Cycle("easy", (Gate("H", (2,)),)),
                                      Cycle("easy", (Gate("X", (2,)),))))
        assert batch.circuit(0) == circuit
        assert np.array_equal(Executor((0, 1, 2)).probabilities(batch),
                              _probabilities(Executor((0, 1, 2)), [circuit]))


# ---------------------------------------------------------------------------
# Circuits of any structures and lengths in one stack

@st.composite
def mixed_cases(draw):
    """1-8 circuits of 0-8 cycles on a random 1-5-qubit register, drawn from
    a pool of easy cycles (any one-qubit gates on any qubits) and hard
    cycles (one or more CNOTs), and no model or a random one."""
    n = draw(st.integers(1, 5))
    register = tuple(draw(st.permutations(range(n + 2)))[:n])
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        if n >= 2 and draw(st.booleans()):
            order = draw(st.permutations(register))
            gates = [Gate("CNOT", tuple(order[2 * i:2 * i + 2]))
                     for i in range(draw(st.integers(1, n // 2)))]
            pool.append(Cycle("hard", tuple(gates)))
        else:
            qubits = draw(st.lists(st.sampled_from(register), unique=True))
            picks = [draw(st.sampled_from(MONOMIAL_1Q + OTHER_1Q)) for _ in qubits]
            pool.append(Cycle("easy", tuple(Gate(g, (q,), p) for q, (g, p) in zip(qubits, picks))))
    circuits = [Circuit(register, tuple(draw(st.lists(st.sampled_from(pool), max_size=8))))
                for _ in range(draw(st.integers(1, 8)))]
    pairs = sorted({g.qubits for c in pool if c.kind == "hard" for g in c.gates})
    return register, circuits, draw(st.none() | noise_models(register, pairs))


class TestMixedStacks:
    @settings(max_examples=60, deadline=None)
    @given(mixed_cases())
    def test_rows_match_reference(self, case):
        """Every row of one ``_run`` stack, sorted longest first, and of
        stacks of ``CHUNK`` rows whatever the chunk size, is ``reference_run``
        of its circuit, bit for bit, whatever the structures and lengths
        stacked with it."""
        register, circuits, noise = case
        ex = Executor(register, noise)
        reference = [oracles.reference_run(ex, c) for c in circuits]
        for chunk in (1, 3, engine.CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK", chunk)
                got = _run_states(ex, circuits)
            for state, ref in zip(got, reference, strict=True):
                assert type(state) is type(ref)
                assert np.array_equal(_final(state), _final(ref))

    @settings(max_examples=60, deadline=None)
    @given(mixed_cases())
    def test_probabilities_match_reference(self, case):
        """Every outcome row of ``probabilities`` is the reference readout of
        ``reference_run`` of its circuit, in input order, whatever the chunk
        size."""
        register, circuits, noise = case
        ex = Executor(register, noise)
        expected = [oracles.reference_probabilities(ex, oracles.reference_run(ex, c))
                    for c in circuits]
        for chunk in (1, 7, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK", chunk)
                got = _probabilities(ex, circuits)
            assert got.shape == (len(circuits), 2 ** len(register))
            assert np.array_equal(got, expected)

    def test_chunk_boundary_inside_a_length_block(self):
        """Nine circuits of four cycles, five of two and two of none, in
        shuffled input order: with seven per chunk, the first boundary splits
        the four-cycle block and the second chunk straddles two lengths."""
        pool = [
            Cycle("easy", (Gate("H", (0,)), Gate("S", (2,)))),
            Cycle("easy", (Gate("C1", (1,), 12),)),
            Cycle("easy", (Gate("X", (0,)), Gate("Z", (1,)))),
            Cycle("hard", (Gate("CNOT", (0, 1)),)),
            Cycle("hard", (Gate("CNOT", (2, 1)),)),
        ]
        rng = np.random.default_rng(5)
        lengths = rng.permutation([4] * 9 + [2] * 5 + [0] * 2).tolist()
        circuits = [Circuit((0, 1, 2), tuple(pool[k] for k in rng.integers(len(pool), size=n)))
                    for n in lengths]
        noise = NoiseModel(
            t1={0: 40.0, 2: 80.0}, t2={0: 50.0},
            pauli_errors={"single_qubit": {"X": 0.01}, "cnot": {"IY": 0.03}},
            cnot_rotation={"*": ("ZZ", 0.2)},
            readout={1: confusion_from_scalar(0.03)},
            prep_flip={2: 0.02},
        )
        for model in (None, noise):
            ex = Executor((0, 1, 2), model)
            expected = [oracles.reference_probabilities(ex, oracles.reference_run(ex, c))
                        for c in circuits]
            for chunk in (1, 7, 256):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "CHUNK", chunk)
                    assert np.array_equal(_probabilities(ex, circuits), expected)

    def test_mixed_layer_of_new_cycles_of_one_structure(self):
        """A layer of several structures with three new cycles of one of
        them, one repeated, then a layer of those kept cycles and a new one:
        each row still gets its own cycle's unitary."""
        h0, rz0, c0 = (Cycle("easy", (Gate(g, (0,), p),)) for g, p in
                       (("H", None), ("RZ", 0.7), ("C1", 12)))
        h1 = Cycle("easy", (Gate("H", (1,)),))
        cnot = Cycle("hard", (Gate("CNOT", (0, 1)),))
        rows = [(h0, cnot), (rz0, h1), (c0, rz0), (h1, c0), (h0, rz0)]
        circuits = [Circuit((0, 1), cycles) for cycles in rows]
        noise = NoiseModel(cnot_rotation={"*": ("ZZ", 0.1)},
                           pauli_errors={"single_qubit": {"X": 0.01}})
        for model in (None, noise):
            ex = Executor((0, 1), model)
            for state, c in zip(_run_states(ex, circuits), circuits, strict=True):
                assert np.array_equal(_final(state), _final(oracles.reference_run(ex, c)))

    def test_kept_unitaries_live_for_the_whole_call(self, monkeypatch):
        """Every layer of every stack of seven here mixes two structures and
        holds a cycle that is not monomial, so it reads the unitaries kept
        for the call: each cycle's unitary is built once per
        ``probabilities`` call, not once per stack."""
        h0 = Cycle("easy", (Gate("H", (0,)),))
        rz1 = Cycle("easy", (Gate("RZ", (1,), 0.3),))
        cnot = Cycle("hard", (Gate("CNOT", (0, 1)),))
        circuits = [Circuit((0, 1), (h0, cnot, rz1) if i % 2 else (rz1, h0, cnot))
                    for i in range(20)]
        monkeypatch.setattr(engine, "CHUNK", 7)
        stacks = list(_stack_layers(circuits))
        assert len(stacks) == 3
        assert all(len({c.structure for c in layer}) == 2 for stack in stacks for layer in stack)
        built = []
        original = Batch.unitaries
        monkeypatch.setattr(Batch, "unitaries", lambda self, codes: built.extend(
            self.cycle(c) for c in codes) or original(self, codes))
        ex = Executor((0, 1), NoiseModel(pauli_errors={"cnot": {"XZ": 0.03}}))
        expected = [oracles.reference_probabilities(ex, oracles.reference_run(ex, c))
                    for c in circuits]
        for _ in range(2):
            built.clear()
            assert np.array_equal(_probabilities(ex, circuits), expected)
            assert len(built) == 3 and set(built) == {h0, rz1, cnot}


# ---------------------------------------------------------------------------
# Monomial layers: signed permutations instead of matrix products

MONOMIAL_1Q = (("I", None), ("X", None), ("Y", None), ("Z", None), ("S", None),
               ("SDG", None), ("C1", 0), ("C1", 2), ("C1", 5), ("C1", 10))
OTHER_1Q = (("H", None), ("RZ", 0.7), ("C1", 1), ("C1", 12), ("C1", 17), ("C1", 21))


@st.composite
def layer_pool(draw, register):
    """1-4 cycles of one structure: copies of one CNOT cycle, or one-qubit
    gates on the same qubits in the same order, each cycle drawn from the
    monomial gates alone or from all of them, perhaps with a copy of the
    first that is equal but not the same object."""
    if len(register) >= 2 and draw(st.booleans()):
        order = draw(st.permutations(register))
        pairs = [order[2 * i:2 * i + 2] for i in range(draw(st.integers(1, len(order) // 2)))]
        gates = tuple(Gate("CNOT", tuple(p)) for p in pairs)
        return [Cycle("hard", gates) for _ in range(draw(st.integers(1, 3)))]
    qubits = draw(st.lists(st.sampled_from(register), unique=True, min_size=1))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        alphabet = MONOMIAL_1Q if draw(st.booleans()) else MONOMIAL_1Q + OTHER_1Q
        picks = draw(st.lists(st.sampled_from(alphabet), min_size=len(qubits),
                              max_size=len(qubits)))
        pool.append(Cycle("easy", tuple(Gate(name, (q,), param)
                                        for q, (name, param) in zip(qubits, picks))))
    if draw(st.booleans()):
        pool.append(Cycle("easy", pool[0].gates))
    return pool


@st.composite
def layered_cases(draw, dense_only=False):
    """Equally long random circuits on 1-3 qubits whose layers draw their
    cycles from a small pool of one structure: CNOT cycles, or one-qubit
    cycles that are monomial or mix monomial and other gates; with no model,
    a coherent-only model or a density model."""
    n = draw(st.integers(1, 3))
    register = tuple(draw(st.permutations(range(n + 1)))[:n])
    pools = [draw(layer_pool(register)) for _ in range(draw(st.integers(1, 6)))]
    circuits = [
        Circuit(register, tuple(draw(st.sampled_from(pool)) for pool in pools))
        for _ in range(draw(st.integers(1, 12)))
    ]
    kind = "density" if dense_only else draw(st.sampled_from(("none", "coherent", "density")))
    kw: dict = {}
    if kind == "coherent":
        axis = draw(st.sampled_from(("ZZ", "XI", "XY")))
        kw["cnot_rotation"] = {"*": (axis, draw(st.floats(-0.3, 0.3)))}
    elif kind == "density":
        prob = st.floats(0.0, 0.05)
        kw["pauli_errors"] = {
            "cnot": {draw(st.sampled_from(PAIR_LETTERS)): draw(prob)},
            "single_qubit": {draw(st.sampled_from("XYZ")): draw(prob)},
        }
        qubits = draw(st.lists(st.sampled_from(register), unique=True))
        kw["t1"] = {q: draw(st.floats(20.0, 200.0)) for q in qubits}
        kw["t2"] = {
            q: draw(st.floats(10.0, 2 * kw["t1"][q])) for q in qubits if draw(st.booleans())
        }
        kw["durations"] = {"single_qubit": draw(st.floats(0.0, 100.0)),
                           "cnot": draw(st.floats(0.0, 500.0))}
        flipped = draw(st.lists(st.sampled_from(register), unique=True))
        kw["prep_flip"] = {q: draw(prob) for q in flipped}
    if kind != "none" and draw(st.booleans()):
        kw["readout"] = {
            q: confusion_from_scalar(draw(st.floats(0.0, 0.1)))
            for q in draw(st.lists(st.sampled_from(register), unique=True, min_size=1))
        }
    return register, circuits, None if kind == "none" else NoiseModel(**kw)


class TestMonomialLayers:
    @settings(max_examples=60, deadline=None)
    @given(layered_cases())
    def test_states_and_readout_match_reference(self, case):
        register, circuits, noise = case
        ex = Executor(register, noise)
        reference = [oracles.reference_run(ex, c) for c in circuits]
        observable = PauliString("Z" * len(register), -1)
        # stacks of one: from |0...0>, from a pure and a density initial
        # (the density one on a pure executor too) and, through advance, from
        # a state that run returned
        pure = Executor(register).run(circuits[0])
        start = ex.run(circuits[0])
        for c, ref in zip(circuits, reference):
            assert np.array_equal(_final(ex.run(c)), _final(ref))
            for initial in (pure, pure.to_density()):
                got = ex.run(c, initial=initial)
                expected = oracles.reference_run(ex, c, initial)
                assert type(got) is type(expected)
                assert np.array_equal(_final(got), _final(expected))
            stepped = ex.advance(start, c)
            expected = oracles.reference_run(ex, c, start, prepare=False)
            assert type(stepped) is type(expected)
            assert np.array_equal(_final(stepped), _final(expected))
        expected = [oracles.reference_probabilities(ex, ref) for ref in reference]
        for chunk in (1, 5, engine.CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "CHUNK", chunk)
                got = _run_states(ex, circuits)
                probs = _probabilities(ex, circuits)
            for state, ref in zip(got, reference, strict=True):
                assert type(state) is type(ref)
                assert np.array_equal(_final(state), _final(ref))
            assert np.array_equal(probs, expected)
            for shots in (None, 50):
                streams = [sim.rng_from(i) for i in range(len(circuits))]
                points = ex.measured_expectation(probs, [observable] * len(circuits), shots, streams)
                assert list(zip(*points)) == [
                    oracles.measured_expectation(ex, ref, observable, shots, i)
                    for i, ref in enumerate(reference)
                ]

    @pytest.mark.parametrize("twirl", TWIRL_GROUPS)
    def test_monomial_layers_skip_the_matmul(self, twirl, monkeypatch):
        """Pauli-twirl and CNOT layers never look up a cycle unitary; C1-twirl
        layers keep the matmul path.  A stack that straddles two lengths has
        layers that mix the CNOT with the shorter rows' preparations: one that
        also holds a cycle that is not monomial takes the matmul path, so the
        CNOT's unitary is built there, once per call however many stacks
        straddle."""
        noise = NoiseModel(pauli_errors={"cnot": {"XZ": 0.03}}, t1={0: 50.0},
                           durations={"cnot": 100.0})
        target = Cycle("hard", (Gate("CNOT", (0, 1)),))
        coll = make_cb(target, (1, 2, 4), 4, 3, twirl=twirl, seed=2)
        circuits = _circuits(coll)
        ex = Executor(coll.register, noise)
        expected = [oracles.reference_probabilities(ex, oracles.reference_run(ex, c))
                    for c in circuits]
        looked_up = _spy_builds(monkeypatch)
        # stacks that take the matmul path for the CNOT: the default holds all
        # 36 circuits in one stack; 12 cuts the stacks at the length blocks
        # and 7 inside them
        for chunk, stacks in ((engine.CHUNK, 1), (12, 0), (7, 2)):
            monkeypatch.setattr(engine, "CHUNK", chunk)
            looked_up.clear()
            assert np.array_equal(_probabilities(ex, circuits), expected)
            straddling = sum(
                any(target in layer and any(_unit_monomial(_cycle_unitary_cached(
                    c.gates, ex.register)) is None for c in layer) for layer in stack)
                for stack in _stack_layers(circuits)
            )
            assert looked_up.count(target.gates) == min(straddling, 1)
            assert straddling == stacks
            names = {g.name for gates in looked_up if gates != target.gates for g in gates}
            assert "CNOT" not in names
            if twirl == "pauli":
                assert names <= {"C1"}  # preparation and inversion layers only
            else:
                twirl_cycles = {c.cycles[1].gates for c, cc in zip(circuits, coll.circuits) if cc.m}
                assert twirl_cycles <= set(looked_up)

    def test_mixed_layer_of_monomial_cycles_skips_the_matmul(self, monkeypatch):
        """A layer that mixes structures, all of its cycles monomial (a CNOT
        beside one-qubit Pauli and phase cycles), looks up no cycle unitary."""
        cnot = Cycle("hard", (Gate("CNOT", (0, 1)),))
        xs = Cycle("easy", (Gate("X", (0,)), Gate("S", (1,))))
        z = Cycle("easy", (Gate("Z", (1,)),))
        circuits = [Circuit((0, 1), cycles) for cycles in
                    ((xs, cnot, z), (cnot, xs), (z, cnot), (xs,))]
        looked_up = _spy_builds(monkeypatch)
        noise = NoiseModel(pauli_errors={"cnot": {"XZ": 0.03}}, t1={0: 50.0},
                           durations={"cnot": 100.0, "single_qubit": 20.0})
        for model in (None, noise):
            ex = Executor((0, 1), model)
            expected = [oracles.reference_probabilities(ex, oracles.reference_run(ex, c))
                        for c in circuits]
            looked_up.clear()
            assert np.array_equal(_probabilities(ex, circuits), expected)
            assert looked_up == []


def _choi(superop: np.ndarray) -> np.ndarray:
    """Reshuffle a row-major superoperator, S[(i, j), (k, l)], into its Choi
    matrix J[(i, k), (j, l)]."""
    d = int(round(superop.shape[0] ** 0.5))
    return superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _assert_cptp(superop: np.ndarray, atol: float = 1e-9) -> None:
    d = int(round(superop.shape[0] ** 0.5))
    vec_identity = np.eye(d).reshape(-1)
    assert np.max(np.abs(vec_identity @ superop - vec_identity)) <= atol
    choi = _choi(superop)
    assert np.max(np.abs(choi - choi.conj().T)) <= atol
    assert np.linalg.eigvalsh(choi)[0] >= -atol


def test_cptp_check_rejects_transpose():
    """The transpose map preserves trace but is not CP: its Choi matrix is
    the swap, with eigenvalue -1."""
    d = 2
    transpose = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            transpose[i * d + j, j * d + i] = 1.0
    with pytest.raises(AssertionError):
        _assert_cptp(transpose)


@settings(max_examples=30, deadline=None)
@given(layered_cases(dense_only=True))
def test_every_compiled_superop_is_cptp(case):
    register, circuits, noise = case
    ex = Executor(register, noise)
    _probabilities(ex, circuits)
    ex.run(circuits[0])
    for kind, op in ex._ops.values():
        if kind == "kraus":
            _assert_cptp(op)


_THREAD_SCRIPT = """
import hashlib, sys
from cyclebench.bench import execute_collection
import test_engine
for coll, noise in test_engine.thread_probe_cases():
    print(hashlib.sha256(repr(execute_collection(coll, noise, 128)).encode()).hexdigest())
"""


def thread_probe_cases():
    """A 2-qubit depolarizing and a 4-qubit README-noise collection."""
    from cyclebench.circuits import layout_cycles
    from cyclebench.noise import depolarizing_pauli_probs

    readme = NoiseModel(
        t1={6: 67.1, 7: 94.8, 12: 97.5, 11: 95.1},
        t2={6: 99.9, 7: 86.8, 12: 88.5, 11: 71.6},
        readout={q: confusion_from_scalar(e) for q, e in {6: 0.0254, 11: 0.0355}.items()},
        pauli_errors={
            "cnot": {"IX": 0.003, "XI": 0.003, "ZZ": 0.004},
            "cnot:7-12": {"ZZ": 0.02},
            "single_qubit": {"X": 0.0002},
        },
        cnot_rotation={"*": ("ZZ", 0.05)},
        crosstalk=(CrosstalkTerm((6, 7), 12, 0.08),),
        prep_flip={6: 0.01},
    )
    return [
        (make_cb(layout_cycles(1, 2), (2, 10, 22), 8, 16, seed=3),
         NoiseModel(pauli_errors={"cnot": depolarizing_pauli_probs(0.02, 2)})),
        (make_cb(layout_cycles(2, 1), (0, 2, 6), 4, 4, seed=5), readme),
    ]


def test_batched_points_do_not_depend_on_blas_threads():
    expected = [
        hashlib.sha256(
            repr(oracles.reference_execute_collection(coll, noise, 128)).encode()
        ).hexdigest()
        for coll, noise in thread_probe_cases()
    ]
    here = Path(__file__).parent
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)]),
    }
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.split() == expected


_KERNEL_SCRIPT = """
import numpy as np
from cyclebench import engine
from cyclebench.bench import execute_collection, make_cb
from cyclebench.circuits import Cycle, Gate
from cyclebench.noise import NoiseModel, confusion_from_scalar
from cyclebench.sim import readout_distribution

rng = np.random.default_rng(7)
for _ in range(200):
    n, b = int(rng.integers(1, 6)), int(rng.integers(2, 9))
    probs = rng.random((b, 2**n))
    readout = {q: confusion_from_scalar(rng.random() / 10) for q in range(n) if rng.random() < 0.6}
    alone = [readout_distribution(row[None], readout, n)[0] for row in probs]
    print("stack", np.array_equal(readout_distribution(probs, readout, n), alone))
for seed in range(8):
    coll = make_cb(Cycle("easy", (Gate("H", (0,)),)), (1, 2, 4), 8, 3, seed=seed)
    noise = NoiseModel(readout={0: confusion_from_scalar(rng.random() / 10)},
                       pauli_errors={"single_qubit": {"X": 0.01}})
    points = set()
    for chunk in (1, 5, 256):
        engine.CHUNK = chunk
        points.add(repr(execute_collection(coll, noise, None)))
    print("chunk", len(points) == 1)
"""


def test_readout_does_not_depend_on_the_stack_under_an_avx2_kernel():
    """Under the OpenBLAS kernel that AVX2-only CPUs pick, a row's readout
    is what it is alone, and analytic points do not depend on ``CHUNK``; a
    BLAS that ignores ``OPENBLAS_CORETYPE`` runs the check on its own kernel."""
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
    }
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    lines = out.stdout.split("\n")[:-1]
    assert lines == ["stack True"] * 200 + ["chunk True"] * 8
