import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench.pauli import PauliString
from cyclebench.sim import (
    DensityMatrix,
    KrausChannel,
    SimulationError,
    StateVector,
    embed_operator,
    expectation_pauli,
    Streams,
    rng_from,
    sample_counts,
    stream_keys,
)

import oracles
from oracles import equal_up_to_phase


X = oracles.PAULI_1Q["X"]
H = oracles.H_MAT
CNOT = oracles.CNOT_MAT


def bits_of(state: StateVector) -> str:
    idx = int(np.argmax(np.abs(state.amplitudes)))
    return format(idx, f"0{state.n_qubits}b")


class TestApplyUnitary:
    def test_x_on_qubit0_is_leftmost(self):
        out = oracles.apply_unitary(StateVector.zero(2), X, (0,))
        assert bits_of(out) == "10"

    def test_cnot_control_unset(self):
        out = oracles.apply_unitary(StateVector.zero(2), CNOT, (0, 1))
        assert bits_of(out) == "00"

    def test_cnot_control_set(self):
        out = oracles.apply_unitary(StateVector.from_bits("10"), CNOT, (0, 1))
        assert bits_of(out) == "11"

    def test_density_route_matches(self):
        rho = oracles.apply_unitary(StateVector.from_bits("10").to_density(), CNOT, (0, 1))
        assert rho.entries[3, 3] == pytest.approx(1.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(SimulationError):
            oracles.apply_unitary(StateVector.zero(1), np.array([[1, 0], [0, 2.0]]), (0,))

    def test_rejects_duplicate_targets(self):
        with pytest.raises(SimulationError):
            oracles.apply_unitary(StateVector.zero(2), CNOT, (0, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(SimulationError):
            oracles.apply_unitary(StateVector.zero(2), X, (2,))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(SimulationError):
            oracles.apply_unitary(StateVector.zero(2), X, (0, 1))


def amplitude_damping(gamma: float) -> KrausChannel:
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1))


class TestApplyChannel:
    def test_identity_channel_is_noop(self):
        rho = StateVector.from_bits("01").to_density()
        out = oracles.apply_channel(rho, oracles.identity_channel(1), (1,))
        assert np.allclose(out.entries, rho.entries)

    def test_full_damping_fixed_point(self):
        rho = StateVector.zero(1).to_density()
        out = oracles.apply_channel(rho, amplitude_damping(1.0), (0,))
        assert np.allclose(out.entries, rho.entries, atol=1e-12)

    def test_half_damping_from_excited(self):
        rho = StateVector.from_bits("1").to_density()
        out = oracles.apply_channel(rho, amplitude_damping(0.5), (0,))
        assert np.allclose(out.entries, np.diag([0.5, 0.5]), atol=1e-12)

    def test_invalid_channel_rejected(self):
        bad = KrausChannel((np.array([[1, 0], [0, 0.5]], dtype=complex),))
        with pytest.raises(SimulationError):
            oracles.apply_channel(StateVector.zero(1).to_density(), bad, (0,))

    def test_arity_mismatch(self):
        with pytest.raises(SimulationError):
            oracles.apply_channel(StateVector.zero(2).to_density(), amplitude_damping(0.2), (0, 1))


class TestExpectation:
    def test_zz_on_00(self):
        assert expectation_pauli(StateVector.zero(2), PauliString("ZZ")) == pytest.approx(1.0)

    def test_x_on_plus(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        assert expectation_pauli(plus, PauliString("X")) == pytest.approx(1.0)

    def test_xx_on_bell(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert expectation_pauli(bell, PauliString("XX")) == pytest.approx(1.0)
        assert expectation_pauli(bell.to_density(), PauliString("XX")) == pytest.approx(1.0)

    def test_sign_carried(self):
        assert expectation_pauli(StateVector.zero(1), PauliString("Z", -1)) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(SimulationError):
            expectation_pauli(StateVector.zero(2), PauliString("Z"))


class TestSampling:
    def test_ground_state_all_zero(self):
        counts = sample_counts(StateVector.zero(1), None, 128, 7)
        assert counts == {"0": 128}

    def test_plus_state_binomial(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        counts = sample_counts(plus, None, 100_000, 3)
        frac = counts["0"] / 100_000
        assert abs(frac - 0.5) < 0.01  # 6 sigma of a fair binomial

    def test_readout_confusion_rate(self):
        conf = np.array([[1 - 0.0254, 0.0254], [0.0254, 1 - 0.0254]])
        counts = sample_counts(StateVector.zero(1), {0: conf}, 100_000, 5)
        assert abs(counts.get("1", 0) / 100_000 - 0.0254) < 0.002

    def test_deterministic_given_seed(self):
        plus = StateVector(np.array([1, 1]) / np.sqrt(2))
        conf = {0: np.array([[0.98, 0.02], [0.03, 0.97]])}
        a = sample_counts(plus, conf, 500, 42)
        b = sample_counts(plus, conf, 500, 42)
        assert a == b
        c = sample_counts(plus, conf, 500, 43)
        assert a != c

    def test_counts_sum_to_shots(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        counts = sample_counts(bell, None, 999, 1)
        assert sum(counts.values()) == 999

    def test_rejects_bad_confusion(self):
        bad = {0: np.array([[0.9, 0.2], [0.1, 0.9]])}
        with pytest.raises(SimulationError):
            sample_counts(StateVector.zero(1), bad, 10, 0)

    def test_rejects_nan_confusion(self):
        bad = {0: np.array([[np.nan, 0.1], [0.1, 0.9]])}
        with pytest.raises(SimulationError):
            sample_counts(StateVector.zero(1), bad, 10, 0)

    def test_rejects_zero_shots(self):
        with pytest.raises(SimulationError):
            sample_counts(StateVector.zero(1), None, 0, 0)


class TestValidation:
    def test_statevector_norm(self):
        with pytest.raises(SimulationError):
            StateVector(np.array([1.0, 1.0])).validate()

    def test_density_checks(self):
        with pytest.raises(SimulationError):
            DensityMatrix(np.array([[0.5, 0.3], [0.2, 0.5]])).validate()
        with pytest.raises(SimulationError):
            DensityMatrix(np.diag([0.7, 0.7])).validate()
        with pytest.raises(SimulationError):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]])).validate()

    def test_channel_trace_preservation(self):
        with pytest.raises(SimulationError):
            KrausChannel((np.eye(2) * 0.9,)).validate()


def random_unitary(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
def test_norm_and_trace_preserved_through_random_circuits(seed, n):
    """Random 40-cycle circuits keep norms and traces within 1e-8."""
    rng = np.random.default_rng(seed)
    psi = StateVector.zero(n)
    rho = psi.to_density()
    for _ in range(40):
        k = int(rng.integers(1, 3))
        targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
        gate = random_unitary(rng, 2**k)
        psi = oracles.apply_unitary(psi, gate, targets)
        rho = oracles.apply_unitary(rho, gate, targets)
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-8
    assert abs(np.trace(rho.entries).real - 1) < 1e-8
    # noiseless density path tracks the pure-state outer product
    assert np.max(np.abs(rho.entries - np.outer(psi.amplitudes, psi.amplitudes.conj()))) < 1e-8


def test_embed_operator_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 2) + 1))
        targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
        gate = random_unitary(rng, 2**k)
        assert np.array_equal(embed_operator(gate, targets, n), oracles.embed(gate, targets, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(1, n), st.integers(0, 2**32 - 1))))
def test_embed_operator_places_every_entry(case):
    """Any arity on any targets in any order: the oracle's projector sum,
    entry for entry."""
    n, order, k, seed = case
    targets = tuple(order[:k])
    rng = np.random.default_rng(seed)
    op = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    assert np.array_equal(embed_operator(op, targets, n), oracles.embed(op, targets, n))


class TestPhaseComparison:
    def test_equal_up_to_phase(self):
        u = random_unitary(np.random.default_rng(0), 4)
        assert equal_up_to_phase(u, np.exp(1j * 0.7) * u)
        assert not equal_up_to_phase(u, oracles.CNOT_MAT @ u)

    def test_shape_mismatch(self):
        assert not equal_up_to_phase(np.eye(2), np.eye(4))


def test_rng_streams_are_independent_and_stable():
    a = rng_from(1, "x", 0).integers(0, 2**32, size=4)
    b = rng_from(1, "x", 0).integers(0, 2**32, size=4)
    c = rng_from(1, "x", 1).integers(0, 2**32, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Collection-wide streams: every key and draw equals rng_from's

path_elements = st.one_of(
    st.text(max_size=8),
    st.integers(-(2**70), 2**70),
)


def spawn_key(path):
    return tuple(zlib.crc32(p.encode()) if isinstance(p, str) else p & 0xFFFFFFFF for p in path)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**200 - 1),
    st.integers(0, 5).flatmap(
        lambda k: st.lists(st.tuples(*[path_elements] * k), min_size=1, max_size=6)
    ),
)
def test_stream_keys_equal_seed_sequence_state(seed, paths):
    keys = stream_keys(seed, iter(paths))
    assert keys.shape == (len(paths), 2) and keys.dtype == np.uint64
    for key, path in zip(keys, paths):
        ss = np.random.SeedSequence(seed, spawn_key=spawn_key(path))
        assert np.array_equal(key, ss.generate_state(2, np.uint64))
        assert np.array_equal(key, rng_from(seed, *path).bit_generator.state["state"]["key"])


def test_stream_keys_reject_what_rng_from_rejects():
    with pytest.raises(ValueError) as ours:
        stream_keys(-1, [("x", 0)])
    with pytest.raises(ValueError) as reference:
        rng_from(-1, "x", 0)
    assert str(ours.value) == str(reference.value)
    with pytest.raises(ValueError, match="equally long"):
        stream_keys(3, [("x", 0), ("x",)])
    assert stream_keys(3, []).shape == (0, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64),
    st.lists(st.tuples(st.sampled_from(["twirl", "exec"]), st.integers(-5, 2**40)),
             min_size=2, max_size=8),
    st.integers(1, 7),
)
def test_rekeyed_draws_equal_fresh_streams(seed, paths, odd_words):
    streams = Streams(seed, paths)
    assert len(streams) == len(paths)
    for i, path in enumerate(paths):
        rng = streams[i]
        fresh = rng_from(seed, *path)
        assert np.array_equal(rng.integers(0, 4, size=(3, 2)), fresh.integers(0, 4, size=(3, 2)))
        assert np.array_equal(rng.integers(0, 24, size=5), fresh.integers(0, 24, size=5))
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        assert np.array_equal(rng.multinomial(97, probs), fresh.multinomial(97, probs))
        assert np.array_equal(rng.random(odd_words), fresh.random(odd_words))
        # leave half a 64-bit word cached (each draw below takes one 32-bit
        # word) and Philox's 4-word block part-used (each random() takes one
        # 64-bit word): the next stream must see neither
        rng.integers(0, 4, size=2 * odd_words - 1)
        if rng.bit_generator.state["has_uint32"] == 0:
            rng.integers(0, 4)
        rng.random()
        if rng.bit_generator.state["buffer_pos"] == 4:
            rng.random()
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rng.bit_generator.state["buffer_pos"] < 4
    # a second pass over the same streams repeats them
    for i, path in enumerate(paths):
        assert np.array_equal(
            streams[i].integers(0, 24, size=9), rng_from(seed, *path).integers(0, 24, size=9)
        )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**200),
    st.lists(st.tuples(st.sampled_from(["twirl", "rb"]), st.integers(0, 2**40)),
             min_size=1, max_size=6),
    st.data(),
    st.sampled_from([1, 2, 3, 4, 24, 11520, 2**31 + 1, 2**32]),
    st.integers(0, 70),
)
def test_integers_equal_per_stream_draws(seed, paths, data, high, count):
    """One Philox/Lemire pass equals each stream's own draw; at 2**31 + 1
    about half of all words fall in Lemire's rejection zone."""
    streams = Streams(seed, paths)
    # repeated, permuted or a subset
    rows = data.draw(st.lists(st.integers(0, len(paths) - 1), max_size=8))
    got = streams.integers(rows, high, count)
    assert got.shape == (len(rows), count) and got.dtype == np.int64
    for row, i in zip(got, rows):
        assert np.array_equal(row, rng_from(seed, *paths[i]).integers(0, high, size=count))


@pytest.mark.parametrize("high", [0, -3, 2**32 + 1])
def test_integers_reject_high_outside_32_bits(high):
    with pytest.raises(ValueError, match="high"):
        Streams(1, [("x",)]).integers([0], high, 3)
