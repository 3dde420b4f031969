import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench import pauli as pl
from cyclebench.circuits import Cycle, Gate, cycle_frame_table, propagate_pauli
from cyclebench.pauli import NonCliffordGateError, PauliString, conjugate_gate

import oracles


def dense_gate(name, positions, n, param=None):
    if name == "CNOT":
        # embed control-first; oracles.embed takes targets in the given order
        base = oracles.CNOT_MAT
        targets = positions
    elif name == "C1":
        base = pl.c1_element(param).matrix
        targets = positions
    else:
        base = {"H": oracles.H_MAT, "S": oracles.S_MAT,
                "SDG": oracles.S_MAT.conj().T, "I": oracles.I2,
                "X": oracles.PAULI_1Q["X"], "Y": oracles.PAULI_1Q["Y"],
                "Z": oracles.PAULI_1Q["Z"]}[name]
        targets = positions
    return oracles.embed(base, targets, n)


def assert_matches_dense(p, name, positions, n, param=None):
    got = conjugate_gate(p, name, positions, param)
    u = dense_gate(name, positions, n, param)
    expected = u @ p.to_matrix() @ u.conj().T
    assert np.allclose(got.to_matrix(), expected, atol=1e-12), (
        f"{name}{positions}: {p} -> {got}"
    )


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("XQ")
    with pytest.raises(ValueError):
        PauliString("X", sign=2)
    with pytest.raises(ValueError):
        PauliString("")
    assert PauliString.parse("-XZ") == PauliString("XZ", -1)
    assert str(PauliString("XZ", -1)) == "-XZ"
    assert PauliString("IXI").support == (1,)
    assert PauliString("III").is_identity


def test_commutation():
    assert PauliString("XX").commutes_with(PauliString("ZZ"))
    assert not PauliString("XI").commutes_with(PauliString("ZI"))
    with pytest.raises(ValueError):
        PauliString("X").commutes_with(PauliString("XX"))


def test_cnot_textbook_conjugations():
    assert conjugate_gate(PauliString("XI"), "CNOT", (0, 1)) == PauliString("XX")
    assert conjugate_gate(PauliString("IZ"), "CNOT", (0, 1)) == PauliString("ZZ")
    assert conjugate_gate(PauliString("XZ"), "CNOT", (0, 1)) == PauliString("YY", -1)


def test_single_qubit_tables_vs_dense():
    for name in ("I", "H", "S", "SDG", "X", "Y", "Z"):
        for letter in "IXYZ":
            for sign in (1, -1):
                assert_matches_dense(PauliString(letter, sign), name, (0,), 1)


def test_cnot_table_vs_dense_all_16():
    for a in "IXYZ":
        for b in "IXYZ":
            assert_matches_dense(PauliString(a + b), "CNOT", (0, 1), 2)
    # reversed orientation through position mapping
    for a in "IXYZ":
        for b in "IXYZ":
            assert_matches_dense(PauliString(a + b), "CNOT", (1, 0), 2)


def test_c1_table_has_24_distinct_elements():
    assert pl.c1_count() == 24
    mats = [pl.c1_element(i).matrix for i in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            ratio = mats[i] @ mats[j].conj().T
            # distinct up to global phase
            off = ratio - np.trace(ratio) / 2 * np.eye(2)
            distinct = np.max(np.abs(off)) > 1e-9 or abs(abs(np.trace(ratio) / 2) - 1) > 1e-9
            assert distinct, f"C1 elements {i} and {j} coincide"


def test_c1_conj_maps_vs_dense():
    rng = np.random.default_rng(7)
    for _ in range(200):
        idx = int(rng.integers(0, 24))
        letter = "IXYZ"[rng.integers(0, 4)]
        assert_matches_dense(PauliString(letter), "C1", (0,), 1, param=idx)


def test_c1_inverse_indices():
    for i in range(24):
        inv = pl.c1_element(i).inverse
        prod = pl.c1_element(inv).matrix @ pl.c1_element(i).matrix
        phase = prod[0, 0] if abs(prod[0, 0]) > 0.5 else prod[0, 1]
        assert np.allclose(prod, phase * np.eye(2), atol=1e-12)


def test_c1_prep_and_measure_elements():
    for letter in "XYZ":
        prep = pl.c1_element(pl.c1_preparing(letter))
        state = prep.matrix @ np.array([1, 0], dtype=complex)
        val = np.vdot(state, oracles.PAULI_1Q[letter] @ state).real
        assert val == pytest.approx(1.0, abs=1e-12)
        meas = pl.c1_element(pl.c1_measuring(letter))
        assert meas.conj[letter] == ("Z", 1)


def test_non_clifford_gate_rejected():
    with pytest.raises(NonCliffordGateError):
        conjugate_gate(PauliString("X"), "RZ", (0,), 0.3)


def test_random_cycles_vs_dense_oracle():
    """Mixed 3-qubit Clifford cycles against dense conjugation, 200 trials."""
    rng = np.random.default_rng(123)
    n = 3
    singles = ("I", "H", "S", "SDG", "X", "Y", "Z")
    for _ in range(200):
        letters = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=n))
        p = PauliString(letters, int(rng.choice([1, -1])))
        expected = p.to_matrix()
        got = p
        for _ in range(rng.integers(1, 6)):
            if rng.random() < 0.4:
                a, b = rng.choice(n, size=2, replace=False)
                name, positions, param = "CNOT", (int(a), int(b)), None
            elif rng.random() < 0.5:
                name = str(rng.choice(singles))
                positions, param = (int(rng.integers(0, n)),), None
            else:
                name, positions = "C1", (int(rng.integers(0, n)),)
                param = int(rng.integers(0, 24))
            got = conjugate_gate(got, name, positions, param)
            u = dense_gate(name, positions, n, param)
            expected = u @ expected @ u.conj().T
        assert np.allclose(got.to_matrix(), expected, atol=1e-10)


def test_conjugation_is_group_action_on_products():
    """C (P Q) C^dag = (C P C^dag)(C Q C^dag), checked densely."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        pa = PauliString("".join("IXYZ"[i] for i in rng.integers(0, 4, size=2)))
        pb = PauliString("".join("IXYZ"[i] for i in rng.integers(0, 4, size=2)))
        word = []
        for _ in range(4):
            if rng.random() < 0.5:
                word.append(("CNOT", (0, 1), None))
            else:
                word.append((str(rng.choice(("H", "S"))), (int(rng.integers(0, 2)),), None))
        ca, cb = pa, pb
        u = np.eye(4, dtype=complex)
        for name, positions, param in word:
            ca = conjugate_gate(ca, name, positions, param)
            cb = conjugate_gate(cb, name, positions, param)
            u = dense_gate(name, positions, 2, param) @ u
        lhs = u @ (pa.to_matrix() @ pb.to_matrix()) @ u.conj().T
        rhs = ca.to_matrix() @ cb.to_matrix()
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_clifford_group_sizes():
    assert pl.clifford_count(1) == 24
    assert pl.clifford_count(2) == 11520
    with pytest.raises(ValueError):
        pl.clifford_group(3)


def test_clifford_inverse_word_composes_to_identity():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        size = pl.clifford_count(n)
        for _ in range(10):
            gates = []
            for _ in range(int(rng.integers(1, 5))):
                word = pl.clifford_word(n, int(rng.integers(0, size)))
                for name, *pos in word:
                    gates.append((name, tuple(pos), None))
            inv = pl.clifford_inverse_word(n, gates)
            total = gates + [(name, tuple(pos), None) for name, *pos in inv]
            for gen in oracles.reference_generator_paulis(n):
                out = gen
                for name, pos, param in total:
                    out = conjugate_gate(out, name, pos, param)
                assert out == gen


def test_clifford_group_words_match_string_reference():
    for n in (1, 2):
        words, _ = pl.clifford_group(n)
        ref_words, _ = oracles.reference_clifford_group(n)
        assert words == ref_words


def test_clifford_inverse_word_matches_string_reference():
    """Random sequences mixing group words with C1, SDG and Pauli gates."""
    rng = np.random.default_rng(29)
    extras = ("SDG", "X", "Y", "Z", "I", "H", "S")
    for n in (1, 2):
        group = oracles.reference_clifford_group(n)
        size = pl.clifford_count(n)
        for _ in range(40):
            gates = []
            for _ in range(int(rng.integers(0, 7))):
                roll = rng.random()
                q = int(rng.integers(0, n))
                if roll < 0.3:
                    gates.append(("C1", (q,), int(rng.integers(0, 24))))
                elif roll < 0.6:
                    gates.append((str(rng.choice(extras)), (q,), None))
                else:
                    word = pl.clifford_word(n, int(rng.integers(0, size)))
                    gates.extend((name, tuple(pos), None) for name, *pos in word)
            assert pl.clifford_inverse_word(n, gates) == oracles.reference_clifford_inverse_word(
                n, gates, group
            )


def test_pauli_index_follows_letter_order():
    for n in (1, 2, 3):
        letters = pl.all_pauli_letters(n, include_identity=True)
        assert [pl.pauli_index(s) for s in letters] == list(range(4**n))
        assert [pl.pauli_letters(i, n) for i in range(4**n)] == letters
    assert not pl.index_letters(2).flags.writeable
    assert not pl.gate_table("CNOT", (0, 1), 2).image.flags.writeable


def test_gate_table_rejects_non_clifford():
    with pytest.raises(NonCliffordGateError):
        pl.gate_table("RZ", (0,), 1, 0.3)


_SINGLES = ("I", "X", "Y", "Z", "H", "S", "SDG", "C1")


@st.composite
def clifford_cycles(draw):
    """A register of 2-5 labels and a few random hard (CNOT pairing) and
    easy (C1/H/S/SDG/Pauli) cycles on it."""
    n = draw(st.integers(2, 5))
    register = tuple(draw(st.permutations(range(10, 10 + n))))
    cycles = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(register))
        if draw(st.booleans()):
            pairs = draw(st.integers(1, n // 2))
            gates = tuple(Gate("CNOT", (order[2 * i], order[2 * i + 1])) for i in range(pairs))
            cycles.append(Cycle("hard", gates))
        else:
            gates = []
            for q in order[: draw(st.integers(1, n))]:
                name = draw(st.sampled_from(_SINGLES))
                param = draw(st.integers(0, 23)) if name == "C1" else None
                gates.append(Gate(name, (q,), param))
            cycles.append(Cycle("easy", tuple(gates)))
    return register, cycles


@settings(max_examples=40, deadline=None)
@given(clifford_cycles())
def test_frame_tables_match_propagation(case):
    """Per cycle and composed: every index's image and sign equals
    propagate_pauli, and for n <= 3 the dense U P U^dagger."""
    register, cycles = case
    n = len(register)
    tables = [cycle_frame_table(c, register) for c in cycles]
    total = tables[0]
    for t in tables[1:]:
        total = total.then(t)
    dense = None
    if n <= 3:
        dense = np.eye(2**n, dtype=complex)
        for cyc in cycles:
            for g in cyc.gates:
                pos = tuple(register.index(q) for q in g.qubits)
                dense = dense_gate(g.name, pos, n, g.param) @ dense
    for i, letters in enumerate(pl.all_pauli_letters(n, include_identity=True)):
        p = PauliString(letters)
        for cyc, table in zip(cycles, tables):
            out = propagate_pauli(cyc, p, register)
            assert (pl.pauli_letters(int(table.image[i]), n), int(table.sign[i])) == (
                out.letters, out.sign
            )
        out = p
        for cyc in cycles:
            out = propagate_pauli(cyc, out, register)
        got = PauliString(pl.pauli_letters(int(total.image[i]), n), int(total.sign[i]))
        assert got == out
        if dense is not None:
            expected = dense @ p.to_matrix() @ dense.conj().T
            assert np.allclose(got.to_matrix(), expected, atol=1e-12)
