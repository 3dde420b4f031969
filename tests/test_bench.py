import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench import bench, engine
from cyclebench import pauli as pl
from cyclebench.bench import (
    DecayFit,
    DecayPoint,
    FitError,
    ProtocolError,
    estimate_process_infidelity,
    execute_collection,
    fit_all_decays,
    fit_decay,
    make_cb,
    rb_to_process_infidelity,
    run_rb,
)
from cyclebench.circuits import (
    CircuitError, Cycle, Gate, layout_cycles, propagate_pauli,
)
from cyclebench.noise import (
    CrosstalkTerm, NoiseModel, confusion_from_scalar, depolarizing_pauli_probs,
)
from cyclebench.pauli import PauliString
from cyclebench.sim import rng_from

import oracles

CNOT01 = layout_cycles(1, 2)


def _derived(coll):
    """The circuits that a collection's batch derives from its gate rows."""
    return [coll.batch.circuit(k) for k in range(len(coll.batch))]


class TestMakeCb:
    def test_collection_shape_and_metadata(self):
        coll = make_cb(CNOT01, (2, 10, 22), 48, 16, seed=3)
        assert coll.n_decays == 15  # clamped to the 4^2 - 1 non-identity terms
        assert len(coll.circuits) == 15 * 3 * 48
        per_decay = {}
        for cc in coll.circuits:
            per_decay.setdefault((cc.prepared.letters, cc.m), 0)
            per_decay[(cc.prepared.letters, cc.m)] += 1
        assert set(per_decay.values()) == {48}
        ms = {cc.m for cc in coll.circuits}
        assert ms == {2, 10, 22}
        # a length-m body holds m twirl cycles and m hard cycles plus prep/inversion
        for cc in coll.circuits:
            assert len(coll.batch.circuit(cc.index).cycles) == 2 * cc.m + 2

    def test_noiseless_execution_returns_plus_one(self):
        coll = make_cb(CNOT01, (2, 4, 6), 4, 5, seed=7)
        points = execute_collection(coll, None, shots=None)
        assert all(abs(p.expectation - 1.0) < 1e-9 for p in points)

    def test_noiseless_sampled_execution_exactly_one(self):
        coll = make_cb(CNOT01, (2, 4, 6), 3, 4, seed=1)
        points = execute_collection(coll, None, shots=64)
        assert all(p.expectation == 1.0 for p in points)
        assert all(p.shot_error == 0.0 for p in points)

    def test_c1_twirl_same_counts_different_gates(self):
        a = make_cb(CNOT01, (2, 4, 6), 5, 6, twirl="pauli", seed=9)
        b = make_cb(CNOT01, (2, 4, 6), 5, 6, twirl="c1", seed=9)
        assert len(a.circuits) == len(b.circuits)
        assert [cc.m for cc in a.circuits] == [cc.m for cc in b.circuits]
        assert any(a.batch.circuit(k) != b.batch.circuit(k) for k in range(len(a.circuits)))
        names_b = {g.name for code in range(len(b.batch.structure))
                   for g in b.batch.cycle(code).gates}
        assert "C1" in names_b

    def test_c1_twirl_noiseless_self_inverting(self):
        coll = make_cb(CNOT01, (2, 4, 6), 3, 4, twirl="c1", seed=5)
        points = execute_collection(coll, None, shots=None)
        assert all(abs(p.expectation - 1.0) < 1e-9 for p in points)

    def test_generation_is_deterministic(self):
        a = make_cb(CNOT01, (2, 10, 22), 6, 6, seed=42)
        b = make_cb(CNOT01, (2, 10, 22), 6, 6, seed=42)
        assert a == b

    def test_rejects_non_clifford_cycle(self):
        bad = Cycle("easy", (Gate("RZ", (0,), 0.1),))
        with pytest.raises(ProtocolError):
            make_cb(bad, (2, 4, 6), 4, 4)

    def test_rejects_short_m_list(self):
        with pytest.raises(ProtocolError):
            make_cb(CNOT01, (2, 10), 4, 4)

    def test_twirl_group_name_checked(self):
        with pytest.raises(ProtocolError):
            make_cb(CNOT01, (2, 4, 6), 4, 4, twirl="clifford2")

    @pytest.mark.parametrize(
        "m_list, n_random, n_decays",
        [((2, 10, -3), 4, 4), ((2, 4, 6), 0, 4), ((2, 4, 6), 4, 0)],
    )
    def test_rejects_negative_length_and_empty_counts(self, m_list, n_random, n_decays):
        with pytest.raises(ProtocolError):
            make_cb(CNOT01, m_list, n_random, n_decays)

    @pytest.mark.parametrize("n_decays", [2.5, 2.0, True, "3"])
    def test_rejects_non_integer_n_decays_at_entry(self, n_decays):
        with pytest.raises(ProtocolError, match="n_decays must be an integer"):
            make_cb(CNOT01, (2, 4, 6), 4, n_decays)

    def test_accepts_numpy_integer_n_decays(self):
        assert make_cb(CNOT01, (2, 4, 6), 2, np.int64(3), seed=1) == make_cb(
            CNOT01, (2, 4, 6), 2, 3, seed=1
        )

    def test_numpy_lengths_are_stored_as_python_ints(self):
        """A numpy ``m_list`` used to leave ``np.int64`` lengths in the
        collection and in every point, whose repr then read ``np.int64(2)``."""
        coll = make_cb(CNOT01, np.array([1, 2, 3]), 2, 2, seed=1)
        assert coll == make_cb(CNOT01, (1, 2, 3), 2, 2, seed=1)
        assert coll.m_list == (1, 2, 3) and all(type(m) is int for m in coll.m_list)
        assert all(type(cc.m) is int and type(cc.index) is int for cc in coll.circuits)
        for shots in (None, 16):
            points = execute_collection(coll, None, shots)
            assert all(list(map(type, p)) == [str, int, int, float, float] for p in points)
            assert "np." not in repr(points)

    def test_rejects_cnot_on_one_qubit(self):
        """Such a cycle used to give a collection on the register (0,)."""
        with pytest.raises(CircuitError, match="CNOT takes two distinct qubits"):
            make_cb(Cycle("hard", (Gate("CNOT", (0, 0)),)), (2, 4, 6), 4, 4)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_rejects_bad_seed_at_entry(self, seed):
        with pytest.raises(ProtocolError, match="seed must be"):
            make_cb(CNOT01, (2, 4, 6), 2, 2, seed=seed)

    def test_rejects_register_above_max_qubits(self):
        with pytest.raises(ProtocolError):
            make_cb(CNOT01, (2, 4, 6), 4, 4, register=tuple(range(6)))

    def test_rejects_cycle_outside_register(self):
        with pytest.raises(CircuitError, match=r"cycle uses qubits \[3\] outside register"):
            make_cb(Cycle("hard", (Gate("CNOT", (1, 3)),)), (2, 4, 6), 4, 4, register=(0, 1, 2))
        with pytest.raises(CircuitError, match="register labels must be distinct"):
            make_cb(CNOT01, (2, 4, 6), 4, 4, register=(0, 1, 1))

    @pytest.mark.parametrize("twirl", ["pauli", "c1"])
    @pytest.mark.parametrize(
        "cycle, register",
        [
            (CNOT01, None),
            (Cycle("hard", (Gate("CNOT", (1, 0)),)), (0, 1, 2)),
            (layout_cycles(2, 1), None),
            (layout_cycles(2, 3), (6, 7, 12, 11)),
            (Cycle("hard", (Gate("CNOT", (0, 1)), Gate("CNOT", (4, 3)))), (0, 1, 2, 3, 4)),
            (Cycle("easy", (Gate("H", (2,)), Gate("S", (0,)))), (0, 1, 2)),
        ],
    )
    def test_matches_string_reference(self, cycle, register, twirl):
        """Circuit for circuit equal to the PauliString loop it replaced, on
        registers of 2-5 qubits with and without spectators."""
        for seed, n_random in ((0, 3), (1, 3), (2, 3), (3, 1)):
            args = (cycle, (0, 1, 3, 5), n_random, 4)
            got = make_cb(*args, twirl=twirl, seed=seed, register=register)
            ref, circuits = oracles.reference_make_cb(*args, twirl=twirl, seed=seed,
                                                      register=register)
            assert got == ref
            assert _derived(got) == circuits

    @pytest.mark.parametrize("twirl", ["pauli", "c1"])
    def test_cb2q_shape_matches_string_reference(self, twirl):
        """The benchmark's two-qubit shape (every decay term, three lengths
        up to 22), with fewer circuits per length."""
        args = (CNOT01, (2, 10, 22), 6, 16)
        got = make_cb(*args, twirl=twirl, seed=11)
        ref, circuits = oracles.reference_make_cb(*args, twirl=twirl, seed=11)
        assert got == ref
        assert _derived(got) == circuits

    def test_rejects_repeated_length(self):
        """A repeat would build each of its circuits twice from one stream."""
        with pytest.raises(ProtocolError, match="repeats a sequence length"):
            make_cb(CNOT01, (2, 2, 10, 22), 4, 4)

    @pytest.mark.parametrize("alphabet", [4, 24])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_draw_per_stream_equals_per_cycle_draws(self, alphabet, n):
        """make_cb draws a stream's twirls as one (m, n) array; the string
        loop drew m arrays of n.  Both must read the same values."""
        for j in range(40):
            m = 1 + j % 23
            whole = rng_from(j, "twirl", n, alphabet).integers(0, alphabet, size=(m, n))
            rng = rng_from(j, "twirl", n, alphabet)
            rows = [rng.integers(0, alphabet, size=n) for _ in range(m)]
            assert np.array_equal(whole, np.array(rows))


class TestExecuteCollection:
    def test_depolarizing_analytic_decay(self):
        """Infinite-shot path: every decay is exactly (1 - lam)^m."""
        lam = 0.02
        noise = NoiseModel(pauli_errors={"cnot": depolarizing_pauli_probs(lam, 2)})
        coll = make_cb(CNOT01, (2, 10, 22), 3, 15, seed=2)
        points = execute_collection(coll, noise, shots=None)
        for p in points:
            assert p.expectation == pytest.approx((1 - lam) ** p.m, abs=1e-12)

    def test_c1_twirl_depolarizing_analytic_decay(self):
        """Uniform fidelities make the decay orbit-independent, so the C1
        twirl must reproduce the same exact exponential."""
        lam = 0.03
        noise = NoiseModel(pauli_errors={"cnot": depolarizing_pauli_probs(lam, 2)})
        coll = make_cb(CNOT01, (2, 10, 22), 4, 8, twirl="c1", seed=12)
        for p in execute_collection(coll, noise, shots=None):
            assert p.expectation == pytest.approx((1 - lam) ** p.m, abs=1e-12)

    def test_seeded_run_reproducible(self):
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.03}})
        coll = make_cb(CNOT01, (2, 4, 8), 4, 5, seed=21)
        a = execute_collection(coll, noise, shots=128)
        b = execute_collection(coll, noise, shots=128)
        assert a == b

    def test_shot_error_formula(self):
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.1}})
        coll = make_cb(CNOT01, (2, 4, 8), 2, 3, seed=8)
        for p in execute_collection(coll, noise, shots=100):
            assert p.shot_error == pytest.approx(
                math.sqrt((1 - p.expectation**2) / 100)
            )

    def test_rejects_bad_shots(self):
        coll = make_cb(CNOT01, (2, 4, 8), 2, 3, seed=8)
        with pytest.raises(ProtocolError):
            execute_collection(coll, None, shots=0)

    @pytest.mark.parametrize("shots", [2.5, 8.0, True, np.bool_(True), "8"],
                             ids=["float", "integral-float", "bool", "numpy-bool", "str"])
    def test_rejects_non_integer_shots_at_entry(self, shots):
        """A float would scale the counts by the wrong total (2.5 shots read
        a noiseless point as 0.8), and True would run one shot."""
        coll = make_cb(CNOT01, (2, 4, 8), 2, 2, seed=1)
        with pytest.raises(ProtocolError, match="shots must be an integer"):
            execute_collection(coll, None, shots)

    def test_accepts_numpy_integer_shots(self):
        noise = NoiseModel(pauli_errors={"cnot": {"XX": 0.05}})
        coll = make_cb(CNOT01, (2, 4, 8), 2, 2, seed=1)
        assert repr(execute_collection(coll, noise, np.int64(16))) == repr(
            execute_collection(coll, noise, 16)
        )


class TestFitDecay:
    def test_exact_recovery(self):
        pts = [
            DecayPoint("XX", m, i, 0.95 * 0.98**m, 0.0)
            for m in (2, 10, 22)
            for i in range(3)
        ]
        fit = fit_decay(pts)
        assert fit.amplitude == pytest.approx(0.95, abs=1e-9)
        assert fit.decay == pytest.approx(0.98, abs=1e-9)
        assert fit.decay_std < 1e-9

    def test_constant_one(self):
        pts = [DecayPoint("Z", m, i, 1.0, 0.0) for m in (1, 5, 9) for i in range(4)]
        fit = fit_decay(pts)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-12)
        assert fit.decay == pytest.approx(1.0, abs=1e-12)
        assert fit.decay_std == pytest.approx(0.0, abs=1e-12)

    def test_all_nonpositive_flagged(self):
        pts = [DecayPoint("X", m, 0, -0.1, 0.01) for m in (2, 4, 6)]
        with pytest.raises(FitError):
            fit_decay(pts)

    def test_too_few_lengths(self):
        pts = [DecayPoint("X", m, 0, 0.9, 0.01) for m in (2, 4)]
        with pytest.raises(FitError):
            fit_decay(pts)

    @pytest.mark.parametrize("resamples", [1, -1, -200])
    def test_degenerate_bootstrap_size_rejected(self, resamples):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        with pytest.raises(FitError, match="resamples"):
            fit_decay(pts, resamples=resamples)
        assert fit_decay(pts, resamples=0).decay_std == 0.0
        assert math.isfinite(fit_decay(pts, resamples=2).decay_std)

    @pytest.mark.parametrize("resamples", [2.5, 3.0, True, "4"])
    def test_non_integer_bootstrap_size_rejected_at_entry(self, resamples):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        with pytest.raises(FitError, match="resamples"):
            fit_decay(pts, resamples=resamples)
        with pytest.raises(FitError, match="resamples"):
            fit_all_decays(pts, resamples=resamples)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_bad_seed_rejected_at_entry(self, seed):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        with pytest.raises(FitError, match="seed must be"):
            fit_decay(pts, seed=seed)
        with pytest.raises(FitError, match="seed must be"):
            fit_all_decays(pts, seed=seed)

    def test_numpy_integer_bootstrap_size_accepted(self):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        assert fit_decay(pts, resamples=np.int64(50)) == fit_decay(pts, resamples=50)

    def test_decay_clipped_to_unit_interval(self):
        pts = [
            DecayPoint("X", m, i, 1.02 ** (m / 4), 0.0)
            for m in (2, 6, 10)
            for i in range(2)
        ]
        fit = fit_decay(pts)
        assert fit.decay <= 1.0

    def test_monte_carlo_coverage(self):
        """Binomial shot noise at the production scale: the fitted decay lands
        within 3 sigma of truth in at least 99% of 500 trials."""
        amp, dec = 0.95, 0.98
        shots, n_circ = 128, 48
        ms = (2, 10, 22)
        rng = np.random.default_rng(2024)
        hits = 0
        for trial in range(500):
            pts = []
            for m in ms:
                target = amp * dec**m
                prob_one = (1 + target) / 2
                draws = rng.binomial(shots, prob_one, size=n_circ)
                xs = 2 * draws / shots - 1
                for i, x in enumerate(xs):
                    pts.append(
                        DecayPoint(
                            "XX", m, i, float(x), math.sqrt(max(0, 1 - x * x) / shots)
                        )
                    )
            fit = fit_decay(pts, resamples=100, seed=trial)
            if abs(fit.decay - dec) <= 3 * fit.decay_std:
                hits += 1
        assert hits >= 495, f"coverage {hits}/500"


    def test_one_term_fit_reads_plain_tuples(self):
        pts = [("X", m, i, 0.9**m + 0.01 * i, 0.01) for m in (2, 4, 6) for i in range(3)]
        assert fit_all_decays(pts) == [fit_decay(pts)] == [fit_decay(map(DecayPoint._make, pts))]

    @pytest.mark.parametrize("resamples", [0, 1, 200])
    def test_no_points_rejected(self, resamples):
        with pytest.raises(FitError):
            fit_all_decays([], resamples=resamples)
        with pytest.raises(FitError):
            fit_decay([], resamples=resamples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_expectation_rejected(self, bad):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        pts[4] = pts[4]._replace(expectation=bad)
        with pytest.raises(FitError, match="expectations must be finite"):
            fit_decay(pts)
        with pytest.raises(FitError, match="expectations must be finite"):
            fit_all_decays(pts)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_shot_error_rejected(self, bad):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        pts[2] = pts[2]._replace(shot_error=bad)
        with pytest.raises(FitError, match="shot errors finite"):
            fit_decay(pts)

    def test_negative_shot_error_rejected(self):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        pts[0] = pts[0]._replace(shot_error=-0.01)
        with pytest.raises(FitError, match="shot errors finite"):
            fit_all_decays(pts)

    @pytest.mark.parametrize("bad", [3.7, 4.0, np.float64(4.0), "4"])
    def test_non_integer_m_rejected(self, bad):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        pts[3] = pts[3]._replace(m=bad)
        with pytest.raises(FitError, match="must be integers"):
            fit_decay(pts)

    def test_bool_m_rejected(self):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (1, 4, 6) for i in range(3)]
        pts[0] = pts[0]._replace(m=True)
        with pytest.raises(FitError, match="must be integers"):
            fit_all_decays(pts)

    def test_negative_m_rejected(self):
        pts = [DecayPoint("X", m, i, 0.9**m, 0.01) for m in (-2, 4, 6) for i in range(3)]
        with pytest.raises(FitError, match="integers >= 0"):
            fit_decay(pts)

    def test_numpy_integer_m_accepted(self):
        pts = [DecayPoint("X", m, i, 0.9**m + 0.01 * i, 0.01) for m in (2, 4, 6) for i in range(3)]
        assert fit_decay([p._replace(m=np.int64(p.m)) for p in pts]) == fit_decay(pts)

    def test_mixed_terms_rejected_by_fit_decay(self):
        pts = [DecayPoint(s, m, i, 0.9**m, 0.01) for s in ("XX", "ZZ") for m in (2, 4, 6)
               for i in range(3)]
        with pytest.raises(FitError, match="one decay term"):
            fit_decay(pts)
        assert [f.pauli for f in fit_all_decays(pts)] == ["XX", "ZZ"]

    def test_other_term_label_rejected_by_fit_decay(self):
        pts = [DecayPoint("XX", m, i, 0.9**m, 0.01) for m in (2, 4, 6) for i in range(3)]
        with pytest.raises(FitError, match="one decay term"):
            fit_decay(pts, pauli="ZZ")
        assert fit_decay(pts, pauli="XX") == fit_decay(pts)


PAULIS_2Q = [a + b for a in "IXYZ" for b in "IXYZ"][1:]


@st.composite
def _decay_tables(draw):
    """Points of 1-6 decay terms, each on its own 2-5 lengths (two raise
    FitError), in ragged groups of 1-6 circuits; a term's expectations all
    positive, mixed or all non-positive; shot errors often zero."""
    points = []
    for term in draw(st.lists(st.sampled_from(PAULIS_2Q), min_size=1, max_size=6, unique=True)):
        low, high = draw(st.sampled_from([(0.05, 1.0)] * 3 + [(-0.5, 1.0)] * 2 + [(-0.5, 0.0)]))
        n_lengths = draw(st.sampled_from([2, 3, 3, 4, 4, 5, 5, 5]))
        for m in draw(st.lists(st.integers(0, 40), min_size=n_lengths, max_size=n_lengths,
                               unique=True)):
            for _ in range(draw(st.integers(1, 6))):
                x = draw(st.floats(low, high))
                err = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.05]))
                points.append((term, m, len(points), x, err))
    return draw(st.permutations(points))


def _fit_outcome(fit, *args, **kwargs):
    """Each fit's term and the reprs of its three numbers, or the FitError."""
    try:
        fits = fit(*args, **kwargs)
    except FitError as exc:
        return "FitError", str(exc)
    return [(f.pauli, repr(f.amplitude), repr(f.decay), repr(f.decay_std))
            for f in (fits if isinstance(fits, list) else [fits])]


class TestFitMatchesReference:
    """``fit_all_decays`` and ``fit_decay`` against
    ``oracles.reference_fit_decay``, the per-term loop the one fit pass
    replaced: the same fits bit for bit, or the same FitError."""

    @settings(max_examples=150, deadline=None)
    @given(_decay_tables(), st.sampled_from([0, 2, 200]), st.integers(0, 2**32),
           st.sampled_from(["tuples", "points", "mixed"]))
    def test_same_fits_or_error(self, table, resamples, seed, form):
        if form != "tuples":
            table = [DecayPoint(*p) if form == "points" or i % 2 else p
                     for i, p in enumerate(table)]
        assert _fit_outcome(fit_all_decays, table, resamples=resamples, seed=seed) == \
            _fit_outcome(oracles.reference_fit_all_decays, table, resamples=resamples, seed=seed)
        for term in {p[0] for p in table}:
            points = [p for p in table if p[0] == term]
            assert _fit_outcome(fit_decay, points, resamples=resamples, seed=seed) == \
                _fit_outcome(oracles.reference_fit_decay, points, resamples=resamples, seed=seed)


class TestEstimator:
    def test_all_unit_decays(self):
        fits = [DecayFit(s, 1.0, 1.0, 0.0) for s in ("XX", "YZ", "ZI")]
        est = estimate_process_infidelity(fits, 2)
        assert est.infidelity == pytest.approx(0.0, abs=1e-12)

    def test_exhaustive_depolarizing_identity(self):
        from cyclebench.pauli import all_pauli_letters

        lam = 0.02
        fits = [DecayFit(s, 1.0, 1 - lam, 0.0) for s in all_pauli_letters(2)]
        est = estimate_process_infidelity(fits, 2)
        assert est.infidelity == pytest.approx(15 / 16 * lam, abs=1e-15)
        assert est.sigma == pytest.approx(0.0, abs=1e-15)

    def test_sampled_subset_is_unbiased_form(self):
        fits = [DecayFit(s, 1.0, 0.97, 0.001) for s in ("XX", "YY", "IZ")]
        est = estimate_process_infidelity(fits, 2)
        assert est.infidelity == pytest.approx(15 / 16 * 0.03)
        assert est.sigma > 0

    def test_duplicates_rejected(self):
        fits = [DecayFit("XX", 1, 0.9, 0.0), DecayFit("XX", 1, 0.95, 0.0)]
        with pytest.raises(ProtocolError):
            estimate_process_infidelity(fits, 2)

    def test_exhaustive_run_equals_direct_mean(self):
        """n_decays=15 on two qubits covers every non-identity term, and the
        estimator reduces to the plain mean over all of them."""
        from cyclebench.pauli import all_pauli_letters

        noise = NoiseModel(pauli_errors={"cnot": {"XI": 0.03, "IZ": 0.01}})
        coll = make_cb(CNOT01, (2, 10, 22), 4, 15, seed=6)
        assert sorted(cc.prepared.letters for cc in coll.circuits[:: 3 * 4]) == sorted(
            all_pauli_letters(2)
        )
        fits = fit_all_decays(execute_collection(coll, noise, None), resamples=0)
        est = estimate_process_infidelity(fits, 2)
        mean_p = sum(f.decay for f in fits) / 15
        assert est.infidelity == pytest.approx(1 - (1 + 15 * mean_p) / 16, abs=1e-15)

    def test_identity_rejected(self):
        with pytest.raises(ProtocolError):
            estimate_process_infidelity([DecayFit("II", 1, 1, 0.0)], 2)

    @pytest.mark.parametrize("term, n_qubits", [("XY", 1), ("X", 2), ("XA", 2), ("xz", 2), ("", 1)])
    def test_term_of_other_width_or_letters_rejected(self, term, n_qubits):
        with pytest.raises(ProtocolError, match=f"decay term '{term}' is not {n_qubits} letters"):
            estimate_process_infidelity([DecayFit(term, 1.0, 0.99, 0.01)], n_qubits)


class TestTwirlCorrectness:
    def test_pauli_noise_decays_match_orbit_fidelities(self):
        """Stochastic Pauli noise on the hard cycle: fitted p equals the
        geometric mean of the channel's Pauli fidelities over the frame orbit."""
        probs = {"XI": 0.02, "IZ": 0.015, "YY": 0.01}
        noise = NoiseModel(pauli_errors={"cnot": probs})
        from cyclebench.noise import pauli_channel

        fid = oracles.ptm_diagonal(pauli_channel(probs).operators, 2)
        coll = make_cb(CNOT01, (2, 10, 22), 24, 15, seed=31)
        points = execute_collection(coll, noise, shots=128)
        fits = fit_all_decays(points, resamples=120, seed=5)
        for fit in fits:
            img = propagate_pauli(CNOT01, PauliString(fit.pauli))
            predicted = math.sqrt(fid[fit.pauli] * fid[img.letters])
            assert abs(fit.decay - predicted) < max(3 * fit.decay_std, 1e-3), fit.pauli

    def test_spam_absorbed_in_amplitude(self):
        """Readout and prep errors shift A, not p (single-seed check)."""
        lam = 0.02
        base = {"pauli_errors": {"cnot": depolarizing_pauli_probs(lam, 2)}}
        clean = NoiseModel.from_dict(base)
        spam = NoiseModel.from_dict(
            {
                **base,
                "readout_error": {0: 0.05, 1: 0.05},
                "prep_flip": {0: 0.02, 1: 0.02},
            }
        )
        coll = make_cb(CNOT01, (2, 10, 22), 24, 15, seed=77)
        fits_clean = {
            f.pauli: f
            for f in fit_all_decays(execute_collection(coll, clean, None), resamples=0)
        }
        fits_spam = {
            f.pauli: f
            for f in fit_all_decays(execute_collection(coll, spam, None), resamples=0)
        }
        for s, fc in fits_clean.items():
            fs = fits_spam[s]
            assert abs(fs.decay - fc.decay) < 1e-9  # analytic path: identical p
            assert fs.amplitude <= fc.amplitude + 1e-12


class TestParallelCycleVisibility:
    def test_crosstalk_makes_parallel_cycle_worse_than_product(self):
        from cyclebench.bench import cb_process_infidelity
        from cyclebench.noise import CrosstalkTerm

        noise = NoiseModel(
            pauli_errors={"cnot": depolarizing_pauli_probs(0.01, 2)},
            crosstalk=(
                CrosstalkTerm((0, 1), 2, 0.35),
                CrosstalkTerm((2, 3), 1, 0.35),
            ),
        )
        kwargs = dict(m_list=(2, 6, 12), n_random=16, shots=256, resamples=100)
        est1, _, _ = cb_process_infidelity(
            layout_cycles(1, 1), noise, n_decays=20, seed=1, **kwargs
        )
        est2, _, _ = cb_process_infidelity(
            layout_cycles(1, 2), noise, n_decays=15, seed=2, **kwargs
        )
        est4, _, _ = cb_process_infidelity(
            layout_cycles(1, 4), noise, n_decays=15, seed=3, **kwargs
        )
        composed = 1 - (1 - est2.infidelity) * (1 - est4.infidelity)
        margin = est1.infidelity - composed
        spread = 3 * (est1.sigma + est2.sigma + est4.sigma)
        assert margin > spread, (est1.infidelity, composed, spread)


class TestRbConversion:
    def test_worked_values(self):
        r, ef = rb_to_process_infidelity(2, p=1.0)
        assert (r, ef) == (0.0, 0.0)
        r, ef = rb_to_process_infidelity(2, p=0.0)
        assert r == pytest.approx(0.5)
        assert ef == pytest.approx(0.75)
        r, _ = rb_to_process_infidelity(4, p=0.9867)
        assert r == pytest.approx(0.0099750, abs=1e-12)
        _, ef = rb_to_process_infidelity(4, r=0.00908)
        assert ef == pytest.approx(0.01135, abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ProtocolError):
            rb_to_process_infidelity(3, p=0.9)
        with pytest.raises(ProtocolError):
            rb_to_process_infidelity(4)
        with pytest.raises(ProtocolError):
            rb_to_process_infidelity(4, p=0.9, r=0.01)
        with pytest.raises(ProtocolError):
            rb_to_process_infidelity(4, p=1.5)


class TestRunRb:
    def test_noiseless_is_perfect(self):
        res = run_rb((0,), (2, 8, 20), 6, None, shots=None, seed=0)
        assert res.fit.decay == pytest.approx(1.0, abs=1e-9)
        assert res.error_rate == pytest.approx(0.0, abs=1e-9)
        assert res.estimate.infidelity == pytest.approx(0.0, abs=1e-9)

    def test_single_qubit_depolarizing_oracle(self):
        """lambda per Clifford maps to r = lambda/2."""
        lam = 0.012
        noise = NoiseModel(
            pauli_errors={"single_qubit": {"X": lam / 4, "Y": lam / 4, "Z": lam / 4}}
        )
        res = run_rb((0,), (2, 20, 60), 24, noise, shots=512, seed=13)
        assert abs(res.error_rate - lam / 2) < 3 * max(res.error_rate_std, 1e-5)

    def test_single_qubit_analytic_path_exact(self):
        lam = 0.012
        noise = NoiseModel(
            pauli_errors={"single_qubit": {"X": lam / 4, "Y": lam / 4, "Z": lam / 4}}
        )
        res = run_rb((0,), (2, 20, 60), 8, noise, shots=None, seed=3)
        assert res.fit.decay == pytest.approx(1 - lam, abs=1e-9)

    def test_two_qubit_noiseless(self):
        res = run_rb((6, 7), (2, 4, 8), 4, None, shots=None, seed=4)
        assert res.fit.decay == pytest.approx(1.0, abs=1e-9)

    def test_rejects_three_qubits(self):
        with pytest.raises(ProtocolError):
            run_rb((0, 1, 2), (2, 4, 8), 4, None, shots=10)

    def test_rejects_short_m_list(self):
        with pytest.raises(ProtocolError):
            run_rb((0,), (2, 4), 4, None, shots=10)

    def test_rejects_repeated_length(self):
        with pytest.raises(ProtocolError, match="repeats a sequence length"):
            run_rb((0,), (2, 4, 8, 4), 4, None, shots=10)

    def test_rejects_negative_length_and_no_sequences(self):
        with pytest.raises(ProtocolError):
            run_rb((0,), (2, 4, -1), 4, None, shots=10)
        with pytest.raises(ProtocolError):
            run_rb((0,), (2, 4, 8), 0, None, shots=10)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_rejects_bad_shots(self, shots):
        with pytest.raises(ProtocolError, match="shots"):
            run_rb((0,), (2, 4, 8), 2, None, shots=shots)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
    def test_rejects_bad_seed_at_entry(self, seed):
        with pytest.raises(ProtocolError, match="seed must be"):
            run_rb((0,), (2, 4, 8), 2, None, shots=10, seed=seed)

    @pytest.mark.parametrize("qubits, shots", [((0,), 64), ((0,), None), ((3, 5), 64)])
    def test_streams_feed_the_same_sequences(self, monkeypatch, qubits, shots):
        """Collection-wide streams give the result of one rng_from per
        stream, and no count streams are keyed when shots is None."""
        noise = NoiseModel(pauli_errors={"single_qubit": {"X": 0.01}, "cnot": {"XZ": 0.02}})
        fast = run_rb(qubits, (1, 3, 5), 4, noise, shots=shots, seed=21)
        built = []

        class Recording(oracles.RngFromStreams):
            def __init__(self, seed, paths):
                super().__init__(seed, paths)
                built.extend(p[0] for p in self.paths)

        monkeypatch.setattr(bench, "Streams", Recording)
        assert run_rb(qubits, (1, 3, 5), 4, noise, shots=shots, seed=21) == fast
        assert built.count("rb") == 12
        assert built.count("rb-exec") == (0 if shots is None else 12)

    def test_deterministic(self):
        noise = NoiseModel(pauli_errors={"single_qubit": {"X": 0.005}})
        a = run_rb((0,), (2, 6, 12), 5, noise, shots=128, seed=9)
        b = run_rb((0,), (2, 6, 12), 5, noise, shots=128, seed=9)
        assert a == b

    @pytest.mark.parametrize("m_list, n_random", [
        ((2.5, 4, 8), 4), ((True, 2, 4), 4), ((2, 2.5, 4), 4), ((2, 4, 8.0), 4),
        ((2, 4, 8), 2.0), ((2, 4, 8), True), ((2, 4, 8), np.bool_(True)),
    ], ids=["float-first", "bool", "float-middle", "integral-float", "float-n_random",
            "bool-n_random", "numpy-bool-n_random"])
    def test_rejects_non_integer_lengths_at_entry(self, m_list, n_random):
        for call in (lambda: run_rb((0, 1), m_list, n_random, None, shots=None),
                     lambda: make_cb(CNOT01, m_list, n_random, 2)):
            with pytest.raises(ProtocolError, match="must be an integer"):
                call()

    def test_accepts_numpy_integers(self):
        lengths = np.array([2, 4, 8])
        assert repr(run_rb((0,), lengths, np.int64(3), None, shots=np.int32(16), seed=2)) == repr(
            run_rb((0,), (2, 4, 8), 3, None, shots=16, seed=2)
        )

    @pytest.mark.parametrize("shots", [2.5, 8.0, True, np.bool_(True), "8"],
                             ids=["float", "integral-float", "bool", "numpy-bool", "str"])
    def test_rejects_non_integer_shots_at_entry(self, shots):
        with pytest.raises(ProtocolError, match="shots must be an integer"):
            run_rb((0,), (2, 4, 8), 2, None, shots)

    def test_rejects_repeated_register_labels_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew streams before checking the register")

        monkeypatch.setattr(bench, "Streams", no_draws)
        with pytest.raises(CircuitError, match="distinct"):
            run_rb((3, 3), (1, 2, 4), 2, None, 8)

    @pytest.mark.parametrize("qubits", [(0,), (3, 5)])
    def test_batch_holds_the_element_words(self, monkeypatch, qubits):
        """The rows gathered from the shared word table are the sequences
        the per-sequence loop builds, a length-0 one (on two qubits, an
        empty row) included."""
        batches = []
        original = engine.Executor.probabilities
        monkeypatch.setattr(engine.Executor, "probabilities",
                            lambda self, batch: batches.append(batch) or original(self, batch))
        run_rb(qubits, (0, 3, 7), 4, None, shots=None, seed=5)
        (batch,) = batches
        assert batch == engine.Batch.of(qubits, oracles.reference_rb_sequences(qubits, (0, 3, 7),
                                                                               4, seed=5))

    def test_word_table_is_built_once_per_width(self):
        run_rb((0, 1), (1, 2, 4), 2, None, shots=None, seed=1)
        before = bench._rb_words.cache_info()
        run_rb((2, 3), (1, 2, 4), 2, None, shots=None, seed=2)
        after = bench._rb_words.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        specs, words = bench._rb_words(2)
        assert not words.flags.writeable
        for k in range(pl.clifford_count(2)):
            assert [specs[c] for c in words[k] if c >= 0] == [
                (name, tuple(pos), None) for name, *pos in pl.clifford_word(2, k)]


def _rb_models():
    """The qcap workload's coherent-only model and the README model."""
    qcap = NoiseModel(
        cnot_rotation={"*": ("ZZ", 0.05)},
        crosstalk=(CrosstalkTerm((0, 1), 2, 0.35), CrosstalkTerm((2, 3), 1, 0.35)),
    )
    readme = NoiseModel(
        t1={6: 67.1, 7: 94.8, 12: 97.5, 11: 95.1},
        t2={6: 99.9, 7: 86.8, 12: 88.5, 11: 71.6},
        readout={q: confusion_from_scalar(e)
                 for q, e in {6: 0.0254, 7: 0.0230, 12: 0.0313, 11: 0.0355}.items()},
        pauli_errors={
            "cnot": {"IX": 0.003, "XI": 0.003, "ZZ": 0.004},
            "cnot:7-12": {"ZZ": 0.02},
            "single_qubit": {"X": 0.0002},
        },
        cnot_rotation={"*": ("ZZ", 0.05)},
        crosstalk=(CrosstalkTerm((6, 7), 12, 0.08),),
        durations={"single_qubit": 50.0, "cnot": 300.0},
        prep_flip={6: 0.01},
    )
    return {"qcap": (qcap, ((1,), (0, 1))), "readme": (readme, ((6,), (7, 12)))}


class TestRunRbMatchesPerSequenceLoop:
    """Batched RB against ``oracles.reference_run_rb``, the per-sequence
    loop it replaced: the same result and the same points, bit for bit."""

    @pytest.mark.parametrize("model", ["qcap", "readme"])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("shots", [128, None])
    def test_result_and_points(self, monkeypatch, model, width, shots):
        noise, pairs = _rb_models()[model]
        qubits = pairs[width - 1]
        expected, expected_points = oracles.reference_run_rb(
            qubits, (2, 6, 12), 5, noise, shots, seed=31, label="x"
        )
        fitted = []
        monkeypatch.setattr(bench, "fit_decay", lambda points, **kw: fitted.append(points)
                            or fit_decay(points, **kw))
        assert run_rb(qubits, (2, 6, 12), 5, noise, shots, seed=31, label="x") == expected
        (points,) = fitted
        assert [p[:3] for p in points] == [p[:3] for p in expected_points]
        for k in (3, 4):
            assert np.array_equal([p[k] for p in points], [p[k] for p in expected_points])

    @pytest.mark.parametrize("model", ["qcap", "readme"])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("shots", [128, None])
    def test_chunked(self, monkeypatch, model, width, shots):
        """Stacks of five sequences, so chunk boundaries fall inside the
        seven sequences of one length, give the loop's result and points."""
        noise, pairs = _rb_models()[model]
        qubits = pairs[width - 1]
        expected, expected_points = oracles.reference_run_rb(
            qubits, (2, 6, 12), 7, noise, shots, seed=32, label="x"
        )
        fitted = []
        monkeypatch.setattr(bench, "fit_decay", lambda points, **kw: fitted.append(points)
                            or fit_decay(points, **kw))
        monkeypatch.setattr(engine, "CHUNK", 5)
        assert run_rb(qubits, (2, 6, 12), 7, noise, shots, seed=32, label="x") == expected
        (points,) = fitted
        assert [p[:3] for p in points] == [p[:3] for p in expected_points]
        for k in (3, 4):
            assert np.array_equal([p[k] for p in points], [p[k] for p in expected_points])
