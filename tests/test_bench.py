import math

import numpy as np
import pytest

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
from cyclebench.circuits import Cycle, Gate, layout_cycles, propagate_pauli
from cyclebench.noise import NoiseModel, depolarizing_pauli_probs
from cyclebench.pauli import PauliString
from cyclebench.sim import rng_from

import oracles

CNOT01 = layout_cycles(1, 2)


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
        cc = coll.circuits[0]
        assert len(cc.circuit.cycles) == 2 * cc.m + 2

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
        assert any(
            ca.circuit != cb.circuit for ca, cb in zip(a.circuits, b.circuits)
        )
        names_b = {
            g.name
            for cc in b.circuits
            for cyc in cc.circuit.cycles
            for g in cyc.gates
        }
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

    def test_rejects_register_above_max_qubits(self):
        with pytest.raises(ProtocolError):
            make_cb(CNOT01, (2, 4, 6), 4, 4, register=tuple(range(6)))

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
        for seed in (0, 1, 2):
            args = (cycle, (0, 1, 3, 5), 3, 4)
            got = make_cb(*args, twirl=twirl, seed=seed, register=register)
            ref = oracles.reference_make_cb(*args, twirl=twirl, seed=seed, register=register)
            assert got == ref

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

    def test_rejects_negative_length_and_no_sequences(self):
        with pytest.raises(ProtocolError):
            run_rb((0,), (2, 4, -1), 4, None, shots=10)
        with pytest.raises(ProtocolError):
            run_rb((0,), (2, 4, 8), 0, None, shots=10)

    def test_deterministic(self):
        noise = NoiseModel(pauli_errors={"single_qubit": {"X": 0.005}})
        a = run_rb((0,), (2, 6, 12), 5, noise, shots=128, seed=9)
        b = run_rb((0,), (2, 6, 12), 5, noise, shots=128, seed=9)
        assert a == b
