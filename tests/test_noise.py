import math
import re

import numpy as np
import pytest

from cyclebench.noise import (
    CrosstalkTerm,
    DriftEpoch,
    DriftSchedule,
    DriftScheduleError,
    NoiseModel,
    NoiseModelError,
    coherent_overrotation,
    confusion_from_scalar,
    damping_channel,
    depolarizing_pauli_probs,
    drift_params_at,
    pauli_channel,
)
from cyclebench.pauli import PauliString
from cyclebench.sim import StateVector, expectation_pauli

import oracles
from oracles import depolarizing_channel


class TestPauliChannel:
    def test_empty_is_identity(self):
        chan = pauli_channel({})
        rho = StateVector.from_bits("1").to_density()
        out = oracles.apply_channel(rho, chan, (0,))
        assert np.allclose(out.entries, rho.entries)

    def test_xi_flip_probability(self):
        chan = pauli_channel({"XI": 0.1})
        rho = StateVector.zero(2).to_density()
        out = oracles.apply_channel(rho, chan, (0, 1))
        assert expectation_pauli(out, PauliString("ZI")) == pytest.approx(0.8)

    def test_mixed_two_qubit_infidelity_vs_ptm_oracle(self):
        probs = {"XX": 0.05, "ZZ": 0.05}
        chan = pauli_channel(probs)
        fidelity = oracles.process_fidelity_from_kraus(chan.operators, 2)
        # commutation count: each error Pauli keeps the 8 commuting Paulis
        expected = 0.0
        for s in oracles.all_letters(2):
            f = 1.0
            for err, p in probs.items():
                sign = 1 if oracles.commutes(PauliString(s), PauliString(err)) else -1
                f -= p * (1 - sign)
            expected += f
        assert fidelity == pytest.approx(expected / 16, abs=1e-12)
        # for a Pauli channel the process fidelity is the identity weight
        assert 1 - fidelity == pytest.approx(0.1, abs=1e-12)

    def test_rejects_negative_and_oversum(self):
        with pytest.raises(NoiseModelError):
            pauli_channel({"X": -0.1})
        with pytest.raises(NoiseModelError):
            pauli_channel({"X": 0.6, "Z": 0.6})

    def test_all_channels_cptp(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            letters = ["XI", "IZ", "YY", "ZX"]
            raw = rng.random(4) * 0.2
            chan = pauli_channel(dict(zip(letters, raw)))
            chan.validate()


class TestDepolarizing:
    def test_zero_strength_identity(self):
        rho = StateVector.from_bits("1").to_density()
        out = oracles.apply_channel(rho, depolarizing_channel(0.0, 1), (0,))
        assert np.allclose(out.entries, rho.entries)

    def test_full_strength_maximally_mixed(self):
        rho = StateVector.from_bits("11").to_density()
        out = oracles.apply_channel(rho, depolarizing_channel(1.0, 2), (0, 1))
        assert np.allclose(out.entries, np.eye(4) / 4, atol=1e-12)

    def test_every_pauli_fidelity_uniform(self):
        lam = 0.02
        chan = depolarizing_channel(lam, 2)
        fid = oracles.ptm_diagonal(chan.operators, 2)
        for s, f in fid.items():
            target = 1.0 if s == "II" else 1.0 - lam
            assert f == pytest.approx(target, abs=1e-12)

    def test_process_infidelity_fifteen_sixteenths(self):
        lam = 0.02
        chan = depolarizing_channel(lam, 2)
        e_f = 1.0 - oracles.process_fidelity_from_kraus(chan.operators, 2)
        assert e_f == pytest.approx(15 / 16 * lam, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(NoiseModelError):
            depolarizing_channel(1.2, 1)


class TestDamping:
    def test_zero_duration_identity(self):
        chan = damping_channel(50.0, 70.0, 0.0)
        assert len(chan.operators) == 1
        assert np.allclose(chan.operators[0], np.eye(2))

    def test_infinite_t1_limit(self):
        chan = damping_channel(1e12, 2e12, 300.0)
        rho = StateVector(np.array([1, 1]) / math.sqrt(2)).to_density()
        out = oracles.apply_channel(rho, chan, (0,))
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-9

    def test_total_coherence_decay_is_t2(self):
        t1, t2, dur = 67.1, 99.9, 300.0
        chan = damping_channel(t1, t2, dur)
        plus = StateVector(np.array([1, 1]) / math.sqrt(2)).to_density()
        out = oracles.apply_channel(plus, chan, (0,))
        assert abs(out.entries[0, 1]) == pytest.approx(
            0.5 * math.exp(-(dur / 1000) / t2), abs=1e-12
        )

    def test_population_decay_is_t1(self):
        t1, dur = 50.0, 500.0
        chan = damping_channel(t1, 80.0, dur)
        rho = StateVector.from_bits("1").to_density()
        out = oracles.apply_channel(rho, chan, (0,))
        assert out.entries[1, 1].real == pytest.approx(math.exp(-0.5 / t1), abs=1e-12)

    def test_unphysical_t2_rejected(self):
        with pytest.raises(NoiseModelError):
            damping_channel(50.0, 120.0, 100.0)
        with pytest.raises(NoiseModelError):
            damping_channel(-1.0, 1.0, 100.0)

    def test_channel_grid_cptp(self):
        for t1 in (10.0, 67.1, 1e6):
            for ratio in (0.3, 1.0, 2.0):
                for dur in (10.0, 300.0, 5000.0):
                    damping_channel(t1, ratio * t1, dur).validate()


class TestCoherentRotation:
    def test_zero_angle_identity(self):
        assert np.allclose(coherent_overrotation("ZZ", 0.0), np.eye(4))

    def test_inverse_composition(self):
        u = coherent_overrotation("ZZ", 0.37)
        v = coherent_overrotation("ZZ", -0.37)
        assert np.max(np.abs(u @ v - np.eye(4))) < 1e-12

    def test_rotation_additivity(self):
        single = coherent_overrotation("XI", 0.1)
        total = np.linalg.matrix_power(single, 7)
        assert np.max(np.abs(total - coherent_overrotation("XI", 0.7))) < 1e-10

    def test_identity_axis_rejected(self):
        with pytest.raises(NoiseModelError):
            coherent_overrotation("II", 0.1)

    def test_is_unitary(self):
        u = coherent_overrotation("XY", 0.8)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def random_cptp(rng, n):
    """Random channel: a random unitary mixed with damping-like Kraus pairs."""
    dim = 2**n
    mats = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    acc = sum(m.conj().T @ m for m in mats)
    w = np.linalg.cholesky(np.linalg.inv(acc))
    return [m @ w for m in mats]


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_twirl_diagonalises_any_channel(n):
    rng = np.random.default_rng(n)
    kraus = random_cptp(rng, n)
    letters = list(oracles.all_letters(n))
    dim = 2**n
    twirled = []
    for s in letters:
        p = oracles.pauli_matrix(s)
        twirled.extend(p @ k @ p / math.sqrt(len(letters)) for k in kraus)
    r = oracles.ptm(twirled, n)
    off = r - np.diag(np.diag(r))
    assert np.max(np.abs(off)) < 1e-9


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(NoiseModelError):
            NoiseModel(t1={0: -5.0})
        with pytest.raises(NoiseModelError):
            NoiseModel(t1={0: 10.0}, t2={0: 30.0})
        with pytest.raises(NoiseModelError):
            NoiseModel(readout={0: np.array([[0.9, 0.2], [0.1, 0.9]])})
        with pytest.raises(NoiseModelError):
            NoiseModel(pauli_errors={"cnot": {"XX": 0.7, "ZZ": 0.7}})
        with pytest.raises(NoiseModelError):
            NoiseModel(prep_flip={0: 1.5})
        with pytest.raises(NoiseModelError):
            NoiseModel(crosstalk=(CrosstalkTerm((0, 1), 1, 0.1),))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"t1": {0: math.nan}}, "T1(0)"),
            ({"t1": {0: math.inf}}, "T1(0)"),
            ({"t2": {0: math.nan}}, "T2(0)"),
            ({"pauli_errors": {"cnot": {"XX": math.nan}}}, "XX"),
            ({"pauli_errors": {"cnot": {"XX": math.inf}}}, "XX"),
            ({"durations": {"cnot": -300.0}}, "duration(cnot)"),
            ({"durations": {"single_qubit": math.nan}}, "duration(single_qubit)"),
        ],
    )
    def test_rejects_non_finite_and_negative_duration(self, kwargs, field):
        with pytest.raises(NoiseModelError, match=re.escape(field)):
            NoiseModel(**kwargs)

    def test_rejects_nan_rotation_angle(self):
        with pytest.raises(NoiseModelError, match=re.escape("cnot_rotation(*)")):
            NoiseModel(cnot_rotation={"*": ("ZZ", math.nan)})

    def test_rejects_infinite_rotation_angle(self):
        with pytest.raises(NoiseModelError, match=re.escape("cnot_rotation(0-1)")):
            NoiseModel(cnot_rotation={"0-1": ("ZZ", math.inf)})

    def test_rejects_infinite_crosstalk_angle(self):
        with pytest.raises(NoiseModelError, match="crosstalk"):
            NoiseModel(crosstalk=(CrosstalkTerm((0, 1), 2, math.inf),))

    def test_rejects_nan_readout_entry(self):
        with pytest.raises(NoiseModelError, match=re.escape("readout(0)")):
            NoiseModel(readout={0: np.array([[math.nan, 0.1], [0.1, 0.9]])})

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"cnot_rotation": {"*": ("QQ", 0.05)}}, "'QQ'"),
            ({"cnot_rotation": {"*": ("ZZZ", 0.05)}}, "'ZZZ'"),
            ({"cnot_rotation": {"0-1": ("II", 0.05)}}, "cnot_rotation(0-1) axis 'II'"),
            ({"cnot_rotation": {"0_1": ("ZZ", 0.05)}}, "'0_1'"),
            ({"pauli_errors": {"single_qubit": {"XX": 0.01}}}, "'XX' in single_qubit"),
            ({"pauli_errors": {"cnot": {"X": 0.01}}}, "'X' in cnot"),
            ({"pauli_errors": {"cnot:0-1": {"XYZ": 0.01}}}, "'XYZ' in cnot:0-1"),
            ({"pauli_errors": {"cnott": {"XX": 0.01}}}, "'cnott'"),
            ({"pauli_errors": {"cnot:0_1": {"XX": 0.01}}}, "'cnot:0_1'"),
            ({"durations": {"cnott": 300.0}}, "cnott in durations"),
        ],
        ids=["axis-QQ", "axis-ZZZ", "axis-II", "rotation-key", "single-XX", "cnot-X",
             "pair-XYZ", "class-cnott", "class-pair", "duration-cnott"],
    )
    def test_rejects_malformed_noise_on_entry(self, kwargs, named):
        with pytest.raises(NoiseModelError, match=re.escape(named)):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"readout": {0: 0.1}}, "readout in noise"),
            ({"crosstalk": [{"pair": [0, 1], "spectator": 2, "angle": 0.1, "angel": 0.1}]},
             "angel in crosstalk"),
            ({"cnot_rotation": {"*": {"axis": "ZZ", "angel": 0.1}}}, "angel in cnot_rotation[*]"),
        ],
        ids=["noise", "crosstalk", "cnot_rotation"],
    )
    def test_from_dict_rejects_unknown_keys(self, data, named):
        with pytest.raises(NoiseModelError, match=re.escape(named)):
            NoiseModel.from_dict(data)

    @pytest.mark.parametrize(
        "data, named",
        [
            ([1], "noise must be a mapping, got list"),
            ({"pauli_errors": [1]}, "pauli_errors must be a mapping, got list"),
            ({"pauli_errors": {"cnot": [1]}}, "pauli_errors[cnot] must be a mapping"),
            ({"t1": [40.0]}, "t1 must be a mapping"),
            ({"t2": 3}, "t2 must be a mapping, got int"),
            ({"readout_error": "0.1"}, "readout_error must be a mapping, got str"),
            ({"cnot_rotation": ["ZZ", 0.1]}, "cnot_rotation must be a mapping"),
            ({"durations": [100.0]}, "durations must be a mapping"),
            ({"prep_flip": [0.01]}, "prep_flip must be a mapping"),
            ({"crosstalk": [[0, 1]]}, "crosstalk[0] must be a mapping"),
        ],
        ids=["noise", "pauli_errors", "pauli-class", "t1", "t2", "readout_error",
             "cnot_rotation", "durations", "prep_flip", "crosstalk-term"],
    )
    def test_from_dict_rejects_non_mapping_sections(self, data, named):
        """Each of these raised AttributeError or TypeError deep in the load."""
        with pytest.raises(NoiseModelError, match=re.escape(named)):
            NoiseModel.from_dict(data)

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"crosstalk": [{"spectator": 2, "angle": 0.1}]}, "crosstalk[0].pair must be set"),
            ({"crosstalk": [{"pair": [0, 1], "angle": 0.1}]},
             "crosstalk[0].spectator must be set"),
            ({"crosstalk": [{"pair": [0, 1], "spectator": 2}]}, "crosstalk[0].angle must be set"),
            ({"crosstalk": [{"pair": [0, 1.5], "spectator": 2, "angle": 0.1}]},
             "crosstalk[0].pair[1] must be an int"),
            ({"cnot_rotation": {"*": ["ZZ"]}}, "cnot_rotation[*] must be [axis, angle]"),
            ({"cnot_rotation": {"*": ["ZZ", 0.1, 0.2]}}, "cnot_rotation[*] must be [axis, angle]"),
            ({"cnot_rotation": {"*": "ZZ"}}, "cnot_rotation[*] must be a list, got str"),
            ({"cnot_rotation": {"*": {"axis": "ZZ"}}}, "cnot_rotation[*] angle must be set"),
            ({"cnot_rotation": {"*": {"angle": 0.1}}}, "cnot_rotation[*] axis must be set"),
        ],
        ids=["crosstalk-pair", "crosstalk-spectator", "crosstalk-angle", "crosstalk-pair-float",
             "rotation-one-item", "rotation-three-items", "rotation-str", "rotation-no-angle",
             "rotation-no-axis"],
    )
    def test_from_dict_names_a_missing_or_malformed_entry(self, data, named):
        """Each of these raised a bare KeyError or ValueError, or read "ZZ" as
        axis "Z" and angle "Z"."""
        with pytest.raises(NoiseModelError, match=re.escape(named)):
            NoiseModel.from_dict(data)

    def test_equality_compares_readout_by_value(self):
        conf = confusion_from_scalar(0.02)
        model = NoiseModel(t1={0: 50.0}, readout={0: conf})
        assert model == NoiseModel(t1={0: 50.0}, readout={0: conf.copy()})
        assert model == NoiseModel.from_dict(model.to_dict())
        assert model != NoiseModel(t1={0: 50.0}, readout={0: confusion_from_scalar(0.03)})
        assert model != NoiseModel(t1={0: 50.0}, readout={1: conf})
        assert model != NoiseModel(t1={0: 60.0}, readout={0: conf})
        assert model != "not a model"

    def test_pair_specific_class_wins(self):
        model = NoiseModel(
            pauli_errors={"cnot": {"XX": 0.01}, "cnot:1-2": {"XX": 0.05}}
        )
        assert model.gate_pauli_probs("cnot", (0, 1))["XX"] == 0.01
        assert model.gate_pauli_probs("cnot", (1, 2))["XX"] == 0.05
        assert model.gate_pauli_probs("single_qubit") is None

    def test_rotation_lookup(self):
        model = NoiseModel(cnot_rotation={"*": ("ZZ", 0.1), "6-7": ("ZZ", 0.3)})
        assert model.rotation_for_pair((6, 7))[1] == 0.3
        assert model.rotation_for_pair((7, 12))[1] == 0.1

    def test_confusion_from_scalar(self):
        conf = confusion_from_scalar(0.0254)
        assert conf[0, 1] == pytest.approx(0.0254)
        assert np.allclose(conf.sum(axis=1), 1.0)

    def test_round_trip_through_dict(self):
        model = NoiseModel(
            t1={6: 67.1},
            t2={6: 99.9},
            readout={6: confusion_from_scalar(0.0254)},
            pauli_errors={"cnot": {"XX": 0.01}},
            cnot_rotation={"*": ("ZZ", 0.05)},
            crosstalk=(CrosstalkTerm((6, 7), 12, 0.02),),
            prep_flip={6: 0.01},
        )
        again = NoiseModel.from_dict(model.to_dict())
        assert again.to_dict() == model.to_dict()

    def test_readout_a_drift_cannot_carry_is_rejected(self):
        """to_dict keeps one error rate per qubit; an asymmetric matrix once
        came back from it as the symmetric matrix of the mean error rate."""
        model = NoiseModel(readout={0: [[0.98, 0.02], [0.10, 0.90]]})
        with pytest.raises(NoiseModelError, match=re.escape("readout(0)")):
            model.to_dict()
        with pytest.raises(NoiseModelError, match=re.escape("readout(0)")):
            DriftSchedule(base=model, epochs=(DriftEpoch(1, "morning"),))


def schedule_fixture(walk=None):
    base = NoiseModel(
        t1={6: 67.1, 7: 94.8},
        t2={6: 99.9, 7: 86.8},
        readout={6: confusion_from_scalar(0.0254)},
        pauli_errors={"cnot": {"XX": 0.01}},
        cnot_rotation={"*": ("ZZ", 0.05)},
    )
    epochs = (
        DriftEpoch(1, "morning"),
        DriftEpoch(1, "night", overrides={"t2": {6: 40.0}}),
        DriftEpoch(6, "morning", overrides={"t2": {6: 4.97}}),
    )
    return DriftSchedule(base=base, epochs=epochs, walk=walk or {})


class TestDriftSchedule:
    def test_plain_epoch_returns_base(self):
        sched = schedule_fixture()
        model = drift_params_at(sched, 1, "morning", seed=9)
        assert model.to_dict() == sched.base.to_dict()

    def test_override_applies(self):
        sched = schedule_fixture()
        model = drift_params_at(sched, 6, "morning", seed=9)
        assert model.t2[6] == pytest.approx(4.97)
        assert model.t2[7] == pytest.approx(86.8)

    def test_zero_walk_seed_independent(self):
        sched = schedule_fixture(walk={"t1": 0.0, "prob": 0.0})
        a = drift_params_at(sched, 1, "night", seed=1)
        b = drift_params_at(sched, 1, "night", seed=999)
        assert a.to_dict() == b.to_dict()

    def test_walk_deterministic_and_physical(self):
        sched = schedule_fixture(walk={"t1": 0.2, "t2": 0.2, "prob": 0.002})
        a = drift_params_at(sched, 6, "morning", seed=5)
        b = drift_params_at(sched, 6, "morning", seed=5)
        assert a.to_dict() == b.to_dict()
        c = drift_params_at(sched, 6, "morning", seed=6)
        assert c.to_dict() != a.to_dict()
        for model in (a, c):
            assert model.t1[6] > 0
            assert model.t2[6] <= 2 * model.t1[6] + 1e-9
            assert all(p >= 0 for p in model.pauli_errors["cnot"].values())

    def test_unknown_epoch(self):
        with pytest.raises(DriftScheduleError):
            drift_params_at(schedule_fixture(), 3, "afternoon", seed=0)

    def test_epochs_must_be_ordered(self):
        base = NoiseModel()
        with pytest.raises(DriftScheduleError):
            DriftSchedule(base, (DriftEpoch(2, "morning"), DriftEpoch(1, "night")))
        with pytest.raises(DriftScheduleError):
            DriftSchedule(base, (DriftEpoch(1, "night"), DriftEpoch(1, "night")))

    def test_overrides_must_reference_existing(self):
        base = NoiseModel(t1={6: 50.0}, t2={6: 60.0})
        with pytest.raises(DriftScheduleError):
            DriftSchedule(
                base, (DriftEpoch(1, "morning", overrides={"t2": {11: 4.0}}),)
            )

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"pauli_errors": {"cnott": {"XX": 0.02}}}, "'cnott'"),
            ({"pauli_errors": {"cnot": {"XX": 1.5}}}, "sum to 1.5"),
            ({"t2": {6: 150.0}}, "exceeds 2*T1"),
            ({"cnot_rotation": {"*": ["QQ", 0.1]}}, "axis 'QQ'"),
        ],
        ids=["class-cnott", "sum-above-1", "t2-above-2t1", "axis-QQ"],
    )
    def test_overrides_must_build_a_valid_model(self, overrides, named):
        base = NoiseModel(t1={6: 50.0}, t2={6: 60.0})
        epochs = (DriftEpoch(1, "morning"), DriftEpoch(1, "night", overrides=overrides))
        with pytest.raises(DriftScheduleError, match=re.escape("epoch (1, 'night'): ")) as err:
            DriftSchedule(base, epochs)
        assert named in str(err.value)

    def test_unknown_walk_parameter(self):
        with pytest.raises(DriftScheduleError):
            DriftSchedule(NoiseModel(), (DriftEpoch(1, "morning"),), walk={"bogus": 1.0})
