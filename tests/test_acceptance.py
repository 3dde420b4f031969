"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.  The statistical criteria run their full trial counts, so the
whole module takes a few minutes.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import yaml

from cyclebench.bench import (
    cb_process_infidelity,
    fit_all_decays,
    execute_collection,
    make_cb,
    rb_to_process_infidelity,
    run_rb,
)
from cyclebench.circuits import (
    TfimParams,
    build_tfim_circuit,
    layout_cycles,
    propagate_pauli,
)
from cyclebench.cli import main
from cyclebench.engine import Executor
from cyclebench.noise import (
    CrosstalkTerm,
    NoiseModel,
    coherent_overrotation,
    depolarizing_pauli_probs,
)
from cyclebench.pauli import PauliString, all_pauli_letters
from cyclebench.qcap import qcap_cb_curve, qcap_rb_curve
from cyclebench.sim import StateVector

import oracles
from oracles import circuit_unitary, equal_up_to_phase


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. Formula exactness

def test_criterion_1_formula_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = float(rng.random())
        d = int(2 ** rng.integers(1, 4))
        r, ef = rb_to_process_infidelity(d, p=p)
        r_ref = Fraction(d - 1, d) * (1 - Fraction(p))
        ef_ref = r_ref * Fraction(d + 1, d)
        worst = max(worst, abs(r - float(r_ref)), abs(ef - float(ef_ref)))
    for _ in range(100):
        k = int(rng.integers(1, 7))
        rates = [float(x) for x in rng.random(k) * 0.05]
        steps = sorted(int(s) for s in rng.integers(0, 12, size=3))
        curve = qcap_rb_curve(rates, d=4, steps=steps)
        for n, bound in zip(steps, curve.bound):
            prod = 1.0
            for _ in range(n):
                for r in rates:
                    prod *= 1.0 - 1.25 * r
            worst = max(worst, abs(bound - (1.0 - prod)))
    # worked values
    r, _ = rb_to_process_infidelity(4, p=0.9867)
    worst = max(worst, abs(r - 0.0099750))
    _, ef = rb_to_process_infidelity(4, r=0.00908)
    worst = max(worst, abs(ef - 0.01135))
    worked = qcap_rb_curve([0.01], d=4, steps=[2]).bound[0]
    worst = max(worst, abs(worked - 0.02484375))
    report("criterion-1 formula-exactness", worst < 1e-12, f"max |diff| = {worst:.2e}")


# -------------------------------------------------------------------------
# 2. CB recovers a known depolarizing channel

def test_criterion_2_cb_recovers_depolarizing():
    lam = 0.02
    target = 15 / 16 * lam
    cycle = layout_cycles(1, 2)
    noise = NoiseModel(pauli_errors={"cnot": depolarizing_pauli_probs(lam, 2)})
    hits = 0
    zs = []
    for seed in range(100):
        est, _, _ = cb_process_infidelity(
            cycle, noise, m_list=(2, 10, 22), n_random=48, n_decays=16,
            shots=128, seed=seed,
        )
        zs.append((est.infidelity - target) / est.sigma)
        if abs(est.infidelity - target) <= 3 * est.sigma:
            hits += 1
    report(
        "criterion-2 cb-depolarizing",
        hits >= 95,
        f"{hits}/100 trials within 3 sigma of {target}; mean z = {np.mean(zs):+.2f}",
    )


# -------------------------------------------------------------------------
# 3. SPAM robustness

def test_criterion_3_spam_robustness():
    lam = 0.02
    cycle = layout_cycles(1, 2)
    clean = NoiseModel(pauli_errors={"cnot": depolarizing_pauli_probs(lam, 2)})
    spam = NoiseModel(
        pauli_errors={"cnot": depolarizing_pauli_probs(lam, 2)},
        readout={0: np.array([[0.95, 0.05], [0.05, 0.95]]),
                 1: np.array([[0.95, 0.05], [0.05, 0.95]])},
        prep_flip={0: 0.02, 1: 0.02},
    )
    total = 0
    within = 0
    for seed in range(100):
        coll = make_cb(cycle, (2, 10, 22), 16, 15, seed=seed)
        fits_clean = {
            f.pauli: f
            for f in fit_all_decays(
                execute_collection(coll, clean, 128), resamples=120, seed=seed
            )
        }
        fits_spam = {
            f.pauli: f
            for f in fit_all_decays(
                execute_collection(coll, spam, 128), resamples=120, seed=seed + 1
            )
        }
        for letters, fc in fits_clean.items():
            fs = fits_spam[letters]
            scale = math.sqrt(fc.decay_std**2 + fs.decay_std**2)
            total += 1
            if abs(fs.decay - fc.decay) < 3 * scale:
                within += 1
    frac = within / total
    report(
        "criterion-3 spam-robustness",
        frac >= 0.95,
        f"{within}/{total} decays shifted < 3 sigma ({frac:.1%})",
    )


# -------------------------------------------------------------------------
# 4. Coherent-error oracle equivalence

def coherent_oracle_infidelity(theta: float) -> float:
    """Twirled-composite infidelity from the brute-force transfer matrix.

    The unitary's Pauli fidelities (the twirled channel's diagonal) are
    composed along each frame orbit of the CNOT cycle; even-length sequences
    see the geometric mean of the orbit.
    """
    cycle = layout_cycles(1, 2)
    u = coherent_overrotation("ZZ", theta)
    fid = oracles.ptm_diagonal([u], 2)
    total = 0.0
    for s in all_pauli_letters(2):
        image = propagate_pauli(cycle, PauliString(s))
        total += math.sqrt(fid[s] * fid[image.letters])
    return 1.0 - (1.0 + total) / 16.0


def test_criterion_4_coherent_oracle():
    cycle = layout_cycles(1, 2)
    details = []
    ok = True
    for i, theta in enumerate((0.05, 0.1, 0.2)):
        noise = NoiseModel(cnot_rotation={"*": ("ZZ", theta)})
        est, _, _ = cb_process_infidelity(
            cycle, noise, m_list=(2, 10, 22), n_random=48, n_decays=15,
            shots=128, seed=300 + i,
        )
        target = coherent_oracle_infidelity(theta)
        z = (est.infidelity - target) / est.sigma
        details.append(f"theta={theta}: z={z:+.2f}")
        ok = ok and abs(z) <= 3
    report("criterion-4 coherent-oracle", ok, "; ".join(details))


# -------------------------------------------------------------------------
# 5. Circuit equivalence

def test_criterion_5_circuit_equivalence():
    worst_steps = None
    ok = True
    for steps in range(0, 7):
        params = TfimParams(sites=4, coupling=0.02, field=1.0, dt=10.0, steps=steps)
        u1 = circuit_unitary(build_tfim_circuit("circuit1", params))
        u2 = circuit_unitary(build_tfim_circuit("circuit2", params))
        if not equal_up_to_phase(u1, u2, 1e-9):
            ok = False
            worst_steps = steps
    report(
        "criterion-5 circuit-equivalence",
        ok,
        "unitaries equal up to phase for N <= 6" if ok else f"mismatch at N={worst_steps}",
    )


# -------------------------------------------------------------------------
# 6. Occupation dynamics against the dense Trotter oracle

def test_criterion_6_tfim_oracle():
    step = oracles.tfim_trotter_step(4, 0.02, 1.0, 10.0)
    vec = np.zeros(16, dtype=complex)
    vec[0b1000] = 1.0
    worst = 0.0
    executor = Executor((0, 1, 2, 3))
    init = StateVector.from_bits("1000")
    for n in range(1, 11):
        vec = step @ vec
        params = TfimParams(sites=4, coupling=0.02, field=1.0, dt=10.0, steps=n)
        circ = build_tfim_circuit("circuit1", params)
        state = executor.run(circ, initial=init)
        from cyclebench.circuits import occupation

        got = occupation(state, 1)
        want = oracles.occupation_from_vector(vec, 1, 4)
        worst = max(worst, abs(got - want))
    report("criterion-6 tfim-oracle", worst < 1e-9, f"max |n1 diff| = {worst:.2e}")


# -------------------------------------------------------------------------
# 7. Qualitative phenomenology on constructed scenarios

def test_criterion_7a_crosstalk_makes_rb_optimistic():
    noise = NoiseModel(
        pauli_errors={"cnot": depolarizing_pauli_probs(0.01, 2)},
        crosstalk=(
            CrosstalkTerm((0, 1), 2, 0.35),
            CrosstalkTerm((2, 3), 1, 0.35),
        ),
    )
    cb_ests = {}
    for cid, seed in ((1, 70), (3, 71)):
        est, _, _ = cb_process_infidelity(
            layout_cycles(1, cid), noise, m_list=(2, 6, 12), n_random=16,
            n_decays=20, shots=256, seed=seed,
        )
        cb_ests[cid] = est
    rates = []
    for pair, seed in (((0, 1), 72), ((1, 2), 73), ((2, 3), 74)):
        res = run_rb(pair, (2, 6, 12), 12, noise, shots=256, seed=seed)
        rates.append(res.error_rate)
    steps = list(range(0, 11))
    cb_curve = qcap_cb_curve(cb_ests, [1, 1, 3, 3], steps)
    rb_curve = qcap_rb_curve(
        [rates[0], rates[0], rates[2], rates[2], rates[1], rates[1]], d=4, steps=steps
    )
    gaps = [c - r for c, r in zip(cb_curve.bound[1:], rb_curve.bound[1:])]
    report(
        "criterion-7a crosstalk-visibility",
        all(g > 0 for g in gaps),
        f"min CB-RB gap over N=1..10 is {min(gaps):+.4f}",
    )


def test_criterion_7b_deeper_variant_bounds_higher():
    from cyclebench.bench import InfidelityEstimate

    ests = {
        cid: InfidelityEstimate(0.02, 0.001, "CB", f"cycle{cid}") for cid in (1, 2, 3, 4)
    }
    steps = list(range(0, 13))
    c1 = qcap_cb_curve(ests, [1, 1, 3, 3], steps, variant="circuit1")
    c2 = qcap_cb_curve(ests, [2, 2, 3, 3, 4, 4], steps, variant="circuit2")
    ok = all(b2 >= b1 for b1, b2 in zip(c1.bound, c2.bound)) and all(
        b2 > b1 for b1, b2 in zip(c1.bound[1:], c2.bound[1:])
    )
    report(
        "criterion-7b circuit2-deteriorates-faster",
        ok,
        f"bound gap at N=6: {c2.bound[6] - c1.bound[6]:+.4f}",
    )


@pytest.fixture(scope="module")
def drift_schedule_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_schedule")
    config = {
        "seed": 20240,
        "layout": 1,
        "variant": "circuit1",
        "out": str(tmp / "run1"),
        "resamples": 60,
        "drift_k": 3.0,
        "tfim": {"sites": 4, "coupling": 0.02, "field": 1.0, "dt": 10.0, "steps": 4},
        "cb": {"m_list": [2, 6, 12], "n_random": 8, "n_decays": 8, "shots": 128},
        "rb": {"m_list": [2, 6, 12], "n_random": 6, "shots": 128},
        "qcap": {"m_list": [2, 4, 8], "n_random": 6, "shots": 128, "n_decays": 8},
        "noise": {
            "t1": {0: 80.0, 1: 90.0, 2: 85.0, 3: 75.0},
            "t2": {0: 70.0, 1: 80.0, 2: 75.0, 3: 65.0},
            "readout_error": {0: 0.02, 1: 0.02, 2: 0.03, 3: 0.025},
            "pauli_errors": {"cnot": {"IX": 0.002, "XI": 0.002, "ZZ": 0.003}},
        },
        "schedule": {
            "epochs": [
                {"day": 1, "label": "morning"},
                {
                    "day": 1,
                    "label": "night",
                    "overrides": {
                        "pauli_errors": {"cnot:1-2": {"IX": 0.02, "XI": 0.02, "ZZ": 0.02}}
                    },
                },
            ]
        },
    }
    path = tmp / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    code1 = main(["schedule", "--config", str(path), "--out", str(tmp / "run1")])
    code2 = main(["schedule", "--config", str(path), "--out", str(tmp / "run2")])
    return tmp, code1, code2


def test_criterion_7c_drift_verdicts_exact(drift_schedule_run):
    tmp, code1, _ = drift_schedule_run
    assert code1 == 0
    text = (tmp / "run1" / "summary.txt").read_text()
    verdicts = {}
    for ln in text.splitlines():
        if " | " not in ln:
            continue
        parts = [p.strip() for p in ln.split("|")]
        verdicts[parts[1]] = parts[2]
    drifted = {k for k, v in verdicts.items() if v == "drift-detected"}
    expected = {"CB:cycle3", "RB:pair1-2"}
    report(
        "criterion-7c drift-verdicts",
        drifted == expected,
        f"drift-detected on {sorted(drifted)}; expected {sorted(expected)}",
    )


# -------------------------------------------------------------------------
# 8. Determinism of the full pipeline

def test_criterion_8_schedule_determinism(drift_schedule_run):
    tmp, code1, code2 = drift_schedule_run
    assert code1 == 0 and code2 == 0

    def digest(root):
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        return out

    da, db = digest(tmp / "run1"), digest(tmp / "run2")
    report(
        "criterion-8 determinism",
        da == db,
        f"{len(da)} files byte-identical across reruns",
    )
