"""The benchmark's workloads: inputs from a seed, one op, output checks.

Every workload derives op ``i``'s inputs from ``(workload seed, i)`` alone and
hands the package only those generated inputs.  An op is one call into the
package; ``check`` inspects what it produced and ``digest`` condenses it to a
SHA-256 so reruns can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import yaml

from cyclebench import bench, cli, pauli
from cyclebench.circuits import layout_cycles
from cyclebench.noise import NoiseModel, depolarizing_pauli_probs


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of op ``index``; a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def cb_circuit_count(n_qubits: int, m_list, n_random: int, n_decays: int) -> int:
    """Circuits in one CB collection; decay terms are capped at 4^n - 1."""
    return min(n_decays, 4**n_qubits - 1) * len(set(m_list)) * n_random


def rb_circuit_count(n_pairs: int, m_list, n_random: int) -> int:
    return n_pairs * len(set(m_list)) * n_random


def tree_digest(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class OpInput:
    seed: int
    workdir: Path  # empty directory the op may write into

    @property
    def config(self) -> Path:
        return self.workdir / "config.yaml"

    @property
    def out(self) -> Path:
        return self.workdir / "out"


@dataclass
class Workload:
    circuits_per_op: int
    warm_tables: Callable[[], None]
    make_input: Callable[[int, int, Path], OpInput]  # (seed, op index, empty dir)
    run: Callable[[OpInput], Any]
    check: Callable[[OpInput, Any], list[str]]
    digest: Callable[[OpInput, Any], str]


# ---------------------------------------------------------------------------
# cb2q-depol: the criterion-2 CB trial, stage by stage

CB2Q_LAMBDA = 0.02
CB2Q_TARGET = 15 / 16 * CB2Q_LAMBDA
CB2Q_M = (2, 10, 22)
CB2Q_N_RANDOM = 48
CB2Q_N_DECAYS = 16
CB2Q_SHOTS = 128
CB2Q_RESAMPLES = 200
# |estimate - 15/16 lambda| must stay within this many reported sigmas.  The
# largest |z| seen over ops 0-2 of seeds 0-19 was 3.16; 6 leaves room for
# the bootstrap sigma's heavier-than-normal tails while still catching an
# error-rate bias of about 25%.
CB2Q_SIGMAS = 6.0


def _cb2q() -> Workload:
    circuits = cb_circuit_count(2, CB2Q_M, CB2Q_N_RANDOM, CB2Q_N_DECAYS)
    cycle = layout_cycles(1, 2)
    noise = NoiseModel(pauli_errors={"cnot": depolarizing_pauli_probs(CB2Q_LAMBDA, 2)})

    def make_input(seed: int, index: int, workdir: Path) -> OpInput:
        return OpInput(op_seed("cb2q-depol", seed, index), workdir)

    def run(inp: OpInput):
        coll = bench.make_cb(
            cycle, CB2Q_M, CB2Q_N_RANDOM, CB2Q_N_DECAYS, twirl="pauli", seed=inp.seed
        )
        points = bench.execute_collection(coll, noise, CB2Q_SHOTS)
        fits = bench.fit_all_decays(points, resamples=CB2Q_RESAMPLES, seed=inp.seed)
        est = bench.estimate_process_infidelity(fits, len(coll.register), source="CB")
        return len(coll.circuits), points, fits, est

    def check(inp: OpInput, out) -> list[str]:
        n_circuits, points, fits, est = out
        problems = []
        if n_circuits != len(points) or n_circuits != circuits:
            problems.append(f"{len(points)} points for {circuits} circuits")
        if not finite(est.infidelity, est.sigma) or est.sigma <= 0:
            problems.append(f"estimate {est.infidelity} +- {est.sigma}")
        elif abs(est.infidelity - CB2Q_TARGET) > CB2Q_SIGMAS * est.sigma:
            problems.append(
                f"estimate {est.infidelity} +- {est.sigma} is more than "
                f"{CB2Q_SIGMAS} sigma from {CB2Q_TARGET}"
            )
        return problems

    def digest(inp: OpInput, out) -> str:
        _, points, fits, est = out
        h = hashlib.sha256()
        for p in points:
            h.update(repr(tuple(p)).encode())
        for f in fits:
            h.update(repr((f.pauli, f.amplitude, f.decay, f.decay_std)).encode())
        h.update(repr((est.infidelity, est.sigma)).encode())
        return h.hexdigest()

    return Workload(circuits, lambda: pauli.c1_count(), make_input, run, check, digest)


# ---------------------------------------------------------------------------
# Config-driven workloads run through the CLI

def _warm_clifford_tables() -> None:
    pauli.c1_count()
    pauli.clifford_group(1)
    pauli.clifford_group(2)


def _cli_workload(
    name: str, config: dict, argv: list[str], circuits: int,
    check: Callable[[OpInput, int], list[str]],
) -> Workload:
    """A workload whose op is one ``cli.main`` call on a generated config;
    ``argv`` is the subcommand and its options other than --config/--out."""

    def make_input(seed: int, index: int, workdir: Path) -> OpInput:
        inp = OpInput(op_seed(name, seed, index), workdir)
        inp.config.write_text(yaml.safe_dump({**config, "seed": inp.seed}, sort_keys=True))
        return inp

    def run(inp: OpInput) -> int:
        # The CLI reports what it wrote on stdout; keep the result line last.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, "--config", str(inp.config), "--out", str(inp.out)])

    def digest(inp: OpInput, rc: int) -> str:
        return tree_digest(inp.out)

    return Workload(circuits, _warm_clifford_tables, make_input, run, check, digest)


QCAP_CONFIG = {
    "layout": 1,
    "variant": "circuit1",
    "qcap": {"m_list": [2, 4, 16], "n_random": 30, "n_decays": 16, "shots": 128,
             "twirl": "c1"},
    "noise": {
        "cnot_rotation": {"*": ["ZZ", 0.05]},
        "crosstalk": [
            {"pair": [0, 1], "spectator": 2, "angle": 0.35},
            {"pair": [2, 3], "spectator": 1, "angle": 0.35},
        ],
    },
}
QCAP_STEPS = 10  # the config leaves tfim.steps at its default
QCAP_RB = {"m_list": (2, 10, 22), "n_random": 30}  # the config's RB defaults


def _qcap() -> Workload:
    def check(inp: OpInput, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        rows = read_rows(inp.out / "qcap.csv")
        curves: dict[str, dict[int, tuple[float, float]]] = {}
        for r in rows:
            curves.setdefault(r["source"], {})[int(r["steps"])] = (
                float(r["bound"]), float(r["sigma"])
            )
        problems = []
        if sorted(curves) != ["CB", "RB"] or any(
            sorted(c) != list(range(QCAP_STEPS + 1)) for c in curves.values()
        ):
            return [f"unexpected curves in qcap.csv: {sorted(curves)}"]
        for n in range(1, QCAP_STEPS + 1):
            if not curves["CB"][n][0] > curves["RB"][n][0]:
                problems.append(f"CB bound not above RB bound at N={n}")
        if not all(finite(b, s) for c in curves.values() for b, s in c.values()):
            problems.append("non-finite bound or sigma")
        return problems

    q = QCAP_CONFIG["qcap"]
    circuits = (
        cb_circuit_count(4, q["m_list"], q["n_random"], q["n_decays"])  # cycle 1
        + cb_circuit_count(2, q["m_list"], q["n_random"], q["n_decays"])  # cycle 3
        + rb_circuit_count(3, QCAP_RB["m_list"], QCAP_RB["n_random"])
    )
    return _cli_workload("qcap-c1-coherent", QCAP_CONFIG, ["qcap"], circuits, check)


# The README's example config; only the seed changes per op.
README_CONFIG = yaml.safe_load("""
layout: 2
variant: circuit1
out: results
tfim: {sites: 4, coupling: 0.02, field: 1.0, dt: 10.0, steps: 10}
cb:   {m_list: [2, 10, 22], n_random: 48, n_decays: 16, shots: 128, twirl: pauli}
rb:   {m_list: [2, 10, 22], n_random: 30, shots: 128}
qcap: {m_list: [2, 4, 16],  n_random: 30, shots: 128}
noise:
  t1: {6: 67.1, 7: 94.8, 12: 97.5, 11: 95.1}
  t2: {6: 99.9, 7: 86.8, 12: 88.5, 11: 71.6}
  readout_error: {6: 0.0254, 7: 0.0230, 12: 0.0313, 11: 0.0355}
  pauli_errors:
    cnot: {IX: 0.003, XI: 0.003, ZZ: 0.004}
    "cnot:7-12": {ZZ: 0.02}
    single_qubit: {X: 0.0002}
  cnot_rotation: {"*": [ZZ, 0.05]}
  crosstalk:
    - {pair: [6, 7], spectator: 12, angle: 0.08}
  durations: {single_qubit: 50, cnot: 300}
  prep_flip: {6: 0.0}
schedule:
  epochs:
    - {day: 1, label: morning}
    - {day: 1, label: night, overrides: {t2: {6: 40.0}}}
    - {day: 2, label: morning}
  walk: {t1: 0.05, t2: 0.05, prob: 0.0005, angle: 0.01, readout: 0.002}
drift_k: 1.0
resamples: 200
""")
EPOCH_DIR = "day1_night"


def _epoch_expected_rows() -> dict[str, int]:
    cfg = README_CONFIG
    cb = cfg["cb"]
    rows = {}
    for cid, n_qubits in ((1, 4), (2, 2), (3, 2), (4, 2)):
        terms = min(cb["n_decays"], 4**n_qubits - 1)
        rows[f"{EPOCH_DIR}/fits_cycle{cid}.csv"] = terms
        rows[f"{EPOCH_DIR}/decays_cycle{cid}.csv"] = cb_circuit_count(
            n_qubits, cb["m_list"], cb["n_random"], cb["n_decays"]
        )
    steps = cfg["tfim"]["steps"] + 1
    rows[f"{EPOCH_DIR}/estimates.csv"] = 4 + 3  # four cycles, three pairs
    rows[f"{EPOCH_DIR}/qcap.csv"] = 2 * steps
    rows[f"{EPOCH_DIR}/occupations.csv"] = steps * cfg["tfim"]["sites"]
    return rows


EPOCH_ROWS = _epoch_expected_rows()


def _epoch() -> Workload:
    def check(inp: OpInput, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        out = inp.out
        expected = {**EPOCH_ROWS, "summary.txt": None}
        found = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        if found != sorted(expected):
            return [f"output files {found}"]
        problems = []
        for name, n_rows in EPOCH_ROWS.items():
            got = len(read_rows(out / name))
            if got != n_rows:
                problems.append(f"{name}: {got} rows, expected {n_rows}")
        for r in read_rows(out / EPOCH_DIR / "estimates.csv"):
            e, s = float(r["infidelity"]), float(r["sigma"])
            if not (finite(e, s) and 0 <= e <= 1 and s > 0):
                problems.append(f"estimate {r['source']} {r['label']}: {e} +- {s}")
        return problems

    cfg = README_CONFIG
    circuits = (
        sum(EPOCH_ROWS[f"{EPOCH_DIR}/decays_cycle{cid}.csv"] for cid in (1, 2, 3, 4))
        + rb_circuit_count(3, cfg["rb"]["m_list"], cfg["rb"]["n_random"])
        + 2 * (cfg["tfim"]["steps"] + 1)  # noisy and ideal run per Trotter depth
    )
    return _cli_workload(
        "epoch-readme", README_CONFIG, ["schedule", "--epochs", "night"], circuits, check
    )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "cb2q-depol": _cb2q,
    "qcap-c1-coherent": _qcap,
    "epoch-readme": _epoch,
}
