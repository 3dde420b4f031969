"""Configuration-driven experiment runner.

One YAML config describes a layout, a Trotter circuit, a noise model with a
drift schedule, and the benchmark parameters.  ``schedule`` emulates the
multi-epoch measurement campaign: per epoch it resolves the drifted noise
model, cycle-benchmarks all four CNOT cycles, runs RB per CNOT pair, builds
both capacity curves, simulates the occupation dynamics, and writes
everything as CSV plus a drift summary.  Each analysis is also reachable in
isolation through its own subcommand.

Outputs never embed timestamps; re-running a config byte-identically
reproduces the output tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .bench import (
    InfidelityEstimate,
    RbResult,
    cb_process_infidelity,
    run_rb,
)
from .circuits import (
    CYCLE_IDS,
    CircuitError,
    TfimParams,
    VARIANTS,
    build_tfim_circuit,
    hard_cycle_ids_per_step,
    layout_cycles,
    layout_qubits,
    occupation,
)
from .engine import Executor
from .ingest import (
    SnapshotError,
    parse_backend_snapshot,
    read_estimates,
    write_curves,
    write_decays,
    write_estimates,
    write_fits,
)
from .noise import (
    EPOCH_LABELS,
    DriftEpoch,
    DriftSchedule,
    DriftScheduleError,
    NoiseModel,
    NoiseModelError,
    drift_params_at,
)
from .qcap import QcapCurve, compare_estimates, qcap_cb_curve, qcap_rb_curve
from .sim import rng_from


class ConfigError(ValueError):
    pass


_LABEL_ORDER = {label: i for i, label in enumerate(EPOCH_LABELS)}


@dataclass(frozen=True)
class BenchParams:
    m_list: tuple[int, ...]
    n_random: int
    shots: int
    n_decays: int = 16
    twirl: str = "pauli"

    def __post_init__(self):
        if len(set(self.m_list)) < 3:
            raise ConfigError("m_list needs at least three distinct lengths")
        if min(self.m_list) < 0:
            raise ConfigError(f"m_list lengths must be >= 0, got {min(self.m_list)}")
        if self.n_random < 1 or self.shots < 1 or self.n_decays < 1:
            raise ConfigError("n_random, shots and n_decays must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    layout: int
    variant: str
    tfim: TfimParams
    cb: BenchParams
    qcap: BenchParams
    rb: BenchParams
    noise: NoiseModel
    schedule: DriftSchedule
    out: str = "results"
    resamples: int = 200
    drift_k: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        layout_qubits(self.layout)


def _bench_params(data: Mapping, defaults: Mapping) -> BenchParams:
    merged = {**defaults, **(data or {})}
    return BenchParams(
        m_list=tuple(int(m) for m in merged["m_list"]),
        n_random=int(merged["n_random"]),
        shots=int(merged["shots"]),
        n_decays=int(merged.get("n_decays", 16)),
        twirl=str(merged.get("twirl", "pauli")),
    )


def config_from_dict(data: Mapping) -> ExperimentConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config must be a mapping")
    if "seed" not in data:
        raise ConfigError("config must set an explicit seed")
    try:
        noise = NoiseModel.from_dict(data.get("noise") or {})
        sched_data = data.get("schedule") or {}
        epochs = [
            DriftEpoch(
                day=int(e["day"]),
                label=str(e["label"]),
                overrides=e.get("overrides") or {},
            )
            for e in (sched_data.get("epochs") or [{"day": 1, "label": "morning"}])
        ]
        schedule = DriftSchedule(
            base=noise,
            epochs=tuple(epochs),
            walk={str(k): float(v) for k, v in (sched_data.get("walk") or {}).items()},
        )
        tf = data.get("tfim") or {}
        tfim = TfimParams(
            sites=int(tf.get("sites", 4)),
            coupling=float(tf.get("coupling", 0.02)),
            field=float(tf.get("field", 1.0)),
            dt=float(tf.get("dt", 10.0)),
            steps=int(tf.get("steps", 10)),
        )
        cb = _bench_params(
            data.get("cb"),
            {"m_list": (2, 10, 22), "n_random": 48, "shots": 128, "n_decays": 16},
        )
        # two published sequence lengths plus one short anchor so the
        # three-length fit contract holds
        qcap = _bench_params(
            data.get("qcap"),
            {"m_list": (2, 4, 16), "n_random": 30, "shots": 128,
             "n_decays": cb.n_decays, "twirl": cb.twirl},
        )
        rb = _bench_params(
            data.get("rb"),
            {"m_list": (2, 10, 22), "n_random": 30, "shots": 128},
        )
        return ExperimentConfig(
            seed=int(data["seed"]),
            layout=int(data.get("layout", 1)),
            variant=str(data.get("variant", "circuit1")),
            tfim=tfim,
            cb=cb,
            qcap=qcap,
            rb=rb,
            noise=noise,
            schedule=schedule,
            out=str(data.get("out", "results")),
            resamples=int(data.get("resamples", 200)),
            drift_k=float(data.get("drift_k", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    return config_from_dict(data or {})


def _child_seed(master: int, *path) -> int:
    return int(rng_from(master, *path).integers(0, 2**62))


# ---------------------------------------------------------------------------
# Building blocks shared by subcommands

def _layout_pairs(layout: int) -> list[tuple[int, int]]:
    a, b, c, d = layout_qubits(layout)
    return [(a, b), (b, c), (c, d)]


def _cycle_for_pairs(layout: int) -> dict[tuple[int, int], int]:
    """Cycle id measuring each adjacent pair alone."""
    pairs = _layout_pairs(layout)
    return {pairs[0]: 2, pairs[1]: 3, pairs[2]: 4}


def run_cb_all_cycles(
    config: ExperimentConfig,
    model: NoiseModel,
    params: BenchParams,
    seed_tag: str,
    day: int,
    label: str,
) -> tuple[dict[int, InfidelityEstimate], dict[int, list], dict[int, list]]:
    estimates, fits_by_cycle, points_by_cycle = {}, {}, {}
    for cid in CYCLE_IDS:
        cycle = layout_cycles(config.layout, cid)
        est, fits, points = cb_process_infidelity(
            cycle,
            model,
            m_list=params.m_list,
            n_random=params.n_random,
            n_decays=params.n_decays,
            shots=params.shots,
            twirl=params.twirl,
            seed=_child_seed(config.seed, seed_tag, day, label, cid),
            resamples=config.resamples,
            label=f"cycle{cid}",
        )
        estimates[cid] = est.tagged(day, label)
        fits_by_cycle[cid] = fits
        points_by_cycle[cid] = points
    return estimates, fits_by_cycle, points_by_cycle


def run_rb_all_pairs(
    config: ExperimentConfig,
    model: NoiseModel,
    day: int,
    label: str,
) -> dict[tuple[int, int], RbResult]:
    results = {}
    for pair in _layout_pairs(config.layout):
        results[pair] = run_rb(
            pair,
            m_list=config.rb.m_list,
            n_random=config.rb.n_random,
            noise=model,
            shots=config.rb.shots,
            seed=_child_seed(config.seed, "rb", day, label, pair[0], pair[1]),
            resamples=config.resamples,
            label=f"pair{pair[0]}-{pair[1]}",
        )
    return results


def build_curves(
    config: ExperimentConfig,
    cb_estimates: dict[int, InfidelityEstimate],
    rb_results: dict[tuple[int, int], RbResult],
) -> tuple[QcapCurve, QcapCurve]:
    steps = list(range(0, config.tfim.steps + 1))
    seq = hard_cycle_ids_per_step(config.variant)
    cb_curve = qcap_cb_curve(
        cb_estimates, seq, steps, variant=config.variant, layout=config.layout
    )
    rates, sigmas = [], []
    for cid in seq:
        cycle = layout_cycles(config.layout, cid)
        for pair in cycle.cnot_pairs():
            rb = rb_results[pair]
            rates.append(rb.error_rate)
            sigmas.append(rb.error_rate_std)
    rb_curve = qcap_rb_curve(
        rates, d=4, steps=steps, variant=config.variant, layout=config.layout,
        rate_sigmas=sigmas,
    )
    return cb_curve, rb_curve


def simulate_occupations(config: ExperimentConfig, model: NoiseModel | None) -> list[tuple]:
    """Occupation of every site after each Trotter step, noisy and ideal.

    The walker starts as a single particle on site 1.
    """
    register = layout_qubits(config.layout)
    rows = []
    ideal_exec = Executor(register, None)
    noisy_exec = Executor(register, model)
    n = config.tfim.sites
    init = "1" + "0" * (n - 1)
    from .sim import StateVector

    start = StateVector.from_bits(init)
    for step in range(0, config.tfim.steps + 1):
        params = TfimParams(
            sites=config.tfim.sites,
            coupling=config.tfim.coupling,
            field=config.tfim.field,
            dt=config.tfim.dt,
            steps=step,
        )
        circuit = build_tfim_circuit(config.variant, params, config.layout)
        noisy = noisy_exec.run(circuit, initial=start)
        ideal = ideal_exec.run(circuit, initial=start)
        for site in range(1, n + 1):
            rows.append(
                (
                    step,
                    step * config.tfim.dt,
                    site,
                    occupation(noisy, site),
                    occupation(ideal, site),
                )
            )
    return rows


def _write_occupations(path, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "time", "site", "occupation", "ideal_occupation"])
        for row in rows:
            writer.writerow([row[0], repr(float(row[1])), row[2],
                             repr(float(row[3])), repr(float(row[4]))])


# ---------------------------------------------------------------------------
# Drift verdicts: a pure function of the emitted estimates

@dataclass(frozen=True)
class VerdictRow:
    from_epoch: str
    to_epoch: str
    label: str
    verdict: str
    delta: float
    threshold: float


def drift_verdicts(
    epoch_estimates: Sequence[tuple[tuple[int, str], Sequence[InfidelityEstimate]]],
    k: float = 1.0,
) -> list[VerdictRow]:
    """Compare matching labels across consecutive epochs."""
    rows = []
    for (key_a, ests_a), (key_b, ests_b) in zip(epoch_estimates, epoch_estimates[1:]):
        by_label_a = {(e.source, e.label): e for e in ests_a}
        by_label_b = {(e.source, e.label): e for e in ests_b}
        for skey in sorted(set(by_label_a) & set(by_label_b)):
            a, b = by_label_a[skey], by_label_b[skey]
            verdict = compare_estimates(a, b, k)
            rows.append(
                VerdictRow(
                    from_epoch=f"day{key_a[0]}:{key_a[1]}",
                    to_epoch=f"day{key_b[0]}:{key_b[1]}",
                    label=f"{skey[0]}:{skey[1]}",
                    verdict=verdict,
                    delta=abs(a.infidelity - b.infidelity),
                    threshold=k * (a.sigma + b.sigma),
                )
            )
    return rows


def _verdict_lines(rows: Sequence[VerdictRow]) -> list[str]:
    return [
        f"{r.from_epoch} -> {r.to_epoch} | {r.label} | {r.verdict} | "
        f"delta={repr(r.delta)} threshold={repr(r.threshold)}"
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Subcommand implementations

def _epoch_dir(out: Path, day: int, label: str) -> Path:
    return out / f"day{day}_{label}"


def run_schedule(config: ExperimentConfig, out: Path | None = None,
                 epochs_filter: str | None = None) -> Path:
    """Execute the full multi-epoch pipeline and return the bundle root."""
    out = Path(out) if out is not None else Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    epoch_estimates = []
    summary: list[str] = ["schedule summary", "================", ""]
    for epoch in config.schedule.epochs:
        if epochs_filter and epoch.label != epochs_filter:
            continue
        day, label = epoch.day, epoch.label
        model = drift_params_at(config.schedule, day, label, config.seed)
        edir = _epoch_dir(out, day, label)
        edir.mkdir(parents=True, exist_ok=True)

        cb_ests, fits_by_cycle, points_by_cycle = run_cb_all_cycles(
            config, model, config.cb, "cb", day, label
        )
        for cid in CYCLE_IDS:
            write_decays(edir / f"decays_cycle{cid}.csv", points_by_cycle[cid])
            write_fits(edir / f"fits_cycle{cid}.csv", fits_by_cycle[cid])

        rb_results = run_rb_all_pairs(config, model, day, label)
        estimates = [cb_ests[cid] for cid in CYCLE_IDS] + [
            rb_results[p].estimate.tagged(day, label) for p in _layout_pairs(config.layout)
        ]
        write_estimates(edir / "estimates.csv", estimates)

        cb_curve, rb_curve = build_curves(config, cb_ests, rb_results)
        write_curves(edir / "qcap.csv", [cb_curve, rb_curve])

        occ_rows = simulate_occupations(config, model)
        _write_occupations(edir / "occupations.csv", occ_rows)

        epoch_estimates.append(((day, label), estimates))
        summary.append(f"[day {day} {label}]")
        for est in estimates:
            summary.append(
                f"{est.source} {est.label} infidelity={repr(est.infidelity)} "
                f"sigma={repr(est.sigma)}"
            )
        for curve in (cb_curve, rb_curve):
            crossing = curve.first_step_above()
            summary.append(
                f"QCAP_{curve.source} exceeds 0.5 at N="
                f"{crossing if crossing is not None else 'never'}"
            )
        summary.append("")

    rows = drift_verdicts(epoch_estimates, k=config.drift_k)
    summary.append(f"drift verdicts (k={repr(config.drift_k)})")
    summary.append("======================")
    summary.extend(_verdict_lines(rows))
    summary.append("")
    (out / "summary.txt").write_text("\n".join(summary))
    print(f"wrote {len(epoch_estimates)} epoch bundle(s) under {out}")
    return out


def cmd_schedule(config: ExperimentConfig, out: Path, epochs_filter: str | None) -> int:
    run_schedule(config, out, epochs_filter)
    return 0


def cmd_simulate(config: ExperimentConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    epoch = config.schedule.epochs[0]
    model = drift_params_at(config.schedule, epoch.day, epoch.label, config.seed)
    rows = simulate_occupations(config, model)
    _write_occupations(out / "occupations.csv", rows)
    print(f"wrote {out / 'occupations.csv'}")
    return 0


def cmd_cb(config: ExperimentConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    epoch = config.schedule.epochs[0]
    model = drift_params_at(config.schedule, epoch.day, epoch.label, config.seed)
    ests, fits_by_cycle, points_by_cycle = run_cb_all_cycles(
        config, model, config.cb, "cb", epoch.day, epoch.label
    )
    for cid in CYCLE_IDS:
        write_decays(out / f"decays_cycle{cid}.csv", points_by_cycle[cid])
        write_fits(out / f"fits_cycle{cid}.csv", fits_by_cycle[cid])
    write_estimates(out / "estimates.csv", [ests[cid] for cid in CYCLE_IDS])
    print(f"wrote CB results for cycles {list(CYCLE_IDS)} under {out}")
    return 0


def cmd_rb(config: ExperimentConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    epoch = config.schedule.epochs[0]
    model = drift_params_at(config.schedule, epoch.day, epoch.label, config.seed)
    results = run_rb_all_pairs(config, model, epoch.day, epoch.label)
    write_estimates(
        out / "estimates.csv",
        [results[p].estimate.tagged(epoch.day, epoch.label) for p in _layout_pairs(config.layout)],
    )
    print(f"wrote RB results for {len(results)} pairs under {out}")
    return 0


def cmd_qcap(config: ExperimentConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    epoch = config.schedule.epochs[0]
    model = drift_params_at(config.schedule, epoch.day, epoch.label, config.seed)
    needed = sorted(set(hard_cycle_ids_per_step(config.variant)))
    cb_ests = {}
    for cid in needed:
        cycle = layout_cycles(config.layout, cid)
        est, _, _ = cb_process_infidelity(
            cycle,
            model,
            m_list=config.qcap.m_list,
            n_random=config.qcap.n_random,
            n_decays=config.qcap.n_decays,
            shots=config.qcap.shots,
            twirl=config.qcap.twirl,
            seed=_child_seed(config.seed, "qcap", epoch.day, epoch.label, cid),
            resamples=config.resamples,
            label=f"cycle{cid}",
        )
        cb_ests[cid] = est.tagged(epoch.day, epoch.label)
    rb_results = run_rb_all_pairs(config, model, epoch.day, epoch.label)
    cb_curve, rb_curve = build_curves(config, cb_ests, rb_results)
    write_curves(out / "qcap.csv", [cb_curve, rb_curve])
    print(f"wrote capacity curves to {out / 'qcap.csv'}")
    return 0


def cmd_report(out: Path, k: float) -> int:
    found = []
    for sub in out.iterdir() if out.is_dir() else []:
        if not sub.is_dir() or not sub.name.startswith("day"):
            continue
        day_part, _, label = sub.name.partition("_")
        if label not in _LABEL_ORDER:
            continue
        est_path = sub / "estimates.csv"
        if est_path.exists():
            found.append(((int(day_part[3:]), label), read_estimates(est_path)))
    if not found:
        print(f"no epoch estimate files under {out}", file=sys.stderr)
        return 1
    found.sort(key=lambda item: (item[0][0], _LABEL_ORDER[item[0][1]]))
    rows = drift_verdicts(found, k=k)
    for line in _verdict_lines(rows):
        print(line)
    return 0


def cmd_ingest(path: Path) -> int:
    text = path.read_text()
    snap = parse_backend_snapshot(text)
    print(
        f"snapshot day={snap.day} epoch={snap.epoch} "
        f"pair_convention={snap.pair_convention}"
    )
    for q in snap.qubits:
        print(
            f"qubit {q.qubit} t1={q.t1_us} t2={q.t2_us} ro={q.readout_error} "
            f"u2={q.u2_error} u3={q.u3_error}"
        )
    for p in snap.pairs:
        print(f"pair {p.pair[0]} {p.pair[1]} err={p.error} ({p.convention})")
    return 0


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclebench",
        description="noisy-simulator benchmarking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "Trotterised occupation dynamics"),
        ("cb", "cycle-benchmark the four layout cycles"),
        ("rb", "randomized benchmarking per CNOT pair"),
        ("qcap", "capacity curves from CB and RB"),
        ("schedule", "full multi-epoch pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if name == "schedule":
            p.add_argument("--epochs", default=None, help="only run epochs with this label")
    p = sub.add_parser("report", help="recompute drift verdicts from estimate CSVs")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=float, default=1.0)
    p = sub.add_parser("ingest", help="parse a backend snapshot file")
    p.add_argument("path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(Path(args.out), args.k)
        if args.command == "ingest":
            return cmd_ingest(Path(args.path))
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=int(args.seed))
        out = Path(args.out) if args.out else Path(config.out)
        if args.command == "schedule":
            return cmd_schedule(config, out, args.epochs)
        if args.command == "simulate":
            return cmd_simulate(config, out)
        if args.command == "cb":
            return cmd_cb(config, out)
        if args.command == "rb":
            return cmd_rb(config, out)
        if args.command == "qcap":
            return cmd_qcap(config, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, NoiseModelError, DriftScheduleError, CircuitError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
