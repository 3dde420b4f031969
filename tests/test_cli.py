import hashlib
from pathlib import Path

import pytest
import yaml

from cyclebench.cli import (
    ConfigError,
    config_from_dict,
    drift_verdicts,
    load_config,
    main,
)
from cyclebench.ingest import read_curves, read_decays, read_estimates


def base_config(out: str, **extra) -> dict:
    cfg = {
        "seed": 7,
        "layout": 1,
        "variant": "circuit1",
        "out": out,
        "resamples": 40,
        "tfim": {"sites": 4, "coupling": 0.02, "field": 1.0, "dt": 10.0, "steps": 4},
        "cb": {"m_list": [2, 5, 10], "n_random": 4, "n_decays": 4, "shots": 96},
        "rb": {"m_list": [2, 5, 10], "n_random": 3, "shots": 96},
        "qcap": {"m_list": [2, 4, 8], "n_random": 3, "shots": 96},
        "noise": {
            "pauli_errors": {"cnot": {"IX": 0.004, "ZZ": 0.004}},
        },
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"layout": 1})

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "variant": "circuit9"})

    def test_short_m_list(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, "cb": {"m_list": [2, 4], "n_random": 2, "shots": 8}})

    def test_defaults_fill_in(self):
        cfg = config_from_dict({"seed": 3})
        assert cfg.cb.m_list == (2, 10, 22)
        assert cfg.cb.n_random == 48 and cfg.cb.shots == 128
        assert cfg.qcap.m_list == (2, 4, 16)
        assert cfg.schedule.epochs[0].key == (1, "morning")

    @pytest.mark.parametrize(
        "section, params",
        [
            ("cb", {"m_list": [2, 10, -3], "n_random": 4, "shots": 8}),
            ("qcap", {"m_list": [2, 4, 8], "n_random": 4, "shots": 8, "n_decays": 0}),
            ("rb", {"m_list": [2, 4, 8], "n_random": 0, "shots": 8}),
        ],
    )
    def test_bad_lengths_and_counts(self, section, params):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": 1, section: params})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")


class TestCliExitCodes:
    def test_bad_config_returns_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("layout: 1\n")
        assert main(["schedule", "--config", str(path)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_config_returns_one(self, tmp_path):
        assert main(["cb", "--config", str(tmp_path / "none.yaml")]) == 1

    def test_report_without_estimates_returns_one(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 1

    def test_nan_t1_returns_one(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["noise"]["t1"] = {0: float("nan")}
        assert main(["cb", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "T1(0)" in capsys.readouterr().err

    def test_negative_length_returns_one(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["cb"]["m_list"] = [2, 10, -3]
        assert main(["cb", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "m_list" in capsys.readouterr().err

    def test_ingest_round(self, tmp_path, capsys):
        snap = tmp_path / "snap.txt"
        snap.write_text(
            "snapshot day=1 epoch=morning pair_convention=raw-r\n"
            "qubit 6 t1=67.1 t2=99.9 ro=0.0254 u2=2.87e-4 u3=5.74e-4\n"
            "pair 6 7 err=0.0125\n"
        )
        assert main(["ingest", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "qubit 6" in out and "raw-r" in out

    def test_ingest_malformed_returns_one(self, tmp_path, capsys):
        snap = tmp_path / "snap.txt"
        snap.write_text("pair 6 seven err=0.1\n")
        assert main(["ingest", str(snap)]) == 1


@pytest.fixture(scope="module")
def schedule_run(tmp_path_factory):
    """One small two-epoch schedule shared by the CLI assertions."""
    tmp_path = tmp_path_factory.mktemp("sched")
    cfg = base_config(
        str(tmp_path / "out"),
        schedule={
            "epochs": [
                {"day": 1, "label": "morning"},
                {
                    "day": 2,
                    "label": "morning",
                    "overrides": {
                        "pauli_errors": {"cnot:1-2": {"IX": 0.05, "ZZ": 0.05}}
                    },
                },
            ]
        },
        drift_k=3.0,
    )
    path = write_config(tmp_path, cfg)
    code = main(["schedule", "--config", str(path)])
    return code, tmp_path / "out", path


class TestSchedule:
    def test_exit_zero(self, schedule_run):
        code, _, _ = schedule_run
        assert code == 0

    def test_epoch_bundles_written(self, schedule_run):
        _, out, _ = schedule_run
        for epoch in ("day1_morning", "day2_morning"):
            edir = out / epoch
            for cid in (1, 2, 3, 4):
                assert (edir / f"decays_cycle{cid}.csv").exists()
                assert (edir / f"fits_cycle{cid}.csv").exists()
            assert (edir / "estimates.csv").exists()
            assert (edir / "qcap.csv").exists()
            assert (edir / "occupations.csv").exists()
        assert (out / "summary.txt").exists()

    def test_estimates_cover_cycles_and_pairs(self, schedule_run):
        _, out, _ = schedule_run
        ests = read_estimates(out / "day1_morning" / "estimates.csv")
        labels = {(e.source, e.label) for e in ests}
        assert {("CB", f"cycle{c}") for c in (1, 2, 3, 4)} <= labels
        assert {("RB", "pair0-1"), ("RB", "pair1-2"), ("RB", "pair2-3")} <= labels

    def test_decay_table_shape(self, schedule_run):
        _, out, _ = schedule_run
        rows = read_decays(out / "day1_morning" / "decays_cycle2.csv")
        assert len(rows) == 4 * 3 * 4  # decays x lengths x randomisations

    def test_curves_present_and_anchored_at_zero(self, schedule_run):
        _, out, _ = schedule_run
        curves = {c.source: c for c in read_curves(out / "day1_morning" / "qcap.csv")}
        assert set(curves) == {"CB", "RB"}
        for c in curves.values():
            assert c.steps[0] == 0 and c.bound[0] == 0.0
            assert all(b2 >= b1 for b1, b2 in zip(c.bound, c.bound[1:]))

    def test_drift_flagged_exactly_on_perturbed_middle_pair(self, schedule_run):
        _, out, _ = schedule_run
        text = (out / "summary.txt").read_text()
        lines = [ln for ln in text.splitlines() if " | " in ln]
        verdicts = {}
        for ln in lines:
            parts = [p.strip() for p in ln.split("|")]
            verdicts[parts[1]] = parts[2]
        assert verdicts["CB:cycle3"] == "drift-detected"
        assert verdicts["RB:pair1-2"] == "drift-detected"
        for label in ("CB:cycle1", "CB:cycle2", "CB:cycle4", "RB:pair0-1", "RB:pair2-3"):
            assert verdicts[label] == "consistent", label

    def test_report_reproduces_summary_verdicts(self, schedule_run, capsys):
        _, out, _ = schedule_run
        assert main(["report", "--out", str(out), "--k", "3.0"]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        summary_lines = [
            ln for ln in (out / "summary.txt").read_text().splitlines() if " | " in ln
        ]
        assert printed == summary_lines

    def test_occupations_track_ideal_when_noise_is_small(self, schedule_run):
        _, out, _ = schedule_run
        rows = (out / "day1_morning" / "occupations.csv").read_text().splitlines()[1:]
        for row in rows:
            step, time, site, occ, ideal = row.split(",")
            assert 0.0 <= float(occ) <= 1.0
            if step == "0":
                assert float(occ) == pytest.approx(float(ideal), abs=1e-12)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_config(str(tmp_path / "a"))
        cfg["cb"] = {"m_list": [2, 4, 8], "n_random": 2, "n_decays": 3, "shots": 32}
        cfg["rb"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 32}
        cfg["tfim"]["steps"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["schedule", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["schedule", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = base_config(str(tmp_path / "a"))
        cfg["cb"] = {"m_list": [2, 4, 8], "n_random": 2, "n_decays": 3, "shots": 32}
        cfg["rb"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 32}
        cfg["tfim"]["steps"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["cb", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(
            ["cb", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "99"]
        ) == 0
        da = (tmp_path / "a" / "estimates.csv").read_bytes()
        db = (tmp_path / "b" / "estimates.csv").read_bytes()
        assert da != db


class TestZeroNoiseEpoch:
    def test_everything_flat_at_zero(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["noise"] = {}
        cfg["cb"] = {"m_list": [2, 4, 8], "n_random": 2, "n_decays": 3, "shots": 64}
        cfg["rb"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 64}
        cfg["tfim"]["steps"] = 3
        path = write_config(tmp_path, cfg)
        assert main(["schedule", "--config", str(path)]) == 0
        out = tmp_path / "out"
        ests = read_estimates(out / "day1_morning" / "estimates.csv")
        for est in ests:
            assert est.infidelity == pytest.approx(0.0, abs=1e-9)
        curves = read_curves(out / "day1_morning" / "qcap.csv")
        for curve in curves:
            assert all(abs(b) < 1e-9 for b in curve.bound)
        rows = (out / "day1_morning" / "occupations.csv").read_text().splitlines()[1:]
        for row in rows:
            _, _, _, occ, ideal = row.split(",")
            assert float(occ) == pytest.approx(float(ideal), abs=1e-9)


class TestEpochFilter:
    def test_schedule_epoch_label_filter(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["cb"] = {"m_list": [2, 4, 8], "n_random": 2, "n_decays": 3, "shots": 32}
        cfg["rb"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 32}
        cfg["tfim"]["steps"] = 1
        cfg["schedule"] = {
            "epochs": [
                {"day": 1, "label": "morning"},
                {"day": 1, "label": "night"},
            ]
        }
        path = write_config(tmp_path, cfg)
        assert main(["schedule", "--config", str(path), "--epochs", "night"]) == 0
        out = tmp_path / "out"
        assert (out / "day1_night").exists()
        assert not (out / "day1_morning").exists()


class TestStandaloneCommands:
    def test_simulate(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["tfim"]["steps"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "occupations.csv").read_text()
        assert text.startswith("step,time,site,occupation,ideal_occupation")

    def test_rb_and_qcap(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"))
        cfg["rb"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 32}
        cfg["qcap"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 32, "n_decays": 3}
        cfg["tfim"]["steps"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["rb", "--config", str(path)]) == 0
        ests = read_estimates(tmp_path / "out" / "estimates.csv")
        assert {e.label for e in ests} == {"pair0-1", "pair1-2", "pair2-3"}
        assert main(["qcap", "--config", str(path)]) == 0
        curves = read_curves(tmp_path / "out" / "qcap.csv")
        assert {c.source for c in curves} == {"CB", "RB"}
