import contextlib
import hashlib
import importlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench.circuits import CircuitError

from cyclebench.cli import (
    ConfigError,
    VerdictRow,
    _verdict_lines,
    _write_occupations,
    config_from_dict,
    drift_verdicts,
    load_config,
    main,
    simulate_occupations,
)
from cyclebench.ingest import read_curves, read_decays, read_estimates
from cyclebench.noise import DriftScheduleError, NoiseModelError

import oracles


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

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"resamples": 1}, "resamples"),
            ({"resamples": -3}, "resamples"),
            ({"drift_k": float("nan")}, "drift_k"),
            ({"drift_k": float("inf")}, "drift_k"),
            ({"drift_k": -1.0}, "drift_k"),
        ],
    )
    def test_bad_bootstrap_and_drift_settings(self, extra, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict({"seed": 1, **extra})

    def test_zero_resamples_and_zero_k_allowed(self):
        cfg = config_from_dict({"seed": 1, "resamples": 0, "drift_k": 0.0})
        assert (cfg.resamples, cfg.drift_k) == (0, 0.0)

    @pytest.mark.parametrize("seed", [-1, 1.7, True, "3"], ids=["negative", "float", "bool", "str"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": seed})

    @pytest.mark.parametrize("section", ["cb", "qcap", "rb"])
    @pytest.mark.parametrize(
        "params, named",
        [
            ({"m_list": [2, 4]}, "m_list needs at least three distinct sequence lengths"),
            ({"m_list": [2, 10, -3]}, "m_list lengths must be >= 0, got -3"),
            ({"n_random": 0}, "n_random must be >= 1, got 0"),
            ({"shots": 0}, "shots and n_decays must be positive"),
        ],
        ids=["m_list-short", "m_list-negative", "n_random-zero", "shots-zero"],
    )
    def test_range_error_names_its_section(self, section, params, named):
        with pytest.raises(ConfigError, match=re.escape(f"{section}: {named}")):
            config_from_dict({"seed": 1, section: params})

    @pytest.mark.parametrize("section", ["cb", "qcap"])
    def test_unknown_twirl(self, section):
        with pytest.raises(ConfigError, match=f"{section}: twirl"):
            config_from_dict({"seed": 1, section: {"twirl": "foo"}})

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
        assert "t1[0]" in capsys.readouterr().err

    def test_nan_rotation_angle_returns_one(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["noise"]["cnot_rotation"] = {"*": ["ZZ", float("nan")]}
        assert main(["cb", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "cnot_rotation[*] angle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("noise", "cnot_rotation", {"*": ["QQ", 0.05]}, "cnot_rotation(*) axis 'QQ'"),
            ("noise", "cnot_rotation", {"*": ["ZZZ", 0.05]}, "cnot_rotation(*) axis 'ZZZ'"),
            ("noise", "cnot_rotation", {"*": ["II", 0.05]}, "cnot_rotation(*) axis 'II'"),
            ("noise", "pauli_errors", {"single_qubit": {"XX": 0.01}}, "'XX' in single_qubit"),
            ("noise", "pauli_errors", {"cnot": {"X": 0.01}}, "'X' in cnot"),
            ("noise", "pauli_errors", {"cnott": {"XX": 0.01}}, "'cnott'"),
            ("noise", "readout", {0: 0.1}, "readout in noise"),
            ("tfim", "step", 3, "step in tfim"),
            (None, "layot", 2, "layot in config"),
        ],
        ids=["axis-QQ", "axis-ZZZ", "axis-II", "single-XX", "cnot-X", "class-cnott",
             "noise-readout", "tfim-step", "layot"],
    )
    def test_malformed_or_unknown_key_returns_one(self, tmp_path, capsys, section, key, value,
                                                  named):
        """Each of these exited 0 or 2 before its key was checked on entry."""
        cfg = base_config(str(tmp_path / "out"))
        (cfg[section] if section else cfg)[key] = value
        assert main(["cb", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, override, named",
        [
            ("rb", {"seed": -1}, [], "seed"),
            ("rb", {"seed": 1.7}, [], "seed"),
            ("rb", {"seed": True}, [], "seed"),
            ("rb", {}, ["--seed", "-1"], "seed"),
            ("cb", {"cb": {"twirl": "foo"}}, [], "cb: twirl"),
            ("rb", {"cb": {"twirl": "foo"}}, [], "cb: twirl"),
            ("qcap", {"qcap": {"twirl": "foo"}}, [], "qcap: twirl"),
            ("cb", {"noise": {"pauli_errors": [1]}}, [], "pauli_errors must be a mapping"),
            ("cb", {"cb": {"m_list": [0.5, 1.5, 2.5], "n_random": 2, "shots": 8}}, [],
             "cb.m_list[0] must be an int"),
            ("cb", {"cb": {"n_random": 2.5}}, [], "cb.n_random must be an int"),
            ("rb", {"layout": 1.5}, [], "layout must be an int"),
            ("simulate", {"tfim": {"steps": True}}, [], "tfim.steps must be an int"),
            ("simulate", {"tfim": {"dt": "10"}}, [], "tfim.dt must be a finite float"),
            ("simulate", {"tfim": {"sites": 3}}, [], "3 sites"),
            ("rb", {"resamples": 200.0}, [], "resamples must be an int"),
            ("rb", {"out": 3}, ["--out", "OUT"], "out must be a str"),
            ("schedule", {"schedule": {"epochs": [{"day": 1.5, "label": "morning"}]}}, [],
             "schedule.epochs[0].day must be an int"),
            ("schedule", {"schedule": {"walk": {"t1": float("nan")}}}, [],
             "schedule.walk.t1 must be a finite float"),
            ("cb", {"noise": {"crosstalk": [{"pair": [0], "spectator": 2, "angle": 0.1}]}}, [],
             "crosstalk pair (0,) must be two qubits"),
            ("simulate", {"noise": {"t1": {0: 50.0}}, "schedule": {"walk": {"t1": -1}}}, [],
             "walk t1 = -1.0 must be finite and >= 0"),
            ("schedule", {"noise": {"pauli_errors": {"cnot": {"ZZ": 0.01}}},
                          "schedule": {"walk": {"prob": float("inf")}}}, [],
             "schedule.walk.prob must be a finite float"),
            ("rb", {"noise": {"readout_error": {0: True}}}, [],
             "readout_error[0] must be a finite float, got bool"),
            ("simulate", {"noise": {"t1": {0: "50"}}}, [], "t1[0] must be a finite float"),
            ("simulate", {"noise": {"t1": {0.7: 50.0}}}, [], "t1 key must be an int"),
            ("simulate", {"noise": {"t2": {1: 50.0}}, "schedule": {"epochs": [
                {"day": 1, "label": "morning", "overrides": {"t2": {True: 40.0}}}]}}, [],
             "t2 override key must be an int, got bool"),
            ("cb", {"noise": {"crosstalk": [{"spectator": 2, "angle": 0.1}]}}, [],
             "crosstalk[0].pair must be set"),
            ("cb", {"noise": {"cnot_rotation": {"*": ["ZZ"]}}}, [], "cnot_rotation[*] must be"),
            ("cb", {"noise": {"cnot_rotation": {"*": "ZZ"}}}, [], "cnot_rotation[*] must be"),
            ("cb", {"noise": {"cnot_rotation": {"*": {"axis": "ZZ"}}}}, [],
             "cnot_rotation[*] angle must be set"),
        ],
        ids=["seed-negative", "seed-float", "seed-bool", "seed-override", "cb-twirl",
             "rb-cb-twirl", "qcap-twirl", "noise-list", "m_list-float", "n_random-float",
             "layout-float", "steps-bool", "dt-str", "sites-3", "resamples-float", "out-int",
             "epoch-day-float", "walk-nan", "crosstalk-pair-short", "walk-negative",
             "walk-inf", "readout-bool", "t1-str", "t1-label-float", "override-label-bool",
             "crosstalk-no-pair", "rotation-one-item", "rotation-str", "rotation-no-angle"],
    )
    def test_bad_value_returns_one_before_any_output(self, tmp_path, capsys, command, extra,
                                                     override, named):
        """Each of these exited 2 or ran silently before it was checked at load."""
        cfg = {**base_config(str(tmp_path / "out")), **extra}
        path = write_config(tmp_path, cfg)
        override = [str(tmp_path / "out") if arg == "OUT" else arg for arg in override]
        assert main([command, "--config", str(path), *override]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_drift_override_returns_one_before_any_epoch(self, tmp_path, capsys):
        """A later epoch's bad override is found at config load, before the
        first epoch's bundle is written."""
        night = {"day": 1, "label": "night",
                 "overrides": {"pauli_errors": {"cnott": {"XX": 0.02}}}}
        cfg = base_config(str(tmp_path / "out"),
                          schedule={"epochs": [{"day": 1, "label": "morning"}, night]})
        assert main(["schedule", "--config", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert "(1, 'night')" in err and "'cnott'" in err
        assert not list((tmp_path / "out").glob("day*"))

    def test_negative_length_returns_one(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["cb"]["m_list"] = [2, 10, -3]
        assert main(["cb", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "m_list" in capsys.readouterr().err

    def test_bad_resamples_returns_one(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"), resamples=1)
        assert main(["cb", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "resamples" in capsys.readouterr().err

    def test_report_with_nan_sigma_returns_one(self, tmp_path, capsys):
        for label in ("morning", "night"):
            epoch = tmp_path / f"day1_{label}"
            epoch.mkdir()
            (epoch / "estimates.csv").write_text(
                "source,label,day,epoch,infidelity,sigma\n"
                f"CB,cycle1,1,{label},0.02,{'nan' if label == 'night' else '0.001'}\n"
            )
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "day1_night" in err and "column sigma" in err

    def test_report_with_non_numeric_cell_returns_one(self, tmp_path, capsys):
        epoch = tmp_path / "day1_morning"
        epoch.mkdir()
        (epoch / "estimates.csv").write_text(
            "source,label,day,epoch,infidelity,sigma\nCB,cycle1,1,morning,high,0.001\n"
        )
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "column infidelity" in capsys.readouterr().err

    def test_report_skips_directories_that_are_not_epoch_bundles(self, tmp_path, capsys):
        for name in ("day1_morning", "day1_night"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "estimates.csv").write_text(
                f"source,label,day,epoch,infidelity,sigma\nCB,cycle1,1,{name[5:]},0.02,0.001\n"
            )
        assert main(["report", "--out", str(tmp_path)]) == 0
        expected = capsys.readouterr().out
        for stray in ("dayX_morning", "day_morning", "day1x_night"):
            (tmp_path / stray).mkdir()
            (tmp_path / stray / "estimates.csv").write_text(
                (tmp_path / "day1_night" / "estimates.csv").read_text()
            )
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("k", ["nan", "-1"])
    def test_report_with_bad_k_returns_one(self, tmp_path, capsys, k):
        assert main(["report", "--out", str(tmp_path), "--k", k]) == 1
        assert "--k" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv",
        [["rb", "--config", "c.yaml", "--seed", "1.7"], ["report", "--out", ".", "--k", "x"],
         ["cb"], ["calibrate"]],
        ids=["seed-float", "k-str", "no-config", "unknown-command"],
    )
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"qubit 0 t1=\xff\n"], ids=["directory", "binary"])
    def test_ingest_unreadable_returns_one(self, tmp_path, capsys, content):
        path = tmp_path / "snap"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["ingest", str(path)]) == 1
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_ingest_malformed_returns_one(self, tmp_path, capsys):
        snap = tmp_path / "snap.txt"
        snap.write_text("pair 6 seven err=0.1\n")
        assert main(["ingest", str(snap)]) == 1

    def test_ingest_non_finite_lifetime_returns_one(self, tmp_path, capsys):
        snap = tmp_path / "snap.txt"
        snap.write_text("qubit 0 t1=nan t2=inf ro=0.01 u2=0.001 u3=0.001\n")
        assert main(["ingest", str(snap)]) == 1
        assert "line 1: t1=nan" in capsys.readouterr().err


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


class TestZeroWidthVerdicts:
    def test_noiseless_schedule_marks_every_row(self, tmp_path, capsys):
        cfg = base_config(str(tmp_path / "out"))
        cfg["noise"] = {}
        cfg["cb"] = {"m_list": [2, 4, 8], "n_random": 2, "n_decays": 3, "shots": 64}
        cfg["rb"] = {"m_list": [2, 4, 8], "n_random": 2, "shots": 64}
        cfg["tfim"]["steps"] = 1
        cfg["schedule"] = {"epochs": [{"day": 1, "label": "morning"},
                                      {"day": 2, "label": "morning"}]}
        path = write_config(tmp_path, cfg)
        assert main(["schedule", "--config", str(path)]) == 0
        out = tmp_path / "out"
        lines = [ln for ln in (out / "summary.txt").read_text().splitlines() if " | " in ln]
        assert len(lines) == 7  # four CB cycles and three RB pairs
        for ln in lines:
            parts = [p.strip() for p in ln.split("|")]
            assert parts[2] == "consistent"
            assert parts[3].endswith("threshold=0.0 zero-width")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert printed == lines

    def test_only_zero_thresholds_are_marked(self):
        rows = [VerdictRow("day1:morning", "day2:morning", "CB:cycle1", "drift-detected",
                           1e-15, 0.0),
                VerdictRow("day1:morning", "day2:morning", "RB:pair0-1", "consistent",
                           0.001, 0.004)]
        assert _verdict_lines(rows) == [
            "day1:morning -> day2:morning | CB:cycle1 | drift-detected | "
            "delta=1e-15 threshold=0.0 zero-width",
            "day1:morning -> day2:morning | RB:pair0-1 | consistent | "
            "delta=0.001 threshold=0.004",
        ]


class TestOccupations:
    @pytest.mark.parametrize("variant", ["circuit1", "circuit2"])
    def test_step_by_step_equals_per_step_rebuild(self, tmp_path, variant):
        cfg = base_config(str(tmp_path), variant=variant, layout=2)
        cfg["tfim"]["steps"] = 3
        cfg["noise"] = {
            "pauli_errors": {"cnot": {"IX": 0.004, "ZZ": 0.004}},
            "t1": {6: 80.0, 7: 60.0, 12: 90.0},
            "t2": {6: 70.0, 11: 50.0},
            "durations": {"cnot": 0.3, "single_qubit": 0.05},
            "readout_error": {7: 0.03, 11: 0.02},
            "prep_flip": {6: 0.02, 12: 0.01},
        }
        config = config_from_dict(cfg)
        rows = simulate_occupations(config, config.noise)
        expected = oracles.reference_simulate_occupations(config, config.noise)
        assert rows == expected
        _write_occupations(tmp_path / "fast.csv", rows)
        _write_occupations(tmp_path / "slow.csv", expected)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


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


_ROOT = Path(__file__).resolve().parents[1]
_README_BLOCK = (_ROOT / "README.md").read_text().split("### Config file\n\n```yaml\n")[1]
README_YAML = _README_BLOCK.split("```")[0]


def tiny_readme_config() -> dict:
    """The README's config with the smallest benchmark sizes and one Trotter step."""
    cfg = yaml.safe_load(README_YAML)
    for section in ("cb", "rb", "qcap"):
        cfg[section].update(m_list=[1, 2, 3], n_random=1, shots=1)
    cfg["tfim"]["steps"] = 1
    return cfg


def leaf_paths(node, path=()):
    """The key path of every scalar in a config tree."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield from leaf_paths(value, (*path, key))


DROP = object()
# a wrong type or container, the edge numbers, and an unknown string
MUTATIONS = [DROP, None, True, "foo", [1], {"k": 1}, -1, 0, 0.5, math.nan, math.inf]


def mutated(cfg: dict, path: tuple, mutation) -> dict:
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if mutation is DROP:
        del node[last]
    else:
        node[last] = mutation
    return cfg


def test_readme_config_is_the_benchmark_config(monkeypatch):
    """The README's config is the one the epoch-readme benchmark runs."""
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    readme = yaml.safe_load(README_YAML)
    bench = config_from_dict({**workloads.README_CONFIG, "seed": readme["seed"]})
    assert repr(config_from_dict(readme)) == repr(bench)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(list(leaf_paths(tiny_readme_config()))), st.sampled_from(MUTATIONS))
def test_mutated_config_fails_at_load_or_simulates(path, mutation):
    """Bad input fails at load with a validation error (exit 1), never later."""
    cfg = mutated(tiny_readme_config(), path, mutation)
    try:
        config_from_dict(cfg)
    except (ConfigError, NoiseModelError, DriftScheduleError, CircuitError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config), "--out", f"{tmp}/out"]) == 0
