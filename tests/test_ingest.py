import re

import numpy as np
import pytest

from cyclebench.bench import DecayFit, DecayPoint, InfidelityEstimate, ProtocolError
from cyclebench.cli import _write_occupations
from cyclebench.ingest import (
    SchemaError,
    SnapshotError,
    parse_backend_snapshot,
    read_curves,
    read_decays,
    read_estimates,
    read_fits,
    write_curves,
    write_decays,
    write_estimates,
    write_fits,
)
from cyclebench.qcap import QcapCurve

SNAPSHOT = """\
snapshot day=1 epoch=morning pair_convention=process-infidelity
qubit 6 t1=67.1 t2=99.9 ro=0.0254 u2=2.87e-4 u3=5.74e-4
qubit 7 t1=94.8 t2=86.8 ro=0.0230 u2=3.05e-4 u3=6.71e-4
pair 6 7 err=0.0330
pair 7 12 err=0.0125
"""


class TestSnapshotParsing:
    def test_parses_qubit_row(self):
        snap = parse_backend_snapshot(SNAPSHOT)
        assert snap.day == 1 and snap.epoch == "morning"
        q6 = snap.qubits[0]
        assert (q6.qubit, q6.t1_us, q6.t2_us) == (6, 67.1, 99.9)
        assert q6.readout_error == 0.0254
        assert q6.u2_error == pytest.approx(2.87e-4)

    def test_parses_pair_rows_with_convention(self):
        snap = parse_backend_snapshot(SNAPSHOT)
        assert snap.pairs[0].pair == (6, 7)
        assert snap.pairs[0].error == 0.0330
        assert all(p.convention == "process-infidelity" for p in snap.pairs)

    def test_empty_stream(self):
        snap = parse_backend_snapshot("")
        assert snap.qubits == () and snap.pairs == ()
        assert snap.day is None

    def test_comments_and_blank_lines_ok(self):
        snap = parse_backend_snapshot("# header comment\n\n" + SNAPSHOT)
        assert len(snap.qubits) == 2

    def test_missing_convention_warns_and_defaults(self):
        text = "snapshot day=2 epoch=night\npair 6 7 err=0.01\n"
        with pytest.warns(UserWarning):
            snap = parse_backend_snapshot(text)
        assert snap.pair_convention == "process-infidelity"

    def test_raw_r_convention_kept(self):
        text = "snapshot day=2 epoch=night pair_convention=raw-r\npair 6 7 err=0.01\n"
        snap = parse_backend_snapshot(text)
        assert snap.pairs[0].convention == "raw-r"

    def test_malformed_row_reports_line(self):
        text = SNAPSHOT + "qubit nine t1=1 t2=1 ro=0 u2=0 u3=0\n"
        with pytest.raises(SnapshotError, match="line 6"):
            parse_backend_snapshot(text)

    def test_out_of_range_rejected(self):
        with pytest.raises(SnapshotError, match="ro"):
            parse_backend_snapshot("qubit 6 t1=67 t2=90 ro=1.5 u2=0 u3=0")
        with pytest.raises(SnapshotError, match="t1"):
            parse_backend_snapshot("qubit 6 t1=-4 t2=90 ro=0.1 u2=0 u3=0")
        with pytest.raises(SnapshotError, match="err"):
            parse_backend_snapshot("pair 6 7 err=2.0")

    @pytest.mark.parametrize("field", ["t1", "t2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lifetime_rejected(self, field, value):
        row = {"t1": "67.1", "t2": "99.9", field: value}
        text = SNAPSHOT + f"qubit 8 t1={row['t1']} t2={row['t2']} ro=0.01 u2=0.001 u3=0.001\n"
        with pytest.raises(SnapshotError, match=f"line 6: {field}="):
            parse_backend_snapshot(text)

    def test_unknown_row_kind(self):
        with pytest.raises(SnapshotError, match="line 1"):
            parse_backend_snapshot("gadget 6 7\n")

    def test_missing_fields(self):
        with pytest.raises(SnapshotError, match="missing"):
            parse_backend_snapshot("qubit 6 t1=67 t2=90\n")

    def test_bad_convention(self):
        with pytest.raises(SnapshotError):
            parse_backend_snapshot("snapshot day=1 epoch=morning pair_convention=guess\n")


class TestRoundTrips:
    def test_empty_decay_table(self, tmp_path):
        path = tmp_path / "decays.csv"
        write_decays(path, [])
        assert read_decays(path) == []

    def test_single_fit_exact(self, tmp_path):
        path = tmp_path / "fits.csv"
        fit = DecayFit("XZ", 0.95, 0.98, 0.003)
        write_fits(path, [fit])
        assert read_fits(path) == [fit]

    def test_awkward_floats_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "fits.csv"
        fits = [
            DecayFit("XY", 1 / 3, 0.1 + 0.2, 1e-300),
            DecayFit("ZZ", 0.9999999999999999, 2**-52, 0.0),
        ]
        write_fits(path, fits)
        again = read_fits(path)
        for a, b in zip(fits, again):
            assert a.amplitude == b.amplitude
            assert a.decay == b.decay
            assert a.decay_std == b.decay_std

    def test_numpy_floats_roundtrip_exactly(self, tmp_path):
        """numpy float scalars are written as plain floats, not as their repr."""
        path = tmp_path / "decays.csv"
        points = [DecayPoint("ZZ", 2, 0, np.float64(0.5), np.float64(1 / 3))]
        write_decays(path, points)
        assert path.read_text().splitlines()[1] == "ZZ,2,0,0.5,0.3333333333333333"
        assert read_decays(path) == points

    def test_large_decay_table_count(self, tmp_path):
        path = tmp_path / "decays.csv"
        points = [
            DecayPoint(p, m, i, 0.9**m + i * 1e-6, 0.01)
            for p in ("XX", "YY", "ZZ")
            for m in (2, 10, 22)
            for i in range(48)
        ]
        write_decays(path, points)
        again = read_decays(path)
        assert len(again) == 3 * 3 * 48
        assert again == points

    def test_curves_roundtrip(self, tmp_path):
        path = tmp_path / "curves.csv"
        curves = [
            QcapCurve("CB", (0, 1, 2), (0.0, 0.1, 0.19), (0.0, 0.01, 0.02)),
            QcapCurve("RB", (0, 1, 2), (0.0, 0.05, 0.0975), (0.0, 0.0, 0.0)),
        ]
        write_curves(path, curves)
        again = read_curves(path)
        assert [c.source for c in again] == ["CB", "RB"]
        assert again[0].bound == curves[0].bound
        assert again[1].sigma == curves[1].sigma

    def test_estimates_roundtrip(self, tmp_path):
        path = tmp_path / "est.csv"
        ests = [
            InfidelityEstimate(0.0367, 0.002, "CB", "cycle2", day=1, epoch="morning"),
            InfidelityEstimate(0.0125, 0.001, "RB", "pair6-7"),
        ]
        write_estimates(path, ests)
        assert read_estimates(path) == ests


# each result file's exact text: its header and one row
PINNED_TEXT = {
    "decays": (
        write_decays, [DecayPoint("XZ", 2, 0, 0.1 + 0.2, np.float64(1 / 3))],
        "pauli,m,circuit_index,expectation,shot_error\nXZ,2,0,0.30000000000000004,"
        "0.3333333333333333\n",
    ),
    "fits": (
        write_fits, [DecayFit("ZZ", 0.9999999999999999, 2**-52, 1e-300)],
        "pauli,A,p,sigma_p\nZZ,0.9999999999999999,2.220446049250313e-16,1e-300\n",
    ),
    "curves": (
        write_curves, [QcapCurve("RB", (3,), (0.1 + 0.2,), (1e-17,))],
        "source,steps,bound,sigma\nRB,3,0.30000000000000004,1e-17\n",
    ),
    "estimates": (
        write_estimates, [InfidelityEstimate(1 / 3, 0.0, "RB", "pair6-7", day=None, epoch=None)],
        "source,label,day,epoch,infidelity,sigma\nRB,pair6-7,,,0.3333333333333333,0.0\n",
    ),
    "occupations": (
        _write_occupations, [(2, 20, 1, 0.1 + 0.2, np.float64(1.0))],
        "step,time,site,occupation,ideal_occupation\n2,20.0,1,0.30000000000000004,1.0\n",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_TEXT))
def test_result_file_text_is_pinned(tmp_path, name):
    write, records, text = PINNED_TEXT[name]
    path = tmp_path / f"{name}.csv"
    write(path, records)
    assert path.read_text() == text


class TestDispatch:
    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(SchemaError):
            read_decays(path)
        with pytest.raises(SchemaError):
            read_fits(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_decays(path)


# a valid header and row per reader
GOOD_TABLES = {
    read_decays: ("pauli,m,circuit_index,expectation,shot_error", "XZ,2,0,0.9,0.01"),
    read_fits: ("pauli,A,p,sigma_p", "XZ,0.95,0.98,0.003"),
    read_curves: ("source,steps,bound,sigma", "CB,1,0.1,0.01"),
    read_estimates: ("source,label,day,epoch,infidelity,sigma", "CB,cycle1,1,morning,0.02,0.001"),
}
BAD_CELLS = [
    (read_decays, "expectation"),
    (read_decays, "m"),
    (read_fits, "sigma_p"),
    (read_curves, "bound"),
    (read_estimates, "sigma"),
    (read_estimates, "day"),
]


class TestCsvCells:
    @pytest.mark.parametrize("reader, name", BAD_CELLS)
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "abc", ""])
    def test_bad_cell_names_path_row_and_column(self, tmp_path, reader, name, text):
        header, row = GOOD_TABLES[reader]
        bad = row.split(",")
        bad[header.split(",").index(name)] = text
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row}\n{','.join(bad)}\n")
        if name == "day" and text == "":
            assert len(reader(path)) == 2  # an empty day means "no day"
            return
        with pytest.raises(SchemaError, match=re.escape(f"{path}: row 2, column {name}")):
            reader(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "fits.csv"
        path.write_text("pauli,A,p,sigma_p\nXZ,0.95,0.98\n")
        with pytest.raises(SchemaError, match="row 1 has 3 cells"):
            read_fits(path)

    def test_negative_sigma_estimate(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("source,label,day,epoch,infidelity,sigma\nCB,cycle1,1,morning,0.02,-0.1\n")
        with pytest.raises(SchemaError, match="row 1"):
            read_estimates(path)


@pytest.mark.parametrize(
    "infidelity, sigma",
    [(float("nan"), 0.001), (float("inf"), 0.001), (0.02, float("nan")), (0.02, float("inf"))],
)
def test_estimate_rejects_non_finite(infidelity, sigma):
    with pytest.raises(ProtocolError, match="finite"):
        InfidelityEstimate(infidelity, sigma, "CB", "cycle1")
