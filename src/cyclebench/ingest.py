"""Backend-property snapshots and CSV persistence.

Snapshot files are line oriented:

    snapshot day=1 epoch=morning pair_convention=process-infidelity
    qubit 6 t1=67.1 t2=99.9 ro=0.0254 u2=2.87e-4 u3=5.74e-4
    pair 6 7 err=0.0330

The pair-error convention is explicit metadata: backend tables may publish
raw RB error rates or already-converted process infidelities, and guessing a
silent factor of (d+1)/d is exactly the mistake this flag prevents.  A header
without the flag defaults to ``process-infidelity`` with a warning.

Result CSVs use fixed headers and shortest-roundtrip float formatting, so a
write/read cycle reproduces every value exactly.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bench import DecayFit, DecayPoint, InfidelityEstimate, ProtocolError
from .qcap import QcapCurve

PAIR_CONVENTIONS = ("raw-r", "process-infidelity")

DECAY_HEADER = ["pauli", "m", "circuit_index", "expectation", "shot_error"]
FIT_HEADER = ["pauli", "A", "p", "sigma_p"]
CURVE_HEADER = ["source", "steps", "bound", "sigma"]
ESTIMATE_HEADER = ["source", "label", "day", "epoch", "infidelity", "sigma"]
OCCUPATION_HEADER = ["step", "time", "site", "occupation", "ideal_occupation"]


class SnapshotError(ValueError):
    pass


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class QubitRecord:
    qubit: int
    t1_us: float
    t2_us: float
    readout_error: float
    u2_error: float
    u3_error: float


@dataclass(frozen=True)
class PairRecord:
    pair: tuple[int, int]
    error: float
    convention: str


@dataclass(frozen=True)
class BackendSnapshot:
    day: int | None
    epoch: str | None
    pair_convention: str
    qubits: tuple[QubitRecord, ...]
    pairs: tuple[PairRecord, ...]


def _parse_kv(tokens: Sequence[str], lineno: int) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SnapshotError(f"line {lineno}: malformed field {tok!r}")
        key, _, val = tok.partition("=")
        out[key] = val
    return out


def _fraction(value: str, name: str, lineno: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise SnapshotError(f"line {lineno}: {name} is not a number: {value!r}") from None
    if not 0 <= x <= 1:
        raise SnapshotError(f"line {lineno}: {name}={x} outside [0, 1]")
    return x


def _positive(value: str, name: str, lineno: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise SnapshotError(f"line {lineno}: {name} is not a number: {value!r}") from None
    # written so that NaN fails too
    if not 0 < x < math.inf:
        raise SnapshotError(f"line {lineno}: {name}={x} must be positive and finite")
    return x


def parse_backend_snapshot(text: str) -> BackendSnapshot:
    """Parse a recorded backend-property snapshot.

    Malformed rows raise with their line number; nothing is skipped silently.
    """
    day: int | None = None
    epoch: str | None = None
    convention = "process-infidelity"
    qubits: list[QubitRecord] = []
    pairs: list[PairRecord] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "snapshot":
            fields = _parse_kv(tokens[1:], lineno)
            if "day" in fields:
                try:
                    day = int(fields["day"])
                except ValueError:
                    raise SnapshotError(f"line {lineno}: day must be an integer") from None
            epoch = fields.get("epoch")
            if "pair_convention" in fields:
                convention = fields["pair_convention"]
                if convention not in PAIR_CONVENTIONS:
                    raise SnapshotError(
                        f"line {lineno}: pair_convention must be one of {PAIR_CONVENTIONS}"
                    )
            else:
                warnings.warn(
                    "snapshot header has no pair_convention; assuming process-infidelity",
                    stacklevel=2,
                )
            saw_header = True
        elif kind == "qubit":
            if len(tokens) < 2:
                raise SnapshotError(f"line {lineno}: qubit row needs a label")
            try:
                label = int(tokens[1])
            except ValueError:
                raise SnapshotError(f"line {lineno}: qubit label must be an integer") from None
            fields = _parse_kv(tokens[2:], lineno)
            missing = {"t1", "t2", "ro", "u2", "u3"} - set(fields)
            if missing:
                raise SnapshotError(f"line {lineno}: qubit row missing {sorted(missing)}")
            qubits.append(
                QubitRecord(
                    qubit=label,
                    t1_us=_positive(fields["t1"], "t1", lineno),
                    t2_us=_positive(fields["t2"], "t2", lineno),
                    readout_error=_fraction(fields["ro"], "ro", lineno),
                    u2_error=_fraction(fields["u2"], "u2", lineno),
                    u3_error=_fraction(fields["u3"], "u3", lineno),
                )
            )
        elif kind == "pair":
            if len(tokens) < 4:
                raise SnapshotError(f"line {lineno}: pair row needs two labels and err=")
            try:
                a, b = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise SnapshotError(f"line {lineno}: pair labels must be integers") from None
            fields = _parse_kv(tokens[3:], lineno)
            if "err" not in fields:
                raise SnapshotError(f"line {lineno}: pair row missing err=")
            pairs.append(
                PairRecord(
                    pair=(a, b),
                    error=_fraction(fields["err"], "err", lineno),
                    convention=convention,
                )
            )
        else:
            raise SnapshotError(f"line {lineno}: unknown row kind {kind!r}")
    if pairs and not saw_header:
        warnings.warn("snapshot has pair rows but no header; assuming process-infidelity",
                      stacklevel=2)
    return BackendSnapshot(
        day=day,
        epoch=epoch,
        pair_convention=convention,
        qubits=tuple(qubits),
        pairs=tuple(pairs),
    )


# ---------------------------------------------------------------------------
# CSV persistence.  repr() is shortest-roundtrip for floats, which gives the
# >= 15 significant digits needed for exact write/read identity.

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _optional_int(text: str) -> int | None:
    return int(text) if text else None


def _read_csv(path, expected_header: list[str], kinds: Sequence) -> list[list]:
    """Rows of a result CSV, each cell converted by its column's kind.

    A short or long row, a cell the kind cannot parse, or a non-finite float
    raises :class:`SchemaError` naming the path, the row and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if header != expected_header:
            raise SchemaError(f"{path}: header {header} != expected {expected_header}")
        rows = []
        for number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: row {number} has {len(row)} cells, expected {len(header)}"
                )
            cells = []
            for column, kind, text in zip(header, kinds, row):
                try:
                    value = kind(text)
                except ValueError:
                    raise SchemaError(
                        f"{path}: row {number}, column {column}: cannot read {text!r}"
                    ) from None
                if isinstance(value, float) and not math.isfinite(value):
                    raise SchemaError(
                        f"{path}: row {number}, column {column}: {text!r} is not finite"
                    )
                cells.append(value)
            rows.append(cells)
        return rows


def write_decays(path, points: Sequence[DecayPoint]) -> None:
    _write_csv(
        path,
        DECAY_HEADER,
        ((p.pauli, p.m, p.circuit_index, p.expectation, p.shot_error) for p in points),
    )


def read_decays(path) -> list[DecayPoint]:
    kinds = (str, int, int, float, float)
    return [DecayPoint(*row) for row in _read_csv(path, DECAY_HEADER, kinds)]


def write_fits(path, fits: Sequence[DecayFit]) -> None:
    _write_csv(
        path,
        FIT_HEADER,
        ((f.pauli, f.amplitude, f.decay, f.decay_std) for f in fits),
    )


def read_fits(path) -> list[DecayFit]:
    return [DecayFit(*row) for row in _read_csv(path, FIT_HEADER, (str, float, float, float))]


def write_curves(path, curves: Sequence[QcapCurve]) -> None:
    rows = []
    for curve in curves:
        for n, b, s in zip(curve.steps, curve.bound, curve.sigma):
            rows.append((curve.source, n, b, s))
    _write_csv(path, CURVE_HEADER, rows)


def read_curves(path) -> list[QcapCurve]:
    grouped: dict[str, list[tuple[int, float, float]]] = {}
    order: list[str] = []
    for src, steps, bound, sigma in _read_csv(path, CURVE_HEADER, (str, int, float, float)):
        if src not in grouped:
            grouped[src] = []
            order.append(src)
        grouped[src].append((steps, bound, sigma))
    curves = []
    for src in order:
        pts = grouped[src]
        curves.append(
            QcapCurve(
                source=src,
                steps=tuple(p[0] for p in pts),
                bound=tuple(p[1] for p in pts),
                sigma=tuple(p[2] for p in pts),
            )
        )
    return curves


def write_estimates(path, estimates) -> None:
    rows = []
    for est in estimates:
        rows.append(
            (
                est.source,
                est.label,
                "" if est.day is None else est.day,
                "" if est.epoch is None else est.epoch,
                est.infidelity,
                est.sigma,
            )
        )
    _write_csv(path, ESTIMATE_HEADER, rows)


def read_estimates(path) -> list[InfidelityEstimate]:
    kinds = (str, str, _optional_int, str, float, float)
    out = []
    for number, (source, label, day, epoch, infidelity, sigma) in enumerate(
        _read_csv(path, ESTIMATE_HEADER, kinds), start=1
    ):
        try:
            out.append(
                InfidelityEstimate(
                    source=source,
                    label=label,
                    day=day,
                    epoch=epoch or None,
                    infidelity=infidelity,
                    sigma=sigma,
                )
            )
        except ProtocolError as exc:
            raise SchemaError(f"{path}: row {number}: {exc}") from None
    return out
