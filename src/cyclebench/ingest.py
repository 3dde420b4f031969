"""Backend-property snapshots and CSV persistence.

Snapshot files are line oriented:

    snapshot day=1 epoch=morning pair_convention=process-infidelity
    qubit 6 t1=67.1 t2=99.9 ro=0.0254 u2=2.87e-4 u3=5.74e-4
    pair 6 7 err=0.0330

The pair-error convention is explicit metadata: backend tables may publish
raw RB error rates or already-converted process infidelities, and guessing a
silent factor of (d+1)/d is exactly the mistake this flag prevents.  A header
without the flag defaults to ``process-infidelity`` with a warning.

Each result CSV is one table below: its columns in order, each with the kind
that reads it.  Floats are written shortest-roundtrip, so a write/read cycle
reproduces every value exactly.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bench import DecayFit, DecayPoint, InfidelityEstimate, ProtocolError
from .qcap import QcapCurve

PAIR_CONVENTIONS = ("raw-r", "process-infidelity")


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


# a snapshot number's range check and the words for a value outside it;
# both are written so that NaN fails too
_FRACTION = (lambda x: 0 <= x <= 1, "outside [0, 1]")
_POSITIVE = (lambda x: 0 < x < math.inf, "must be positive and finite")
# a qubit row's fields, in QubitRecord's order after the label
_QUBIT_FIELDS = {"t1": _POSITIVE, "t2": _POSITIVE, "ro": _FRACTION, "u2": _FRACTION,
                 "u3": _FRACTION}


def _number(fields: Mapping[str, str], name: str, rule, lineno: int) -> float:
    try:
        x = float(fields[name])
    except ValueError:
        raise SnapshotError(f"line {lineno}: {name} is not a number: {fields[name]!r}") from None
    in_range, outside = rule
    if not in_range(x):
        raise SnapshotError(f"line {lineno}: {name}={x} {outside}")
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
            missing = set(_QUBIT_FIELDS) - set(fields)
            if missing:
                raise SnapshotError(f"line {lineno}: qubit row missing {sorted(missing)}")
            qubits.append(QubitRecord(label, *(
                _number(fields, name, rule, lineno) for name, rule in _QUBIT_FIELDS.items()
            )))
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
                    error=_number(fields, "err", _FRACTION, lineno),
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

def _optional_int(text: str) -> int | None:
    return int(text) if text else None


# One table per result file: each column's name, in file order, and the kind
# that reads its cells.
DECAYS = {"pauli": str, "m": int, "circuit_index": int, "expectation": float,
          "shot_error": float}
FITS = {"pauli": str, "A": float, "p": float, "sigma_p": float}
CURVES = {"source": str, "steps": int, "bound": float, "sigma": float}
ESTIMATES = {"source": str, "label": str, "day": _optional_int, "epoch": str,
             "infidelity": float, "sigma": float}
OCCUPATIONS = {"step": int, "time": float, "site": int, "occupation": float,
               "ideal_occupation": float}


def _write_csv(path, table: Mapping, rows: Iterable[Sequence]) -> None:
    """``rows``, each in ``table``'s column order; a float column's cell is the
    shortest round-trip repr of its value as a float, and None is an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table)
        writer.writerows(
            ["" if v is None else repr(float(v)) if kind is float else str(v)
             for kind, v in zip(table.values(), row)]
            for row in rows
        )


def _read_csv(path, table: Mapping) -> list[list]:
    """Rows of a result CSV, each cell converted by its column's kind.

    A wrong header, a short or long row, a cell the kind cannot parse, or a
    non-finite float raises :class:`SchemaError` naming the path, the row and
    the column.
    """
    expected = list(table)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if header != expected:
            raise SchemaError(f"{path}: header {header} != expected {expected}")
        rows = []
        for number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: row {number} has {len(row)} cells, expected {len(header)}"
                )
            cells = []
            for (column, kind), text in zip(table.items(), row):
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
    _write_csv(path, DECAYS, points)


def read_decays(path) -> list[DecayPoint]:
    return [DecayPoint(*row) for row in _read_csv(path, DECAYS)]


def write_fits(path, fits: Sequence[DecayFit]) -> None:
    _write_csv(path, FITS, ((f.pauli, f.amplitude, f.decay, f.decay_std) for f in fits))


def read_fits(path) -> list[DecayFit]:
    return [DecayFit(*row) for row in _read_csv(path, FITS)]


def write_curves(path, curves: Sequence[QcapCurve]) -> None:
    _write_csv(path, CURVES, (
        (c.source, *point) for c in curves for point in zip(c.steps, c.bound, c.sigma)
    ))


def read_curves(path) -> list[QcapCurve]:
    """One curve per source, in order of first appearance."""
    columns: dict[str, tuple[list, list, list]] = {}
    for source, *point in _read_csv(path, CURVES):
        for column, value in zip(columns.setdefault(source, ([], [], [])), point):
            column.append(value)
    return [QcapCurve(source, *map(tuple, cols)) for source, cols in columns.items()]


def write_estimates(path, estimates: Sequence[InfidelityEstimate]) -> None:
    _write_csv(path, ESTIMATES, (
        (e.source, e.label, e.day, e.epoch, e.infidelity, e.sigma) for e in estimates
    ))


def read_estimates(path) -> list[InfidelityEstimate]:
    out = []
    for number, (source, label, day, epoch, infidelity, sigma) in enumerate(
        _read_csv(path, ESTIMATES), start=1
    ):
        try:
            out.append(InfidelityEstimate(infidelity, sigma, source, label, day=day,
                                          epoch=epoch or None))
        except ProtocolError as exc:
            raise SchemaError(f"{path}: row {number}: {exc}") from None
    return out


def write_occupations(path, rows: Iterable[Sequence]) -> None:
    """Rows in ``OCCUPATIONS``' column order, as ``cli.simulate_occupations`` gives."""
    _write_csv(path, OCCUPATIONS, rows)
