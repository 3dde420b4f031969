"""Error channels and drifting noise models.

A :class:`NoiseModel` bundles everything the engine needs to corrupt a
circuit: stochastic Pauli errors per gate class, relaxation/dephasing times,
coherent over-rotations on CNOTs, spectator crosstalk, readout confusion and
state-preparation flips.  Models are immutable; calibration drift is
expressed by a :class:`DriftSchedule` that derives a fresh model per epoch.

Composition order is fixed: ideal gate, then coherent rotation, then the
stochastic Pauli channel, then damping for the gate's duration.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .pauli import GATE_MATRICES, PauliString
from .sim import KrausChannel, rng_from

SINGLE_QUBIT = "single_qubit"
CNOT = "cnot"

DEFAULT_DURATIONS = {SINGLE_QUBIT: 50.0, CNOT: 300.0}  # ns; not hardware-derived

EPOCH_LABELS = ("morning", "afternoon", "night")
# position of each label within a day, for ordering epochs
LABEL_ORDER = {label: i for i, label in enumerate(EPOCH_LABELS)}


class NoiseModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Channel constructors

def pauli_channel(probs: Mapping[str | PauliString, float]) -> KrausChannel:
    """Stochastic Pauli channel; leftover probability goes to the identity."""
    if not probs:
        return KrausChannel((np.eye(2, dtype=complex),)).validate()
    norm = {}
    n = None
    for key, p in probs.items():
        ps = key if isinstance(key, PauliString) else PauliString.parse(str(key))
        if p < 0:
            raise NoiseModelError(f"negative probability {p} for {ps}")
        if n is None:
            n = ps.n_qubits
        elif ps.n_qubits != n:
            raise NoiseModelError("Pauli strings of mixed length in channel")
        norm[ps.letters] = norm.get(ps.letters, 0.0) + p
    total = sum(norm.values())
    if total > 1 + 1e-12:
        raise NoiseModelError(f"Pauli probabilities sum to {total} > 1")
    ops = []
    # Any explicit identity probability is folded into the remainder.
    p_id = max(0.0, 1.0 - sum(p for s, p in norm.items() if s != "I" * n))
    if p_id > 0:
        ops.append(math.sqrt(p_id) * np.eye(2**n, dtype=complex))
    for letters in sorted(norm):
        if letters == "I" * n:
            continue
        p = norm[letters]
        if p > 0:
            ops.append(math.sqrt(p) * PauliString(letters).to_matrix())
    return KrausChannel(tuple(ops)).validate()


def depolarizing_pauli_probs(lam: float, n_qubits: int) -> dict[str, float]:
    """Per-Pauli probabilities realising n-qubit depolarizing of strength lam."""
    from .pauli import all_pauli_letters

    dim = 4**n_qubits
    return {s: lam / dim for s in all_pauli_letters(n_qubits)}


def damping_channel(t1_us: float, t2_us: float | None, duration_ns: float) -> KrausChannel:
    """Amplitude damping plus dephasing for one qubit idling ``duration_ns``.

    gamma = 1 - exp(-dt/T1); the dephasing strength is calibrated so the total
    off-diagonal decay equals exp(-dt/T2).  ``t2_us=None`` means no dephasing
    beyond the T1 contribution (effective T2 = 2 T1).
    """
    if t1_us <= 0:
        raise NoiseModelError(f"T1 must be positive, got {t1_us}")
    if duration_ns < 0:
        raise NoiseModelError(f"negative duration {duration_ns}")
    if t2_us is not None:
        if t2_us <= 0:
            raise NoiseModelError(f"T2 must be positive, got {t2_us}")
        if t2_us > 2 * t1_us + 1e-9:
            raise NoiseModelError(f"unphysical T2 {t2_us} > 2 T1 {2 * t1_us}")
    dt_us = duration_ns / 1000.0
    if dt_us == 0:
        return KrausChannel((np.eye(2, dtype=complex),))
    gamma = 1.0 - math.exp(-dt_us / t1_us)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    ops = [k0, k1]
    if t2_us is not None and gamma < 1.0:
        # residual off-diagonal decay on top of the sqrt(1-gamma) from T1
        target = math.exp(-dt_us / t2_us)
        residual = min(1.0, target / math.sqrt(1 - gamma))
        p_z = (1.0 - residual) / 2.0
        if p_z > 0:
            ops = [math.sqrt(1 - p_z) * k for k in ops] + [
                math.sqrt(p_z) * (GATE_MATRICES["Z"] @ k) for k in ops
            ]
    return KrausChannel(tuple(ops)).validate()


def coherent_overrotation(axis: PauliString | str, angle: float) -> np.ndarray:
    """exp(-i angle/2 P), the unitary slice of an over/under rotation."""
    ps = axis if isinstance(axis, PauliString) else PauliString.parse(axis)
    if ps.is_identity:
        raise NoiseModelError("over-rotation axis must be a non-identity Pauli")
    dim = 2**ps.n_qubits
    mat = ps.to_matrix()
    return math.cos(angle / 2) * np.eye(dim, dtype=complex) - 1j * math.sin(angle / 2) * mat


# ---------------------------------------------------------------------------
# Noise model

@dataclass(frozen=True)
class CrosstalkTerm:
    """ZZ rotation between the first qubit of an active CNOT pair and a
    spectator, applied during hard cycles that fire that pair."""

    pair: tuple[int, int]
    spectator: int
    angle: float


def confusion_from_scalar(error: float) -> np.ndarray:
    """Symmetric readout confusion built from a single error rate."""
    if not 0 <= error <= 1:
        raise NoiseModelError(f"readout error {error} outside [0, 1]")
    return np.array([[1 - error, error], [error, 1 - error]], dtype=float)


def _freeze(d: Mapping) -> Mapping:
    return MappingProxyType(dict(d))


def check_keys(data: Mapping, allowed, where: str, error=NoiseModelError) -> None:
    """Raise ``error`` naming every key of ``data`` not in ``allowed``."""
    unknown = sorted(str(k) for k in data if k not in allowed)
    if unknown:
        raise error(f"unknown key(s) {', '.join(unknown)} in {where}")


def check_kind(value, default, where: str, error=NoiseModelError):
    """``value``, never converted, if it has the kind of ``default`` (or of the
    type in its place), else ``error`` naming ``where``: an int (not a bool); a
    finite float, to which an int widens; a str; a mapping; or a list, returned
    as a tuple, whose items have the kind of the default's first item if any.
    None reads as an empty mapping or list."""
    kind = default if isinstance(default, type) else type(default)
    if value is None and kind in (dict, tuple):
        return kind()
    if kind is tuple and isinstance(value, (list, tuple)):
        return tuple(check_kind(v, default[0], f"{where}[{i}]", error) if default else v
                     for i, v in enumerate(value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and math.isfinite(value):
        return float(value)
    if (kind is int and number and isinstance(value, int) or kind is str and isinstance(value, str)
            or kind is dict and isinstance(value, Mapping)):
        return value
    what = {int: "an int", float: "a finite float", str: "a str", dict: "a mapping",
            tuple: "a list"}[kind]
    raise error(f"{where} must be {what}, got {type(value).__name__} {value!r}")


def read_table(data, table: Mapping, where: str, error=NoiseModelError,
               prefix: str | None = None) -> dict:
    """``table``'s defaults overlaid by ``data``, the mapping named ``where``;
    a key is named ``prefix + key``, by default ``where.key``.  A given value
    must have its default's kind (``check_kind``); a type in place of a default,
    or a one-item tuple of a type (a list of that kind), makes the key required."""
    data = check_kind(data, {}, where, error)
    check_keys(data, table, where, error)
    prefix = f"{where}." if prefix is None else prefix
    values = {}
    for key, default in table.items():
        if key in data:
            values[key] = check_kind(data[key], default, prefix + key, error)
        elif isinstance(default[0] if type(default) is tuple and default else default, type):
            raise error(f"{prefix}{key} must be set")
        else:
            values[key] = default
    return values


def _numbers(data, where: str, label=int) -> dict:
    """``data`` as a mapping of ``label``-kind keys to finite floats."""
    return {check_kind(k, label, f"{where} key"): check_kind(v, 0.0, f"{where}[{k}]")
            for k, v in check_kind(data, {}, where).items()}


# The noise section's keys, each with the kind of its value, and the keys of
# a crosstalk term and of a mapping-form CNOT rotation.
_NOISE = {"t1": {}, "t2": {}, "readout_error": {}, "pauli_errors": {}, "cnot_rotation": {},
          "crosstalk": (), "durations": {}, "prep_flip": {}}
_CROSSTALK = {"pair": (int,), "spectator": int, "angle": float}
_ROTATION = {"axis": str, "angle": float}


def _frozen_array(mat) -> np.ndarray:
    """A read-only float copy: the model never shares a caller's array."""
    out = np.array(mat, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Immutable per-gate-class error description keyed by physical qubits.

    ``pauli_errors`` maps a gate class to {pauli letters: probability} on the
    gate's own qubits.  Classes are ``single_qubit``, ``cnot``, and the
    pair-specific refinement ``cnot:a-b`` which wins over ``cnot`` for that
    ordered pair.  ``cnot_rotation`` uses the key ``*`` for all pairs or
    ``a-b`` for one pair, again most-specific-wins.  ``readout`` confusion
    matrices are validated here and kept as read-only float copies.
    """

    t1: Mapping[int, float] = field(default_factory=dict)
    t2: Mapping[int, float] = field(default_factory=dict)
    readout: Mapping[int, np.ndarray] = field(default_factory=dict)
    pauli_errors: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    cnot_rotation: Mapping[str, tuple[str, float]] = field(default_factory=dict)
    crosstalk: tuple[CrosstalkTerm, ...] = ()
    durations: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DURATIONS))
    prep_flip: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "t1", _freeze(self.t1))
        object.__setattr__(self, "t2", _freeze(self.t2))
        object.__setattr__(
            self, "readout", _freeze({q: _frozen_array(m) for q, m in self.readout.items()})
        )
        object.__setattr__(
            self,
            "pauli_errors",
            _freeze({k: _freeze(v) for k, v in self.pauli_errors.items()}),
        )
        object.__setattr__(self, "cnot_rotation", _freeze(self.cnot_rotation))
        object.__setattr__(self, "crosstalk", tuple(self.crosstalk))
        durations = dict(DEFAULT_DURATIONS)
        durations.update(self.durations)
        object.__setattr__(self, "durations", _freeze(durations))
        object.__setattr__(self, "prep_flip", _freeze(self.prep_flip))
        self._validate()

    def _validate(self):
        for q, t in self.t1.items():
            if not (math.isfinite(t) and t > 0):
                raise NoiseModelError(f"T1({q}) = {t} must be positive and finite")
        for q, t in self.t2.items():
            if not (math.isfinite(t) and t > 0):
                raise NoiseModelError(f"T2({q}) = {t} must be positive and finite")
            limit = 2 * self.t1.get(q, math.inf)
            if t > limit + 1e-9:
                raise NoiseModelError(f"T2({q}) = {t} exceeds 2*T1 = {limit}")
        for q, m in self.readout.items():
            if m.shape != (2, 2) or not np.all(m >= 0):  # NaN fails m >= 0
                raise NoiseModelError(f"readout({q}) is not a 2x2 stochastic matrix")
            if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
                raise NoiseModelError(f"readout({q}) rows do not sum to 1")
        for cls, probs in self.pauli_errors.items():
            if cls not in (SINGLE_QUBIT, CNOT) and not re.fullmatch(r"cnot:\d+-\d+", cls):
                raise NoiseModelError(f"unknown gate class {cls!r} in pauli_errors")
            total, n = 0.0, 1 if cls == SINGLE_QUBIT else 2
            for letters, p in probs.items():
                if not (math.isfinite(p) and p >= 0):
                    raise NoiseModelError(
                        f"Pauli probability {letters} = {p} in {cls} must be finite and >= 0"
                    )
                if not re.fullmatch(f"[+-]?[IXYZ]{{{n}}}", letters):
                    raise NoiseModelError(f"{letters!r} in {cls} is not a {n}-qubit Pauli string")
                total += p
            if total > 1 + 1e-12:
                raise NoiseModelError(f"Pauli probabilities in {cls} sum to {total} > 1")
        check_keys(self.durations, (SINGLE_QUBIT, CNOT), "durations")
        for cls, t in self.durations.items():
            if not (math.isfinite(t) and t >= 0):
                raise NoiseModelError(f"duration({cls}) = {t} must be finite and >= 0")
        for q, p in self.prep_flip.items():
            if not 0 <= p <= 1:
                raise NoiseModelError(f"prep flip({q}) = {p} outside [0, 1]")
        for key, (axis, angle) in self.cnot_rotation.items():
            if key != "*" and not re.fullmatch(r"\d+-\d+", key):
                raise NoiseModelError(f"cnot_rotation key {key!r} is neither '*' nor 'a-b'")
            if not re.fullmatch(r"[+-]?[IXYZ]{2}", axis) or axis.endswith("II"):
                raise NoiseModelError(f"cnot_rotation({key}) axis {axis!r} is not a 2-qubit "
                                      "non-identity Pauli string")
            if not math.isfinite(angle):
                raise NoiseModelError(f"cnot_rotation({key}) angle = {angle} must be finite")
        for term in self.crosstalk:
            if len(term.pair) != 2 or term.spectator in term.pair:
                raise NoiseModelError(f"crosstalk pair {term.pair} must be two qubits other "
                                      f"than the spectator {term.spectator}")
            if not math.isfinite(term.angle):
                raise NoiseModelError(
                    f"crosstalk({term.pair}, {term.spectator}) angle = {term.angle} must be finite"
                )

    def __eq__(self, other):
        """Field by field; readout confusion matrices compare by value."""
        if not isinstance(other, NoiseModel):
            return NotImplemented
        ro = {q: m.tolist() for q, m in self.readout.items()}
        return ro == {q: m.tolist() for q, m in other.readout.items()} and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self)
            if f.name != "readout"
        )

    # -- lookups used by the engine -------------------------------------

    def gate_pauli_probs(self, gate_class: str, pair: tuple[int, int] | None = None
                         ) -> Mapping[str, float] | None:
        if gate_class == CNOT and pair is not None:
            specific = self.pauli_errors.get(f"cnot:{pair[0]}-{pair[1]}")
            if specific is not None:
                return specific
        return self.pauli_errors.get(gate_class)

    def rotation_for_pair(self, pair: tuple[int, int]) -> tuple[str, float] | None:
        specific = self.cnot_rotation.get(f"{pair[0]}-{pair[1]}")
        if specific is not None:
            return specific
        return self.cnot_rotation.get("*")

    def duration(self, gate_class: str) -> float:
        return float(self.durations.get(gate_class, 0.0))

    def introduces_channels(self, register: tuple[int, ...]) -> bool:
        """True when execution on this register needs density matrices."""
        if any(any(p > 0 for p in probs.values()) for probs in self.pauli_errors.values()):
            return True
        if any(q in self.t1 or q in self.t2 for q in register):
            return True
        if any(self.prep_flip.get(q, 0.0) > 0 for q in register):
            return True
        return False

    def to_dict(self) -> dict:
        """Plain-dict form (scalar readout) used by config files and drift;
        its sections are the keys ``from_dict`` accepts, and a readout must be
        a matrix that ``confusion_from_scalar`` builds."""
        ro = {}
        for q, m in self.readout.items():
            if not np.array_equal(m, confusion_from_scalar(m[0, 1])):
                raise NoiseModelError(f"readout({q}) is not one error rate's symmetric matrix")
            ro[q] = float(m[0, 1])
        return {
            "t1": {q: float(v) for q, v in sorted(self.t1.items())},
            "t2": {q: float(v) for q, v in sorted(self.t2.items())},
            "readout_error": {q: v for q, v in sorted(ro.items())},
            "pauli_errors": {
                cls: {s: float(p) for s, p in sorted(v.items())}
                for cls, v in sorted(self.pauli_errors.items())
            },
            "cnot_rotation": {
                k: [axis, float(angle)]
                for k, (axis, angle) in sorted(self.cnot_rotation.items())
            },
            "crosstalk": [
                {"pair": list(t.pair), "spectator": t.spectator, "angle": float(t.angle)}
                for t in self.crosstalk
            ],
            "durations": {k: float(v) for k, v in sorted(self.durations.items())},
            "prep_flip": {q: float(p) for q, p in sorted(self.prep_flip.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NoiseModel":
        """The model a config's ``noise`` section describes; every qubit label,
        string and number must have its kind (``check_kind``).  A CNOT rotation
        is an ``[axis, angle]`` list or a mapping of ``axis`` and ``angle``."""
        data = read_table(data, _NOISE, "noise", prefix="")
        rotation = {}
        for key, val in data["cnot_rotation"].items():
            where = f"cnot_rotation[{check_kind(key, str, 'cnot_rotation key')}]"
            if not isinstance(val, Mapping):
                val = check_kind(val, (), where)
                if len(val) != 2:
                    raise NoiseModelError(f"{where} must be [axis, angle], got {list(val)!r}")
                val = dict(zip(_ROTATION, val))
            rotation[key] = tuple(read_table(val, _ROTATION, where, prefix=f"{where} ").values())
        return cls(
            t1=_numbers(data["t1"], "t1"),
            t2=_numbers(data["t2"], "t2"),
            readout={q: confusion_from_scalar(e)
                     for q, e in _numbers(data["readout_error"], "readout_error").items()},
            pauli_errors={
                check_kind(c, str, "pauli_errors key"): _numbers(probs, f"pauli_errors[{c}]", str)
                for c, probs in data["pauli_errors"].items()
            },
            cnot_rotation=rotation,
            crosstalk=[CrosstalkTerm(**read_table(t, _CROSSTALK, f"crosstalk[{i}]"))
                       for i, t in enumerate(data["crosstalk"])],
            durations=_numbers(data["durations"], "durations", str),
            prep_flip=_numbers(data["prep_flip"], "prep_flip"),
        )


# ---------------------------------------------------------------------------
# Drift schedule

# Walk scales: multiplicative log-normal for times, additive for the rest,
# clipped back to physical ranges afterwards.
_LOG_WALK_PARAMS = ("t1", "t2")
_LINEAR_WALK_PARAMS = ("prob", "angle", "readout")


class DriftScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class DriftEpoch:
    day: int
    label: str
    overrides: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.label not in LABEL_ORDER:
            raise DriftScheduleError(f"unknown epoch label {self.label!r}")
        object.__setattr__(self, "overrides", dict(self.overrides))

    @property
    def key(self) -> tuple[int, str]:
        return (self.day, self.label)


@dataclass(frozen=True)
class DriftSchedule:
    """Time-ordered calibration epochs layered over a base noise model."""

    base: NoiseModel
    epochs: tuple[DriftEpoch, ...]
    walk: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "epochs", tuple(self.epochs))
        object.__setattr__(self, "walk", _freeze(self.walk))
        order = [(e.day, LABEL_ORDER[e.label]) for e in self.epochs]
        if any(b <= a for a, b in zip(order, order[1:])):
            raise DriftScheduleError("epochs must be strictly time ordered")
        for name, sigma in self.walk.items():
            if name not in _LOG_WALK_PARAMS + _LINEAR_WALK_PARAMS:
                raise DriftScheduleError(f"unknown walk parameter {name!r}")
            if not 0 <= sigma < math.inf:
                raise DriftScheduleError(f"walk {name} = {sigma} must be finite and >= 0")
        base_dict = self.base.to_dict()
        for epoch in self.epochs:
            _check_override_paths(epoch.overrides, base_dict, epoch.key)
            try:
                NoiseModel.from_dict(_merge(base_dict, epoch.overrides))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DriftScheduleError(f"epoch {epoch.key}: {exc}") from None

    def epoch_index(self, day: int, label: str) -> int:
        for i, e in enumerate(self.epochs):
            if e.key == (day, label):
                return i
        raise DriftScheduleError(f"unknown epoch (day={day}, label={label!r})")


def _check_override_paths(overrides: Mapping, base: Mapping, key) -> None:
    for section, value in overrides.items():
        if section not in base:
            raise DriftScheduleError(
                f"epoch {key}: override section {section!r} not in base model"
            )
        if section in ("t1", "t2", "readout_error", "prep_flip"):
            for q in value:
                q = check_kind(q, 0, f"epoch {key}: {section} override key", DriftScheduleError)
                if q not in base[section]:
                    raise DriftScheduleError(
                        f"epoch {key}: override {section}[{q}] has no base value"
                    )


def _merge(base: dict, overrides: Mapping) -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for section, value in overrides.items():
        if isinstance(value, Mapping) and isinstance(out.get(section), dict):
            sub = out[section]
            for k, v in value.items():
                if isinstance(v, Mapping) and isinstance(sub.get(k), dict):
                    sub[k] = {**sub[k], **dict(v)}
                else:
                    sub[k] = v
        else:
            out[section] = value
    return out


def _walk_offset(rng_seed: int, tag: str, sigma: float, steps: int) -> float:
    if sigma == 0 or steps <= 0:
        return 0.0
    rng = rng_from(rng_seed, "walk", tag)
    return float(rng.normal(0.0, sigma, size=steps).sum())


def drift_params_at(
    schedule: DriftSchedule, day: int, label: str, seed: int
) -> NoiseModel:
    """Noise model in force at one epoch: overrides plus seeded random walk.

    The walk is cumulative over the epoch index, Gaussian on a log scale for
    T1/T2 and linear for probabilities, angles and readout error, clipped to
    physical ranges.  Output is deterministic per (schedule, day, label, seed).
    """
    idx = schedule.epoch_index(day, label)
    merged = schedule.base.to_dict()
    # Deep copy so the walk below never mutates the epoch's override dicts.
    merged = copy.deepcopy(_merge(merged, schedule.epochs[idx].overrides))
    steps = idx + 1

    sig = schedule.walk.get("t1", 0.0)
    for q in sorted(merged["t1"]):
        merged["t1"][q] *= math.exp(_walk_offset(seed, f"t1/{q}", sig, steps))
    sig = schedule.walk.get("t2", 0.0)
    for q in sorted(merged["t2"]):
        walked = merged["t2"][q] * math.exp(_walk_offset(seed, f"t2/{q}", sig, steps))
        limit = 2 * merged["t1"].get(q, math.inf)
        merged["t2"][q] = min(walked, limit)

    sig = schedule.walk.get("readout", 0.0)
    for q in sorted(merged["readout_error"]):
        e = merged["readout_error"][q] + _walk_offset(seed, f"ro/{q}", sig, steps)
        merged["readout_error"][q] = min(1.0, max(0.0, e))

    sig = schedule.walk.get("prob", 0.0)
    for cls in sorted(merged["pauli_errors"]):
        probs = merged["pauli_errors"][cls]
        for s in sorted(probs):
            p = probs[s] + _walk_offset(seed, f"p/{cls}/{s}", sig, steps)
            probs[s] = max(0.0, p)
        total = sum(probs.values())
        if total > 1:
            probs.update({s: p / total for s, p in probs.items()})

    sig = schedule.walk.get("angle", 0.0)
    for key in sorted(merged["cnot_rotation"]):
        axis, angle = merged["cnot_rotation"][key]
        merged["cnot_rotation"][key] = [
            axis,
            angle + _walk_offset(seed, f"rot/{key}", sig, steps),
        ]
    merged["crosstalk"] = [
        {
            **t,
            "angle": t["angle"] + _walk_offset(
                seed, f"xt/{t['pair'][0]}-{t['pair'][1]}-{t['spectator']}", sig, steps
            ),
        }
        for t in merged["crosstalk"]
    ]

    return NoiseModel.from_dict(merged)
