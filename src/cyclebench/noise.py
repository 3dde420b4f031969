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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .pauli import PauliString
from .sim import KrausChannel, rng_from

SINGLE_QUBIT = "single_qubit"
CNOT = "cnot"

DEFAULT_DURATIONS = {SINGLE_QUBIT: 50.0, CNOT: 300.0}  # ns; not hardware-derived

EPOCH_LABELS = ("morning", "afternoon", "night")


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


def depolarizing_channel(lam: float, n_qubits: int) -> KrausChannel:
    """rho -> (1 - lam) rho + lam I / 2^n."""
    if not 0 <= lam <= 1:
        raise NoiseModelError(f"depolarizing strength {lam} outside [0, 1]")
    return pauli_channel(depolarizing_pauli_probs(lam, n_qubits))


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
            z = np.array([[1, 0], [0, -1]], dtype=complex)
            ops = [math.sqrt(1 - p_z) * k for k in ops] + [
                math.sqrt(p_z) * (z @ k) for k in ops
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


@dataclass(frozen=True)
class NoiseModel:
    """Immutable per-gate-class error description keyed by physical qubits.

    ``pauli_errors`` maps a gate class to {pauli letters: probability} on the
    gate's own qubits.  Classes are ``single_qubit``, ``cnot``, and the
    pair-specific refinement ``cnot:a-b`` which wins over ``cnot`` for that
    ordered pair.  ``cnot_rotation`` uses the key ``*`` for all pairs or
    ``a-b`` for one pair, again most-specific-wins.
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
        object.__setattr__(self, "readout", _freeze(self.readout))
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
        for q, mat in self.readout.items():
            m = np.asarray(mat, dtype=float)
            if m.shape != (2, 2) or np.any(m < 0):
                raise NoiseModelError(f"readout({q}) is not a 2x2 stochastic matrix")
            if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
                raise NoiseModelError(f"readout({q}) rows do not sum to 1")
        for cls, probs in self.pauli_errors.items():
            total = 0.0
            for letters, p in probs.items():
                if not (math.isfinite(p) and p >= 0):
                    raise NoiseModelError(
                        f"Pauli probability {letters} = {p} in {cls} must be finite and >= 0"
                    )
                PauliString.parse(letters)
                total += p
            if total > 1 + 1e-12:
                raise NoiseModelError(f"Pauli probabilities in {cls} sum to {total} > 1")
        for cls, t in self.durations.items():
            if not (math.isfinite(t) and t >= 0):
                raise NoiseModelError(f"duration({cls}) = {t} must be finite and >= 0")
        for q, p in self.prep_flip.items():
            if not 0 <= p <= 1:
                raise NoiseModelError(f"prep flip({q}) = {p} outside [0, 1]")
        for term in self.crosstalk:
            if term.spectator in term.pair:
                raise NoiseModelError("crosstalk spectator coincides with active pair")

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
        """Plain-dict form (scalar readout) used by config files and drift."""
        ro = {}
        for q, mat in self.readout.items():
            m = np.asarray(mat)
            ro[q] = float((m[0, 1] + m[1, 0]) / 2)
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
        data = dict(data or {})
        readout = {
            int(q): confusion_from_scalar(float(e))
            for q, e in (data.get("readout_error") or {}).items()
        }
        rotation = {}
        for key, val in (data.get("cnot_rotation") or {}).items():
            axis, angle = (val["axis"], val["angle"]) if isinstance(val, Mapping) else val
            rotation[str(key)] = (str(axis), float(angle))
        crosstalk = tuple(
            CrosstalkTerm(
                pair=(int(t["pair"][0]), int(t["pair"][1])),
                spectator=int(t["spectator"]),
                angle=float(t["angle"]),
            )
            for t in (data.get("crosstalk") or [])
        )
        return cls(
            t1={int(q): float(v) for q, v in (data.get("t1") or {}).items()},
            t2={int(q): float(v) for q, v in (data.get("t2") or {}).items()},
            readout=readout,
            pauli_errors={
                str(c): {str(s): float(p) for s, p in probs.items()}
                for c, probs in (data.get("pauli_errors") or {}).items()
            },
            cnot_rotation=rotation,
            crosstalk=crosstalk,
            durations={str(k): float(v) for k, v in (data.get("durations") or {}).items()},
            prep_flip={int(q): float(p) for q, p in (data.get("prep_flip") or {}).items()},
        )


# ---------------------------------------------------------------------------
# Drift schedule

_LABEL_ORDER = {label: i for i, label in enumerate(EPOCH_LABELS)}

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
        if self.label not in _LABEL_ORDER:
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
        order = [(e.day, _LABEL_ORDER[e.label]) for e in self.epochs]
        if any(b <= a for a, b in zip(order, order[1:])):
            raise DriftScheduleError("epochs must be strictly time ordered")
        for name in self.walk:
            if name not in _LOG_WALK_PARAMS + _LINEAR_WALK_PARAMS:
                raise DriftScheduleError(f"unknown walk parameter {name!r}")
        base_dict = self.base.to_dict()
        for epoch in self.epochs:
            _check_override_paths(epoch.overrides, base_dict, epoch.key)

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
                if int(q) not in base[section]:
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
