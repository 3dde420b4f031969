"""Cycle benchmarking and randomized benchmarking.

Cycle benchmarking characterises one hard cycle: prepare an eigenstate of a
sampled Pauli, interleave the cycle with fresh random twirl cycles m times,
rotate the propagated frame back onto the computational basis, measure, and
fit the expectation decay A * p^m per Pauli.  The per-Pauli decays aggregate
into a process infidelity for the dressed cycle.

Randomized benchmarking runs uniformly random Clifford sequences with a
tableau-compiled exact inverse, fits the survival probability
A * p^m + 1/2^n, and converts the decay to an error rate and a process
infidelity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import pauli as pl
from .circuits import Circuit, Cycle, Gate, cycle_frame_table
from .engine import Executor
from .noise import NoiseModel
from .pauli import PauliString
from .sim import MAX_QUBITS, Streams, rng_from

TWIRL_GROUPS = ("pauli", "c1")


class ProtocolError(ValueError):
    pass


class FitError(ValueError):
    """Raised when a decay cannot be fitted from the given points."""


# ---------------------------------------------------------------------------
# Records

class DecayPoint(NamedTuple):
    """One circuit's estimated expectation for one decay term."""

    pauli: str
    m: int
    circuit_index: int
    expectation: float
    shot_error: float


@dataclass(frozen=True)
class DecayFit:
    """Fitted A * p^m for one Pauli decay term."""

    pauli: str
    amplitude: float
    decay: float
    decay_std: float


@dataclass(frozen=True)
class InfidelityEstimate:
    infidelity: float
    sigma: float
    source: str  # "CB" | "RB"
    label: str = ""
    day: int | None = None
    epoch: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.infidelity) and math.isfinite(self.sigma)):
            raise ProtocolError(
                f"infidelity {self.infidelity} and sigma {self.sigma} must be finite"
            )
        if self.sigma < 0:
            raise ProtocolError("sigma must be non-negative")

    def tagged(self, day: int, epoch: str) -> "InfidelityEstimate":
        return replace(self, day=day, epoch=epoch)


@dataclass(frozen=True)
class CbCircuit:
    circuit: Circuit
    prepared: PauliString
    measured: PauliString  # signed Z/I string; ideal expectation is +1
    m: int
    index: int


@dataclass(frozen=True)
class CbCollection:
    cycle: Cycle
    register: tuple[int, ...]
    twirl: str
    m_list: tuple[int, ...]
    n_random: int
    n_decays: int
    seed: int
    circuits: tuple[CbCircuit, ...]


# ---------------------------------------------------------------------------
# Collection generation

@functools.lru_cache(maxsize=None)
def _twirl_alphabet(twirl: str) -> tuple[tuple[tuple[str, int | None], ...], np.ndarray, np.ndarray]:
    """Twirl gates as (name, param) per drawn index, with their one-qubit
    frame tables stacked as read-only (index, letter) -> letter / sign arrays."""
    if twirl == "pauli":
        alphabet = tuple((c, None) for c in pl.LETTERS)
    else:
        alphabet = tuple(("C1", k) for k in range(pl.c1_count()))
    tables = [pl.gate_table(name, (0,), 1, param) for name, param in alphabet]
    image = np.stack([t.image for t in tables])
    sign = np.stack([t.sign for t in tables])
    image.setflags(write=False)
    sign.setflags(write=False)
    return alphabet, image, sign


def _basis_cycle(letters: str, register: tuple[int, ...], c1) -> Cycle:
    """One easy cycle of the C1 element ``c1`` gives each letter: the
    preparation (``pl.c1_preparing``) or the inversion (``pl.c1_measuring``)."""
    return Cycle("easy", tuple(Gate("C1", (register[i],), c1(c)) for i, c in enumerate(letters)))


def _check_lengths(m_list: Sequence[int], n_random: int) -> None:
    if len(set(m_list)) < 3:
        raise ProtocolError("m_list needs at least three distinct sequence lengths")
    if min(m_list) < 0:
        raise ProtocolError(f"m_list lengths must be >= 0, got {min(m_list)}")
    if n_random < 1:
        raise ProtocolError(f"n_random must be >= 1, got {n_random}")


def sample_decay_terms(n: int, n_decays: int, rng) -> list[PauliString]:
    """Uniform sample of non-identity Paulis without replacement.

    Requests beyond the 4^n - 1 available strings are clamped so exhaustive
    sampling stays well defined on small registers.
    """
    candidates = pl.all_pauli_letters(n)
    k = min(n_decays, len(candidates))
    order = rng.permutation(len(candidates))[:k]
    return [PauliString(candidates[i]) for i in order]


def make_cb(
    cycle: Cycle,
    m_list: Sequence[int],
    n_random: int,
    n_decays: int,
    twirl: str = "pauli",
    seed: int = 0,
    register: tuple[int, ...] | None = None,
) -> CbCollection:
    """Generate the twirled circuit collection characterising one hard cycle.

    Each circuit is: preparation basis change, then m repetitions of
    (random twirl cycle, target cycle), then one easy inversion cycle that
    maps the propagated frame onto a signed Z/I string.  Generation is
    deterministic in ``seed``: stream ``(seed, "twirl", d, m, j)`` feeds
    circuit j of decay term d at length m; the keys of all streams come from
    one ``Streams`` pass.  The frames of all streams of one (d, m) group
    advance together as integer Pauli indices.
    """
    if twirl not in TWIRL_GROUPS:
        raise ProtocolError(f"twirl must be one of {TWIRL_GROUPS}")
    _check_lengths(m_list, n_random)
    if n_decays < 1:
        raise ProtocolError(f"n_decays must be >= 1, got {n_decays}")
    if register is None:
        register = cycle.qubits
    register = tuple(register)
    n = len(register)
    if n > MAX_QUBITS:
        raise ProtocolError(f"registers are limited to {MAX_QUBITS} qubits, got {n}")
    # the one register check; every cycle built below sits on its labels, so
    # twirl cycles and circuits skip their own checks
    Circuit(register, (cycle,))
    try:
        hard = cycle_frame_table(cycle, register)
    except pl.NonCliffordGateError as exc:
        raise ProtocolError(f"target cycle is not Clifford: {exc}") from exc

    alphabet, twirl_image, twirl_sign = _twirl_alphabet(twirl)
    codes = pl.index_letters(n)
    place = pl.letter_place_values(n)
    draw_place = len(alphabet) ** np.arange(n - 1, -1, -1)
    # interned per call: one Gate per (qubit, twirl index), one Cycle per
    # distinct twirl draw and per distinct final frame
    twirl_gates = [[Gate(name, (q,), param) for name, param in alphabet] for q in register]
    labels = tuple(sorted(register))
    twirl_cycles: dict[int, Cycle] = {}
    inversions: dict[int, Cycle] = {}
    observables: dict[tuple[int, int], PauliString] = {}

    decays = sample_decay_terms(n, n_decays, rng_from(seed, "decays"))
    streams = iter(Streams(seed, (
        ("twirl", d_idx, m, j)
        for d_idx in range(len(decays)) for m in m_list for j in range(n_random)
    )))
    circuits: list[CbCircuit] = []
    for d_idx, prepared in enumerate(decays):
        prep = _basis_cycle(prepared.letters, register, pl.c1_preparing)
        for m in m_list:
            # one (m, n) draw per stream yields the same values as m draws of n
            draws = np.array(
                [
                    next(streams).integers(0, len(alphabet), size=(m, n))
                    for _ in range(n_random)
                ]
            ).reshape(n_random, m, n)
            # advance all n_random frames through (twirl, cycle) m times
            frame = np.full(n_random, pl.pauli_index(prepared.letters))
            sign = np.ones(n_random, dtype=np.int64)
            for t in range(m):
                letters = codes[frame]
                drawn = draws[:, t]
                sign *= twirl_sign[drawn, letters].prod(axis=1)
                frame = twirl_image[drawn, letters] @ place
                sign *= hard.sign[frame]
                frame = hard.image[frame]

            keys = (draws @ draw_place).tolist()
            for j, (f, s) in enumerate(zip(frame.tolist(), sign.tolist())):
                body: list[Cycle] = []
                for t, key in enumerate(keys[j]):
                    twirl_cycle = twirl_cycles.get(key)
                    if twirl_cycle is None:
                        row = draws[j, t].tolist()
                        twirl_cycle = twirl_cycles[key] = Cycle._unchecked(
                            "easy", tuple(twirl_gates[i][k] for i, k in enumerate(row)), labels
                        )
                    body += (twirl_cycle, cycle)
                if f not in inversions:
                    inversions[f] = _basis_cycle(pl.pauli_letters(f, n), register, pl.c1_measuring)
                # the inversion cycle maps each non-identity letter to +Z
                if (f, s) not in observables:
                    observables[(f, s)] = PauliString(
                        "".join("I" if c == "I" else "Z" for c in pl.pauli_letters(f, n)), s
                    )
                circuits.append(
                    CbCircuit(
                        circuit=Circuit._unchecked(register, (prep, *body, inversions[f])),
                        prepared=prepared,
                        measured=observables[(f, s)],
                        m=m,
                        index=len(circuits),
                    )
                )
    return CbCollection(
        cycle=cycle,
        register=register,
        twirl=twirl,
        m_list=tuple(m_list),
        n_random=n_random,
        n_decays=len(decays),
        seed=seed,
        circuits=tuple(circuits),
    )


def execute_collection(
    coll: CbCollection,
    noise: NoiseModel | None,
    shots: int | None,
) -> list[DecayPoint]:
    """Run every circuit and estimate its designated expectation.

    ``shots=None`` uses the analytic density/statevector expectation (an
    infinite-shot surrogate).  Sampling streams derive from the collection
    seed and the circuit index, so repeated runs reproduce the table exactly.
    Each stack that ``Executor.run_many`` yields is read out at once.
    """
    if shots is not None and shots < 1:
        raise ProtocolError("shots must be >= 1")
    executor = Executor(coll.register, noise)
    streams = None
    if shots is not None:
        streams = Streams(coll.seed, (("exec", cc.index) for cc in coll.circuits))
    points = [None] * len(coll.circuits)
    for part, stack in executor.run_many([cc.circuit for cc in coll.circuits]):
        members = [coll.circuits[i] for i in part]
        xs, errs = executor.measured_expectation(
            executor.probabilities(stack), [cc.measured for cc in members], shots, streams, part
        )
        for i, cc, x, err in zip(part, members, xs, errs):
            points[i] = DecayPoint(cc.prepared.letters, cc.m, cc.index, x, err)
    return points


# ---------------------------------------------------------------------------
# Exponential decay fitting

def _aggregate(points: Sequence[DecayPoint]) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Lengths, their mean expectations, and each length's expectations and shot errors."""
    by_m: dict[int, tuple[list, list]] = {}
    for p in points:
        xs, errs = by_m.setdefault(int(p.m), ([], []))
        xs.append(float(p.expectation))
        errs.append(p.shot_error)
    lengths = sorted(by_m)
    groups = [np.array(by_m[m][0]) for m in lengths]
    means = np.array([g.mean() for g in groups])
    return np.array(lengths, dtype=float), means, groups, [np.array(by_m[m][1]) for m in lengths]


def _group_weights(groups: list[np.ndarray], shot_errs: list[np.ndarray]) -> np.ndarray:
    """Inverse-variance weights per sequence length."""
    sig = np.zeros(len(groups))
    for i, (g, se) in enumerate(zip(groups, shot_errs)):
        k = len(g)
        empirical = g.std(ddof=1) / math.sqrt(k) if k > 1 else 0.0
        propagated = math.sqrt(float(np.sum(se**2))) / k
        sig[i] = max(empirical, propagated)
    if np.all(sig <= 0):
        return np.ones(len(groups))
    floor = max(1e-12, 0.05 * sig[sig > 0].min())
    return 1.0 / np.maximum(sig, floor) ** 2


def _fit_rows(ms: np.ndarray, means: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised A * p^m fit: log-linear seed plus one Gauss-Newton pass.

    ``means`` has shape (rows, len(ms)); returns (A, p) per row, p clipped to
    [0, 1].  Rows with fewer than two positive means fall back to a neutral
    seed before the Gauss-Newton step.
    """
    means = np.atleast_2d(means)
    w = np.broadcast_to(weights, means.shape).astype(float)

    pos = means > 1e-12
    wl = np.where(pos, w, 0.0)
    logs = np.log(np.where(pos, means, 1.0))
    sw = wl.sum(axis=1)
    enough = pos.sum(axis=1) >= 2
    sw_safe = np.where(sw > 0, sw, 1.0)
    mbar = (wl * ms).sum(axis=1) / sw_safe
    ybar = (wl * logs).sum(axis=1) / sw_safe
    var_m = (wl * (ms - mbar[:, None]) ** 2).sum(axis=1)
    cov = (wl * (ms - mbar[:, None]) * (logs - ybar[:, None])).sum(axis=1)
    slope = np.where((var_m > 0) & enough, cov / np.where(var_m > 0, var_m, 1.0), 0.0)
    intercept = np.where(enough, ybar - slope * mbar, math.log(0.5))
    a = np.exp(intercept)
    p = np.clip(np.exp(slope), 1e-9, 1.0)

    # one Gauss-Newton refinement on all points, negative means included
    pm = p[:, None] ** ms
    resid = means - a[:, None] * pm
    ja = pm
    jp = a[:, None] * ms * p[:, None] ** np.maximum(ms - 1, 0.0)
    saa = (w * ja * ja).sum(axis=1)
    sap = (w * ja * jp).sum(axis=1)
    spp = (w * jp * jp).sum(axis=1)
    ra = (w * ja * resid).sum(axis=1)
    rp = (w * jp * resid).sum(axis=1)
    det = saa * spp - sap * sap
    ok = np.abs(det) > 1e-30
    det_safe = np.where(ok, det, 1.0)
    da = np.where(ok, (spp * ra - sap * rp) / det_safe, 0.0)
    dp = np.where(ok, (saa * rp - sap * ra) / det_safe, 0.0)
    a = a + da
    p = np.clip(p + dp, 0.0, 1.0)
    return a, p


def fit_decay(
    points: Iterable[DecayPoint | tuple],
    resamples: int = 200,
    seed: int = 0,
    pauli: str | None = None,
) -> DecayFit:
    """Weighted least-squares fit of x(m) = A * p^m with bootstrap errors.

    The seed fit is log-linear on the positive per-length means; one
    Gauss-Newton pass refines (A, p) on all points.  ``decay_std`` comes from
    a nonparametric bootstrap that resamples circuits within each length.
    """
    if resamples == 1 or resamples < 0:
        raise FitError(f"resamples must be 0 (no bootstrap) or at least 2, got {resamples}")
    pts = [DecayPoint(*p) for p in points]
    if not pts:
        raise FitError("no points to fit")
    if pauli is None:
        pauli = pts[0].pauli
    ms, means, groups, shot_errs = _aggregate(pts)
    if len(ms) < 3:
        raise FitError(f"need at least three distinct sequence lengths, got {len(ms)}")
    if np.all(means <= 0):
        raise FitError("all mean expectations are non-positive; decay unresolvable")
    weights = _group_weights(groups, shot_errs)

    a, p = _fit_rows(ms, means, weights)
    amplitude, decay = float(a[0]), float(p[0])

    if resamples > 0 and max(len(g) for g in groups) > 1:
        rng = rng_from(seed, "bootstrap", pauli)
        boot_means = np.empty((resamples, len(ms)))
        for i, g in enumerate(groups):
            idx = rng.integers(0, len(g), size=(resamples, len(g)))
            boot_means[:, i] = g[idx].mean(axis=1)
        _, boot_p = _fit_rows(ms, boot_means, weights)
        decay_std = float(boot_p.std(ddof=1))
    else:
        decay_std = 0.0
    return DecayFit(pauli=pauli, amplitude=amplitude, decay=decay, decay_std=decay_std)


def fit_all_decays(points: Sequence[DecayPoint], resamples: int = 200, seed: int = 0) -> list[DecayFit]:
    by_pauli: dict[str, list[DecayPoint]] = {}
    for p in points:
        by_pauli.setdefault(p.pauli, []).append(p)
    return [
        fit_decay(by_pauli[s], resamples=resamples, seed=seed, pauli=s)
        for s in sorted(by_pauli)
    ]


# ---------------------------------------------------------------------------
# Aggregation

def estimate_process_infidelity(
    fits: Sequence[DecayFit], n_qubits: int, source: str = "CB", label: str = ""
) -> InfidelityEstimate:
    """Unbiased process infidelity from per-Pauli decays.

    F = (1 + (4^n - 1) * mean(p_k)) / 4^n, exact when the non-identity Paulis
    are exhausted and unbiased under uniform sampling.  The error combines the
    per-fit uncertainties with a finite-population term for the sampled-decay
    case.
    """
    if not fits:
        raise ProtocolError("no decay fits given")
    seen = set()
    for f in fits:
        if f.pauli in seen:
            raise ProtocolError(f"duplicate decay term {f.pauli}")
        if set(f.pauli) == {"I"}:
            raise ProtocolError("identity decay term is not allowed")
        seen.add(f.pauli)
    dim4 = 4**n_qubits
    k = len(fits)
    p = np.array([f.decay for f in fits])
    sig = np.array([f.decay_std for f in fits])
    fidelity = (1.0 + (dim4 - 1) * p.mean()) / dim4
    var_mean = float(np.sum(sig**2)) / k**2
    if k < dim4 - 1 and k > 1:
        spread = float(p.var(ddof=1))
        var_mean += (1.0 - k / (dim4 - 1)) * spread / k
    sigma = (dim4 - 1) / dim4 * math.sqrt(var_mean)
    return InfidelityEstimate(
        infidelity=float(1.0 - fidelity), sigma=sigma, source=source, label=label
    )


def cb_process_infidelity(
    cycle: Cycle,
    noise: NoiseModel | None,
    m_list: Sequence[int] = (2, 10, 22),
    n_random: int = 48,
    n_decays: int = 16,
    shots: int | None = 128,
    twirl: str = "pauli",
    seed: int = 0,
    register: tuple[int, ...] | None = None,
    resamples: int = 200,
    label: str = "",
) -> tuple[InfidelityEstimate, list[DecayFit], list[DecayPoint]]:
    """End-to-end cycle benchmark: generate, execute, fit, aggregate."""
    coll = make_cb(cycle, m_list, n_random, n_decays, twirl=twirl, seed=seed, register=register)
    points = execute_collection(coll, noise, shots)
    fits = fit_all_decays(points, resamples=resamples, seed=seed)
    est = estimate_process_infidelity(fits, len(coll.register), source="CB", label=label)
    return est, fits, points


# ---------------------------------------------------------------------------
# Randomized benchmarking

def rb_to_process_infidelity(d: int, p: float | None = None, r: float | None = None) -> tuple[float, float]:
    """(error rate, process infidelity) from an RB decay or error rate.

    r = (d-1)/d * (1-p) and the infidelity is r * (d+1)/d; plain arithmetic.
    """
    if d < 2 or (d & (d - 1)) != 0:
        raise ProtocolError(f"dimension {d} is not a power of two")
    if (p is None) == (r is None):
        raise ProtocolError("give exactly one of p or r")
    if p is not None:
        if not 0 <= p <= 1:
            raise ProtocolError(f"decay {p} outside [0, 1]")
        r = (d - 1) / d * (1.0 - p)
    if not 0 <= r <= 1:
        raise ProtocolError(f"error rate {r} outside [0, 1]")
    return r, r * (d + 1) / d


@dataclass(frozen=True)
class RbResult:
    estimate: InfidelityEstimate
    fit: DecayFit
    error_rate: float
    error_rate_std: float


def run_rb(
    qubits: Sequence[int],
    m_list: Sequence[int],
    n_random: int,
    noise: NoiseModel | None,
    shots: int | None,
    seed: int = 0,
    resamples: int = 200,
    label: str = "",
) -> RbResult:
    """Standard RB on one or two qubits.

    Cliffords are sampled uniformly from the enumerated group; single-qubit
    Cliffords execute as one gate each, two-qubit Cliffords as their canonical
    gate word.  The exact inverse is compiled by tableau composition and
    appended as a single element.  Survival is fitted as A * p^m + 1/2^n with
    the floor pinned.
    """
    register = tuple(qubits)
    n = len(register)
    if n not in (1, 2):
        raise ProtocolError("randomized benchmarking supports 1 or 2 qubits only")
    _check_lengths(m_list, n_random)
    if shots is not None and shots < 1:
        raise ProtocolError("shots must be >= 1")
    group_size = pl.clifford_count(n)
    executor = Executor(register, noise)
    floor = 1.0 / 2**n
    # one-gate cycles, interned per (name, local positions, param)
    cycles: dict[tuple, Cycle] = {}

    def one_gate_cycle(spec: tuple) -> Cycle:
        if spec not in cycles:
            name, pos, param = spec
            gate = Gate(name, tuple(register[p] for p in pos), param)
            cycles[spec] = Cycle("hard" if name == "CNOT" else "easy", (gate,))
        return cycles[spec]

    lengths = sorted(set(int(v) for v in m_list))
    streams = iter(Streams(seed, (("rb", m, j) for m in lengths for j in range(n_random))))
    if shots is not None:
        count_streams = Streams(seed, (("rb-exec", i) for i in range(len(lengths) * n_random)))
    points: list[DecayPoint] = []
    index = 0
    for m in lengths:
        for _ in range(n_random):
            rng = next(streams)
            logical: list[tuple[str, tuple[int, ...], int | None]] = []
            for _ in range(m):
                k = int(rng.integers(0, group_size))
                if n == 1:
                    logical.append(("C1", (0,), k))
                else:
                    logical.extend((name, tuple(pos), None) for name, *pos in pl.clifford_word(n, k))
            if n == 1:
                # C1 indices are clifford_group(1) indices: the inverse is one C1
                logical.append(("C1", (0,), pl.clifford_inverse(1, logical)))
            else:
                inverse_word = pl.clifford_inverse_word(n, logical)
                logical.extend((name, tuple(pos), None) for name, *pos in inverse_word)
            circuit = Circuit(register, tuple(one_gate_cycle(spec) for spec in logical))
            probs = executor.outcome_probabilities(executor.run(circuit))
            if shots is None:
                survival = float(probs[0])
                err = 0.0
            else:
                survival = int(count_streams[index].multinomial(shots, probs)[0]) / shots
                err = math.sqrt(max(0.0, survival * (1 - survival)) / shots)
            points.append(DecayPoint("survival", m, index, survival - floor, err))
            index += 1
    fit = fit_decay(points, resamples=resamples, seed=seed, pauli="survival")
    d = 2**n
    r, e_f = rb_to_process_infidelity(d, p=fit.decay)
    r_std = (d - 1) / d * fit.decay_std
    est = InfidelityEstimate(
        infidelity=e_f, sigma=r_std * (d + 1) / d, source="RB", label=label
    )
    return RbResult(estimate=est, fit=fit, error_rate=r, error_rate_std=r_std)
