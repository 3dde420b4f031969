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
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import pauli as pl
from .circuits import Circuit, Cycle, Gate, cycle_frame_table
from .engine import Batch, Executor, GateRows
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


# a DecayPoint from one tuple, without the namedtuple's Python-level __new__
_point = functools.partial(tuple.__new__, DecayPoint)


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


class CbCircuit(NamedTuple):
    """Circuit ``index`` of a collection; its cycles are row ``index`` of
    the collection's batch (``CbCollection.batch.circuit(index)``)."""

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
    batch: Batch


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


def _check_integer(what: str, v, least: int | None = None, error=ProtocolError) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise error(f"{what} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise error(f"{what} must be >= {least}, got {v}")


def _check_lengths(m_list: Sequence[int], n_random: int) -> None:
    for m in m_list:
        _check_integer("an m_list length", m)
    _check_integer("n_random", n_random, 1)
    if len(set(m_list)) < 3:
        raise ProtocolError("m_list needs at least three distinct sequence lengths")
    if len(set(m_list)) != len(m_list):
        # a repeated length would draw its circuits twice from the same streams
        raise ProtocolError(f"m_list repeats a sequence length: {list(m_list)}")
    if min(m_list) < 0:
        raise ProtocolError(f"m_list lengths must be >= 0, got {min(m_list)}")


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
    circuit j of decay term d at length m.  Each length is one array pass
    over every decay term: ``Streams.integers`` draws its twirls and the
    frames advance together as integer Pauli indices.  The collection is
    one batch of gate rows (the target, each decay term's preparation, each
    distinct twirl draw, each distinct final frame's inversion) and each
    circuit is one row of codes in ``CbCollection.batch``, filled by array
    writes: a length's twirl codes come from one ``np.unique`` over its draw
    keys, the inversion codes from one over all final frames.  A new twirl
    draw's picks are its gate row (``GateRows.block``); no ``Cycle`` is
    built for it.
    """
    if twirl not in TWIRL_GROUPS:
        raise ProtocolError(f"twirl must be one of {TWIRL_GROUPS}")
    _check_lengths(m_list, n_random)
    _check_integer("n_decays", n_decays, 1)
    _check_integer("seed", seed, 0)
    m_list = tuple(map(int, m_list))
    if register is None:
        register = cycle.qubits
    register = tuple(register)
    n = len(register)
    if n > MAX_QUBITS:
        raise ProtocolError(f"registers are limited to {MAX_QUBITS} qubits, got {n}")
    # distinct labels, holding the target
    Circuit(register, (cycle,))
    try:
        hard = cycle_frame_table(cycle, register)
    except pl.NonCliffordGateError as exc:
        raise ProtocolError(f"target cycle is not Clifford: {exc}") from exc

    alphabet, twirl_image, twirl_sign = _twirl_alphabet(twirl)
    letter_codes = pl.index_letters(n)
    place = pl.letter_place_values(n)
    draw_place = len(alphabet) ** np.arange(n - 1, -1, -1)

    decays = sample_decay_terms(n, n_decays, rng_from(seed, "decays"))
    n_d, n_m = len(decays), len(m_list)
    # stream (d, m_list[mi], j) is row (d * n_m + mi) * n_random + j, which
    # is also its circuit's index
    streams = Streams(seed, (
        ("twirl", d_idx, m, j) for d_idx in range(n_d) for m in m_list for j in range(n_random)
    ))
    # every easy cycle here holds one gate per register qubit, in register order
    structure = ("easy", tuple((q,) for q in register))
    # the batch's gate rows, in code order; gate code a is alphabet entry a,
    # so a twirl draw's picks are its row
    gate_rows = GateRows(register, (Gate(name, register[:1], param) for name, param in alphabet))
    gate_rows.cycles((cycle, *(_basis_cycle(p.letters, register, pl.c1_preparing)
                               for p in decays)))
    twirl_code: dict[int, int] = {}  # by draw key
    # codes: 0 the target, 1 + d decay term d's preparation, then the twirl
    # draws, then the inversions; each row right-aligned behind -1
    width = 2 * max(m_list) + 2
    grid = np.full((len(streams), width), -1, dtype=np.int32)
    final = np.empty(len(streams), dtype=np.int64)
    final_sign = np.empty(len(streams), dtype=np.int64)
    start = np.repeat([pl.pauli_index(p.letters) for p in decays], n_random)
    for mi, m in enumerate(m_list):
        rows = ((np.arange(n_d)[:, None] * n_m + mi) * n_random + np.arange(n_random)).ravel()
        # one draw of m * n per stream reads the same values as m draws of n
        draws = streams.integers(rows, len(alphabet), m * n).reshape(len(rows), m, n)
        # advance the frames of every decay term through (twirl, cycle) m times
        frame = start
        sign = np.ones(len(rows), dtype=np.int64)
        for t in range(m):
            letters = letter_codes[frame]
            sign *= twirl_sign[draws[:, t], letters].prod(axis=1)
            frame = twirl_image[draws[:, t], letters] @ place
            sign *= hard.sign[frame]
            frame = hard.image[frame]
        final[rows], final_sign[rows] = frame, sign
        # this length's twirl codes, new draws numbered in key order
        flat = draws.reshape(-1, n)
        keys, first, inverse = np.unique(flat @ draw_place, return_index=True, return_inverse=True)
        known = len(twirl_code)
        codes = np.fromiter((twirl_code.setdefault(k, len(twirl_code)) for k in keys.tolist()),
                            np.int32, len(keys))
        gate_rows.block(structure, flat[first[codes >= known]])
        # each row: preparation, m times (twirl, cycle), inversion
        lo = width - 2 * m - 2
        grid[rows, lo] = 1 + rows // (n_m * n_random)
        grid[rows, lo + 1:-1:2] = (1 + n_d + codes[inverse]).reshape(len(rows), m)
        grid[rows, lo + 2:-1:2] = 0

    # return_index makes np.unique a stable sort: numpy's default sort would
    # page in about 0.3 MB of kernels that nothing else uses
    frames, _, inversion_codes = np.unique(final, return_index=True, return_inverse=True)
    grid[:, -1] = 1 + n_d + len(twirl_code) + inversion_codes
    gate_rows.cycles(_basis_cycle(pl.pauli_letters(f, n), register, pl.c1_measuring)
                     for f in frames.tolist())

    # the inversion cycle maps each non-identity letter to +Z
    signed, _, observable_codes = np.unique(2 * final + (final_sign > 0), return_index=True,
                                            return_inverse=True)
    observables = [
        PauliString("".join("I" if c == "I" else "Z" for c in pl.pauli_letters(k >> 1, n)),
                    1 if k & 1 else -1)
        for k in signed.tolist()
    ]
    circuits = tuple(map(
        CbCircuit,
        [p for p in decays for _ in range(n_m * n_random)],
        map(observables.__getitem__, observable_codes.tolist()),
        np.tile(np.repeat(m_list, n_random), n_d).tolist(),
        range(len(streams)),
    ))
    return CbCollection(cycle=cycle, register=register, twirl=twirl, m_list=m_list,
                        n_random=n_random, n_decays=n_d, seed=seed, circuits=circuits,
                        batch=Batch(register, gate_rows, grid))


def execute_collection(
    coll: CbCollection,
    noise: NoiseModel | None,
    shots: int | None,
) -> list[DecayPoint]:
    """Run every circuit and estimate its designated expectation.

    ``shots=None`` uses the analytic density/statevector expectation (an
    infinite-shot surrogate).  Sampling streams derive from the collection
    seed and the circuit index, so repeated runs reproduce the table exactly.
    """
    streams = None
    if shots is not None:
        _check_integer("shots", shots, 1)
        streams = Streams(coll.seed, (("exec", cc.index) for cc in coll.circuits))
    executor = Executor(coll.register, noise)
    xs, errs = executor.measured_expectation(
        executor.probabilities(coll.batch),
        [cc.measured for cc in coll.circuits], shots, streams,
    )
    return [_point((cc.prepared.letters, cc.m, cc.index, x, err))
            for cc, x, err in zip(coll.circuits, xs, errs, strict=True)]


# ---------------------------------------------------------------------------
# Exponential decay fitting

def _fit_rows(ms: np.ndarray, means: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised A * p^m fit: log-linear seed plus one Gauss-Newton pass.

    ``means`` and the weights ``w`` have shape (rows, len(ms)); returns
    (A, p) per row, p clipped to [0, 1].  Rows with fewer than two positive
    means fall back to a neutral seed before the Gauss-Newton step.
    """
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
    jp = a[:, None] * ms * p[:, None] ** np.maximum(ms - 1, 0.0)
    saa = (w * pm * pm).sum(axis=1)
    sap = (w * pm * jp).sum(axis=1)
    spp = (w * jp * jp).sum(axis=1)
    ra = (w * pm * resid).sum(axis=1)
    rp = (w * jp * resid).sum(axis=1)
    det = saa * spp - sap * sap
    ok = np.abs(det) > 1e-30
    det_safe = np.where(ok, det, 1.0)
    da = np.where(ok, (spp * ra - sap * rp) / det_safe, 0.0)
    dp = np.where(ok, (saa * rp - sap * ra) / det_safe, 0.0)
    a = a + da
    p = np.clip(p + dp, 0.0, 1.0)
    return a, p


def _fit_pass(points, resamples: int, seed: int, one_term=False, pauli=None) -> list[DecayFit]:
    """``fit_all_decays``, or with ``one_term`` ``fit_decay``."""
    _check_integer("resamples", resamples, error=FitError)
    _check_integer("seed", seed, 0, FitError)
    if resamples == 1 or resamples < 0:
        raise FitError(f"resamples must be 0 (no bootstrap) or an integer >= 2, got {resamples!r}")
    columns = list(zip(*points, strict=True))
    if len(columns) != len(DecayPoint._fields):
        raise FitError("points need the five DecayPoint fields" if columns else "no points to fit")
    terms, ms, _, xs, errs = columns
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, ms))) or min(ms) < 0:
        raise FitError("sequence lengths m must be integers >= 0")
    if one_term and (len(set(terms)) > 1 or pauli not in (None, terms[0])):
        raise FitError(f"fit_decay fits one decay term, {pauli!r} if given; got {sorted(set(terms))}")
    keys = list(zip(terms, ms))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    xs, errs = np.array(xs, dtype=float)[order], np.array(errs, dtype=float)[order]
    if not (np.isfinite(xs).all() and ((errs >= 0) & (errs < np.inf)).all()):
        raise FitError("expectations must be finite, and shot errors finite and >= 0")

    blocks: dict[tuple, list] = {}  # (lengths, t // 4) -> (term, rows, weights)
    lo = 0
    # ((term, m), group size) in the order the stable sort put the points
    by_term = groupby(sorted(Counter(keys).items()), key=lambda group: group[0][0])
    for t, (term, groups) in enumerate(by_term):
        lengths = [(m, k) for (_, m), k in groups]
        if len(lengths) < 3:
            raise FitError(f"need at least three distinct sequence lengths, got {len(lengths)}")
        boot = resamples if max(k for _, k in lengths) > 1 else 0
        rng = rng_from(seed, "bootstrap", term) if boot else None
        # row 0 the mean per length, then one row per bootstrap resample
        rows = np.empty((1 + boot, len(lengths)))
        sig = np.empty(len(lengths))
        for i, (_, k) in enumerate(lengths):
            g, se = xs[lo:lo + k], errs[lo:lo + k]
            lo += k
            rows[0, i] = g.mean()
            empirical = g.std(ddof=1) / math.sqrt(k) if k > 1 else 0.0
            sig[i] = max(empirical, math.sqrt(float(np.sum(se**2))) / k)
            if boot:
                rows[1:, i] = g[rng.integers(0, k, size=(boot, k))].mean(axis=1)
        if not (rows[0] > 0).any():
            raise FitError("all mean expectations are non-positive; decay unresolvable")
        # inverse-variance weights, floored at 5% of the smallest positive sigma
        weights = (1.0 / np.maximum(sig, max(1e-12, 0.05 * sig[sig > 0].min())) ** 2
                   if (sig > 0).any() else np.ones(len(sig)))
        # one _fit_rows call per four terms of one set of lengths keeps its temporaries small
        blocks.setdefault((tuple(m for m, _ in lengths), t // 4), []).append((term, rows, weights))

    fits = []
    for (lengths, _), entries in blocks.items():
        counts = [len(rows) for _, rows, _ in entries]
        a, p = _fit_rows(np.array(lengths, dtype=float),
                         np.concatenate([rows for _, rows, _ in entries]),
                         np.repeat([w for _, _, w in entries], counts, axis=0))
        for (term, _, _), at, count in zip(entries, np.cumsum(counts) - counts, counts):
            decay_std = float(p[at + 1:at + count].std(ddof=1)) if count > 1 else 0.0
            fits.append(DecayFit(term, float(a[at]), float(p[at]), decay_std))
    return sorted(fits, key=lambda fit: fit.pauli)


def fit_decay(points: Iterable[DecayPoint | tuple], resamples: int = 200, seed: int = 0,
              pauli: str | None = None) -> DecayFit:
    """Weighted least-squares fit of x(m) = A * p^m with bootstrap errors.

    The seed fit is log-linear on the positive per-length means; one
    Gauss-Newton pass refines (A, p) on all points.  ``decay_std`` comes from
    a nonparametric bootstrap that resamples circuits within each length.
    ``fit_all_decays``'s pass and checks, for one term (``pauli`` if given).
    """
    return _fit_pass(points, resamples, seed, one_term=True, pauli=pauli)[0]


def fit_all_decays(points: Iterable[tuple], resamples: int = 200, seed: int = 0) -> list[DecayFit]:
    """``fit_decay`` of every decay term in ``points``, in sorted order, in
    one pass: the points (DecayPoints or tuples, in any order) are read once,
    checked, and stably sorted by (term, m), so each length's points are one
    slice; every term's point and bootstrap rows share a ``_fit_rows`` call.
    FitError for no points, an m not an integer >= 0, a non-finite or
    negative shot error, a non-finite expectation, ``resamples`` not 0 or
    >= 2, and the first term in sorted order that cannot be fitted.
    """
    return _fit_pass(points, resamples, seed)


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
        if len(f.pauli) != n_qubits or not set(f.pauli) <= set("IXYZ"):
            raise ProtocolError(f"decay term {f.pauli!r} is not {n_qubits} letters from IXYZ")
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


@functools.lru_cache(maxsize=None)
def _rb_words(n: int) -> tuple[tuple[tuple, ...], np.ndarray]:
    """The gates (name, positions, param) of n-qubit RB, and each group
    element's word as indices into them, -1 past its end: on one qubit
    element k is the one gate C1 k, on two its canonical generator word.
    Shared by every call with the same n, built on first use."""
    if n == 1:
        return (tuple(("C1", (0,), k) for k in range(pl.c1_count())),
                np.arange(pl.c1_count(), dtype=np.int8)[:, None])
    words = pl.clifford_group(n)[0]
    code: dict[tuple, int] = {}
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    table = np.full((len(words), int(lengths.max())), -1, dtype=np.int8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.fromiter(
        (code.setdefault(spec, len(code)) for word in words for spec in word), np.int8,
        int(lengths.sum()))
    table.setflags(write=False)
    return tuple((name, tuple(pos), None) for name, *pos in code), table


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
    Circuit(register)  # distinct labels, checked before any draw
    _check_lengths(m_list, n_random)
    _check_integer("seed", seed, 0)
    if shots is not None:
        _check_integer("shots", shots, 1)
        shots = int(shots)  # a numpy integer would make every survival a numpy float
    executor = Executor(register, noise)
    floor = 1.0 / 2**n

    specs, words = _rb_words(n)
    table = [Cycle("hard" if name == "CNOT" else "easy",
                   (Gate(name, tuple(register[p] for p in pos), param),))
             for name, pos, param in specs]
    lengths = sorted(int(v) for v in m_list)
    streams = Streams(seed, (("rb", m, j) for m in lengths for j in range(n_random)))
    # each sequence's element words end to end, -1 past each word's end,
    # right-aligned; Batch.of_rows drops the -1
    rows = np.full((len(lengths) * n_random, (lengths[-1] + 1) * words.shape[1]), -1, np.int8)
    for mi, m in enumerate(lengths):
        # one draw of m per stream reads the same values as m single draws
        draws = streams.integers(range(mi * n_random, (mi + 1) * n_random), pl.clifford_count(n), m)
        elements = np.column_stack([draws, pl.clifford_inverses(n, draws)])
        rows[mi * n_random:(mi + 1) * n_random, -(m + 1) * words.shape[1]:] = (
            words[elements].reshape(n_random, -1))
    batch = Batch.of_rows(register, table, rows)
    if shots is not None:
        count_streams = Streams(seed, (("rb-exec", i) for i in range(len(batch))))
    points: list[DecayPoint] = []
    for i, probs in enumerate(executor.probabilities(batch)):
        if shots is None:
            survival, err = float(probs[0]), 0.0
        else:
            survival = int(count_streams[i].multinomial(shots, probs)[0]) / shots
            err = math.sqrt(max(0.0, survival * (1 - survival)) / shots)
        points.append(DecayPoint("survival", lengths[i // n_random], i, survival - floor, err))
    fit = fit_decay(points, resamples=resamples, seed=seed, pauli="survival")
    d = 2**n
    r, e_f = rb_to_process_infidelity(d, p=fit.decay)
    r_std = (d - 1) / d * fit.decay_std
    est = InfidelityEstimate(
        infidelity=e_f, sigma=r_std * (d + 1) / d, source="RB", label=label
    )
    return RbResult(estimate=est, fit=fit, error_rate=r, error_rate_std=r_std)
