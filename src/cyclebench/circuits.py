"""Clock-cycle circuits, hardware layouts and Ising-chain Trotter steps.

Circuits are ordered lists of cycles over a fixed register of physical qubit
labels.  A cycle is one clock step: "easy" cycles hold single-qubit gates,
"hard" cycles hold only CNOTs.  Gates reference physical labels directly; the
register order fixes tensor-factor order (register[0] is the leftmost qubit).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import pauli as pl
from .pauli import PauliString
from .sim import _scatter

SINGLE_QUBIT_GATES = ("I", "X", "Y", "Z", "H", "S", "SDG", "RZ", "C1")


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    param: float | int | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.name == "CNOT":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise CircuitError(f"CNOT takes two distinct qubits, got {self.qubits}")
        elif self.name in SINGLE_QUBIT_GATES:
            if len(self.qubits) != 1:
                raise CircuitError(f"{self.name} takes exactly one qubit")
        else:
            raise CircuitError(f"unknown gate {self.name!r}")
        p = self.param
        # bool is an int subclass
        integer = isinstance(p, (int, np.integer)) and not isinstance(p, bool)
        if self.name == "C1":
            if not (integer and 0 <= p < pl.c1_count()):
                raise CircuitError(f"C1 takes a table index in [0, {pl.c1_count()}), got {p!r}")
        elif self.name == "RZ":
            if not ((integer or isinstance(p, (float, np.floating))) and math.isfinite(p)):
                raise CircuitError(f"RZ takes a finite real angle, got {p!r}")
        elif p is not None:
            raise CircuitError(f"{self.name} takes no parameter, got {p!r}")

    @property
    def gate_class(self) -> str:
        return "cnot" if self.name == "CNOT" else "single_qubit"


# slots: Batch.circuit derives a Cycle for every code of the row it returns
@dataclass(frozen=True, slots=True)
class Cycle:
    """One clock step of gates on pairwise-disjoint qubits."""

    kind: str  # "easy" | "hard"
    gates: tuple[Gate, ...]
    qubits: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # (kind, each gate's qubits): what the noise tail and the batched
    # unitary build depend on besides the gate names
    structure: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.kind not in ("easy", "hard"):
            raise CircuitError(f"cycle kind must be easy or hard, got {self.kind!r}")
        used: set[int] = set()
        for g in self.gates:
            if used & set(g.qubits):
                raise CircuitError(f"overlapping qubits in cycle: {g}")
            used.update(g.qubits)
        object.__setattr__(self, "qubits", tuple(sorted(used)))
        object.__setattr__(self, "structure", (self.kind, tuple(g.qubits for g in self.gates)))
        if self.kind == "hard" and any(g.name != "CNOT" for g in self.gates):
            raise CircuitError("hard cycles may contain only CNOT gates")
        if self.kind == "easy" and any(g.name == "CNOT" for g in self.gates):
            raise CircuitError("easy cycles may not contain CNOT gates")

    def cnot_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(g.qubits for g in self.gates if g.name == "CNOT")


@dataclass(frozen=True)
class Circuit:
    """Time-ordered cycles over an explicit register of physical labels."""

    qubits: tuple[int, ...]
    cycles: tuple[Cycle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError("register labels must be distinct")
        reg = set(self.qubits)
        for cyc in self.cycles:
            missing = set(cyc.qubits) - reg
            if missing:
                raise CircuitError(f"cycle uses qubits {sorted(missing)} outside register")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)


# ---------------------------------------------------------------------------
# Gate matrices

def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def gate_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "RZ":
        return _rz(float(gate.param))
    if gate.name == "C1":
        return pl.c1_element(int(gate.param)).matrix
    return pl.GATE_MATRICES[gate.name]


# cycles per block of _cycle_unitaries: its temporaries (64 KB at n = 4) stay
# under glibc's 128 KB mmap threshold and reuse heap pages instead of faulting
_BLOCK = 32


@functools.lru_cache(maxsize=1024)
def _cycle_unitary_cached(gates: tuple[Gate, ...], register: tuple[int, ...]) -> np.ndarray:
    """One cycle's unitary from its gates, for callers that hold no batch
    (the test oracles); ``perfbench`` reads this cache's counts."""
    flat = _flat_matrices(gates)
    positions = tuple(tuple(map(register.index, g.qubits)) for g in gates)
    rows = np.arange(len(gates))[None]
    return _cycle_unitaries(rows, (flat.real, flat.imag), positions, len(register))[0]


def _flat_matrices(gates: Sequence[Gate]) -> np.ndarray:
    """``gate_matrix`` of each gate as one flat row, zero-padded to 16
    entries: the gate stack of ``_cycle_unitaries``."""
    flat = np.zeros((len(gates), 16), dtype=complex)
    for row, g in zip(flat, gates):
        row[:4 ** len(g.qubits)] = gate_matrix(g).reshape(-1)
    return flat


def _cycle_unitaries(rows: np.ndarray, mats: tuple[np.ndarray, np.ndarray],
                     positions: tuple[tuple[int, ...], ...], n: int) -> np.ndarray:
    """Unitaries of cycles that share one structure, gates at ``positions``
    (register indices, one tuple per gate, all of one arity k), as a
    ``(b, 2^n, 2^n)`` stack: row i of the ``(b, m)`` ``rows`` holds cycle
    i's gates in order as codes into ``mats``, the real and imaginary parts
    of flat gate matrices, at least 4^k columns wide.

    Every entry is a single product of gate entries, taken in gate order.
    The build uses real arithmetic in separate ufunc calls, ``re = mr*re -
    mi*im`` and ``im = mr*im + mi*re``, so each real product is rounded on
    its own on every CPU; numpy's complex multiply, ``np.kron`` and a BLAS
    matmul chain may fuse them, depending on the kernel, and differ in the
    last bit.  CNOT entries are 0 and 1, so hard-cycle products are exact.
    When the gates cover the register every entry is a product, placed by
    one gather (``_gather``); otherwise ``sim._scatter`` places the
    products among zeros.
    """
    b, m = rows.shape
    if m == 0:
        return np.repeat(np.eye(2**n, dtype=complex)[None], b, axis=0)
    k = len(positions[0])
    mr, mi = (part[:, :4**k] for part in mats)
    # (m, b): gate t of every cycle in row t
    code = np.ascontiguousarray(rows.T)
    cover = m * k == n
    if cover:
        order = _gather(positions, n)
        full = np.empty((b, 4**n), dtype=complex)
    else:
        dest, src = _scatter(positions, n)
        full = np.zeros((b, 4**n), dtype=complex)
    # (rows, 4^(k t)) partial products of a block of cycles, gate t's entry
    # index in front
    for lo in range(0, b, _BLOCK):
        codes = code[:, lo:lo + _BLOCK]
        re, im = mr[codes[0]], mi[codes[0]]
        for c in codes[1:]:
            gr, gi, re, im = mr[c, :, None], mi[c, :, None], re[:, None], im[:, None]
            re, im = (gr * re - gi * im).reshape(len(c), -1), (gr * im + gi * re).reshape(len(c), -1)
        if cover:
            full.real[lo:lo + _BLOCK] = re.take(order, axis=1)
            full.imag[lo:lo + _BLOCK] = im.take(order, axis=1)
        else:
            full.real[lo:lo + _BLOCK, dest] = re[:, src]
            full.imag[lo:lo + _BLOCK, dest] = im[:, src]
    return full.reshape(b, 2**n, 2**n)


@functools.lru_cache(maxsize=256)
def _gather(positions: tuple[tuple[int, ...], ...], n: int) -> np.ndarray:
    """``sim._scatter`` inverted for gates that cover the register, where
    it places every entry: ``U.flat = T[order]``."""
    dest, src = _scatter(positions, n)
    order = np.empty(4**n, dtype=np.intp)
    order[dest] = src
    order.setflags(write=False)
    return order


_UNIT_PHASES = np.array([1, -1, 1j, -1j])


def _unit_monomial(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(perm, phase)`` with ``mat[..., i, perm[..., i]] = phase[..., i]``
    the only nonzero entry of row i and every phase a unit in {1, -1, 1j,
    -1j}, for one matrix or a stack of them; else None."""
    perm = np.abs(mat).argmax(axis=-1)
    phase = np.take_along_axis(mat, perm[..., None], axis=-1)[..., 0]
    if np.count_nonzero(mat) != perm.size or not np.isin(phase, _UNIT_PHASES).all():
        return None
    return perm, phase


# ---------------------------------------------------------------------------
# Hardware layouts: three 4-qubit chains and their exhaustive CNOT cycles.

LAYOUTS: dict[int, tuple[int, ...]] = {
    1: (0, 1, 2, 3),
    2: (6, 7, 12, 11),
    3: (16, 17, 18, 19),
}

CYCLE_IDS = (1, 2, 3, 4)


def layout_qubits(layout: int) -> tuple[int, ...]:
    try:
        return LAYOUTS[layout]
    except KeyError:
        raise CircuitError(f"unknown layout {layout!r}") from None


def layout_cycles(layout: int, cycle_id: int) -> Cycle:
    """One of the four CNOT configurations of a 4-qubit chain [a, b, c, d]:
    cycle 1 runs (a,b) and (c,d) in parallel, cycles 2-4 run each adjacent
    pair alone."""
    a, b, c, d = layout_qubits(layout)
    if cycle_id == 1:
        gates = (Gate("CNOT", (a, b)), Gate("CNOT", (c, d)))
    elif cycle_id == 2:
        gates = (Gate("CNOT", (a, b)),)
    elif cycle_id == 3:
        gates = (Gate("CNOT", (b, c)),)
    elif cycle_id == 4:
        gates = (Gate("CNOT", (c, d)),)
    else:
        raise CircuitError(f"unknown cycle id {cycle_id!r}")
    return Cycle("hard", gates)


# ---------------------------------------------------------------------------
# Ising-chain Trotter circuits

@dataclass(frozen=True)
class TfimParams:
    """Open-boundary transverse-field Ising chain parameters."""

    sites: int = 4
    coupling: float = 0.02  # nearest-neighbour XX strength
    field: float = 1.0  # on-site Z strength
    dt: float = 10.0  # Trotter step size
    steps: int = 0

    def __post_init__(self):
        if self.sites < 2:
            raise CircuitError("need at least two sites")
        for name in ("coupling", "field", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise CircuitError(f"tfim {name} = {value} must be finite")
        if self.dt < 0:
            raise CircuitError("dt must be non-negative")
        if self.steps < 0:
            raise CircuitError("steps must be non-negative")


VARIANTS = ("circuit1", "circuit2")


def _bond_cycles(pairs: list[tuple[int, int]], theta: float) -> list[Cycle]:
    """exp(-i theta/2 XX) on each bond of ``pairs`` at once: H-conjugated
    CNOT . RZ . CNOT."""
    h_all = tuple(Gate("H", (q,)) for p in pairs for q in p)
    return [
        Cycle("easy", h_all),
        Cycle("hard", tuple(Gate("CNOT", p) for p in pairs)),
        Cycle("easy", tuple(Gate("RZ", (p[1],), theta) for p in pairs)),
        Cycle("hard", tuple(Gate("CNOT", p) for p in pairs)),
        Cycle("easy", h_all),
    ]


def build_tfim_step(variant: str, params: TfimParams, layout: int | None = None) -> Circuit:
    """One Trotter step of exp(-i dt (J sum XX + h sum Z)) as clock cycles.

    The hopping exponentials run first, then the on-site Z rotations, matching
    the dense product  exp(-i dt h sum Z) @ exp(-i dt J sum XX).  Variant
    ``circuit1`` applies the outer bonds in parallel before the middle bond
    (4 hard cycles per step); ``circuit2`` runs the three bonds sequentially
    (6 hard cycles).  Both compile 6 CNOTs per step and agree up to global
    phase.
    """
    if variant not in VARIANTS:
        raise CircuitError(f"unknown variant {variant!r}")
    register = layout_qubits(layout) if layout is not None else tuple(range(params.sites))
    if len(register) != params.sites:
        raise CircuitError(
            f"layout has {len(register)} qubits but the chain has {params.sites} sites"
        )
    bonds = [(register[i], register[i + 1]) for i in range(params.sites - 1)]
    theta_xx = 2.0 * params.coupling * params.dt
    if variant == "circuit1":
        groups = [bonds[0::2]] + [[b] for b in bonds[1::2]]
    else:
        groups = [[b] for b in bonds]
    cycles = [c for group in groups for c in _bond_cycles(group, theta_xx)]
    theta_z = 2.0 * params.field * params.dt
    cycles.append(Cycle("easy", tuple(Gate("RZ", (q,), theta_z) for q in register)))
    return Circuit(register, tuple(cycles))


def build_tfim_circuit(variant: str, params: TfimParams, layout: int | None = None) -> Circuit:
    """``params.steps`` repetitions of the Trotter step circuit."""
    step = build_tfim_step(variant, params, layout)
    return Circuit(step.qubits, step.cycles * params.steps)


def hard_cycle_ids_per_step(variant: str) -> tuple[int, ...]:
    """Layout cycle ids of the hard cycles in one Trotter step, in time order."""
    if variant == "circuit1":
        return (1, 1, 3, 3)
    if variant == "circuit2":
        return (2, 2, 3, 3, 4, 4)
    raise CircuitError(f"unknown variant {variant!r}")


def occupation(state, site: int) -> float:
    """Particle number on one site (1-based), |1> meaning occupied."""
    n = state.n_qubits
    if not 1 <= site <= n:
        raise CircuitError(f"site {site} out of range 1..{n}")
    from .sim import expectation_pauli

    letters = ["I"] * n
    letters[site - 1] = "Z"
    return (1.0 - expectation_pauli(state, PauliString("".join(letters)))) / 2.0


# ---------------------------------------------------------------------------
# Pauli frame propagation

def propagate_pauli(
    cycle: Cycle, pauli: PauliString, register: tuple[int, ...] | None = None
) -> PauliString:
    """Push a Pauli through a Clifford cycle: one lookup in its frame table.

    ``register`` maps the cycle's physical labels onto Pauli positions;
    omitted, labels are taken as positions directly.
    """
    if register is None:
        register = tuple(range(pauli.n_qubits))
    return cycle_frame_table(cycle, register).apply(pauli)


def cycle_frame_table(cycle: Cycle, register: tuple[int, ...]) -> pl.FrameTable:
    """Integer frame table of a Clifford cycle on ``register``; raises
    :class:`NonCliffordGateError` otherwise."""
    return pl.frame_table(
        [(g.name, tuple(register.index(q) for q in g.qubits), g.param) for g in cycle.gates],
        len(register),
    )


def propagate_through_cycles(
    cycles, pauli: PauliString, register: tuple[int, ...]
) -> PauliString:
    for cyc in cycles:
        pauli = propagate_pauli(cyc, pauli, register)
    return pauli
