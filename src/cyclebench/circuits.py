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

import numpy as np

from . import pauli as pl
from .pauli import PauliString
from .sim import MAX_QUBITS, SimulationError, embed_operator

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
            if len(self.qubits) != 2:
                raise CircuitError("CNOT takes exactly two qubits")
        elif self.name in SINGLE_QUBIT_GATES:
            if len(self.qubits) != 1:
                raise CircuitError(f"{self.name} takes exactly one qubit")
            if self.name == "RZ" and self.param is None:
                raise CircuitError("RZ needs an angle")
            if self.name == "C1" and self.param is None:
                raise CircuitError("C1 needs a table index")
        else:
            raise CircuitError(f"unknown gate {self.name!r}")

    @property
    def gate_class(self) -> str:
        return "cnot" if self.name == "CNOT" else "single_qubit"


@dataclass(frozen=True)
class Cycle:
    """One clock step of gates on pairwise-disjoint qubits."""

    kind: str  # "easy" | "hard"
    gates: tuple[Gate, ...]
    qubits: tuple[int, ...] = field(init=False, repr=False, compare=False)

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

    def position(self, label: int) -> int:
        return self.qubits.index(label)

    def hard_cycle_count(self) -> int:
        return sum(1 for c in self.cycles if c.kind == "hard")

    def cnot_count(self) -> int:
        return sum(len(c.cnot_pairs()) for c in self.cycles if c.kind == "hard")


# ---------------------------------------------------------------------------
# Gate matrices

def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


_FIXED_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": pl.PauliString("X").to_matrix(),
    "Y": pl.PauliString("Y").to_matrix(),
    "Z": pl.PauliString("Z").to_matrix(),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def gate_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "RZ":
        return _rz(float(gate.param))
    if gate.name == "C1":
        return pl.c1_element(int(gate.param)).matrix
    return _FIXED_MATS[gate.name]


@functools.lru_cache(maxsize=8192)
def _cycle_unitary_cached(gates: tuple[Gate, ...], register: tuple[int, ...]) -> np.ndarray:
    n = len(register)
    full = np.eye(2**n, dtype=complex)
    for g in gates:
        pos = tuple(register.index(q) for q in g.qubits)
        full = embed_operator(gate_matrix(g), pos, n) @ full
    return full


def cycle_unitary(cycle: Cycle, register: tuple[int, ...]) -> np.ndarray:
    return _cycle_unitary_cached(cycle.gates, tuple(register))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit, cycles composed in time order."""
    if circuit.n_qubits > MAX_QUBITS:
        raise SimulationError(f"dense unitary limited to {MAX_QUBITS} qubits")
    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for cyc in circuit.cycles:
        u = cycle_unitary(cyc, circuit.qubits) @ u
    return u


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
        if self.dt < 0:
            raise CircuitError("dt must be non-negative")
        if self.steps < 0:
            raise CircuitError("steps must be non-negative")


VARIANTS = ("circuit1", "circuit2")


def _bond_cycles(q0: int, q1: int, theta: float) -> list[Cycle]:
    """exp(-i theta/2 XX) on one bond: H-conjugated CNOT . RZ . CNOT."""
    return [
        Cycle("easy", (Gate("H", (q0,)), Gate("H", (q1,)))),
        Cycle("hard", (Gate("CNOT", (q0, q1)),)),
        Cycle("easy", (Gate("RZ", (q1,), theta),)),
        Cycle("hard", (Gate("CNOT", (q0, q1)),)),
        Cycle("easy", (Gate("H", (q0,)), Gate("H", (q1,)))),
    ]


def _parallel_bond_cycles(pairs: list[tuple[int, int]], theta: float) -> list[Cycle]:
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
    cycles: list[Cycle] = []
    if variant == "circuit1":
        outer = bonds[0::2]
        inner = bonds[1::2]
        if outer:
            cycles += _parallel_bond_cycles(outer, theta_xx)
        for q0, q1 in inner:
            cycles += _bond_cycles(q0, q1, theta_xx)
    else:
        for q0, q1 in bonds:
            cycles += _bond_cycles(q0, q1, theta_xx)
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
    """Push a Pauli through a Clifford cycle using conjugation tables only.

    ``register`` maps the cycle's physical labels onto Pauli positions;
    omitted, labels are taken as positions directly.
    """
    if register is None:
        register = tuple(range(pauli.n_qubits))
    out = pauli
    for g in cycle.gates:
        pos = tuple(register.index(q) for q in g.qubits)
        out = pl.conjugate_gate(out, g.name, pos, g.param)
    return out


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


# ---------------------------------------------------------------------------
# Text form, used for goldens and debugging

def circuit_to_text(circuit: Circuit) -> str:
    lines = ["qubits " + " ".join(str(q) for q in circuit.qubits)]
    for cyc in circuit.cycles:
        parts = []
        for g in cyc.gates:
            token = g.name + " " + " ".join(str(q) for q in g.qubits)
            if g.param is not None:
                token += " " + repr(g.param)
            parts.append(token)
        lines.append(cyc.kind + " " + " ; ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits "):
        raise CircuitError("circuit text must start with a qubits line")
    register = tuple(int(tok) for tok in lines[0].split()[1:])
    cycles = []
    for ln in lines[1:]:
        kind, _, rest = ln.partition(" ")
        gates = []
        for token in rest.split(";"):
            fields = token.split()
            if not fields:
                raise CircuitError(f"empty gate token in line {ln!r}")
            name = fields[0]
            if name == "CNOT":
                gates.append(Gate(name, (int(fields[1]), int(fields[2]))))
            elif name == "C1":
                gates.append(Gate(name, (int(fields[1]),), int(fields[2])))
            elif name == "RZ":
                gates.append(Gate(name, (int(fields[1]),), float(fields[2])))
            else:
                gates.append(Gate(name, (int(fields[1]),)))
        cycles.append(Cycle(kind, tuple(gates)))
    return Circuit(register, tuple(cycles))
