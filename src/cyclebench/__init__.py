"""Noisy small-register simulator with cycle-benchmarking, RB and
circuit-capacity analysis."""

from .bench import (
    CbCollection,
    DecayFit,
    DecayPoint,
    InfidelityEstimate,
    RbResult,
    cb_process_infidelity,
    estimate_process_infidelity,
    execute_collection,
    fit_all_decays,
    fit_decay,
    make_cb,
    rb_to_process_infidelity,
    run_rb,
)
from .circuits import (
    Circuit,
    Cycle,
    Gate,
    TfimParams,
    build_tfim_circuit,
    build_tfim_step,
    layout_cycles,
    layout_qubits,
    occupation,
    propagate_pauli,
)
from .engine import Batch, Executor
from .noise import (
    CrosstalkTerm,
    DriftEpoch,
    DriftSchedule,
    NoiseModel,
    coherent_overrotation,
    damping_channel,
    drift_params_at,
    pauli_channel,
)
from .pauli import PauliString
from .qcap import QcapCurve, compare_estimates, qcap_cb_curve, qcap_rb_curve
from .sim import (
    DensityMatrix,
    KrausChannel,
    StateVector,
    expectation_pauli,
    sample_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
