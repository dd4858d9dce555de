"""Simulation of pulsed two-photon biexciton generation in quantum dots and
the time-bin entanglement of the emitted photon cascade."""

from .dynamics import (
    ConstantDrive,
    DecayRates,
    DephasingModel,
    IntegrationError,
    PulseDrive,
    Trajectory,
    emission_probabilities,
    evolve,
    hamiltonian,
    lindblad_rhs,
    omega0_for_area,
    pulse_area,
    pulse_energy,
)
from .linalg import eig_hermitian, state_fidelity
from .sweeps import SweepResult, fit_gamma_i0, rabi_sweep, ratio_sweep
from .timebin import (
    TimeBinModelParams,
    coherence_metric,
    concurrence,
    excitation_coherence,
    fidelity_bell,
    ideal_state,
    model_state,
    visibilities,
)
from .tomography import (
    MeasurementSetting,
    TomographyDataset,
    expected_counts,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
    standard_settings,
)

__all__ = [
    "ConstantDrive", "DecayRates", "DephasingModel", "PulseDrive",
    "Trajectory", "emission_probabilities", "evolve", "hamiltonian",
    "lindblad_rhs", "omega0_for_area", "pulse_area", "pulse_energy",
    "eig_hermitian", "state_fidelity", "IntegrationError",
    "SweepResult", "fit_gamma_i0", "rabi_sweep", "ratio_sweep",
    "TimeBinModelParams", "coherence_metric", "concurrence",
    "excitation_coherence", "fidelity_bell", "ideal_state", "model_state",
    "visibilities",
    "MeasurementSetting", "TomographyDataset", "expected_counts",
    "reconstruct_linear", "reconstruct_mle", "simulate_counts",
    "standard_settings",
]
