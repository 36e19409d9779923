"""Entanglement entropies and bounds for disordered harmonic oscillator lattices.

The library computes exact ground-state Renyi entanglement entropies of
coupled harmonic oscillators on finite boxes in Z^d, rigorous entanglement
bounds for single-excitation energy eigenstates, eigenfunction-correlator
decay diagnostics, and disorder Monte Carlo scans, with an independent
quadrature oracle validating every closed form on small systems.
"""

import importlib

from .lattice import (
    Lattice,
    Region,
    box_region,
    build_box,
    inner_boundary,
    l1_distance,
    make_region,
)
from .hamiltonian import (
    AssumptionReport,
    CouplingMatrix,
    DisorderModel,
    anderson_norm_bound,
    assemble_anderson,
    assemble_custom,
    load_matrix_csv,
    sample_springs,
    validate_coupling,
)
from .spectral import (
    BipartitionBlocks,
    SpectralData,
    SymplecticSpectrum,
    decompose,
    eigensystem,
    partition_blocks,
    spd_inv_sqrt,
    spd_sqrt,
    symplectic_spectrum,
)
from .entanglement import (
    EntropyReport,
    entropy_report,
    excitation_profile,
    excitation_weights,
    excited_diagonal_element,
    excited_diagonal_trace,
    excited_half_renyi_bounds,
    ground_state_renyi,
    half_renyi_factor,
    log_negativity,
    log_renyi_factor,
    occupation_cutoffs,
    renyi_factor,
    single_excitation_ensemble_bound,
)
from .correlators import (
    CorrelatorTable,
    DecayFit,
    area_law_constant,
    correlator_table,
    decay_fit,
    ground_state_correlator_bound,
)
from .experiments import (
    AreaLawFit,
    ExperimentConfig,
    RealizationRecord,
    ScanResult,
    area_law_fit,
    correlator_ensemble,
    run_scan,
    run_scans,
    write_aggregates_json,
    write_records_csv,
    write_scaling_data,
)

__version__ = "0.1.0"

# The quadrature oracle serves ``verify`` and the tests; it is imported on
# first use, so the compute commands start without it.
_ORACLE_NAMES = frozenset({
    "GaussKernel",
    "QuadratureRule",
    "bruteforce_reduced_diagonal",
    "bruteforce_reduced_matrix_element",
    "double_factorial",
    "gaussian_poly_integral",
    "generalized_gaussian_integral",
    "hermite",
    "hermite_gaussian",
    "kernel_eigenpair_residual",
    "kernel_moment_formulas",
    "kernel_moments",
    "kernel_trace",
    "verify_report",
})


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "oracle", *_ORACLE_NAMES})
