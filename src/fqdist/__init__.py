"""Distance-pair counting over prime fields: transforms, certificates, suites.

The package measures, exactly where possible and within stated float
tolerances otherwise, how the two-block distance pairs of finite point sets
in F_q^(k+l) distribute: the pair spectrum and its main-term discrepancy,
the surjectivity threshold, a rotation-correlation energy identity, and the
constructions that show the counting bounds are tight.
"""

from .errors import PrecisionError, SizeGuardError
from .experiments import (
    GENERATORS,
    SUITES,
    CheckResult,
    ExperimentConfig,
    RunReport,
    SearchResult,
    generate_set,
    run_suite,
    search_missing_distance_set,
    substream,
)
from .field import (
    MAX_MODULUS,
    OrbitReport,
    PrimeField,
    Rotation,
    enumerate_so2,
    is_prime,
    make_field,
    quadratic_character,
    rotation_apply,
    rotation_code_permutation,
    rotation_compose,
    rotation_inverse,
    so2_orbit_check,
)
from .fourier import (
    DensityTable,
    ExactPhaseHistogram,
    OrthogonalityReport,
    SpectralTable,
    SphereDecayReport,
    exact_phase_histogram,
    forward_transform,
    forward_transform_direct,
    indicator_table,
    inverse_transform,
    orthogonality_check,
    plancherel_gap,
    sphere_decay_check,
)
from .geometry import (
    PointSet,
    all_norms,
    decode_codes,
    encode_vectors,
    enumerate_sphere,
    load_point_set,
    norm_fiber_sizes,
    save_point_set,
)
from .pair_spectrum import (
    DiscrepancyReport,
    MarginalMassReport,
    PairSpectrum,
    SplitPointSet,
    SurjectivityCheck,
    achieved_pairs,
    difference_histogram,
    discrepancy_report,
    distance_set,
    load_split_point_set,
    marginal_spectral_mass,
    pair_spectrum_fast,
    pair_spectrum_naive,
    spectrum_energy,
    spectrum_energy_bruteforce,
    surjectivity_check,
)
from .rotation_energy import (
    CircleEnergyReport,
    CorrelationTransformReport,
    CoverageBoundReport,
    EnergyChainReport,
    SphereMassReport,
    circle_energy,
    correlation_transform_check,
    coverage_min_bound,
    energy_chain_check,
    rotation_correlation,
    sphere_restricted_mass,
)

__version__ = "0.1.0"

__all__ = [
    "PrecisionError", "SizeGuardError",
    "GENERATORS", "SUITES", "CheckResult", "ExperimentConfig", "RunReport",
    "SearchResult", "generate_set", "run_suite", "search_missing_distance_set",
    "substream",
    "MAX_MODULUS", "OrbitReport", "PrimeField", "Rotation", "enumerate_so2",
    "is_prime", "make_field", "quadratic_character", "rotation_apply",
    "rotation_code_permutation", "rotation_compose", "rotation_inverse",
    "so2_orbit_check",
    "DensityTable", "ExactPhaseHistogram",
    "OrthogonalityReport", "SpectralTable", "SphereDecayReport",
    "exact_phase_histogram", "forward_transform", "forward_transform_direct",
    "indicator_table", "inverse_transform", "orthogonality_check",
    "plancherel_gap", "sphere_decay_check",
    "PointSet", "all_norms", "decode_codes",
    "encode_vectors", "enumerate_sphere", "load_point_set",
    "norm_fiber_sizes", "save_point_set",
    "DiscrepancyReport", "MarginalMassReport", "PairSpectrum",
    "SplitPointSet", "SurjectivityCheck", "achieved_pairs",
    "difference_histogram", "discrepancy_report", "distance_set",
    "load_split_point_set", "marginal_spectral_mass",
    "pair_spectrum_fast", "pair_spectrum_naive",
    "spectrum_energy", "spectrum_energy_bruteforce", "surjectivity_check",
    "CircleEnergyReport", "CorrelationTransformReport",
    "CoverageBoundReport", "EnergyChainReport", "SphereMassReport",
    "circle_energy", "correlation_transform_check",
    "coverage_min_bound", "energy_chain_check", "rotation_correlation",
    "sphere_restricted_mass",
    "__version__",
]
