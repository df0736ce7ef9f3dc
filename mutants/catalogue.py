"""One-line mutants of src/fqdist/ and the tests that must fail on each.

Each entry names a module under src/fqdist/, an exact line of it (which must
occur there exactly once), the line that replaces it, and the pytest node ids,
run from the repo root, of which at least one must fail on the mutant.
mutants/run.py applies the entries one at a time to a copy of src/, and
tests/test_mutant_catalogue.py checks that every line is still there.

No test named here may run the CLI through perfbench's child: it puts the
checkout's own src/ first on PYTHONPATH and would test the unmutated code.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name module old new tests")

_PAIR = "tests/test_pair_spectrum.py::"
_ENERGY = "tests/test_rotation_energy.py::"
_EXPERIMENTS = "tests/test_experiments.py::"

EDGE = _PAIR + "test_discrepancy_budget_edge_is_one_count_wide"
ROW_ZERO_EDGE = _PAIR + "test_discrepancy_row_zero_budget_edge_is_one_count_wide"
OFF_AXES = _PAIR + "test_discrepancy_budget_off_the_axes_is_weils_at_q13"
ISOTROPIC_CLI = _EXPERIMENTS + "test_cli_isotropic_line_product_passes_at_q29"
MIN_BOUND = _ENERGY + "test_coverage_min_bound_full_q3"
SPHERE_MASS = _ENERGY + "test_sphere_restricted_mass_bound"
SPHERE_MASS_ORACLE = _ENERGY + "test_sphere_restricted_mass_transforms_once"
CIRCLE_FROZEN = _ENERGY + "test_circle_energy_frozen_q3"
DECAY_FROZEN = "tests/test_fourier.py::test_sphere_decay_frozen_extremum"

BUDGET_LINE = ("    budget = term_k * rho_k[:, None] + term_l * rho_l[None, :]"
               " + term_cross * np.outer(rho_k, rho_l)")
RHO_ZERO_LINE = "        rho[0] = max(1.0, _zero_sphere_sup(q, d, bool(sphere[0] > 1)) / weil)"
SPHERE_MASS_BOUND_LINE = "    bound = float(np.sqrt(3.0)) * float(q) ** -6 * float(len(e)) ** 1.5"
CIRCLE_BOUND_LINE = "    bound = 3 * size * size"
SPHERE_MASS_VALUES_LINE = ("    values = np.bincount(all_norms(q, 2), weights=np.abs(restricted) ** 2,"
                           " minlength=q)")

MUTANTS = (
    # Bound constants and pass rules of the certificates.
    Mutant("discrepancy-axes-always-pass", "pair_spectrum.py",
           "    cell_ok = abs_err <= budget * (1.0 + 1e-6)",
           "    cell_ok = (abs_err <= budget * (1.0 + 1e-6))"
           " | (np.outer(np.arange(q), np.arange(q)) == 0)",
           (ROW_ZERO_EDGE,)),
    Mutant("discrepancy-budget-x0.25", "pair_spectrum.py", BUDGET_LINE,
           BUDGET_LINE.replace("budget = ", "budget = 0.25 * (") + ")", (EDGE,)),
    Mutant("discrepancy-budget-x10", "pair_spectrum.py", BUDGET_LINE,
           BUDGET_LINE.replace("budget = ", "budget = 10.0 * (") + ")", (EDGE,)),
    Mutant("discrepancy-cross-term-x0.1", "pair_spectrum.py",
           "    term_cross = 4.0 * float(q) ** ((k + l) / 2.0 - 1.0) * root_ef",
           "    term_cross = 0.4 * float(q) ** ((k + l) / 2.0 - 1.0) * root_ef", (EDGE,)),
    Mutant("coverage-min-bound-always-holds", "rotation_energy.py",
           "        c_dominates=constant_c >= empirical_c, holds=min_bound <= achieved,",
           "        c_dominates=constant_c >= empirical_c, holds=True,", (MIN_BOUND,)),
    Mutant("coverage-min-bound-mass-branch-x10", "rotation_energy.py",
           "    branch_mass = product / (3.0 * q**4)",
           "    branch_mass = 10.0 * product / (3.0 * q**4)", (MIN_BOUND,)),
    Mutant("sphere-mass-bound-x10", "rotation_energy.py", SPHERE_MASS_BOUND_LINE,
           SPHERE_MASS_BOUND_LINE.replace("3.0", "300.0"), (SPHERE_MASS,)),
    Mutant("sphere-mass-bound-x0.1", "rotation_energy.py", SPHERE_MASS_BOUND_LINE,
           SPHERE_MASS_BOUND_LINE.replace("3.0", "0.03"), (SPHERE_MASS,)),
    Mutant("sphere-decay-bound-x10", "fourier.py",
           "    bound = 2.0 * float(q) ** (-(d + 1) / 2.0)",
           "    bound = 20.0 * float(q) ** (-(d + 1) / 2.0)", (DECAY_FROZEN,)),
    Mutant("circle-energy-bound-30", "rotation_energy.py", CIRCLE_BOUND_LINE,
           "    bound = 30 * size * size", (CIRCLE_FROZEN,)),
    Mutant("circle-energy-bound-2", "rotation_energy.py", CIRCLE_BOUND_LINE,
           "    bound = 2 * size * size", (CIRCLE_FROZEN,)),
    # The zero sphere's decay in the discrepancy budget.
    Mutant("zero-sphere-rho-one", "pair_spectrum.py", RHO_ZERO_LINE, "        rho[0] = 1.0",
           (ROW_ZERO_EDGE, OFF_AXES, ISOTROPIC_CLI)),
    Mutant("zero-sphere-rho-every-radius", "pair_spectrum.py", RHO_ZERO_LINE,
           RHO_ZERO_LINE.replace("rho[0]", "rho[:]"), (OFF_AXES,)),
    Mutant("zero-sphere-sup-even-q", "pair_spectrum.py",
           "    return (q - 1 if isotropic else 1) * float(q) ** (-d / 2.0 - 1.0)",
           "    return (q if isotropic else 1) * float(q) ** (-d / 2.0 - 1.0)",
           (_PAIR + "test_zero_sphere_sup_matches_a_full_scan",)),
    Mutant("zero-sphere-sup-odd-halved", "pair_spectrum.py",
           "        return float(q) ** (-(d + 1) / 2.0)",
           "        return 0.5 * float(q) ** (-(d + 1) / 2.0)",
           (_PAIR + "test_zero_sphere_sup_matches_a_full_scan",)),
    # Requests refused before any work.
    Mutant("lemmas-draws-unguarded", "experiments.py",
           "    _require_enumerable(q, cfg.k + cfg.l)", "    pass",
           (_EXPERIMENTS + "test_cli_rejects_out_of_range_flags[lemmas-k9-l9]",)),
    Mutant("search-budget-unbounded", "experiments.py",
           "        if not 1 <= self.budget <= MAX_SEARCH_SPACE:",
           "        if not 1 <= self.budget:",
           (_EXPERIMENTS + "test_config_validation",
            _EXPERIMENTS + "test_cli_rejects_out_of_range_flags[sharpness-budget-4e12]")),
    Mutant("sphere-mass-draw-unguarded", "experiments.py",
           "    elif q**4 > geometry.MAX_ENUMERATION:", "    elif False:",
           (_EXPERIMENTS
            + "test_lemmas_skips_only_the_sphere_restricted_mass_past_the_enumeration_limit",)),
    # Route errors in the plane-pair checks.
    Mutant("sphere-mass-second-codes", "rotation_energy.py",
           "    fibers = np.bincount(e.first_codes(), minlength=q * q)",
           "    fibers = np.bincount(e.second_codes(), minlength=q * q)", (SPHERE_MASS_ORACLE,)),
    Mutant("sphere-mass-unsquared", "rotation_energy.py", SPHERE_MASS_VALUES_LINE,
           SPHERE_MASS_VALUES_LINE.replace(" ** 2", ""),
           (SPHERE_MASS_ORACLE,)),
    Mutant("energy-drops-zero-vector", "rotation_energy.py",
           "        energies[i] = h.take(diagonals).sum(axis=1) + zero @ zero[perm_t]",
           "        energies[i] = h.take(diagonals).sum(axis=1)",
           (_ENERGY + "test_energy_chain_rhs_matches_literal_correlations",)),
    Mutant("correlation-forward-phi", "rotation_energy.py",
           "    perm_p = rotation_code_permutation(e.field, rotation_inverse(e.field, phi))",
           "    perm_p = rotation_code_permutation(e.field, phi)",
           (_ENERGY + "test_correlation_transform_identity",)),
)
