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
DECAY_HALF_SCAN = "tests/test_fourier.py::test_sphere_decay_half_scan_matches_full_scan"
SPHERE_SUP_SCAN = "tests/test_fourier.py::test_sphere_sup_against_a_full_scan"
DECAY_FRESH = "tests/test_fourier.py::test_sphere_decay_scan_matches_a_fresh_transform_per_radius"
DECAY_SPLIT = "tests/test_fourier.py::test_sphere_decay_split_matches_a_fresh_transform_per_radius"
DECAY_SHARE_ERROR = "tests/test_fourier.py::test_sphere_decay_share_error_is_raised_after_every_join"
ENERGY_LITERAL = _ENERGY + "test_energy_chain_rhs_matches_literal_correlations"
SPLIT = _ENERGY + "test_energy_chain_flags_a_wrong_frequency_split"
NONCANONICAL = "tests/test_geometry.py::test_load_rejects_noncanonical_points"
LOAD_FUZZ = "tests/test_geometry.py::test_load_matches_reference_parser"
ENERGY_MEMORY_FLAT = _EXPERIMENTS + "test_suite_peak_memory_is_flat_in_instances[energy-11]"
ENERGY_REFUSAL = _EXPERIMENTS + "test_cli_energy_refuses_an_e_above_the_scan_limit_before_any_work"
EMPTY_COVERAGE = (_EXPERIMENTS
                  + "test_cli_coverage_run_that_draws_only_empty_sets_skips_its_seeded_checks")
EMPTY_LEMMAS = _EXPERIMENTS + "test_cli_lemmas_run_whose_only_draw_is_empty_skips_that_check"
CANONICAL_REFUSALS = "tests/test_geometry.py::test_load_refuses_canonical_data_as_the_grammar_does"
WRITTEN_FILES = "tests/test_geometry.py::test_load_reads_every_written_file_without_the_line_reader"
CANONICAL_REPEAT = ("tests/test_geometry.py::"
                    "test_load_numbers_a_repeat_without_the_line_reader[canonical]")
REAL_ROUTE = _PAIR + "test_class_route_equals_literal_scan"

BUDGET_LINE = ("    budget = term_k * rho_k[:, None] + term_l * rho_l[None, :]"
               " + term_cross * np.outer(rho_k, rho_l)")
RHO_ZERO_LINE = "        rho[0] = max(1.0, _sphere_sup(q, d, 0) / _sphere_sup(q, d, 1))"
WEIL_LINE = "        return 2.0 * float(q) ** (-(d + 1) / 2.0)"
SPHERE_MASS_BOUND_LINE = "    bound = float(np.sqrt(3.0)) * float(q) ** -6 * float(len(e)) ** 1.5"
CIRCLE_BOUND_LINE = "    bound = 3 * size * size"
SPHERE_MASS_VALUES_LINE = ("    values = np.bincount(all_norms(q, 2), weights=np.abs(restricted) ** 2,"
                           " minlength=q)")
SPHERE_MASS_RESTRICTED_LINE = ("    restricted = forward_transform(DensityTable(e.field, 2, fibers)).coeffs"
                               " * float(q) ** -2")
SURJECTIVITY_LINE = ("    return SurjectivityCheck(threshold, met, coverage, surjective,"
                     " (not met) or surjective)")
CHAIN_HOLDS_LINE = "        so2_size=so2_size, lhs=lhs, rhs=rhs, holds=lhs <= rhs,"
CHAIN_ZERO_LINE = "        zero_term=zero_formula, zero_agrees=zero_agrees, mixed_term=mixed,"
DECAY_TAKE_LINE = '        np.take(roots, rows, axis=0, out=arr, mode="wrap")  # rows mod q'
DECAY_ROOTS_LINE = ("    roots = _real_half_transform(squares[:, None] == np.arange(q), q, 1)"
                    ".reshape(q, h)")
DECAY_SHARES_LINE = "    shares = [(roots, rest_norms, kernel, q, d, range(1 + i, q, w), workspace(), records)"
REAL_WEIGHT_LINE = ("    weight = np.where(frequencies == 0, 1.0, 2.0)"
                    "  # a nonzero frequency stands for -m too")
SO2_ROW_LINE = "        row[:] = (a * v1 - b * v2) % q * q + (b * v1 + a * v2) % q"
FROMSTRING_LINE = '        values = np.fromstring(flat, dtype=np.int64, sep=",").reshape(rows, d)'
SKELETON_LINE = '    skeleton = data.translate(None, b"0123456789")'

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
    Mutant("sphere-decay-bound-x10", "fourier.py", "    bound = _sphere_sup(q, d, 1)",
           "    bound = 10.0 * _sphere_sup(q, d, 1)", (DECAY_FROZEN, DECAY_HALF_SCAN)),
    Mutant("circle-energy-bound-30", "rotation_energy.py", CIRCLE_BOUND_LINE,
           "    bound = 30 * size * size", (CIRCLE_FROZEN,)),
    Mutant("circle-energy-bound-2", "rotation_energy.py", CIRCLE_BOUND_LINE,
           "    bound = 2 * size * size", (CIRCLE_FROZEN,)),
    # "Always pass" forms of the remaining certificate pass rules.
    Mutant("spectrum-mass-unguarded", "pair_spectrum.py",
           "    if total != expected:", "    if False:",
           (_PAIR + "test_spectrum_routes_refuse_a_count_that_breaks_the_mass",)),
    Mutant("surjectivity-always-consistent", "pair_spectrum.py", SURJECTIVITY_LINE,
           SURJECTIVITY_LINE.replace("(not met) or surjective", "True"),
           (_PAIR + "test_surjectivity_inconsistent_when_the_threshold_is_met_and_a_cell_is_empty",)),
    Mutant("marginal-mass-float-always-agrees", "pair_spectrum.py",
           "    agrees = abs(float_value - float(exact)) <= 1e-9", "    agrees = True",
           (_PAIR + "test_marginal_mass_float_route_must_agree",)),
    Mutant("correlation-transform-always-passes", "rotation_energy.py",
           "    return CorrelationTransformReport(dev, dev <= CORRELATION_TOLERANCE)",
           "    return CorrelationTransformReport(dev, True)",
           (_ENERGY + "test_correlation_transform_fails_on_a_miscounted_correlation",)),
    Mutant("energy-chain-always-holds", "rotation_energy.py", CHAIN_HOLDS_LINE,
           CHAIN_HOLDS_LINE.replace("holds=lhs <= rhs", "holds=True"),
           (_ENERGY + "test_energy_chain_fails_a_spectrum_heavier_than_the_rotation_energy",)),
    Mutant("energy-chain-zero-term-always-agrees", "rotation_energy.py", CHAIN_ZERO_LINE,
           CHAIN_ZERO_LINE.replace("zero_agrees=zero_agrees", "zero_agrees=True"), (SPLIT,)),
    Mutant("energy-chain-split-always-ok", "rotation_energy.py",
           "        split_residual=residual, split_ok=residual <= 1e-6,",
           "        split_residual=residual, split_ok=True,", (SPLIT,)),
    Mutant("orthogonality-always-passes", "fourier.py",
           "    passed = (abs(zero_sum - n) < tolerance) and (max_nonzero < tolerance)",
           "    passed = True",
           ("tests/test_fourier.py::test_orthogonality_check_fails_on_a_character_sum_off_by_one",)),
    Mutant("sphere-decay-always-passes", "fourier.py",
           "                             max_ratio <= 1.0 + 1e-9)", "                             True)",
           ("tests/test_fourier.py::test_sphere_decay_check_fails_above_a_halved_bound",)),
    Mutant("sphere-count-law-always-passes", "experiments.py",
           "            worst <= allowance and int(counts.sum()) == q**d,", "            True,",
           (_EXPERIMENTS + "test_sphere_count_law_fails_on_a_wrong_sphere_size",)),
    Mutant("transform-roundtrip-always-passes", "experiments.py",
           "            rt_err <= 1e-9 * max(1.0, scale) and route_err <= 1e-9,", "            True,",
           (_EXPERIMENTS + "test_transform_roundtrip_fails_when_either_route_is_off",)),
    Mutant("single-point-identity-always-passes", "experiments.py",
           "        rep.lhs == 1 and rep.rhs == so2_size**2 and rep.holds,", "        True,",
           (_EXPERIMENTS + "test_single_point_identity_fails_on_each_wrong_field",)),
    Mutant("missing-distance-ignores-coverage", "experiments.py",
           "            check.record(len(pairs) < q * q", "            check.record(True",
           (_EXPERIMENTS + "test_missing_distance_check_fails_on_full_coverage",)),
    # The per-radius sphere sup: Weil's line feeds both the decay certificate
    # and the discrepancy budget, the zero sphere's only the budget.
    Mutant("sphere-sup-weil-x10", "fourier.py", WEIL_LINE, WEIL_LINE.replace("2.0 *", "20.0 *"),
           (DECAY_FROZEN, ROW_ZERO_EDGE)),
    Mutant("zero-sphere-rho-one", "pair_spectrum.py", RHO_ZERO_LINE, "        rho[0] = 1.0",
           (ROW_ZERO_EDGE, OFF_AXES, ISOTROPIC_CLI)),
    Mutant("zero-sphere-rho-every-radius", "pair_spectrum.py", RHO_ZERO_LINE,
           RHO_ZERO_LINE.replace("rho[0]", "rho[:]"), (OFF_AXES,)),
    Mutant("zero-sphere-sup-even-q", "fourier.py",
           "    return (q - 1 if isotropic else 1) * float(q) ** (-d / 2.0 - 1.0)",
           "    return (q if isotropic else 1) * float(q) ** (-d / 2.0 - 1.0)", (SPHERE_SUP_SCAN,)),
    Mutant("zero-sphere-sup-odd-halved", "fourier.py",
           "        return float(q) ** (-(d + 1) / 2.0)",
           "        return 0.5 * float(q) ** (-(d + 1) / 2.0)", (SPHERE_SUP_SCAN,)),
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
    Mutant("sphere-mass-permuted-norms", "rotation_energy.py", SPHERE_MASS_VALUES_LINE,
           SPHERE_MASS_VALUES_LINE.replace("all_norms(q, 2)", "np.roll(all_norms(q, 2), 1)"),
           (SPHERE_MASS_ORACLE,)),
    Mutant("sphere-mass-drops-q-2", "rotation_energy.py", SPHERE_MASS_RESTRICTED_LINE,
           SPHERE_MASS_RESTRICTED_LINE.replace(" * float(q) ** -2", ""), (SPHERE_MASS_ORACLE,)),
    Mutant("energy-drops-zero-vector", "rotation_energy.py",
           "        energies[i] = h.take(diagonals).sum(axis=1) + zero @ zero[perm_t]",
           "        energies[i] = h.take(diagonals).sum(axis=1)", (ENERGY_LITERAL,)),
    Mutant("energy-transposed-block", "rotation_energy.py",
           "        h = blocks @ by_circle[perm_t].transpose(1, 0, 2)",
           "        h = (blocks @ by_circle[perm_t].transpose(1, 0, 2)).transpose(0, 2, 1)",
           (ENERGY_LITERAL,)),
    Mutant("energy-swapped-theta-phi", "rotation_energy.py",
           "    return energies", "    return energies.T", (ENERGY_LITERAL,)),
    Mutant("correlation-forward-phi", "rotation_energy.py",
           "    perm_p = np.argsort(phi)", "    perm_p = phi",
           (_ENERGY + "test_correlation_transform_identity",)),
    Mutant("correlation-forward-theta", "rotation_energy.py",
           "    perm_t = np.argsort(theta)", "    perm_t = theta",
           (_ENERGY + "test_correlation_transform_identity",)),
    # The rotation group is one table; row i with b negated is the inverse of
    # rotation i, so the rows stay a group and only the pointwise oracle sees it.
    Mutant("so2-table-reflection", "field.py", SO2_ROW_LINE,
           SO2_ROW_LINE.replace("(a * v1 - b * v2)", "(a * v1 + b * v2)")
           .replace("(b * v1 + a * v2)", "(-b * v1 + a * v2)"),
           ("tests/test_field.py::test_so2_rows_match_rotation_apply",)),
    # The sphere decay scan: one workspace per share of radii, first axis gathered from one table.
    Mutant("decay-scan-gathers-only-at-t1", "fourier.py", DECAY_TAKE_LINE,
           "        if t == 1: " + DECAY_TAKE_LINE.lstrip(), (DECAY_FRESH,)),
    Mutant("decay-scan-rows-clipped", "fourier.py", DECAY_TAKE_LINE,
           DECAY_TAKE_LINE.replace('"wrap"', '"clip"'), (DECAY_FRESH,)),
    Mutant("decay-scan-roots-transposed", "fourier.py", DECAY_ROOTS_LINE,
           DECAY_ROOTS_LINE.replace("squares[:, None] == np.arange(q)",
                                    "squares[None, :] == np.arange(q)[:, None]"), (DECAY_FRESH,)),
    Mutant("decay-scan-rest-from-the-last-row", "fourier.py",
           "    rest_norms = all_norms(q, d)[: q ** (d - 1)]  # the norms of (0, x_rest)",
           "    rest_norms = all_norms(q, d)[-q ** (d - 1):]", (DECAY_FRESH,)),
    Mutant("decay-scan-unscaled", "fourier.py",
           "        np.multiply(coeffs, float(q) ** -d, out=coeffs)", "        pass", (DECAY_FRESH,)),
    # The decay scan's radii split over threads: share i holds 1 + i, 1 + i + w, ...
    Mutant("decay-split-share-skipped", "fourier.py", "        for i in range(1, w):",
           "        for i in range(2, w):", (DECAY_SPLIT,)),
    Mutant("decay-split-wrong-stride", "fourier.py", DECAY_SHARES_LINE,
           DECAY_SHARES_LINE.replace("range(1 + i, q, w)", "range(1 + i, q, w + 1)"), (DECAY_SPLIT,)),
    Mutant("decay-split-error-dropped", "fourier.py", "        raise errors[0]", "        pass",
           (DECAY_SHARE_ERROR,)),
    Mutant("decay-split-threads-not-joined", "fourier.py", "            thread.join()",
           "            pass", (DECAY_SHARE_ERROR,)),
    # The pair spectrum's real cos/sin basis: its kernel rows and the class table's weights.
    Mutant("real-basis-nonzero-weight-1", "fourier.py", REAL_WEIGHT_LINE,
           REAL_WEIGHT_LINE.replace("1.0, 2.0", "1.0, 1.0"), (REAL_ROUTE,)),
    Mutant("real-basis-zero-weight-2", "fourier.py", REAL_WEIGHT_LINE,
           REAL_WEIGHT_LINE.replace("1.0, 2.0", "2.0, 2.0"), (REAL_ROUTE,)),
    Mutant("real-basis-sin-rows-as-cos", "fourier.py",
           "    kernel = np.concatenate([np.cos(phases), np.sin(phases[1:])])",
           "    kernel = np.concatenate([np.cos(phases), np.cos(phases[1:])])", (REAL_ROUTE,)),
    # The energy suite draws each pair on demand and checks the scan limit before any work.
    Mutant("energy-pairs-kept-alive", "experiments.py",
           "        pairs = (_energy_pair(cfg, field, i, cap) for i in range(n_instances))",
           "        pairs = [_energy_pair(cfg, field, i, cap) for i in range(n_instances)]",
           (ENERGY_MEMORY_FLAT,)),
    Mutant("energy-scan-limit-unchecked", "experiments.py", "    _require_scannable(n_e, n_e)",
           "    pass", (ENERGY_REFUSAL,)),
    # One recorder decides every seeded check: its running worst and its skip.
    Mutant("recorder-worst-is-last", "experiments.py",
           "        self.worst = max(self.worst, value)", "        self.worst = value",
           (_EXPERIMENTS + "test_coverage_worst_ratio_is_the_largest_over_every_instance",)),
    Mutant("recorder-never-skips", "experiments.py",
           "        if not self.checked:", "        if False:",
           (EMPTY_COVERAGE, EMPTY_LEMMAS)),
    # The public transforms copy their input once and transform the copy in place.
    Mutant("forward-transform-writes-its-input", "fourier.py",
           "    coeffs = _transform_in_place(np.array(f.values, dtype=np.complex128), f.field.q, f.d)",
           "    coeffs = _transform_in_place(np.asarray(f.values, dtype=np.complex128), f.field.q, f.d)",
           ("tests/test_fourier.py::test_public_transforms_leave_their_input_unchanged",)),
    # Literal pair scans work in cache-sized chunks.
    Mutant("pair-chunk-4e6-cells", "pair_spectrum.py",
           "_BLOCK_CELLS = 2**16", "_BLOCK_CELLS = 4 * 10**6",
           (_ENERGY + "test_literal_scans_stay_under_4_mib_at_q11",)),
    # The checks that keep np.fromstring from misreading canonical point-set data,
    # and the line numbers of the rows it reads.
    Mutant("plain-read-blanks-in-a-token", "geometry.py", SKELETON_LINE,
           SKELETON_LINE.replace('b"0123456789"', 'b"0123456789 "'), (CANONICAL_REFUSALS,)),
    Mutant("plain-read-lone-minus", "geometry.py", SKELETON_LINE,
           SKELETON_LINE.replace('b"0123456789"', 'b"0123456789-"'), (CANONICAL_REFUSALS,)),
    Mutant("plain-read-any-comma-count", "geometry.py",
           '    if skeleton != b"\\n" + (b"," * (d - 1) + b"\\n") * rows:',
           '    if skeleton.strip(b",\\n"):', (CANONICAL_REFUSALS,)),
    Mutant("plain-read-range-admits-q", "geometry.py",
           "    return values if values.max(initial=0) < q else None",
           "    return values if values.max(initial=0) <= q else None", (CANONICAL_REFUSALS,)),
    Mutant("plain-read-crlf-to-lines", "geometry.py",
           '        data = data.replace(b"\\r\\n", b"\\n")  # drops a blank that ends a line;'
           ' moves no line', "        pass", (WRITTEN_FILES,)),
    Mutant("plain-read-repeat-line-off-by-one", "geometry.py",
           "        numbers = range(header_number + 1, header_number + 1 + len(values))",
           "        numbers = range(header_number, header_number + len(values))", (CANONICAL_REPEAT,)),
    Mutant("plain-read-any-row-count", "geometry.py", FROMSTRING_LINE,
           FROMSTRING_LINE.replace("reshape(rows, d)", "reshape(-1, d)"),
           ("tests/test_geometry.py::"
            "test_load_refuses_rows_a_fromstring_that_stops_early_leaves_short",)),
)
