"""Seeded experiment suites over the counting and certificate machinery.

Randomness is counter-based (Philox keyed by seed and a purpose tag), so any
instance can be regenerated independently of draw order: the same config
always yields the same sets, reports, and JSON bytes (modulo wall-clock
duration).  Suites never raise on a failed certificate; they record it, and
the caller turns the aggregate into an exit code.
"""

from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from . import fourier, geometry
from .errors import SizeGuardError
from .field import PrimeField, enumerate_so2, make_field, so2_orbit_check
from .fourier import (
    DensityTable,
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
    _require_enumerable,
    decode_codes,
    encode_vectors,
    enumerate_sphere,
    norm_fiber_sizes,
)
from .pair_spectrum import (
    SplitPointSet,
    _coverage_threshold,
    _require_scannable,
    achieved_pairs,
    discrepancy_report,
    distance_set,
    marginal_spectral_mass,
    pair_spectrum,
    pair_spectrum_fast,
    pair_spectrum_naive,
    spectrum_energy,
    spectrum_energy_bruteforce,
    surjectivity_check,
)
from .rotation_energy import (
    circle_energy,
    correlation_transform_check,
    coverage_min_bound,
    energy_chain_check,
    sphere_restricted_mass,
)

SUITES = ("lemmas", "coverage", "energy", "sharpness")
# Each generator, and the set-drawing fields of ExperimentConfig it reads.
GENERATOR_KNOBS = {
    "bernoulli": ("density",),
    "full": (),
    "near-full": (),
    "circles": (),
    "product": ("density",),
    "strip": ("strip_len",),
    "sharp-product": ("budget",),
}
GENERATORS = tuple(GENERATOR_KNOBS)
SET_KNOBS = ("generator", "density", "strip_len", "budget")
# The sets (E, F) a suite runs on; F is E, the same object, when the two are one set.
SetPair = tuple[SplitPointSet, SplitPointSet]

# Purpose tags for the counter-based generator; never reuse a value.
_T_DENSITY = 1
_T_BERNOULLI = 2
_T_DELETION = 3
_T_SIZE = 4
_T_SAMPLE = 5
_T_PRODUCT = 6
_T_SEARCH = 7
_T_ORACLE = 8
_T_ROTSAMPLE = 9
_T_PLANCHEREL = 10
_T_MASS = 11
_T_PHASE = 12

_MASK = (1 << 64) - 1

# The missing-distance search refuses factor spaces F_q^k larger than this.
MAX_SEARCH_SPACE = 10**5


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator determined by (seed, tags) alone."""
    mixed = 0
    for t in tags:
        mixed = (mixed * 1000003 + int(t) + 1) & _MASK
    key = np.array([seed, mixed], dtype=np.uint64)  # a seed outside [0, 2^64) raises
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the CLI and the suite runners, validated once and frozen."""

    q: int
    k: int = 2
    l: int = 2
    suite: str = "lemmas"
    generator: str = "bernoulli"
    density: float | None = None
    strip_len: int | None = None
    budget: int = 2000
    seed: int = 0
    constant_c: float = 10.0
    instances: int = 20
    oracle_instances: int = 20

    def __post_init__(self):
        if self.q % 2 == 0:
            raise ValueError(f"q must be an odd prime (the paper's setting), got {self.q}")
        if self.k < 1 or self.l < 1:
            raise ValueError(f"k and l must be >= 1, got k = {self.k}, l = {self.l}")
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}; choose from {GENERATORS}")
        if self.density is not None and not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if not 0 <= self.seed <= _MASK:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.instances < 1 or self.oracle_instances < 0:
            raise ValueError("instances must be >= 1 and oracle instances >= 0")
        if not 1 <= self.budget <= MAX_SEARCH_SPACE:
            raise ValueError(f"budget must be in [1, {MAX_SEARCH_SPACE}], got {self.budget}")
        if self.strip_len is not None and not 1 <= self.strip_len <= self.q:
            raise ValueError(f"strip length must be in [1, q = {self.q}], got {self.strip_len}")
        if not (math.isfinite(self.constant_c) and self.constant_c > 0):
            raise ValueError(f"constant_c must be finite and positive, got {self.constant_c}")


def _instance_density(cfg: ExperimentConfig, instance: int, which_bit: int) -> float:
    if cfg.density is not None:
        return cfg.density
    gen = substream(cfg.seed, _T_DENSITY, instance, which_bit)
    return 0.1 + 0.8 * float(gen.random())


def _bernoulli_codes(cfg: ExperimentConfig, field: PrimeField, dims: int,
                     instance: int, which_bit: int) -> np.ndarray:
    size = _require_enumerable(field.q, dims)
    density = _instance_density(cfg, instance, which_bit)
    gen = substream(cfg.seed, _T_BERNOULLI, instance, which_bit)
    return np.nonzero(gen.random(size) < density)[0].astype(np.int64)


def _near_full_codes(cfg: ExperimentConfig, field: PrimeField, instance: int) -> np.ndarray:
    """Full space minus a seeded deletion, small enough to stay over threshold."""
    q, k, l = field.q, cfg.k, cfg.l
    ambient = q ** (k + l)
    threshold = _coverage_threshold(q, k, l)
    n_min = math.isqrt(threshold) + 1
    max_del = ambient - n_min
    if max_del < 1:
        raise ValueError(
            f"threshold {threshold} is unreachable: the full space has only "
            f"{ambient}^2 pairs"
        )
    cap = min(2400, max_del)
    gen = substream(cfg.seed, _T_DELETION, instance, 0)
    n_del = int(gen.integers(1, cap + 1))
    deleted = gen.choice(ambient, size=n_del, replace=False)
    keep = np.ones(ambient, dtype=bool)
    keep[deleted] = False
    return np.nonzero(keep)[0].astype(np.int64)


def _product_first_factor(cfg: ExperimentConfig, field: PrimeField, instance: int) -> PointSet:
    """Nonempty seeded random subset of F_q^k for product constructions."""
    draws = 64
    for attempt in range(draws):
        codes = _bernoulli_codes(cfg, field, cfg.k, instance, 2 + attempt)
        if len(codes):
            return PointSet(field, cfg.k, codes)
    raise ValueError(f"density {cfg.density} left the factor in F_{field.q}^{cfg.k} "
                     f"empty in all {draws} draws; raise the density")


@dataclass(frozen=True)
class SearchResult:
    """Best set found with one distance excluded, plus the search record."""

    point_set: PointSet
    missing_distance: int
    candidates_tried: int


@lru_cache(maxsize=8)
def search_missing_distance_set(field: PrimeField, k: int, budget: int,
                                seed: int) -> SearchResult:
    """Randomized greedy search for a large E1 in F_q^k avoiding one distance.

    Draws random candidate points and keeps those that never realize the
    target distance against the current set.  Several restarts with different
    excluded distances; the best set wins.  Postcondition re-verified by an
    independent pairwise scan.  Calls with the same (q, k, budget, seed) share one search.
    """
    if k % 2 == 0:
        raise ValueError("the search targets odd k; even k has no such gap here")
    q = field.q
    if q**k > MAX_SEARCH_SPACE:
        raise SizeGuardError(f"q^k = {q**k} is too large for the greedy search")
    gen = substream(seed, _T_SEARCH, q, k)
    restarts = 4
    per_restart = max(1, budget // restarts)
    best_codes: np.ndarray | None = None
    best_missing = 1
    tried = 0
    for restart in range(restarts):
        missing = int(gen.integers(1, q))
        chosen: list[int] = []
        coords_list: list[np.ndarray] = []
        candidates = gen.integers(0, q**k, size=per_restart)
        cand_coords = decode_codes(q, k, candidates)
        for idx in range(per_restart):
            tried += 1
            code = int(candidates[idx])
            v = cand_coords[idx]
            if coords_list:
                diffs = (np.stack(coords_list) - v[None, :]) % q
                norms = (diffs * diffs).sum(axis=1) % q
                if (norms == missing).any():
                    continue
            if code in chosen:
                continue
            chosen.append(code)
            coords_list.append(v)
        if best_codes is None or len(chosen) > len(best_codes):
            best_codes = np.array(sorted(set(chosen)), dtype=np.int64)
            best_missing = missing
    ps = PointSet(field, k, best_codes if best_codes is not None else [])
    if len(ps) == 0:
        raise RuntimeError("search produced an empty set; increase the budget")
    realized = distance_set(ps)
    if best_missing in realized:
        raise RuntimeError("search postcondition failed: excluded distance realized")
    return SearchResult(ps, best_missing, tried)


def _factors(cfg: ExperimentConfig, field: PrimeField, instance: int
             ) -> tuple[tuple[PointSet, PointSet], tuple[PointSet, PointSet]]:
    """The factors ((A, B), (C, D)) of E = A x B and F = C x D for a product generator.

    Only circles tell E from F; the others return one pair twice (E = F by identity).
    """
    q, k, l = field.q, cfg.k, cfg.l
    if cfg.generator in ("circles", "strip") and (k, l) != (2, 2):
        raise ValueError(f"the {cfg.generator} generator needs the plane-pair split k = l = 2")
    if cfg.generator == "circles":
        circle, origin = enumerate_sphere(field, 2, 1), PointSet(field, 2, [0])
        return (circle, origin), (origin, circle)
    if cfg.generator == "full":
        pair = PointSet.full(field, k), PointSet.full(field, l)
    elif cfg.generator == "strip":  # the plane times the axis strip (i, 0), i < length
        length = cfg.strip_len if cfg.strip_len is not None else (q + 1) // 2
        pair = PointSet.full(field, 2), PointSet(field, 2, np.arange(length) * q)
    elif cfg.generator == "product":
        pair = _product_first_factor(cfg, field, instance), PointSet.full(field, l)
    elif cfg.generator == "sharp-product":
        found = search_missing_distance_set(field, k, cfg.budget, cfg.seed)
        pair = found.point_set, PointSet.full(field, l)
    else:
        raise AssertionError(f"{cfg.generator} is not a product generator")
    return pair, pair


def _product_pair(first: tuple[PointSet, PointSet], second: tuple[PointSet, PointSet]
                  ) -> SetPair:
    """(A x B, C x D) for factor pairs (A, B), (C, D); F is E when the pairs are one object."""
    e = SplitPointSet.product(*first)
    return e, e if second is first else SplitPointSet.product(*second)


def generate_set(cfg: ExperimentConfig, instance: int = 0) -> SetPair:
    """The deterministic pair (E, F) for (config, instance index).

    bernoulli draws E and F independently and circles builds two products.  Every
    other generator builds one set and returns it as both (F is E): near-full deletes
    seeded points from F_q^(k+l), and the rest multiply the factors from _factors.
    """
    field = make_field(cfg.q)
    if cfg.generator == "bernoulli":
        return tuple(SplitPointSet(field, cfg.k, cfg.l, _bernoulli_codes(
            cfg, field, cfg.k + cfg.l, instance, bit)) for bit in (0, 1))
    if cfg.generator == "near-full":
        e = SplitPointSet(field, cfg.k, cfg.l, _near_full_codes(cfg, field, instance))
        return e, e
    return _product_pair(*_factors(cfg, field, instance))


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail entry of a suite run."""

    name: str
    operation: str
    passed: bool
    payload: dict


@dataclass
class RunReport:
    """Everything one suite run produced, deterministic and printed as it stands.

    Config and payloads hold plain JSON values only.  table is the run's one
    CSV table (rows of ints and strings), empty when the run has none.
    """

    suite: str
    config: dict
    checks: list[CheckResult]
    duration_ms: int
    table: list[list] = dc_field(default_factory=list, repr=False)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "config": self.config,
            "checks": [
                {"name": c.name, "operation": c.operation, "pass": bool(c.passed),
                 "payload": c.payload}
                for c in self.checks
            ],
            "all_pass": bool(self.all_pass),
            "duration_ms": self.duration_ms,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _skip(name: str, operation: str, reason: str) -> CheckResult:
    return CheckResult(name, operation, True, {"skipped": True, "reason": reason})


class _Check:
    """The one recorder of a seeded check: what it checked, its worst value and first failure.

    Every checked instance is recorded, passing or failing.  A check that
    checked no instance is skipped, not passed.  The first failure keeps its
    instance, seed and cell: the same flags with --instances instance+1 rerun
    it (--oracle-instances instance+1 for route-agreement and quadruple-count).
    """

    def __init__(self, cfg: ExperimentConfig, name: str, operation: str):
        self.cfg, self.name, self.operation = cfg, name, operation
        self.checked = 0
        self.worst = 0.0  # the largest value recorded
        self.first_failure: dict | None = None

    def record(self, ok: bool, instance: int, cell=None, value: float = 0.0) -> None:
        """Note one checked instance's outcome and value; only the first failure is kept."""
        self.checked += 1
        self.worst = max(self.worst, value)
        if not ok and self.first_failure is None:
            self.first_failure = {"instance": instance, "seed": self.cfg.seed, "cell": cell}

    def result(self, payload: dict, ok: bool = True) -> CheckResult:
        """Pass iff no instance failed and ok holds; the payload gains first_failure if one did."""
        if not self.checked:
            return _skip(self.name, self.operation, "no instance was checked")
        if self.first_failure is not None:
            payload["first_failure"] = self.first_failure
        return CheckResult(self.name, self.operation, ok and self.first_failure is None, payload)


# ----------------------------------------------------------------- lemmas ---


def _lemmas_checks(cfg: ExperimentConfig, field: PrimeField) -> tuple[list[CheckResult], list]:
    q = field.q
    checks: list[CheckResult] = []
    circle_table: list[list] = []  # the CSV table: circle-energy rows at q = 3 mod 4
    dims = [d for d in (2, 3, 4) if q**d <= 1_500_000]
    if not dims:
        raise ValueError(f"q = {q} is too large for the enumeration-based lemmas suite")
    # The marginal-mass draws span F_q^(k+l).
    _require_enumerable(q, cfg.k + cfg.l)

    for d in dims:
        counts = norm_fiber_sizes(field, d)
        allowance = 2 * q ** (d - 2)
        deviations = [abs(int(counts[t]) - q ** (d - 1)) for t in range(1, q)]
        worst = max(deviations)
        checks.append(CheckResult(
            f"sphere-count-law d={d}", "norm_fiber_sizes",
            worst <= allowance and int(counts.sum()) == q**d,
            {"d": d, "max_abs_deviation": worst, "allowance": allowance},
        ))

    for d in dims:
        rep = sphere_decay_check(field, d)
        checks.append(CheckResult(
            f"sphere-decay d={d}", "sphere_decay_check", rep.passed,
            {"d": d, "max_ratio": rep.max_ratio, "worst_t": rep.worst_t,
             "worst_m": list(rep.worst_m), "bound": rep.bound},
        ))

    for d in dims:
        if fourier._exceeds_quadratic(q, d):
            checks.append(_skip(f"orthogonality d={d}", "orthogonality_check",
                                f"q^2d = {(q**d)**2} phases exceed the brute-force budget"))
            continue
        rep = orthogonality_check(field, d)
        checks.append(CheckResult(
            f"orthogonality d={d}", "orthogonality_check", rep.passed,
            {"d": d, "zero_frequency_sum": rep.zero_frequency_sum,
             "max_nonzero_modulus": rep.max_nonzero_modulus},
        ))

    for d in dims:
        check = _Check(cfg, f"plancherel d={d}", "plancherel_gap")
        for i in range(cfg.instances):
            gen = substream(cfg.seed, _T_PLANCHEREL, d, i)
            density = 0.1 + 0.8 * float(gen.random())
            # A float 0/1 table: forward_transform's complex copy is its only one.
            values = (gen.random(q**d) < density).astype(np.float64)
            table = DensityTable(field, d, values)
            support = float(values.sum())
            if support == 0:
                continue
            scale = support / q**d
            rel = plancherel_gap(table) / scale
            check.record(rel <= 1e-9, i, value=rel)
        checks.append(check.result(
            {"d": d, "instances": check.checked, "max_relative_gap": check.worst}))

    # Round-trip and the defining-sum route, on the largest ambient that the
    # quadratic route still allows.
    rt_dims = [d for d in dims if not fourier._exceeds_quadratic(q, d)]
    if rt_dims:
        d = rt_dims[-1]
        gen = substream(cfg.seed, _T_PLANCHEREL, 99, d)
        values = gen.normal(size=q**d) + 1j * gen.normal(size=q**d)
        table = DensityTable(field, d, values)
        spec = forward_transform(table)
        direct = forward_transform_direct(table)
        back = inverse_transform(spec).values
        rt_err = float(np.max(np.abs(back - values)))
        route_err = float(np.max(np.abs(spec.coeffs - direct.coeffs)))
        scale = float(np.max(np.abs(values)))
        checks.append(CheckResult(
            f"transform-roundtrip d={d}", "forward_transform",
            rt_err <= 1e-9 * max(1.0, scale) and route_err <= 1e-9,
            {"d": d, "roundtrip_error": rt_err, "route_disagreement": route_err},
        ))

    # Exact phase histograms against the float coefficients.
    check = _Check(cfg, "phase-histogram-agreement", "exact_phase_histogram")
    for i in range(min(cfg.instances, 20)):
        gen = substream(cfg.seed, _T_PHASE, i)
        d = int(gen.integers(2, 1 + max(2, dims[-1])))
        codes = np.nonzero(gen.random(q**d) < 0.4)[0]
        if len(codes) == 0:
            continue
        ps = PointSet(field, d, codes)
        m = [int(x) for x in gen.integers(0, q, size=d)]
        hist = exact_phase_histogram(ps, m)
        spec = forward_transform(indicator_table(ps))
        gap = float(abs(hist.coefficient() - spec.coeffs[encode_vectors(q, m)]))
        check.record(gap <= 1e-10, i, m, gap)
    checks.append(check.result({"max_abs_disagreement": check.worst}))

    if field.q_mod_4 == 3:
        rep = so2_orbit_check(field)
        checks.append(CheckResult(
            "so2-orbit", "so2_orbit_check", rep.passed,
            {"so2_size": rep.so2_size, "vectors_checked": rep.vectors_checked},
        ))

        rows = []
        all_hold = True
        worst_ratio = 0.0
        for a in range(1, q):
            ce = circle_energy(field, a)
            rows.append([q, a, ce.sphere_size, ce.energy, ce.bound])
            all_hold = all_hold and ce.holds
            worst_ratio = max(worst_ratio, ce.energy / ce.bound)
        checks.append(CheckResult(
            "circle-energy", "circle_energy", all_hold,
            {"radii": q - 1, "max_energy_over_bound": worst_ratio, "rows": rows},
        ))
        circle_table = [["q", "a", "sphere_size", "energy", "bound"], *rows]
    else:
        checks.append(_skip("so2-orbit", "so2_orbit_check", "needs q = 3 mod 4"))
        checks.append(_skip("circle-energy", "circle_energy", "needs q = 3 mod 4"))

    # Marginal mass lemma: random sets plus the saturating single fiber.
    k, l = cfg.k, cfg.l
    check = _Check(cfg, "marginal-mass", "marginal_spectral_mass")
    for i in range(cfg.instances):
        gen = substream(cfg.seed, _T_MASS, i)
        density = 0.05 + 0.9 * float(gen.random())
        # Unnamed, the set and its cached transform die before the next draw and the fibre's.
        rep = marginal_spectral_mass(
            SplitPointSet(field, k, l, np.nonzero(gen.random(q ** (k + l)) < density)[0]))
        check.record(rep.holds and rep.float_agrees, i,
                     value=abs(rep.float_value - float(rep.exact)))
    fiber = SplitPointSet.product(
        PointSet(field, k, [min(1, q**k - 1)]), PointSet.full(field, l))
    sat = marginal_spectral_mass(fiber)
    checks.append(check.result(
        {"instances": cfg.instances, "max_float_gap": check.worst,
         "saturating_fiber_exact": str(sat.exact), "saturated": sat.saturated},
        ok=sat.holds and sat.saturated and sat.float_agrees))

    if field.q_mod_4 != 3:
        checks.append(_skip("sphere-restricted-mass", "sphere_restricted_mass",
                            "needs q = 3 mod 4"))
    elif q**4 > geometry.MAX_ENUMERATION:
        checks.append(_skip("sphere-restricted-mass", "sphere_restricted_mass",
                            f"q^4 = {q**4} exceeds the enumeration limit"))
    else:
        check = _Check(cfg, "sphere-restricted-mass", "sphere_restricted_mass")
        for i in range(cfg.instances):
            gen = substream(cfg.seed, _T_MASS, 1000 + i)
            density = 0.05 + 0.9 * float(gen.random())
            codes = np.nonzero(gen.random(q**4) < density)[0]
            e = SplitPointSet(field, 2, 2, codes)
            if len(e) == 0:
                continue
            rep = sphere_restricted_mass(e)
            a = 1 + int(np.argmin(rep.holds[1:]))  # the least failing radius, if one fails
            check.record(rep.holds[a], i, a, float(np.max(rep.values[1:] / rep.bound)))
        checks.append(check.result({"instances": check.checked,
                                    "max_value_over_bound": check.worst}))

    return checks, circle_table


# --------------------------------------------------------------- coverage ---


def _coverage_checks(cfg: ExperimentConfig, field: PrimeField, sets: SetPair | None
                     ) -> tuple[list[CheckResult], list]:
    q, k, l = field.q, cfg.k, cfg.l
    checks: list[CheckResult] = []
    table: list[list] = []
    if not (l >= k >= 2):
        raise ValueError(f"coverage suite needs l >= k >= 2, got ({k}, {l})")

    if sets is not None:
        spectrum = pair_spectrum(*sets)
        rep = discrepancy_report(spectrum)
        checks.append(CheckResult(
            "discrepancy (loaded sets)", "discrepancy_report", rep.all_ok,
            {"max_ratio": rep.max_ratio, "detail": rep.to_json_dict()},
        ))
        sc = surjectivity_check(spectrum)
        checks.append(CheckResult(
            "surjectivity (loaded sets)", "surjectivity_check", sc.consistent,
            {"threshold_met": sc.threshold_met, "coverage": sc.coverage,
             "surjective": sc.surjective},
        ))
        return checks, spectrum.s.tolist()

    # Discrepancy certificate on seeded instances.
    disc = _Check(cfg, "discrepancy", "discrepancy_report")
    consistency = _Check(cfg, "threshold-consistency", "surjectivity_check")
    spectra = {}  # instance -> its pair spectrum
    for i in range(cfg.instances):
        e, f = generate_set(cfg, i)
        if len(e) == 0 or len(f) == 0:
            continue
        spectrum = spectra[i] = pair_spectrum(e, f)
        if i == 0:
            table = spectrum.s.tolist()
        rep = discrepancy_report(spectrum)
        disc.record(rep.all_ok, i, None if rep.all_ok else np.argwhere(~rep.cell_ok)[0].tolist(),
                    rep.max_ratio)
        consistency.record(surjectivity_check(spectrum).consistent, i)
    checks.append(disc.result({"instances": disc.checked, "generator": cfg.generator,
                               "max_error_over_budget": disc.worst}))
    checks.append(consistency.result({"instances": consistency.checked}))

    # Full space and seeded near-full deletions, where the threshold is live.
    ambient = q ** (k + l)
    threshold = _coverage_threshold(q, k, l)
    if ambient * ambient > threshold:
        # The full space, checked in every run, fails as instance 0 with cell "full-space"
        # unless it is covered and its spectrum equals the discrepancy main term exactly.
        full = SplitPointSet.full(field, k, l)
        spectrum = pair_spectrum(full, full)
        sc = surjectivity_check(spectrum)
        check = _Check(cfg, "surjectivity-above-threshold", "surjectivity_check")
        check.record(sc.threshold_met and sc.surjective
                     and not discrepancy_report(spectrum).error.any(), 0, "full-space")
        near = replace(cfg, generator="near-full")
        min_size = len(full)
        for i in range(cfg.instances):  # a near-full run has built these spectra already
            spectrum = spectra[i] if near == cfg else pair_spectrum(*generate_set(near, i))
            min_size = min(min_size, spectrum.size_e)
            sc = surjectivity_check(spectrum)
            check.record(sc.threshold_met and sc.surjective, i)
        checks.append(check.result({"instances": cfg.instances + 1, "min_size": min_size,
                                    "threshold": threshold}))
    else:
        checks.append(_skip(
            "surjectivity-above-threshold", "surjectivity_check",
            f"threshold {threshold} unreachable: |E||F| <= {ambient}^2"))

    # Route agreement: the literal scan versus the transform route, and the
    # quadratic quadruple count on tiny instances.
    small_cap = min(300, ambient)
    agree = _Check(cfg, "route-agreement", "pair_spectrum_fast")
    quadruple = _Check(cfg, "quadruple-count", "spectrum_energy")
    for i in range(cfg.oracle_instances):
        gen = substream(cfg.seed, _T_ORACLE, i)
        tiny = i % 2 == 1
        cap = min(40, ambient) if tiny else small_cap
        ne = int(gen.integers(1, cap + 1))
        nf = int(gen.integers(1, cap + 1))
        e = SplitPointSet(field, k, l, gen.choice(ambient, size=ne, replace=False))
        f = SplitPointSet(field, k, l, gen.choice(ambient, size=nf, replace=False))
        fast = pair_spectrum_fast(e, f)
        naive = pair_spectrum_naive(e, f)
        same = np.array_equal(fast.s, naive.s)
        agree.record(same, i, None if same else np.argwhere(fast.s != naive.s)[0].tolist())
        if len(e) <= 40 and len(f) <= 40:
            quadruple.record(spectrum_energy(fast) == spectrum_energy_bruteforce(e, f), i)
    checks.append(agree.result({"instances": cfg.oracle_instances}))
    checks.append(quadruple.result({"instances": quadruple.checked}))
    return checks, table


# ----------------------------------------------------------------- energy ---


def _energy_pair(cfg: ExperimentConfig, field: PrimeField, i: int, cap: int) -> SetPair:
    """Instance i's drawn (E, F): two sizes from _T_SIZE, then E before F from one sampler."""
    gen = substream(cfg.seed, _T_SIZE, i)
    sizes = [int(gen.integers(max(1, cap // 10), cap + 1)) for _ in range(2)]
    sampler = substream(cfg.seed, _T_SAMPLE, i)
    return tuple(SplitPointSet(field, 2, 2, sampler.choice(field.q**4, size=n, replace=False))
                 for n in sizes)


def _energy_checks(cfg: ExperimentConfig, field: PrimeField, sets: SetPair | None
                   ) -> tuple[list[CheckResult], list]:
    if field.q_mod_4 != 3 or (cfg.k, cfg.l) != (2, 2):
        raise ValueError("energy suite needs q = 3 mod 4 and k = l = 2")

    # Drawn pairs come one at a time, so one pair and its two cached transforms live at once.
    cap = min(2000, field.q**4)
    if sets is None:
        n_instances, n_e = cfg.instances, cap  # cap bounds every drawn |E|
        pairs = (_energy_pair(cfg, field, i, cap) for i in range(n_instances))
    else:
        n_instances, n_e, pairs = 1, len(sets[0]), (sets,)
    # rotation_correlation scans |E|^2 pairs; refuse an E above the limit before any work.
    _require_scannable(n_e, n_e)

    # Single-point identity: lhs = 1, rhs = |SO2|^2 exactly.
    point = SplitPointSet(field, 2, 2, [0])
    rep = energy_chain_check(point, point, pair_spectrum(point, point))
    so2_size = rep.so2_size
    checks = [CheckResult(
        "single-point-identity", "energy_chain_check",
        rep.lhs == 1 and rep.rhs == so2_size**2 and rep.holds,
        {"lhs": rep.lhs, "rhs": rep.rhs, "so2_size": so2_size},
    )]

    rotations = enumerate_so2(field)

    table: list[list] = []
    energy_chain, zero, split, orbit = (_Check(cfg, name, "energy_chain_check") for name in (
        "energy-chain", "zero-frequency-term", "frequency-split", "orbit-weight-identity"))
    correlation = _Check(cfg, "correlation-transform", "correlation_transform_check")
    min_bound = _Check(cfg, "coverage-min-bound", "coverage_min_bound")
    for i, (e, f) in enumerate(pairs):
        spectrum = pair_spectrum(e, f)
        if i == 0:
            table = spectrum.s.tolist()
        chain = energy_chain_check(e, f, spectrum)
        gen = substream(cfg.seed, _T_ROTSAMPLE, i)
        cells = [[int(gen.integers(0, len(rotations))) for _ in range(2)] for _ in range(2)]
        reps = [correlation_transform_check(e, rotations[a], rotations[b]) for a, b in cells]
        worst, worst_cell = max(zip(reps, cells), key=lambda sample: sample[0].max_deviation)
        bound = coverage_min_bound(chain, spectrum, cfg.constant_c)
        energy_chain.record(chain.holds, i)
        zero.record(chain.zero_agrees, i)
        split.record(chain.split_ok, i, value=chain.split_residual)
        orbit.record(chain.overcount_matches, i)
        correlation.record(all(rep.passed for rep in reps), i, worst_cell, worst.max_deviation)
        min_bound.record(bound.holds or not bound.c_dominates, i, value=bound.empirical_c)

    checks += [
        energy_chain.result({"instances": n_instances, "size_cap": cap}),
        zero.result({"instances": n_instances, "formula": "|SO2|^2 |E|^2 |F|^2 / q^4",
                     "so2_size": so2_size}),
        split.result({"instances": n_instances, "max_relative_residual": split.worst}),
        orbit.result({"instances": n_instances}),
        correlation.result({"instances": n_instances, "max_deviation": correlation.worst}),
        min_bound.result({"instances": n_instances, "constant_c": cfg.constant_c,
                          "max_empirical_c": min_bound.worst}),
    ]
    return checks, table


# -------------------------------------------------------------- sharpness ---


# The paper's sharpness constructions, each a product E = A x B, F = C x D from
# _factors, checked against the law B(E, F) = Delta(A, C) x Delta(B, D).  Each
# applies on the (q, k, l) its gate accepts, else is skipped with the reason in
# needs, and reads the set-drawing fields of its generator.
Construction = namedtuple("Construction", "check operation generator applies needs")
SHARPNESS_CONSTRUCTIONS = (
    Construction("orthogonal-circles", "achieved_pairs", "circles",
                 lambda q, k, l: (k, l) == (2, 2), "needs the plane-pair split k = l = 2"),
    Construction("product-law", "achieved_pairs", "product", lambda q, k, l: l >= 2,
                 "needs l >= 2"),
    Construction("plane-strip", "plane_strip_scan", "strip",
                 lambda q, k, l: (k, l) == (2, 2) and q % 4 == 3,
                 "needs k = l = 2 and q = 3 mod 4"),
    Construction("missing-distance-product", "search_missing_distance_set", "sharp-product",
                 lambda q, k, l: k % 2 == 1 and q**k <= MAX_SEARCH_SPACE,
                 "needs odd k with q^k <= 1e5"),
)


def knobs_read(suite: str, q: int, k: int, l: int, generator: str) -> set[str]:
    """The set-drawing fields of ExperimentConfig that a suite run on drawn sets reads."""
    if suite == "coverage":
        return {"generator", *GENERATOR_KNOBS[generator]}
    if suite == "sharpness":
        return {name for c in SHARPNESS_CONSTRUCTIONS if c.applies(q, k, l)
                for name in GENERATOR_KNOBS[c.generator]}
    return set()


def _sweep(cfg: ExperimentConfig, generator: str) -> list[tuple[int, ExperimentConfig, int]]:
    """(parameter, config, instance) per product; the parameter is the instance or strip length."""
    run_cfg = replace(cfg, generator=generator)
    if generator == "product":
        return [(i, run_cfg, i) for i in range(cfg.instances)]
    if generator == "strip":
        lengths = [cfg.strip_len] if cfg.strip_len is not None else range(1, cfg.q + 1)
        return [(n, replace(run_cfg, strip_len=n), 0) for n in lengths]
    return [(0, run_cfg, 0)]


def _sharpness_checks(cfg: ExperimentConfig, field: PrimeField) -> tuple[list[CheckResult], list]:
    q = field.q
    checks: list[CheckResult] = []
    rows: list[list] = []
    for con in SHARPNESS_CONSTRUCTIONS:
        if not con.applies(q, cfg.k, cfg.l):
            checks.append(_skip(con.check, con.operation, con.needs))
            continue
        check = _Check(cfg, con.check, con.operation)
        runs = []  # (parameter, A, |E|, |F|, achieved pairs)
        for parameter, run_cfg, instance in _sweep(cfg, con.generator):
            factors = _factors(run_cfg, field, instance)
            (a, b), (c, d) = factors
            e, f = _product_pair(*factors)
            pairs = achieved_pairs(pair_spectrum(e, f))
            law = {(s, t) for s in distance_set(a, c) for t in distance_set(b, d)}
            check.record(pairs == law, parameter, None if pairs == law else list(min(pairs ^ law)))
            runs.append((parameter, a, len(e), len(f), pairs))

        parameter, a, size_e, size_f, pairs = runs[0]
        if con.generator == "circles":
            payload = {"size_e": size_e, "size_f": size_f, "coverage": len(pairs)}
            rows.append(["circles", 1, size_e, len(pairs)])
        elif con.generator == "product":
            payload = {"instances": cfg.instances, "k": cfg.k, "l": cfg.l}
            rows.append(["product", len(a), size_e, len(pairs)])
        elif con.generator == "strip":
            payload = {"lengths": [run[0] for run in runs]}
            rows.extend(["strip", n, size, len(p)] for n, _, size, _, p in runs)
        else:
            found = search_missing_distance_set(field, cfg.k, cfg.budget, cfg.seed)
            check.record(len(pairs) < q * q
                         and found.missing_distance not in {s for s, _ in pairs}, parameter)
            payload = {"factor_size": len(a), "missing_distance": found.missing_distance,
                       "coverage": len(pairs), "full_coverage": q * q,
                       "candidates_tried": found.candidates_tried}
            rows.append(["sharp-product", len(a), size_e, len(pairs)])
        checks.append(check.result(payload))
    return checks, [["construction", "parameter", "set_size", "coverage"], *rows]


def run_suite(cfg: ExperimentConfig, sets: SetPair | None = None) -> RunReport:
    """Run the suite cfg.suite and collect its checks; never raises on failed checks.

    coverage and energy run on sets, a loaded (E, F) with F is E for one set, if given.
    A set with no points is refused: a run over it would certify nothing.
    """
    if sets is not None and cfg.suite not in ("coverage", "energy"):
        raise ValueError(f"suite {cfg.suite!r} does not accept loaded sets")
    for name, s in zip("EF", sets or ()):
        if (s.field.q, s.k, s.l) != (cfg.q, cfg.k, cfg.l):
            raise ValueError(
                f"loaded set {name} has q = {s.field.q}, split ({s.k}, {s.l}), but the "
                f"run asks for q = {cfg.q}, split ({cfg.k}, {cfg.l})"
            )
        if not len(s):
            raise ValueError(f"loaded set {name} holds no points")
    field = make_field(cfg.q)
    start = time.perf_counter()
    if cfg.suite == "lemmas":
        checks, table = _lemmas_checks(cfg, field)
    elif cfg.suite == "coverage":
        checks, table = _coverage_checks(cfg, field, sets)
    elif cfg.suite == "energy":
        checks, table = _energy_checks(cfg, field, sets)
    else:
        checks, table = _sharpness_checks(cfg, field)
    duration_ms = int((time.perf_counter() - start) * 1000)
    return RunReport(cfg.suite, asdict(cfg), checks, duration_ms, table)
