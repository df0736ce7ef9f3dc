"""Command-line entry point: run a suite, emit a JSON report, exit by result.

Exit codes: 0 when every check passed, 1 when any check failed, 2 on usage or
configuration errors.  The JSON report always goes to stdout; --out writes it
(or a CSV artifact, with --format csv) to a file as well.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .errors import SizeGuardError
from .experiments import GENERATORS, SUITES, ExperimentConfig, RunReport, run_suite
from .pair_spectrum import SplitPointSet, load_split_point_set, write_spectrum_csv
from .rotation_energy import write_circle_energy_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqdist",
        description=(
            "Empirical checks of pair-distance counting over prime fields: "
            "run a named suite of certificates and print a JSON report."
        ),
    )
    parser.add_argument("--q", type=int, required=True,
                        help="prime field size (many checks need q = 3 mod 4)")
    parser.add_argument("--k", type=int, default=2,
                        help="dimension of the first block (default 2)")
    parser.add_argument("--l", type=int, default=2,
                        help="dimension of the second block (default 2)")
    parser.add_argument("--suite", choices=SUITES, default="lemmas",
                        help="which suite of checks to run (default lemmas)")
    parser.add_argument("--generator", choices=GENERATORS, default="bernoulli",
                        help="how seeded instances draw their sets (default bernoulli)")
    parser.add_argument("--density", type=float, default=None,
                        help="fixed inclusion probability; omit to draw one per instance")
    parser.add_argument("--strip-len", type=int, default=None,
                        help="axis-strip length for strip constructions (default: scan 1..q)")
    parser.add_argument("--budget", type=int, default=2000,
                        help="candidate budget for the missing-distance search (default 2000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; every instance derives from (seed, purpose, index)")
    parser.add_argument("--constant-c", type=float, default=10.0,
                        help="constant in the three-way coverage lower bound (default 10)")
    parser.add_argument("--instances", type=int, default=20,
                        help="seeded instances per randomized check (default 20)")
    parser.add_argument("--oracle-instances", type=int, default=20,
                        help="instances for the route-agreement checks (default 20)")
    parser.add_argument("--e-file", type=str, default=None,
                        help="load E from a point-set file instead of generating it")
    parser.add_argument("--f-file", type=str, default=None,
                        help="load F from a point-set file (defaults to the E file)")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report (or CSV artifact) to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="what --out receives: the JSON report or a CSV artifact")
    return parser


def _load_sets(args) -> tuple[SplitPointSet | None, SplitPointSet | None]:
    if args.e_file is None:
        if args.f_file is not None:
            raise ValueError("--f-file requires --e-file")
        return None, None
    e = load_split_point_set(args.e_file, args.k, args.l)
    f = load_split_point_set(args.f_file, args.k, args.l) if args.f_file else None
    return e, f


def _write_csv_artifact(path: str, report: RunReport) -> None:
    suite = report.suite
    if suite == "lemmas":
        reports = report.artifacts.get("circle_energy_reports", [])
        if not reports:
            raise ValueError("no circle-energy rows to export (needs q = 3 mod 4)")
        write_circle_energy_csv(path, reports)
        return
    if suite in ("coverage", "energy"):
        spectrum = report.artifacts.get("spectrum")
        if spectrum is None:
            raise ValueError("no spectrum artifact to export")
        write_spectrum_csv(path, spectrum)
        return
    rows = report.artifacts.get("sharpness_rows", [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["construction", "parameter", "set_size", "coverage"])
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig(
            q=args.q, k=args.k, l=args.l, suite=args.suite,
            generator=args.generator, density=args.density,
            strip_len=args.strip_len, budget=args.budget, seed=args.seed,
            constant_c=args.constant_c, instances=args.instances,
            oracle_instances=args.oracle_instances,
        )
        e_set, f_set = _load_sets(args)
        if e_set is not None and args.suite not in ("coverage", "energy"):
            raise ValueError(f"suite {args.suite!r} does not accept loaded sets")
        if args.format == "csv" and args.out is None:
            raise ValueError("--format csv requires --out")
        report = run_suite(cfg, e_set, f_set)
    except (ValueError, SizeGuardError, OSError) as exc:
        parser.exit(2, f"fqdist: error: {exc}\n")
    if e_set is not None:
        report.config["e_file"] = args.e_file
        report.config["f_file"] = args.f_file
    text = report.to_json_text()
    sys.stdout.write(text)
    if args.out is not None:
        try:
            if args.format == "csv":
                _write_csv_artifact(args.out, report)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
        except (ValueError, OSError) as exc:
            parser.exit(2, f"fqdist: error: {exc}\n")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
