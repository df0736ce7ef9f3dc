"""Command-line entry point: run a suite, emit a JSON report, exit by result.

Exit codes: 0 when every check passed, 1 when any check failed, 2 on usage or
configuration errors.  The JSON report goes to stdout unless the run exits 2;
--out writes it (or, with --format csv, the run's one table) to a file as well.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

from .errors import SizeGuardError
from .experiments import (
    GENERATORS,
    SET_KNOBS,
    SUITES,
    ExperimentConfig,
    knobs_read,
    run_suite,
)
from .pair_spectrum import SplitPointSet, load_split_point_set


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
    defaults = ExperimentConfig
    parser.add_argument("--k", type=int, default=defaults.k,
                        help="dimension of the first block (default %(default)s)")
    parser.add_argument("--l", type=int, default=defaults.l,
                        help="dimension of the second block (default %(default)s)")
    parser.add_argument("--suite", choices=SUITES, default=defaults.suite,
                        help="which suite of checks to run (default %(default)s)")
    parser.add_argument("--generator", choices=GENERATORS, default=None,
                        help=f"how seeded instances draw their sets (default {defaults.generator})")
    parser.add_argument("--density", type=float, default=None,
                        help="fixed inclusion probability; omit to draw one per instance")
    parser.add_argument("--strip-len", type=int, default=None,
                        help="axis-strip length for strip constructions (default: scan 1..q)")
    parser.add_argument("--budget", type=int, default=None,
                        help="candidate budget for the missing-distance search "
                             f"(default {defaults.budget})")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="master seed; every instance derives from (seed, purpose, index)")
    parser.add_argument("--constant-c", type=float, default=defaults.constant_c,
                        help="constant in the three-way coverage lower bound (default %(default)s)")
    parser.add_argument("--instances", type=int, default=defaults.instances,
                        help="seeded instances per randomized check (default %(default)s)")
    parser.add_argument("--oracle-instances", type=int, default=defaults.oracle_instances,
                        help="instances for the route-agreement checks (default %(default)s)")
    parser.add_argument("--e-file", type=str, default=None,
                        help="load E from a point-set file instead of generating it")
    parser.add_argument("--f-file", type=str, default=None,
                        help="load F from a point-set file (defaults to the E file)")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report (or CSV table) to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="what --out receives: the JSON report or the suite's CSV table")
    return parser


def _knobs(args) -> dict:
    """The set-drawing flags given explicitly; one the run never reads is an error.

    Otherwise the report's config would name, say, a generator that never ran.
    """
    generator = args.generator or ExperimentConfig.generator
    if args.e_file is not None:
        read, where = set(), " on loaded sets"
    else:
        read = knobs_read(args.suite, args.q, args.k, args.l, generator)
        where = {"coverage": f" with --generator {generator}",
                 "sharpness": f" at q = {args.q}, k = {args.k}, l = {args.l}"}.get(args.suite, "")
    knobs = {name: getattr(args, name) for name in SET_KNOBS if getattr(args, name) is not None}
    for name in knobs:
        if name not in read:
            raise ValueError(f"--{name.replace('_', '-')} is never read by the "
                             f"{args.suite} suite{where}")
    return knobs


def _load_sets(args) -> tuple[SplitPointSet, SplitPointSet] | None:
    """The loaded pair (E, F), or None without files; F is E unless --f-file names another file.

    A file with no points is refused: a run over an empty set would certify nothing.
    """
    if args.e_file is None:
        if args.f_file is not None:
            raise ValueError("--f-file requires --e-file")
        return None

    def load(path: str) -> SplitPointSet:
        loaded = load_split_point_set(path, args.k, args.l)
        if not len(loaded):
            raise ValueError(f"{path} holds no points")
        return loaded

    e = load(args.e_file)
    if args.f_file is None or os.path.samefile(args.f_file, args.e_file):
        return e, e
    return e, load(args.f_file)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # q, k and l are validated before _knobs reads them to name an unread flag.
        cfg = replace(ExperimentConfig(
            q=args.q, k=args.k, l=args.l, suite=args.suite, seed=args.seed,
            constant_c=args.constant_c, instances=args.instances,
            oracle_instances=args.oracle_instances,
        ), **_knobs(args))
        sets = _load_sets(args)
        if args.format == "csv" and args.out is None:
            raise ValueError("--format csv requires --out")
        report = run_suite(cfg, sets)
    except (ValueError, SizeGuardError, OSError) as exc:
        parser.exit(2, f"fqdist: error: {exc}\n")
    if sets is not None:
        report.config["e_file"] = args.e_file
        report.config["f_file"] = args.f_file
    text = report.to_json_text()
    # A request that exits 2 prints nothing, so --out is written before stdout.
    if args.out is not None:
        try:
            if args.format == "csv":
                if not report.table:
                    raise ValueError(f"this {args.suite} run has no CSV table to export")
                with open(args.out, "w", newline="") as fh:
                    csv.writer(fh).writerows(report.table)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
        except (ValueError, OSError) as exc:
            parser.exit(2, f"fqdist: error: {exc}\n")
    sys.stdout.write(text)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
