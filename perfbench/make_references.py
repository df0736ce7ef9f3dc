"""Write the reference reports that run.py compares each report against.

Usage, from the root of a checkout: python3 perfbench/make_references.py SEED...

Each workload runs once per seed through the same child process as the
benchmark; a report is kept only if the CLI exited 0 with every check passed.
References belong to one commit: regenerate them only when a change is meant
to alter report contents, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main(seeds: list[int]) -> None:
    run.REFERENCES.mkdir(exist_ok=True)
    env = run.child_env()
    for name in run.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
                workdir = Path(tmp)
                record = run.invoke(run.cli_arguments(name, seed, workdir), "plain", workdir, env)
            report = record["report"]
            if record["returncode"] != 0 or not report or not report["all_pass"]:
                sys.exit(f"{name} seed {seed}: exit {record['returncode']}, not a reference\n"
                         f"{record['stderr']}")
            for key in ("e_file", "f_file"):  # temporary paths; the comparator skips them
                if report["config"].get(key):
                    report["config"][key] = Path(report["config"][key]).name
            path = run.REFERENCES / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
            print(f"{path.name}: {len(report['checks'])} checks")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
