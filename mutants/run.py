"""Run the mutant catalogue: every mutant must make one of its named tests fail.

    python mutants/run.py   # every entry of mutants/catalogue.py

For each entry, src/ is copied to a temporary directory and the entry's one
line is replaced there.  Its tests then run from the repo root with
PYTHONPATH at the copy and one BLAS thread.  A mutant is killed when pytest
reports a failed test (exit 1); any other exit, a pass included, leaves it
alive.  First the named tests must pass on an unmutated copy that is the
fqdist they import.  Two mutants run at a time.  Exits 1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from catalogue import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "fqdist")


def _environment(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _copy_source(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=_environment(src), capture_output=True, text=True,
    )


def _check_unmutated(mutants) -> None:
    """Refuse to run unless the copy is what the tests import and its tests pass unmutated.

    Otherwise a test that fails anyway, or imports another fqdist, would count as a kill.
    """
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_source(Path(tmp))
        found = subprocess.run(
            [sys.executable, "-c", "import fqdist; print(fqdist.__file__)"],
            cwd=ROOT, env=_environment(src), capture_output=True, text=True,
        ).stdout.strip()
        if not found.startswith(str(src)):
            sys.exit(f"fqdist imports from {found!r}, not from the copy under {src}")
        proc = _pytest(src, sorted({test for m in mutants for test in m.tests}))
        if proc.returncode != 0:
            sys.exit(f"the named tests fail without a mutant:\n{proc.stdout[-2000:]}")


def run_mutant(mutant) -> str | None:
    """None when the entry's mutant is killed, else why it is not."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_source(Path(tmp))
        path = src.parent / PACKAGE / mutant.module
        lines = path.read_text().split("\n")
        if lines.count(mutant.old) != 1:
            return f"the line occurs {lines.count(mutant.old)} times in {mutant.module}"
        lines[lines.index(mutant.old)] = mutant.new
        path.write_text("\n".join(lines))
        proc = _pytest(src, mutant.tests)
    if proc.returncode == 1:
        return None
    tail = proc.stdout.strip().splitlines()[-1:] or proc.stderr.strip().splitlines()[-1:]
    return f"pytest exit {proc.returncode}: {' '.join(tail)}"


def _timed(mutant) -> tuple[str | None, float]:
    began = time.perf_counter()
    return run_mutant(mutant), time.perf_counter() - began


def main() -> int:
    start = time.perf_counter()
    _check_unmutated(MUTANTS)
    survivors = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for mutant, (alive, seconds) in zip(MUTANTS, pool.map(_timed, MUTANTS)):
            print(f"{'ALIVE' if alive else 'killed':7} {mutant.name:38} "
                  f"{seconds:5.1f} s  {alive or ''}".rstrip(), flush=True)
            if alive:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
