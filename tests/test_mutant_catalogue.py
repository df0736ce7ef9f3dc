"""The mutant catalogue stays applicable: each line it mutates is still in src/.

mutants/run.py, outside this suite, applies the mutants and runs their tests.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
catalogue = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(catalogue)


def test_mutant_names_are_unique():
    names = [m.name for m in catalogue.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", catalogue.MUTANTS, ids=lambda m: m.name)
def test_mutant_line_occurs_once(mutant):
    lines = (ROOT / "src" / "fqdist" / mutant.module).read_text().split("\n")
    assert lines.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", catalogue.MUTANTS, ids=lambda m: m.name)
def test_mutant_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = re.fullmatch(r"(tests/test_\w+\.py)::(test_\w+)(\[[\w.-]+\])?",
                                  node).group(1, 2)
        assert path != "tests/test_benchmark_references.py"  # its child imports the checkout's src
        assert f"\ndef {name}(" in (ROOT / path).read_text()
