"""Every mutant in tests/mutants.py still applies to src, and names real tests.

The mutation run itself (python tests/mutants.py) is too slow for this
suite; this check only keeps its list from rotting as the code moves.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_snippet_occurs_exactly_once(mutant):
    source = (ROOT / "src" / "qkdsim" / mutant.module).read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_existing_tests(mutant):
    for node in mutant.tests:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[.*\])?", node).groups()
        assert f"\ndef {name}(" in Path(ROOT / path).read_text(), node
