"""The mutation register still applies to the current source: every
registered edit names existing test files and finds its ``old`` text
exactly once. Running the mutants themselves is ``python tests/mutants.py``."""

import pytest

from mutants import MUTANTS, ROOT, occurrences


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_every_mutant_applies_once(mutant):
    assert occurrences(mutant) == 1
    assert mutant.old != mutant.new
    assert mutant.tests and all((ROOT / path).is_file() for path in mutant.tests)
