"""The mutation harness `tests/mutants.py` stays runnable: every seeded
mutant still names text that occurs once in the source and test files that
exist, and one cheap mutant, run end to end, is killed. The full set runs
outside the suite, with `python3 tests/mutants.py`."""

import mutants


def test_every_mutant_names_text_found_once_and_existing_tests():
    for name, mutant in mutants.MUTANTS.items():
        text = (mutants.ROOT / "src" / mutant.path).read_text()
        assert text.count(mutant.old) == 1, name
        assert (mutants.ROOT / mutant.tests[0]).is_file(), name


def test_the_cheap_mutant_is_killed():
    assert mutants.run(mutants.CHEAP) == "killed"
