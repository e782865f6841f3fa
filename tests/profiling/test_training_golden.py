"""Training profiles match the golden file, on a stratified subset.

The golden file holds every training and Fig. 6 profile of the suite
(see ``training_golden.py``; CI checks all of them).  This subset covers
each profiling path once: coverage only, a dependence replay that never
reaches 8 samples, dependence samples plus an external-call window, an
internal-call window at -O2, the pow windows of an icc build, packed
(-mavx) accesses, dependence samples beside call windows in an icc
build, and the longest training run (superblocks form in it).
"""

import pytest

from tests.profiling.training_golden import case_key, compute, diff, \
    load_golden

SUBSET = (
    ("400.perlbench", "default"),
    ("454.calculix", "default"),
    ("445.gobmk", "default"),
    ("433.milc", "gcc-O2"),
    ("410.bwaves", "icc-O3"),
    ("470.lbm", "gcc-O3-mavx"),
    ("437.leslie3d", "icc-O3"),
    ("459.GemsFDTD", "default"),
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("name,label", SUBSET)
def test_profiles_match_golden(golden, name, label):
    problems = diff(golden[case_key(name, label)], compute(name, label))
    assert not problems, "\n".join(problems)
