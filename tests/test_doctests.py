"""Run the public facade's docstring examples as part of tier-1.

CI additionally runs ``pytest --doctest-modules`` over the same modules;
this test keeps the examples honest for anyone running plain ``pytest``.
"""

import doctest

import pytest

import repro.core.pipeline
import repro.core.session
import repro.purexml.engine
import repro.relational.btree
import repro.relational.engine
import repro.relational.optimizer.planner

FACADE_MODULES = [
    repro.core.pipeline,
    repro.core.session,
    repro.relational.engine,
    repro.relational.btree,
    repro.relational.optimizer.planner,
    repro.purexml.engine,
]


@pytest.mark.parametrize("module", FACADE_MODULES, ids=lambda m: m.__name__)
def test_facade_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no runnable examples"
    assert results.failed == 0
