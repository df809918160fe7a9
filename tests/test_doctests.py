"""Run the public facade's docstring examples as part of tier-1.

CI additionally runs ``pytest --doctest-modules`` over the same modules;
this test keeps the examples honest for anyone running plain ``pytest``.
"""

import doctest

import pytest

import repro.algebra.columnar
import repro.algebra.predicates
import repro.core.joingraph
import repro.core.pipeline
import repro.core.properties
import repro.core.session
import repro.core.sqlgen
import repro.core.stages
import repro.purexml.engine
import repro.relational.btree
import repro.relational.catalog
import repro.relational.engine
import repro.relational.optimizer.planner
import repro.relational.physical.operators
import repro.service.service
import repro.sqlbackend.backend

FACADE_MODULES = [
    repro.algebra.columnar,
    repro.algebra.predicates,
    repro.core.joingraph,
    repro.core.pipeline,
    repro.core.properties,
    repro.core.session,
    repro.core.sqlgen,
    repro.core.stages,
    repro.relational.engine,
    repro.relational.btree,
    repro.relational.catalog,
    repro.relational.optimizer.planner,
    repro.relational.physical.operators,
    repro.purexml.engine,
    repro.sqlbackend.backend,
    repro.service.service,
]


@pytest.mark.parametrize("module", FACADE_MODULES, ids=lambda m: m.__name__)
def test_facade_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no runnable examples"
    assert results.failed == 0
