"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fresh_reference_factors():
    # the reference's factorizations are cached per process: a module that
    # patches numpy.linalg or reference internals must factorize afresh, and
    # leave no entry behind that was measured under its patch
    from ffode import reference
    reference._FACTORS.clear()
    reference._gauss_rule.cache_clear()
    yield
    reference._FACTORS.clear()
    reference._gauss_rule.cache_clear()
