"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(autouse=True)
def fresh_memos():
    # the library's caches (each a ``memo.Memo``) are per process: a test that
    # patches numpy.linalg, a stencil, a spectrum or a probe must measure
    # afresh, and leave no entry behind that was measured under its patch
    from ffode import pde, reference
    memos = (pde._MEMO, reference._FACTORS)
    for memo in memos:
        memo.clear()
    yield
    for memo in memos:
        memo.clear()
