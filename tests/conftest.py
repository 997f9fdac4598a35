"""Fixtures shared by the test modules."""
import pytest

from cartanfinsler import curvature, norms, schwarz

# the metric-only invariants, each memoized on its metric or family
MEMOIZED = (curvature.curvature_bounds, curvature._bisectional_sup_matrix,
            curvature._bisectional_sup_lie, norms.certify_scc, norms.certify_sn,
            schwarz._equality_residuals)


def _clear():
    for fn in MEMOIZED:
        fn.cache_clear()


@pytest.fixture
def clear_memos():
    """Empty every memo before the test and after it, and hand the test the
    function that empties them.

    A test that recomputes an invariant under a patch calls it before each
    computation, or the memo serves the result computed without the patch;
    the memos are emptied at teardown, so no result computed under a patch
    outlives the test.
    """
    _clear()
    yield _clear
    _clear()
