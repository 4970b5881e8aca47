"""The verify battery passes on every kind of X in matrix_kinds, not only on
the default 4 x 6 Gaussian one."""

import numpy as np
import pytest

from mfland import load_data_matrix
from mfland.verify import check_scaling_trichotomy, run_all
from matrix_kinds import KINDS, matrix_of_kind


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", KINDS)
def test_run_all_passes(kind, seed):
    X = load_data_matrix(matrix_of_kind(kind, np.random.default_rng(seed)))
    failed = [c for c in run_all(X, seed=seed) if not c["passed"]]
    assert not failed


def test_scaling_check_reads_lambda_min_past_its_peak():
    """At q = k = 1, |lambda_min| rises with the scale a up to a = sqrt(lambda)
    and falls after it.  With lambda = 2.5 the peak lies beyond a = 1, so the
    monotone run starts at sqrt(sigma_1), which is never before the peak."""
    X = load_data_matrix(np.diag([3.0, 2.5]) @ np.eye(2, 3))
    passed, detail = check_scaling_trichotomy(X, seed=0)
    assert passed, detail
