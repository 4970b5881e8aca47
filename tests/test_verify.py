"""The verify battery passes on tied, rank-deficient, tall and square X, not
only on the default 4 x 6 Gaussian one."""

import numpy as np
import pytest

from mfland import load_data_matrix
from mfland.verify import check_scaling_trichotomy, run_all


def _matrix(kind, seed):
    """A 4 x 6 X (6 x 4 when tall, 4 x 4 when square) with random singular
    vectors and singular values drawn from [0.3, 3]; tied has sigma_1 = sigma_2
    and sigma_3 = sigma_4, rank-deficient has sigma_3 = sigma_4 = 0."""
    rng = np.random.default_rng(seed)
    m, n = {"tall": (6, 4), "square": (4, 4)}.get(kind, (4, 6))
    r = min(m, n)
    sigma = np.sort(rng.uniform(0.3, 3.0, r))[::-1]
    if kind == "tied":
        sigma[1], sigma[3] = sigma[0], sigma[2]
    elif kind == "rank-deficient":
        sigma[2:] = 0.0
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U[:, :r] * sigma) @ V[:, :r].T


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["generic", "tied", "rank-deficient", "tall", "square"])
def test_run_all_passes(kind, seed):
    X = load_data_matrix(_matrix(kind, seed))
    failed = [c for c in run_all(X, seed=seed) if not c["passed"]]
    assert not failed


def test_scaling_check_reads_lambda_min_past_its_peak():
    """At q = k = 1, |lambda_min| rises with the scale a up to a = sqrt(lambda)
    and falls after it.  With lambda = 2.5 the peak lies beyond a = 1, so the
    monotone run starts at sqrt(sigma_1), which is never before the peak."""
    X = load_data_matrix(np.diag([3.0, 2.5]) @ np.eye(2, 3))
    passed, detail = check_scaling_trichotomy(X, seed=0)
    assert passed, detail
