"""Small data matrices of every kind the package must handle, shared by the
hypothesis tests of the flow and of the dense oracle."""

import numpy as np

KINDS = ["tied", "rank-deficient", "tall", "square", "generic"]


def haar(rng, n):
    """A Haar-random n x n orthogonal matrix drawn from rng."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def matrix_of_kind(kind, rng):
    """A raw X of the given kind drawn from rng: tied singular values (2, 2,
    1, 1), rank 2, tall 6 x 3, square 4 x 4, or a generic 4 x 6."""
    if kind == "tied":
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((5, 4)))
        return (U * [2.0, 2.0, 1.0, 1.0]) @ V.T
    if kind == "rank-deficient":
        return rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
    if kind == "tall":
        return rng.standard_normal((6, 3))
    if kind == "square":
        return rng.standard_normal((4, 4))
    return rng.standard_normal((4, 6))
