"""The one home of the test inputs: the two worked matrices, Gaussian X,
small data matrices of every kind the package must handle, and X of a fixed
spectrum in Haar-random frames; and the closed-form inertia of a canonical
point, which every oracle count is held to."""

import numpy as np

from mfland import CanonicalPoint, Selection, canonical_spectrum, load_data_matrix

X21 = load_data_matrix(np.diag([2.0, 1.0]) @ np.eye(2, 3))
X321 = load_data_matrix(np.diag([3.0, 2.0, 1.0]) @ np.eye(3, 4))

KINDS = ["tied", "rank-deficient", "tall", "square", "generic"]


def gaussian(seed, m=3, n=5):
    """An m x n X of standard normal entries drawn from default_rng(seed)."""
    return load_data_matrix(np.random.default_rng(seed).standard_normal((m, n)))


def haar(rng, n):
    """A Haar-random n x n orthogonal matrix drawn from rng."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def fixed_spectrum(rng, m, n, sigma):
    """U diag(sigma) V^T with Haar-random U and V."""
    U, V = haar(rng, m), haar(rng, n)
    return (U[:, : sigma.size] * sigma) @ V[:, : sigma.size].T


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


def canonical_inertia(X, sel, k, C0):
    """The closed-form inertia at the scale-1 canonical point of sel, C0."""
    return canonical_spectrum(CanonicalPoint(X, Selection(sel), k, C0))[0].inertia
