"""Independent numerical checks: dense Hessian, eigh spectrum, finite
differences, and the exact gradient flow from a balanced start.

Nothing in here knows about closed-form spectra or the flow integrator.  It
owns the tangent coordinates: ``flatten_tangent``, ``action_matrix`` and the
dense Hessian (the Hessian action on stacked blocks of unit tangents) share
them, so any closed-form claim elsewhere in the package can be validated
against plain ``numpy.linalg.eigh`` on that matrix.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import _hessian_action, gradient, second_derivative
from .errors import InvalidInput, NumericalFailure, TooLarge
# inertia_from_values lives in the model, which the closed forms may import.
from .model import (FactorPair, TangentPair, check_pair, check_seed, evaluate_J,
                    inertia_from_values, inner)

MAX_DENSE_DIM = 5000
# fd_validate's random directions, and the steps of its central
# differences: first, then second order.
FD_TRIALS = 5
FD_STEP_GRADIENT = 1e-5
FD_STEP_SECOND = 1e-4
# Bytes that one intermediate of a block of unit tangents in dense_hessian may
# take: per column none is larger than max(m, k) x max(n, k) (W H is m x n).
_BLOCK_BYTES = 1 << 20
# balanced_flow_exact: the largest sigma_1 * t it evaluates, and the
# imbalance ||W^T W - S S^T||_F / ||(W, S)||^2 it accepts as balanced.
EXACT_FLOW_MAX_SIGMA_T = 8.0
EXACT_FLOW_BALANCE_TOL = 1e-10


def flatten_tangent(d):
    """Coordinates of (G, H): G column-major first, then H column-major."""
    return np.concatenate([d.G.flatten(order="F"), d.H.flatten(order="F")])


def unflatten_tangent(v, m, n, k):
    G = v[: m * k].reshape((m, k), order="F")
    H = v[m * k:].reshape((k, n), order="F")
    return TangentPair(G=G, H=H)


def action_matrix(g, m, n):
    """Dense matrix of L_A on tangents in flatten_tangent's coordinates.

    Useful for realizing Hessian congruence explicitly:
    dense(L_A p) = M^T dense(p) M with M = action_matrix(g.inverse(), m, n).
    """
    k = g.k
    M = np.zeros((k * (m + n), k * (m + n)))
    M[: m * k, : m * k] = np.kron(g.A.T, np.eye(m))
    M[m * k:, m * k:] = np.kron(np.eye(n), g.A_inv)
    return M


@dataclass(frozen=True)
class DenseHessian:
    """Symmetrized dense Hessian in the frozen tangent coordinates.

    ``asymmetry`` is the Frobenius norm of the skew part of the raw
    assembled matrix before averaging; for a correct Hessian action it
    sits at rounding level.
    """

    matrix: np.ndarray
    asymmetry: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def dense_hessian(X, p):
    """The DenseHessian at p; raises NumericalFailure when the assembled
    matrix is not finite, as far out on an orbit, where it overflows."""
    check_pair(X, p)
    m, n, k = X.m, X.n, p.k
    N = k * (m + n)
    if N > MAX_DENSE_DIM:
        raise TooLarge(f"dense Hessian would be {N} x {N} (limit {MAX_DENSE_DIM})")
    W, S = p.W, p.S
    mk = m * k
    # Each column of a block holds one unit entry, so every entry of every
    # term of the action is a single product: the matrix is the same, bit
    # for bit, as one built column by column.
    b = max(1, _BLOCK_BYTES // (8 * max(m, k) * max(n, k)))
    A = np.empty((N, N))
    with np.errstate(over="ignore", invalid="ignore"):
        E = W @ S - X.X
        for c0 in range(0, N, b):
            nb = min(b, N - c0)
            # The unit tangents of columns c0 .. c0 + nb - 1: the first ng set
            # an entry of G, the rest an entry of H, both in column-major order.
            ng = min(nb, max(0, mk - c0))
            G = np.zeros((nb, m, k))
            H = np.zeros((nb, k, n))
            c = np.arange(c0, c0 + ng)
            G[np.arange(ng), c % m, c // m] = 1.0
            c = np.arange(c0 + ng, c0 + nb) - mk
            H[np.arange(ng, nb), c % k, c // k] = 1.0
            out_G, out_H = _hessian_action(W, S, E, G, H)
            A[:mk, c0:c0 + nb] = np.swapaxes(out_G, 1, 2).reshape(nb, mk).T
            A[mk:, c0:c0 + nb] = np.swapaxes(out_H, 1, 2).reshape(nb, k * n).T
        # Non-finite whenever A is: an inf or nan entry meets its transpose.
        asym = float(np.linalg.norm(A - A.T))
    if not np.isfinite(asym):
        raise NumericalFailure(f"dense Hessian has non-finite entries (asymmetry {asym})")
    sym = A + A.T
    sym *= 0.5
    return DenseHessian(matrix=sym, asymmetry=asym)


def numeric_spectrum(X, p):
    """Eigen-decomposition of the dense Hessian, eigenvalues ascending."""
    return np.linalg.eigh(dense_hessian(X, p).matrix)


@dataclass(frozen=True)
class FDReport:
    max_gradient_rel_err: float
    max_second_rel_err: float

    @property
    def ok(self):
        return self.max_gradient_rel_err < 1e-6 and self.max_second_rel_err < 1e-4


def fd_validate(X, p, seed=0):
    """Central-difference check of the gradient and the quadratic form.

    Each of FD_TRIALS trials draws a unit-norm tangent direction d and
    compares (J(p + eps d) - J(p - eps d)) / (2 eps) against <grad J, d>,
    then the symmetric second difference against d2 J[d].  Relative errors
    are taken against the analytic value.  Raises InvalidInput unless seed
    is a nonnegative integer.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    m, n, k = X.m, X.n, p.k
    g = gradient(X, p)
    J0 = evaluate_J(X, p)

    worst_g, worst_h = 0.0, 0.0
    for _ in range(FD_TRIALS):
        G = rng.standard_normal((m, k))
        H = rng.standard_normal((k, n))
        nrm = np.sqrt(np.sum(G * G) + np.sum(H * H))
        d = TangentPair(G=G / nrm, H=H / nrm)

        def J_at(t):
            return evaluate_J(X, FactorPair(W=p.W + t * d.G, S=p.S + t * d.H))

        eps = FD_STEP_GRADIENT
        fd1 = (J_at(eps) - J_at(-eps)) / (2 * eps)
        an1 = inner(g, d)
        worst_g = max(worst_g, abs(fd1 - an1) / max(abs(an1), 1e-12))

        t = FD_STEP_SECOND
        fd2 = (J_at(t) - 2 * J0 + J_at(-t)) / (t * t)
        an2 = second_derivative(X, p, d)
        worst_h = max(worst_h, abs(fd2 - an2) / max(abs(an2), 1e-12))

    return FDReport(
        max_gradient_rel_err=float(worst_g),
        max_second_rel_err=float(worst_h),
    )


def balanced_flow_exact(X, p0, t):
    """R(t) = Z Z^T, Z = [W; S^T], of the gradient flow at time t from a
    balanced start p0 (W^T W = S S^T), as an (m + n) x (m + n) matrix.

    On the balanced set R obeys the Riccati equation R' = G R + R G - R^2
    with G = [[0, X], [X^T, 0]], so R(t) = Y K^-1 Y^T with Y = e^{G t} Z0 and
    K = I + Z0^T (int_0^t e^{2 G s} ds) Z0.  Both are evaluated in G's
    eigenbasis, built from an SVD of X taken here: +-sigma_i on
    (u_i, +-v_i) / sqrt(2) and 0 on the kernel (0, v_j), j > m (X is stored
    with m <= n).  The top-right m x n block of R is W S.

    K's condition number grows like exp(2 sigma_1 t), so this naive
    evaluation refuses sigma_1 * t > EXACT_FLOW_MAX_SIGMA_T with
    InvalidInput, as it does a negative or non-finite t and an unbalanced
    p0.
    """
    check_pair(X, p0)
    t = float(t)
    if not (np.isfinite(t) and t >= 0):
        raise InvalidInput(f"t must be nonnegative and finite, got {t}")
    Z0 = np.vstack([p0.W, p0.S.T])
    imbalance = float(np.linalg.norm(p0.W.T @ p0.W - p0.S @ p0.S.T))
    if imbalance > EXACT_FLOW_BALANCE_TOL * float(np.sum(Z0 * Z0)):
        raise InvalidInput(
            f"start is not balanced: ||W^T W - S S^T||_F = {imbalance:.3e} > "
            f"{EXACT_FLOW_BALANCE_TOL:g} * ||(W, S)||^2"
        )
    m, n = X.m, X.n
    U, s, Vt = np.linalg.svd(X.X)
    sigma_t = float(s[0]) * t
    if sigma_t > EXACT_FLOW_MAX_SIGMA_T:
        raise InvalidInput(
            f"sigma_1 * t = {sigma_t:.3e} > {EXACT_FLOW_MAX_SIGMA_T:g}: "
            "K is too ill-conditioned for the exact flow"
        )
    V = Vt.T
    Q = np.zeros((m + n, m + n))
    Q[:m, :m] = Q[:m, m:2 * m] = U / np.sqrt(2.0)
    Q[m:, :m] = V[:, :m] / np.sqrt(2.0)
    Q[m:, m:2 * m] = -Q[m:, :m]
    Q[m:, 2 * m:] = V[:, m:]
    gamma = np.concatenate([s, -s, np.zeros(n - m)])
    Zq = Q.T @ Z0
    Y = Q @ (np.exp(gamma * t)[:, None] * Zq)
    # int_0^t e^{2 gamma s} ds, which is t where gamma = 0
    two_g = 2.0 * gamma
    safe = np.where(two_g == 0.0, 1.0, two_g)
    phi = np.where(two_g == 0.0, t, np.expm1(two_g * t) / safe)
    K = np.eye(p0.k) + Zq.T @ (phi[:, None] * Zq)
    return Y @ np.linalg.solve(K, Y.T)
