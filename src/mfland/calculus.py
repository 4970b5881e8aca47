"""First and second derivatives of J(W, S) = 0.5 * ||X - W S||_F^2.

With E = W S - X:

    grad J = (E S^T, W^T E)
    hess J applied to (G, H) = (G S S^T + W H S^T + E H^T,
                                W^T W H + W^T G S + G^T E)
    d2 J[(G, H)] = ||G S||^2 + ||W H||^2 + 2 tr(H^T W^T G S) + 2 tr(H^T G^T E)

The quadratic form is the one realized by the Hessian action; both are kept
because closed-form spectra are checked against each independently.
"""

import numpy as np

from .errors import DimensionError
from .model import TangentPair, residual


def gradient(X, p):
    E = residual(X, p)
    return TangentPair(G=E @ p.S.T, H=p.W.T @ E)


def _check_tangent(p, d):
    if d.G.shape != p.W.shape or d.H.shape != p.S.shape:
        raise DimensionError(
            f"tangent shapes {d.G.shape} x {d.H.shape} do not match the "
            f"point {p.W.shape} x {p.S.shape}"
        )


def hessian_apply(X, p, d):
    """Apply the Hessian of J at p to the tangent pair d."""
    E = residual(X, p)
    _check_tangent(p, d)
    W, S, G, H = p.W, p.S, d.G, d.H
    return TangentPair(G=G @ (S @ S.T) + W @ H @ S.T + E @ H.T,
                       H=(W.T @ W) @ H + W.T @ G @ S + G.T @ E)


def second_derivative(X, p, d):
    """Quadratic form d^T (hess J) d, evaluated without forming the Hessian."""
    E = residual(X, p)
    _check_tangent(p, d)
    W, S = p.W, p.S
    G, H = d.G, d.H
    GS = G @ S
    WH = W @ H
    val = np.sum(GS * GS) + np.sum(WH * WH)
    val += 2.0 * np.sum(WH * GS)  # tr(H^T W^T G S)
    val += 2.0 * np.sum((G.T @ E) * H)  # tr(H^T G^T E)
    return float(val)


def gradient_norm(X, p):
    g = gradient(X, p)
    return g.norm()
