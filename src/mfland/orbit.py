"""The GL(k) orbit action L_A(W, S) = (W A, A^{-1} S) and its invariants.

J is constant along orbits, so the action transports critical points to
critical points; the composition law is L_A(L_B(p)) = L_{BA}(p).  As an
operator on tangent pairs L_A has norm max(s_max(A), 1/s_min(A)) >= 1,
with equality exactly for orthogonal A.  The Hessians at p and L_A(p) are
congruent, so (Sylvester) an orbit has the inertia of its canonical point,
whose zeros are zero by formula (``spectrum``), and the minimum eigenvalue obeys

    lambda_min(L_A p) <= lambda_min(p) / ||L_A||^2

for saddle points: negative curvature flattens as points are pushed far out
along their orbit.  L_A's matrix on tangents is ``oracle.action_matrix``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvalidSelection, SingularGroupElement
from .model import _as_matrix, _freeze, check_nullity, inertia_at_nullity


@dataclass(frozen=True)
class GroupElement:
    """An invertible k x k matrix with its inverse cached at construction."""

    A: np.ndarray
    A_inv: np.ndarray

    @classmethod
    def from_matrix(cls, A):
        try:
            A = _as_matrix(A, "group element")
        except InvalidInput as exc:
            raise SingularGroupElement(str(exc)) from None
        if A.shape[0] != A.shape[1]:
            raise SingularGroupElement(f"group elements are square, got {A.shape}")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > 1e14:
            raise SingularGroupElement(
                f"matrix is singular to working precision (cond ~ "
                f"{np.inf if sv[-1] == 0 else sv[0] / sv[-1]:.2e})"
            )
        A_inv = np.linalg.solve(A, np.eye(A.shape[0]))
        g = cls(A=_freeze(A.copy()), A_inv=_freeze(A_inv))
        object.__setattr__(g, "_sv", sv)  # seeds the cached _sv: the same SVD of the same A
        cond = sv[0] / sv[-1]
        err = np.linalg.norm(A @ A_inv - np.eye(A.shape[0]))
        if err > 1e-10 * cond:
            raise SingularGroupElement(
                f"inversion residual {err:.2e} exceeds 1e-10 * cond = {1e-10 * cond:.2e}"
            )
        return g

    @classmethod
    def identity(cls, k):
        return cls(A=_freeze(np.eye(k)), A_inv=_freeze(np.eye(k)))

    @property
    def k(self):
        return self.A.shape[0]

    def inverse(self):
        return GroupElement(A=self.A_inv, A_inv=self.A)

    @cached_property
    def _sv(self):
        """Singular values of A, computed once per element."""
        return np.linalg.svd(self.A, compute_uv=False)

    def cond(self):
        return float(self._sv[0] / self._sv[-1])


def apply_group_action(p, g):
    """L_A(W, S) = (W A, A^{-1} S), a pair of the type of p: on a tangent
    pair (G, H) it is the differential of the action, the same formula."""
    if p.k != g.k:
        raise InvalidInput(f"group element is {g.k} x {g.k} but the pair has k = {p.k}")
    first, second = p._factors
    return type(p)(first @ g.A, g.A_inv @ second)


def push_gradient(d, g):
    """Gradient transport: grad J(L_A p) = (G A^{-T}, A^T H) for (G, H) = grad J(p)."""
    return apply_group_action(d, GroupElement(A=g.A_inv.T, A_inv=g.A.T))


def induced_norm(g):
    """Operator norm of L_A on tangent pairs: max(s_max(A), 1/s_min(A))."""
    return float(max(g._sv[0], 1.0 / g._sv[-1]))


def transported_lambda_min_bound(lambda_min_at_p, g):
    """Upper bound lambda_min(p) / ||L_A||^2 for the transported saddle."""
    nrm = induced_norm(g)
    return float(lambda_min_at_p) / (nrm * nrm)


def balance_residual(p):
    """|| W^T W - S S^T ||_F, the size of the quantity gradient flow
    conserves; a zero value places p in the balanced set."""
    return float(np.linalg.norm(p.W.T @ p.W - p.S @ p.S.T))


def inertia_of(X, p, *, nullity=None):
    """Inertia (n_pos, n_neg, n_zero) of the Hessian at p, counted on
    ``oracle.equilibrated_values``, which have the Hessian's inertia
    without its grading.

    With nullity z, known from structure, the z smallest |values| are the
    zeros and the rest count by sign (``model.inertia_at_nullity``); z must
    pass ``model.check_nullity`` for N = k(m + n), checked before any block
    is built.  With none, the values with |value| <= 1e-12 times the largest
    |value|, a floor free of units, are the zeros, counted as that nullity."""
    from .oracle import equilibrated_values

    if nullity is not None:
        check_nullity(nullity, p.k * (X.m + X.n))
    vals = equilibrated_values(X, p)
    if nullity is None:
        nullity = int(np.count_nonzero(np.abs(vals) <= 1e-12 * float(np.abs(vals).max())))
    return inertia_at_nullity(vals, nullity)


def intersect_M0(cp):
    """Group element carrying a canonical point into the balanced set M_0.

    One exists exactly when every selected singular value is positive and C0
    vanishes (``CanonicalPoint.balanced_scales``; the origin is balanced, with
    A = I); then A = blockdiag(sqrt(diag(lambda)), I) gives W^T W - S S^T = 0
    at L_A(p).  Returns None when the orbit misses M_0.
    """
    try:
        root = cp.balanced_scales()
    except InvalidSelection:
        return None
    A = np.diag(np.concatenate([root, np.ones(cp.k - cp.q)]))
    return GroupElement.from_matrix(A)
