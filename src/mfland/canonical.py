"""Critical-point families of the factorization objective.

Every critical point of J lies on the GL(k) orbit of a *canonical point*

    W_c = [ U_sel  0 ],   S_c = [ diag(lambda) V_sel^T ; C0^T V0^T ]

where U_sel/V_sel are singular-vector columns picked by a selection of q
singular values (lambda_j = sigma picked, nonincreasing), and the free block
C0 couples the remaining k - q rows of S to the kernel of X.  The q = 0 case
(W = 0) is the zero family, and rescaling the q = k case by the positive
square roots of lambda gives the balanced points with W^T W = S S^T.

This module builds those representatives, classifies them, and inverts the
parametrization: ``reduce_to_canonical`` maps any critical point back to a
canonical point plus the group element connecting them.  The saddle rule
(``_lambda_min``, with its 2 x 2 evaluator ``_split_pair``) lives here too,
and so does the uniform saddle gap on M_0 that it implies
(``uniform_saddle_bound``, checked against ``balanced_lambda_min_sup``).
"""

import dataclasses
import operator
from dataclasses import dataclass
from itertools import combinations
from numbers import Real

import numpy as np

from .errors import (
    DimensionError,
    InvalidInput,
    InvalidSelection,
    NotASaddle,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
)
from .model import FactorPair, _freeze
from .orbit import GroupElement, apply_group_action

# Tolerance, relative to sigma_1, under which two singular values are treated
# as tied, so that maximality is decided by value rather than by index.
TIE_REL = 1e-9


@dataclass(frozen=True)
class Selection:
    """Strictly increasing 0-based indices into the sorted singular values.

    An empty selection designates the zero family (W = 0).  Indices must be
    Python or NumPy integers; anything else raises InvalidSelection.
    """

    indices: tuple

    def __post_init__(self):
        try:
            idx = tuple(operator.index(i) for i in self.indices)
        except TypeError:
            raise InvalidSelection(
                f"selection indices must be integers, got {self.indices!r}"
            ) from None
        if any(i < 0 for i in idx):
            raise InvalidSelection(f"negative selection index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidSelection(f"selection must be strictly increasing: {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def q(self):
        return len(self.indices)


def _check_k(X, k):
    """InvalidSelection unless k is an integer in [1, min(m, n)]."""
    if not isinstance(k, (int, np.integer)):
        raise InvalidSelection(f"k must be an integer, got {k!r}")
    if k < 1 or k > min(X.m, X.n):
        raise InvalidSelection(f"k = {k} outside [1, min(m, n) = {min(X.m, X.n)}]")


def _check_indices(X, sel):
    """InvalidSelection unless every index of sel is below m."""
    if sel.indices and sel.indices[-1] >= X.m:
        raise InvalidSelection(
            f"selection index {sel.indices[-1]} out of range for m = {X.m}"
        )


def selected_values(X, sel):
    """The lambda vector: selected singular values, nonincreasing.

    Raises InvalidSelection for an index >= m."""
    _check_indices(X, sel)
    return X.sigma[list(sel.indices)] if sel.q else np.zeros(0)


def check_scale(a):
    """Raise InvalidInput unless the orbit scale a is a nonzero finite real."""
    if not (isinstance(a, Real) and a != 0 and np.isfinite(a)):
        raise InvalidInput(f"scale must be a nonzero finite number, got {a!r}")


@dataclass(frozen=True)
class CanonicalPoint:
    """A canonical critical point, stored by its discrete data.

    ``C0`` has shape (n - r) x (k - q); it parametrizes the part of S living
    in the kernel of X under the unused rows of W.  None (the default) means
    the zero block.
    """

    X: object
    selection: Selection
    k: int
    C0: np.ndarray = None

    def __post_init__(self):
        X, sel, k = self.X, self.selection, self.k
        _check_k(X, k)
        if sel.q > min(k, X.m):
            raise InvalidSelection(f"selection has q = {sel.q} > min(k, m) = {min(k, X.m)}")
        _check_indices(X, sel)
        want = (X.n - X.r, k - sel.q)
        C0 = np.zeros(want) if self.C0 is None else np.asarray(self.C0, dtype=float)
        if C0.shape != want:
            raise DimensionError(f"C0 must be {want}, got {C0.shape}")
        if not np.all(np.isfinite(C0)):
            raise InvalidInput("C0 contains non-finite entries")
        object.__setattr__(self, "C0", _freeze(C0))

    @property
    def q(self):
        return self.selection.q

    @property
    def lambdas(self):
        return selected_values(self.X, self.selection)

    def materialize(self, scale=1.0):
        """The factor pair (a W_c, a^-1 S_c) for a nonzero finite scale a."""
        check_scale(scale)
        X, q, k = self.X, self.q, self.k
        W = np.zeros((X.m, k))
        S = np.zeros((k, X.n))
        if q:
            idx = list(self.selection.indices)
            W[:, :q] = X.U[:, idx]
            S[:q, :] = self.lambdas[:, None] * X.V[:, idx].T
        if k > q:
            S[q:, :] = self.C0.T @ X.V0.T
        return FactorPair(W=scale * W, S=S / scale)

    def balanced_scales(self):
        """sqrt(lambda), the column scales that carry this point into the
        balanced set M_0.  InvalidSelection unless every selected singular
        value is positive and C0 = 0, to within 1e-12 sigma_1 in norm (the
        empty selection: the origin)."""
        lam = self.lambdas
        if np.any(lam <= 0):
            raise InvalidSelection(
                "balanced points require strictly positive selected singular values"
            )
        if np.linalg.norm(self.C0) > 1e-12 * float(self.X.sigma[0]):
            raise InvalidSelection("balanced points require C0 = 0")
        return np.sqrt(lam)

    @np.errstate(over="ignore", invalid="ignore")
    def objective_value(self):
        """J at the point: half the unexplained spectral energy, the sum of
        the squared unselected singular values (a difference of two sums
        would lose it to cancellation).  NumericalFailure when it is not
        finite in float64."""
        J = 0.5 * float(np.sum(np.delete(self.X.sigma, self.selection.indices) ** 2))
        _check_finite("J", None, J)
        return J


def build_canonical(X, sel, k, C0=None):
    """Canonical critical point for a nonempty selection."""
    if sel.q < 1:
        raise InvalidSelection("build_canonical needs at least one selected index")
    return CanonicalPoint(X, sel, k, C0)


def zero_family_point(X, C0, k):
    return CanonicalPoint(X, Selection(()), k, C0)


def build_balanced(X, sel, k):
    """Balanced representative: W = U_sel sqrt(L), S = [sqrt(L) V_sel^T; 0].

    InvalidSelection where ``balanced_scales`` refuses (a selected sigma is
    zero); the empty selection gives the origin.
    """
    cp = CanonicalPoint(X, sel, k)
    return _balanced_point(cp, cp.balanced_scales())


def _balanced_point(cp, root):
    """The balanced point of cp, whose balanced_scales() are root."""
    X, k, q, idx = cp.X, cp.k, cp.q, list(cp.selection.indices)
    W = np.zeros((X.m, k))
    S = np.zeros((k, X.n))
    W[:, :q] = X.U[:, idx] * root
    S[:q, :] = root[:, None] * X.V[:, idx].T
    return FactorPair(W=W, S=S)


def _tie_tol(X):
    return TIE_REL * float(X.sigma[0])


def first_defect(X, sel):
    """Least 0-based position j with lambda_j < sigma_j (value-wise), or None.

    Comparisons use a tie tolerance so equal-up-to-rounding singular values
    never produce a spurious defect.  Raises InvalidSelection for an index
    >= m.
    """
    lam = selected_values(X, sel)
    tol = _tie_tol(X)
    for j in range(sel.q):
        if X.sigma[j] - lam[j] > tol:
            return j
    return None


def _split_pair(p11, p12, p22):
    """Eigenvalues (rho_hi, rho_lo) of [[p11, p12], [p12, p22]], elementwise
    and stable against cancellation."""
    tr = p11 + p22
    disc = np.hypot(p11 - p22, 2.0 * p12)
    rho_hi = 0.5 * (tr + disc)
    det = p11 * p22 - p12 * p12
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_lo = np.where(rho_hi != 0.0, det / rho_hi, 0.5 * (tr - disc))
    return rho_hi, rho_lo


def _c0_svd(C0):
    """The SVD Y diag(gamma) Z^T of C0 that every closed form shares: thin,
    or full where C0 has fewer rows than columns, so that Z^T is square.
    Both give the same singular values bit for bit, and compute_uv=False
    does not."""
    return np.linalg.svd(C0, full_matrices=C0.shape[0] < C0.shape[1])


def _check_finite(what, d, *arrays):
    """Raise NumericalFailure, naming the closed-form quantity what and the
    orbit scales d (None: no scale), unless every entry of arrays is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        at = "" if d is None else " at scale " + (
            ", ".join(format(x, "g") for x in np.unique(d)) or "1")
        raise NumericalFailure(f"the closed-form {what}{at} is not finite in float64")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _lambda_min(cp, d=1.0):
    """Smallest Hessian eigenvalue at the diagonal representative of cp whose
    selected columns carry the scales d, as in ``spectrum._canonical_eigpairs``.

    With s the largest unselected singular value (0 if none), the point is a
    minimum exactly when s = 0, or when q = k and the selection is maximal;
    NotASaddle is raised there.  Otherwise the minimum is the lowest of the
    lower branches at s: sigma_lambda_pair for every selected j and, when
    q < k, sigma_omega_pair at the smallest kernel weight w.  Far out on an
    orbit the result can leave float64; NumericalFailure is raised then.
    """
    X, sel, q, k = cp.X, cp.selection, cp.q, cp.k
    unselected = np.ones(X.m, dtype=bool)
    unselected[list(sel.indices)] = False
    sigma_dag = float(np.max(X.sigma, where=unselected, initial=0.0))
    if sigma_dag == 0.0 or (q == k and first_defect(X, sel) is None):
        raise NotASaddle("every unselected direction has nonnegative curvature: "
                         "the canonical point is a global minimum")
    d2 = np.full(q, d, dtype=float) ** 2
    lows = _split_pair(np.float_power(cp.lambdas, 2.0) / d2, -sigma_dag, d2)[1]
    if q < k:
        gs = _c0_svd(cp.C0)[1]
        # x * x, as the spectrum squares gamma
        w_min = float(gs[-1] * gs[-1]) if gs.size == k - q else 0.0
        lows = np.append(lows, _split_pair(w_min, -sigma_dag, 0.0)[1])
    lam_min = float(np.min(lows))
    _check_finite("lambda_min", d, lam_min)
    return lam_min


@dataclass(frozen=True)
class ClassificationResult:
    kind: str  # "GlobalMinimum" | "StrictSaddle"
    p: int | None  # 1-based least defect position, None when maximal
    lambda_min_closed_form: float | None
    maximal: bool


def classify_canonical(cp):
    """Second-order type of a canonical point, with closed-form lambda_min.

    A point is a global minimum exactly when its closed-form lambda_min
    (``_lambda_min``) finds no negative direction; everything else is a
    strict saddle.
    """
    defect = first_defect(cp.X, cp.selection) if cp.q else 0
    maximal = defect is None if cp.q else False
    try:
        lam_min = _lambda_min(cp)
    except NotASaddle:
        return ClassificationResult(kind="GlobalMinimum", p=None,
                                    lambda_min_closed_form=None, maximal=True)
    return ClassificationResult(kind="StrictSaddle", p=None if maximal else defect + 1,
                                lambda_min_closed_form=lam_min, maximal=maximal)


def _sigma_groups(X):
    """Indices 0..m-1 grouped by tied singular value, in descending order."""
    tol = _tie_tol(X)
    groups = []
    start = 0
    for i in range(1, X.m + 1):
        if i == X.m or X.sigma[start] - X.sigma[i] > tol:
            groups.append(list(range(start, i)))
            start = i
    return groups


def uniform_saddle_bound(X, k):
    """(beta, term): every strict saddle on M_0 with k columns has
    lambda_min <= -beta, and one of them has lambda_min = -beta, in O(r).

    A balanced saddle whose selection has q < k columns has lambda_min =
    -sigma_dag, the largest unselected sigma; with q = k it is the least
    selected sigma less sigma_dag, so the best saddle of that kind selects
    every sigma above a value a, leaves at least one sigma_a out and takes
    at least one of the next value b.  Hence beta = min(sigma_min(k, r),
    gaps), gaps holding sigma_a - sigma_b for each pair of adjacent distinct
    positive values with G + 1 <= k <= G + A - 1 + B, G the number of sigma
    above sigma_a and A, B the sizes of the tied groups of sigma_a and
    sigma_b (``_sigma_groups``).  term names what sets beta by 0-based
    indices: (i,) for sigma_i, (a, b) for sigma_a - sigma_b, each the first
    of its group.  ``balanced_lambda_min_sup`` finds -beta by enumeration.
    """
    _check_k(X, k)
    i = min(k, X.r) - 1
    beta, term = float(X.sigma[i]), (i,)
    groups = [g[: X.r - g[0]] for g in _sigma_groups(X) if g[0] < X.r]
    above = 0
    for ga, gb in zip(groups, groups[1:]):
        gap = float(X.sigma[ga[0]] - X.sigma[gb[0]])
        if above + 1 <= k <= above + len(ga) - 1 + len(gb) and gap < beta:
            beta, term = gap, (ga[0], gb[0])
        above += len(ga)
    return beta, term


def balanced_lambda_min_sup(X, k):
    """(lambda_min, selection): the largest closed-form lambda_min over the
    balanced strict saddles of every selection of at most k indices with
    sigma > 0, by enumeration, and the first selection that attains it.  It
    is -beta of ``uniform_saddle_bound``, at the cost of sum_q C(r, q)
    evaluations."""
    _check_k(X, k)
    best = None
    for q in range(k + 1):
        for idx in combinations(range(X.r), q):
            cp = CanonicalPoint(X, Selection(idx), k)
            try:
                lam = _lambda_min(cp, d=cp.balanced_scales())
            except (NotASaddle, InvalidSelection):
                continue
            if best is None or lam > best[0]:
                best = (lam, cp.selection)
    return best


def _polar_orthogonal(M):
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def reduce_to_canonical(X, p, tol=1e-8):
    """Express a critical point p as L_A of a canonical point.

    Returns ``(cp, g)`` with ``p approx (W_c A, A^{-1} S_c)``.  The rank of W
    is read off its singular values at threshold ``tol`` relative to the
    largest, so p is in the zero family (q = 0) exactly when W = 0; values
    within a factor of 10 of the threshold raise RankAmbiguous.  Inside a
    group of tied singular values the SVD of X is fixed only up to a
    rotation, so ``cp.X`` may be a rebased SVD of the same X (same X, sigma
    and r, other U and V columns inside a tied group); it is the input
    object whenever no tied group needed a new basis.

    The one test of criticality is the reconstruction: p is accepted when
    L_A of the exactly critical cp is within 1e-8 ||W|| of W and within
    1e-8 ||S|| of S.  Each bound is in its factor's own units, so the test
    is the same at every scale of X and along every orbit.  A miss, or a
    column space of W that does not split along the singular subspaces of
    X, raises NotCritical.
    """
    W, S, k = p.W, p.S, p.k
    Uw, sW, Vwt = np.linalg.svd(W)
    q, hi = (int(np.count_nonzero(sW > f * tol * sW[0])) for f in (10, 0.1))
    if q != hi:
        raise RankAmbiguous(f"rank of W ambiguous at tolerance {tol}: between {q} and {hi}")

    if q == 0:
        C0 = X.V0.T @ S.T
        cp = zero_family_point(X, C0, k)
        return _check_reduction(p, cp, GroupElement.identity(k))

    # (i)-(ii) W = Uw diag(sW) Vwt gives an orthonormal basis Uh of the
    # column space and W = [Uh, 0] C_full, C_full = [diag(sW[:q]) Vwt[:q];
    # Vwt[q:]], up to the singular values below the rank cutoff.
    Uh = Uw[:, :q]
    SV = sW[:q, None] * Vwt[:q]

    # (iii) rebase the SVD of X inside each tied group that the column space
    # meets in part, so that it occupies the group's leading d columns.  The
    # zero group turns U alone: its columns pair with no column of V.
    U, V = X.U.copy(), X.V.copy()
    rebased = False
    sel_idx = []
    for g_idx in _sigma_groups(X):
        Y, sv, _ = np.linalg.svd(U[:, g_idx].T @ Uh)
        d = int(np.count_nonzero(sv > 0.5))
        if 0 < d < len(g_idx):
            U[:, g_idx] = U[:, g_idx] @ Y
            if X.sigma[g_idx[0]] > 0:
                V[:, g_idx] = V[:, g_idx] @ Y
            rebased = True
        sel_idx.extend(g_idx[:d])
    if len(sel_idx) != q:
        raise NotCritical(
            "column space of W does not split along the singular subspaces of X"
        )
    if rebased:
        X = dataclasses.replace(X, U=_freeze(U), V=_freeze(V))
    Q = _polar_orthogonal(X.U[:, sel_idx].T @ Uh)

    # (iv) peel the invertible change of basis A1 = blockdiag(Q, I) C_full.
    A1 = np.vstack([Q @ SV, Vwt[q:]])
    S2 = A1 @ S

    # (v) absorb the mixed block of S2 with a unipotent factor, read off C0.
    lam = X.sigma[sel_idx]
    Sb = S2[q:, :]
    C0 = X.V0.T @ Sb.T
    inv_lam = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)
    E = np.eye(k)
    E[q:, :q] = -(Sb @ X.V[:, sel_idx]) * inv_lam
    A = E @ A1

    cp = CanonicalPoint(X=X, selection=Selection(tuple(sel_idx)), k=k, C0=C0)
    return _check_reduction(p, cp, GroupElement.from_matrix(A))


def _check_reduction(p, cp, g):
    """(cp, g), or NotCritical unless L_A maps cp within 1e-8 ||W|| of W and
    within 1e-8 ||S|| of S."""
    pc = apply_group_action(cp.materialize(), g)
    for name, rebuilt, given in (("W", pc.W, p.W), ("S", pc.S, p.S)):
        err, bound = np.linalg.norm(rebuilt - given), 1e-8 * np.linalg.norm(given)
        if err > bound:
            raise NotCritical(f"orbit reconstruction residual of {name} {err:.3e} "
                              f"exceeds 1e-8 ||{name}|| = {bound:.3e}")
    return cp, g
