"""Closed-form Hessian spectra at the canonical and balanced critical points.

Every point handled here is a diagonal orbit representative
(U_sel D, [D^-1 diag(lambda) V_sel^T ; C0^T V0^T]) with one positive scale d_j
per selected column: d_j = a gives the scaled canonical point
(a W_c, a^-1 S_c) and d_j = sqrt(lambda_j) the balanced point.  The unused
columns of W keep scale 1.  At such a point the Hessian block-diagonalizes
over an adapted tangent basis built from outer products of singular vectors.
Every block is either 1 x 1 or a symmetric 2 x 2 coupling one left direction
with one right direction, so all k (m + n) eigenvalues (and unit
eigenvectors) come out exactly.  The 2 x 2 families:

  - sigma_lambda_pair   [[l_j^2/d_j^2, -s_i], [-s_i, d_j^2]]  (unselected
        s_i > 0 against selected column j); determinant l_j^2 - s_i^2 decides
        the sign of the lower branch.
  - sigma_omega_pair    [[w_l, -s_i], [-s_i, 0]]              (unselected
        s_i > 0 against a kernel row of S with weight w_l = gamma_l^2); the
        lower branch is always negative.
  - selected_cross_pair [[l_s^2/d_s^2, l_s d_j/d_s], [l_s d_j/d_s, d_j^2]]
        (determinant zero: branches 0 and l_s^2/d_s^2 + d_j^2).
  - c0_cross_pair       [[w_l, g_l d_j], [g_l d_j, d_j^2]]     (determinant
        zero: branches 0 and w_l + d_j^2).

plus 1 x 1 families for left kernel rows (l_j^2/d_j^2 or w_l), dead
coordinates, and the right kernel (d_j^2 or 0).

Each eigenvector is a pair of rank-one matrices and is stored as its factors
(see :class:`EigPair`), so a spectrum costs O(k (m + n)) memory; the dense
tangent pair is built only when ``EigPair.vector`` is read.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import (
    CanonicalPoint,
    Selection,
    _canonical_point,
    build_balanced,
    build_canonical,
    first_defect,
    selected_values,
    zero_family_point,
)
from .errors import InvalidInput, InvalidSelection, NotASaddle
from .model import TangentPair

# |value| <= INERTIA_REL * max(sigma_1, |largest value|) counts as zero.
INERTIA_REL = 1e-10


@dataclass(frozen=True)
class EigPair:
    """One closed-form Hessian eigenpair, its eigenvector kept as factors.

    The unit eigenvector is the tangent pair (G, H) with
    ``G = cl * outer(uG, cG)`` and ``H = cr * outer(cH, vH)``: ``uG`` and
    ``vH`` are columns of ``X.U`` and of ``X.V`` (or of a rotated kernel
    basis), ``cG`` and ``cH`` are length-k coefficient vectors, and a half
    that vanishes has coefficient 0 and zero factors.  ``vector`` builds the
    dense TangentPair on every access and does not keep it, so that walking
    all the vectors of a spectrum never holds more than one of them.

    ``provenance`` names the construction family and its indices; for the
    2 x 2 families ``coupling`` is the ratio of the right-direction to the
    left-direction coefficient in the unit eigenvector, and the two branches
    of one block multiply to -1.
    """

    value: float
    cl: float
    uG: np.ndarray
    cG: np.ndarray
    cr: float
    cH: np.ndarray
    vH: np.ndarray
    provenance: str
    coupling: float | None

    @property
    def vector(self):
        return TangentPair(G=self.cl * np.outer(self.uG, self.cG),
                           H=self.cr * np.outer(self.cH, self.vH))


@dataclass(frozen=True)
class SpectrumReport:
    eigpairs: tuple
    inertia: tuple  # (positive, negative, zero)
    lambda_min: float
    point: object  # the FactorPair the spectrum belongs to

    @property
    def values(self):
        return np.array([e.value for e in self.eigpairs])


def _report(X, eigpairs, point):
    eigpairs = sorted(eigpairs, key=lambda e: e.value)
    vals = np.array([e.value for e in eigpairs])
    tol = INERTIA_REL * max(float(X.sigma[0]), float(np.max(np.abs(vals))))
    inertia = (
        int(np.count_nonzero(vals > tol)),
        int(np.count_nonzero(vals < -tol)),
        int(np.count_nonzero(np.abs(vals) <= tol)),
    )
    return SpectrumReport(
        eigpairs=tuple(eigpairs),
        inertia=inertia,
        lambda_min=float(vals[0]),
        point=point,
    )


def _pair_vectors(p11, p12, p22, rho):
    """Unit eigenvector of [[p11, p12], [p12, p22]] for eigenvalue rho.

    Returns (c_left, c_right).  Of the two analytically equivalent forms the
    better-conditioned one is used; p12 != 0 guarantees both components are
    nonzero.
    """
    cand1 = (p12, rho - p11)
    cand2 = (rho - p22, p12)
    c = cand1 if cand1[0] ** 2 + cand1[1] ** 2 >= cand2[0] ** 2 + cand2[1] ** 2 else cand2
    nrm = np.hypot(c[0], c[1])
    return c[0] / nrm, c[1] / nrm


def _split_pair(p11, p12, p22):
    """Eigenvalues of [[p11, p12], [p12, p22]], stable against cancellation."""
    tr = p11 + p22
    disc = np.hypot(p11 - p22, 2.0 * p12)
    rho_hi = 0.5 * (tr + disc)
    det = p11 * p22 - p12 * p12
    rho_lo = det / rho_hi if rho_hi != 0.0 else 0.5 * (tr - disc)
    return rho_hi, rho_lo


def _canonical_eigpairs(cp, d=1.0):
    """All k (m + n) closed-form eigenpairs at the diagonal representative of
    cp whose selected columns carry the scales d (a scalar or q values)."""
    X, q, k = cp.X, cp.q, cp.k
    m, n, r = X.m, X.n, X.r
    d = np.broadcast_to(np.asarray(d, dtype=float), (q,))
    d2 = d * d
    idx = list(cp.selection.indices)
    lam = cp.lambdas
    chosen = set(idx)
    us_r = [i for i in range(r) if i not in chosen]
    us_m = [i for i in range(r, m) if i not in chosen]

    # Adapted bases: rotate the kernel columns of V so that C0 = Y diag(gamma) Z^T
    # becomes diagonal across them.  With q = k there is no C0 and the raw
    # kernel basis serves as zeta.
    if k > q and n > r:
        Y, gs, Zt = np.linalg.svd(cp.C0, full_matrices=True)
        Z = Zt.T
        gamma = np.zeros(k - q)
        gamma[: gs.size] = gs
        zeta = X.V0 @ Y
    else:
        Z = np.eye(k - q)
        gamma = np.zeros(k - q)
        zeta = X.V0
    gtol = 1e-13 * max(1.0, gamma[0] if gamma.size else 0.0)
    omega = gamma**2

    # Row l: the coefficient vector of kernel direction l over all k slots.
    ztilde = np.zeros((k - q, k))
    ztilde[:, q:] = Z.T

    # Factors of a vanishing half: shared, never written.
    zm, zn, zk = np.zeros(m), np.zeros(n), np.zeros(k)
    out = []

    def left(value, uG, cG, prov):
        """A 1 x 1 block over the direction (uG cG^T, 0)."""
        out.append(EigPair(value=float(value), cl=1.0, uG=uG, cG=cG,
                           cr=0.0, cH=zk, vH=zn, provenance=prov, coupling=None))

    def right(value, cH, vH, prov):
        """A 1 x 1 block over the direction (0, cH vH^T)."""
        out.append(EigPair(value=float(value), cl=0.0, uG=zm, cG=zk,
                           cr=1.0, cH=cH, vH=vH, provenance=prov, coupling=None))

    def mixed(p11, p12, p22, uG, cG, cH, vH, prov, exact_zero=False):
        """Emit both branches of a 2 x 2 block over (uG cG^T, cH vH^T)."""
        if exact_zero:
            rho_hi, rho_lo = p11 + p22, 0.0
        else:
            rho_hi, rho_lo = _split_pair(p11, p12, p22)
        for rho, tagb in ((rho_lo, "-"), (rho_hi, "+")):
            cl, cr = _pair_vectors(p11, p12, p22, rho)
            out.append(EigPair(value=float(rho), cl=cl, uG=uG, cG=cG,
                               cr=cr, cH=cH, vH=vH,
                               provenance=f"{prov},branch={tagb}",
                               coupling=float(cr / cl)))

    ek = np.eye(k)

    # Unselected positive singular values against every column of W / row of S.
    for i in us_r:
        s_i = X.sigma[i]
        u_i, v_i = X.U[:, i], X.V[:, i]
        for j in range(q):
            mixed(lam[j] ** 2 / d2[j], -s_i, d2[j], u_i, ek[j], ek[j], v_i,
                  f"sigma_lambda_pair(i={i},j={j})")
        for l in range(k - q):
            mixed(omega[l], -s_i, 0.0, u_i, ztilde[l], ztilde[l], v_i,
                  f"sigma_omega_pair(i={i},l={l})")

    # Left kernel rows (sigma_i = 0) only feel S S^T.
    for i in us_m:
        u_i = X.U[:, i]
        for j in range(q):
            left(lam[j] ** 2 / d2[j], u_i, ek[j], f"left_kernel_lambda(i={i},j={j})")
        for l in range(k - q):
            left(omega[l], u_i, ztilde[l], f"left_kernel_omega(i={i},l={l})")

    # Selected columns coupled with selected rows and with the C0 block.
    for j in range(q):
        ub_j = X.U[:, idx[j]]
        for s in range(q):
            if lam[s] > 0:
                vb_s = X.V[:, idx[s]]
                mixed(lam[s] ** 2 / d2[s], lam[s] * (d[j] / d[s]), d2[j],
                      ub_j, ek[s], ek[j], vb_s,
                      f"selected_cross_pair(j={j},s={s})", exact_zero=True)
            else:
                left(0.0, ub_j, ek[s], f"zero_lambda_column(j={j},s={s})")
        for l in range(n - r):
            if l < k - q and gamma[l] > gtol:
                mixed(omega[l], gamma[l] * d[j], d2[j], ub_j, ztilde[l], ek[j],
                      zeta[:, l], f"c0_cross_pair(j={j},l={l})",
                      exact_zero=True)
            else:
                right(d2[j], ek[j], zeta[:, l],
                      f"right_kernel_selected(j={j},l={l})")
        for l in range(k - q):
            if gamma[l] <= gtol:
                left(0.0, ub_j, ztilde[l], f"c0_dead_coord(j={j},l={l})")

    # Rows of S carried by the zero columns of W never feel the Hessian.
    for lp in range(k - q):
        zt = ztilde[lp]
        for s in range(q):
            if lam[s] > 0:
                right(0.0, zt, X.V[:, idx[s]], f"right_kernel_null(l={lp},s={s})")
        for l in range(n - r):
            right(0.0, zt, zeta[:, l], f"right_kernel_null(l={lp},z={l})")

    assert len(out) == k * (m + n), (len(out), k * (m + n))
    return out


def spectrum_zero_family(X, C0, k):
    """Spectrum at the zero-family point (0, C0^T V0^T)."""
    cp = zero_family_point(X, np.asarray(C0, dtype=float), k)
    return _report(X, _canonical_eigpairs(cp), cp.materialize())


def spectrum_full_rank_scaled(X, sel, a=1.0):
    """Spectrum at (a W_c, a^-1 S_c) for a full-rank selection (q = k)."""
    if a == 0 or not np.isfinite(a):
        raise InvalidInput(f"scale must be a nonzero finite number, got {a}")
    if sel.q < 1:
        raise InvalidSelection("full-rank spectrum needs a nonempty selection")
    cp = build_canonical(X, sel, k=sel.q)
    return _report(X, _canonical_eigpairs(cp, d=a), cp.materialize(scale=a))


def spectrum_deficient_rank(cp):
    """Spectrum at a canonical point with 1 <= q < k (arbitrary C0)."""
    if not isinstance(cp, CanonicalPoint):
        raise InvalidInput("spectrum_deficient_rank expects a CanonicalPoint")
    if not (1 <= cp.q < cp.k):
        raise InvalidSelection(
            f"deficient-rank spectrum needs 1 <= q < k, got q={cp.q}, k={cp.k}"
        )
    return _report(cp.X, _canonical_eigpairs(cp), cp.materialize())


def spectrum_balanced(X, sel, k):
    """Spectrum at the balanced point (U_sel sqrt(L), [sqrt(L) V_sel^T; 0]).

    It is the diagonal representative with d_j = sqrt(lambda_j) and C0 = 0,
    so every value is closed form: lambda_j +- s_i for unselected s_i > 0,
    +-s_i against the unused columns, 0 and lambda_s + lambda_j for selected
    pairs, lambda_j on the left kernel and on the right kernel, and 0.
    """
    p = build_balanced(X, sel, k)
    cp = build_canonical(X, sel, k)
    return _report(X, _canonical_eigpairs(cp, d=np.sqrt(cp.lambdas)), p)


def _lambda_min(cp, d=1.0):
    """Smallest Hessian eigenvalue at the diagonal representative of cp whose
    selected columns carry the scales d, as in ``_canonical_eigpairs``.

    With s the largest unselected singular value (0 if none), the point is a
    minimum exactly when s = 0, or when q = k and the selection is maximal;
    NotASaddle is raised there.  Otherwise the minimum is the lowest of the
    lower branches at s: sigma_lambda_pair for every selected j and, when
    q < k, sigma_omega_pair at the smallest kernel weight w.
    """
    X, sel, q, k = cp.X, cp.selection, cp.q, cp.k
    chosen = set(sel.indices)
    sigma_dag = max((float(X.sigma[i]) for i in range(X.m) if i not in chosen),
                    default=0.0)
    if sigma_dag == 0.0 or (q == k and first_defect(X, sel) is None):
        raise NotASaddle("every unselected direction has nonnegative curvature: "
                         "the canonical point is a global minimum")
    d2 = np.broadcast_to(np.asarray(d, dtype=float), (q,)) ** 2
    lam = cp.lambdas
    lows = [_split_pair(lam[j] ** 2 / d2[j], -sigma_dag, d2[j])[1] for j in range(q)]
    if q < k:
        gs = np.linalg.svd(cp.C0, compute_uv=False)
        w_min = float(gs[-1]) ** 2 if gs.size == k - q else 0.0
        lows.append(_split_pair(w_min, -sigma_dag, 0.0)[1])
    return float(min(lows))


def lambda_min_closed_form(X, sel, k, C0=None, a=1.0):
    """Smallest Hessian eigenvalue at the scaled canonical point
    (a W_c, a^-1 S_c) of sel (None for the zero family), in closed form.

    That point is the diagonal representative with d_j = a and kernel block
    C0 / a.  Raises NotASaddle when no negative direction exists.
    """
    if a == 0 or not np.isfinite(a):
        raise InvalidInput(f"scale must be a nonzero finite number, got {a}")
    if C0 is not None:
        C0 = np.asarray(C0, dtype=float) / a
    cp = _canonical_point(X, Selection(()) if sel is None else sel, k, C0)
    return _lambda_min(cp, d=a)


def lambda_min_balanced(X, sel, k):
    """Closed-form smallest eigenvalue at a balanced strict saddle."""
    lam = selected_values(X, sel)
    if np.any(lam <= 0) or sel.q > min(k, X.r):
        raise InvalidSelection("balanced points need positive selected values")
    return _lambda_min(_canonical_point(X, sel, k), d=np.sqrt(lam))
