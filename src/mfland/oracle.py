"""Independent numerical checks: dense Hessian, the Hessian spectrum from
exact blocks, finite differences, and the exact gradient flow from a
balanced start.

Nothing in here knows about closed-form spectra or the flow integrator.  It
owns the tangent coordinates: ``flatten_tangent``, ``action_matrix`` and the
dense Hessian share them, so any closed-form claim elsewhere in the package
can be validated against plain ``numpy.linalg.eigh`` on that matrix.

The dense Hessian is the Hessian action itself, column by column: column c
is ``calculus.hessian_apply`` on the c-th unit tangent, flattened.  It costs
N action calls, so only ``mfland verify`` and the tests build it.

``block_spectrum`` (eigenvalues) and ``numeric_spectrum`` (eigenpairs) get
the spectrum from one build of blocks instead, which are small at a critical
point, so neither is capped at N, only at its core; ``numeric_spectrum``
keeps each block's eigenvectors and lifts one into flatten_tangent's
coordinates only when it is read (``BlockEigenvectors``).
``equilibrated_values`` scales the same blocks by a diagonal congruence, for
inertia counts (``orbit.inertia_of``).
At every point the Hessian form is ||dW S + W dS||^2 + 2 <E, dW dS>,
E = W S - X.  In X's singular basis, with the kernel of X turned so that S
meets at most k of its columns, a row i of G and a column j of H interact
only through w_i s_j^T + E'_ij I, where w_i is row i of U^T W, s_j column j
of S V and E' = U^T W S V - diag(sigma).  The rows W touches and the columns
S touches, each index taken as a row and as a column, make one core block,
which holds every off-diagonal entry of E'.  Each other sigma_i > 0 pairs
row i with column i through E'_ii = -sigma_i, and the remaining rows and
columns feel only S S^T or W^T W.  Away from a critical point the core
is larger, up to every index, and the split is as exact.  The dense Hessian
is the ground truth both are tested against.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import gradient, hessian_apply, second_derivative
from .errors import InvalidInput, NumericalFailure, TooLarge
from .model import (FactorPair, KernelFrame, TangentPair, check_pair, check_seed,
                    evaluate_J, inner)

MAX_DENSE_DIM = 5000
# fd_validate's random directions, and the steps of its central
# differences: first, then second order.
FD_TRIALS = 5
FD_STEP_GRADIENT = 1e-5
FD_STEP_SECOND = 1e-4
# FDReport.ok's bounds on the two relative errors.
_FD_TOL_GRADIENT, _FD_TOL_SECOND = 1e-6, 1e-4
# balanced_flow_exact: the largest sigma_1 * t it evaluates, and the
# imbalance ||W^T W - S S^T||_F / ||(W, S)||^2 it accepts as balanced.
EXACT_FLOW_MAX_SIGMA_T = 8.0
EXACT_FLOW_BALANCE_TOL = 1e-10
# block_spectrum: a row of U^T W or a column of S V is zero at or below
# LEAK_REL times its factor's Frobenius norm.
LEAK_REL = 1e-13


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
    """Symmetric dense Hessian in the frozen tangent coordinates.

    ``asymmetry`` is the Frobenius norm of A - A^T for the raw matrix A of
    the action's columns, and ``matrix`` is (A + A^T) / 2.  For a correct
    Hessian action the asymmetry is zero and the matrix is A itself.
    """

    matrix: np.ndarray
    asymmetry: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def dense_hessian(X, p):
    """The DenseHessian at p, column c the Hessian action on the c-th unit
    tangent; raises NumericalFailure when the Hessian is not finite, as far
    out on an orbit, where it overflows."""
    check_pair(X, p)
    m, n, k = X.m, X.n, p.k
    N = k * (m + n)
    if N > MAX_DENSE_DIM:
        raise TooLarge(f"dense Hessian would be {N} x {N} (limit {MAX_DENSE_DIM})")
    _finite_hessian("the dense Hessian", X, p)
    A = np.empty((N, N))
    e = np.zeros(N)
    for c in range(N):
        e[c] = 1.0
        A[:, c] = flatten_tangent(hessian_apply(X, p, unflatten_tangent(e, m, n, k)))
        e[c] = 0.0
    # ||A - A^T||_F^2 is twice its sum over the strict upper triangle.
    skew = sum(float(np.sum((A[c, c + 1:] - A[c + 1:, c]) ** 2)) for c in range(N - 1))
    asym = float(np.sqrt(2.0 * skew))
    if asym:
        np.add(A, A.T, out=A)
        A *= 0.5
    return DenseHessian(matrix=A, asymmetry=asym)


def _finite_hessian(what, X, p):
    """S S^T and W^T W at p, once they, E = W S - X and the bound
    max|W| max|S| + max|E| on a cross entry are finite; NumericalFailure
    naming the largest |entry| of W and of S otherwise.

    Each entry of the action on a unit tangent is an entry of S S^T or of
    W^T W, or a product W[a, l] S[d, b] plus at most one entry of E, so these
    bound every entry of the Hessian.
    """
    W, S = p.W, p.S
    with np.errstate(over="ignore", invalid="ignore"):
        SST, WTW, E = S @ S.T, W.T @ W, W @ S - X.X
        cross = np.abs(W).max() * np.abs(S).max() + np.abs(E).max()
    if not all(np.isfinite(a).all() for a in (SST, WTW, E, cross)):
        raise NumericalFailure(
            f"{what} is not finite in float64: max |W| = {np.abs(p.W).max():.3g}, "
            f"max |S| = {np.abs(p.S).max():.3g}")
    return SST, WTW


def _touched(M, axis):
    """The rows (axis 1) or columns (axis 0) of M whose norm exceeds LEAK_REL
    times M's, taken on M over its largest |entry| so that no square of an
    entry over- or underflows."""
    top = np.abs(M).max(initial=0.0)
    norms = np.linalg.norm(M / top if top else M, axis=axis)
    return norms > LEAK_REL * np.linalg.norm(norms)


def _blocks(X, p):
    """The Hessian at p as exact blocks in X's singular basis, and the turn
    of X's kernel: the right singular vectors of the thin SVD of S V0, in
    V0's coordinates.

    A G row i stands for the tangent U[:, i] g^T and an H column j for
    h V[:, j]^T, g and h in R^k, where V is X.V with its kernel columns
    turned: the turn's rows lead, and any orthonormal completion of them
    follows, since S meets none of those columns.  Rows of U^T W and columns
    of S V above LEAK_REL times their factor's norm, and their indices as
    rows and as columns, make the core: its dense Hessian has S S^T and W^T W
    on the diagonal blocks and w_i s_j^T + E'_ij I between row i and column
    j, with E' = U^T W S V - diag(sigma).  Every other index i < r gives the
    block [[S S^T, -sigma_i I], [-sigma_i I, W^T W]], every other G row the
    block S S^T and every other H column W^T W.

    Each stack is (M, reps, rows, cols): a stack M of blocks, whose values
    repeat reps times, and for each instance (block t % len(M), copy
    t // len(M)) the G rows rows[t], k coordinates each, then the H columns
    cols[t] that its coordinates stand for.  The stacks are the core, the
    2k x 2k pairs, S S^T per left row and W^T W per right column, each listed
    only when it has an instance (the core always has one).  Raises
    NumericalFailure when the Hessian leaves float64, and TooLarge when the
    core passes MAX_DENSE_DIM; the core is never larger than the dense
    Hessian.
    """
    check_pair(X, p)
    m, n, r, k = X.m, X.n, X.r, p.k
    W, S = p.W, p.S
    SST, WTW = _finite_hessian("the Hessian", X, p)
    Wr = X.U.T @ W
    Sr = np.zeros((k, n))
    Sr[:, :r] = S @ X.V[:, :r]
    P, c, turn = np.linalg.svd(S @ X.V0, full_matrices=False)
    Sr[:, r:r + c.size] = P * c
    core = np.zeros(n, dtype=bool)
    core[:m] = _touched(Wr, axis=1)
    core |= _touched(Sr, axis=0)
    cols = np.flatnonzero(core)
    rows = cols[cols < m]  # the first a entries of cols
    a, b = rows.size, cols.size
    if (a + b) * k > MAX_DENSE_DIM:
        raise TooLarge(f"the Hessian's core would be {(a + b) * k} x {(a + b) * k} "
                       f"(limit {MAX_DENSE_DIM})")

    # Core: G rows (i, c) then H columns (j, c), k coordinates each; U^T W and
    # S V can overflow it where the dense Hessian is finite.
    Wc, Sc = Wr[rows], Sr[:, cols]
    H = np.zeros(((a + b) * k,) * 2)
    ak = a * k
    np.einsum("icid->icd", H[:ak, :ak].reshape(a, k, a, k))[...] = SST
    np.einsum("jcjd->jcd", H[ak:, ak:].reshape(b, k, b, k))[...] = WTW
    HG = H[ak:, :ak].reshape(b, k, a, k)  # [j, c, i, d]
    with np.errstate(over="ignore", invalid="ignore"):
        Ec = Wc @ Sc
        Ec[np.arange(a), np.arange(a)] -= X.sigma[rows]
        np.multiply(Wc.T[None, :, :, None], Sc.T[:, None, None, :], out=HG)
        np.einsum("jcic->jci", HG)[...] += Ec.T[:, None, :]
    if not np.isfinite(HG).all():
        raise NumericalFailure(f"the Hessian's rotated core is not finite in float64: max "
                               f"|U^T W| = {np.abs(Wc).max():.3g}, max |S V| = {np.abs(Sc).max():.3g}")
    H[:ak, ak:] = H[ak:, :ak].T

    # The other sigma_i > 0: one 2k x 2k block each.
    pair = np.flatnonzero(~core[:r])[:, None]
    blocks = np.zeros((pair.size, 2 * k, 2 * k))
    blocks[:, :k, :k] = SST
    blocks[:, k:, k:] = WTW
    np.einsum("pii->pi", blocks[:, :k, k:])[...] = -X.sigma[pair]
    blocks[:, k:, :k] = blocks[:, :k, k:]
    left, right = r + np.flatnonzero(~core[r:m])[:, None], r + np.flatnonzero(~core[r:])[:, None]
    stacks = [(H[None], 1, rows[None], cols[None]), (blocks, 1, pair, pair),
              (SST[None], left.size, left, left[:, :0]),
              (WTW[None], right.size, right[:, :0], right)]
    return [s for s in stacks if len(s[2])], turn


def _tiled(values):
    """Each stack's block values, from (values, reps) pairs, repeated reps
    times and concatenated in stack order."""
    return np.concatenate([np.tile(w.ravel(), reps) for w, reps in values])


def _jacobi(M):
    """D M D for each block M of a stack, D = |diag M|^{-1/2} (1 where the
    diagonal is 0): a congruence, so (Sylvester) each block keeps its
    inertia, with the grading of its diagonal taken out.  A diagonal entry
    below 1e-300 of its block's largest |entry| is scaled as if it were that,
    so no entry passes 1e300 (at W = S = 1e-160 ones, a ratio of 1e320)."""
    diag = np.abs(np.einsum("...ii->...i", M))
    top = np.abs(M).max(axis=(-2, -1), initial=0.0)[..., None]
    d = 1.0 / np.sqrt(np.where(diag > 0, np.maximum(diag, 1e-300 * top), 1.0))
    out = M * d[..., :, None]
    out *= d[..., None, :]  # in place: a second temporary stack costs more than the product
    return out


def block_spectrum(X, p):
    """All k (m + n) Hessian eigenvalues at p, ascending, from the exact
    blocks of _blocks: eigvalsh of the core, one batched eigvalsh of the
    2k x 2k blocks, and copies of the eigenvalues of S S^T and W^T W.  At a
    critical point the blocks are small and no N x N matrix is formed.
    """
    vals = _tiled((np.linalg.eigvalsh(M), reps) for M, reps, *_ in _blocks(X, p)[0])
    assert vals.size == p.k * (X.m + X.n), (vals.size, p.k * (X.m + X.n))
    vals.sort()
    return vals


def equilibrated_values(X, p):
    """k (m + n) values with the inertia of the Hessian at p, unsorted: as
    block_spectrum, but of D B D for each block B of _blocks, D =
    |diag B|^{-1/2}.  Sylvester's law keeps each block's inertia, and taking
    out the diagonal's grading (far along an orbit, at sigma_1 far from 1,
    under an ill-conditioned A) keeps eigvalsh's rounding, a fraction of a
    block's largest |value|, from flipping the signs of genuine small values
    (Demmel and Veselic 1992).  The values themselves are not the Hessian's.
    """
    return _tiled((np.linalg.eigvalsh(_jacobi(M)), reps) for M, reps, *_ in _blocks(X, p)[0])


def numeric_spectrum(X, p):
    """Eigenvalues of the Hessian at p, ascending, and their orthonormal
    eigenvectors as a BlockEigenvectors, column i for value i in
    flatten_tangent's coordinates.

    Each block of _blocks is diagonalized with eigh and the values sorted
    here, so every eigh and any NumericalFailure or TooLarge (as _blocks
    raises them) happen in this call; an eigenvector is lifted through X.U
    (G rows) and the turned V (H columns) only when it is read, and no N x N
    array, product or eigenproblem is formed.
    """
    stacks, turn = _blocks(X, p)
    eighs = [np.linalg.eigh(M) for M, *_ in stacks]
    vals = _tiled((w, reps) for (w, _), (_, reps, *_) in zip(eighs, stacks))
    order = np.argsort(vals, kind="stable")
    return vals[order], BlockEigenvectors(X, stacks, eighs, turn, order)


class BlockEigenvectors:
    """numeric_spectrum's N x N eigenvector matrix, kept as its blocks'
    eigenvectors with the G rows and H columns of each instance, the basis
    (X.U, X.V and the turned kernel as a ``model.KernelFrame`` led by the
    turn's rows) and the sort order.

    ``vectors[:, i]`` (any integer i, negatives included) lifts column i
    alone into a new length-N array: O(N) for a pair, left or right column,
    O((m a + n b) k) for a core one, a and b the core's rows and columns,
    plus O(n p) for each kernel column of V it turns, p <= k the turn's
    rows, once the frame has formed its n x p products; no (n - r) x (n - r)
    completion of the turn is formed.  Any other key raises TypeError; the
    matrix itself is never built.
    """

    def __init__(self, X, stacks, eighs, turn, order):
        self._m, self._r, self._N = X.m, X.r, order.size
        self._k = order.size // (X.m + X.n)
        self._U, self._V = X.U, X.V
        self._frame = KernelFrame(X, turn.T)
        # Each stack's block eigenvectors, with its instances' G rows and H columns.
        self._stacks = [(Z, rows, cols) for (_, Z), (*_, rows, cols) in zip(eighs, stacks)]
        self._order = order
        # Where each stack starts in numeric_spectrum's unsorted values.
        self._starts = np.cumsum([0] + [rows.shape[0] * Z.shape[-1] for Z, rows, _ in self._stacks])

    @property
    def shape(self):
        return (self._N, self._N)

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], slice)
                and key[0] == slice(None) and isinstance(key[1], (int, np.integer))):
            raise TypeError(f"eigenvectors are read as [:, i] with an integer i, not [{key!r}]")
        i, N = int(key[1]), self._N
        if not -N <= i < N:
            raise IndexError(f"eigenvector {i} is out of range for N = {N}")
        return self._lift(i % N)

    def _basis(self, j):
        """Columns j (an index array) of the turned V."""
        B, kernel = self._V[:, j], j >= self._r
        for c in np.flatnonzero(kernel):
            B[:, c] = self._frame.column(j[c] - self._r)
        return B

    def _lift(self, i):
        """Sorted column i, from eigenvector j of its instance t: the G part
        [c, r] (G[r, c]) through X.U's columns of the instance's G rows, then
        the H part [j, c] (H[c, j]) through the turned V's columns of its H
        columns, each written through a view of the column."""
        m, k = self._m, self._k
        x = np.zeros(self._N)
        G, H = x[:m * k].reshape(k, m), x[m * k:].reshape(-1, k)
        src = int(self._order[i])
        s = int(np.searchsorted(self._starts, src, side="right")) - 1
        Z, rows, cols = self._stacks[s]
        t, j = divmod(src - int(self._starts[s]), Z.shape[-1])
        y, a = Z[t % len(Z), :, j], rows.shape[1]
        np.matmul(y[:a * k].reshape(a, k).T, self._U[:, rows[t]].T, out=G)
        np.matmul(self._basis(cols[t]), y[a * k:].reshape(-1, k), out=H)
        return x


@dataclass(frozen=True)
class FDReport:
    max_gradient_rel_err: float
    max_second_rel_err: float

    @property
    def ok(self):
        return (self.max_gradient_rel_err < _FD_TOL_GRADIENT
                and self.max_second_rel_err < _FD_TOL_SECOND)


def fd_validate(X, p, seed=0):
    """Central-difference check of the gradient and the quadratic form.

    Each of FD_TRIALS trials draws a unit-norm tangent direction d and
    compares (J(p + eps d) - J(p - eps d)) / (2 eps) against <grad J, d>,
    then the symmetric second difference against d2 J[d].  Relative errors
    are taken against the analytic value, or against the difference's
    resolution where that is larger: its error bound over FDReport.ok's bound,
    so an error within the bound passes.  J(p + t d) is a quartic in t, so the
    bound is a3 eps^2 or 2 a4 t^2, with a3 = <G S + W H, G H> and a4 =
    ||G H||^2 / 2, plus the rounding of J, u (||W S|| + ||X||)^2, over eps or,
    four times, over t^2.  Raises InvalidInput unless seed is a nonnegative
    integer.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    m, n, k = X.m, X.n, p.k
    g = gradient(X, p)
    J0 = evaluate_J(X, p)
    J_round = np.finfo(float).eps * (np.linalg.norm(p.W @ p.S) + np.linalg.norm(X.X)) ** 2

    worst_g, worst_h = 0.0, 0.0
    for _ in range(FD_TRIALS):
        G = rng.standard_normal((m, k))
        H = rng.standard_normal((k, n))
        nrm = np.sqrt(np.sum(G * G) + np.sum(H * H))
        d = TangentPair(G=G / nrm, H=H / nrm)

        def J_at(t):
            return evaluate_J(X, FactorPair(W=p.W + t * d.G, S=p.S + t * d.H))

        GH = d.G @ d.H
        a3, a4 = float(np.sum((d.G @ p.S + p.W @ d.H) * GH)), 0.5 * float(np.sum(GH * GH))

        eps = FD_STEP_GRADIENT
        fd1 = (J_at(eps) - J_at(-eps)) / (2 * eps)
        an1 = inner(g, d)
        res1 = (abs(a3) * eps * eps + J_round / eps) / _FD_TOL_GRADIENT
        worst_g = max(worst_g, abs(fd1 - an1) / max(abs(an1), res1, 1e-12))

        t = FD_STEP_SECOND
        fd2 = (J_at(t) - 2 * J0 + J_at(-t)) / (t * t)
        an2 = second_derivative(X, p, d)
        res2 = (2.0 * a4 * t * t + 4.0 * J_round / (t * t)) / _FD_TOL_SECOND
        worst_h = max(worst_h, abs(fd2 - an2) / max(abs(an2), res2, 1e-12))

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
    eigenbasis, taken here with eigh: G's eigenvalues are +-sigma_i and
    zeros, with sigma_1 the largest.  The top-right m x n block of R is W S.

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
    G = np.zeros((m + n, m + n))
    G[:m, m:] = X.X
    G[m:, :m] = X.X.T
    gamma, Q = np.linalg.eigh(G)
    sigma_t = float(gamma[-1]) * t
    if sigma_t > EXACT_FLOW_MAX_SIGMA_T:
        raise InvalidInput(
            f"sigma_1 * t = {sigma_t:.3e} > {EXACT_FLOW_MAX_SIGMA_T:g}: "
            "K is too ill-conditioned for the exact flow"
        )
    Zq = Q.T @ Z0
    Y = Q @ (np.exp(gamma * t)[:, None] * Zq)
    # int_0^t e^{2 gamma s} ds, which is t where gamma = 0
    two_g = 2.0 * gamma
    safe = np.where(two_g == 0.0, 1.0, two_g)
    phi = np.where(two_g == 0.0, t, np.expm1(two_g * t) / safe)
    K = np.eye(p0.k) + Zq.T @ (phi[:, None] * Zq)
    return Y @ np.linalg.solve(K, Y.T)
