"""Data model for the factorization objective J(W, S) = 0.5 * ||X - W S||_F^2.

The search space pairs a left factor W (m x k) with a right factor S (k x n).
Everything downstream keys off a full SVD of the data matrix X, so this module
owns the SVD conventions: row/column orientation is normalized to m <= n,
singular vectors get a deterministic sign, and singular values below the rank
cutoff are stored as exact zeros.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput, NumericalFailure

DEFAULT_RANK_TOL = 1e-10


def _as_matrix(arr, name):
    try:
        a = np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} is not a numeric array: {exc}") from None
    if a.ndim != 2 or a.size == 0:
        raise InvalidInput(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DataMatrixSVD:
    """Full SVD of the (orientation-normalized) data matrix.

    Attributes:
        X: the m x n data matrix, after transposition if the input was taller
            than wide.  ``transposed`` records whether that happened.
        U: m x m orthogonal, V: n x n orthogonal, sigma: length-m nonneg,
            nonincreasing, with entries below the rank cutoff stored as 0.0.
        r: numerical rank (count of retained singular values).
    """

    X: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    r: int
    transposed: bool

    @property
    def m(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def tol_scale(self):
        """max(1, ||X||_F), the unit of every absolute tolerance on X."""
        return max(1.0, float(np.linalg.norm(self.X)))

    @property
    def V0(self):
        """Columns of V spanning the kernel of X (indices r..n-1)."""
        return self.V[:, self.r:]

    def reconstruction_error(self):
        approx = (self.U * self.sigma) @ self.V[:, : self.m].T
        return float(np.linalg.norm(approx - self.X))


class KernelFrame:
    """An orthonormal basis V0 Q of the kernel of X whose leading columns are
    V0 @ lead, read by column.

    ``lead`` is (n - r) x p with orthonormal columns in V0's coordinates.  Q
    is the orthogonal factor of the Householder QR of lead, kept as its p
    reflectors in the compact WY form Q = I - Y T Y^T (Golub & Van Loan,
    Matrix Computations, section 5.1), so column z >= p is
    V0[:, z] - (V0 Y T) Y[z]^T.  The first read takes the QR and forms the
    n x p products V0 @ lead and V0 Y T; after that a column costs O(n p).
    No (n - r) x (n - r) array and no n x (n - r) product is formed.
    """

    def __init__(self, X, lead):
        self._V0, self._lead = X.V0, lead
        self._products = None

    def _lift(self):
        """(V0 @ lead, V0 Y T, Y)."""
        if self._products is None:
            h, tau = np.linalg.qr(self._lead, mode="raw")
            p = tau.size
            Y = np.tril(h.T, -1)
            Y[np.arange(p), np.arange(p)] = 1.0
            # T upper triangular, column by column as LAPACK's dlarft.
            T, YtY = np.zeros((p, p)), Y.T @ Y
            for i in range(p):
                T[:i, i] = -tau[i] * (T[:i, :i] @ YtY[:i, i])
                T[i, i] = tau[i]
            self._products = _freeze(self._V0 @ self._lead), (self._V0 @ Y) @ T, Y
        return self._products

    def column(self, z):
        """Column z of the frame, a read-only length-n array."""
        lead_cols, VY_T, Y = self._lift()
        return lead_cols[:, z] if z < lead_cols.shape[1] else _freeze(self._V0[:, z] - VY_T @ Y[z])


def _column_signs(M):
    """Per column of M, the sign (+1 for 0) of its first largest-magnitude entry."""
    lead = M[np.argmax(np.abs(M), axis=0), np.arange(M.shape[1])]
    return np.where(lead >= 0, 1.0, -1.0)


def load_data_matrix(X, rank_tol=DEFAULT_RANK_TOL):
    """Build a :class:`DataMatrixSVD` from a dense array.

    The matrix is transposed first if it has more rows than columns, so that
    m <= n always holds internally.  Sign convention: for each singular pair
    (u_i, v_i) with sigma_i > 0 the largest-magnitude entry of u_i is made
    positive (flipping v_i along with it); leftover null-space columns are
    sign-normalized the same way, independently.
    """
    X = _as_matrix(X, "X")
    transposed = False
    if X.shape[0] > X.shape[1]:
        X = X.T.copy()
        transposed = True
    if not np.any(X):
        raise InvalidInput("X is identically zero; the landscape is degenerate")
    if not (0 < rank_tol < 1):
        raise InvalidInput(f"rank_tol must lie in (0, 1), got {rank_tol}")

    U, s, Vh = np.linalg.svd(X, full_matrices=True)
    V = Vh.T

    r = int(np.count_nonzero(s > rank_tol * s[0]))
    sigma = s.copy()
    sigma[r:] = 0.0

    # Deterministic signs.  Paired columns flip together to keep U S V^T = X.
    sgn = _column_signs(U)
    U *= sgn
    V[:, :r] *= sgn[:r]
    V[:, r:] *= _column_signs(V[:, r:])

    return DataMatrixSVD(
        X=_freeze(X),
        U=_freeze(U),
        sigma=_freeze(sigma),
        V=_freeze(V),
        r=r,
        transposed=transposed,
    )


class _Pair:
    """Base of the frozen dataclasses FactorPair and TangentPair: two finite
    real matrices, a x k then k x b, held in the subclass's two fields."""

    def __post_init__(self):
        n1, n2 = self.__dataclass_fields__
        a, b = _as_matrix(getattr(self, n1), n1), _as_matrix(getattr(self, n2), n2)
        if a.shape[1] != b.shape[0]:
            raise DimensionError(
                f"inner dimensions disagree: {n1} is {a.shape}, {n2} is {b.shape}")
        object.__setattr__(self, n1, _freeze(a))
        object.__setattr__(self, n2, _freeze(b))

    @property
    def _factors(self):
        n1, n2 = self.__dataclass_fields__
        return getattr(self, n1), getattr(self, n2)

    @property
    def k(self):
        return self._factors[0].shape[1]

    def norm(self):
        a, b = self._factors
        return float(np.sqrt(np.sum(a**2) + np.sum(b**2)))

    def distance(self, other):
        """sqrt(||a1 - b1||^2 + ||a2 - b2||^2) to a pair of this type and shapes."""
        (a1, a2), (b1, b2) = self._factors, other._factors
        if type(other) is not type(self) or (a1.shape, a2.shape) != (b1.shape, b2.shape):
            raise DimensionError(f"distance from a {type(self).__name__} {a1.shape} x "
                                 f"{a2.shape} to a {type(other).__name__} {b1.shape} x {b2.shape}")
        return float(np.sqrt(np.linalg.norm(a1 - b1) ** 2 + np.linalg.norm(a2 - b2) ** 2))


@dataclass(frozen=True)
class FactorPair(_Pair):
    """A point (W, S) of the search space, W: m x k and S: k x n."""

    W: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class TangentPair(_Pair):
    """A tangent direction (G, H) matching the shapes of some FactorPair."""

    G: np.ndarray
    H: np.ndarray


def check_pair(X, p):
    """Raise DimensionError unless p's shapes match X (m x k times k x n)."""
    if p.W.shape[0] != X.m or p.S.shape[1] != X.n:
        raise DimensionError(
            f"factor pair {p.W.shape} x {p.S.shape} does not fit a "
            f"{X.m} x {X.n} data matrix"
        )


def check_seed(seed):
    """Raise InvalidInput unless seed is a nonnegative Python or NumPy integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInput(f"seed must be a nonnegative integer, got {seed!r}")


def check_nullity(z, N):
    """z as an int, after raising InvalidInput unless it is an integer 0 <= z <= N."""
    if not (hasattr(type(z), "__index__") and 0 <= operator.index(z) <= N):
        raise InvalidInput(f"nullity must be an integer 0 <= z <= N = {N}, got z = {z!r}")
    return operator.index(z)


def inertia_at_nullity(evals, z):
    """(n_pos, n_neg, z) for Hessian eigenvalues evals of nullity z, known from
    structure (check_nullity): the z smallest |values| are the zeros, the
    others count by sign.  NumericalFailure where one is 0.0, its sign lost."""
    evals = np.asarray(evals, dtype=float)
    z = check_nullity(z, evals.size)
    signed = evals[np.argsort(np.abs(evals), kind="stable")[z:]]
    if not signed.all():
        raise NumericalFailure(f"{signed.size - np.count_nonzero(signed)} Hessian eigenvalue(s) past "
                               f"the nullity {z} are 0.0 in float64: their signs are lost")
    return (int(np.count_nonzero(signed > 0)), int(np.count_nonzero(signed < 0)), z)


def residual(X, p):
    """E = W S - X, the misfit whose Frobenius norm squared is 2 J."""
    check_pair(X, p)
    return p.W @ p.S - X.X


def evaluate_J(X, p):
    E = residual(X, p)
    return 0.5 * float(np.sum(E * E))


def inner(t1, t2):
    """Frobenius inner product on tangent pairs: <G1,G2> + <H1,H2>."""
    return float(np.sum(t1.G * t2.G) + np.sum(t1.H * t2.H))


def _open_text(path, mode):
    """The UTF-8 text file at path opened for reading ("r") or writing
    ("w"); InvalidInput "cannot read PATH" or "cannot write PATH" when the
    system refuses."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise InvalidInput(f"cannot {verb} {path}: {exc}") from exc


def read_matrix_csv(path):
    """Read a dense matrix from CSV: one row per line, no header.

    Ragged rows, non-numeric fields, and unreadable paths raise InvalidInput.
    """
    rows = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise InvalidInput(f"{path}:{lineno}: non-numeric field")
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise InvalidInput(
                    f"{path}:{lineno}: ragged row ({len(rows[-1])} fields, "
                    f"expected {len(rows[0])})"
                )
    if not rows:
        raise InvalidInput(f"{path}: empty matrix file")
    return np.array(rows, dtype=float)


def write_matrix_csv(path, arr):
    """Write arr as CSV at 17 significant digits; an unwritable path raises
    InvalidInput."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with _open_text(path, "w") as fh:
        for row in arr:
            fh.write(",".join(format(x, ".17g") for x in row))
            fh.write("\n")
