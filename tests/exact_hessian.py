"""An exact rational Hessian of J(W, S) = 0.5 ||X - W S||_F^2 and its
inertia, with no zero floor at all.

Everything here is a Fraction, and nothing imports mfland or NumPy, so the
count is independent of the closed forms and of the float oracle alike.

- ``hessian`` polarizes the second variation
  Q(dW, dS) = ||dW S + W dS||^2 + 2 <E, dW dS>, E = W S - X:
  entry (a, b) is (Q(e_a + e_b) - Q(e_a - e_b)) / 4 over the unit tangents,
  G entries first, then H entries.
- ``charpoly`` is Berkowitz's division-free recursion for det(t I - M).
- ``inertia`` reads (n_pos, n_neg, n_zero) off that polynomial.  The
  polynomial of a symmetric matrix has only real roots, so Descartes' rule of
  signs counts them exactly: the nullity is the index of the lowest nonzero
  coefficient, the positive roots are the sign changes of p(t) and the
  negative ones those of p(-t).
- ``roots_below`` compares the roots with any rational b the same way: the
  roots of p below b are the negative roots of p(t + b) (``shifted``), and
  the multiplicity of b is the index of its lowest nonzero coefficient.

The exact points come from Hadamard frames, which are exact in float64 too:
X = H4 diag(3, 2, 2, 1) [H4 (+) 1][:, :4]^T is 4 x 5, with
H4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]] / 2.
Scaled by c = 2^e, c X stays exact, and so does its canonical point
(W, S) = (U_sel, c diag(sigma_sel) V_sel^T) at orbit scale 1.  With other
singular values that are perfect squares, the balanced point
(U_sel sqrt(L), [sqrt(L) V_sel^T; 0]) is rational too.
"""

from fractions import Fraction
from math import isqrt

H4 = [[Fraction(x, 2) for x in row]
      for row in ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))]
SIGMA = (3, 2, 2, 1)
U = H4
V = [row + [Fraction(0)] for row in H4] + [[Fraction(0)] * 4 + [Fraction(1)]]


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col) if a and b), Fraction(0)) for col in zip(*B)]
            for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def hadamard_x(c=1, sigma=SIGMA):
    """c X, 4 x 5, as rows of Fractions; X has the singular values sigma."""
    US = [[u * (c * s) for u, s in zip(row, sigma)] for row in U]
    return matmul(US, transpose([row[:4] for row in V]))


def canonical_point(sel, c=1):
    """(W, S) = (U_sel, c diag(sigma_sel) V_sel^T), the canonical point of the
    0-based selection sel of c X at orbit scale 1, with k = len(sel)."""
    W = [[row[i] for i in sel] for row in U]
    S = [[c * SIGMA[i] * V[j][i] for j in range(len(V))] for i in sel]
    return W, S


def balanced_point(sel, k, sigma):
    """(W, S) = ([U_sel sqrt(L), 0], [sqrt(L) V_sel^T; 0]), the balanced point
    of the 0-based selection sel of hadamard_x(1, sigma) with k columns;
    every selected value must be a perfect square."""
    root = [isqrt(sigma[i]) for i in sel]
    assert all(x * x == sigma[i] for x, i in zip(root, sel)), (sel, sigma)
    W = [[row[i] * x for i, x in zip(sel, root)] + [Fraction(0)] * (k - len(sel)) for row in U]
    S = ([[x * V[j][i] for j in range(len(V))] for i, x in zip(sel, root)]
         + [[Fraction(0)] * len(V) for _ in range(k - len(sel))])
    return W, S


def inverse(A):
    """A^-1 by Gauss-Jordan elimination; A must be invertible."""
    k = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(A)]
    for c in range(k):
        p = next(r for r in range(c, k) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(k):
            if r != c and M[r][c] != 0:
                M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
    return [row[k:] for row in M]


def act(W, S, A):
    """L_A(W, S) = (W A, A^-1 S)."""
    return matmul(W, A), matmul(inverse(A), S)


def hessian(X, W, S):
    """The N x N Hessian of J at (W, S), N = k (m + n), by polarization."""
    m, n, k = len(X), len(X[0]), len(S)
    WS = matmul(W, S)
    E = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(WS, X)]
    # unit tangents: ("G", i, c) for dW[i][c], then ("H", c, j) for dS[c][j]
    units = ([("G", i, c) for i in range(m) for c in range(k)]
             + [("H", c, j) for c in range(k) for j in range(n)])

    def Q(terms):
        """Q at the tangent sum of coefficient * unit over terms."""
        dW = [[Fraction(0)] * k for _ in range(m)]
        dS = [[Fraction(0)] * n for _ in range(k)]
        for coef, (part, a, b) in terms:
            (dW if part == "G" else dS)[a][b] += coef
        L = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(matmul(dW, S), matmul(W, dS))]
        cross = matmul(dW, dS)
        return (sum(x * x for row in L for x in row)
                + 2 * sum(e * x for r1, r2 in zip(E, cross) for e, x in zip(r1, r2)))

    N = len(units)
    M = [[Fraction(0)] * N for _ in range(N)]
    for a in range(N):
        M[a][a] = Q([(1, units[a])])
        for b in range(a + 1, N):
            M[a][b] = M[b][a] = (Q([(1, units[a]), (1, units[b])])
                                 - Q([(1, units[a]), (-1, units[b])])) / 4
    return M


def charpoly(M):
    """Coefficients [1, c_1, ..., c_N] of det(t I - M), highest degree first,
    by Berkowitz's recursion over the leading principal submatrices."""
    poly = [Fraction(1)]
    for r in range(len(M)):
        # M_{r+1} = [[M_r, s], [row, a]]: the column q = [1, -a, -row s,
        # -row M_r s, ...] of a lower-triangular Toeplitz matrix times poly.
        a, row = M[r][r], M[r][:r]
        v = [M[i][r] for i in range(r)]
        q = [Fraction(1), -a]
        for _ in range(r):
            q.append(-sum((x * y for x, y in zip(row, v)), Fraction(0)))
            v = [sum((M[i][j] * v[j] for j in range(r) if M[i][j]), Fraction(0))
                 for i in range(r)]
        poly = [sum((q[i - j] * poly[j] for j in range(len(poly)) if 0 <= i - j < len(q)),
                    Fraction(0)) for i in range(r + 2)]
    return poly


def _sign_changes(coefs):
    signs = [c > 0 for c in coefs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def shifted(p, b):
    """Coefficients of p(t + b), highest degree first like p's, by repeated
    synthetic division (Taylor shift)."""
    q = list(p)
    for i in range(len(q) - 1, 0, -1):
        for j in range(1, i + 1):
            q[j] += b * q[j - 1]
    return q


def roots_below(p, b):
    """(the number of roots of p below b, the multiplicity of b as a root),
    for p with only real roots, such as a characteristic polynomial of a
    symmetric matrix: the negative roots of p(t + b) by Descartes' rule, and
    the index of its lowest nonzero coefficient."""
    q = shifted(p, b)
    N = len(q) - 1
    mult = next(i for i, c in enumerate(reversed(q)) if c != 0)
    return _sign_changes([c if (N - i) % 2 == 0 else -c for i, c in enumerate(q)]), mult


def inertia(M):
    """(n_pos, n_neg, n_zero) of the symmetric rational matrix M, exactly."""
    p = charpoly(M)
    N = len(p) - 1
    neg, zero = roots_below(p, 0)
    pos = _sign_changes(p)
    assert pos + neg + zero == N, (pos, neg, zero, N)
    return pos, neg, zero
