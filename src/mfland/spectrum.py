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
coordinates, and the right kernel (d_j^2 or 0).  Every zero is zero by
formula: the lower branch of a determinant-zero family or of a
sigma_lambda_pair whose s_i ties l_j (``canonical._tie_tol``), and the 1 x 1
values of l_j = 0, of a dead coordinate and of the right kernel's null rows.
The inertia counts exactly these as zero, and every other value by its sign.

A spectrum keeps its values and zero marks sorted stably by value, each
with its emission position (grid by grid, blocks row-major, a 2 x 2 block's
lower branch first), and its inertia and lambda_min: 17 bytes per eigenpair
plus O(m + n + k).  Its factor pair and the tables that decode an eigenpair
(``_Grids``) are made on their first read and kept, and an :class:`EigPair`,
its eigenvector kept as rank-one factors in read-only arrays, is decoded
from its emission position when it is read.  ``canonical_spectrum`` is the
one builder of a canonical point's spectrum.
"""

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np

from .canonical import (
    CanonicalPoint,
    Selection,
    _balanced_point,
    _c0_svd,
    _check_finite,
    _lambda_min,
    _split_pair,
    _tie_tol,
    build_canonical,
    check_scale,
    zero_family_point,
)
from .errors import InvalidInput, InvalidSelection, NumericalFailure
from .model import KernelFrame, TangentPair, _freeze


@dataclass(frozen=True)
class EigPair:
    """One closed-form Hessian eigenpair, its eigenvector kept as factors.

    The unit eigenvector is the tangent pair (G, H) with
    ``G = cl * outer(uG, cG)`` and ``H = cr * outer(cH, vH)``: ``uG`` and
    ``vH`` are columns of ``X.U`` and of ``X.V`` (or of the kernel
    frame), ``cG`` and ``cH`` are length-k coefficient vectors, and a half
    that vanishes has coefficient 0 and zero factors.  All four are
    read-only: they view tables the whole spectrum shares.  ``vector`` builds the
    dense TangentPair on every access and does not keep it, so that walking
    all the vectors of a spectrum never holds more than one of them.

    ``provenance`` names the construction family and its indices; for the
    2 x 2 families ``coupling`` is the ratio of the right-direction to the
    left-direction coefficient in the unit eigenvector, and the two branches
    of one block multiply to -1.

    A spectrum does not hold EigPair objects: ``SpectrumReport.eigpairs``
    makes one from its arrays each time an item is read.
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


# Family codes: the family's name, the letters of its two indices and the
# kind of its blocks.  A letter says what its index names: i a singular pair
# (u_i, v_i) of X, j and s a selected column, l a kernel direction (and,
# second, the kernel column it turns), z a kernel column.
_LEFT, _RIGHT, _PAIR = range(3)  # 1 x 1 over a left or a right direction, 2 x 2
_FAMILIES = (
    ("sigma_lambda_pair", "i", "j", _PAIR),
    ("sigma_omega_pair", "i", "l", _PAIR),
    ("left_kernel_lambda", "i", "j", _LEFT),
    ("left_kernel_omega", "i", "l", _LEFT),
    ("selected_cross_pair", "j", "s", _PAIR),
    ("zero_lambda_column", "j", "s", _LEFT),
    ("c0_cross_pair", "j", "l", _PAIR),
    ("right_kernel_selected", "j", "l", _RIGHT),
    ("c0_dead_coord", "j", "l", _LEFT),
    ("right_kernel_null", "l", "s", _RIGHT),
    ("right_kernel_null", "l", "z", _RIGHT),
)
(_SIGMA_LAMBDA, _SIGMA_OMEGA, _LEFT_LAMBDA, _LEFT_OMEGA, _SELECTED_CROSS,
 _ZERO_LAMBDA, _C0_CROSS, _RIGHT_SELECTED, _C0_DEAD, _RIGHT_NULL_S,
 _RIGHT_NULL_Z) = range(len(_FAMILIES))


class _Grids:
    """Where each eigenpair of one spectrum comes from, by its emission
    position.

    The blocks form four row-major grids, ``(start, rows, width, slots,
    parts)`` each: its first emission position, the first index of each
    row, the eigenpairs per row, the first slot of each column within a row (a
    2 x 2 block takes two, lower branch first; a list, which bisection reads
    about 4x faster than a range), and its parts, ``(ncols, family, second
    index)`` over the columns in turn, the family code and the second index
    each given per column.  The rest are the spectrum's small vectors: the
    selected indices, values and scales, gamma over the kernel columns, and
    per slot t (selected column j at t = j, kernel direction l at t = q + l)
    the squared norms of row t of S and of column t of W, which are the
    diagonal entries of every block.  The coefficient table (read-only) has
    a row per slot and a zero last row.
    """

    def __init__(self, grids, X, idx, lam, d, g_n, s_sq, w_sq, coef, frame):
        self.grids, self.starts = grids, [g[0] for g in grids]
        self.X, self.g_n, self.coef, self.frame = X, g_n, _freeze(coef), frame
        self.idx, self.lam, self.d, self.s_sq, self.w_sq = (
            v.tolist() for v in (idx, lam, d, s_sq, w_sq))
        self.zm, self.zn = _freeze(np.zeros(X.m)), _freeze(np.zeros(X.n))

    def eigpair(self, p, value):
        """The EigPair at emission position p, of the given value: the grid by
        its start, the row by division and the column by a search over the
        row's slots; then the block's indices, factors and entries, each entry
        by the expression that gave the value."""
        start, rows, width, slots, parts = self.grids[bisect_right(self.starts, p) - 1]
        row, rem = divmod(p - start, width)
        c = bisect_right(slots, rem) - 1
        upper = rem > slots[c]
        for ncols, family, second in parts:
            if c < ncols:
                break
            c -= ncols
        a, b = int(rows[row]), second[c]
        name, na, nb, kind = _FAMILIES[family[c]]
        prov = f"{name}({na}={a},{nb}={b})"
        X, idx, coef, q = self.X, self.idx, self.coef, len(self.d)
        g = b if nb in "js" else q + b  # the slot of the G half
        h = g if na == "i" else a if na == "j" else q + a  # and of the H half
        if kind == _RIGHT:
            uG, cG = self.zm, coef[-1]
        else:
            uG, cG = X.U[:, a if na == "i" else idx[a]], coef[g]
        if kind == _LEFT:
            cH, vH = coef[-1], self.zn
        else:
            cH = coef[h]
            vH = (X.V[:, a] if na == "i" else X.V[:, idx[b]] if nb == "s"
                  else self.frame.column(b))
        coupling = None
        if kind == _PAIR:
            prov += ",branch=+" if upper else ",branch=-"
            d = self.d
            p12 = (-float(X.sigma[a]) if na == "i" else self.lam[b] * (d[a] / d[b])
                   if nb == "s" else float(self.g_n[b]) * d[a])
            cl, cr = _pair_vectors(self.s_sq[g], p12, self.w_sq[h], value)
            # cl underflows to +-0 far out on an orbit: IEEE x / +-0, which Python refuses
            coupling = cr / cl if cl else cr * math.copysign(math.inf, cl)
        else:
            cl = float(kind == _LEFT)
            cr = 1.0 - cl
        return EigPair(value=value, cl=cl, uG=uG, cG=cG, cr=cr, cH=cH, vH=vH,
                       provenance=prov, coupling=coupling)


class _EigPairs(Sequence):
    """The eigenpairs of one spectrum sorted by value: per item its ``value``,
    its ``zero`` mark (True where the value is zero by formula) and its
    emission position, read-only arrays each.  Item i is an :class:`EigPair`
    decoded by ``_Grids.eigpair`` from its emission position when it is read:
    a 1 x 1 block's coefficients are 1 and 0, a 2 x 2 block's come from
    ``_pair_vectors`` on its entries and value, and the coupling is
    ``cr / cl``.  Slices return tuples of them.  ``grids`` is a cached
    function that makes the _Grids on its first call.
    """

    def __init__(self, values, zero, pos, grids):
        values.flags.writeable = zero.flags.writeable = pos.flags.writeable = False
        self.values, self.zero, self._pos, self._grids = values, zero, pos, grids

    def __len__(self):
        return self.values.size

    def __getitem__(self, i):
        j = range(len(self))[i]
        return tuple(map(self._pair, j)) if isinstance(i, slice) else self._pair(j)

    def __iter__(self):
        return map(self._pair, range(len(self)))

    def _pair(self, i):
        return self._grids().eigpair(int(self._pos[i]), float(self.values[i]))


@dataclass(frozen=True)
class SpectrumReport:
    """A closed-form spectrum sorted by value.

    ``eigpairs`` is a read-only sequence built once as arrays; indexing or
    iterating it makes each :class:`EigPair` on read, and the first read
    makes the tables that decode them.  ``values`` is the sorted value
    array it holds (read-only), or, when ``eigpairs`` has been replaced by a
    plain tuple, the values of its items.  ``point``, the FactorPair the
    spectrum belongs to, is made by the cached function ``make_point`` on
    its first read and kept.
    """

    eigpairs: Sequence
    inertia: tuple  # (positive, negative, zero)
    lambda_min: float
    make_point: Callable = field(repr=False, compare=False)

    @property
    def point(self):
        return self.make_point()

    @property
    def values(self):
        if isinstance(self.eigpairs, _EigPairs):
            return self.eigpairs.values
        return np.array([e.value for e in self.eigpairs])


def _report(eigpairs, make_point):
    vals, zero = eigpairs.values, eigpairs.zero
    signed = vals[~zero]
    if not signed.all():
        lost = eigpairs[int(np.flatnonzero(~zero & (vals == 0.0))[0])]
        raise NumericalFailure(f"the closed-form value of {lost.provenance} is 0.0 in "
                               "float64, but it is not zero by formula")
    n_pos = int(np.count_nonzero(signed > 0))
    return SpectrumReport(
        eigpairs=eigpairs,
        inertia=(n_pos, signed.size - n_pos, vals.size - signed.size),
        lambda_min=float(vals[0]),
        make_point=make_point,
    )


def _sq(x):
    """x ** 2.0 for a Python float x, or inf where it overflows: pow()'s
    square, bit for bit np.float_power(x, 2.0)."""
    try:
        return x ** 2.0
    except OverflowError:
        return math.inf


def _pair_vectors(p11, p12, p22, rho):
    """Unit eigenvector (c_left, c_right) of [[p11, p12], [p12, p22]] for
    its eigenvalue rho, all four Python floats.

    Normalized from the first of the analytically equivalent forms
    (p12, rho - p11) and (rho - p22, p12) unless the second has the larger
    sum of squares; p12 != 0 guarantees both components are nonzero.  The
    JSON contract fixes that choice to squares taken with pow() (``_sq``),
    which can differ from x * x in the last bit.
    """
    a1, b1 = p12, rho - p11
    a2, b2 = rho - p22, p12
    c0, c1 = (a1, b1) if _sq(a1) + _sq(b1) >= _sq(a2) + _sq(b2) else (a2, b2)
    nrm = float(np.hypot(c0, c1))
    return c0 / nrm, c1 / nrm


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _canonical_eigpairs(cp, d=1.0):
    """All k (m + n) closed-form eigenpairs at the diagonal representative of
    cp whose selected columns carry the scales d (a scalar or q values),
    sorted stably by value from emission order: each grid of blocks in turn,
    row by row.

    Far out on an orbit (d = 1e300 or 1e-200 at sigma_1 = 1) the block
    entries overflow or divide by an underflowed d^2; instead of NumPy
    warnings and NaN values this raises NumericalFailure when a value is not
    finite or a 2 x 2 block's p12 is 0, an O(N) check on the values and the
    p12 of every 2 x 2 block.  That is what makes every eigenvector
    coefficient read later finite.  A 2 x 2 block's entries are finite where its branches are, and
    so is each component of both forms of ``_pair_vectors``: p12, or a
    branch less p11 >= 0 or p22 >= 0, all bounded by p11 + p22 + 2 |p12|,
    from which the upper branch is computed.  Both forms carry p12, so the
    norm they are divided by is at least |p12| > 0.  p12 (-s_i, g_l d_j or
    l_s d_j / d_s) is a product of positive factors; it underflows to 0 only
    far out on an orbit with q < k, where no public spectrum is built.
    """
    X, q, k = cp.X, cp.q, cp.k
    m, n, r = X.m, X.n, X.r
    d = np.full(q, d, dtype=float)
    d2 = d * d
    idx = np.array(cp.selection.indices, dtype=np.intp)
    lam = cp.lambdas
    unselected = np.ones(m, dtype=bool)
    unselected[idx] = False
    us_r = np.flatnonzero(unselected[:r])
    us_m = r + np.flatnonzero(unselected[r:])

    # Adapted bases: turn the kernel columns of V so that C0 = Y diag(gamma) Z^T
    # becomes diagonal across them, a frame led by Y.  With q = k there is
    # no C0 and the raw kernel basis serves.
    gamma = np.zeros(k - q)
    if k > q and n > r:
        Y, gs, Zt = _c0_svd(cp.C0)
        Z = Zt.T
        gamma[: gs.size] = gs
    else:
        Y, Z = np.zeros((n - r, 0)), np.eye(k - q)
    gtol = 1e-13 * (gamma[0] if gamma.size else 0.0)
    g_n = np.zeros(n - r)  # gamma over the kernel columns, 0 past k - q
    g_n[: min(k - q, n - r)] = gamma[: n - r]
    live = g_n > gtol  # kernel columns coupled to the selected ones through C0
    dead = np.flatnonzero(gamma <= gtol)
    pos = lam > 0
    # Per slot, the squared norms of that row of S (l_j^2 / d_j^2 with pow()
    # as in _pair_vectors, or gamma_l^2) and of that column of W.
    s_sq = np.concatenate((np.float_power(lam, 2.0) / d2, gamma**2))
    w_sq = np.concatenate((d2, np.zeros(k - q)))
    # The columns of the third grid, which are 2 x 2 (two) or right 1 x 1.
    two = np.concatenate((pos, live, np.zeros(dead.size, dtype=bool)))
    right = np.concatenate((np.zeros(q, dtype=bool), ~live, np.zeros(dead.size, dtype=bool)))
    counts = two + 1
    slots, width = np.cumsum(counts) - counts, int(counts.sum())
    s_pos = np.flatnonzero(pos)
    null_width = s_pos.size + n - r
    a0, a1, a2, a3, a4 = starts = list(accumulate(
        (us_r.size * 2 * k, us_m.size * k, q * width, (k - q) * null_width), initial=0))
    assert a4 == k * (m + n), (a4, k * (m + n))

    # The values and zero marks, grid by grid in emission order: a 2 x 2
    # block's lower branch, then its upper one.
    values, zero = np.empty(a4), np.zeros(a4, dtype=bool)
    p12_sigma = -X.sigma[us_r]
    hi, lo = _split_pair(s_sq, p12_sigma[:, None], w_sq)
    block = values[a0:a1].reshape(us_r.size, k, 2)
    block[..., 0], block[..., 1] = lo, hi
    zero[a0:a1].reshape(us_r.size, k, 2)[:, :q, 0] = (
        np.abs(X.sigma[us_r, None] - lam) <= _tie_tol(X))
    values[a1:a2].reshape(us_m.size, k)[:] = s_sq
    zero[a1:a2].reshape(us_m.size, k)[:] = np.concatenate((~pos, gamma <= gtol))
    p11 = np.concatenate((s_sq[:q], g_n**2, np.zeros(dead.size)))
    block = values[a2:a3].reshape(q, width)
    block[:, slots] = np.where(right, d2[:, None], np.where(two, 0.0, p11))
    block[:, slots[two] + 1] = p11[two] + d2[:, None]
    zero[a2:a3].reshape(q, width)[:, slots] = ~right
    values[a3:a4], zero[a3:a4] = 0.0, True

    # The couplings p12 of the 2 x 2 blocks: p12 / p12 is NaN where p12 has
    # underflowed to 0, and then no eigenvector form of that block is sure
    # to be nonzero (see above).
    p12 = (p12_sigma, lam[pos] * (d[:, None] / d[pos]), g_n[live] * d[:, None])
    _check_finite("spectrum", d, values, *(c / c for c in p12))

    def make_grids():
        """The _Grids that decodes these eigenpairs, made on the first read."""
        # Coefficient table: a row per slot, e_j for selected column j and at
        # q + l kernel direction l (its coefficients over all k columns), and
        # a zero last row.
        coef = np.zeros((k + 1, k))
        coef[:q, :q] = np.eye(q)
        coef[q:k, q:] = Z.T
        grids = [
            # Unselected positive singular values against every slot.
            (us_r, 2 * k, list(range(0, 2 * k, 2)),
             ((q, [_SIGMA_LAMBDA] * q, range(q)),
              (k - q, [_SIGMA_OMEGA] * (k - q), range(k - q)))),
            # Left kernel rows (sigma_i = 0) only feel S S^T.
            (us_m, k, list(range(k)),
             ((q, [_LEFT_LAMBDA] * q, range(q)),
              (k - q, [_LEFT_OMEGA] * (k - q), range(k - q)))),
            # Selected column j against the selected rows (2 x 2 where l_s > 0),
            # the kernel columns (2 x 2 where live) and the dead coordinates.
            (range(q), width, slots.tolist(),
             ((q, np.where(pos, _SELECTED_CROSS, _ZERO_LAMBDA).tolist(), range(q)),
              (n - r, np.where(live, _C0_CROSS, _RIGHT_SELECTED).tolist(), range(n - r)),
              (dead.size, [_C0_DEAD] * dead.size, dead.tolist()))),
            # Rows of S carried by the zero columns of W never feel the Hessian.
            (range(k - q), null_width, list(range(null_width)),
             ((s_pos.size, [_RIGHT_NULL_S] * s_pos.size, s_pos.tolist()),
              (n - r, [_RIGHT_NULL_Z] * (n - r), range(n - r)))),
        ]
        return _Grids([(a, *grid) for a, grid in zip(starts, grids)],
                      X, idx, lam, d, g_n, s_sq, w_sq, coef, KernelFrame(X, Y))

    order = np.argsort(values, kind="stable")
    return _EigPairs(values.take(order), zero.take(order), order, cache(make_grids))


def spectrum_zero_family(X, C0, k):
    """Spectrum at the zero-family point (0, C0^T V0^T)."""
    return canonical_spectrum(zero_family_point(X, np.asarray(C0, dtype=float), k))[0]


def spectrum_full_rank_scaled(X, sel, a=1.0):
    """Spectrum at (a W_c, a^-1 S_c) for a full-rank selection (q = k); a
    refused scale is reported before a refused selection."""
    check_scale(a)
    return canonical_spectrum(build_canonical(X, sel, k=sel.q), a)[0]


def spectrum_deficient_rank(cp):
    """Spectrum at a canonical point with 1 <= q < k (arbitrary C0)."""
    if not isinstance(cp, CanonicalPoint):
        raise InvalidInput("spectrum_deficient_rank expects a CanonicalPoint")
    if not (1 <= cp.q < cp.k):
        raise InvalidSelection(f"deficient-rank spectrum needs 1 <= q < k, got q={cp.q}, k={cp.k}")
    return canonical_spectrum(cp)[0]


def canonical_spectrum(cp, a=1.0):
    """(report, family name) of canonical point cp at orbit scale a, the one
    builder of the canonical spectra: InvalidInput for a != 1 unless q = k,
    and then for a scale that check_scale refuses."""
    if a != 1.0 and cp.q != cp.k:
        raise InvalidInput(f"an orbit scale a != 1 needs q = k, got q = {cp.q}, k = {cp.k}")
    check_scale(a)
    family = {0: "zero", cp.k: "canonical-full-rank"}.get(cp.q, "canonical-deficient")
    return _report(_canonical_eigpairs(cp, d=a), cache(lambda: cp.materialize(scale=a))), family


def spectrum_balanced(X, sel, k):
    """Spectrum at the balanced point (U_sel sqrt(L), [sqrt(L) V_sel^T; 0]).

    It is the diagonal representative with d_j = sqrt(lambda_j) and C0 = 0,
    so every value is closed form: lambda_j +- s_i for unselected s_i > 0,
    +-s_i against the unused columns, 0 and lambda_s + lambda_j for selected
    pairs, lambda_j on the left kernel and on the right kernel, and 0.  The
    empty selection gives the origin.
    """
    cp = CanonicalPoint(X, sel, k)
    root = cp.balanced_scales()
    return _report(_canonical_eigpairs(cp, d=root), cache(lambda: _balanced_point(cp, root)))


def lambda_min_closed_form(X, sel, k, C0=None, a=1.0):
    """Smallest Hessian eigenvalue at the scaled canonical point
    (a W_c, a^-1 S_c) of sel (None for the zero family), in closed form.

    That point is the diagonal representative with d_j = a and kernel block
    C0 / a.  Raises NotASaddle when no negative direction exists.
    """
    check_scale(a)
    if C0 is not None:
        C0 = np.asarray(C0, dtype=float) / a
    cp = CanonicalPoint(X, Selection(()) if sel is None else sel, k, C0)
    return _lambda_min(cp, d=a)


def lambda_min_balanced(X, sel, k):
    """Closed-form smallest eigenvalue at a balanced strict saddle."""
    cp = CanonicalPoint(X, sel, k)
    return _lambda_min(cp, d=cp.balanced_scales())
