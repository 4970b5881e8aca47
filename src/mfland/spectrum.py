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

A spectrum is built once, into tables allocated at their final size.  The
block table has one column per 1 x 1 or 2 x 2 block: it starts at the
defaults (zero factors, zero entries), and every family writes only the
fields it sets, broadcast over its index grid.  The 2 x 2 blocks are split
by ``canonical._split_pair``, and the eigenpair tables (value; branch,
zero mark and block) hold one column per eigenpair, all k (m + n) of them.
Each eigenvector is a pair of rank-one matrices kept as indices into the
singular bases, the kernel frame (``model.KernelFrame``) and a table of
coefficient vectors, so a spectrum costs O(k (m + n)) memory.  An
:class:`EigPair` is made only when one is read from
``SpectrumReport.eigpairs``: its two block coefficients (``_pair_vectors``)
and any kernel column are computed then, and its dense tangent pair only
when ``EigPair.vector`` is read.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

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
from .model import KernelFrame, TangentPair

# Relative gap between two sums of squares under which _pair_vectors takes
# its choice of eigenvector form from pow() squares (see there).
_NEAR_TIE = 1e-12


@dataclass(frozen=True)
class EigPair:
    """One closed-form Hessian eigenpair, its eigenvector kept as factors.

    The unit eigenvector is the tangent pair (G, H) with
    ``G = cl * outer(uG, cG)`` and ``H = cr * outer(cH, vH)``: ``uG`` and
    ``vH`` are columns of ``X.U`` and of ``X.V`` (or of the kernel
    frame), ``cG`` and ``cH`` are length-k coefficient vectors, and a half
    that vanishes has coefficient 0 and zero factors.  ``vector`` builds the
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


# Family codes: the family's name and the names of its two indices.
_FAMILIES = (
    ("sigma_lambda_pair", "i", "j"),
    ("sigma_omega_pair", "i", "l"),
    ("left_kernel_lambda", "i", "j"),
    ("left_kernel_omega", "i", "l"),
    ("selected_cross_pair", "j", "s"),
    ("zero_lambda_column", "j", "s"),
    ("c0_cross_pair", "j", "l"),
    ("right_kernel_selected", "j", "l"),
    ("c0_dead_coord", "j", "l"),
    ("right_kernel_null", "l", "s"),
    ("right_kernel_null", "l", "z"),
)
(_SIGMA_LAMBDA, _SIGMA_OMEGA, _LEFT_LAMBDA, _LEFT_OMEGA, _SELECTED_CROSS,
 _ZERO_LAMBDA, _C0_CROSS, _RIGHT_SELECTED, _C0_DEAD, _RIGHT_NULL_S,
 _RIGHT_NULL_Z) = range(len(_FAMILIES))

# Block kinds: 1 x 1 over a left or a right direction, a 2 x 2 block, and a
# 2 x 2 block whose determinant is exactly zero.
_LEFT, _RIGHT, _PAIR, _ZERO_PAIR = range(4)

# Fields of a block: kind, family, the two provenance indices, the column u
# of X.U, the rows cg and ch of the coefficient table, the column v of the
# right basis (X.V, then the kernel frame), 1 where the 1 x 1 or lower value
# is zero by formula, and the entries [[p11, p12], [p12, p22]].  Index -1 (u, v) and the
# table's last row (cg, ch) stand for a zero factor.
_INDEX_FIELDS = ("kind", "family", "ia", "ib", "u", "cg", "ch", "v", "zero")
_ENTRY_FIELDS = ("p11", "p12", "p22")
# Field -> (table, row): table 0 holds the index fields, table 1 the entries.
_FIELD_ROW = {key: (table, row)
              for table, keys in enumerate((_INDEX_FIELDS, _ENTRY_FIELDS))
              for row, key in enumerate(keys)}


class _EigPairs(Sequence):
    """The eigenpairs of one spectrum as aligned tables.

    Per eigenpair: its ``value``, and as a column of ``ints`` its ``branch``
    (-1 lower, +1 upper, 0 for 1 x 1), ``zero`` (1 where the value is zero
    by formula) and ``block``, a column of the block tables ``index`` (the
    rows of ``_INDEX_FIELDS``) and ``entry`` (p11, p12, p22).  Item i is an
    :class:`EigPair` made on read: a 1 x 1 block's coefficients are 1 and 0,
    a 2 x 2 block's come from ``_pair_vectors`` on its entries and value,
    and the coupling is ``cr / cl``.  Slices return tuples of them.
    """

    def __init__(self, values, ints, index, entry, bases):
        values.flags.writeable = ints.flags.writeable = False
        self._values, self._ints = values, ints
        self._index, self._entry = index, entry
        self._bases = bases  # (U, V, frame, coef, zero_m, zero_n)

    @property
    def values(self):
        return self._values

    @property
    def zero(self):
        return self._ints[1] != 0

    def take(self, order):
        return _EigPairs(self._values.take(order), self._ints.take(order, axis=1),
                         self._index, self._entry, self._bases)

    def __len__(self):
        return self._values.size

    def __getitem__(self, i):
        j = range(len(self))[i]
        return tuple(map(self._pair, j)) if isinstance(i, slice) else self._pair(j)

    def __iter__(self):
        return map(self._pair, range(len(self)))

    def _pair(self, j):
        U, V, frame, coef, zm, zn = self._bases
        value = float(self._values[j])
        branch, _, blk = self._ints[:, j].tolist()
        kind, family, ia, ib, u, cg, ch, v, _ = self._index[:, blk].tolist()
        name, na, nb = _FAMILIES[family]
        prov = f"{name}({na}={ia},{nb}={ib})"
        coupling = None
        if branch:
            prov += ",branch=-" if branch < 0 else ",branch=+"
            cl, cr = _pair_vectors(*self._entry[:, blk].tolist(), value)
            # cl underflows to +-0 far out on an orbit: IEEE x / +-0, which Python refuses
            coupling = cr / cl if cl else cr * math.copysign(math.inf, cl)
        else:
            cl = float(kind != _RIGHT)
            cr = 1.0 - cl
        n = V.shape[1]
        vH = zn if v < 0 else V[:, v] if v < n else frame.column(v - n)
        return EigPair(value=value, cl=cl, uG=U[:, u] if u >= 0 else zm,
                       cG=coef[cg], cr=cr, cH=coef[ch], vH=vH, provenance=prov, coupling=coupling)


@dataclass(frozen=True)
class SpectrumReport:
    """A closed-form spectrum sorted by value.

    ``eigpairs`` is a read-only sequence built once as arrays; indexing or
    iterating it makes each :class:`EigPair` on read.  ``values`` is the
    sorted value array it holds (read-only), or, when ``eigpairs`` has been
    replaced by a plain tuple, the values of its items.
    """

    eigpairs: Sequence
    inertia: tuple  # (positive, negative, zero)
    lambda_min: float
    point: object  # the FactorPair the spectrum belongs to

    @property
    def values(self):
        if isinstance(self.eigpairs, _EigPairs):
            return self.eigpairs.values
        return np.array([e.value for e in self.eigpairs])


def _report(eigpairs, point):
    eigpairs = eigpairs.take(np.argsort(eigpairs.values, kind="stable"))
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
        point=point,
    )


def _pair_vectors(p11, p12, p22, rho):
    """Unit eigenvector (c_left, c_right) of [[p11, p12], [p12, p22]] for
    its eigenvalue rho, all four Python floats.

    Normalized from the first of the analytically equivalent forms
    (p12, rho - p11) and (rho - p22, p12) unless the second has the larger
    sum of squares; p12 != 0 guarantees both components are nonzero.  The
    JSON contract fixes that choice to squares taken with pow()
    (np.float_power), which can differ from x * x in the last bit.

    pow(x, 2) is within 1 ulp of x * x (the most seen over 1e8 draws of x^2
    from 1e-323 to 1e308, glibc 2.36 libm on x86-64), so a sum of squares s
    and its pow() counterpart differ by at most 4 * 2^-53 * s, plus 2^-1074
    per square below the normal range.  Where |s1 - s2| exceeds _NEAR_TIE *
    max(s1, s2, tiny), with tiny = 2^-1022 the smallest normal float64, the
    gap is over 1000 times the two errors together, so x * x makes the same
    choice as pow(); pow() decides only the rest, inf included.
    """
    a1, b1 = p12, rho - p11
    a2, b2 = rho - p22, p12
    s1, s2 = a1 * a1 + b1 * b1, a2 * a2 + b2 * b2
    first = s1 >= s2
    if not abs(s1 - s2) > _NEAR_TIE * max(s1, s2, 2.0**-1022):  # tiny
        with np.errstate(over="ignore"):
            sq = np.float_power
            first = bool(sq(a1, 2.0) + sq(b1, 2.0) >= sq(a2, 2.0) + sq(b2, 2.0))
    c0, c1 = (a1, b1) if first else (a2, b2)
    nrm = float(np.hypot(c0, c1))
    return c0 / nrm, c1 / nrm


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _canonical_eigpairs(cp, d=1.0):
    """All k (m + n) closed-form eigenpairs at the diagonal representative of
    cp whose selected columns carry the scales d (a scalar or q values),
    unsorted: each loop nest of blocks in turn, row by row.

    Far out on an orbit (d = 1e300 or 1e-200 at sigma_1 = 1) the block
    entries overflow or divide by an underflowed d^2; instead of NumPy
    warnings and NaN values this raises NumericalFailure when a value is not
    finite or a 2 x 2 block's p12 is 0, an O(N) check on the finished
    arrays.  That is what makes every eigenvector coefficient read later
    finite.  A 2 x 2 block's entries are finite where its branches are, and
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
    frame = KernelFrame(X, Y)
    gtol = 1e-13 * (gamma[0] if gamma.size else 0.0)
    omega = gamma**2

    # Coefficient table: e_j is row j, kernel direction l (its coefficients
    # over all k slots) is row k + l, and the last row is zero.
    coef = np.zeros((2 * k - q + 1, k))
    coef[:k] = np.eye(k)
    coef[k:-1, q:] = Z.T
    zero_row = coef.shape[0] - 1
    jq, lk = np.arange(q), np.arange(k - q)
    lam_w = np.float_power(lam, 2.0) / d2  # l_j^2 / d_j^2; pow() as in _pair_vectors
    ln = np.arange(n - r)
    g_n = np.zeros(n - r)  # gamma over the kernel columns, 0 past k - q
    g_n[: min(k - q, n - r)] = gamma[: n - r]
    live = g_n > gtol  # kernel columns coupled to the selected ones through C0
    dead = np.flatnonzero(gamma <= gtol)
    pos = lam > 0
    jcol, idx_col, ur, um = jq[:, None], idx[:, None], us_r[:, None], us_m[:, None]
    klk = k + lk  # rows of the kernel directions in the coefficient table

    # Each family's blocks form a row-major grid whose rows run through the
    # columns of every part in turn: (nrows, common fields, (ncols, fields)
    # per part).  Fields broadcast to (nrows, ncols); a part's fields take
    # precedence over the common ones.
    grids = [
        # Unselected positive singular values against every column of W / row of S.
        (us_r.size, dict(kind=_PAIR, ia=ur, u=ur, v=ur, p12=-X.sigma[ur]),
         (q, dict(family=_SIGMA_LAMBDA, ib=jq, p11=lam_w, p22=d2, cg=jq, ch=jq,
                  zero=np.abs(X.sigma[ur] - lam) <= _tie_tol(X))),
         (k - q, dict(family=_SIGMA_OMEGA, ib=lk, p11=omega, cg=klk, ch=klk))),
        # Left kernel rows (sigma_i = 0) only feel S S^T.
        (us_m.size, dict(kind=_LEFT, ia=um, u=um),
         (q, dict(family=_LEFT_LAMBDA, ib=jq, p11=lam_w, cg=jq, zero=~pos)),
         (k - q, dict(family=_LEFT_OMEGA, ib=lk, p11=omega, cg=klk, zero=gamma <= gtol))),
        # Selected columns coupled with selected rows and with the C0 block.
        (q, dict(ia=jcol, u=idx_col, p22=d2[:, None]),
         (q, dict(kind=np.where(pos, _ZERO_PAIR, _LEFT),
                  family=np.where(pos, _SELECTED_CROSS, _ZERO_LAMBDA), ib=jq,
                  p11=lam_w, p12=lam * (d[:, None] / d), cg=jq,
                  ch=np.where(pos, jcol, zero_row), v=np.where(pos, idx, -1), zero=True)),
         (n - r, dict(kind=np.where(live, _ZERO_PAIR, _RIGHT),
                      family=np.where(live, _C0_CROSS, _RIGHT_SELECTED), ib=ln,
                      p11=g_n**2, p12=g_n * d[:, None], u=np.where(live, idx_col, -1),
                      cg=np.where(live, k + ln, zero_row), ch=jcol, v=n + ln, zero=live)),
         (dead.size, dict(kind=_LEFT, family=_C0_DEAD, ib=dead, cg=k + dead, zero=True))),
        # Rows of S carried by the zero columns of W never feel the Hessian.
        (k - q, dict(kind=_RIGHT, ia=lk[:, None], ch=klk[:, None], zero=True),
         (int(np.count_nonzero(pos)), dict(family=_RIGHT_NULL_S, ib=jq[pos], v=idx[pos])),
         (n - r, dict(family=_RIGHT_NULL_Z, ib=ln, v=n + ln))),
    ]

    # The block table: one row per index field and one per entry, one column
    # per block, in grid order.  Every grid writes kind, family, ia and ib;
    # the factor fields start as zero factors and the entries as 0.
    widths = [sum(ncols for ncols, _ in parts) for _, _, *parts in grids]
    nblk = sum(g[0] * w for g, w in zip(grids, widths))
    index = np.empty((len(_INDEX_FIELDS), nblk), dtype=np.intp)
    index[4:] = ((-1,), (zero_row,), (zero_row,), (-1,), (0,))  # u, cg, ch, v, zero
    entry = np.zeros((len(_ENTRY_FIELDS), nblk))
    start = 0
    for (nrows, common, *parts), width in zip(grids, widths):
        size = nrows * width
        if not size:
            continue
        tables = (index[:, start:start + size].reshape(-1, nrows, width),
                  entry[:, start:start + size].reshape(-1, nrows, width))
        start += size
        cuts, col = [(slice(None), common)], 0
        for ncols, fields in parts:
            if ncols:
                cuts.append((slice(col, col + ncols), fields))
            col += ncols
        for cut, fields in cuts:
            for key, val in fields.items():
                table, row = _FIELD_ROW[key]
                tables[table][row, :, cut] = val

    # Block values: (lower, upper) branch, or the 1 x 1 value twice.
    kind, (p11, p12, p22) = index[0], entry
    lo = np.where(kind == _RIGHT, p22, p11)
    hi = lo.copy()
    split, zdet = kind == _PAIR, kind == _ZERO_PAIR
    hi[split], lo[split] = _split_pair(p11[split], p12[split], p22[split])
    hi[zdet], lo[zdet] = p11[zdet] + p22[zdet], 0.0

    # One eigenpair per 1 x 1 block, the lower then the upper branch per 2 x 2.
    two = kind >= _PAIR
    blk = np.repeat(np.arange(nblk), two + 1)
    assert blk.size == k * (m + n), (blk.size, k * (m + n))
    upper = np.zeros(blk.size, dtype=bool)
    upper[1:] = blk[1:] == blk[:-1]
    mix = two[blk]
    ints = np.empty((3, blk.size), dtype=np.intp)  # branch, zero, block
    ints[0] = np.where(mix, np.where(upper, 1, -1), 0)
    np.multiply(index[-1].take(blk), ~upper, out=ints[1])  # a zero is a 1 x 1 or lower value
    ints[2] = blk
    value = np.where(upper, hi[blk], lo[blk])
    # p12 / p12 is NaN where p12 has underflowed to 0: no eigenvector form
    # of that block is sure to be nonzero (see above).
    _check_finite("spectrum", d, value, p12[two] / p12[two])
    return _EigPairs(value, ints, index, entry, (X.U, X.V, frame, coef, np.zeros(m), np.zeros(n)))


def spectrum_zero_family(X, C0, k):
    """Spectrum at the zero-family point (0, C0^T V0^T)."""
    cp = zero_family_point(X, np.asarray(C0, dtype=float), k)
    return _report(_canonical_eigpairs(cp), cp.materialize())


def spectrum_full_rank_scaled(X, sel, a=1.0):
    """Spectrum at (a W_c, a^-1 S_c) for a full-rank selection (q = k)."""
    check_scale(a)
    cp = build_canonical(X, sel, k=sel.q)
    return _report(_canonical_eigpairs(cp, d=a), cp.materialize(scale=a))


def spectrum_deficient_rank(cp):
    """Spectrum at a canonical point with 1 <= q < k (arbitrary C0)."""
    if not isinstance(cp, CanonicalPoint):
        raise InvalidInput("spectrum_deficient_rank expects a CanonicalPoint")
    if not (1 <= cp.q < cp.k):
        raise InvalidSelection(
            f"deficient-rank spectrum needs 1 <= q < k, got q={cp.q}, k={cp.k}"
        )
    return _report(_canonical_eigpairs(cp), cp.materialize())


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
    return _report(_canonical_eigpairs(cp, d=root), _balanced_point(cp, root))


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
