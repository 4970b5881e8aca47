"""Closed-form spectra versus the dense numeric oracle.

The matched-multiset tolerance (1e-8 absolute) is deliberately far looser
than the observed agreement (~1e-13) so failures indicate real defects, not
rounding noise.
"""

import dataclasses
import functools
import math
import re
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfland import (
    CanonicalPoint,
    InvalidInput,
    InvalidSelection,
    FactorPair,
    MflandError,
    NotASaddle,
    NumericalFailure,
    Selection,
    TangentPair,
    block_spectrum,
    build_balanced,
    build_canonical,
    canonical_spectrum,
    classify_canonical,
    flatten_tangent,
    dense_hessian,
    hessian_apply,
    inertia_of,
    lambda_min_balanced,
    lambda_min_closed_form,
    load_data_matrix,
    numeric_spectrum,
    spectrum_balanced,
    spectrum_deficient_rank,
    spectrum_full_rank_scaled,
    spectrum_zero_family,
)
from mfland import spectrum
from mfland.canonical import _split_pair, zero_family_point
from mfland.spectrum import EigPair, _canonical_eigpairs, _report
from matrix_kinds import KINDS, X21, X321, canonical_inertia, gaussian, haar, matrix_of_kind

MATCH_TOL = 1e-8
# A kind of X, the exponent of its scale 10^e and the seed it is drawn from.
LANDSCAPE = (st.sampled_from(KINDS), st.floats(-3, 3), st.integers(0, 2**16))


def _assert_match(X, rep):
    assert len(rep.eigpairs) == rep.point.k * (X.m + X.n)
    np.testing.assert_allclose(
        np.sort(rep.values), numeric_spectrum(X, rep.point)[0], atol=MATCH_TOL
    )


# ------------------------------------------------------------ pinned cases --

def test_worked_spectrum_diag21():
    rep = spectrum_full_rank_scaled(X21, Selection((1,)), a=1.0)
    np.testing.assert_allclose(np.sort(rep.values), [-1, 0, 1, 2, 3], atol=1e-12)
    assert rep.inertia == (3, 1, 1)
    assert rep.lambda_min == pytest.approx(-1.0, abs=1e-12)


def test_worked_inertia_full_selection():
    rep = spectrum_full_rank_scaled(X321, Selection((0, 1)), a=1.0)
    assert rep.inertia == (10, 0, 4)
    assert rep.lambda_min == pytest.approx(0.0, abs=1e-12)


def test_zero_family_worked_case():
    # sigma_1 = 2 against a kernel weight of 3 gives exactly -1
    C0 = np.array([[np.sqrt(3.0)]])
    rep = spectrum_zero_family(X21, C0, 1)
    _assert_match(X21, rep)
    assert rep.lambda_min == pytest.approx(-1.0, abs=1e-12)
    assert lambda_min_closed_form(X21, Selection(()), 1, C0=C0) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_zero_family_pm_sigma_pairs():
    X = load_data_matrix(np.diag([2.0, 1.0]))
    rep = spectrum_zero_family(X, np.zeros((0, 1)), 1)
    np.testing.assert_allclose(np.sort(rep.values), [-2, -1, 1, 2], atol=1e-12)


def test_scaled_worked_value():
    lam = lambda_min_closed_form(X21, Selection((1,)), 1, a=2.0)
    assert lam == pytest.approx(-24.0 / (17.0 + np.sqrt(481.0)), abs=1e-14)


# ------------------------------------------------------- oracle agreement ---

@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2**16))
@example("tied", 0)
@example("rank-deficient", 0)
@example("tall", 0)
@example("square", 0)
@example("generic", 0)
def test_closed_forms_match_the_oracle_everywhere(kind, seed):
    """Every k <= m and 0 <= q <= min(k, r): the zero family at q = 0, the
    full-rank point at a scale a != 1 at q = k, and the deficient point with a
    C0 in between.  The balanced point has the stricter property below."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(matrix_of_kind(kind, rng))
    for k in range(1, X.m + 1):
        for q in range(min(k, X.r) + 1):
            sel = Selection(tuple(sorted(rng.choice(X.r, size=q, replace=False).tolist())))
            C0 = rng.standard_normal((X.n - X.r, k - q))
            a = float(rng.uniform(0.3, 2.5)) if q == k else 1.0
            _assert_match(X, canonical_spectrum(CanonicalPoint(X, sel, k, C0), a)[0])


def _built(build):
    """What a spectrum build gives: its values and zero marks, inertia,
    lambda_min and point, as bytes, or the type and message it raises."""
    try:
        rep = build()
    except MflandError as exc:
        return type(exc), str(exc)
    return (rep.values.tobytes(), rep.eigpairs.zero.tobytes(), rep.inertia,
            rep.lambda_min, rep.point.W.tobytes(), rep.point.S.tobytes())


@settings(max_examples=30, deadline=None)
@given(*LANDSCAPE)
@example("tied", 0.0, 0)
@example("rank-deficient", 0.0, 0)
@example("tall", 0.0, 0)
@example("square", 0.0, 0)
@example("generic", 0.0, 0)
def test_canonical_spectrum_is_the_builder_its_q_picks(kind, exponent, seed):
    """At every k and q, and at q = k at orbit scales that build and that are
    refused, canonical_spectrum gives what the builder of its family gives,
    bit for bit, or raises its error with its message."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, rng))
    for k in range(1, X.m + 1):
        for q in range(min(k, X.r) + 1):
            sel = Selection(tuple(sorted(rng.choice(X.r, size=q, replace=False).tolist())))
            cp = CanonicalPoint(X, sel, k, rng.standard_normal((X.n - X.r, k - q)))
            scales = (1.0,)
            if q == k:
                scales += (-float(rng.uniform(0.3, 2.5)), 1e300, 1e-200, 0.0, math.inf)
            for a in scales:
                want = _built(lambda: spectrum_zero_family(X, cp.C0, k) if q == 0
                              else spectrum_deficient_rank(cp) if q < k
                              else spectrum_full_rank_scaled(X, sel, a=a))
                assert _built(lambda: canonical_spectrum(cp, a)[0]) == want, (k, sel, a)
            family = {0: "zero", k: "canonical-full-rank"}.get(q, "canonical-deficient")
            assert canonical_spectrum(cp)[1] == family


@pytest.mark.parametrize("sel, k", [((), 1), ((0,), 2), ((1,), 3)])
def test_canonical_spectrum_refuses_an_orbit_scale_off_q_equals_k(sel, k):
    """Only a point with q = k has orbit scales; the refusal names q and k."""
    cp = CanonicalPoint(X321, Selection(sel), k)
    with pytest.raises(InvalidInput, match=rf"^an orbit scale a != 1 needs q = k, "
                                           rf"got q = {len(sel)}, k = {k}$"):
        canonical_spectrum(cp, 2.0)


@settings(max_examples=30, deadline=None)
@given(*LANDSCAPE)
def test_balanced_spectrum_is_closed_form_everywhere(kind, exponent, seed):
    """Every k <= min(m, n) and 1 <= q <= min(k, r), against the dense oracle."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, rng))
    s1 = float(X.sigma[0])
    for k in range(1, X.m + 1):
        for q in range(1, min(k, X.r) + 1):
            sel = Selection(tuple(sorted(rng.choice(X.r, size=q, replace=False).tolist())))
            rep = spectrum_balanced(X, sel, k)
            assert len(rep.eigpairs) == k * (X.m + X.n)
            hess = dense_hessian(X, rep.point)
            ev = np.linalg.eigh(hess.matrix)[0]
            assert np.max(np.abs(rep.values - ev)) <= 1e-12 * s1
            V = np.column_stack([flatten_tangent(e.vector) for e in rep.eigpairs])
            resid = np.linalg.norm(hess.matrix @ V - V * rep.values, axis=0)
            assert np.max(resid) <= 1e-12 * s1
            assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12
            try:
                lam_min = lambda_min_balanced(X, sel, k)
            except NotASaddle:
                continue
            assert abs(rep.lambda_min - lam_min) <= 1e-12 * s1


# ------------------------------------------------------- scale covariance --

@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6])
def test_classification_and_inertia_are_scale_covariant(c):
    """X -> c X changes nothing discrete and, at the points that scale with
    it (scale a -> sqrt(c) a, and the balanced point), multiplies every
    eigenvalue by c."""
    A = np.random.default_rng(3).standard_normal((4, 6))
    X, Xc = load_data_matrix(A), load_data_matrix(c * A)
    sel = Selection((0, 2))  # skips sigma_2: a saddle
    for k in (2, 3):
        res, res_c = (classify_canonical(build_canonical(Y, sel, k)) for Y in (X, Xc))
        assert (res_c.kind, res_c.p) == (res.kind, res.p) == ("StrictSaddle", 2)
        assert lambda_min_closed_form(Xc, sel, k, a=np.sqrt(c)) == pytest.approx(
            c * res.lambda_min_closed_form, rel=1e-9)
    pairs = [
        (spectrum_full_rank_scaled(X, sel),
         spectrum_full_rank_scaled(Xc, sel, a=np.sqrt(c))),
        (spectrum_balanced(X, sel, 2), spectrum_balanced(Xc, sel, 2)),
        (spectrum_balanced(X, sel, 3), spectrum_balanced(Xc, sel, 3)),
    ]
    assert pairs[0][1].inertia == (15, 1, 4)
    for rep, rep_c in pairs:
        assert rep_c.inertia == rep.inertia
        assert rep_c.lambda_min == pytest.approx(c * rep.lambda_min, rel=1e-9)


def _canonical_points(kind, c):
    """(X, c X, selection, k, C0) over seeds 0-3 of the kind, every k <= 3,
    q <= k and selection, with a Gaussian C0 for X."""
    for seed in range(4):
        raw = matrix_of_kind(kind, np.random.default_rng(seed))
        X, Xc = load_data_matrix(raw), load_data_matrix(c * raw)
        rng = np.random.default_rng([seed, 7])
        for k in range(1, min(3, X.m) + 1):
            for q in range(k + 1):
                for sel in combinations(range(X.m), q):
                    yield X, Xc, sel, k, rng.standard_normal((X.n - X.r, k - q))


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_inertia_is_the_oracle_count_at_unit_scale(kind):
    """At sigma_1 of order 1 every genuine value is far above the oracle's
    floor, so the values zero by formula and the signs of the rest count as
    inertia_of counts the oracle's equilibrated values at its default floor."""
    for X, _, sel, k, C0 in _canonical_points(kind, 1.0):
        p = CanonicalPoint(X, Selection(sel), k, C0).materialize()
        assert canonical_inertia(X, sel, k, C0) == inertia_of(X, p), (k, sel)


@pytest.mark.parametrize("c", [1e-30, 1e-20, 1e-6, 1e-3, 1e3, 1e6, 1e20, 1e30])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_inertia_is_the_same_at_every_scale(kind, c):
    """The canonical point of c X, with C0 times sqrt(c), has the inertia of
    X's, since its zeros are zero by formula.  A zero floor of 1e-10
    max(sigma_1, |largest value|) miscounted 975 of these 2288 points: the
    genuine values run from O(1) to O(sigma_1^2).  C0's columns are dead
    below 1e-13 gamma_1, not below 1e-13 max(1, gamma_1), which called every
    column of C0 dead at c = 1e-30."""
    for X, Xc, sel, k, C0 in _canonical_points(kind, c):
        assert (canonical_inertia(Xc, sel, k, np.sqrt(c) * C0)
                == canonical_inertia(X, sel, k, C0)), (k, sel)


@settings(max_examples=40, deadline=None)
@given(*LANDSCAPE)
def test_per_column_scales_with_a_live_C0_match_the_oracle(kind, exponent, seed):
    """At every k > 1, a random 1 <= q < k and a Gaussian C0, the point
    ([U_sel diag(d), 0], [diag(lambda / d) V_sel^T; C0^T V0^T]) is critical for
    every d; with a random d per column, the closed-form values equal
    block_spectrum's there to 1e-12 of the largest |value|, and each
    closed-form eigenvector has a Hessian-action residual within 1e-12 of it.
    The c0_cross_pair's coupling g_l d_j is reached here only: its value
    does not depend on it."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, rng))
    for k in range(2, X.m + 1):
        q = int(rng.integers(1, k))
        idx = sorted(rng.choice(X.m, size=q, replace=False).tolist())
        C0 = 10.0 ** (exponent / 2) * rng.standard_normal((X.n - X.r, k - q))
        d = np.exp(rng.uniform(-1.0, 1.0, q))
        cp = CanonicalPoint(X, Selection(tuple(idx)), k, C0)
        W, S = np.zeros((X.m, k)), np.zeros((k, X.n))
        W[:, :q] = X.U[:, idx] * d
        S[:q] = (cp.lambdas / d)[:, None] * X.V[:, idx].T
        S[q:] = C0.T @ X.V0.T
        p = FactorPair(W, S)
        pairs = _canonical_eigpairs(cp, d)
        ref = block_spectrum(X, p)
        big = float(np.max(np.abs(ref)))
        assert np.max(np.abs(np.sort(pairs.values) - ref)) <= 1e-12 * big
        for e in pairs:
            v = e.vector
            assert hessian_apply(X, p, v).distance(
                TangentPair(e.value * v.G, e.value * v.H)) <= 1e-12 * big


# --------------------------------------------------------- eigpair quality --

def _large_point():
    """A deficient point with N = k (m + n) = 5000 on a 200 x 300 Gaussian X."""
    rng = np.random.default_rng(0)
    return build_canonical(load_data_matrix(rng.standard_normal((200, 300))),
                           Selection((0, 1, 2, 3, 5)), 10, C0=rng.standard_normal((100, 5)))


def _residual(X, p, e):
    """||hess J(p) v - value v|| for the eigenpair e at p."""
    v = e.vector
    hv = hessian_apply(X, p, v)
    return np.sqrt(np.sum((hv.G - e.value * v.G) ** 2) + np.sum((hv.H - e.value * v.H) ** 2))


def test_spectrum_memory_is_linear_in_N():
    """N = 5000: eigenvectors are kept as factors and built one at a time."""
    cp = _large_point()
    tracemalloc.start()
    try:
        rep = spectrum_deficient_rank(cp)
        norms = [e.vector.norm() for e in rep.eigpairs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.eigpairs) == 5000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    for e in rep.eigpairs[::97] + rep.eigpairs[-1:]:
        assert _residual(cp.X, rep.point, e) <= 1e-9


@pytest.mark.parametrize("family", ["full-rank", "deficient", "zero"])
def test_a_sorted_spectrum_holds_at_most_40_bytes_per_eigenpair(family):
    """N = 5000 on _large_point()'s X: once built and sorted, a spectrum
    keeps its values, zero marks and sort order and its grids' small
    vectors, at most 40 N bytes as tracemalloc counts them.  Block and
    eigenpair tables held about 91 N."""
    cp = _large_point()
    X, rng = cp.X, np.random.default_rng(1)
    cp, d = {"full-rank": (build_canonical(X, Selection(tuple(range(9)) + (10,)), 10), 1.5),
             "deficient": (cp, 1.0),
             "zero": (zero_family_point(X, rng.standard_normal((100, 10)), 10), 1.0)}[family]
    _report(_canonical_eigpairs(cp, d), None)  # anything cached on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = _report(_canonical_eigpairs(cp, d), None)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rep.eigpairs) == 5000
    assert held <= 40 * 5000, f"{held / 5000:.1f} bytes per eigenpair"


@pytest.mark.parametrize("kind", ["rank-deficient", "tall", "generic"])
def test_a_small_singular_value_of_C0_keeps_its_kernel_column_live(kind):
    """C0 with singular values gamma_1 and 1e-6 gamma_1 in a random frame:
    the small one is coupled to the selected column like the large one, so
    every closed-form eigenpair has a residual within 1e-9 sigma_1^2.  Taking
    its kernel column as dead leaves residuals of the order of gamma_2."""
    rng = np.random.default_rng(11)
    X = load_data_matrix(matrix_of_kind(kind, rng))
    gamma = np.sqrt(float(X.sigma[0])) * np.array([1.5, 1.5e-6])
    C0 = (haar(rng, X.n - X.r)[:, :2] * gamma) @ haar(rng, 2).T
    rep = spectrum_deficient_rank(build_canonical(X, Selection((0,)), 3, C0=C0))
    for e in rep.eigpairs:
        assert _residual(X, rep.point, e) <= 1e-9 * float(X.sigma[0]) ** 2, e.value


@pytest.fixture(scope="module")
def wide_points():
    """A 10 x 2000 Gaussian X with k = 2: its deficient point (q = 1) and a
    zero-family point, each as (X, point, spectrum builder)."""
    rng = np.random.default_rng(21)
    X = load_data_matrix(rng.standard_normal((10, 2000)))
    cp = build_canonical(X, Selection((1,)), 2, C0=rng.standard_normal((X.n - X.r, 1)))
    C0 = rng.standard_normal((X.n - X.r, 2))
    return {"deficient": (X, cp.materialize(), lambda: spectrum_deficient_rank(cp)),
            "zero": (X, zero_family_point(X, C0, 2).materialize(),
                     lambda: spectrum_zero_family(X, C0, 2))}


def _traced_peak(build):
    """(build(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["deficient", "zero"])
def test_a_wide_kernel_is_turned_column_by_column(wide_points, family):
    """n - r = 1990: the spectrum allocates under a quarter of one
    (n - r) x (n - r) array, its extreme eigenpairs and a right_kernel_null
    one have residuals within 1e-9 sigma_1^2, and five kernel columns, the
    frame's leading ones among them, are orthonormal."""
    X, point, build = wide_points[family]
    rep, peak = _traced_peak(build)
    assert peak < (X.n - X.r) ** 2 * 8 / 4, f"peak {peak / 2**20:.1f} MiB"
    zeros = np.flatnonzero(rep.eigpairs.zero)
    null = rep.eigpairs[int(zeros[zeros.size // 2])]
    assert null.provenance.startswith("right_kernel_null") and ",z=" in null.provenance
    s2 = float(X.sigma[0]) ** 2
    for e in (rep.eigpairs[0], rep.eigpairs[-1], null):
        assert _residual(X, point, e) <= 1e-9 * s2, e.provenance
    columns = {}
    for i in list(zeros[:8]) + [zeros[-1], zeros[zeros.size // 3]]:
        e = rep.eigpairs[int(i)]
        if ",z=" in e.provenance:
            columns[int(e.provenance.split(",z=")[1].rstrip(")"))] = e.vH
    assert {0, 1} <= set(columns) and len(columns) >= 5
    B = np.column_stack([columns[z] for z in sorted(columns)[:3] + sorted(columns)[-2:]])
    assert np.abs(B.T @ B - np.eye(5)).max() <= 1e-12


def test_numeric_spectrum_of_a_wide_kernel_allocates_no_kernel_square(wide_points):
    """The oracle at the wide deficient point stays under the same bound."""
    X, point, _ = wide_points["deficient"]
    (vals, _), peak = _traced_peak(lambda: numeric_spectrum(X, point))
    assert peak < (X.n - X.r) ** 2 * 8 / 4, f"peak {peak / 2**20:.1f} MiB"
    assert vals.size == 2 * (X.m + X.n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.floats(-150, 154), st.integers(0, 2**16))
def test_every_built_spectrum_reads_finite_coefficients(kind, exponent, seed):
    """At scales 10^[-150, 154], every k and q, and C0 zero, random or with a
    dead column: wherever a spectrum builds, each of its eigenpairs reads
    finite cl and cr without a NumPy warning.  A coupling may still be
    +-inf where cl underflows."""
    rng = np.random.default_rng(seed)
    c = 10.0**exponent
    X = load_data_matrix(c * matrix_of_kind(kind, rng))
    for k in range(1, X.m + 1):
        for q in range(k + 1):
            sel = Selection(tuple(sorted(rng.choice(X.m, size=q, replace=False).tolist())))
            C0 = c * rng.standard_normal((X.n - X.r, k - q))
            dead = C0.copy()
            dead[:, -1:] = 0.0
            builds = [functools.partial(spectrum_balanced, X, sel, k)]
            if q == k:
                a = float(np.exp(rng.uniform(-1.0, 1.0)))
                builds.append(functools.partial(spectrum_full_rank_scaled, X, sel, a))
            for C in (np.zeros_like(C0), C0, dead) if q < k else ():
                if q:
                    builds.append(functools.partial(spectrum_deficient_rank,
                                                    CanonicalPoint(X, sel, k, C)))
                else:
                    builds.append(functools.partial(spectrum_zero_family, X, C, k))
            for build in builds:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        rep = build()
                    except (NumericalFailure, InvalidSelection):
                        continue
                    for e in rep.eigpairs:
                        assert math.isfinite(e.cl) and math.isfinite(e.cr), e.provenance


def _all_families_report():
    """Selection (1, 3) of diag(3, 2, 1, 0, 0), k = 4, with one dead kernel
    coordinate: every family occurs."""
    X = load_data_matrix(np.diag([3.0, 2.0, 1.0, 0.0, 0.0]) @ np.eye(5, 6))
    C0 = np.array([[0.7, 0.0], [-0.4, 0.0], [0.2, 0.0]])
    return spectrum_deficient_rank(build_canonical(X, Selection((1, 3)), 4, C0=C0))


def test_eigpairs_read_like_a_tuple():
    rep = _all_families_report()
    pairs = list(rep.eigpairs)
    assert len(rep.eigpairs) == len(pairs) == 4 * (5 + 6)
    assert all(isinstance(e, EigPair) for e in pairs)
    n = len(pairs)
    for i in (0, 5, -1, np.int64(-2), n - 1, -n, np.int64(n - 1), np.int64(-n)):
        assert rep.eigpairs[i].provenance == pairs[i].provenance
        assert rep.eigpairs[i].value == pairs[i].value
    for cut in (slice(2, 9, 3), slice(None, None, -2), slice(-3, 2, -4),
                slice(np.int64(1), None, np.int64(5)), slice(n, None), slice(-n - 5, 3)):
        part = rep.eigpairs[cut]
        assert isinstance(part, tuple)
        assert [e.provenance for e in part] == [e.provenance for e in pairs[cut]]
    for i in (n, -n - 1, np.int64(n), np.int64(-n - 1)):
        with pytest.raises(IndexError):
            rep.eigpairs[i]
    with pytest.raises(TypeError):
        rep.eigpairs[1.0]
    fams = {e.provenance.split("(")[0] for e in pairs}
    assert fams == {"sigma_lambda_pair", "sigma_omega_pair", "left_kernel_lambda",
                    "left_kernel_omega", "selected_cross_pair", "zero_lambda_column",
                    "c0_cross_pair", "right_kernel_selected", "c0_dead_coord",
                    "right_kernel_null"}


def test_values_are_the_sorted_read_only_eigenvalues():
    rep = _all_families_report()
    vals = rep.values
    assert vals.tolist() == [e.value for e in rep.eigpairs]
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(ValueError):
        vals[0] = 1.0


def test_eigpair_arrays_are_read_only():
    """Every factor and coefficient array of every eigenpair refuses a write,
    so no caller can change the eigenvectors read after it through the
    tables and kernel columns a spectrum shares."""
    for rep in (_all_families_report(), spectrum_balanced(X321, Selection((0, 2)), 3)):
        before = [(e.vector.G.tobytes(), e.vector.H.tobytes()) for e in rep.eigpairs]
        for e in rep.eigpairs:
            for name in ("uG", "cG", "cH", "vH"):
                a = getattr(e, name)
                assert not a.flags.writeable, (e.provenance, name)
                with pytest.raises(ValueError):
                    a[0] = 0.0
        after = [(e.vector.G.tobytes(), e.vector.H.tobytes()) for e in rep.eigpairs]
        assert after == before


def test_values_follow_a_replaced_eigpair_tuple():
    rep = _all_families_report()
    pairs = list(rep.eigpairs)
    pairs[0] = dataclasses.replace(pairs[0], value=pairs[0].value - 1.0)
    shifted = dataclasses.replace(rep, eigpairs=tuple(pairs))
    assert shifted.values[0] == rep.values[0] - 1.0
    assert shifted.values[1:].tolist() == rep.values[1:].tolist()
    dropped = dataclasses.replace(rep, eigpairs=rep.eigpairs[1:])
    assert len(dropped.values) == len(dropped.eigpairs) == len(rep.eigpairs) - 1
    e = rep.eigpairs[-1]
    moved = dataclasses.replace(e, value=2.5)
    assert (moved.value, moved.provenance) == (2.5, e.provenance)
    np.testing.assert_array_equal(moved.vector.G, e.vector.G)


def test_point_and_decoding_tables_are_made_on_first_read(monkeypatch):
    """Building any of the four spectra and reading its values, inertia,
    lambda_min and eigenpairs calls neither CanonicalPoint.materialize nor
    _balanced_point.  The first read of point has the bits of the eager
    build and later reads return the same object; each spectrum makes its
    decoding tables (one _Grids) once, on its first eigenpair read."""
    rng = np.random.default_rng(5)
    X = load_data_matrix(rng.standard_normal((4, 6)))
    C0_half, C0_zero = rng.standard_normal((2, 1)), rng.standard_normal((2, 2))
    sel, half = Selection((0, 2)), CanonicalPoint(X, Selection((1,)), 2, C0_half)
    cases = {
        "full-rank": (lambda: spectrum_full_rank_scaled(X, sel, a=1.5),
                      lambda: build_canonical(X, sel, 2).materialize(scale=1.5)),
        "deficient": (lambda: spectrum_deficient_rank(half), half.materialize),
        "zero": (lambda: spectrum_zero_family(X, C0_zero, 2),
                 lambda: zero_family_point(X, C0_zero, 2).materialize()),
        "balanced": (lambda: spectrum_balanced(X, sel, 2),
                     lambda: build_balanced(X, sel, 2)),
    }
    made = []

    class Counted(spectrum._Grids):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the point was built")

    monkeypatch.setattr(spectrum, "_Grids", Counted)
    with monkeypatch.context() as patch:
        patch.setattr(CanonicalPoint, "materialize", refuse)
        patch.setattr(spectrum, "_balanced_point", refuse)
        reps = {name: build() for name, (build, _) in cases.items()}
        assert not made
        for i, rep in enumerate(reps.values(), start=1):
            assert rep.values.size == sum(rep.inertia) == 20 and rep.lambda_min < 0
            first = rep.eigpairs[0]
            assert [e.provenance for e in rep.eigpairs][0] == first.provenance
            assert len(made) == i
    for name, (_, eager) in cases.items():
        point, want = reps[name].point, eager()
        assert point.W.tobytes() == want.W.tobytes() and point.S.tobytes() == want.S.tobytes()
        assert reps[name].point is point, name


def test_spectrum_makes_no_eigpair_until_one_is_read(monkeypatch):
    made = []

    class Counting(EigPair):
        def __init__(self, **fields):
            made.append(fields["provenance"])
            super().__init__(**fields)

    monkeypatch.setattr(spectrum, "EigPair", Counting)
    rep = spectrum_deficient_rank(_large_point())
    assert len(rep.eigpairs) == 5000 and rep.values.size == 5000
    assert made == []
    e = rep.eigpairs[-1]
    assert type(e) is Counting and made == [e.provenance]


def _reference_pair_vector(p11, p12, p22, rho):
    """(c_left, c_right) of one 2 x 2 block and eigenvalue rho with scalar
    arithmetic: the form (p12, rho - p11) unless (rho - p22, p12) has the
    larger sum of ** squares."""
    c1, c2 = (p12, rho - p11), (rho - p22, p12)
    c = c1 if c1[0] ** 2 + c1[1] ** 2 >= c2[0] ** 2 + c2[1] ** 2 else c2
    nrm = np.hypot(c[0], c[1])
    return c[0] / nrm, c[1] / nrm


def _reference_eigpairs(cp, d):
    """The closed-form eigenpairs one block at a time with scalar arithmetic,
    in emission order: (value, provenance, coupling, G, H) per eigenpair."""
    X, q, k = cp.X, cp.q, cp.k
    m, n, r = X.m, X.n, X.r
    d = np.broadcast_to(np.asarray(d, dtype=float), (q,))
    d2 = d * d
    idx, lam = list(cp.selection.indices), cp.lambdas
    us = [i for i in range(m) if i not in idx]
    if k > q and n > r:
        Y, gs, Zt = np.linalg.svd(cp.C0, full_matrices=True)
        gamma = np.zeros(k - q)
        gamma[: gs.size] = gs
        Z, zeta = Zt.T, X.V0 @ Y
    else:
        Z, gamma, zeta = np.eye(k - q), np.zeros(k - q), X.V0
    gtol = 1e-13 * max(1.0, gamma[0] if gamma.size else 0.0)
    omega = gamma**2
    ek = np.eye(k)
    zt = np.zeros((k - q, k))
    zt[:, q:] = Z.T
    out = []

    def one(value, G, H, prov):
        out.append((float(value), prov, None, G, H))

    def left(value, u, c, prov):
        one(value, np.outer(u, c), np.zeros((k, n)), prov)

    def right(value, c, v, prov):
        one(value, np.zeros((m, k)), np.outer(c, v), prov)

    def mixed(p11, p12, p22, u, cG, cH, v, prov, exact_zero=False):
        if exact_zero:
            hi, lo = p11 + p22, 0.0
        else:
            tr, disc = p11 + p22, np.hypot(p11 - p22, 2.0 * p12)
            hi = 0.5 * (tr + disc)
            det = p11 * p22 - p12 * p12
            lo = det / hi if hi != 0.0 else 0.5 * (tr - disc)
        for rho, tag in ((lo, "-"), (hi, "+")):
            cl, cr = _reference_pair_vector(p11, p12, p22, rho)
            out.append((float(rho), f"{prov},branch={tag}", float(cr / cl),
                        cl * np.outer(u, cG), cr * np.outer(cH, v)))

    for i in (i for i in us if i < r):
        for j in range(q):
            mixed(lam[j] ** 2 / d2[j], -X.sigma[i], d2[j], X.U[:, i], ek[j], ek[j],
                  X.V[:, i], f"sigma_lambda_pair(i={i},j={j})")
        for l in range(k - q):
            mixed(omega[l], -X.sigma[i], 0.0, X.U[:, i], zt[l], zt[l], X.V[:, i],
                  f"sigma_omega_pair(i={i},l={l})")
    for i in (i for i in us if i >= r):
        for j in range(q):
            left(lam[j] ** 2 / d2[j], X.U[:, i], ek[j], f"left_kernel_lambda(i={i},j={j})")
        for l in range(k - q):
            left(omega[l], X.U[:, i], zt[l], f"left_kernel_omega(i={i},l={l})")
    for j in range(q):
        u = X.U[:, idx[j]]
        for s in range(q):
            if lam[s] > 0:
                mixed(lam[s] ** 2 / d2[s], lam[s] * (d[j] / d[s]), d2[j], u, ek[s], ek[j],
                      X.V[:, idx[s]], f"selected_cross_pair(j={j},s={s})", True)
            else:
                left(0.0, u, ek[s], f"zero_lambda_column(j={j},s={s})")
        for l in range(n - r):
            if l < k - q and gamma[l] > gtol:
                mixed(omega[l], gamma[l] * d[j], d2[j], u, zt[l], ek[j], zeta[:, l],
                      f"c0_cross_pair(j={j},l={l})", True)
            else:
                right(d2[j], ek[j], zeta[:, l], f"right_kernel_selected(j={j},l={l})")
        for l in range(k - q):
            if gamma[l] <= gtol:
                left(0.0, u, zt[l], f"c0_dead_coord(j={j},l={l})")
    for lp in range(k - q):
        for s in range(q):
            if lam[s] > 0:
                right(0.0, zt[lp], X.V[:, idx[s]], f"right_kernel_null(l={lp},s={s})")
        for l in range(n - r):
            right(0.0, zt[lp], zeta[:, l], f"right_kernel_null(l={lp},z={l})")
    return out


def _diagonal_point(cp, d):
    """The diagonal representative of cp whose selected columns carry the
    scales d: (U_sel D, [D^-1 diag(lambda) V_sel^T ; C0^T V0^T])."""
    X, q, k = cp.X, cp.q, cp.k
    d = np.broadcast_to(np.asarray(d, dtype=float), (q,))
    idx = list(cp.selection.indices)
    W, S = np.zeros((X.m, k)), np.zeros((k, X.n))
    W[:, :q] = X.U[:, idx] * d
    S[:q] = (cp.lambdas / d)[:, None] * X.V[:, idx].T
    S[q:] = cp.C0.T @ X.V0.T
    return FactorPair(W=W, S=S)


# Families whose right factor is a kernel column, its index the last in the
# provenance.
KERNEL_COLUMN = re.compile(r"^(c0_cross_pair|right_kernel_selected)\(.*=(\d+)\)"
                           r"|^right_kernel_null\(l=\d+,z=(\d+)\)")


@settings(max_examples=30, deadline=None)
@given(*LANDSCAPE)
def test_array_spectrum_equals_the_per_block_reference(kind, exponent, seed):
    """Bit for bit against the reference sorted stably by value, which fixes
    the order of tied values: values, provenance, couplings and G.  H is bit
    for bit too, except where its right factor is a kernel column: the
    reference turns the kernel by C0's full SVD and the spectrum by its
    kernel frame, two orthonormal bases of one space.  There the
    eigenpair's residual is checked, and the kernel columns read must be
    orthonormal and in the kernel of X."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, rng))
    for k in range(1, X.m + 1):
        q = int(rng.integers(0, k + 1))
        sel = Selection(tuple(sorted(rng.choice(X.m, size=q, replace=False).tolist())))
        C0 = rng.standard_normal((X.n - X.r, k - q))
        if C0.size and rng.uniform() < 0.3:
            C0[:, -1] = 0.0  # a dead kernel coordinate
        cp = CanonicalPoint(X, sel, k, C0)
        lam = cp.lambdas
        d = np.sqrt(lam) if q and np.all(lam > 0) and rng.uniform() < 0.5 else \
            float(np.exp(rng.uniform(-1.0, 1.0)))
        ref = _reference_eigpairs(cp, d)
        rep = _report(_canonical_eigpairs(cp, d), None)
        order = sorted(range(len(ref)), key=lambda i: ref[i][0])
        point = _diagonal_point(cp, d)
        tol = 1e-12 * float(np.abs(rep.values).max())
        kernel = {}
        for e, i in zip(rep.eigpairs, order):
            value, prov, coupling, G, H = ref[i]
            assert (e.value, e.provenance, e.coupling) == (value, prov, coupling)
            v = e.vector
            np.testing.assert_array_equal(v.G, G)
            match = KERNEL_COLUMN.match(prov)
            if match is None:
                np.testing.assert_array_equal(v.H, H)
                continue
            z = int(match.group(2) or match.group(3))
            assert kernel.setdefault(z, e.vH).tobytes() == e.vH.tobytes()
            hv = hessian_apply(X, point, v)
            assert np.sqrt(np.sum((hv.G - value * v.G) ** 2)
                           + np.sum((hv.H - value * v.H) ** 2)) <= tol
        if k > q or q and X.n > X.r:
            assert sorted(kernel) == list(range(X.n - X.r))
        if kernel:
            B = np.column_stack([kernel[z] for z in sorted(kernel)])
            assert np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-12
            assert np.abs(X.X @ B).max() <= 1e-12 * float(X.sigma[0])


# Near ties (p22 - p11 of 3 and 2 ulp) at which x * x and ** squares choose
# different forms for the lower branch: their x * x sums tie exactly at the
# first and are 1 ulp apart at the second.
FLIPPED_BLOCKS = [(2.5678035669078074, -7.621063981934202, 2.5678035669078088),
                  (3.865637782032914, -7.016661291440385, 3.865637782032915)]


def _blocks_of_delicate_choice(rng, n=600):
    """(p11, p12, p22) with p11, p22 >= 0 and p12 < 0, as the families make
    them: the flipped blocks; exact ties, ties a few ulp apart and unrelated
    diagonals at scales 10^[-162, 150], whose low end puts the sums of
    squares below the normal range; and blocks where both sums of squares
    overflow (|p12| in [9.48e153, 1.34e154]) and the branches don't."""
    scale = 10.0 ** rng.uniform(-162, 150, n)
    p11 = rng.uniform(0.0, 3.0, n) * scale
    p12 = -rng.uniform(0.1, 3.0, n) * scale
    p22 = p11 + rng.integers(-4, 5, n) * np.spacing(p11)
    p22[: n // 4] = p11[: n // 4]
    p22[-n // 4:] = rng.uniform(0.0, 3.0, n // 4) * scale[-n // 4:]
    big12 = -rng.uniform(9.48e153, 1.34e154, n)
    big11, big22 = 10.0 ** rng.uniform(140, 155, (2, n))
    big22[: n // 4] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = _split_pair(big11, big12, big22)
        s1 = big12 * big12 + (lo - big11) ** 2
        s2 = (lo - big22) ** 2 + big12 * big12
    both = np.isinf(s1) & np.isinf(s2) & np.isfinite(hi) & np.isfinite(lo)
    assert np.count_nonzero(both) >= 20
    flipped = np.array(FLIPPED_BLOCKS).T
    return [np.concatenate(c) for c in zip(flipped, (p11, p12, p22),
                                           (big11[both], big12[both], big22[both]))]


def test_pair_vectors_choose_the_form_that_pow_squares_choose():
    """Bit for bit against the scalar reference on both branches of blocks
    where the choice is delicate; at FLIPPED_BLOCKS the x * x sums alone
    would choose the other form.  The squares _pair_vectors takes, _sq, are
    np.float_power's bit for bit on every form component, subnormal squares
    and squares that overflow to inf included."""
    for p11, p12, p22 in FLIPPED_BLOCKS:
        rho = float(_split_pair(p11, p12, p22)[1])
        a1, b1, a2, b2 = p12, rho - p11, rho - p22, p12
        assert (a1 * a1 + b1 * b1 >= a2 * a2 + b2 * b2) != (
            a1 ** 2 + b1 ** 2 >= a2 ** 2 + b2 ** 2)
    p11, p12, p22 = _blocks_of_delicate_choice(np.random.default_rng(5))
    with np.errstate(over="ignore", invalid="ignore"):
        rhos = _split_pair(p11, p12, p22)
        for rho in rhos:
            for block in zip(p11, p12, p22, rho):
                got = np.array(spectrum._pair_vectors(*map(float, block)))
                assert got.tobytes() == np.array(_reference_pair_vector(*block)).tobytes()
        parts = np.concatenate([p12, *(rho - p for rho in rhos for p in (p11, p22))])
        squares = np.float_power(parts, 2.0)
    assert np.array([spectrum._sq(float(x)) for x in parts]).tobytes() == squares.tobytes()
    assert np.isinf(squares).any() and ((0 < squares) & (squares < 2.0**-1022)).any()


def test_coupled_pair_vectors_multiply_to_minus_one():
    rep = spectrum_full_rank_scaled(X321, Selection((2,)), a=1.7)
    by_block = {}
    for e in rep.eigpairs:
        if e.coupling is not None:
            by_block.setdefault(e.provenance.split(",branch")[0], []).append(e.coupling)
    assert by_block, "expected coupled two-by-two blocks"
    for c1, c2 in by_block.values():
        assert c1 * c2 == pytest.approx(-1.0, rel=1e-9)
    # Far out on the orbit cl underflows to +-0, and so does the negative lower
    # branch of sigma_lambda_pair(i=0,j=0): the report refuses the lost sign,
    # and the eigenpairs read IEEE's +-inf couplings.
    far = load_data_matrix(1e-150 * X321.X), Selection((2,))
    with pytest.raises(NumericalFailure, match=r"sigma_lambda_pair\(i=0,j=0\),branch=- is 0\.0"):
        spectrum_full_rank_scaled(*far, a=1e100)
    pairs = _canonical_eigpairs(build_canonical(*far, k=1), d=1e100)
    assert {e.coupling for e in pairs} >= {-np.inf, np.inf}


# ----------------------------------------------------------- lambda_min -----

@pytest.mark.parametrize("c", [1e4, 1e6])
def test_lambda_min_survives_a_heavy_kernel_weight(c):
    """w = c^2 >> sigma_dag = 1: the sigma_omega branch -s^2 / (w/2 + ...)
    keeps its digits where w/2 - hypot(s, w/2) cancels to 0."""
    X = load_data_matrix(np.diag([1.0, 1e-4, 0.0]) @ np.eye(3, 4))
    C0 = np.array([[c], [0.0]])
    lam = lambda_min_closed_form(X, Selection(()), 1, C0=C0)
    rep = spectrum_zero_family(X, C0, 1)
    oracle = numeric_spectrum(X, rep.point)[0][0]
    assert lam < 0
    assert lam == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert lam == pytest.approx(rep.lambda_min, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(*LANDSCAPE)
def test_lambda_min_is_the_spectrum_minimum_everywhere(kind, exponent, seed):
    """Every k, every 0 <= q <= k over all m indices, a != 1 and C0 at unit
    scale: lambda_min_closed_form is the closed-form spectrum's minimum, and
    it refuses exactly the points without a negative eigenvalue."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, rng))
    s1 = float(X.sigma[0])
    for k in range(1, X.m + 1):
        for q in range(0, k + 1):
            sel = Selection(tuple(sorted(rng.choice(X.m, size=q, replace=False).tolist())))
            C0 = rng.standard_normal((X.n - X.r, k - q))
            a = float(np.exp(rng.uniform(-1.0, 1.0)))
            if q == k:
                reps = [(spectrum_full_rank_scaled(X, sel, a=s), s) for s in (1.0, a)]
            else:
                rep = (spectrum_deficient_rank(CanonicalPoint(X, sel, k, C0)) if q
                       else spectrum_zero_family(X, C0, k))
                # (a W_c, a^-1 S_c) is the representative with d = a and C0 / a.
                scaled = _canonical_eigpairs(CanonicalPoint(X, sel, k, C0 / a), d=a)
                reps = [(rep, 1.0), (_report(scaled, None), a)]
            for rep, s in reps:
                try:
                    lam = lambda_min_closed_form(X, sel, k, C0=None if q == k else C0, a=s)
                except NotASaddle:
                    assert rep.inertia[1] == 0
                    assert rep.lambda_min >= -1e-14 * s1
                    continue
                assert rep.inertia[1] >= 1
                assert abs(lam - rep.lambda_min) <= 1e-14 * s1


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "square"])
def test_classify_lambda_min_is_the_spectrum_minimum_bit_for_bit(kind):
    """classify_canonical's lambda_min and the deficient-rank and zero-family
    spectra take C0's singular values from one SVD and square them alike, so
    at every k and q < k, with C0 at scales 10^[-2, 2], they agree to the
    last bit."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        X = load_data_matrix(matrix_of_kind(kind, rng))
        for k in range(1, X.m + 1):
            for q in range(k):
                sel = Selection(tuple(sorted(rng.choice(X.m, size=q, replace=False).tolist())))
                C0 = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal((X.n - X.r, k - q))
                cp = CanonicalPoint(X, sel, k, C0)
                rep = spectrum_deficient_rank(cp) if q else spectrum_zero_family(X, C0, k)
                lam = classify_canonical(cp).lambda_min_closed_form
                assert lam is None or lam == rep.lambda_min, (k, q, lam, rep.lambda_min)


def test_lambda_min_refuses_global_minimum():
    with pytest.raises(NotASaddle):
        lambda_min_closed_form(X321, Selection((0, 1, 2)), 3)
    with pytest.raises(NotASaddle):
        lambda_min_balanced(X321, Selection((0, 1)), 2)


@pytest.mark.parametrize("point, error, message", [
    (CanonicalPoint(X321, Selection(()), 2), InvalidSelection,
     "deficient-rank spectrum needs 1 <= q < k, got q=0, k=2"),
    (CanonicalPoint(X321, Selection((0, 2)), 2), InvalidSelection,
     "deficient-rank spectrum needs 1 <= q < k, got q=2, k=2"),
    (X321, InvalidInput, "spectrum_deficient_rank expects a CanonicalPoint"),
], ids=["q=0", "q=k", "not-a-point"])
def test_deficient_rank_spectrum_refuses_other_points(point, error, message):
    with pytest.raises(MflandError) as info:
        spectrum_deficient_rank(point)
    assert (info.type, str(info.value)) == (error, message)


def test_balanced_lambda_min_worked_cases():
    assert lambda_min_balanced(X21, Selection((1,)), 1) == pytest.approx(-1.0, abs=1e-12)
    assert lambda_min_balanced(X321, Selection((0,)), 2) == pytest.approx(-2.0, abs=1e-12)
    assert lambda_min_balanced(X321, Selection((1,)), 2) == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_spectrum_far_out_on_the_orbit_is_a_numerical_failure(scale):
    """At a = 1e300 the block entries overflow and at 1e-200 they divide by
    an underflowed a^2; either way the closed form refuses the spectrum as a
    NumericalFailure that names the scale, without a NumPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            spectrum_full_rank_scaled(gaussian(0), Selection((0, 2)), a=scale)
    assert str(info.value) == (f"the closed-form spectrum at scale {scale:g} "
                               "is not finite in float64")


def test_an_underflowed_coupling_is_refused_when_the_spectrum_is_built():
    """At sigma_1 ~ 1e-170 with q < k and d = 1e-160, the c0_cross_pair's
    p12 = gamma d underflows to 0 while every value is finite; its lower
    branch would then have no eigenvector form to normalize, so the build
    refuses it rather than a read failing."""
    rng = np.random.default_rng(0)
    X = load_data_matrix(1e-170 * rng.standard_normal((3, 5)))
    cp = CanonicalPoint(X, Selection((0,)), 2, 1e-170 * rng.standard_normal((2, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"^the closed-form spectrum at scale "
                                                   r"1e-160 is not finite in float64$"):
            _canonical_eigpairs(cp, d=1e-160)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_lambda_min_far_out_on_the_orbit_is_a_numerical_failure(scale):
    """The closed-form lambda_min at a = 1e300 or 1e-200 is refused as the
    spectrum there is, with the same message and no NumPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            lambda_min_closed_form(gaussian(0), Selection((0, 2)), 2, a=scale)
    assert str(info.value) == (f"the closed-form lambda_min at scale {scale:g} "
                               "is not finite in float64")


def test_lambda_min_with_a_huge_C0_is_a_numerical_failure():
    """The smallest kernel weight gamma^2 of C0 = 1e200 overflows: the closed
    form raises NumericalFailure, not a raw OverflowError."""
    with pytest.raises(NumericalFailure, match="^the closed-form lambda_min at scale 1 "):
        lambda_min_closed_form(gaussian(0), Selection((0,)), 2, C0=1e200 * np.ones((2, 1)))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.2, 3.0),
    st.floats(0.2, 3.0),
    st.floats(0.3, 3.0),
)
def test_stable_block_sign_trichotomy(lam, sig, a):
    """The coupled block's small eigenvalue has the sign of lambda^2 - sigma^2."""
    rho_minus = _split_pair(lam * lam / (a * a), -sig, a * a)[1]
    if abs(lam - sig) > 1e-9:
        assert np.sign(rho_minus) == np.sign(lam * lam - sig * sig)
