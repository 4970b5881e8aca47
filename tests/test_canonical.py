import dataclasses
import warnings
from itertools import combinations

import numpy as np
import pytest

from mfland import (
    CanonicalPoint,
    DimensionError,
    FactorPair,
    GroupElement,
    InvalidInput,
    InvalidSelection,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
    Selection,
    SingularGroupElement,
    apply_group_action,
    balance_residual,
    build_balanced,
    build_canonical,
    classify_canonical,
    evaluate_J,
    first_defect,
    gradient_norm,
    intersect_M0,
    lambda_min_balanced,
    lambda_min_closed_form,
    load_data_matrix,
    numeric_spectrum,
    random_balanced_pair,
    random_pair,
    reduce_to_canonical,
    spectrum_balanced,
    spectrum_full_rank_scaled,
    zero_family_point,
)
from mfland.canonical import selected_values
from matrix_kinds import KINDS, X21, X321, fixed_spectrum, gaussian, haar, matrix_of_kind


# --------------------------------------------------------------- selection --

def test_selection_must_increase():
    with pytest.raises(InvalidSelection):
        Selection((1, 1))
    with pytest.raises(InvalidSelection):
        Selection((2, 0))


def test_selection_index_must_be_nonnegative():
    with pytest.raises(InvalidSelection, match=r"^negative selection index in \(-1,\)$"):
        Selection((-1,))


def test_build_canonical_needs_a_selected_index():
    with pytest.raises(InvalidSelection, match="^build_canonical needs at least one selected index$"):
        build_canonical(X321, Selection(()), 1)


def test_selection_out_of_range():
    with pytest.raises(InvalidSelection):
        build_canonical(X321, Selection((5,)), 1)


def test_selection_larger_than_k():
    with pytest.raises(InvalidSelection):
        build_canonical(X321, Selection((0, 1)), 1)


def test_c0_shape_enforced():
    with pytest.raises(DimensionError):
        build_canonical(X321, Selection((0,)), 2, C0=np.ones((3, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_c0_must_be_finite(bad):
    with pytest.raises(InvalidInput, match="C0"):
        build_canonical(X321, Selection((0,)), 2, C0=np.array([[bad]]))
    with pytest.raises(InvalidInput, match="C0"):
        zero_family_point(X321, np.array([[1.0, bad]]), 2)


# ------------------------------------------------------------ construction --

def test_canonical_point_is_critical():
    for sel, k in [((0,), 1), ((1,), 2), ((0, 2), 2), ((0, 1, 2), 3)]:
        cp = build_canonical(X321, Selection(sel), k)
        assert gradient_norm(X321, cp.materialize()) <= 1e-10 * X321.tol_scale


def test_canonical_with_c0_is_critical():
    rng = np.random.default_rng(7)
    cp = build_canonical(X321, Selection((1,)), 3, C0=rng.standard_normal((1, 2)))
    assert gradient_norm(X321, cp.materialize()) <= 1e-10 * X321.tol_scale


def test_zero_family_is_critical():
    C0 = np.array([[0.5, -2.0]])
    p = zero_family_point(X321, C0, 2).materialize()
    assert np.all(p.W == 0.0)
    assert gradient_norm(X321, p) <= 1e-10 * X321.tol_scale
    # S is supported on the kernel of X: W S has no overlap with X's range
    np.testing.assert_allclose(X321.X @ p.S.T, 0.0, atol=1e-12)


def test_objective_value_formula():
    cp = build_canonical(X321, Selection((0, 2)), 2)
    # J = (sum of all sigma^2 - sum of selected sigma^2) / 2
    expect = 0.5 * (9 + 4 + 1 - 9 - 1)
    assert cp.objective_value() == pytest.approx(expect, abs=1e-12)
    assert evaluate_J(X321, cp.materialize()) == pytest.approx(expect, abs=1e-12)


def test_objective_value_keeps_J_beside_a_large_sigma():
    """J = 0.5 sigma_2^2 = 0.5 at X = diag(1e8, 1), selection {1}: summing the
    unselected squares keeps it, where sum(sigma^2) - sum(lambda^2) cancelled
    to 0.0."""
    X = load_data_matrix(np.diag([1e8, 1.0]) @ np.eye(2, 3))
    cp = CanonicalPoint(X, Selection((0,)), 1)
    assert cp.objective_value() == 0.5
    assert evaluate_J(X, cp.materialize()) == pytest.approx(0.5, rel=1e-12)


def test_scaled_materialization_same_product():
    cp = build_canonical(X321, Selection((0, 1)), 2)
    p1, p2 = cp.materialize(), cp.materialize(scale=3.0)
    np.testing.assert_allclose(p1.W @ p1.S, p2.W @ p2.S, atol=1e-12)
    assert not np.allclose(p1.W, p2.W)


# ------------------------------------------------------- maximality / kind --

def test_first_defect_and_maximality():
    assert first_defect(X321, Selection((0, 1))) is None
    # lambda at position 1 is 1 < sigma_1 = 2 (0-based); classify reports p = 2
    assert first_defect(X321, Selection((0, 2))) == 1
    assert classify_canonical(build_canonical(X321, Selection((0, 2)), 2)).p == 2
    assert first_defect(X321, Selection((1, 2))) is not None


def test_maximality_is_value_wise_under_ties():
    X = load_data_matrix(np.diag([2.0, 2.0, 1.0]) @ np.eye(3, 4))
    # selecting either copy of the tied value counts as maximal
    assert first_defect(X, Selection((0,))) is None
    assert first_defect(X, Selection((1,))) is None
    assert first_defect(X, Selection((2,))) is not None


def test_selection_index_beyond_m_is_invalid_selection():
    """An index >= m is refused with InvalidSelection, not a NumPy
    IndexError, by the exported first_defect and by selected_values."""
    for read in (first_defect, selected_values):
        with pytest.raises(InvalidSelection, match="index 5 out of range for m = 2"):
            read(X21, Selection((5,)))
        with pytest.raises(InvalidSelection):
            read(X21, Selection((0, 2)))


@pytest.mark.parametrize("make, message", [
    (lambda: CanonicalPoint(X21, Selection((5,)), 2.0), "k must be an integer, got 2.0"),
    (lambda: CanonicalPoint(X21, Selection((5,)), 3), "k = 3 outside [1, min(m, n) = 2]"),
    (lambda: CanonicalPoint(X21, Selection((0, 1, 5)), 2),
     "selection has q = 3 > min(k, m) = 2"),
    (lambda: CanonicalPoint(X21, Selection((0, 5)), 2),
     "selection index 5 out of range for m = 2"),
    (lambda: random_pair(X21, 0, 0), "k = 0 outside [1, min(m, n) = 2]"),
    (lambda: random_balanced_pair(X21, 3, 0), "k = 3 outside [1, min(m, n) = 2]"),
    (lambda: selected_values(X21, Selection((0, 1, 2))),
     "selection index 2 out of range for m = 2"),
], ids=["k-type", "k-range", "q", "index", "random_pair", "random_balanced_pair",
        "selected_values"])
def test_selection_rules_fire_in_order(make, message):
    """A canonical point checks k, then q against k, then the indices; the
    starts check k alone and selected_values the indices alone."""
    with pytest.raises(InvalidSelection) as info:
        make()
    assert str(info.value) == message


def test_objective_value_that_overflows_is_a_numerical_failure():
    """sigma^2 overflows at 1e200 X: J is refused, without a NumPy warning,
    instead of coming out as inf or NaN."""
    X = load_data_matrix(1e200 * np.random.default_rng(0).standard_normal((4, 6)))
    for sel in (Selection(()), Selection((0, 1))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure) as info:
                CanonicalPoint(X, sel, 2).objective_value()
        assert str(info.value) == "the closed-form J is not finite in float64"


@pytest.mark.parametrize("sel", [Selection(()), Selection((0, 2))])
def test_classify_that_overflows_is_a_numerical_failure(sel):
    X = load_data_matrix(1e200 * np.random.default_rng(0).standard_normal((4, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as info:
            classify_canonical(CanonicalPoint(X, sel, 2))
    assert str(info.value) == "the closed-form lambda_min at scale 1 is not finite in float64"


def test_classify_kinds():
    assert classify_canonical(build_canonical(X321, Selection((0, 1)), 2)).kind == "GlobalMinimum"
    res = classify_canonical(build_canonical(X321, Selection((1, 2)), 2))
    assert res.kind == "StrictSaddle"
    assert res.lambda_min_closed_form < 0
    assert classify_canonical(zero_family_point(X321, np.zeros((1, 1)), 1)).kind == "StrictSaddle"


def test_selecting_every_positive_sigma_is_a_minimum_for_any_k():
    """q = r < k: no unselected sigma is positive, so no direction descends."""
    X = load_data_matrix(np.diag([3.0, 2.0, 0.0]) @ np.eye(3, 4))
    res = classify_canonical(build_canonical(X, Selection((0, 1)), 3))
    assert (res.kind, res.p, res.lambda_min_closed_form) == ("GlobalMinimum", None, None)
    res = classify_canonical(build_canonical(X, Selection((0,)), 3))
    assert res.kind == "StrictSaddle" and res.lambda_min_closed_form < 0


def test_deficient_rank_always_saddle():
    res = classify_canonical(build_canonical(X321, Selection((0,)), 2))
    assert res.kind == "StrictSaddle"
    assert res.maximal  # maximal selection, yet a saddle because q < k


# ----------------------------------------------------------------- balance --

def test_balanced_point_same_orbit_and_balanced():
    sel = Selection((0, 1))
    bal = build_balanced(X321, sel, 2)
    assert balance_residual(bal) < 1e-12
    assert gradient_norm(X321, bal) <= 1e-10 * X321.tol_scale
    cp = build_canonical(X321, sel, 2)
    np.testing.assert_allclose(bal.W @ bal.S, cp.materialize().W @ cp.materialize().S, atol=1e-12)


def test_balanced_reduction_recovers_selection():
    sel = Selection((0, 2))
    bal = build_balanced(X321, sel, 2)
    cp, _ = reduce_to_canonical(X321, bal)
    np.testing.assert_allclose(sorted(cp.lambdas), [1.0, 3.0], atol=1e-10)


# --------------------------------------------------------------- reduction --

def test_reduce_identity_on_canonical():
    cp0 = build_canonical(X321, Selection((0, 1)), 2)
    cp, g = reduce_to_canonical(X321, cp0.materialize())
    assert cp.q == 2
    np.testing.assert_allclose(cp.lambdas, [3.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(g.A, np.eye(2), atol=1e-10)


def _rotated(X, groups, rng):
    """The same X with its singular basis turned at random inside each group.

    U and V turn together inside a group of positive sigma; a group of zero
    sigma turns U alone.
    """
    U, V = X.U.copy(), X.V.copy()
    for g in groups:
        R, _ = np.linalg.qr(rng.standard_normal((len(g), len(g))))
        U[:, g] = U[:, g] @ R
        if X.sigma[g[0]] > 0:
            V[:, g] = V[:, g] @ R
    return dataclasses.replace(X, U=U, V=V)


def test_reduce_round_trip_random_orbit():
    rng = np.random.default_rng(12)
    cases = []
    for seed in range(6):
        X = gaussian(seed)
        C0 = rng.standard_normal((X.n - X.r, 1)) if X.n > X.r else None
        cases.append((X, X, Selection((int(rng.integers(0, X.r)),)), 2, C0))
    # Tied and rank-deficient X: the point is canonical in a random basis of
    # each tied group, so W spans a random subspace of a tied singular
    # subspace; selections reaching the sigma = 0 group give rank(W) > r.
    tied = load_data_matrix(fixed_spectrum(rng, 3, 4, np.array([2.0, 2.0, 1.0])))
    deficient = load_data_matrix(fixed_spectrum(rng, 5, 7, np.array([3.0, 2.0, 2.0, 0.0, 0.0])))
    for X, groups, sel, k in [
        (tied, [[0, 1]], (0,), 1),
        (tied, [[0, 1]], (1, 2), 2),
        (tied, [[0, 1]], (0,), 2),
        (deficient, [[1, 2], [3, 4]], (0, 1, 3, 4), 5),
        (deficient, [[1, 2], [3, 4]], (0, 1, 2, 3), 4),
        (deficient, [[1, 2], [3, 4]], (1, 3), 3),
    ]:
        C0 = rng.standard_normal((X.n - X.r, k - len(sel)))
        cases.append((X, _rotated(X, groups, rng), Selection(sel), k, C0))
    for X, X_basis, sel, k, C0 in cases:
        cp0 = build_canonical(X_basis, sel, k, C0=C0)
        A = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        p = apply_group_action(cp0.materialize(), GroupElement.from_matrix(A))
        cp, g = reduce_to_canonical(X, p)
        assert cp.q == cp0.q
        np.testing.assert_array_equal(cp.X.X, X.X)
        np.testing.assert_array_equal(cp.X.sigma, X.sigma)
        np.testing.assert_allclose(sorted(cp.lambdas), sorted(cp0.lambdas), atol=1e-8)
        back = apply_group_action(cp.materialize(), g)
        np.testing.assert_allclose(back.W, p.W, atol=1e-8 * max(1.0, p.norm()))
        np.testing.assert_allclose(back.S, p.S, atol=1e-8 * max(1.0, p.norm()))


def test_reduce_zero_family_branch():
    C0 = np.array([[1.5], [0.25]])
    X = load_data_matrix(np.diag([2.0, 1.0]) @ np.eye(2, 4))
    p = zero_family_point(X, C0, 1).materialize()
    cp, _ = reduce_to_canonical(X, p)
    assert cp.q == 0


def test_reduce_rejects_non_critical():
    rng = np.random.default_rng(3)
    p_bad = build_canonical(X321, Selection((0,)), 1).materialize()
    p_bad = type(p_bad)(p_bad.W + rng.standard_normal(p_bad.W.shape), p_bad.S)
    with pytest.raises(NotCritical):
        reduce_to_canonical(X321, p_bad)


def test_reduce_refuses_a_rank_between_its_thresholds():
    """The canonical point of X321, (0, 1), moved by A = diag(1, 5 tol): W's
    singular values are 1 and 5 tol, between 0.1 tol and 10 tol, so the rank
    of W is ambiguous."""
    tol = 1e-8
    g = GroupElement.from_matrix(np.diag([1.0, 5 * tol]))
    p = apply_group_action(build_canonical(X321, Selection((0, 1)), 2).materialize(), g)
    with pytest.raises(RankAmbiguous, match=r"^rank of W ambiguous at tolerance 1e-08: between 1 and 2$"):
        reduce_to_canonical(X321, p, tol=tol)


def test_not_critical_message_names_norm_and_threshold():
    # W is off the orbit by 1e-7 (0, 1, 1), above the 1e-8 ||W|| bound but
    # 0.0 at three decimals, so the message must not round it.
    p = build_canonical(X321, Selection((0,)), 1).materialize()
    p_near = type(p)(p.W + 1e-7, p.S)
    residual = 1e-7 * np.sqrt(2.0)
    bound = 1e-8 * np.linalg.norm(p_near.W)
    with pytest.raises(NotCritical) as info:
        reduce_to_canonical(X321, p_near)
    assert str(info.value) == (f"orbit reconstruction residual of W {residual:.3e} "
                               f"exceeds 1e-8 ||W|| = {bound:.3e}")


def _probe_points(c, a=1.0, cond=None):
    """(X, its canonical point, the point reduced) over the matrix_kinds kinds
    of c X, seeds 0-1, every k, q <= k and selection, with C0 = sqrt(c) ones:
    the canonical point at orbit scale a, moved by Q1 diag(geomspace(1,
    1/cond)) Q2 with Haar Q1, Q2 when cond is given."""
    for kind in KINDS:
        for seed in range(2):
            X = load_data_matrix(c * matrix_of_kind(kind, np.random.default_rng(seed)))
            rng = np.random.default_rng([seed, 5])
            for k in range(1, X.m + 1):
                for q in range(k + 1):
                    for sel in combinations(range(X.m), q):
                        cp = CanonicalPoint(X, Selection(sel), k,
                                            np.sqrt(c) * np.ones((X.n - X.r, k - q)))
                        p = cp.materialize(a)
                        if cond is not None:
                            A = (haar(rng, k) * np.geomspace(1.0, 1.0 / cond, k)) @ haar(rng, k)
                            p = apply_group_action(p, GroupElement.from_matrix(A))
                        yield X, cp, p


@pytest.mark.parametrize("c, a, cond", [
    *[(c, 1.0, None) for c in (1e-30, 1e-12, 1e9, 1e20, 1e50, 1e150)],
    *[(1.0, a, None) for a in (1e-8, 1e-6, 1e-4, 1e4, 1e6, 1e8)],
    *[(c, 1.0, cond) for c in (1e-6, 1.0, 1e6) for cond in (1e3, 1e6)],
])
def test_reduce_exact_critical_points_at_every_scale_and_orbit(c, a, cond):
    """An exact critical point reduces to its build's q and lambda, and g
    rebuilds each factor to 1e-8 of its own norm, whatever sigma_1, the
    orbit scale and cond(A).  Thresholds in units of max(1, ||X||_F) or
    max(1, ||p||) refused exact points from sigma_1 = 1e9, at a <= 1e-4
    and a = 1e8, and at cond(A) = 1e6, and read W = 1e-4 U_2 as zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X, cp0, p in _probe_points(c, a, cond):
            cp, g = reduce_to_canonical(X, p)
            assert cp.q == cp0.q, cp0.selection
            np.testing.assert_allclose(np.sort(cp.lambdas), np.sort(cp0.lambdas),
                                       rtol=0, atol=1e-8 * X.sigma[0])
            back = apply_group_action(cp.materialize(), g)
            assert np.linalg.norm(back.W - p.W) <= 1e-8 * np.linalg.norm(p.W)
            assert np.linalg.norm(back.S - p.S) <= 1e-8 * np.linalg.norm(p.S)


def test_small_w_far_along_the_orbit_is_not_the_zero_family():
    """W = [1e-4 U_2, 0] is not zero, though S of order 1e4 dominates ||p||."""
    X = load_data_matrix(matrix_of_kind("rank-deficient", np.random.default_rng(0)))
    p = CanonicalPoint(X, Selection((2,)), 2, np.ones((X.n - X.r, 1))).materialize(1e-4)
    cp, _ = reduce_to_canonical(X, p)
    assert cp.q == 1


def test_a_reduction_takes_no_svd_per_untied_singular_value(monkeypatch):
    """On an X without tied singular values every group of one is read from
    the norm of its 1 x q block, its one singular value, with no SVD: one
    reduction of a point on the orbit of the selection (0, 2) at k = 3 makes
    as many np.linalg.svd calls at m = 3 as at m = 24."""
    svd, calls, counts = np.linalg.svd, [0], []

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for m in (3, 6, 12, 24):
        rng = np.random.default_rng(m)
        X = load_data_matrix(rng.standard_normal((m, m + 2)))
        cp0 = build_canonical(X, Selection((0, 2)), 3, C0=np.ones((2, 1)))
        A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        p = apply_group_action(cp0.materialize(), GroupElement.from_matrix(A))
        calls[0] = 0
        cp, _ = reduce_to_canonical(X, p)
        assert cp.selection == cp0.selection and cp.X is X
        counts.append(calls[0])
    assert counts == counts[:1] * 4, counts


@pytest.mark.xfail(raises=SingularGroupElement, strict=True,
                   reason="ROADMAP item 6, FOUND 201: at sigma_1 ~ 1e-100 the unipotent "
                          "factor divides Sb's rounding by lambda, and the group element is "
                          "singular to working precision (cond ~ 3.5e49)")
def test_reduce_accepts_the_exact_critical_point_at_sigma_1e_minus_100():
    """The exact critical point of selection (0,) at k = 2 with C0 = 1e-50
    ones on 1e-100 times the generic 4 x 6 X of default_rng(0) reduces to its
    selection, as the same point at scale 1 does."""
    for c in (1.0, 1e-100):
        X = load_data_matrix(c * matrix_of_kind("generic", np.random.default_rng(0)))
        p = CanonicalPoint(X, Selection((0,)), 2, np.sqrt(c) * np.ones((2, 1))).materialize()
        cp, g = reduce_to_canonical(X, p)
        assert cp.selection == Selection((0,))
        back = apply_group_action(cp.materialize(), g)
        assert np.linalg.norm(back.W - p.W) <= 1e-8 * np.linalg.norm(p.W)


# ------------------------------------------- one rule, every entry point ---

@pytest.mark.parametrize("indices", [(1.9,), (1.0,), (np.float64(0.0),), "ab", None, 3])
def test_selection_indices_must_be_integers(indices):
    """A non-integer index is refused, not truncated to another selection."""
    with pytest.raises(InvalidSelection, match="selection indices must be integers"):
        Selection(indices)


def test_selection_accepts_numpy_integers():
    sel = Selection(np.array([0, 2], dtype=np.int64))
    assert sel.indices == (0, 2) and all(type(i) is int for i in sel.indices)
    assert Selection((np.uint8(1),)) == Selection((1,))


@pytest.mark.parametrize("k", [1.5, 2.0, "1", None])
@pytest.mark.parametrize("make", [
    lambda k: CanonicalPoint(X321, Selection((0,)), k),
    lambda k: build_balanced(X321, Selection((0,)), k),
    lambda k: random_pair(X321, k, 0),
    lambda k: random_balanced_pair(X321, k, 0),
], ids=["CanonicalPoint", "build_balanced", "random_pair", "random_balanced_pair"])
def test_k_must_be_an_integer(make, k):
    with pytest.raises(InvalidSelection, match="k must be an integer"):
        make(k)


@pytest.mark.parametrize("a", [0, 0.0, np.nan, np.inf, -np.inf, "2", None])
@pytest.mark.parametrize("entry", [
    lambda a: build_canonical(X321, Selection((1,)), 1).materialize(a),
    lambda a: spectrum_full_rank_scaled(X321, Selection((1,)), a=a),
    lambda a: lambda_min_closed_form(X321, Selection((1,)), 1, a=a),
], ids=["materialize", "spectrum_full_rank_scaled", "lambda_min_closed_form"])
def test_orbit_scale_is_a_nonzero_finite_real(entry, a):
    with pytest.raises(InvalidInput, match="scale must be a nonzero finite number"):
        entry(a)


XDEF = load_data_matrix(np.diag([2.0, 0.0]) @ np.eye(2, 3))  # sigma = (2, 0)


@pytest.mark.parametrize("entry", [
    lambda sel: CanonicalPoint(XDEF, sel, 2).balanced_scales(),
    lambda sel: build_balanced(XDEF, sel, 2),
    lambda sel: spectrum_balanced(XDEF, sel, 2),
    lambda sel: lambda_min_balanced(XDEF, sel, 2),
], ids=["balanced_scales", "build_balanced", "spectrum_balanced", "lambda_min_balanced"])
@pytest.mark.parametrize("sel", [Selection((1,)), Selection((0, 1))])
def test_m0_refuses_a_zero_selected_sigma(entry, sel):
    with pytest.raises(InvalidSelection, match="strictly positive"):
        entry(sel)
    assert intersect_M0(CanonicalPoint(XDEF, sel, 2)) is None


def test_m0_refuses_a_nonzero_c0():
    cp = CanonicalPoint(X321, Selection((0,)), 2, C0=[[0.5]])
    with pytest.raises(InvalidSelection, match="C0 = 0"):
        cp.balanced_scales()
    assert intersect_M0(cp) is None
    assert CanonicalPoint(X321, Selection((0,)), 2, C0=[[1e-13]]).balanced_scales() == [np.sqrt(3.0)]


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
def test_m0_bounds_c0_in_units_of_sigma_1(c):
    """C0 counts as zero up to 1e-12 sigma_1 in norm at every scale of X: at
    c = 1e-20 a C0 of 1e-13 (4e6 sigma_1) is refused, and at c = 1e20 one of
    1e-3 (4e-24 sigma_1) is accepted."""
    X = load_data_matrix(c * np.random.default_rng(0).standard_normal((3, 5)))
    s1 = float(X.sigma[0])
    for size, accepted in ((0.5e-12 * s1, True), (2e-12 * s1, False),
                           (1e-13, c >= 1.0), (1e-3, c > 1.0)):
        cp = CanonicalPoint(X, Selection((0,)), 2, C0=np.full((2, 1), size / np.sqrt(2)))
        assert (intersect_M0(cp) is not None) == accepted, (size, c)
        if not accepted:
            with pytest.raises(InvalidSelection, match="C0 = 0"):
                cp.balanced_scales()


@pytest.mark.parametrize("X", [gaussian(4), XDEF], ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("k", [1, 2])
def test_m0_empty_selection_is_the_origin(X, k):
    """The zero family's balanced point is the origin, where the Hessian has
    the eigenvalues +-sigma_i (k times each) and k (n - m) zeros."""
    empty = Selection(())
    origin = FactorPair(np.zeros((X.m, k)), np.zeros((k, X.n)))
    assert CanonicalPoint(X, empty, k).balanced_scales().size == 0
    bal = build_balanced(X, empty, k)
    assert not bal.W.any() and not bal.S.any()
    rep = spectrum_balanced(X, empty, k)
    assert not rep.point.W.any() and not rep.point.S.any()
    expect = np.sort(np.concatenate([np.repeat(X.sigma, k), -np.repeat(X.sigma, k),
                                     np.zeros(k * (X.n - X.m))]))
    np.testing.assert_array_equal(rep.values, expect)
    ev, _ = numeric_spectrum(X, origin)
    np.testing.assert_allclose(rep.values, ev, rtol=0, atol=1e-12 * X.sigma[0])
    assert lambda_min_balanced(X, empty, k) == -X.sigma[0]
    g = intersect_M0(CanonicalPoint(X, empty, k))
    np.testing.assert_array_equal(g.A, np.eye(k))
