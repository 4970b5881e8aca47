"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.  Tolerances are part of the
contract and must not be loosened.
"""

import time

import numpy as np
import pytest

from mfland import (
    FactorPair,
    GroupElement,
    Selection,
    TangentPair,
    apply_group_action,
    balance_residual,
    build_balanced,
    build_canonical,
    classify_canonical,
    fd_validate,
    first_defect,
    flatten_tangent,
    dense_hessian,
    induced_norm,
    inertia_of,
    integrate_flow,
    intersect_M0,
    lambda_min_balanced,
    lambda_min_closed_form,
    load_data_matrix,
    numeric_spectrum,
    random_balanced_pair,
    random_pair,
    reduce_to_canonical,
    second_derivative,
    spectrum_balanced,
    spectrum_deficient_rank,
    spectrum_full_rank_scaled,
    spectrum_zero_family,
    transported_lambda_min_bound,
)

X21 = load_data_matrix(np.diag([2.0, 1.0]) @ np.eye(2, 3))
X321 = load_data_matrix(np.diag([3.0, 2.0, 1.0]) @ np.eye(3, 4))


def _random_instance(rng):
    """One random (X, report) pair drawn across all critical-point families."""
    m = int(rng.integers(2, 7))
    n = int(rng.integers(m + 1, 9))
    X = load_data_matrix(rng.standard_normal((m, n)))
    k = int(rng.integers(1, m + 1))
    q = int(rng.integers(0, min(k, X.r) + 1))
    sel = Selection(tuple(sorted(int(i) for i in rng.choice(X.r, size=q, replace=False))))
    if q == 0:
        rep = spectrum_zero_family(X, rng.standard_normal((X.n - X.r, k)), k)
    elif q == k:
        rep = spectrum_full_rank_scaled(X, sel, a=1.0)
    else:
        C0 = rng.standard_normal((X.n - X.r, k - q))
        rep = spectrum_deficient_rank(build_canonical(X, sel, k, C0=C0))
    return X, rep


def test_criterion_01_spectrum_matches_oracle_on_50_instances():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        X, rep = _random_instance(rng)
        evals, _ = numeric_spectrum(X, rep.point)
        worst = max(worst, float(np.max(np.abs(np.sort(rep.values) - evals))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8, f"worst eigenvalue deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_lambda_min_worked_values():
    cases = []

    # full-rank canonical, X = diag(2,1) in 2x3, sel = {2}, k = 1 -> -1
    sel = Selection((1,))
    point = build_canonical(X21, sel, 1).materialize()
    cases.append((lambda_min_closed_form(X21, sel, 1), -1.0, X21, point))

    # zero family at sigma_1 = 2 with kernel weight omega = 3 -> -1
    C0 = np.array([[np.sqrt(3.0)]])
    point = spectrum_zero_family(X21, C0, 1).point
    cases.append((lambda_min_closed_form(X21, Selection(()), 1, C0=C0), -1.0, X21, point))

    # balanced representatives -> -1, -2, -3
    for X, sel, k, expect in [
        (X21, (1,), 1, -1.0),
        (X321, (0,), 2, -2.0),
        (X321, (1,), 2, -3.0),
    ]:
        sel = Selection(sel)
        cases.append((lambda_min_balanced(X, sel, k), expect, X, build_balanced(X, sel, k)))

    for got, expect, X, point in cases:
        assert got == pytest.approx(expect, abs=1e-10)
        oracle_min = float(numeric_spectrum(X, point)[0][0])
        assert got == pytest.approx(oracle_min, abs=1e-10)


def test_criterion_03_eigenpair_residual_orthogonality_count():
    rng = np.random.default_rng(7)
    for _ in range(15):
        X, rep = _random_instance(rng)
        k = rep.point.k
        assert len(rep.eigpairs) == k * (X.m + X.n)
        H = dense_hessian(X, rep.point).matrix
        V = np.column_stack([flatten_tangent(e.vector) for e in rep.eigpairs])
        vals = np.array([e.value for e in rep.eigpairs])
        norms = np.linalg.norm(V, axis=0)
        resid = np.linalg.norm(H @ V - V * vals, axis=0)
        assert np.max(resid / norms) <= 1e-9
        gram = V.T @ V
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-9


def _random_saddle(rng):
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 1, 8))
    X = load_data_matrix(rng.standard_normal((m, n)))
    while True:
        k = int(rng.integers(1, m + 1))
        q = int(rng.integers(max(1, k - 1), k + 1))
        sel = Selection(tuple(sorted(int(i) for i in rng.choice(X.r, size=q, replace=False))))
        C0 = rng.standard_normal((X.n - X.r, k - q)) if k > q else None
        cp = build_canonical(X, sel, k, C0=C0)
        if classify_canonical(cp).kind == "StrictSaddle":
            return X, cp


def _bounded_group(rng, k, cond_max):
    U, _ = np.linalg.qr(rng.standard_normal((k, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = np.exp(rng.uniform(-0.5, 0.5, k) * np.log(cond_max))
    s = np.clip(s, s.max() / cond_max, None)
    return GroupElement.from_matrix(U @ np.diag(s) @ V.T)


def test_criterion_04_inertia_invariance_under_transport():
    rng = np.random.default_rng(41)
    for _ in range(20):
        X, cp = _random_saddle(rng)
        p = cp.materialize()
        g = _bounded_group(rng, cp.k, 100.0)
        assert g.cond() <= 100.0 + 1e-6
        moved = apply_group_action(p, g)
        base = inertia_of(X, p)
        assert inertia_of(X, moved) == base
        # orthogonal transport leaves the whole sorted spectrum unchanged
        Q, _ = np.linalg.qr(rng.standard_normal((cp.k, cp.k)))
        e0, _ = numeric_spectrum(X, p)
        e1, _ = numeric_spectrum(X, apply_group_action(p, GroupElement.from_matrix(Q)))
        assert np.max(np.abs(e0 - e1)) <= 1e-8


def test_criterion_05_transported_lambda_min_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        X, cp = _random_saddle(rng)
        lam = classify_canonical(cp).lambda_min_closed_form
        g = _bounded_group(rng, cp.k, 50.0)
        moved = apply_group_action(cp.materialize(), g)
        actual = float(numeric_spectrum(X, moved)[0][0])
        assert actual <= transported_lambda_min_bound(lam, g) + 1e-10

    # the scaled worked case: A = 2 on the diag(2,1) saddle
    sel = Selection((1,))
    g2 = GroupElement.from_matrix(np.array([[2.0]]))
    bound = transported_lambda_min_bound(lambda_min_closed_form(X21, sel, 1), g2)
    assert bound == pytest.approx(-0.25, abs=1e-12)
    moved = apply_group_action(build_canonical(X21, sel, 1).materialize(), g2)
    actual = float(numeric_spectrum(X21, moved)[0][0])
    assert actual == pytest.approx(-24.0 / (17.0 + np.sqrt(481.0)), abs=1e-8)
    assert round(actual, 5) == -0.61646
    assert actual <= bound


def test_criterion_06_no_uniform_bound_under_scaling():
    sel = Selection((1,))
    mags = []
    for a in (1.0, 2.0, 4.0, 8.0):
        lam = lambda_min_closed_form(X21, sel, 1, a=a)
        rep = spectrum_full_rank_scaled(X21, sel, a=a)
        oracle = float(numeric_spectrum(X21, rep.point)[0][0])
        assert lam == pytest.approx(oracle, abs=1e-8)
        mags.append(abs(lam))
    assert all(x > y for x, y in zip(mags, mags[1:])), f"not monotone: {mags}"
    assert mags[-1] < 0.1


def test_criterion_07_balanced_set_machinery():
    from itertools import combinations

    from mfland import zero_family_point

    sigma = X321.sigma

    for k in (1, 2, 3):
        selections = [
            Selection(c)
            for q in range(0, k + 1)
            for c in combinations(range(3), q)
        ]
        for sel in selections:
            c0_variants = [None]
            if k > sel.q:  # a kernel block exists (n - r = 1)
                c0_variants = [np.zeros((1, k - sel.q)), np.ones((1, k - sel.q))]
            for C0 in c0_variants:
                if sel.q:
                    cp = build_canonical(X321, sel, k, C0=C0)
                else:
                    cp = zero_family_point(
                        X321, C0 if C0 is not None else np.zeros((1, k)), k
                    )
                g = intersect_M0(cp)
                expect_element = C0 is None or not np.any(C0)
                assert (g is not None) == expect_element, (sel, k, C0)
                if g is not None:
                    bal = apply_group_action(cp.materialize(), g)
                    assert balance_residual(bal) < 1e-10

    # every balanced strict saddle's oracle minimum is one of the predicted values
    checked = 0
    for k in (1, 2, 3):
        for q in range(0, k + 1):
            for c in combinations(range(3), q):
                sel = Selection(c)
                if q == 0:
                    point = FactorPair(np.zeros((3, k)), np.zeros((k, 4)))
                else:
                    point = build_balanced(X321, sel, k)
                if classify_canonical(reduce_to_canonical(X321, point)[0]).kind != "StrictSaddle":
                    continue
                lam = sorted(sigma[i] for i in sel.indices)
                predicted = set()
                if q and q == k:
                    defect = first_defect(X321, sel)
                    if defect is not None:
                        predicted.add(-(sigma[defect] - lam[0]))
                if q < 3:
                    unselected = [s for i, s in enumerate(sigma) if i not in sel.indices]
                    predicted.add(-unselected[0])  # -sigma_{q+1} or -sigma_p
                oracle = float(numeric_spectrum(X321, point)[0][0])
                assert predicted and min(abs(oracle - v) for v in predicted) <= 1e-8, (
                    sel, k, oracle, predicted,
                )
                checked += 1
    assert checked >= 10


def test_criterion_08_flow_conservation_and_convergence():
    start = time.monotonic()
    for seed in range(10):
        balanced = seed < 5
        p0 = (random_balanced_pair if balanced else random_pair)(X21, 1, seed=seed)
        traj = integrate_flow(X21, p0, grad_tol=1e-9)
        assert traj.status == "Converged"
        E = traj.terminal.W @ traj.terminal.S - X21.X
        grad = np.sqrt(
            np.linalg.norm(E @ traj.terminal.S.T) ** 2
            + np.linalg.norm(traj.terminal.W.T @ E) ** 2
        )
        assert grad < 1e-8
        assert max(s.drift for s in traj.samples) < 1e-8
        if balanced:
            assert traj.samples[-1].J == pytest.approx(0.5, abs=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_derivative_validation():
    rng = np.random.default_rng(99)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 7))
        k = int(rng.integers(1, m + 1))
        X = load_data_matrix(rng.standard_normal((m, n)))
        p = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
        rep = fd_validate(X, p, seed=int(rng.integers(0, 2**31)))
        assert rep.max_gradient_rel_err < 1e-6
        assert rep.max_second_rel_err < 1e-4

    # orbit directions at critical points carry no curvature
    rng = np.random.default_rng(100)
    for _ in range(10):
        X, cp = _random_saddle(rng)
        p = cp.materialize()
        K = rng.standard_normal((cp.k, cp.k))
        d = TangentPair(p.W @ K, -K @ p.S)
        nrm2 = np.linalg.norm(d.G) ** 2 + np.linalg.norm(d.H) ** 2
        assert abs(second_derivative(X, p, d)) < 1e-10 * nrm2


def test_criterion_10_round_trip_canonical_recovery():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        X, cp0 = _random_saddle(rng)
        g = _bounded_group(rng, cp0.k, 1e3)
        assert g.cond() <= 1e3 + 1e-3
        p = apply_group_action(cp0.materialize(), g)
        cp, g_out = reduce_to_canonical(X, p)
        np.testing.assert_allclose(
            np.sort(cp.lambdas), np.sort(cp0.lambdas), atol=1e-8, rtol=1e-8
        )
        back = apply_group_action(cp.materialize(), g_out)
        scale = max(1.0, p.norm())
        err = np.sqrt(
            np.linalg.norm(back.W - p.W) ** 2 + np.linalg.norm(back.S - p.S) ** 2
        )
        assert err <= 1e-8 * scale, f"trial {trial}: reconstruction {err:.3e}"
