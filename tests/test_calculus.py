import numpy as np

from mfland import (
    FactorPair,
    TangentPair,
    build_canonical,
    Selection,
    evaluate_J,
    gradient,
    gradient_norm,
    hessian_apply,
    inner,
    load_data_matrix,
    second_derivative,
)

FD_STEP = 1e-6
FD_TOL = 1e-5


def _random_problem(seed, m=3, n=5, k=2):
    rng = np.random.default_rng(seed)
    X = load_data_matrix(rng.standard_normal((m, n)))
    p = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    d = TangentPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    return X, p, d, rng


def test_gradient_matches_directional_difference():
    X, p, d, _ = _random_problem(0)
    g = gradient(X, p)
    plus = FactorPair(p.W + FD_STEP * d.G, p.S + FD_STEP * d.H)
    minus = FactorPair(p.W - FD_STEP * d.G, p.S - FD_STEP * d.H)
    fd = (evaluate_J(X, plus) - evaluate_J(X, minus)) / (2 * FD_STEP)
    np.testing.assert_allclose(inner(g, d), fd, rtol=FD_TOL)


def test_second_derivative_matches_second_difference():
    X, p, d, _ = _random_problem(1)
    plus = FactorPair(p.W + FD_STEP * d.G, p.S + FD_STEP * d.H)
    minus = FactorPair(p.W - FD_STEP * d.G, p.S - FD_STEP * d.H)
    fd2 = (
        evaluate_J(X, plus) - 2 * evaluate_J(X, p) + evaluate_J(X, minus)
    ) / FD_STEP**2
    np.testing.assert_allclose(second_derivative(X, p, d), fd2, rtol=1e-3)


def test_hessian_is_symmetric_bilinear_form():
    X, p, d1, rng = _random_problem(2)
    d2 = TangentPair(rng.standard_normal(d1.G.shape), rng.standard_normal(d1.H.shape))
    lhs = inner(hessian_apply(X, p, d1), d2)
    rhs = inner(hessian_apply(X, p, d2), d1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_second_derivative_equals_quadratic_form():
    X, p, d, _ = _random_problem(3)
    np.testing.assert_allclose(
        second_derivative(X, p, d), inner(hessian_apply(X, p, d), d), rtol=1e-12
    )


def test_hessian_apply_linear():
    X, p, d1, rng = _random_problem(4)
    d2 = TangentPair(rng.standard_normal(d1.G.shape), rng.standard_normal(d1.H.shape))
    a, b = 0.7, -1.3
    combo = TangentPair(a * d1.G + b * d2.G, a * d1.H + b * d2.H)
    h1 = hessian_apply(X, p, d1)
    h2 = hessian_apply(X, p, d2)
    hc = hessian_apply(X, p, combo)
    np.testing.assert_allclose(hc.G, a * h1.G + b * h2.G, atol=1e-12)
    np.testing.assert_allclose(hc.H, a * h1.H + b * h2.H, atol=1e-12)


def test_critical_at_canonical_not_at_random():
    X, p, _, _ = _random_problem(5)
    assert gradient_norm(X, p) > 1e-10 * X.tol_scale
    cp = build_canonical(X, Selection((0, 2)), 2)
    q = cp.materialize()
    assert gradient_norm(X, q) < 1e-12 * X.tol_scale


def test_gradient_zero_iff_both_blocks_vanish():
    X, p, _, _ = _random_problem(6)
    g = gradient(X, p)
    E = p.W @ p.S - X.X
    np.testing.assert_allclose(g.G, E @ p.S.T, atol=1e-14)
    np.testing.assert_allclose(g.H, p.W.T @ E, atol=1e-14)
