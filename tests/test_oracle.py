import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfland import (
    CanonicalPoint,
    FactorPair,
    GroupElement,
    InvalidInput,
    NumericalFailure,
    Selection,
    TangentPair,
    TooLarge,
    apply_group_action,
    balanced_flow_exact,
    dense_hessian,
    fd_validate,
    flatten_tangent,
    hessian_apply,
    inertia_from_values,
    inertia_of,
    load_data_matrix,
    numeric_spectrum,
    random_balanced_pair,
    unflatten_tangent,
)
from mfland import oracle
from mfland.calculus import _hessian_action
from mfland.oracle import MAX_DENSE_DIM


def _setup(seed=0, m=3, n=4, k=2):
    rng = np.random.default_rng(seed)
    X = load_data_matrix(rng.standard_normal((m, n)))
    p = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    return X, p, rng


def test_flatten_round_trip():
    rng = np.random.default_rng(1)
    d = TangentPair(rng.standard_normal((3, 2)), rng.standard_normal((2, 5)))
    v = flatten_tangent(d)
    assert v.shape == (2 * (3 + 5),)
    back = unflatten_tangent(v, 3, 5, 2)
    np.testing.assert_array_equal(back.G, d.G)
    np.testing.assert_array_equal(back.H, d.H)


def test_dense_matches_operator():
    X, p, rng = _setup()
    H = dense_hessian(X, p)
    assert H.asymmetry < 1e-12
    for _ in range(5):
        d = TangentPair(
            rng.standard_normal((X.m, p.k)), rng.standard_normal((p.k, X.n))
        )
        np.testing.assert_allclose(
            H.matrix @ flatten_tangent(d),
            flatten_tangent(hessian_apply(X, p, d)),
            atol=1e-10 * max(1.0, p.norm()) ** 2,
        )


def test_numeric_spectrum_sorted_and_consistent():
    X, p, _ = _setup(2)
    evals, evecs = numeric_spectrum(X, p)
    assert np.all(np.diff(evals) >= 0)
    H = dense_hessian(X, p).matrix
    np.testing.assert_allclose(H @ evecs, evecs * evals, atol=1e-10)


def test_inertia_from_values():
    vals = np.array([-2.0, -1e-15, 0.0, 3e-12, 5.0, 7.0])
    assert inertia_from_values(vals, tol=1e-9) == (2, 1, 3)
    assert inertia_from_values(vals, tol=1e-16) == (3, 2, 1)


def test_inertia_count_has_one_home():
    """The closed-form spectra and the oracle count inertia with the same
    function, which the oracle re-exports from the model."""
    from mfland import model, spectrum
    assert oracle.inertia_from_values is model.inertia_from_values
    assert spectrum.inertia_from_values is model.inertia_from_values


def test_size_guard():
    X = load_data_matrix(np.eye(40) + np.diag(np.arange(40.0)))
    p = FactorPair(np.zeros((40, 63)), np.zeros((63, 40)))
    with pytest.raises(TooLarge):
        dense_hessian(X, p)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_non_finite_dense_hessian_is_a_numerical_failure(scale):
    """Far out on the orbit of a canonical point the Hessian overflows; the
    oracle refuses the non-finite matrix without a NumPy warning, so neither
    eigh nor an inertia count sees it."""
    X = load_data_matrix(np.random.default_rng(0).standard_normal((3, 5)))
    base = CanonicalPoint(X, Selection((0, 2)), 2).materialize()
    far = apply_group_action(base, GroupElement.from_matrix(scale * np.eye(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (numeric_spectrum, inertia_of):
            with pytest.raises(NumericalFailure, match="dense Hessian has non-finite entries"):
                f(X, far)


def test_size_guard_allocates_nothing():
    """One past MAX_DENSE_DIM is refused before any N-sized array exists."""
    N = MAX_DENSE_DIM + 1
    k = N // 3  # N = k (m + n) with a 1 x 2 X
    X = load_data_matrix(np.array([[2.0, 1.0]]))
    p = FactorPair(np.ones((1, k)), np.ones((k, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            dense_hessian(X, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N, f"peak {peak} B"


def test_dense_hessian_memory_is_the_matrix_and_one_block(monkeypatch):
    """N = 1200: while the action runs on a block, the matrix and that block
    are all that is live, so there is no N x N identity and no (N, m, n)
    stack; the symmetrization adds one more N x N array."""
    rng = np.random.default_rng(0)
    X = load_data_matrix(rng.standard_normal((48, 72)))
    p = FactorPair(rng.standard_normal((48, 10)), rng.standard_normal((10, 72)))
    N = 10 * (48 + 72)
    block_peaks = []

    def action(*args):
        tracemalloc.reset_peak()
        out = _hessian_action(*args)
        block_peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(oracle, "_hessian_action", action)
    tracemalloc.start()
    try:
        h = dense_hessian(X, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.dim == N
    assert len(block_peaks) > 1
    assert max(block_peaks) < N * N * 8 + 4 * 2**20, f"{max(block_peaks) / 2**20:.1f} MB"
    assert peak < 2 * N * N * 8 + 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _per_column_reference(X, p):
    """The dense Hessian built one hessian_apply call per column: (matrix,
    asymmetry) exactly as the stacked assembly must reproduce them."""
    m, n, k = X.m, X.n, p.k
    N = k * (m + n)
    A = np.empty((N, N))
    e = np.zeros(N)
    for c in range(N):
        e[c] = 1.0
        A[:, c] = flatten_tangent(hessian_apply(X, p, unflatten_tangent(e, m, n, k)))
        e[c] = 0.0
    return 0.5 * (A + A.T), float(np.linalg.norm(A - A.T))


def _matrix(kind, rng):
    if kind == "tied":
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((5, 4)))
        return (U * [2.0, 2.0, 1.0, 1.0]) @ V.T
    if kind == "rank-deficient":
        return rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
    if kind == "tall":
        return rng.standard_normal((6, 3))
    if kind == "square":
        return rng.standard_normal((4, 4))
    return rng.standard_normal((4, 6))


KINDS = ["tied", "rank-deficient", "tall", "square", "generic"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(-6, 6), st.integers(1, 7),
       st.integers(0, 2**16))
def test_stacked_assembly_equals_the_per_column_loop(kind, exponent, b, seed):
    """Bit for bit, at critical points (canonical, scaled) and at random
    non-critical points, for every k <= min(m, n), with the default blocks
    and with blocks of b columns, which split the matrix into many blocks and
    put the G/H boundary inside one."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    X = load_data_matrix(scale * _matrix(kind, rng))
    for k in range(1, X.m + 1):
        q = int(rng.integers(0, k + 1))
        sel = Selection(tuple(sorted(rng.choice(X.m, size=q, replace=False).tolist())))
        C0 = np.sqrt(scale) * rng.standard_normal((X.n - X.r, k - q))
        critical = CanonicalPoint(X, sel, k, C0).materialize(
            float(np.exp(rng.uniform(-1.0, 1.0))))
        generic = FactorPair(np.sqrt(scale) * rng.standard_normal((X.m, k)),
                             np.sqrt(scale) * rng.standard_normal((k, X.n)))
        small = 8 * b * max(X.m, k) * max(X.n, k)
        for p in (critical, generic):
            matrix, asymmetry = _per_column_reference(X, p)
            with mock.patch.object(oracle, "_BLOCK_BYTES", small):
                stacked = [dense_hessian(X, p)]
            stacked.append(dense_hessian(X, p))
            for h in stacked:
                assert np.array_equal(h.matrix, matrix)
                assert h.matrix.tobytes() == matrix.tobytes()  # signed zeros too
                assert h.asymmetry == asymmetry


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 5), st.integers(0, 2**16))
def test_hessian_action_on_a_stack_is_per_slice_hessian_apply(kind, b, seed):
    rng = np.random.default_rng(seed)
    X = load_data_matrix(_matrix(kind, rng))
    k = int(rng.integers(1, X.m + 1))
    p = FactorPair(rng.standard_normal((X.m, k)), rng.standard_normal((k, X.n)))
    G = rng.standard_normal((b, X.m, k))
    H = rng.standard_normal((b, k, X.n))
    out_G, out_H = _hessian_action(p.W, p.S, p.W @ p.S - X.X, G, H)
    for i in range(b):
        ref = hessian_apply(X, p, TangentPair(G=G[i], H=H[i]))
        assert np.array_equal(out_G[i], ref.G)
        assert np.array_equal(out_H[i], ref.H)


def test_fd_validate_clean_point():
    X, p, _ = _setup(3)
    rep = fd_validate(X, p, seed=0)
    assert rep.ok
    assert rep.max_gradient_rel_err < 1e-6
    assert rep.max_second_rel_err < 1e-4


def test_fd_validate_deterministic():
    X, p, _ = _setup(4)
    assert fd_validate(X, p, seed=9) == fd_validate(X, p, seed=9)


@pytest.mark.parametrize("shape,k", [((3, 5), 2), ((4, 4), 3), ((2, 6), 2)])
def test_balanced_flow_exact_solves_the_riccati_equation(shape, k):
    """R(0) = Z0 Z0^T, and a central difference of R in t matches
    G R + R G - R^2 at sigma_1 t = 0.5 and 4, where G = [[0, X], [X^T, 0]]."""
    rng = np.random.default_rng(3)
    X = load_data_matrix(rng.standard_normal(shape))
    p0 = random_balanced_pair(X, k, seed=4)
    Z0 = np.vstack([p0.W, p0.S.T])
    assert np.allclose(balanced_flow_exact(X, p0, 0.0), Z0 @ Z0.T, rtol=0, atol=1e-13)
    m, n = X.m, X.n
    G = np.block([[np.zeros((m, m)), X.X], [X.X.T, np.zeros((n, n))]])
    s1 = float(X.sigma[0])
    for t in (0.5 / s1, 4.0 / s1):
        R = balanced_flow_exact(X, p0, t)
        dt = 1e-5 / s1
        dR = (balanced_flow_exact(X, p0, t + dt) - balanced_flow_exact(X, p0, t - dt)) / (2 * dt)
        rhs = G @ R + R @ G - R @ R
        assert np.abs(dR - rhs).max() <= 1e-6 * s1 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("case", ["negative t", "nan t", "past the bound", "unbalanced"])
def test_balanced_flow_exact_refuses(case):
    """A negative or non-finite t, sigma_1 t above EXACT_FLOW_MAX_SIGMA_T and
    an unbalanced start are refused, each naming what failed."""
    X = load_data_matrix(np.diag([2.0, 1.0]) @ np.eye(2, 3))
    p0 = random_balanced_pair(X, 1, seed=0)
    t, match = {
        "negative t": (-1.0, "t must be"),
        "nan t": (np.nan, "t must be"),
        "past the bound": (1.01 * oracle.EXACT_FLOW_MAX_SIGMA_T / 2.0, "sigma_1 \\* t"),
        "unbalanced": (1.0, "not balanced"),
    }[case]
    if case == "unbalanced":
        p0 = FactorPair(W=p0.W, S=2.0 * p0.S)
    with pytest.raises(InvalidInput, match=match):
        balanced_flow_exact(X, p0, t)
    balanced_flow_exact(X, random_balanced_pair(X, 1, seed=0), 0.99 * oracle.EXACT_FLOW_MAX_SIGMA_T / 2.0)
