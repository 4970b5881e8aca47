import tracemalloc
import warnings
from itertools import combinations

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
    block_spectrum,
    build_canonical,
    dense_hessian,
    fd_validate,
    flatten_tangent,
    gradient_norm,
    hessian_apply,
    inertia_at_nullity,
    inertia_of,
    load_data_matrix,
    numeric_spectrum,
    random_balanced_pair,
    random_pair,
    second_derivative,
    unflatten_tangent,
)
from mfland import oracle
from mfland.oracle import MAX_DENSE_DIM
from matrix_kinds import KINDS, X21, canonical_inertia, gaussian, matrix_of_kind


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(-3, 3), st.integers(0, 2**16))
def test_dense_matches_operator(kind, exponent, seed):
    """At a canonical point with a random C0 and at a random point, for every
    k, of every kind at scale 10^exponent: the dense matrix H times v is the
    action on v, and v^T H v is second_derivative's quadratic form, which
    fd_validate ties to J, each within 1e-12 of ||v||^2 max|H| (||v|| max|H|
    for the action), for random directions v."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    X = load_data_matrix(scale * matrix_of_kind(kind, rng))
    for k in range(1, X.m + 1):
        q = int(rng.integers(0, k + 1))
        sel = Selection(tuple(sorted(rng.choice(X.m, size=q, replace=False).tolist())))
        C0 = np.sqrt(scale) * rng.standard_normal((X.n - X.r, k - q))
        critical = CanonicalPoint(X, sel, k, C0).materialize(
            float(np.exp(rng.uniform(-1.0, 1.0))))
        generic = FactorPair(np.sqrt(scale) * rng.standard_normal((X.m, k)),
                             np.sqrt(scale) * rng.standard_normal((k, X.n)))
        for p in (critical, generic):
            h = dense_hessian(X, p)
            big = float(np.max(np.abs(h.matrix)))
            assert h.asymmetry <= 1e-12 * big
            for _ in range(3):
                d = TangentPair(rng.standard_normal((X.m, k)), rng.standard_normal((k, X.n)))
                v = flatten_tangent(d)
                nrm = float(np.linalg.norm(v))
                action = flatten_tangent(hessian_apply(X, p, d))
                assert np.linalg.norm(h.matrix @ v - action) <= 1e-12 * nrm * big
                assert abs(v @ h.matrix @ v - second_derivative(X, p, d)) <= 1e-12 * nrm**2 * big


def test_numeric_spectrum_sorted_and_consistent():
    X, p, _ = _setup(2)
    evals, evecs = numeric_spectrum(X, p)
    assert np.all(np.diff(evals) >= 0)
    H = dense_hessian(X, p).matrix
    V = _columns(evecs)
    np.testing.assert_allclose(H @ V, V * evals, atol=1e-10)


def _columns(vecs):
    """The eigenvector matrix, read one column at a time."""
    return np.column_stack([vecs[:, i] for i in range(vecs.shape[1])])


def test_inertia_of_counts_at_a_zero_tolerance(monkeypatch):
    """|value| <= zero_tol counts as zero and the rest by sign."""
    vals = np.array([-2.0, -1e-15, 0.0, 3e-12, 5.0, 7.0])
    monkeypatch.setattr(oracle, "equilibrated_values", lambda X, p: vals)
    p = random_pair(X21, 1, seed=0)
    assert inertia_of(X21, p, zero_tol=1e-9) == (2, 1, 3)
    assert inertia_of(X21, p, zero_tol=1e-16) == (3, 2, 1)


def test_inertia_at_nullity_drops_the_smallest_magnitudes():
    """The z smallest |values| are the zeros, whatever their size; the others
    count by sign, and a 0.0 among them, its sign lost, is refused."""
    vals = np.array([-2.0, -1e-15, 3e-12, 1e-3, 5.0])
    assert inertia_at_nullity(vals, 2) == (2, 1, 2)
    assert inertia_at_nullity(vals, 0) == (3, 2, 0)
    with pytest.raises(NumericalFailure, match=r"^1 Hessian eigenvalue\(s\) past the nullity 1 "
                                               r"are 0\.0 in float64: their signs are lost$"):
        inertia_at_nullity(np.array([0.0, 0.0, 1.0]), 1)


def test_inertia_count_has_one_home(monkeypatch):
    """inertia_of is the one oracle count: it counts the oracle's
    equilibrated values with the model's functions, which the oracle does not
    re-export, and the CLI and verify call it at a nullity known from
    structure instead of counting for themselves.  There is one counting
    rule: a zero floor counts at the nullity of the values under it.  The
    closed-form spectra count their own zeros, which are zero by formula."""
    import mfland
    from mfland import cli, model, orbit, verify
    assert orbit.inertia_at_nullity is model.inertia_at_nullity
    assert cli.inertia_of is verify.inertia_of is orbit.inertia_of
    for module in (mfland, model, orbit, oracle, cli, verify):
        assert not hasattr(module, "inertia_from_values")
    for module in (oracle, cli, verify):
        assert not hasattr(module, "inertia_at_nullity")
    seen = []
    count = model.inertia_at_nullity
    monkeypatch.setattr(orbit, "inertia_at_nullity", lambda v, z: seen.append(z) or count(v, z))
    monkeypatch.setattr(oracle, "equilibrated_values",
                        lambda X, p: np.array([-2.0, -1e-15, 0.0, 3e-12, 5.0]))
    assert inertia_of(X21, random_pair(X21, 1, seed=0), zero_tol=1e-9) == (1, 1, 3)
    assert seen == [3]


def test_size_guard():
    X = load_data_matrix(np.eye(40) + np.diag(np.arange(40.0)))
    p = FactorPair(np.zeros((40, 63)), np.zeros((63, 40)))
    with pytest.raises(TooLarge):
        dense_hessian(X, p)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_non_finite_dense_hessian_is_a_numerical_failure(scale):
    """Far out on the orbit of a canonical point the Hessian overflows; the
    oracle refuses it without a NumPy warning, naming the largest |entry| of
    W and of S, so neither eigh nor an inertia count sees it."""
    X = gaussian(0)
    base = CanonicalPoint(X, Selection((0, 2)), 2).materialize()
    far = apply_group_action(base, GroupElement.from_matrix(scale * np.eye(2)))
    sizes = f"max |W| = {np.abs(far.W).max():.3g}, max |S| = {np.abs(far.S).max():.3g}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, what in ((dense_hessian, "the dense Hessian"), (numeric_spectrum, "the Hessian"),
                        (block_spectrum, "the Hessian"), (inertia_of, "the Hessian")):
            with pytest.raises(NumericalFailure) as info:
                f(X, far)
            assert str(info.value) == f"{what} is not finite in float64: {sizes}"


def test_an_overflowing_cross_entry_is_a_numerical_failure():
    """At X = (1e-300) and W = S = (1.15e154), S S^T, W^T W and E are finite
    but the cross entry W S + E is not: the dense oracle and the block
    spectra refuse the point as the overflow it is, without a NumPy warning,
    before the action builds a non-finite column or eigh sees a block.
    At X = 1e-300 H diag(4, 3, 2, 1) H^T, H the Hadamard matrix over 2 (its
    first column ones(4) / 2), and W = S^T = sqrt(4e307) ones(4, 1), the dense
    Hessian is finite, but U^T W and S V are twice W and S, and the block
    spectra's rotated core overflows."""
    X = load_data_matrix(np.array([[1e-300]]))
    p = FactorPair(np.full((1, 1), 1.15e154), np.full((1, 1), 1.15e154))
    H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    Xr = load_data_matrix(1e-300 * (H * [4.0, 3.0, 2.0, 1.0]) @ H.T)
    w = np.full((4, 1), np.sqrt(4e307))
    pr = FactorPair(w, w.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, what in ((dense_hessian, "the dense Hessian"), (numeric_spectrum, "the Hessian"),
                        (block_spectrum, "the Hessian"), (inertia_of, "the Hessian")):
            with pytest.raises(NumericalFailure, match=f"^{what} is not finite in float64: "):
                f(X, p)
        assert np.isfinite(dense_hessian(Xr, pr).matrix).all()
        for f in (numeric_spectrum, block_spectrum, inertia_of):
            with pytest.raises(NumericalFailure, match="^the Hessian's rotated core is not "
                                                       "finite in float64: max [|]U"):
                f(Xr, pr)


@pytest.mark.parametrize("e", [1e-160, 1e-300])
def test_an_underflowing_diagonal_is_equilibrated_within_float64(e):
    """At X = (1) and W = S = (e) the core is [[e^2, -1], [-1, e^2]]: Jacobi
    scaling would put -1 / e^2 (1e320 at e = 1e-160) off its diagonal.  The
    scaling stops at 1e-300 of the block's largest |entry|, so the count
    stays in float64 and is the dense one."""
    X = load_data_matrix(np.array([[1.0]]))
    p = FactorPair(np.full((1, 1), e), np.full((1, 1), e))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inertia_of(X, p) == inertia_of(X, p, nullity=0) == (1, 1, 0)
        assert np.array_equal(np.sign(block_spectrum(X, p)), [-1.0, 1.0])


def test_block_spectrum_guards_its_core_not_N():
    """A 300 x 400 X with k = 10 has N = 7000, past MAX_DENSE_DIM.  Both block
    oracles answer at a canonical saddle, whose core is 20 indices wide, and
    refuse a random point, whose core holds every row and 310 columns."""
    rng = np.random.default_rng(0)
    X = load_data_matrix(rng.standard_normal((300, 400)))
    p = CanonicalPoint(X, Selection(tuple(range(9)) + (10,)), 10).materialize()
    vals = block_spectrum(X, p)
    trace = 300 * np.sum(p.S * p.S) + 400 * np.sum(p.W * p.W)
    assert vals.size == 7000 and vals[0] < 0
    assert abs(np.sum(vals) - trace) <= 1e-12 * 7000 * X.sigma[0] ** 2
    evals, vecs = numeric_spectrum(X, p)
    assert vecs.shape == (7000, 7000)
    assert np.max(np.abs(evals - vals)) <= 1e-12 * np.max(np.abs(vals))
    generic = FactorPair(rng.standard_normal((300, 10)), rng.standard_normal((10, 400)))
    for f in (block_spectrum, numeric_spectrum):
        with pytest.raises(TooLarge) as info:
            f(X, generic)
        assert str(info.value) == "the Hessian's core would be 6100 x 6100 (limit 5000)"


def test_numeric_spectrum_answers_at_the_largest_ladder_point():
    """At the spectrum workload's N = 5000 point (a 200 x 300 X, k = 10, the
    full selection moved by A = I + 0.3 Z / sqrt(k)) the eigenpairs come
    without an N x N array: the traced peak stays below a quarter of one, the
    values are block_spectrum's to 1e-12 of the largest |value|, and the
    columns of the smallest and largest value and a seeded random one have
    residuals within 1e-10 sigma_1^2 under hessian_apply."""
    rng = np.random.default_rng(0)
    m, n, k = 200, 300, 10
    X = load_data_matrix(rng.standard_normal((m, n)))
    base = CanonicalPoint(X, Selection(tuple(range(k - 1)) + (k,)), k).materialize()
    A = np.eye(k) + 0.3 * rng.standard_normal((k, k)) / np.sqrt(k)
    p = apply_group_action(base, GroupElement.from_matrix(A))
    N = k * (m + n)
    tracemalloc.start()
    try:
        vals, vecs = numeric_spectrum(X, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.size == N == MAX_DENSE_DIM and vecs.shape == (N, N)
    assert peak < N * N * 8 / 4, f"peak {peak / 2**20:.2f} MB"
    ref = block_spectrum(X, p)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
    for i in (0, N - 1, int(rng.integers(N))):
        v = unflatten_tangent(vecs[:, i], m, n, k)
        hv = hessian_apply(X, p, v)
        res = np.sqrt(np.sum((hv.G - vals[i] * v.G) ** 2) + np.sum((hv.H - vals[i] * v.H) ** 2))
        assert res <= 1e-10 * X.sigma[0] ** 2, (i, res)


def test_eigenvectors_are_read_one_column_at_a_time():
    """numeric_spectrum's eigenvectors are an N x N matrix read as [:, i],
    i negative too: a row, a slice of columns or a column past N is
    refused."""
    X, p, _ = _setup(5)
    _, vecs = numeric_spectrum(X, p)
    N = vecs.shape[1]
    assert vecs.shape == (N, N) == (p.k * (X.m + X.n),) * 2
    assert vecs[:, -1].tobytes() == vecs[:, N - 1].tobytes()
    for key in (0, np.s_[:, 1:3]):
        with pytest.raises(TypeError, match=r"\[:, i\]"):
            vecs[key]
    with pytest.raises(IndexError):
        vecs[:, N]


def test_size_guard_allocates_nothing():
    """One past MAX_DENSE_DIM, dense_hessian refuses before any N-sized array
    exists, naming the N x N matrix it would build.  It is the one oracle
    capped at N; the block oracles cap only their core."""
    N = MAX_DENSE_DIM + 1
    k = N // 3  # N = k (m + n) with a 1 x 2 X
    X = load_data_matrix(np.array([[2.0, 1.0]]))
    p = FactorPair(np.ones((1, k)), np.ones((k, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as info:
            dense_hessian(X, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N, f"peak {peak} B"
    assert str(info.value) == f"dense Hessian would be {N} x {N} (limit {MAX_DENSE_DIM})"


def test_dense_hessian_memory_is_the_matrix_and_one_block():
    """N = 1200: assembly holds the matrix and less than one m k x n k cross
    block besides, so there is no second N x N array, no N x N identity, no
    stack of unit tangents and no temporary for the skew of the cross blocks."""
    rng = np.random.default_rng(0)
    m, n, k = 48, 72, 10
    X = load_data_matrix(rng.standard_normal((m, n)))
    p = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    N = k * (m + n)
    tracemalloc.start()
    try:
        h = dense_hessian(X, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.dim == N
    assert peak < N * N * 8 + m * k * n * k * 8, f"peak {peak / 2**20:.1f} MB"


def test_an_asymmetric_raw_matrix_is_averaged_with_its_transpose(monkeypatch):
    """The raw matrix is exactly symmetric, so dense_hessian averages nothing.
    With the action on the first unit tangent moved by delta in one H
    coordinate, the asymmetry is ||A - A^T||_F and the matrix is (A + A^T) / 2
    of that raw A, entry by entry."""
    X = gaussian(0)
    p = CanonicalPoint(X, Selection((0, 2)), 2).materialize()
    A = dense_hessian(X, p).matrix.copy()
    mk, delta = X.m * p.k, 0.25
    exact = oracle.hessian_apply

    def skewed(X, p, d):
        out = exact(X, p, d)
        if d.G[0, 0] != 1.0:
            return out
        H = out.H.copy()
        H[1, 0] += delta  # row (H, b = 0, c = 1) of column (G, 0, 0)
        return TangentPair(G=out.G, H=H)

    monkeypatch.setattr(oracle, "hessian_apply", skewed)
    h = dense_hessian(X, p)
    A[mk + 1, 0] += delta
    assert h.asymmetry == float(np.linalg.norm(A - A.T)) > 0
    assert h.matrix.tobytes() == (0.5 * (A + A.T)).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.integers(-3, 3), st.sampled_from([-50, 0, 50]),
       st.integers(0, 2**16))
def test_block_spectrum_equals_the_dense_spectrum(kind, exponent, orbit_exponent, seed):
    """At every k and every selection of every kind and scale (ties, q < k
    and indices past the rank included), moved by a random A at orbit scale
    10^orbit_exponent from a canonical point with a random C0, and at a
    random point of each k, which is not critical, the sorted block values
    equal eigvalsh of the dense Hessian to 1e-12 of the largest |value|, and
    so do numeric_spectrum's values; each of its eigenvectors, read as
    [:, i], has a residual against the dense matrix within 1e-12 of that
    value, and V^T V is I to 1e-12 for the matrix V of those columns.
    inertia_of, at the closed form's nullity and at its default floor, counts
    the closed-form inertia of the canonical point at orbit scale 1.  At
    10^+-50, outside the 10^[-9, 9] where that count is held
    (test_orbit.test_inertia_of_is_the_closed_form_inertia_on_graded_orbits),
    the count at the nullity erred on 129 of the 26082 points of seeds 0-5
    (the default floor on 1050).  90 of them are zero families at 10^-50,
    whose pair block [[S S^T, -sigma I], [-sigma I, 0]] keeps its zero
    diagonal, which no Jacobi scaling reaches."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    X = load_data_matrix(scale * matrix_of_kind(kind, rng))

    def agree(p, inertia=None):
        dense = dense_hessian(X, p).matrix
        ref = np.linalg.eigvalsh(dense)
        big = float(np.max(np.abs(ref)))
        assert np.max(np.abs(block_spectrum(X, p) - ref)) <= 1e-12 * big
        vals, vecs = numeric_spectrum(X, p)
        V = _columns(vecs)
        assert np.max(np.abs(vals - ref)) <= 1e-12 * big
        assert np.max(np.linalg.norm(dense @ V - V * vals, axis=0)) <= 1e-12 * big
        assert np.max(np.abs(V.T @ V - np.eye(ref.size))) <= 1e-12
        if inertia is not None:
            assert inertia_of(X, p, nullity=inertia[2]) == inertia_of(X, p) == inertia

    for k in range(1, X.m + 1):
        agree(FactorPair(np.sqrt(scale) * rng.standard_normal((X.m, k)),
                         np.sqrt(scale) * rng.standard_normal((k, X.n))))
        for q in range(k + 1):
            for sel in combinations(range(X.m), q):
                C0 = np.sqrt(scale) * rng.standard_normal((X.n - X.r, k - q))
                base = CanonicalPoint(X, Selection(sel), k, C0).materialize()
                g = GroupElement.from_matrix(
                    10.0**orbit_exponent * (np.eye(k) + 0.5 * rng.standard_normal((k, k))))
                agree(apply_group_action(base, g),
                      canonical_inertia(X, sel, k, C0) if orbit_exponent == 0 else None)


def _ill_conditioned():
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
    return (Q * [1.0, 1e-9]) @ Q.T


def _far_along_an_orbit(A):
    """The golden 4 x 6 X of seed 1 and its point of --select 1,3 moved by A."""
    X = load_data_matrix(np.random.default_rng([1, 4, 6]).standard_normal((4, 6)))
    base = CanonicalPoint(X, Selection((0, 2)), 2).materialize()
    return X, apply_group_action(base, GroupElement.from_matrix(A))


@pytest.mark.parametrize("A", [1e8 * np.eye(2), _ill_conditioned()], ids=["1e8 I", "cond 1e9"])
def test_block_spectrum_answers_far_along_an_orbit(A):
    """The golden 4 x 6 X of seed 1 with --select 1,3, moved by 1e8 I or
    by Q diag(1, 1e-9) Q^T: the absolute gradient test at
    1e-8 * max(1, ||X||_F) would refuse either, and a test relative to
    ||W||_F, which A scales unevenly, the second; its block spectrum is the
    dense one."""
    X, p = _far_along_an_orbit(A)
    assert gradient_norm(X, p) > 1e-8 * X.tol_scale
    ref = np.linalg.eigvalsh(dense_hessian(X, p).matrix)
    assert np.max(np.abs(block_spectrum(X, p) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("A", [
    1e8 * np.eye(2),
    pytest.param(_ill_conditioned(), marks=pytest.mark.xfail(strict=True, reason=(
        "cond(A) = 1e9 is past the 1e6 the count is held to: it gives (14, 2, 4) at "
        "the nullity and (9, 0, 11) at the default floor")))],
    ids=["1e8 I", "cond 1e9"])
def test_inertia_of_answers_far_along_an_orbit(A):
    """The point of the test above keeps the closed-form inertia (15, 1, 4)
    of its canonical point, and inertia_of counts it at the nullity 4 and at
    its default floor.  On the plain block values the floor
    1e-8 max(sigma_1, |largest value|) counted (12, 0, 8) and (4, 0, 16),
    and the nullity (13, 3, 4) and (10, 6, 4)."""
    X, p = _far_along_an_orbit(A)
    assert inertia_of(X, p, nullity=4) == inertia_of(X, p) == (15, 1, 4)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, "1e-8"], ids=repr)
def test_a_bad_zero_tolerance_is_refused_before_assembly(tol, monkeypatch):
    """A negative, NaN, infinite or non-numeric tolerance once gave counts
    that do not sum to N, (0, 0, 0) or a raw NumPy error; inertia_of now
    refuses it before it builds any Hessian block, as it does a zero_tol
    given with a nullity.  zero_tol=None keeps inertia_of's default."""
    X = gaussian(0)
    p = CanonicalPoint(X, Selection((0, 2)), 2).materialize()
    built = []
    assemble = oracle._blocks
    monkeypatch.setattr(oracle, "_blocks", lambda *a: built.append(a) or assemble(*a))
    with pytest.raises(InvalidInput, match="zero tolerance must be a nonnegative finite number"):
        inertia_of(X, p, zero_tol=tol)
    with pytest.raises(InvalidInput, match="^inertia_of takes zero_tol or nullity, not both$"):
        inertia_of(X, p, zero_tol=1e-8, nullity=4)
    assert built == []
    for ok in (None, 0, 0.0, np.float64(1e-8)):
        assert sum(inertia_of(X, p, zero_tol=ok)) == 16
    assert len(built) == 4


def test_fd_validate_clean_point():
    X, p, _ = _setup(3)
    rep = fd_validate(X, p, seed=0)
    assert rep.ok
    assert rep.max_gradient_rel_err < 1e-6
    assert rep.max_second_rel_err < 1e-4


def test_fd_validate_resolves_critical_points_and_still_sees_an_offset(monkeypatch):
    """Canonical points, where <grad J, d> is rounding noise, and verify's
    start at seed 7, whose d2 J[d] lies below the second difference's
    resolution, pass; a gradient offset by 1e-8 does not."""
    A = gaussian([7, 4, 6], 4, 6)
    crit = [build_canonical(A, Selection(sel), k).materialize()
            for k in (1, 2, 3) for sel in combinations(range(4), min(k, 2))]
    assert all(fd_validate(A, p).ok for p in crit)
    assert fd_validate(A, random_pair(A, 2, 7), seed=7).ok
    exact = oracle.gradient
    monkeypatch.setattr(oracle, "gradient", lambda X, p: TangentPair(
        G=exact(X, p).G + 1e-8, H=exact(X, p).H + 1e-8))
    assert not any(fd_validate(A, p).ok for p in crit)


def test_fd_validate_deterministic():
    X, p, _ = _setup(4)
    assert fd_validate(X, p, seed=9) == fd_validate(X, p, seed=9)


@pytest.mark.parametrize("shape,k", [((3, 5), 2), ((4, 4), 3), ((2, 6), 2)]
                         + [(kind, 3) for kind in KINDS])
def test_balanced_flow_exact_solves_the_riccati_equation(shape, k):
    """R(0) = Z0 Z0^T, and a central difference of R in t matches
    G R + R G - R^2 at sigma_1 t = 0.5 and 4, where G = [[0, X], [X^T, 0]].
    X is Gaussian of the given shape or of a matrix_kinds kind, whose tied,
    repeated or zero sigma give G repeated and extra zero eigenvalues."""
    rng = np.random.default_rng(3)
    raw = matrix_of_kind(shape, rng) if isinstance(shape, str) else rng.standard_normal(shape)
    X = load_data_matrix(raw)
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
    p0 = random_balanced_pair(X21, 1, seed=0)
    t, match = {
        "negative t": (-1.0, "t must be"),
        "nan t": (np.nan, "t must be"),
        "past the bound": (1.01 * oracle.EXACT_FLOW_MAX_SIGMA_T / 2.0, "sigma_1 \\* t"),
        "unbalanced": (1.0, "not balanced"),
    }[case]
    if case == "unbalanced":
        p0 = FactorPair(W=p0.W, S=2.0 * p0.S)
    with pytest.raises(InvalidInput, match=match):
        balanced_flow_exact(X21, p0, t)
    balanced_flow_exact(X21, random_balanced_pair(X21, 1, seed=0), 0.99 * oracle.EXACT_FLOW_MAX_SIGMA_T / 2.0)
