import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfland import (
    DimensionError,
    FactorPair,
    GroupElement,
    InvalidInput,
    SingularGroupElement,
    TangentPair,
    evaluate_J,
    fd_validate,
    load_data_matrix,
    random_balanced_pair,
    random_pair,
    read_matrix_csv,
    residual,
    write_matrix_csv,
)
from mfland.model import KernelFrame
from mfland.verify import run_all
from matrix_kinds import KINDS, X21, gaussian, matrix_of_kind

RECON_TOL = 1e-12


def test_orientation_wide_kept():
    assert X21.m == 2 and X21.n == 3
    assert not X21.transposed
    assert not gaussian(0, 4, 4).transposed  # square X is kept as given


def test_orientation_tall_transposed():
    A = np.arange(12, dtype=float).reshape(4, 3) + 1.0
    X = load_data_matrix(A)
    assert X.transposed
    assert (X.m, X.n) == (3, 4)
    np.testing.assert_allclose(X.X, A.T)


def test_svd_reconstruction_and_order():
    rng = np.random.default_rng(11)
    X = load_data_matrix(rng.standard_normal((4, 7)))
    assert X.reconstruction_error() < RECON_TOL * np.linalg.norm(X.X)
    assert np.all(np.diff(X.sigma) <= 0)
    np.testing.assert_allclose(X.U.T @ X.U, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(X.V.T @ X.V, np.eye(7), atol=1e-13)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(3)
    X = load_data_matrix(rng.standard_normal((3, 5)))
    for i in range(X.r):
        col = X.U[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_rank_detection_zero_tail():
    A = np.outer([1.0, 2.0], [3.0, 0.0, -1.0])  # rank one, 2x3
    X = load_data_matrix(A)
    assert X.r == 1
    assert X.sigma[1] == 0.0
    assert X.V0.shape == (3, 2)
    # V0 spans the kernel of X
    np.testing.assert_allclose(X.X @ X.V0, 0.0, atol=1e-12)


def test_zero_matrix_rejected():
    with pytest.raises(InvalidInput):
        load_data_matrix(np.zeros((2, 3)))


def test_bad_rank_tol_rejected():
    with pytest.raises(InvalidInput):
        load_data_matrix(np.eye(2), rank_tol=-1.0)


def test_nonfinite_rejected():
    with pytest.raises(InvalidInput):
        load_data_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_factor_pair_shape_mismatch():
    with pytest.raises(DimensionError):
        FactorPair(np.zeros((2, 2)), np.zeros((3, 4)))


def test_factor_pair_frozen_arrays():
    p = FactorPair(np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        p.W[0, 0] = 5.0


def test_objective_value():
    X = load_data_matrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
    p = FactorPair(np.array([[1.0], [0.0]]), np.array([[2.0, 0.0]]))
    # W S recovers the top singular component exactly
    np.testing.assert_allclose(residual(X, p), np.array([[0.0, 0.0], [0.0, -1.0]]))
    assert evaluate_J(X, p) == pytest.approx(0.5)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-8, 8, (3, 4))
    path = tmp_path / "a.csv"
    write_matrix_csv(path, A)
    B = read_matrix_csv(path)
    assert (A == B).all()  # 17 significant digits round-trip float64 exactly
    path.write_text("\n" + path.read_text().replace("\n", "\n \n"))
    assert (read_matrix_csv(path) == A).all()  # blank lines are skipped


@pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "blank"])
def test_csv_without_a_row_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput, match="empty matrix file$"):
        read_matrix_csv(path)


def test_csv_ragged_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(InvalidInput):
        read_matrix_csv(path)


def test_csv_non_numeric_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,two\n")
    with pytest.raises(InvalidInput):
        read_matrix_csv(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_svd_properties_random(rows, cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    X = load_data_matrix(A)
    assert X.m <= X.n
    recon = (X.U * X.sigma) @ X.V[:, : X.m].T
    np.testing.assert_allclose(recon, X.X, atol=1e-10 * max(1.0, np.linalg.norm(A)))
    assert np.all(X.sigma >= 0)


@pytest.mark.parametrize("seed", [1.5, "1", None, -1])
@pytest.mark.parametrize("entry", [
    lambda seed: random_pair(X21, 1, seed),
    lambda seed: random_balanced_pair(X21, 1, seed),
    lambda seed: run_all(X21, seed=seed),
    lambda seed: fd_validate(X21, random_pair(X21, 1, 0), seed=seed),
], ids=["random_pair", "random_balanced_pair", "run_all", "fd_validate"])
def test_seed_is_a_nonnegative_integer(entry, seed):
    message = re.escape(f"seed must be a nonnegative integer, got {seed!r}")
    with pytest.raises(InvalidInput, match=message):
        entry(seed)


@pytest.mark.parametrize("make, error, name", [
    (lambda: load_data_matrix("abc"), InvalidInput, "X"),
    (lambda: load_data_matrix([[1.0, "x"], [0.0, 1.0]]), InvalidInput, "X"),
    (lambda: load_data_matrix([[1.0, 2.0], [3.0]]), InvalidInput, "X"),
    (lambda: FactorPair(W="a", S=np.ones((1, 3))), InvalidInput, "W"),
    (lambda: FactorPair(W=np.ones((2, 1)), S=[[None, 1.0, 2.0]]), InvalidInput, "S"),
    (lambda: TangentPair(G=np.ones((2, 1)), H={"a": 1}), InvalidInput, "H"),
    (lambda: GroupElement.from_matrix([[1, "x"], [0, 1]]), SingularGroupElement,
     "group element"),
    (lambda: GroupElement.from_matrix(np.zeros((0, 0))), SingularGroupElement,
     "group element"),
], ids=["X-str", "X-entry", "X-ragged", "W", "S", "H", "A-entry", "A-empty"])
def test_non_numeric_matrix_is_refused_by_name(make, error, name):
    with pytest.raises(error, match=f"^{name} "):
        make()


@pytest.mark.parametrize("pair, first, second", [(FactorPair, "W", "S"),
                                                 (TangentPair, "G", "H")])
def test_pair_error_texts(pair, first, second):
    """Both pair types name the failing factor, the first one first."""
    cases = [
        (("a", {"a": 1}), InvalidInput, f"{first} is not a numeric array: "),
        ((np.ones((2, 1)), {"a": 1}), InvalidInput, f"{second} is not a numeric array: "),
        ((np.ones(2), np.ones((1, 3))), InvalidInput,
         f"{first} must be a nonempty 2-D array, got shape (2,)"),
        ((np.ones((2, 1)), np.zeros((1, 0))), InvalidInput,
         f"{second} must be a nonempty 2-D array, got shape (1, 0)"),
        ((np.array([[np.inf], [0.0]]), np.ones((1, 3))), InvalidInput,
         f"{first} contains non-finite entries"),
        ((np.ones((2, 1)), [[None, 1.0, 2.0]]), InvalidInput,
         f"{second} contains non-finite entries"),
        ((np.zeros((2, 2)), np.zeros((3, 4))), DimensionError,
         f"inner dimensions disagree: {first} is (2, 2), {second} is (3, 4)"),
    ]
    for args, error, text in cases:
        with pytest.raises(error) as info:
            pair(*args)
        assert str(info.value).startswith(text)
        assert text.endswith(": ") or str(info.value) == text


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FactorPair, TangentPair]), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 6), st.integers(-150, 150), st.integers(0, 2**32 - 1))
def test_distance_is_the_two_norm_formula_bit_for_bit(pair, a, k, b, exponent, seed):
    """distance is sqrt(||a1 - b1||^2 + ||a2 - b2||^2) with np.linalg.norm's
    sums, as the orbit checks and the reduction residual wrote it, for any
    scale, overflow to inf included; norm keeps its sum of squares."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    p, q = (pair(scale * rng.standard_normal((a, k)), scale * rng.standard_normal((k, b)))
            for _ in range(2))
    (p1, p2), (q1, q2) = (dataclasses.astuple(p), dataclasses.astuple(q))
    with np.errstate(over="ignore"):
        ref = float(np.sqrt(np.linalg.norm(p1 - q1) ** 2 + np.linalg.norm(p2 - q2) ** 2))
        assert p.norm() == float(np.sqrt(np.sum(p1**2) + np.sum(p2**2)))
        assert p.distance(q) == ref
        assert q.distance(q) == 0.0


def _signs_column_by_column(U, V, r):
    """The sign rule written as two per-column loops: U's columns with their
    paired V columns, then V's kernel columns on their own."""
    U, V = U.copy(), V.copy()
    for i in range(U.shape[1]):
        col = U[:, i]
        sgn = 1.0 if col[np.argmax(np.abs(col))] >= 0 else -1.0
        U[:, i] = sgn * col
        if i < r:
            V[:, i] = sgn * V[:, i]
    for j in range(r, V.shape[1]):
        col = V[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            V[:, j] = -col
    return U, V


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.floats(-6, 6), st.integers(0, 2**32 - 1))
def test_sign_convention_is_the_per_column_rule_bit_for_bit(kind, exponent, seed):
    """load_data_matrix's signs are those of the loops above, byte for byte,
    on tied, rank-deficient, tall, square and generic X at any scale; the
    last three give V kernel columns of width n - r, 0 for square X."""
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, np.random.default_rng(seed)))
    U, _, Vh = np.linalg.svd(X.X, full_matrices=True)
    U_ref, V_ref = _signs_column_by_column(U, Vh.T, X.r)
    assert X.U.tobytes() == U_ref.tobytes()
    assert X.V.tobytes() == V_ref.tobytes()


def test_distance_needs_a_pair_of_the_same_type_and_shapes():
    p = FactorPair(np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(DimensionError, match=re.escape(
            "distance from a FactorPair (2, 1) x (1, 3) to a TangentPair (2, 1) x (1, 3)")):
        p.distance(TangentPair(np.ones((2, 1)), np.ones((1, 3))))
    with pytest.raises(DimensionError, match=re.escape(
            "distance from a FactorPair (2, 1) x (1, 3) to a FactorPair (2, 2) x (2, 3)")):
        p.distance(FactorPair(np.ones((2, 2)), np.ones((2, 3))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.floats(-6, 6), st.integers(0, 2**32 - 1))
def test_kernel_frame_is_an_orthonormal_kernel_basis_led_by_its_lead(kind, exponent, seed):
    """Every lead width p from 0 to n - r: the frame's n - r columns are
    orthonormal to 1e-12 and lie in the kernel of X to 1e-12 sigma_1, and
    the first p are V0 @ lead bit for bit."""
    rng = np.random.default_rng(seed)
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, rng))
    dim = X.n - X.r
    for p in range(dim + 1):
        lead = np.linalg.qr(rng.standard_normal((dim, p)))[0]
        frame = KernelFrame(X, lead)
        B = np.column_stack([frame.column(z) for z in range(dim)] or [np.zeros((X.n, 0))])
        assert np.abs(B.T @ B - np.eye(dim)).max(initial=0.0) <= 1e-12
        assert np.abs(X.X @ B).max(initial=0.0) <= 1e-12 * float(X.sigma[0])
        assert B[:, :p].tobytes() == (X.V0 @ lead).tobytes()
