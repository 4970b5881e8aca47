import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from mfland import (
    CanonicalPoint,
    FactorPair,
    GroupElement,
    InvalidInput,
    Selection,
    SingularGroupElement,
    TangentPair,
    action_matrix,
    apply_group_action,
    balance_residual,
    build_canonical,
    dense_hessian,
    evaluate_J,
    gradient,
    hessian_apply,
    induced_norm,
    inertia_of,
    intersect_M0,
    load_data_matrix,
    numeric_spectrum,
    push_gradient,
    second_derivative,
    spectrum_full_rank_scaled,
    zero_family_point,
)
from matrix_kinds import KINDS, X321, canonical_inertia, haar, matrix_of_kind


def _random_setup(seed, k=2):
    rng = np.random.default_rng(seed)
    X = load_data_matrix(rng.standard_normal((3, 5)))
    p = FactorPair(rng.standard_normal((3, k)), rng.standard_normal((k, 5)))
    A = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    return X, p, GroupElement.from_matrix(A), rng


def test_group_element_rejects_singular():
    with pytest.raises(SingularGroupElement):
        GroupElement.from_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_group_element_rejects_non_square():
    with pytest.raises(SingularGroupElement):
        GroupElement.from_matrix(np.ones((2, 3)))


def test_action_preserves_product_and_J():
    X, p, g, _ = _random_setup(0)
    q = apply_group_action(p, g)
    np.testing.assert_allclose(q.W @ q.S, p.W @ p.S, atol=1e-10)
    assert evaluate_J(X, q) == pytest.approx(evaluate_J(X, p), rel=1e-12)


def test_action_composition_order():
    _, p, g, rng = _random_setup(1)
    h = GroupElement.from_matrix(rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
    once = apply_group_action(apply_group_action(p, h), g)
    combined = apply_group_action(p, GroupElement.from_matrix(h.A @ g.A))
    np.testing.assert_allclose(once.W, combined.W, atol=1e-12)
    np.testing.assert_allclose(once.S, combined.S, atol=1e-12)


def test_gradient_transport_identity():
    X, p, g, _ = _random_setup(2)
    lhs = gradient(X, apply_group_action(p, g))
    rhs = push_gradient(gradient(X, p), g)
    np.testing.assert_allclose(lhs.G, rhs.G, atol=1e-10)
    np.testing.assert_allclose(lhs.H, rhs.H, atol=1e-10)


def test_hessian_conjugation_identity():
    X, p, g, rng = _random_setup(3)
    d = TangentPair(rng.standard_normal((3, 2)), rng.standard_normal((2, 5)))
    lhs = hessian_apply(X, apply_group_action(p, g), d)
    rhs = push_gradient(hessian_apply(X, p, apply_group_action(d, g.inverse())), g)
    np.testing.assert_allclose(lhs.G, rhs.G, atol=1e-8)
    np.testing.assert_allclose(lhs.H, rhs.H, atol=1e-8)
    # and the quadratic form agrees along the pulled-back direction
    np.testing.assert_allclose(
        second_derivative(X, apply_group_action(p, g), d),
        second_derivative(X, p, apply_group_action(d, g.inverse())),
        rtol=1e-10,
    )


def test_dense_congruence():
    X, p, g, _ = _random_setup(4)
    P = dense_hessian(X, p).matrix
    Q = dense_hessian(X, apply_group_action(p, g)).matrix
    M = action_matrix(g.inverse(), X.m, X.n)
    np.testing.assert_allclose(Q, M.T @ P @ M, atol=1e-8 * max(1.0, np.linalg.norm(Q)))


def test_induced_norm_floor_and_orthogonal_case():
    _, _, g, rng = _random_setup(5)
    assert induced_norm(g) >= 1.0
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert induced_norm(GroupElement.from_matrix(Q)) == pytest.approx(1.0, abs=1e-12)
    s = GroupElement.from_matrix(np.diag([2.0, 1.0]))
    assert induced_norm(s) == pytest.approx(2.0)
    s = GroupElement.from_matrix(np.diag([0.25, 1.0]))
    assert induced_norm(s) == pytest.approx(4.0)


def test_from_matrix_keeps_the_singular_values_it_checked():
    """The element keeps the SVD its singularity check took, with the bits
    of the SVD of its own A."""
    A = np.random.default_rng(2).standard_normal((3, 3))
    g = GroupElement.from_matrix(A)
    assert g._sv.tobytes() == np.linalg.svd(g.A, compute_uv=False).tobytes()


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e6])
def test_inertia_of_is_scale_covariant(c):
    """The default zero floor is relative to the largest equilibrated value,
    which has no unit, so a small-scale X keeps the closed-form inertia at the
    full-rank point a = sqrt(c)."""
    X = load_data_matrix(c * np.random.default_rng(3).standard_normal((4, 6)))
    sel = Selection((0, 2))
    p = build_canonical(X, sel, 2).materialize(scale=np.sqrt(c))
    assert spectrum_full_rank_scaled(X, sel, a=np.sqrt(c)).inertia == (15, 1, 4)
    assert inertia_of(X, p) == (15, 1, 4)


def _graded_orbit_points(c=1.0, a=1.0, cond=None):
    """Every kind, seeds 0-1, k <= 3 and selection of positive sigma of c X,
    with C0 = sqrt(c) times a Gaussian, moved by a (Z + 2 I) or, given cond,
    by Q1 diag(1 ... 1 / cond) Q2, Z, Q1 and Q2 from default_rng([seed, k,
    11]); each as (its label, X, the moved point, the closed-form inertia)."""
    for kind in KINDS:
        for seed in range(2):
            X = load_data_matrix(c * matrix_of_kind(kind, np.random.default_rng(seed)))
            for k in range(1, min(3, X.m) + 1):
                rng = np.random.default_rng([seed, k, 11])
                for q in range(k + 1):
                    for sel in combinations(range(X.r), q):
                        C0 = np.sqrt(c) * rng.standard_normal((X.n - X.r, k - q))
                        if cond is None:
                            A = a * (rng.standard_normal((k, k)) + 2 * np.eye(k))
                        else:
                            A = (haar(rng, k) * np.geomspace(1, 1 / cond, k)) @ haar(rng, k)
                        p = CanonicalPoint(X, Selection(sel), k, C0).materialize()
                        yield ((kind, seed, sel, k), X,
                               apply_group_action(p, GroupElement.from_matrix(A)),
                               canonical_inertia(X, sel, k, C0))


@pytest.mark.parametrize("case", [dict(c=1e-9), dict(c=1e9), dict(c=1e12), dict(a=1e-9),
                                  dict(a=1e9), dict(cond=1e6)], ids=repr)
def test_inertia_of_is_the_closed_form_inertia_on_graded_orbits(case):
    """Counted at the closed form's nullity, inertia_of gives the closed-form
    inertia at every one of these points.  Where the Hessian is graded, at
    sigma_1 far from 1, far along an orbit or under an ill-conditioned A,
    block_spectrum's plain values counted at the same nullity got 87 to 133
    of each case's 246 points wrong: eigvalsh's rounding, a fraction of a
    block's largest |value|, flips the signs of genuine small values."""
    wrong = [(label, want, got) for label, X, p, want in _graded_orbit_points(**case)
             if (got := inertia_of(X, p, nullity=want[2])) != want]
    assert not wrong


def _transport_point():
    """X and the point of the spectrum workload's orbit_transport op, 48 x 72
    with k = 10, the full selection and A = I + 0.3 Z / sqrt(k), where the
    dense Hessian is N x N = 1200 x 1200."""
    rng = np.random.default_rng(0)
    m, n, k = 48, 72, 10
    X = load_data_matrix(rng.standard_normal((m, n)))
    base = build_canonical(X, Selection(tuple(range(k - 1)) + (k,)), k).materialize()
    A = np.eye(k) + 0.3 * rng.standard_normal((k, k)) / np.sqrt(k)
    return X, apply_group_action(base, GroupElement.from_matrix(A))


def _lapack_sizes_at_transport(f):
    """f(X, p) at _transport_point: its result, and the width of every
    matrix it hands eigh and eigvalsh."""
    X, moved = _transport_point()
    sizes = []

    def spy(fn):
        def call(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            return fn(a, *args, **kwargs)
        return call

    with mock.patch.object(np.linalg, "eigh", spy(np.linalg.eigh)), \
            mock.patch.object(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh)):
        return f(X, moved), sizes


def test_inertia_of_hands_lapack_no_matrix_past_the_core():
    """inertia_of gives eigh and eigvalsh no matrix larger than
    2 k q x 2 k q = 200 x 200 at the workload's transport point."""
    inertia, sizes = _lapack_sizes_at_transport(inertia_of)
    assert sum(inertia) == 1200 and inertia[1] >= 1
    assert sizes and max(sizes) <= 200


def _benchmark_transport_points():
    """(X, moved point, closed-form inertia of its canonical point) for the
    spectrum benchmark's orbit_transport op by its recipe in
    bench/workloads.py: seeds 1-3 and (m, n, k) = (40, 60, 5) and
    (48, 72, 10), so N = 500 and 1200, drawn from default_rng([seed, m, n,
    k]) in its order: X, two C0 it does not use here, then A."""
    for seed in (1, 2, 3):
        for m, n, k in ((40, 60, 5), (48, 72, 10)):
            rng = np.random.default_rng([seed, m, n, k])
            X = load_data_matrix(rng.standard_normal((m, n)))
            rng.standard_normal((n - m, k - k // 2))
            rng.standard_normal((n - m, k))
            A = np.eye(k) + 0.3 * rng.standard_normal((k, k)) / np.sqrt(k)
            sel = tuple(range(k - 1)) + (k,)
            base = build_canonical(X, Selection(sel), k).materialize()
            yield X, apply_group_action(base, GroupElement.from_matrix(A)), \
                canonical_inertia(X, sel, k, None)


def test_the_default_floor_counts_the_benchmark_transport_points():
    """The benchmark's orbit_transport op is the one caller that counts at
    the default floor, and its own check asks only for a sum of N and a
    negative value: there the floor counts the closed-form inertia, as the
    structural nullity does."""
    counts = [(inertia_of(X, moved), inertia_of(X, moved, nullity=want[2]), want)
              for X, moved, want in _benchmark_transport_points()]
    assert [c[2] for c in counts] == [(474, 1, 25), (1099, 1, 100)] * 3
    assert all(floor == at_nullity == want for floor, at_nullity, want in counts)


def test_numeric_spectrum_hands_lapack_no_matrix_past_the_core():
    """numeric_spectrum, too, returns all 1200 eigenpairs there from matrices
    no wider than 2 k q = 200."""
    (vals, vecs), sizes = _lapack_sizes_at_transport(numeric_spectrum)
    assert vals.shape == (1200,) and vecs.shape == (1200, 1200) and vals[0] < 0
    assert sizes and max(sizes) <= 200


def test_numeric_spectrum_builds_no_N_by_N_array():
    """numeric_spectrum's traced peak at _transport_point stays below a
    quarter of an N x N float64 array: it lifts no eigenvector until one is
    read."""
    X, moved = _transport_point()
    N = moved.k * (X.m + X.n)
    tracemalloc.start()
    try:
        vals, vecs = numeric_spectrum(X, moved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.size == N == 1200 and vecs.shape == (N, N)
    assert peak < N * N * 8 / 4, f"peak {peak / 2**20:.2f} MB"


def test_intersect_M0_conditions():
    # full-rank selection, no C0: succeeds with A = sqrt(Lambda)
    cp = build_canonical(X321, Selection((0, 1)), 2)
    g = intersect_M0(cp)
    np.testing.assert_allclose(g.A, np.diag([np.sqrt(3.0), np.sqrt(2.0)]), atol=1e-12)
    assert balance_residual(apply_group_action(cp.materialize(), g)) < 1e-10
    # nonzero C0 obstructs
    cp = build_canonical(X321, Selection((0,)), 2, C0=np.array([[0.5]]))
    assert intersect_M0(cp) is None
    # zero selected singular value obstructs (select an index past the rank)
    Xdef = load_data_matrix(np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 0.0, 2.0]))
    assert Xdef.r == 1
    cp = build_canonical(Xdef, Selection((0, 1)), 2)
    assert intersect_M0(cp) is None


def test_intersect_M0_zero_family():
    cp = zero_family_point(X321, np.zeros((1, 2)), 2)
    g = intersect_M0(cp)
    np.testing.assert_allclose(g.A, np.eye(2), atol=1e-14)
    assert intersect_M0(zero_family_point(X321, np.array([[1.0, 0.0]]), 2)) is None


def test_action_on_a_tangent_is_the_old_formula_bit_for_bit():
    """apply_group_action moves a tangent pair by (G A, A^-1 H) and
    push_gradient by (G A^-T, A^T H), the products push_tangent and
    push_gradient formed, byte for byte."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        scale = 10.0 ** rng.integers(-6, 7)
        d = TangentPair(scale * rng.standard_normal((3, k)), scale * rng.standard_normal((k, 5)))
        g = GroupElement.from_matrix(rng.standard_normal((k, k)) + 2.0 * np.eye(k))
        moved, pushed = apply_group_action(d, g), push_gradient(d, g)
        assert type(moved) is TangentPair and type(pushed) is TangentPair
        assert moved.G.tobytes() == (d.G @ g.A).tobytes()
        assert moved.H.tobytes() == (g.A_inv @ d.H).tobytes()
        assert pushed.G.tobytes() == (d.G @ g.A_inv.T).tobytes()
        assert pushed.H.tobytes() == (g.A.T @ d.H).tobytes()


@pytest.mark.parametrize("move, pair", [(apply_group_action, FactorPair),
                                        (apply_group_action, TangentPair),
                                        (push_gradient, TangentPair)])
def test_a_pair_of_another_k_is_invalid_input(move, pair):
    g = GroupElement.from_matrix(np.diag([2.0, 1.0, 0.5]))
    with pytest.raises(InvalidInput,
                       match=r"^group element is 3 x 3 but the pair has k = 2$"):
        move(pair(np.ones((3, 2)), np.ones((2, 5))), g)


def test_cond_and_induced_norm_are_the_per_call_svd_formulas():
    """cond and induced_norm read one decomposition kept on the element and
    give what a fresh SVD of A gives, for built, inverted and identity
    elements."""
    rng = np.random.default_rng(11)
    elements = [GroupElement.identity(1), GroupElement.identity(3)]
    for k in (1, 2, 3):
        g = GroupElement.from_matrix(rng.standard_normal((k, k)) + 2.0 * np.eye(k))
        elements += [g, g.inverse()]
    for g in elements:
        sv = np.linalg.svd(g.A, compute_uv=False)
        for _ in range(2):
            assert g.cond() == float(sv[0] / sv[-1])
            assert induced_norm(g) == float(max(sv[0], 1.0 / sv[-1]))
