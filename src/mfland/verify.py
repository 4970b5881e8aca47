"""Self-contained invariant checks, runnable against any data matrix.

Each check returns (name, passed, detail).  ``run_all`` executes the whole
battery in order, and is what the command-line ``verify`` subcommand calls.
The README's claims ledger names the check that tests each claim of the
paper's abstract.
"""

import numpy as np

from . import (
    GroupElement,
    Selection,
    TangentPair,
    action_matrix,
    apply_group_action,
    balance_residual,
    block_spectrum,
    build_balanced,
    build_canonical,
    canonical_spectrum,
    classify_canonical,
    dense_hessian,
    evaluate_J,
    fd_validate,
    flatten_tangent,
    gradient,
    gradient_norm,
    hessian_apply,
    induced_norm,
    inertia_of,
    integrate_flow,
    intersect_M0,
    lambda_min_closed_form,
    push_gradient,
    random_balanced_pair,
    random_pair,
    reduce_to_canonical,
    second_derivative,
    spectrum_balanced,
    spectrum_deficient_rank,
    spectrum_full_rank_scaled,
    spectrum_zero_family,
    transported_lambda_min_bound,
    zero_family_point,
)
from .model import check_seed


def _default_data(seed):
    check_seed(seed)
    return np.random.default_rng(seed).standard_normal((4, 6))


# The largest condition number of a group element the checks draw.
GROUP_COND_MAX = 50.0


def _random_group(k, rng):
    while True:
        A = rng.standard_normal((k, k))
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= GROUP_COND_MAX:
            return GroupElement.from_matrix(A)


def _draw(X, seed):
    """A check's own generator, seeded afresh, and the k it works at."""
    return np.random.default_rng(seed), min(2, X.m)


def _tangent(rng, X, k):
    """A random tangent pair at rank k, G drawn before H."""
    return TangentPair(G=rng.standard_normal((X.m, k)), H=rng.standard_normal((k, X.n)))


def _dense_values(X, p):
    """The Hessian eigenvalues at p, ascending, from eigh of the dense
    Hessian: the ground truth every closed form is checked against."""
    return np.linalg.eigh(dense_hessian(X, p).matrix)[0]


def check_svd_conventions(X, seed):
    errs = []
    errs.append(X.reconstruction_error() <= 1e-10 * X.tol_scale)
    errs.append(X.m <= X.n)
    errs.append(np.all(np.diff(X.sigma) <= 0) and np.all(X.sigma[X.r:] == 0.0))
    errs.append(np.allclose(X.U.T @ X.U, np.eye(X.m), atol=1e-12))
    errs.append(np.allclose(X.V.T @ X.V, np.eye(X.n), atol=1e-12))
    return all(errs), f"reconstruction={X.reconstruction_error():.2e}"


def check_finite_differences(X, seed):
    _, k = _draw(X, seed)
    p = random_pair(X, k, seed)
    rep = fd_validate(X, p, seed=seed)
    return rep.ok, (
        f"grad={rep.max_gradient_rel_err:.2e} second={rep.max_second_rel_err:.2e}"
    )


def check_hessian_symmetry(X, seed):
    rng, k = _draw(X, seed)
    p = random_pair(X, k, seed)
    h = dense_hessian(X, p)
    d1, d2 = _tangent(rng, X, k), _tangent(rng, X, k)
    lhs = float(np.sum(flatten_tangent(hessian_apply(X, p, d1)) * flatten_tangent(d2)))
    rhs = float(np.sum(flatten_tangent(d1) * flatten_tangent(hessian_apply(X, p, d2))))
    ok = h.asymmetry < 1e-10 and abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    return ok, f"asymmetry={h.asymmetry:.2e} bilinear={abs(lhs - rhs):.2e}"


def check_families_critical(X, seed):
    rng, k = _draw(X, seed)
    pts = [zero_family_point(X, rng.standard_normal((X.n - X.r, k)), k).materialize()]
    sel = Selection((0,))
    pts.append(build_canonical(X, sel, k, C0=rng.standard_normal((X.n - X.r, k - 1))).materialize())
    if X.sigma[0] > 0:
        pts.append(build_balanced(X, sel, k))
    worst = max(gradient_norm(X, p) for p in pts)
    # the top-k point is a minimum: so classified, and no negative curvature
    top = build_canonical(X, Selection(tuple(range(k))), k)
    kind = classify_canonical(top).kind
    ev = _dense_values(X, top.materialize())
    ok = (worst <= 1e-10 * X.tol_scale and kind == "GlobalMinimum"
          and ev[0] >= -1e-10 * np.max(np.abs(ev)))
    return ok, f"worst gradient norm {worst:.2e}; top-{k}: {kind} lambda_min={ev[0]:.2e}"


def check_degenerate_directions(X, seed):
    rng, k = _draw(X, seed)
    p = build_canonical(X, Selection((0,)), k).materialize()
    worst = 0.0
    for _ in range(5):
        K = rng.standard_normal((k, k))
        d = TangentPair(G=p.W @ K, H=-K @ p.S)
        nrm2 = d.norm() ** 2
        if nrm2 > 0:
            worst = max(worst, abs(second_derivative(X, p, d)) / nrm2)
    return worst <= 1e-10, f"worst |d2J|/||d||^2 = {worst:.2e}"


def check_spectra_match_oracle(X, seed):
    rng, k = _draw(X, seed)
    cases = []
    cases.append(spectrum_zero_family(X, rng.standard_normal((X.n - X.r, k)), k))
    cases.append(spectrum_full_rank_scaled(X, Selection((0,)), a=1.5))
    if k > 1:
        cp = build_canonical(X, Selection((1,)), k, C0=rng.standard_normal((X.n - X.r, k - 1)))
        cases.append(spectrum_deficient_rank(cp))
    cases.append(spectrum_balanced(X, Selection((0,)), k))
    worst = block = 0.0
    for rep in cases:
        dense = _dense_values(X, rep.point)
        worst = max(worst, float(np.max(np.abs(rep.values - dense))))
        block = max(block, float(np.max(np.abs(block_spectrum(X, rep.point) - dense))))
    return worst < 1e-8 and block < 1e-8, (
        f"worst |closed - numeric| = {worst:.2e} block={block:.2e}")


def check_eigpair_quality(X, seed):
    rng, k = _draw(X, seed)
    cp = build_canonical(X, Selection((0,)), k,
                         C0=rng.standard_normal((X.n - X.r, k - 1)))
    rep = canonical_spectrum(cp)[0]
    h = dense_hessian(X, rep.point)
    V = np.column_stack([flatten_tangent(e.vector) for e in rep.eigpairs])
    vals = rep.values
    res = float(np.max(np.linalg.norm(h.matrix @ V - V * vals, axis=0)))
    gram = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
    count_ok = len(rep.eigpairs) == k * (X.m + X.n)
    # coupled branches of one 2x2 block multiply to -1
    by_block = {}
    for e in rep.eigpairs:
        if e.coupling is not None:
            by_block.setdefault(e.provenance.split(",branch")[0], []).append(e.coupling)
    worst_c = max([0.0] + [abs(c1 * c2 + 1.0) for c1, c2 in by_block.values()])
    ok = res < 1e-9 and gram < 1e-9 and count_ok and worst_c < 1e-9
    return ok, f"residual={res:.2e} gram={gram:.2e} coupling={worst_c:.2e}"


def _saddle_selection(X):
    """A single-index selection that is a strict saddle at q = k = 1, if any."""
    sel = Selection((X.m - 1,))
    kind = classify_canonical(build_canonical(X, sel, 1)).kind
    return sel if kind == "StrictSaddle" else None


def check_lambda_min_formulas(X, seed):
    rng, k = _draw(X, seed)
    worst = 0.0
    C0 = rng.standard_normal((X.n - X.r, k))
    rep = spectrum_zero_family(X, C0, k)
    worst = max(worst, abs(rep.lambda_min - lambda_min_closed_form(X, None, k, C0=C0)))
    sel = _saddle_selection(X)
    if sel is not None:
        for a in (1.0, 2.0):
            rep = spectrum_full_rank_scaled(X, sel, a=a)
            worst = max(worst, abs(rep.lambda_min - lambda_min_closed_form(X, sel, 1, a=a)))
            ev = _dense_values(X, rep.point)
            worst = max(worst, abs(rep.lambda_min - ev[0]))
    return worst < 1e-10, f"worst formula deviation {worst:.2e}"


def check_orbit_identities(X, seed):
    rng, k = _draw(X, seed)
    p = random_pair(X, k, seed)
    g = _random_group(k, rng)
    pg = apply_group_action(p, g)
    scale = max(1.0, evaluate_J(X, p))
    errs = [abs(evaluate_J(X, p) - evaluate_J(X, pg)) / scale]
    errs.append(push_gradient(gradient(X, p), g).distance(gradient(X, pg)))
    d = _tangent(rng, X, k)
    lhs = hessian_apply(X, pg, d)
    rhs = push_gradient(hessian_apply(X, p, apply_group_action(d, g.inverse())), g)
    errs.append(lhs.distance(rhs) / max(1.0, lhs.norm()))
    errs.append(
        abs(second_derivative(X, pg, d)
            - second_derivative(X, p, apply_group_action(d, g.inverse())))
        / max(1.0, abs(second_derivative(X, pg, d)))
    )
    g2 = _random_group(k, rng)
    p1 = apply_group_action(apply_group_action(p, g2), g)
    p2 = apply_group_action(p, GroupElement.from_matrix(g2.A @ g.A))
    errs.append(p1.distance(p2))
    worst = max(errs)
    return worst < 1e-8, f"worst identity error {worst:.2e}"


def check_congruence_inertia(X, seed):
    rng, k = _draw(X, seed)
    cp = build_canonical(X, Selection((X.m - 1,)), k,
                         C0=rng.standard_normal((X.n - X.r, k - 1)))
    p = cp.materialize()
    g = _random_group(k, rng)
    pg = apply_group_action(p, g)
    Hp = dense_hessian(X, p).matrix
    Hq = dense_hessian(X, pg).matrix
    M = action_matrix(g.inverse(), X.m, X.n)
    cong = float(np.linalg.norm(Hq - M.T @ Hp @ M) / max(1.0, np.linalg.norm(Hq)))
    # both counted at the nullity of cp's closed form, whose zeros are zero by
    # formula, and checked against its inertia
    want = canonical_spectrum(cp)[0].inertia
    same = inertia_of(X, p, nullity=want[2]) == inertia_of(X, pg, nullity=want[2]) == want
    # the orbit of pg has a canonical point, with the selected values of cp
    back, _ = reduce_to_canonical(X, pg)
    canon = (float(np.max(np.abs(np.sort(back.lambdas) - np.sort(cp.lambdas))))
             if back.q == cp.q else np.inf)
    ok = cong < 1e-8 and same and canon <= 1e-8 * X.sigma[0]
    return ok, f"congruence={cong:.2e} inertia={same} canonical={canon:.2e}"


def check_lambda_min_bound(X, seed):
    rng, _ = _draw(X, seed)
    sel = _saddle_selection(X)
    if sel is None:
        return True, "skipped: X offers no q = k = 1 strict saddle"
    rep = spectrum_full_rank_scaled(X, sel, a=1.0)
    worst = -np.inf
    for _ in range(5):
        g = _random_group(1, rng)
        bound = transported_lambda_min_bound(rep.lambda_min, g)
        ev = _dense_values(X, apply_group_action(rep.point, g))
        worst = max(worst, float(ev[0]) - bound)
        # the bound's denominator is the operator norm of L_A on tangents
        nrm = float(np.linalg.norm(action_matrix(g, X.m, X.n), 2))
        if abs(induced_norm(g) - nrm) > 1e-10 * nrm:
            return False, f"induced norm {induced_norm(g):.3e} is not ||L_A|| = {nrm:.3e}"
    return worst <= 1e-10, f"worst (actual - bound) = {worst:.2e}"


def check_balanced_set(X, seed):
    sel = Selection((0,))
    _, k = _draw(X, seed)
    cp = build_canonical(X, sel, k)  # C0 = 0
    g = intersect_M0(cp)
    if g is None:
        return False, "intersect_M0 missed a C0 = 0 canonical point"
    p = cp.materialize()
    bal = apply_group_action(p, g)
    res = balance_residual(bal)
    # before the transport, W^T W - S S^T = diag(1 - sigma_1^2, 0, ...)
    s2 = X.sigma[0] ** 2
    off = abs(balance_residual(p) - abs(1.0 - s2)) / max(1.0, s2)
    same = bal.distance(build_balanced(X, sel, k))
    ok = res < 1e-10 and off <= 1e-10 and same < 1e-10
    return ok, f"residual={res:.2e} canonical={off:.2e} matches-direct={same:.2e}"


def check_scaling_trichotomy(X, seed):
    # |lambda_min| shrinks as a grows past sqrt(lambda) <= sqrt(sigma_1)
    sel = _saddle_selection(X)
    if sel is None:
        return True, "skipped: X offers no q = k = 1 strict saddle"
    root = np.sqrt(X.sigma[0])
    vals = [abs(lambda_min_closed_form(X, sel, 1, a=a * root)) for a in (1, 2, 4, 8)]
    mono = all(x > y for x, y in zip(vals, vals[1:]))
    return mono, f"monotone={mono}"


def check_flow_conservation(X, seed):
    _, k = _draw(X, seed)
    out = []
    for p0, label in ((random_balanced_pair(X, k, seed), "balanced"),
                      (random_pair(X, k, seed + 1), "generic")):
        traj = integrate_flow(X, p0, t_max=30.0)
        drift = max(s.drift for s in traj.samples)
        Js = [s.J for s in traj.samples]
        mono = all(b <= a + 1e-9 for a, b in zip(Js, Js[1:]))
        out.append((label, drift, mono))
    ok = all(d < 1e-8 and m for _, d, m in out)
    return ok, "; ".join(f"{l}: drift={d:.2e} monotone={m}" for l, d, m in out)


ALL_CHECKS = [
    ("svd_conventions", check_svd_conventions),
    ("finite_differences", check_finite_differences),
    ("hessian_symmetry", check_hessian_symmetry),
    ("families_critical", check_families_critical),
    ("degenerate_directions", check_degenerate_directions),
    ("spectra_match_oracle", check_spectra_match_oracle),
    ("eigpair_quality", check_eigpair_quality),
    ("lambda_min_formulas", check_lambda_min_formulas),
    ("orbit_identities", check_orbit_identities),
    ("congruence_inertia", check_congruence_inertia),
    ("lambda_min_bound", check_lambda_min_bound),
    ("balanced_set", check_balanced_set),
    ("scaling_trichotomy", check_scaling_trichotomy),
    ("flow_conservation", check_flow_conservation),
]


def run_all(X, seed=0):
    """Run every check on X (a DataMatrixSVD); returns a list of dicts in a
    deterministic order.  A seed that is not a nonnegative integer raises
    InvalidInput before any check runs."""
    check_seed(seed)

    out = []
    for name, fn in ALL_CHECKS:
        try:
            passed, detail = fn(X, seed)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out.append({"name": name, "passed": bool(passed), "detail": detail})
    return out
