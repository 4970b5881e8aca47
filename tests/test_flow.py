import dataclasses
import re
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfland import (
    CanonicalPoint,
    DimensionError,
    FactorPair,
    InvalidInput,
    InvalidSelection,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
    SingularGroupElement,
    balance_residual,
    build_balanced,
    classify_canonical,
    classify_limit,
    evaluate_J,
    gradient_norm,
    integrate_flow,
    load_data_matrix,
    random_balanced_pair,
    random_pair,
    Selection,
    StiffnessFailure,
    balanced_flow_exact,
)
from mfland import flow, oracle
from mfland.model import DEFAULT_RANK_TOL
from matrix_kinds import KINDS as MATRIX_KINDS, X21, fixed_spectrum, gaussian, matrix_of_kind

GRAD_TOL = 1e-9
DRIFT_TOL = 1e-8


def test_rank_deficient_limit_is_a_global_minimum():
    """A k = 3 flow over a rank-2 X reaches J = 0 at a global minimum.

    Seed 0 ends with rank(W) = 2, so q = r = 2 < k.  Seeds 1, 4 and 6 keep
    a third column of W in the left kernel of X: that column sits in the
    sigma = 0 group, so q = 3 with lambdas (10, 6, 0).  At seed 1 the point
    that first meets grad_tol fails the reduction's residual bound, and the
    flow goes on at grad_tol / 10 before it reports Converged.
    """
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((15, 2)))
    X = load_data_matrix((U * [10.0, 6.0]) @ V.T)
    for seed, lambdas in [(0, (10.0, 6.0)), (1, (10.0, 6.0, 0.0)),
                          (4, (10.0, 6.0, 0.0)), (6, (10.0, 6.0, 0.0))]:
        traj = integrate_flow(X, random_pair(X, 3, seed), grad_tol=GRAD_TOL)
        assert traj.status == "Converged"
        diag = classify_limit(X, traj)
        assert (diag.q, diag.kind, diag.lambda_min) == (len(lambdas), "GlobalMinimum", None)
        assert diag.lambdas == pytest.approx(lambdas, abs=1e-9)
        assert traj.samples[-1].J < 1e-12


@pytest.mark.parametrize("init", [random_pair, random_balanced_pair])
@pytest.mark.parametrize(
    "sigma", [(2.0, 2.0, 1.0), (1.0, 1.0, 1.0)], ids=["2,2,1", "1,1,1"]
)
def test_tied_top_sigma_limit_is_a_global_minimum(sigma, init):
    """k = 1 flows reach a unit vector in the tied top singular subspace.

    That vector is a generic combination of the stored singular vectors, so
    the reduction has to rebase the SVD of X inside the tied group.
    """
    X = load_data_matrix(np.diag(sigma) @ np.eye(3, 4))
    for seed in range(3):
        traj = integrate_flow(X, init(X, 1, seed), grad_tol=GRAD_TOL)
        assert traj.status == "Converged"
        diag = classify_limit(X, traj)
        assert (diag.kind, diag.selection) == ("GlobalMinimum", (0,))
        assert diag.lambdas == pytest.approx((sigma[0],), abs=1e-9)


@pytest.mark.parametrize("init", [random_pair, random_balanced_pair])
def test_tied_bulk_limit_is_certified(init):
    """20 x 30, k = 1, sigma_1 = sigma_2 in a random orthogonal frame: the
    points that first meet grad_tol fail the reduction's residual bound, so
    the flow tightens its tolerance and then classifies its limit."""
    rng = np.random.default_rng(0)
    s = np.linspace(np.sqrt(30) + np.sqrt(20), np.sqrt(30) - np.sqrt(20), 20)
    U, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    V, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    X = load_data_matrix((U * np.concatenate([s[:1], s[:-1]])) @ V[:, :20].T)
    traj = integrate_flow(X, init(X, 1, 0), grad_tol=GRAD_TOL)
    assert traj.status == "Converged"
    diag = classify_limit(X, traj)
    assert (diag.kind, diag.selection) == ("GlobalMinimum", (0,))
    assert diag.lambdas == pytest.approx((s[0],), rel=1e-9)


@pytest.mark.parametrize("refusal", [NumericalFailure, NotCritical, RankAmbiguous,
                                     SingularGroupElement])
def test_refused_limit_is_uncertified(monkeypatch, refusal):
    """A point the reduction keeps refusing, for whatever reason, sends the
    flow on at grad_tol / 10 three times, along the same trajectory, and then
    stops Uncertified."""
    p0 = random_pair(X21, 1, seed=5)
    scale = X21.tol_scale
    reduce, grads = flow.reduce_to_canonical, []

    def certify(X, p, tol):
        grads.append(gradient_norm(X, p))
        return reduce(X, p, tol=tol)

    def refuse(X, p, tol):
        grads.append(gradient_norm(X, p))
        raise refusal("the reduction refused the point")

    monkeypatch.setattr(flow, "reduce_to_canonical", certify)
    ref = integrate_flow(X21, p0, grad_tol=GRAD_TOL)
    assert (ref.status, len(grads)) == ("Converged", 1)
    grads.clear()
    monkeypatch.setattr(flow, "reduce_to_canonical", refuse)
    traj = integrate_flow(X21, p0, grad_tol=GRAD_TOL)
    assert traj.status == "Uncertified"
    assert len(grads) == 4
    assert all(g <= tol * scale for g, tol in zip(grads, (1e-9, 1e-10, 1e-11, 1e-12)))
    assert traj.steps > ref.steps
    assert [s.t for s in traj.samples[: len(ref.samples)]] == [s.t for s in ref.samples]
    with pytest.raises(InvalidInput):
        classify_limit(X21, traj)


@pytest.mark.parametrize("refusal", [NumericalFailure, NotCritical, RankAmbiguous,
                                     SingularGroupElement])
def test_refused_start_tightens_and_steps_on(monkeypatch, refusal):
    """A start that passes the gradient test but that the reduction refuses
    is treated like a later limit: the flow tightens the test tenfold and
    steps on.  From X21's exact balanced saddle, which the flow does not
    leave, every accepted point passes the tightened test again, so the
    reduction runs at the start and after each of three steps before the
    flow stops Uncertified."""
    p0 = build_balanced(X21, Selection((1,)), 1)
    scale = X21.tol_scale
    grads, points = [], []

    def refuse(X, p, tol):
        grads.append(gradient_norm(X, p))
        points.append(p)
        raise refusal("the reduction refused the point")

    monkeypatch.setattr(flow, "reduce_to_canonical", refuse)
    traj = integrate_flow(X21, p0, grad_tol=GRAD_TOL)
    assert traj.status == "Uncertified"
    assert (len(grads), traj.steps) == (4, 3)
    # The first point reduced is the start, mapped back from the flow's frame.
    frame = flow._Frame(X21, p0)
    start = frame.lift(frame.W, frame.S)
    assert (points[0].W.tobytes(), points[0].S.tobytes()) == (start.W.tobytes(),
                                                              start.S.tobytes())
    assert grads[0] == traj.samples[0].grad_norm == gradient_norm(X21, p0) == 0.0
    assert all(g <= tol * scale for g, tol in zip(grads, (1e-9, 1e-10, 1e-11, 1e-12)))
    assert traj.canonical is None


def test_rank_ambiguous_refusal_tightens_and_then_certifies(monkeypatch):
    """An ambiguous rank is refused like any other point: the flow goes on at
    grad_tol / 10, and the limit it then certifies carries its reduction, so
    classify_limit makes no second one."""
    p0 = random_pair(X21, 1, seed=5)
    scale = X21.tol_scale
    reduce, grads = flow.reduce_to_canonical, []

    def ambiguous_once(X, p, tol):
        grads.append(gradient_norm(X, p))
        if len(grads) == 1:
            raise RankAmbiguous("rank of W ambiguous")
        return reduce(X, p, tol=tol)

    monkeypatch.setattr(flow, "reduce_to_canonical", ambiguous_once)
    traj = integrate_flow(X21, p0, grad_tol=GRAD_TOL)
    assert traj.status == "Converged"
    assert len(grads) == 2 and grads[1] <= 1e-10 * scale
    assert traj.canonical is not None
    diag = classify_limit(X21, traj)
    assert len(grads) == 2
    assert (diag.kind, diag.selection) == ("GlobalMinimum", (0,))


def test_k_outside_the_range_is_refused_before_any_step(monkeypatch):
    """k outside [1, min(m, n)] raises InvalidSelection from integrate_flow
    before a step is attempted, and from the random starts before they draw;
    the random starts also refuse a negative seed."""
    message = re.escape("k = 3 outside [1, min(m, n) = 2]")

    def no_step(self, h):
        raise AssertionError("a step was attempted")

    monkeypatch.setattr(flow._Stepper, "attempt", no_step)
    with pytest.raises(InvalidSelection, match=message):
        integrate_flow(X21, FactorPair(W=np.ones((2, 3)), S=np.ones((3, 3))))
    for make in (random_pair, random_balanced_pair):
        with pytest.raises(InvalidSelection, match=message):
            make(X21, 3, 0)
        with pytest.raises(InvalidSelection, match=re.escape("k = 0 outside")):
            make(X21, 0, 0)
        with pytest.raises(InvalidInput, match="seed must be .* got -1"):
            make(X21, 1, -1)


def _scaled_start(c):
    """c times the k = 2 random start of seed 0 on the 4 x 6 X of default_rng(0)."""
    X = load_data_matrix(np.random.default_rng(0).standard_normal((4, 6)))
    p = random_pair(X, 2, 0)
    return X, FactorPair(W=c * p.W, S=c * p.S)


def _constant_start(v):
    """The k = 2 start with every entry v on the X of _scaled_start."""
    X, _ = _scaled_start(1.0)
    return X, FactorPair(W=np.full((4, 2), v), S=np.full((2, 6), v))


@pytest.mark.parametrize("X, p0", [_scaled_start(1e100), _scaled_start(1e160),
                                   _constant_start(1e308)],
                         ids=["1e+100", "1e+160", "constant-1e+308"])
def test_a_start_that_overflows_is_refused_before_any_step(monkeypatch, X, p0):
    """A start whose J, gradient or drift leaves float64 raises
    NumericalFailure naming the largest |entry| of W and of S, with no NumPy
    warning (pytest makes one an error) and no step attempted.  At entries of
    1e308 the flow's frame coordinates of the start, sums of up to four such
    entries, overflow already."""

    def no_step(self, h):
        raise AssertionError("a step was attempted")

    monkeypatch.setattr(flow._Stepper, "attempt", no_step)
    message = (f"the flow's start is not finite in float64: max |W| = {np.abs(p0.W).max():.3g}, "
               f"max |S| = {np.abs(p0.S).max():.3g}")
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        integrate_flow(X, p0)


@pytest.mark.parametrize("c", [1e6, 1e13])
def test_a_finite_stiff_start_underflows_the_step_size(c):
    """A finite start far off the data's scale is too stiff for any step of
    at least H_MIN: the flow raises StiffnessFailure at t = 0."""
    X, p0 = _scaled_start(c)
    with pytest.raises(StiffnessFailure,
                       match=r"^step size underflowed \(\S+ < 1\.00e-13\) at t = 0\.000e\+00$"):
        integrate_flow(X, p0, t_max=1.0)


@pytest.mark.parametrize("make", [random_pair, random_balanced_pair])
@pytest.mark.parametrize("seed", [1.5, 2.0, "1", None])
def test_non_integer_seed_is_invalid_input(make, seed):
    """A seed that is not an integer raises InvalidInput that names it."""
    message = re.escape(f"seed must be a nonnegative integer, got {seed!r}")
    with pytest.raises(InvalidInput, match=message):
        make(X21, 1, seed)


@pytest.mark.parametrize("seed", [7, np.int64(7), np.uint32(7)])
def test_integer_seeds_keep_their_starts(seed):
    """Python and NumPy integers seed the start as default_rng(seed) does."""
    rng = np.random.default_rng(7)
    W, S = rng.standard_normal((2, 1)), rng.standard_normal((1, 3))
    p = random_pair(X21, 1, seed)
    assert (p.W.tobytes(), p.S.tobytes()) == (W.tobytes(), S.tobytes())
    q = random_balanced_pair(X21, 1, seed)
    ref = random_balanced_pair(X21, 1, 7)
    assert (q.W.tobytes(), q.S.tobytes()) == (ref.W.tobytes(), ref.S.tobytes())


def test_loose_grad_tol_reduces_only_below_limit_tol(monkeypatch):
    """The gradient test starts at LIMIT_TOL when grad_tol is looser, so the
    reduction only ever sees points it can find critical."""
    p0 = random_balanced_pair(X21, 1, seed=1)
    scale = X21.tol_scale
    reduce, grads = flow.reduce_to_canonical, []

    def counted(X, p, tol):
        grads.append(gradient_norm(X, p))
        return reduce(X, p, tol=tol)

    monkeypatch.setattr(flow, "reduce_to_canonical", counted)
    traj = integrate_flow(X21, p0, grad_tol=1e-5)
    assert (traj.status, traj.steps) == ("Converged", 52)
    assert len(grads) == 3
    assert all(g <= flow.LIMIT_TOL * scale for g in grads)
    assert classify_limit(X21, traj).lambdas == pytest.approx((2.0,), abs=1e-9)


@pytest.mark.parametrize("k", [1, 2])
def test_loose_grad_tol_certifies_its_limit(k):
    """At grad_tol = 1e-5 the gradient test starts at LIMIT_TOL, and the
    residual bound of the reduction needs about 1e-9 * scale on this X: the
    third tightening reaches it, so the flow certifies and classifies its
    limit instead of stopping Uncertified."""
    X = gaussian(0, 4, 6)
    traj = integrate_flow(X, random_pair(X, k, seed=0), grad_tol=1e-5)
    assert traj.status == "Converged"
    diag = classify_limit(X, traj)
    assert (diag.kind, diag.selection) == ("GlobalMinimum", tuple(range(k)))


@pytest.mark.parametrize("start", ["random", "saddle"])
def test_classify_limit_reuses_the_certifying_reduction(monkeypatch, start):
    """integrate_flow reduces its limit once to certify it, and classify_limit
    reads that reduction instead of making a second one."""
    if start == "random":
        p0 = random_balanced_pair(X21, 1, seed=0)
    else:
        p0 = build_balanced(X21, Selection((1,)), 1)
    reduce, calls = flow.reduce_to_canonical, []

    def counted(X, p, tol):
        calls.append(tol)
        return reduce(X, p, tol=tol)

    monkeypatch.setattr(flow, "reduce_to_canonical", counted)
    traj = integrate_flow(X21, p0, grad_tol=GRAD_TOL)
    diag = classify_limit(X21, traj)
    assert calls == [flow.LIMIT_TOL]
    cp = flow.reduce_to_canonical(X21, traj.terminal, tol=flow.LIMIT_TOL)[0]
    assert len(calls) == 2
    res = classify_canonical(cp)
    assert diag == flow.LimitDiagnosis(
        kind=res.kind, q=cp.q, selection=cp.selection.indices,
        lambdas=tuple(float(v) for v in cp.lambdas), p=res.p,
        lambda_min=res.lambda_min_closed_form,
        balance_residual=balance_residual(traj.terminal),
    )


def test_classify_limit_needs_the_trajectory_integrate_flow_returned():
    """classify_limit reads the certifying reduction, so a trajectory that
    carries none for this X is refused."""
    traj = integrate_flow(X21, random_balanced_pair(X21, 1, seed=0), grad_tol=GRAD_TOL)
    assert traj.status == "Converged"
    other = load_data_matrix(X21.X.copy())
    for X, t in ((X21, dataclasses.replace(traj, canonical=None)), (other, traj)):
        with pytest.raises(InvalidInput, match="integrate_flow returned for this X"):
            classify_limit(X, t)


def test_random_balanced_pair_starts_balanced():
    p0 = random_balanced_pair(X21, 2, seed=4)
    assert balance_residual(p0) < 1e-10


def test_flow_converges_to_global_minimum():
    p0 = random_balanced_pair(X21, 1, seed=0)
    traj = integrate_flow(X21, p0, grad_tol=GRAD_TOL)
    assert traj.status == "Converged"
    assert traj.samples[-1].grad_norm < GRAD_TOL * X21.tol_scale
    # best rank-one fit leaves half of sigma_2^2 behind
    assert traj.samples[-1].J == pytest.approx(0.5, abs=1e-6)
    diag = classify_limit(X21, traj)
    assert diag.kind == "GlobalMinimum"
    assert diag.lambdas == pytest.approx((2.0,), abs=1e-5)


def test_objective_monotone_along_flow():
    p0 = random_pair(X21, 2, seed=1)
    traj = integrate_flow(X21, p0)
    J = [s.J for s in traj.samples]
    assert all(a >= b - 1e-12 for a, b in zip(J, J[1:]))


def test_balance_invariant_conserved():
    for seed, init in [(2, random_balanced_pair), (3, random_pair)]:
        p0 = init(X21, 1, seed=seed)
        traj = integrate_flow(X21, p0)
        assert max(s.drift for s in traj.samples) < DRIFT_TOL


def test_flow_from_exact_saddle_stays_put():
    p0 = build_balanced(X21, Selection((1,)), 1)
    traj = integrate_flow(X21, p0, t_max=5.0)
    assert traj.status == "Converged"
    diag = classify_limit(X21, traj)
    assert diag.kind == "StrictSaddle"
    assert diag.lambda_min == pytest.approx(-1.0, abs=1e-6)


def test_short_horizon_reports_max_time():
    p0 = random_pair(X21, 1, seed=5)
    traj = integrate_flow(X21, p0, t_max=1e-3, grad_tol=1e-14)
    assert traj.status == "MaxTimeReached"
    with pytest.raises(InvalidInput):
        classify_limit(X21, traj)


def test_step_cap_reports_max_steps(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 300)
    p0 = random_pair(X21, 1, seed=5)
    traj = integrate_flow(X21, p0, t_max=1e6, grad_tol=0.0)
    assert traj.status == "MaxStepsReached"
    assert traj.steps == 300
    assert traj.t_final < 1e6
    with pytest.raises(InvalidInput):
        classify_limit(X21, traj)


def test_trajectory_samples_well_formed():
    p0 = random_balanced_pair(X21, 1, seed=6)
    traj = integrate_flow(X21, p0)
    ts = [s.t for s in traj.samples]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert traj.t_final == ts[-1]
    assert traj.steps >= len(ts) - 1


@pytest.mark.parametrize("kwargs", [
    {"t_max": np.nan}, {"t_max": np.inf}, {"t_max": 0.0},
    {"grad_tol": -1e-9}, {"grad_tol": np.nan},
    {"t_max": "1"}, {"t_max": None}, {"grad_tol": None}, {"grad_tol": "1e-9"},
    {"p0": FactorPair(W=np.ones((5, 1)), S=np.ones((1, 3)))},
    {"p0": FactorPair(W=np.ones((2, 1)), S=np.ones((1, 6)))},
])
def test_invalid_arguments_rejected(kwargs):
    """A bad argument raises InvalidInput that names it; a start that does not
    fit X raises DimensionError that names both shapes."""
    args = {"p0": random_pair(X21, 1, seed=5), **kwargs}
    if "p0" in kwargs:
        p0 = kwargs["p0"]
        error = DimensionError
        match = re.escape(f"{p0.W.shape} x {p0.S.shape}") + ".* 2 x 3 "
    else:
        error, match = InvalidInput, next(iter(kwargs))
    with pytest.raises(error, match=match):
        integrate_flow(X21, **args)


def test_step_counters_account_for_every_rhs_evaluation():
    """One RHS evaluation at the start, eleven per attempted step and one
    more, the slope at the new point, per accepted step; a start that is
    already a limit evaluates it once."""
    traj = integrate_flow(X21, random_pair(X21, 1, seed=2))
    assert traj.status == "Converged" and traj.rejected > 0
    assert traj.rhs_evals == 1 + 12 * traj.steps + 11 * traj.rejected
    assert 0 < traj.h_min < traj.h_max
    still = integrate_flow(X21, build_balanced(X21, Selection((1,)), 1), t_max=5.0)
    assert (still.steps, still.rejected, still.rhs_evals) == (0, 0, 1)
    assert still.h_min is None and still.h_max is None


def test_step_cut_short_at_t_max_is_not_in_the_step_range():
    """A horizon just past an accepted time ends the flow with a step of
    1e-9 that lands on t_max.  The controller did not choose it, so h_min
    and h_max are those of the steps before it; a flow whose only step is
    cut short reports no step range."""
    p0 = random_pair(X21, 1, seed=5)
    ref = integrate_flow(X21, p0, t_max=3.0, grad_tol=0.0)
    t_cut = ref.samples[20].t
    traj = integrate_flow(X21, p0, t_max=t_cut + 1e-9, grad_tol=0.0)
    assert (traj.status, traj.steps, traj.t_final) == ("MaxTimeReached", 21, t_cut + 1e-9)
    assert [s.t for s in traj.samples[:21]] == [s.t for s in ref.samples[:21]]
    steps = np.diff([s.t for s in ref.samples[:21]])
    assert traj.h_min == pytest.approx(steps.min(), rel=1e-12)
    assert traj.h_max == pytest.approx(steps.max(), rel=1e-12)
    assert traj.h_min > 1e-4
    short = integrate_flow(X21, p0, t_max=1e-3, grad_tol=0.0)
    assert (short.steps, short.t_final, short.h_min, short.h_max) == (1, 1e-3, None, None)


def _recorded_attempts(monkeypatch):
    """Each attempted step as [h, accepted], in order, once a flow has run."""
    attempts = []
    attempt, accept = flow._Stepper.attempt, flow._Stepper.accept

    def recorded_attempt(self, h):
        attempts.append([h, False])
        return attempt(self, h)

    def recorded_accept(self, t):
        if attempts:
            attempts[-1][1] = True
        return accept(self, t)

    monkeypatch.setattr(flow._Stepper, "attempt", recorded_attempt)
    monkeypatch.setattr(flow._Stepper, "accept", recorded_accept)
    return attempts


def test_step_after_a_rejection_does_not_grow(monkeypatch):
    """As in dop853.f (HNEW <= H), a step accepted right after a rejected
    attempt is not followed by a longer one.  On flows with many rejections,
    most of them retried at once with success, the attempt after a retry
    is never longer than the retry."""
    attempts = _recorded_attempts(monkeypatch)
    rng = np.random.default_rng(3)
    bulk = np.linspace(np.sqrt(30) + np.sqrt(20), np.sqrt(30) - np.sqrt(20), 20)
    X = load_data_matrix(fixed_spectrum(rng, 20, 30, bulk))
    retries = 0
    for seed in range(3):
        del attempts[:]
        traj = integrate_flow(X, random_balanced_pair(X, 5, seed), t_max=20.0)
        assert traj.rejected == sum(not ok for _, ok in attempts) > 0
        for (_, ok), (retry, retry_ok), (after, _) in zip(attempts, attempts[1:],
                                                             attempts[2:]):
            if not ok:
                retries += retry_ok
                assert after <= retry
    assert retries >= 10


def _kept_per_sample(n):
    """The traced memory that each of n FlowSamples of fresh floats keeps,
    with its slot in the list they are appended to."""
    tracemalloc.start()
    kept = []
    for i in range(n):
        kept.append(flow.FlowSample(t=i + 0.5, J=i + 1.5, grad_norm=i + 2.5, drift=i + 3.5))
    grown = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return grown / n


def test_a_step_allocates_no_arrays(monkeypatch):
    """The module docstring's claim, under tracemalloc, over 300 accepted
    steps of a 20 x 30, k = 5 flow, rejected ones among them.  What
    they keep allocated is at most what 300 FlowSamples and their list
    slots keep, give or take the 100 freed floats Python holds for reuse,
    and between two samples the traced peak never rises N * 8 bytes, one
    flat (W, S) array, above the memory traced at the first of them."""
    rng = np.random.default_rng(3)
    bulk = np.linspace(np.sqrt(30) + np.sqrt(20), np.sqrt(30) - np.sqrt(20), 20)
    X, k, first, last = load_data_matrix(fixed_spectrum(rng, 20, 30, bulk)), 5, 11, 311
    N = k * (X.m + X.n)
    accept, calls, marks, since, rise = flow._Stepper.accept, [0], [], [0], [0]

    def marked(self, t):
        calls[0] += 1
        if calls[0] >= first:
            now, peak = tracemalloc.get_traced_memory()
            if calls[0] in (first, last):
                marks.append(now)
            else:
                rise[0] = max(rise[0], peak - since[0])
            tracemalloc.reset_peak()
            since[0] = tracemalloc.get_traced_memory()[0]
        return accept(self, t)

    monkeypatch.setattr(flow._Stepper, "accept", marked)
    monkeypatch.setattr(flow, "MAX_STEPS", last)
    tracemalloc.start()
    try:
        traj = integrate_flow(X, random_balanced_pair(X, k, 1), t_max=200.0, grad_tol=0.0)
    finally:
        tracemalloc.stop()
    assert traj.status == "MaxStepsReached" and traj.rejected > 0 and len(marks) == 2
    float_reuse = 100 * sys.getsizeof(1.0)
    assert marks[1] - marks[0] <= (last - first) * _kept_per_sample(10000) + float_reuse
    assert rise[0] < N * 8


def test_endgame_rule_lets_stiff_flows_converge(monkeypatch):
    """A tied 20 x 30 X at k = 1 (sigma_1 = sigma_2 over a bulk spectrum) and
    a rank-2 40 x 60 X at k = 3 in Haar frames: with the endgame cap on the
    step tolerance the tied flows from both starts and the rank-2 flow from
    a random start converge and classify, each before t = 61.  Without it
    (ENDGAME_SHARE = inf) all three run to the horizon t_max = 200: near the
    limit the error estimate lets the stiff modes hover at the step
    tolerance, and the gradient norm levels off above the gradient test,
    tightened once at most.  Only the last step, cut short to land on t_max
    and so inside the stability edge, damps those modes, and the flows pass
    the test there."""
    rng = np.random.default_rng(1)
    bulk = np.linspace(np.sqrt(30) + np.sqrt(20), np.sqrt(30) - np.sqrt(20), 20)
    tied = load_data_matrix(fixed_spectrum(rng, 20, 30, np.concatenate([bulk[:1], bulk[:-1]])))
    rank2 = load_data_matrix(fixed_spectrum(rng, 40, 60, np.array([10.0, 6.0])))
    flows = [(tied, 1, random_balanced_pair, bulk[0]), (tied, 1, random_pair, bulk[0]),
             (rank2, 3, random_pair, 10.0)]
    for X, k, init, top in flows:
        traj = integrate_flow(X, init(X, k, 1))
        assert traj.status == "Converged" and traj.t_final < 61.0
        diag = classify_limit(X, traj)
        assert diag.kind == "GlobalMinimum" and diag.lambdas[0] == pytest.approx(top, rel=1e-9)
    monkeypatch.setattr(flow, "ENDGAME_SHARE", np.inf)
    for X, k, init, _ in flows:
        traj = integrate_flow(X, init(X, k, 1))
        assert traj.t_final == 200.0
        assert min(s.grad_norm for s in traj.samples[:-1]) > GRAD_TOL / 10 * X.tol_scale


# ------------------------------------------------------- reference loops --

def _reference_rhs(X, W, S):
    """-grad J at (W, S), with the residual E = W S - X it is built from."""
    E = W @ S - X.X
    return -(E @ S.T), -(W.T @ E), E


def _reference_rk4_step(X, W, S, h, k1W, k1S, count):
    """One RK4 step of size h from (W, S), whose slope (k1W, k1S) is given."""
    count[0] += 3
    k2W, k2S, _ = _reference_rhs(X, W + 0.5 * h * k1W, S + 0.5 * h * k1S)
    k3W, k3S, _ = _reference_rhs(X, W + 0.5 * h * k2W, S + 0.5 * h * k2S)
    k4W, k4S, _ = _reference_rhs(X, W + h * k3W, S + h * k3S)
    Wn = W + (h / 6.0) * (k1W + 2 * k2W + 2 * k3W + k4W)
    Sn = S + (h / 6.0) * (k1S + 2 * k2S + 2 * k3S + k4S)
    return Wn, Sn


def _rk4_flow(X, p0, t_max, tol_scale=1.0):
    """The accuracy reference: classical RK4 with step-doubling error control
    and local extrapolation on separate W and S arrays, at the step
    tolerance tol_scale * (ATOL + RTOL * ||(W, S)||), with no gradient
    test.  It starts from H0 or a shorter step scaled to the start."""
    W, S = p0.W.copy(), p0.S.copy()
    C_init = W.T @ W - S @ S.T
    count, accepted, rejected = [0], [], 0

    def snapshot(t):
        count[0] += 1
        kW, kS, E = _reference_rhs(X, W, S)
        gnorm = float(np.sqrt(np.sum(kW**2) + np.sum(kS**2)))
        drift = float(np.linalg.norm(W.T @ W - S @ S.T - C_init))
        return kW, kS, (float(t), 0.5 * float(np.sum(E * E)), gnorm, drift)

    k1W, k1S, samp = snapshot(0.0)
    # The first step is the 0.01 ||y|| / ||y'|| of Hairer, Norsett and Wanner
    # (II.4) where that is below H0.  From an H0 far too long for X the
    # controller shrinks by at most 5x per rejection, and the step it then
    # accepts can be too long for the step-doubling estimate, which misses
    # most of that step's error.
    t, h = 0.0, flow.H0
    if samp[2]:
        h = min(h, 0.01 * np.sqrt(np.sum(W * W) + np.sum(S * S)) / samp[2])
    samples, status = [samp], "MaxStepsReached"
    while len(accepted) < flow.MAX_STEPS:
        h = min(h, t_max - t)
        W1, S1 = _reference_rk4_step(X, W, S, h, k1W, k1S, count)
        Wh, Sh = _reference_rk4_step(X, W, S, 0.5 * h, k1W, k1S, count)
        count[0] += 1
        kW, kS, _ = _reference_rhs(X, Wh, Sh)
        W2, S2 = _reference_rk4_step(X, Wh, Sh, 0.5 * h, kW, kS, count)
        err = np.sqrt(np.sum((W1 - W2) ** 2) + np.sum((S1 - S2) ** 2)) / 15.0
        ynorm = np.sqrt(np.sum(W * W) + np.sum(S * S))
        tol_step = tol_scale * (flow.ATOL + flow.RTOL * ynorm)
        if err <= tol_step:
            W = W2 + (W2 - W1) / 15.0
            S = S2 + (S2 - S1) / 15.0
            t += h
            accepted.append(h)
            k1W, k1S, samp = snapshot(t)
            samples.append(samp)
            if not np.isfinite(samp[1]) or (
                np.sqrt(np.sum(W**2) + np.sum(S**2)) > flow.DIVERGENCE_NORM
            ):
                status = "Diverged"
                break
            if t >= t_max:
                status = "MaxTimeReached"
                break
        else:
            rejected += 1
        factor = 0.9 * (tol_step / max(err, 1e-300)) ** 0.2
        h *= min(5.0, max(0.2, factor))
        if h < flow.H_MIN:
            raise StiffnessFailure("step size underflowed")
    return status, samples, W, S, accepted, rejected, count[0]


def _dop853_flow(X, p0, t_max, gtol):
    """Dormand-Prince 8(5,3) on the m x n matrix X, in the coordinates p0 is
    given in, one fresh array per stage on the flat vector y = (W, S),
    stopping as Converged where the gradient norm is at most gtol.  The
    coefficients are the rows of flow._TABLEAU, which
    test_dop853_tableau_has_its_orders pins.

    The first step is H0, or 0.01 ||y|| / ||y'|| where that is shorter.
    Each stage input is the product of (1, h a_1, ..., h a_j) with the
    stacked (y, k1, ..., kj).  The solution and the differences d5 and d3
    from the embedded solutions are one product of three rows, (1, h b),
    (0, h E5) and (0, h E3), with (y, k1, ..., k12); the error estimate is
    n5 / sqrt(n5 + 0.01 n3), n5 and n3 the squared norms of d5 and d3.
    The slope at the solution is evaluated once the step is accepted.  The
    step tolerance is ATOL + RTOL ||y||, capped at ENDGAME_SHARE gtol /
    (||y||^2 + ||W S - X||_F) while the gradient norm is at most
    ENDGAME_ZONE gtol.  A step cut short to land on t_max is not one the
    controller chose.  As in dop853.f, the step accepted right after a
    rejection is not followed by a longer one (HNEW <= H)."""
    m, k = p0.W.shape
    rows = flow._TABLEAU[:, 1:].tolist()
    A, E5, E3 = [row[: r + 1] for r, row in enumerate(rows[:12])], rows[12], rows[13]

    def rhs(y):
        W, S = y[: m * k].reshape(m, k), y[m * k:].reshape(k, -1)
        D = X - W @ S
        return np.concatenate([(D @ S.T).ravel(), (W.T @ D).ravel()]), D

    y = np.concatenate([p0.W.ravel(), p0.S.ravel()])
    C_init = p0.W.T @ p0.W - p0.S @ p0.S.T

    def sample(t, y, k1, D):
        W, S = y[: m * k].reshape(m, k), y[m * k:].reshape(k, -1)
        drift = float(np.linalg.norm(W.T @ W - S @ S.T - C_init))
        return (float(t), 0.5 * float(np.vdot(D, D)),
                float(np.sqrt(np.dot(k1, k1))), drift)

    k1, D = rhs(y)
    t, evals, accepted, chosen, rejected = 0.0, 1, 0, [], 0
    samples = [sample(t, y, k1, D)]
    ysq = float(np.dot(y, y))
    if samples[-1][2] <= gtol:
        return "Converged", samples, y, accepted, chosen, rejected, evals
    h = min(flow.H0, 0.01 * np.sqrt(ysq) / samples[-1][2])
    status, after_rejection = "MaxStepsReached", False
    while accepted < flow.MAX_STEPS:
        clipped = t_max - t < h
        if clipped:
            h = t_max - t
        _, J, gnorm, _ = samples[-1]
        tol_step = flow.ATOL + flow.RTOL * np.sqrt(ysq)
        if gnorm <= flow.ENDGAME_ZONE * gtol:
            tol_step = min(tol_step, flow.ENDGAME_SHARE * gtol / (ysq + np.sqrt(2.0 * J)))
        ks = [k1]
        for row in A[:11]:
            stage = np.array([1.0] + [h * a for a in row]) @ np.array([y] + ks)
            ks.append(rhs(stage)[0])
        evals += 11
        y_new, d5, d3 = np.array([[1.0] + [h * a for a in A[11]], [0.0] + [h * e for e in E5],
                                  [0.0] + [h * e for e in E3]]) @ np.array([y] + ks)
        n5, n3 = float(np.dot(d5, d5)), float(np.dot(d3, d3))
        err = n5 / np.sqrt(n5 + 0.01 * n3) if n5 else 0.0
        if err <= tol_step:
            y = y_new
            k1, D = rhs(y)
            evals += 1
            t = t_max if clipped else t + h
            accepted += 1
            if not clipped:
                chosen.append(h)
            samples.append(sample(t, y, k1, D))
            ysq = float(np.dot(y, y))
            if not np.isfinite(samples[-1][1]) or ysq > flow.DIVERGENCE_NORM ** 2:
                status = "Diverged"
                break
            if samples[-1][2] <= gtol:
                status = "Converged"
                break
            if t >= t_max:
                status = "MaxTimeReached"
                break
        else:
            rejected += 1
        factor = 0.9 * (tol_step / max(err, 1e-300)) ** 0.125
        h *= min(1.0 if after_rejection else 6.0, max(0.333, factor))
        after_rejection = err > tol_step
        if h < flow.H_MIN:
            raise StiffnessFailure("step size underflowed")
    return status, samples, y, accepted, chosen, rejected, evals


def _frame_reference(X, p0, t_max, gtol):
    """_dop853_flow on the frame problem integrate_flow builds from p0, with
    its terminal point mapped back to the full problem as a flat (W, S)."""
    frame = flow._Frame(X, p0)
    start = FactorPair(W=frame.W, S=frame.S)
    status, samples, y, *counts = _dop853_flow(frame.X, start, t_max, gtol)
    d, k = frame.W.shape
    end = frame.lift(y[: d * k].reshape(d, k), y[d * k:].reshape(k, -1))
    return (status, samples, np.concatenate([end.W.ravel(), end.S.ravel()]), *counts)


def test_dop853_tableau_has_its_orders():
    """The coefficients in flow._TABLEAU against transcription slips.  The
    stage rows sum to the nodes c of dop853.f, each within the rounding of
    its entries; b meets the order conditions of the tall and the bushy
    trees up to order 8 and not 9; the fifth- and third-order error weights
    annihilate the tall trees up to their orders and not beyond.  The
    table has columns for y and k1, ..., k12 only: no row, and so neither
    error estimate, weighs the slope at the new point, which is why
    integrate_flow evaluates that slope only once a step is accepted."""
    table = flow._TABLEAU
    assert table.shape == (14, 13)
    r6 = math.sqrt(6.0)
    c = np.array([0.0, (12 - 2 * r6) / 135, (6 - r6) / 45, (6 - r6) / 30, (6 + r6) / 30,
                  1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0])
    A = np.zeros((12, 12))
    A[1:] = table[:11, 1:]
    b, e5, e3 = table[11, 1:], table[12, 1:], table[13, 1:]
    for row, ci in zip(A[1:], c[1:]):
        assert abs(math.fsum(row) - ci) <= 1e-15 * math.fsum(abs(row))
    tall = [np.ones(12)]  # A^(j-1) 1
    for _ in range(8):
        tall.append(A @ tall[-1])

    def meets_up_to(p, residuals):
        """The residuals of the conditions j = 1, 2, ... are rounding up to
        j = p and far from it at j = p + 1."""
        return max(map(abs, residuals[:p])) <= 1e-14 and abs(residuals[p]) > 1e-9

    assert meets_up_to(8, [b @ tall[j - 1] - 1 / math.factorial(j) for j in range(1, 10)])
    assert meets_up_to(8, [b @ c ** (j - 1) - 1 / j for j in range(1, 10)])
    assert meets_up_to(5, [e5 @ tall[j - 1] for j in range(1, 7)])
    assert meets_up_to(3, [e3 @ tall[j - 1] for j in range(1, 5)])


KINDS = st.sampled_from(MATRIX_KINDS)
INITS = st.sampled_from([random_pair, random_balanced_pair])


def _accept_every_limit(X, p, tol):
    return None, None


def _family(kind, exponent, tau, seed):
    """X of the given kind scaled by 10^exponent, and the horizon
    tau / sigma_1, capped at 50 so that no flow takes more than a few
    hundred steps whatever the scale."""
    X = load_data_matrix(10.0**exponent * matrix_of_kind(kind, np.random.default_rng(seed)))
    return X, min(50.0, tau / float(X.sigma[0]))


FAMILY = (KINDS, st.integers(-3, 3), INITS, st.floats(0.1, 100.0), st.integers(0, 2**16))


@settings(max_examples=30, deadline=None)
@given(*FAMILY, st.sampled_from([0.0, 1e-9, 1e-7, 1e-5]))
def test_flow_is_the_reference_loop_bit_for_bit(kind, exponent, init, tau, seed, grad_tol):
    """integrate_flow on its flat buffers takes the steps of the plain
    DOP853 loop on the frame problem it builds, float for float, for every
    k <= min(m, n).

    Every limit is taken as certified, so a flow stops at its first point
    that meets the gradient test; a loose grad_tol puts about a third of
    the flows in the endgame zone.  Samples and terminal factors are
    compared as bytes, so signed zeros count too."""
    X, t_max = _family(kind, exponent, tau, seed)
    gtol = min(grad_tol, flow.LIMIT_TOL) * X.tol_scale
    for k in range(1, X.m + 1):
        # A start drawn from X's own stream can be X's exact factors.
        p0 = init(X, k, seed + 1)
        status, samples, y, steps, chosen, rejected, evals = _frame_reference(X, p0, t_max, gtol)
        with mock.patch.object(flow, "reduce_to_canonical", _accept_every_limit):
            traj = integrate_flow(X, p0, t_max=t_max, grad_tol=grad_tol)
        assert (traj.status, traj.steps, traj.rejected) == (status, steps, rejected)
        assert traj.rhs_evals == evals == 1 + 12 * steps + 11 * rejected
        if chosen:
            assert (traj.h_min, traj.h_max) == (min(chosen), max(chosen))
        else:
            assert traj.h_min is None and traj.h_max is None
        got = np.array([(s.t, s.J, s.grad_norm, s.drift) for s in traj.samples])
        assert got.tobytes() == np.array(samples).tobytes()
        terminal = np.concatenate([traj.terminal.W.ravel(), traj.terminal.S.ravel()])
        assert terminal.tobytes() == y.tobytes()


def _workload_flows():
    """(X, k, t_max) at the benchmark's shapes: 20 x 30 and 30 x 45 X with the
    bulk spectrum at k = 5 and k = 6 and a rank-2 40 x 60 X at k = 3, all in
    Haar frames."""
    rng = np.random.default_rng(3)
    bulk = np.linspace(np.sqrt(30) + np.sqrt(20), np.sqrt(30) - np.sqrt(20), 20)
    bulk45 = np.linspace(np.sqrt(45) + np.sqrt(30), np.sqrt(45) - np.sqrt(30), 30)
    return [(load_data_matrix(fixed_spectrum(rng, 20, 30, bulk)), 5, 20.0),
            (load_data_matrix(fixed_spectrum(rng, 40, 60, np.array([10.0, 6.0]))), 3, 20.0),
            (load_data_matrix(fixed_spectrum(rng, 30, 45, bulk45)), 6, 40.0)]


@pytest.mark.parametrize("init", [random_pair, random_balanced_pair])
def test_flow_is_the_reference_loop_bit_for_bit_at_workload_sizes(init):
    """The benchmark's shapes, wider than the hypothesis family's (see
    _workload_flows).  Over a horizon of a hundred
    steps or more, rejected ones among them (the 30 x 45 flow from a random
    start has its first rejection after t = 20), integrate_flow takes the
    steps of the plain DOP853 loop on the frame problem, compared as bytes."""
    for X, k, t_max in _workload_flows():
        p0 = init(X, k, 1)
        gtol = GRAD_TOL * X.tol_scale
        status, samples, y, steps, chosen, rejected, evals = _frame_reference(X, p0, t_max, gtol)
        with mock.patch.object(flow, "reduce_to_canonical", _accept_every_limit):
            traj = integrate_flow(X, p0, t_max=t_max, grad_tol=GRAD_TOL)
        assert status == "MaxTimeReached" and steps >= 100 and rejected > 0
        assert (traj.status, traj.steps, traj.rejected, traj.rhs_evals) == (
            status, steps, rejected, evals)
        assert (traj.h_min, traj.h_max) == (min(chosen), max(chosen))
        got = np.array([(s.t, s.J, s.grad_norm, s.drift) for s in traj.samples])
        assert got.tobytes() == np.array(samples).tobytes()
        terminal = np.concatenate([traj.terminal.W.ravel(), traj.terminal.S.ravel()])
        assert terminal.tobytes() == y.tobytes()


@pytest.mark.parametrize("init", [random_pair, random_balanced_pair])
def test_frame_coordinates_stay_far_from_subnormal(init):
    """The frame's coordinates are X's singular directions, and those a flow
    leaves decay, but only to the rounding of the frame's X.  At the limit
    of the 30 x 45, k = 6 workload-shape flow no entry of the state is under
    1e-30 sigma_1 (measured: 9.6e-20 sigma_1 from the random start and
    5.1e-19 sigma_1 from the balanced one).  With the frame's X formed as
    an exact diag(sigma_r) they fell to 2e-115 and 5e-214 sigma_1, on the
    way to the subnormal floats that slow a product down."""
    X, k, _ = _workload_flows()[2]
    steppers, make = [], flow._Stepper.__init__

    def keep(self, X, p0):
        make(self, X, p0)
        steppers.append(self)

    with mock.patch.object(flow._Stepper, "__init__", keep):
        traj = integrate_flow(X, init(X, k, 1))
    assert traj.status == "Converged"
    (stepper,) = steppers
    assert min(np.abs(stepper.W).min(), np.abs(stepper.S).min()) >= 1e-30 * X.sigma[0]


# The frame start's J, gradient norm, ||(W, S)||^2 and C are p0's within
# FRAME_TOL times their units: (||X||_F + ||W||_F ||S||_F)^2 for J, that
# times ||(W, S)|| over ||X||_F + ||W||_F ||S||_F for the gradient norm, and
# ||(W, S)||^2 for the last two; the frame maps back to p0 within FRAME_TOL
# ||(W, S)||.  Over 2,998 starts on 400 draws of the family below the
# largest ratios were 2.1e-15 (J), 2.1e-15 (gradient), 1.8e-15
# (||(W, S)||^2), 1.6e-15 (C) and 1.9e-15 (map back).
FRAME_TOL = 1e-14


@settings(max_examples=40, deadline=None)
@given(KINDS, st.integers(-3, 3), INITS, st.integers(0, 2**16))
@example("rank-deficient", 0, random_pair, 0)  # the only kind with a left kernel
def test_frame_changes_coordinates_exactly(kind, exponent, init, seed):
    """The frame a flow runs in is a change of coordinates: at every k, from
    the random start and from the canonical point of the top min(k, r)
    singular values, whose kernel blocks are zero, the frame start keeps J,
    the gradient norm, ||(W, S)||^2 and the invariant C = W^T W - S S^T, and
    maps back to p0.  The stepper's state is the frame's, k (2 r + k' + k'')
    floats, k' = min(k, m - r) and k'' = min(k, n - r), and not k (m + n)."""
    X, _ = _family(kind, exponent, 1.0, seed)
    x = float(np.linalg.norm(X.X))
    for k in range(1, X.m + 1):
        top = Selection(tuple(range(min(k, X.r))))
        for p0 in (init(X, k, seed + 1), CanonicalPoint(X, top, k).materialize()):
            frame = flow._Frame(X, p0)
            W, S = frame.W, frame.S
            norm_sq = p0.norm() ** 2
            unit = x + np.linalg.norm(p0.W) * np.linalg.norm(p0.S)
            D = frame.X - W @ S
            assert abs(0.5 * np.sum(D**2) - evaluate_J(X, p0)) <= FRAME_TOL * unit**2
            grad_norm = math.sqrt(np.sum((D @ S.T) ** 2) + np.sum((W.T @ D) ** 2))
            assert abs(grad_norm - gradient_norm(X, p0)) <= FRAME_TOL * unit * math.sqrt(norm_sq)
            assert abs(np.sum(W**2) + np.sum(S**2) - norm_sq) <= FRAME_TOL * norm_sq
            C, C0 = W.T @ W - S @ S.T, p0.W.T @ p0.W - p0.S @ p0.S.T
            assert np.linalg.norm(C - C0) <= FRAME_TOL * norm_sq
            assert frame.lift(W, S).distance(p0) <= FRAME_TOL * math.sqrt(norm_sq)
            stepper = flow._Stepper(X, p0)
            assert stepper.W.size + stepper.S.size == k * (
                2 * X.r + min(k, X.m - X.r) + min(k, X.n - X.r))


@pytest.mark.parametrize("init", [random_pair, random_balanced_pair])
def test_flow_agrees_with_the_loop_in_full_coordinates(init):
    """At the workload shapes of the bit-for-bit test, integrate_flow in its
    frame and the plain DOP853 loop on the full m x n X stop with the same
    status at t_max = 20, J at the horizon within 1e-13 sigma_1^2 and W S at
    the terminal within 1e-10 sigma_1 in Frobenius norm.  The largest
    differences measured were 6.0e-15 sigma_1^2 and 2.6e-11 sigma_1, both
    on the 20 x 30 flow from a random start: the two loops round
    differently, and each step's local error is held only at the step
    tolerance, about 1e-10 ||(W, S)||."""
    for X, k, _ in _workload_flows():
        p0 = init(X, k, 1)
        gtol = GRAD_TOL * X.tol_scale
        status, samples, y, *_ = _dop853_flow(X.X, p0, 20.0, gtol)
        with mock.patch.object(flow, "reduce_to_canonical", _accept_every_limit):
            traj = integrate_flow(X, p0, t_max=20.0, grad_tol=GRAD_TOL)
        s1 = float(X.sigma[0])
        W, S = y[: X.m * k].reshape(X.m, k), y[X.m * k:].reshape(k, -1)
        assert traj.status == status
        assert abs(traj.samples[-1].J - samples[-1][1]) <= 1e-13 * s1**2
        assert np.linalg.norm(traj.terminal.W @ traj.terminal.S - W @ S) <= 1e-10 * s1


@pytest.mark.parametrize("init", [random_pair, random_balanced_pair])
def test_flow_follows_the_stored_rank_r_X(init):
    """The flow runs on the stored rank-r X, not the raw one.  On a 4 x 6 X
    whose fourth singular value is half the rank cutoff, 0.5 *
    DEFAULT_RANK_TOL * sigma_1, so that r = 3, flows at every k <= r
    converge, and the terminal gradient against the raw X is at most the
    gradient test plus ||X - X_r||_2 ||(W, S)||, what the tail can add.  (At
    k = 4 the balanced start heads for a cone point, which the flow nears
    only slowly, and runs into t_max.)"""
    sigma = np.array([3.0, 2.0, 1.0, 1.5 * DEFAULT_RANK_TOL])
    X = load_data_matrix(fixed_spectrum(np.random.default_rng(5), 4, 6, sigma))
    assert X.r == 3
    tail = np.linalg.norm(X.X - (X.U[:, :3] * X.sigma[:3]) @ X.V[:, :3].T, 2)
    for k in (1, 2, 3):
        traj = integrate_flow(X, init(X, k, 0), grad_tol=GRAD_TOL)
        assert traj.status == "Converged"
        bound = GRAD_TOL * X.tol_scale + tail * traj.terminal.norm()
        assert gradient_norm(X, traj.terminal) <= bound


# |J_DOP853(t_max) - J_RK4(t_max)| <= AGREEMENT_TOL * sigma_1^2 at sigma_1 >= 1,
# where the step tolerance of Dormand-Prince, 1e-10 in absolute terms, is
# tight relative to X; below sigma_1 = 1 the bound is that of sigma_1 = 1.
AGREEMENT_TOL = 1e-8
# The reference runs at REFERENCE_TOL_SCALE times the step tolerance of
# Dormand-Prince.  At the same tolerance its global error alone can pass
# AGREEMENT_TOL on a flow that lingers by a saddle: on the pinned square
# draw, at k = 4, RK4 missed by 4.9e-8 at the horizon and Dormand-Prince
# by 2e-12, both against a run at 1e-14.  RK4's miss there falls a
# hundredfold per tenfold tighter tolerance.
REFERENCE_TOL_SCALE = 1e-2


@settings(max_examples=30, deadline=None)
@given(*FAMILY)
@example("square", 0, random_balanced_pair, 34.0, 1876)
def test_flow_agrees_with_the_rk4_reference(kind, exponent, init, tau, seed):
    """Dormand-Prince at the step tolerance ATOL + RTOL ||(W, S)|| and the
    step-doubling RK4 reference at REFERENCE_TOL_SCALE times it stop with
    the same status and agree on J at the horizon."""
    X, t_max = _family(kind, exponent, tau, seed)
    unit = max(1.0, float(X.sigma[0])) ** 2
    for k in range(1, X.m + 1):
        p0 = init(X, k, seed + 1)
        status, samples, *_ = _rk4_flow(X, p0, t_max, REFERENCE_TOL_SCALE)
        traj = integrate_flow(X, p0, t_max=t_max, grad_tol=0.0)
        assert traj.status == status
        assert abs(traj.samples[-1].J - samples[-1][1]) <= AGREEMENT_TOL * unit


# |J - J_exact| <= EXACT_TOL * max(1, sigma_1)^2 at every sample; like
# AGREEMENT_TOL, it holds below sigma_1 = 1 at the bound of sigma_1 = 1.
EXACT_TOL = 5e-8


@settings(max_examples=20, deadline=None)
@given(KINDS, st.integers(-3, 3), st.integers(0, 2**16))
@example("tied", 1, 352)  # from H0 the RK4 reference missed by 5.3e-8 at k = 2
def test_flow_matches_the_exact_balanced_flow(kind, exponent, seed):
    """From a balanced start, Dormand-Prince and the RK4 reference both follow
    the oracle's exact Riccati solution in J, at every sample up to
    sigma_1 t = EXACT_FLOW_MAX_SIGMA_T.  The start is drawn at unit scale and
    scaled by 10^(exponent / 2), as the factors of 10^exponent X are."""
    X, _ = _family(kind, exponent, 1.0, seed)
    t_max = 0.999 * oracle.EXACT_FLOW_MAX_SIGMA_T / float(X.sigma[0])
    unit = max(1.0, float(X.sigma[0])) ** 2
    c = 10.0 ** (exponent / 2)
    for k in range(1, X.m + 1):
        p = random_balanced_pair(X, k, seed + 1)
        p0 = FactorPair(W=c * p.W, S=c * p.S)
        _, samples, *_ = _rk4_flow(X, p0, t_max)
        traj = integrate_flow(X, p0, t_max=t_max, grad_tol=0.0)
        for t, J in [(s.t, s.J) for s in traj.samples] + [s[:2] for s in samples]:
            R = balanced_flow_exact(X, p0, min(t, t_max))
            exact = 0.5 * float(np.sum((X.X - R[: X.m, X.m:]) ** 2))
            assert abs(J - exact) <= EXACT_TOL * unit
