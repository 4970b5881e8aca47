"""Gradient flow (W', S') = -grad J, with invariant tracking.

The flow conserves W^T W - S S^T exactly, so the integrator reports its
drift alongside J and the gradient norm at every accepted step.  Time
stepping is classical RK4 with step-doubling error control: each step is
taken once at h and twice at h/2, the Richardson estimate of the local error
decides acceptance, and the extrapolated state is kept.

A flow that passes its gradient test is reported Converged only once
``reduce_to_canonical`` reconstructs its terminal point within the
reduction's residual bound, so that every Converged limit classifies.
"""

from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalPoint, classify_canonical, reduce_to_canonical
from .errors import (
    InvalidInput,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
    StiffnessFailure,
)
from .model import FactorPair, evaluate_J
from .orbit import balance_residual

DIVERGENCE_NORM = 1e12
# Step control: a step is accepted when its local error estimate is at most
# ATOL + RTOL * ||(W, S)||; the first step is H0, a step below H_MIN is a
# StiffnessFailure, and the flow stops after MAX_STEPS accepted steps.
ATOL = 1e-10
RTOL = 1e-10
H0 = 1e-2
H_MIN = 1e-13
MAX_STEPS = 200000
# The tolerance a limit is reduced to its canonical point at.
LIMIT_TOL = 1e-6
# How many times a converged point that the reduction refuses sends the flow
# on with a gradient tolerance ten times tighter before it is Uncertified.
TIGHTENINGS = 2


@dataclass(frozen=True)
class FlowSample:
    t: float
    J: float
    grad_norm: float
    drift: float


@dataclass(frozen=True)
class FlowTrajectory:
    samples: tuple
    terminal: FactorPair
    # "Converged" | "Uncertified" | "MaxTimeReached" | "MaxStepsReached" | "Diverged"
    status: str
    steps: int
    # The canonical point with which reduce_to_canonical certified a
    # Converged terminal point at LIMIT_TOL; classify_limit reuses it.
    canonical: CanonicalPoint | None = field(default=None, compare=False, repr=False)

    @property
    def t_final(self):
        return self.samples[-1].t


def _rhs(X, W, S):
    """-grad J at (W, S), with the residual E = W S - X it is built from."""
    E = W @ S - X.X
    return -(E @ S.T), -(W.T @ E), E


def _rk4_step(X, W, S, h, k1W, k1S):
    """One RK4 step of size h from (W, S), whose slope (k1W, k1S) is given."""
    k2W, k2S, _ = _rhs(X, W + 0.5 * h * k1W, S + 0.5 * h * k1S)
    k3W, k3S, _ = _rhs(X, W + 0.5 * h * k2W, S + 0.5 * h * k2S)
    k4W, k4S, _ = _rhs(X, W + h * k3W, S + h * k3S)
    Wn = W + (h / 6.0) * (k1W + 2 * k2W + 2 * k3W + k4W)
    Sn = S + (h / 6.0) * (k1S + 2 * k2S + 2 * k3S + k4S)
    return Wn, Sn


def integrate_flow(X, p0, t_max=200.0, grad_tol=1e-9):
    """Integrate gradient flow from p0 until the point is certified as a
    limit, time runs out, MAX_STEPS steps have been accepted, or the iterate
    diverges.

    The gradient test starts at min(grad_tol, LIMIT_TOL) * max(1, ||X||_F).
    A point that passes it is Converged when ``reduce_to_canonical`` accepts
    it at LIMIT_TOL.  Each refusal (NotCritical or NumericalFailure) sends
    the flow on from that point with the gradient tolerance divided by 10,
    at most TIGHTENINGS times, and then stops it as "Uncertified".  A
    RankAmbiguous refusal leaves the point Converged, and ``classify_limit``
    raises it.

    Raises InvalidInput for a non-finite or non-positive t_max and a
    negative grad_tol, and StiffnessFailure if the accepted step size
    underflows H_MIN.
    """
    if not (np.isfinite(t_max) and t_max > 0):
        raise InvalidInput(f"t_max must be positive and finite, got {t_max}")
    if not grad_tol >= 0:
        raise InvalidInput(f"grad_tol must be nonnegative, got {grad_tol}")
    W, S = p0.W.copy(), p0.S.copy()
    C_init = W.T @ W - S @ S.T
    scale = max(1.0, float(np.linalg.norm(X.X)))

    gtol, tightened, canonical = min(grad_tol, LIMIT_TOL) * scale, 0, None

    def stop_status():
        """The status to stop with at the current point (Converged, or
        Uncertified once the tightenings are spent), or None to go on, with
        gtol tightened when the reduction refused the point."""
        nonlocal gtol, tightened, canonical
        if samp.grad_norm > gtol:
            return None
        try:
            canonical, _ = reduce_to_canonical(X, FactorPair(W=W, S=S), tol=LIMIT_TOL)
        except RankAmbiguous:
            return "Converged"
        except (NotCritical, NumericalFailure):
            if tightened == TIGHTENINGS:
                return "Uncertified"
            tightened += 1
            gtol /= 10.0
            return None
        return "Converged"

    def snapshot(t):
        """The sample at the current (W, S) and the slope of the next step."""
        kW, kS, E = _rhs(X, W, S)
        gnorm = float(np.sqrt(np.sum(kW**2) + np.sum(kS**2)))
        drift = float(np.linalg.norm(W.T @ W - S @ S.T - C_init))
        return kW, kS, FlowSample(
            t=float(t), J=0.5 * float(np.sum(E * E)), grad_norm=gnorm, drift=drift
        )

    t = 0.0
    h = H0
    k1W, k1S, samp = snapshot(t)
    samples = [samp]
    status = "MaxStepsReached"  # every other way out of the loop sets it
    steps = 0

    if stop_status() == "Converged":
        return FlowTrajectory(samples=(samp,), terminal=FactorPair(W=W, S=S),
                              status="Converged", steps=0, canonical=canonical)

    while steps < MAX_STEPS:
        h = min(h, t_max - t)
        W1, S1 = _rk4_step(X, W, S, h, k1W, k1S)
        Wh, Sh = _rk4_step(X, W, S, 0.5 * h, k1W, k1S)
        kW, kS, _ = _rhs(X, Wh, Sh)
        W2, S2 = _rk4_step(X, Wh, Sh, 0.5 * h, kW, kS)
        err = np.sqrt(np.sum((W1 - W2) ** 2) + np.sum((S1 - S2) ** 2)) / 15.0
        ynorm = np.sqrt(np.sum(W * W) + np.sum(S * S))
        tol_step = ATOL + RTOL * ynorm

        if err <= tol_step:
            # accept, with local extrapolation
            W = W2 + (W2 - W1) / 15.0
            S = S2 + (S2 - S1) / 15.0
            t += h
            steps += 1
            k1W, k1S, samp = snapshot(t)
            samples.append(samp)
            if not np.isfinite(samp.J) or (
                np.sqrt(np.sum(W**2) + np.sum(S**2)) > DIVERGENCE_NORM
            ):
                status = "Diverged"
                break
            stop = stop_status()
            if stop is not None:
                status = stop
                break
            if t >= t_max:
                status = "MaxTimeReached"
                break

        factor = 0.9 * (tol_step / max(err, 1e-300)) ** 0.2
        h *= min(5.0, max(0.2, factor))
        if h < H_MIN:
            raise StiffnessFailure(
                f"step size underflowed ({h:.2e} < {H_MIN:.2e}) at t = {t:.3e}"
            )

    return FlowTrajectory(samples=tuple(samples), terminal=FactorPair(W=W, S=S),
                          status=status, steps=steps, canonical=canonical)


@dataclass(frozen=True)
class LimitDiagnosis:
    kind: str
    q: int
    selection: tuple  # 1-based indices
    lambdas: tuple
    p: int | None
    lambda_min: float | None
    balance_residual: float
    J: float


def classify_limit(X, traj):
    """Identify which critical-point family a converged trajectory reached.

    This reads the canonical point integrate_flow certified the limit with,
    and reduces the terminal point at LIMIT_TOL only when the trajectory
    carries none for this X.
    """
    if traj.status != "Converged":
        raise InvalidInput(
            f"classify_limit needs a converged trajectory, status is {traj.status}"
        )
    cp = traj.canonical
    if cp is None or cp.X.X is not X.X:
        cp, _ = reduce_to_canonical(X, traj.terminal, tol=LIMIT_TOL)
    res = classify_canonical(cp)
    return LimitDiagnosis(
        kind=res.kind,
        q=cp.q,
        selection=tuple(i + 1 for i in cp.selection.indices),
        lambdas=tuple(float(v) for v in cp.lambdas),
        p=res.p,
        lambda_min=res.lambda_min_closed_form,
        balance_residual=balance_residual(traj.terminal),
        J=evaluate_J(X, traj.terminal),
    )


def random_balanced_pair(X, k, seed):
    """Random W with S = (W^T W)^{1/2} R, R row-orthonormal: starts on M_0."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((X.m, k))
    B = W.T @ W
    evals, evecs = np.linalg.eigh(B)
    root = evecs @ (np.sqrt(np.clip(evals, 0.0, None))[:, None] * evecs.T)
    Q, _ = np.linalg.qr(rng.standard_normal((X.n, k)))
    return FactorPair(W=W, S=root @ Q.T)


def random_pair(X, k, seed):
    rng = np.random.default_rng(seed)
    return FactorPair(
        W=rng.standard_normal((X.m, k)), S=rng.standard_normal((k, X.n))
    )
