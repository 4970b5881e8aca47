"""Gradient flow (W', S') = -grad J, with invariant tracking.

The flow conserves W^T W - S S^T exactly, so the integrator reports its
drift alongside J and the gradient norm at every accepted step.  Time
stepping is classical RK4 with step-doubling error control: each step is
taken once at h and twice at h/2, the Richardson estimate of the local error
decides acceptance, and the extrapolated state is kept.  The steps run on
one flat (W, S) state in buffers allocated once per flow; the trajectory
counts rejected steps and RHS evaluations and records the range of accepted
step sizes.

A flow that passes its gradient test is reported Converged only once
``reduce_to_canonical`` reconstructs its terminal point within the
reduction's residual bound, so that every Converged limit classifies.  Each
refusal tightens the gradient test tenfold, at most three times, before the
flow stops Uncertified.
"""

import math
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
from .model import FactorPair, check_pair, evaluate_J
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
# From LIMIT_TOL, three reach 1e-9 * scale, about what the reduction's
# residual bound needs on limits that two tightenings left Uncertified.
TIGHTENINGS = 3


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
    # Step control: rejected steps, RHS evaluations (1 at the start, 10 per
    # attempted step and 1 per accepted step), and the smallest and largest
    # accepted step size (None when no step was accepted).
    rejected: int = 0
    rhs_evals: int = 0
    h_min: float | None = None
    h_max: float | None = None
    # The canonical point with which reduce_to_canonical certified a
    # Converged terminal point at LIMIT_TOL; classify_limit reuses it.
    canonical: CanonicalPoint | None = field(default=None, compare=False, repr=False)

    @property
    def t_final(self):
        return self.samples[-1].t


class _Buffer:
    """One flat (W, S) vector of length k(m + n), with W, S and their
    transposes as views into it."""

    __slots__ = ("y", "W", "S", "WT", "ST")

    def __init__(self, m, k, n):
        self.y = np.empty(k * (m + n))
        self.W = self.y[: m * k].reshape(m, k)
        self.S = self.y[m * k:].reshape(k, n)
        self.WT, self.ST = self.W.T, self.S.T


class _Stepper:
    """RK4 on flat (W, S) buffers allocated once, counting RHS evaluations.

    Every operation writes into a preallocated buffer, in the order of the
    stage inputs y + (c h) k and of the combination
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), so the floats are those of the
    same formulas on separate W and S arrays.
    """

    def __init__(self, X, k):
        m, n = X.m, X.n
        self.X = X.X
        self.shape = (m, k, n)
        self.stage, self.k2, self.k3, self.k4 = (self.buffer() for _ in range(4))
        self.E = np.empty((m, n))
        self.sq = np.empty(k * (m + n))
        self.sqW, self.sqS = self.sq[: m * k], self.sq[m * k:]
        self.rhs_evals = 0

    def buffer(self):
        return _Buffer(*self.shape)

    def rhs(self, y, slope):
        """Write -grad J at y into slope, and the residual W S - X into E.

        The slope is negated once it is built: negation is exact, so it
        keeps the signed zeros that building it from X - W S would not.
        """
        self.rhs_evals += 1
        E = self.E
        np.matmul(y.W, y.S, out=E)
        np.subtract(E, self.X, out=E)
        np.matmul(E, y.ST, out=slope.W)
        np.matmul(y.WT, E, out=slope.S)
        np.negative(slope.y, out=slope.y)

    def sumsq(self, v):
        """||W||^2 + ||S||^2 of the flat vector v, each factor summed in the
        pairwise order of np.sum on it."""
        np.multiply(v, v, out=self.sq)
        return float(np.add.reduce(self.sqW) + np.add.reduce(self.sqS))

    def rk4_step(self, y, h, k1, out):
        """Write into out one RK4 step of size h from y, whose slope k1 is given."""
        stage = self.stage
        for c, k, slope in ((0.5 * h, k1, self.k2), (0.5 * h, self.k2, self.k3),
                            (h, self.k3, self.k4)):
            np.multiply(k.y, c, out=stage.y)
            np.add(y.y, stage.y, out=stage.y)
            self.rhs(stage, slope)
        acc = out.y
        np.multiply(self.k2.y, 2, out=acc)
        np.add(k1.y, acc, out=acc)
        np.multiply(self.k3.y, 2, out=self.k3.y)
        np.add(acc, self.k3.y, out=acc)
        np.add(acc, self.k4.y, out=acc)
        np.multiply(acc, h / 6.0, out=acc)
        np.add(y.y, acc, out=acc)


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

    Raises DimensionError when p0 does not fit X, InvalidInput for a
    non-finite or non-positive t_max and a negative grad_tol, and
    StiffnessFailure if the accepted step size underflows H_MIN.
    """
    check_pair(X, p0)
    if not (np.isfinite(t_max) and t_max > 0):
        raise InvalidInput(f"t_max must be positive and finite, got {t_max}")
    if not grad_tol >= 0:
        raise InvalidInput(f"grad_tol must be nonnegative, got {grad_tol}")
    stepper = _Stepper(X, p0.k)
    y, y1, yh, y2, y_next, k1, kh = (stepper.buffer() for _ in range(7))
    y.W[...] = p0.W
    y.S[...] = p0.S
    diff = np.empty_like(y.y)
    C_init = y.WT @ y.W - y.S @ y.ST
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
            canonical, _ = reduce_to_canonical(X, current(), tol=LIMIT_TOL)
        except RankAmbiguous:
            return "Converged"
        except (NotCritical, NumericalFailure):
            if tightened == TIGHTENINGS:
                return "Uncertified"
            tightened += 1
            gtol /= 10.0
            return None
        return "Converged"

    def current():
        """The current point, copied out of the buffer the next step reuses."""
        return FactorPair(W=y.W.copy(), S=y.S.copy())

    def snapshot(t):
        """The sample at y, leaving the slope of the next step in k1."""
        stepper.rhs(y, k1)
        gnorm = math.sqrt(stepper.sumsq(k1.y))
        drift = float(np.linalg.norm(y.WT @ y.W - y.S @ y.ST - C_init))
        E = stepper.E  # the residual at y, squared in place: rhs rewrites it
        np.multiply(E, E, out=E)
        return FlowSample(t=float(t), J=0.5 * float(np.add.reduce(E, axis=None)),
                          grad_norm=gnorm, drift=drift)

    def trajectory(status):
        return FlowTrajectory(
            samples=tuple(samples), terminal=current(), status=status, steps=steps,
            rejected=rejected, rhs_evals=stepper.rhs_evals,
            h_min=h_min if steps else None, h_max=h_max if steps else None,
            canonical=canonical,
        )

    t = 0.0
    h = H0
    samp = snapshot(t)
    samples = [samp]
    ynorm = math.sqrt(stepper.sumsq(y.y))
    status = "MaxStepsReached"  # every other way out of the loop sets it
    steps = rejected = 0
    h_min, h_max = math.inf, 0.0

    if stop_status() == "Converged":
        return trajectory("Converged")

    while steps < MAX_STEPS:
        h = min(h, t_max - t)
        stepper.rk4_step(y, h, k1, y1)
        stepper.rk4_step(y, 0.5 * h, k1, yh)
        stepper.rhs(yh, kh)
        stepper.rk4_step(yh, 0.5 * h, kh, y2)
        np.subtract(y2.y, y1.y, out=diff)
        err = math.sqrt(stepper.sumsq(diff)) / 15.0
        tol_step = ATOL + RTOL * ynorm

        if err <= tol_step:
            # accept, with local extrapolation
            np.divide(diff, 15.0, out=diff)
            np.add(y2.y, diff, out=y_next.y)
            y, y_next = y_next, y
            t += h
            steps += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            samp = snapshot(t)
            samples.append(samp)
            ynorm = math.sqrt(stepper.sumsq(y.y))
            if not math.isfinite(samp.J) or ynorm > DIVERGENCE_NORM:
                status = "Diverged"
                break
            stop = stop_status()
            if stop is not None:
                status = stop
                break
            if t >= t_max:
                status = "MaxTimeReached"
                break
        else:
            rejected += 1

        factor = 0.9 * (tol_step / max(err, 1e-300)) ** 0.2
        h *= min(5.0, max(0.2, factor))
        if h < H_MIN:
            raise StiffnessFailure(
                f"step size underflowed ({h:.2e} < {H_MIN:.2e}) at t = {t:.3e}"
            )

    return trajectory(status)


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
