"""Gradient flow (W', S') = -grad J, with invariant tracking.

The flow conserves W^T W - S S^T exactly, so the integrator reports its
drift alongside J and the gradient norm at every accepted step.  Time
stepping is the Dormand-Prince 5(4) pair with first-same-as-last (FSAL):
the seven stage slopes of a step cost six RHS evaluations, because the
seventh, taken at the propagated fifth-order solution, is the first slope
of the next step and gives that point's sample.  The difference of the two
embedded solutions is the local error estimate that decides acceptance.
The steps run on one (8, N) block of the flat (W, S) state and its stage
slopes.  Every stage product and the two Gram products of each sample's
drift write through np.dot into buffers allocated once per flow, so a step
allocates no arrays.  The trajectory counts rejected steps and RHS
evaluations and records the range of step sizes the controller chose.

Near a limit the step size settles at the method's stability edge, where
the error estimate lets the stiff modes of the Hessian hover at about the
step tolerance.  So once the gradient norm is within ENDGAME_ZONE times the
gradient test, the step tolerance is capped at
ENDGAME_SHARE * gtol / (||(W, S)||^2 + ||W S - X||_F): the denominator
bounds the largest Hessian eigenvalue, so the stiff modes stay below the
gradient test instead of levelling off above it.

A flow that passes its gradient test is reported Converged only once
``reduce_to_canonical`` reconstructs its terminal point within the
reduction's residual bound, so that every Converged limit carries its
canonical point.  Each refusal (not critical, ambiguous rank, residual
above the bound) tightens the gradient test tenfold and the flow steps on,
a refused start too, at most three times before it stops Uncertified.
One block of checks runs at the start, where only the gradient test
applies, and after each accepted step, in the order Diverged, gradient
test, MaxTimeReached.  MaxStepsReached ends the flow once MAX_STEPS steps
are accepted, and StiffnessFailure once a step-size update, made after the
checks, falls below H_MIN.
"""

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .canonical import (
    CanonicalPoint,
    Selection,
    _validate_selection,
    classify_canonical,
    reduce_to_canonical,
)
from .errors import (
    InvalidInput,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
    StiffnessFailure,
)
from .model import FactorPair, check_pair, check_seed, evaluate_J
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
# The endgame rule: while the gradient norm is at most ENDGAME_ZONE * gtol,
# the step tolerance is at most ENDGAME_SHARE * gtol divided by the bound
# ||(W, S)||^2 + ||W S - X||_F on the Hessian's largest eigenvalue.
ENDGAME_ZONE = 10.0
ENDGAME_SHARE = 0.5
# The tolerance a limit is reduced to its canonical point at.
LIMIT_TOL = 1e-6
# How many times a converged point that the reduction refuses sends the flow
# on with a gradient tolerance ten times tighter before it is Uncertified.
# From LIMIT_TOL, three reach 1e-9 * scale, about what the reduction's
# residual bound needs on limits that two tightenings left Uncertified.
TIGHTENINGS = 3

# The Dormand-Prince 5(4) tableau over the rows (y, k1, ..., k7).  Row r < 6
# gives the input of stage r + 2 as y + h * sum_j a_j k_j (row 5, stage 7, is
# the fifth-order solution); row 6 holds the error weights b5 - b4.
_DP = (
    (1.0, 1 / 5),
    (1.0, 3 / 40, 9 / 40),
    (1.0, 44 / 45, -56 / 15, 32 / 9),
    (1.0, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (1.0, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (1.0, 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    (0.0, 71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
     -1 / 40),
)
_TABLEAU = np.array([row + (0.0,) * (8 - len(row)) for row in _DP])


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
    # Step control: rejected steps, RHS evaluations (1 at the start and 6 per
    # attempted step), and the smallest and largest accepted step size the
    # controller chose (None when it chose none: a last step cut short to
    # land on t_max does not count).
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
    """A flat (W, S) vector y of length k(m + n), with W, S and their
    transposes as views into it."""

    __slots__ = ("y", "W", "S", "WT", "ST")

    def __init__(self, y, m, k):
        self.y = y
        self.W = y[: m * k].reshape(m, k)
        self.S = y[m * k:].reshape(k, -1)
        self.WT, self.ST = self.W.T, self.S.T


class _Stepper:
    """Dormand-Prince 5(4) with FSAL on flat (W, S) buffers allocated once,
    counting RHS evaluations; the only code that knows their layout.

    One (8, N) array holds the point y and the stage slopes k1, ..., k7, with
    a _Buffer per row.  Each stage input and the error estimate are one
    product of a row of h * tableau (with 1 for y) and the rows.  The input of
    stage 7 is the fifth-order solution, so accepting a step copies it from
    the stage buffer into row 0, and its slope k7 into row 1.  Every product
    of a step (the stage and error combinations and the three products of
    each RHS evaluation) and each Gram product of the drift goes through
    np.dot into one of these buffers.  Loading p0 evaluates its slope k1 and
    fixes the invariant C = W^T W - S S^T that the drift is measured from.
    """

    def __init__(self, X, p0):
        m, n, k = X.m, X.n, p0.k
        self.X = X.X
        self.a = np.empty((8, k * (m + n)))
        self.rows = [_Buffer(row, m, k) for row in self.a]
        self.stage = _Buffer(np.empty(k * (m + n)), m, k)
        self.coef = np.empty_like(_TABLEAU)
        self.stages = [(self.coef[r, : r + 2], self.a[: r + 2], self.rows[r + 2])
                       for r in range(6)]
        self.diff = np.empty(k * (m + n))
        # The residual X - W S of the latest RHS evaluation.
        self.D = np.empty((m, n))
        # The two Gram products of the drift and its flat view.
        self.G, self.H = np.empty((2, k, k))
        self.flat = self.G.reshape(-1)
        self.rhs_evals = 0
        y = self.rows[0]
        y.W[...], y.S[...] = p0.W, p0.S
        self.C = y.WT @ y.W - y.S @ y.ST
        self.rhs(y, self.rows[1])

    def rhs(self, y, slope):
        """Write -grad J at y into slope, and the residual X - W S into D."""
        self.rhs_evals += 1
        D, dot = self.D, np.dot
        dot(y.W, y.S, out=D)
        np.subtract(self.X, D, out=D)
        dot(D, y.ST, out=slope.W)
        dot(y.WT, D, out=slope.S)

    def attempt(self, h):
        """Take one step of size h from row 0 and return the norm of its local
        error estimate.  The fifth-order solution is left in the stage
        buffer, its slope in row 7 and its residual in D."""
        stage, coef, rhs, dot, diff = self.stage, self.coef, self.rhs, np.dot, self.diff
        np.multiply(_TABLEAU, h, out=coef)
        coef[:6, 0] = 1.0
        for c, rows, slope in self.stages:
            dot(c, rows, out=stage.y)
            rhs(stage, slope)
        dot(coef[6, 1:], self.a[1:], out=diff)
        return math.sqrt(dot(diff, diff))

    def accept(self):
        self.a[0] = self.stage.y
        self.a[1] = self.a[7]

    def sample(self, t):
        """The sample at the current point, from its slope k1 and the residual
        D of the RHS evaluation that gave it, and its ||y||^2 as ysq.  The
        drift ||W^T W - S S^T - C||_F is computed as np.linalg.norm does: the
        square root of the dot product of the flat difference with itself."""
        y, k1, G, H, dot = self.rows[0], self.a[1], self.G, self.H, np.dot
        self.ysq = float(dot(y.y, y.y))
        dot(y.WT, y.W, out=G)
        dot(y.S, y.ST, out=H)
        np.subtract(G, H, out=G)
        np.subtract(G, self.C, out=G)
        return FlowSample(t=float(t), J=0.5 * float(np.vdot(self.D, self.D)),
                          grad_norm=math.sqrt(dot(k1, k1)),
                          drift=math.sqrt(dot(self.flat, self.flat)))

    def point(self):
        """The current point, copied out of the buffer the next step reuses."""
        y = self.rows[0]
        return FactorPair(W=y.W.copy(), S=y.S.copy())


def integrate_flow(X, p0, t_max=200.0, grad_tol=1e-9):
    """Integrate gradient flow from p0 until the point is certified as a
    limit, time runs out, MAX_STEPS steps have been accepted, or the iterate
    diverges; the module docstring gives the order of these checks.

    The gradient test starts at min(grad_tol, LIMIT_TOL) * X.tol_scale.  A
    point that passes it is Converged when ``reduce_to_canonical`` accepts it
    at LIMIT_TOL, and the trajectory carries that reduction.  Each refusal
    (NotCritical, NumericalFailure or RankAmbiguous) divides the test by 10
    and steps on, at most TIGHTENINGS times, before the flow is Uncertified.

    Raises DimensionError when p0 does not fit X, InvalidSelection for
    k = p0.k outside [1, min(m, n)], InvalidInput for a t_max that is not a
    positive finite number and a grad_tol that is not a nonnegative number,
    and StiffnessFailure if the accepted step size underflows H_MIN.
    """
    check_pair(X, p0)
    _validate_selection(X, Selection(()), p0.k)
    if not (isinstance(t_max, Real) and math.isfinite(t_max) and t_max > 0):
        raise InvalidInput(f"t_max must be positive and finite, got {t_max!r}")
    if not (isinstance(grad_tol, Real) and grad_tol >= 0):
        raise InvalidInput(f"grad_tol must be nonnegative, got {grad_tol!r}")
    stepper = _Stepper(X, p0)
    gtol, tightened, canonical = min(grad_tol, LIMIT_TOL) * X.tol_scale, 0, None
    t, h, steps, rejected, h_min, h_max = 0.0, H0, 0, 0, math.inf, 0.0
    samples = [stepper.sample(t)]
    # moved: the point is new (the start, or the end of an accepted step), so
    # the stop checks run on it; growth: the step-size factor of the last
    # attempt, applied after those checks (1.0 leaves H0 as it is).
    status, moved, growth = None, True, 1.0
    while True:
        if moved:
            samp = samples[-1]
            if steps and (not math.isfinite(samp.J) or stepper.ysq > DIVERGENCE_NORM ** 2):
                status = "Diverged"
            elif samp.grad_norm <= gtol:
                try:
                    canonical, _ = reduce_to_canonical(X, stepper.point(), tol=LIMIT_TOL)
                    status = "Converged"
                except (NotCritical, NumericalFailure, RankAmbiguous):
                    if tightened == TIGHTENINGS:
                        status = "Uncertified"
                    tightened, gtol = tightened + 1, gtol / 10.0
            if status is None and t >= t_max:
                status = "MaxTimeReached"
            if status is not None:
                break
        h *= growth
        if h < H_MIN:
            raise StiffnessFailure(
                f"step size underflowed ({h:.2e} < {H_MIN:.2e}) at t = {t:.3e}"
            )
        if steps >= MAX_STEPS:
            status = "MaxStepsReached"
            break

        clipped = t_max - t < h
        if clipped:
            h = t_max - t
        ysq = stepper.ysq
        tol_step = ATOL + RTOL * math.sqrt(ysq)
        if samp.grad_norm <= ENDGAME_ZONE * gtol:
            tol_step = min(tol_step, ENDGAME_SHARE * gtol / (ysq + math.sqrt(2.0 * samp.J)))
        err = stepper.attempt(h)
        growth = min(5.0, max(0.2, 0.9 * (tol_step / max(err, 1e-300)) ** 0.2))
        moved = err <= tol_step
        if moved:
            stepper.accept()
            t = t_max if clipped else t + h
            steps += 1
            if not clipped:
                h_min, h_max = min(h_min, h), max(h_max, h)
            samples.append(stepper.sample(t))
        else:
            rejected += 1

    chose = h_max > 0.0
    return FlowTrajectory(
        samples=tuple(samples), terminal=stepper.point(), status=status, steps=steps,
        rejected=rejected, rhs_evals=stepper.rhs_evals,
        h_min=h_min if chose else None, h_max=h_max if chose else None,
        canonical=canonical,
    )


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

    It reads the canonical point with which integrate_flow certified the
    limit: a trajectory that carries none for this X raises InvalidInput.
    """
    if traj.status != "Converged":
        raise InvalidInput(
            f"classify_limit needs a converged trajectory, status is {traj.status}"
        )
    cp = traj.canonical
    if cp is None or cp.X.X is not X.X:
        raise InvalidInput(
            "classify_limit needs the trajectory integrate_flow returned for this X"
        )
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


def _start_rng(X, k, seed):
    """The generator of a start with k columns, after checking k and seed."""
    _validate_selection(X, Selection(()), k)
    check_seed(seed)
    return np.random.default_rng(seed)


def random_balanced_pair(X, k, seed):
    """Random W with S = (W^T W)^{1/2} R, R row-orthonormal: starts on M_0."""
    rng = _start_rng(X, k, seed)
    W = rng.standard_normal((X.m, k))
    evals, evecs = np.linalg.eigh(W.T @ W)
    root = evecs @ (np.sqrt(np.clip(evals, 0.0, None))[:, None] * evecs.T)
    Q, _ = np.linalg.qr(rng.standard_normal((X.n, k)))
    return FactorPair(W=W, S=root @ Q.T)


def random_pair(X, k, seed):
    rng = _start_rng(X, k, seed)
    return FactorPair(W=rng.standard_normal((X.m, k)), S=rng.standard_normal((k, X.n)))
