"""Gradient flow (W', S') = -grad J, with invariant tracking.

The flow conserves W^T W - S S^T exactly, so the integrator reports its
drift alongside J and the gradient norm at every accepted step.  It also
keeps two spans: W's rows in the left kernel of X move as W0' = -W0 S S^T
and S's columns in its kernel as S0' = -W^T W S0.  So a flow runs in a
frame built once from its start (_Frame): orthonormal bases of range(X)
plus the span of W0's kernel part, r + min(k, m - r) columns, and of
range(X^T) plus that of S0's, r + min(k, n - r) columns.  There the state
is k (2 r + min(k, m - r) + min(k, n - r)) floats, not k (m + n), and X is
the stored rank-r X = U_r diag(sigma_r) V_r^T, the X of every closed form
and of reduce_to_canonical: singular values under the rank cutoff are not
followed.  A point is mapped back to m x k and k x n factors only for the
reduction at a gradient-test pass and for the terminal point.  Time
stepping is Dormand and Prince's explicit Runge-Kutta pair of order 8 with
embedded estimates of orders 5 and 3 (DOP853): twelve stage slopes give the
eighth-order solution, and Hairer's combination of the two embedded
estimates is the local error that decides acceptance.  The estimates give
no weight to the slope at the new point, so that slope is evaluated only
once a step is accepted: it gives that point's sample and is the first
stage slope of the next step.  An attempted step thus costs eleven RHS
evaluations and an accepted one twelve.  The steps run on one (16, N) block
of the flat (W, S) state, its stage slopes, the stage input and the two
error estimates.  A stage is five array calls, its input product and the
RHS's W S, X - W S, D S^T and W^T D, on views and bound ndarray.dot methods
fetched once per flow; one more product gives the solution and both error
estimates.  These and the two Gram products of each sample's drift write
into buffers allocated once per flow, so a step allocates no arrays.  The
step-size factor and its clamp are those of dop853.f, and so is its rule
that the step accepted right after a rejection does not grow the next one.
The trajectory counts rejected steps and RHS evaluations and records the
range of step sizes the controller chose.

The first step is H0, or 0.01 ||y|| / ||y'|| at the start y where that is
shorter (Hairer, Norsett and Wanner, Solving ODEs I, II.4), so that a large
X does not overflow the first attempts.

Near a limit the step size settles at the method's stability edge, where
the error estimate lets the stiff modes of the Hessian hover at about the
step tolerance.  So once the gradient norm is within ENDGAME_ZONE times the
gradient test, the step tolerance is capped at
ENDGAME_SHARE * gtol / (||(W, S)||^2 + ||W S - X||_F): the denominator
bounds the largest Hessian eigenvalue, so the stiff modes stay below the
gradient test instead of levelling off above it.

A flow that passes its gradient test is reported Converged only once
``reduce_to_canonical`` rebuilds its terminal point from a canonical point,
each factor within 1e-8 of its own norm, so that every Converged limit
carries its canonical point.  Each refusal (ambiguous rank, a group element
singular to working precision, or a reconstruction above that bound)
tightens the gradient test tenfold and the flow steps on, a refused start
too, at most three times before it stops Uncertified.
A start whose J, gradient norm or drift overflows float64 is refused with
NumericalFailure before any step.  One block of checks runs at the start,
where only the gradient test applies, and after each accepted step, in the
order Diverged, gradient test, MaxTimeReached.  MaxStepsReached ends the
flow once MAX_STEPS steps are accepted, and StiffnessFailure once a
step-size update, made after the checks, falls below H_MIN.
"""

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .canonical import (
    CanonicalPoint,
    _check_k,
    classify_canonical,
    reduce_to_canonical,
)
from .errors import (
    InvalidInput,
    NotCritical,
    NumericalFailure,
    RankAmbiguous,
    SingularGroupElement,
    StiffnessFailure,
)
from .model import FactorPair, check_pair, check_seed
from .orbit import balance_residual

DIVERGENCE_NORM = 1e12
# Step control: a step is accepted when its local error estimate is at most
# ATOL + RTOL * ||(W, S)||; the first step is at most H0, a step below H_MIN
# is a StiffnessFailure, and the flow stops after MAX_STEPS accepted steps.
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
# The tolerance a limit is reduced to its canonical point at: W's rank is
# read at LIMIT_TOL times its largest singular value.
LIMIT_TOL = 1e-6
# How many times a converged point that the reduction refuses sends the flow
# on with a gradient tolerance ten times tighter before it is Uncertified.
# The reconstruction residual falls with the gradient norm, and from
# LIMIT_TOL three reach 1e-9 * scale, about what the reconstruction bound
# needs on limits that two tightenings left Uncertified.
TIGHTENINGS = 3

# Dormand-Prince 8(5,3), the coefficients of Hairer's dop853.f (Hairer,
# Norsett and Wanner, Solving ODEs I, II.10), over the slopes k1, ..., k12.
# Each row lists its nonzero entries as (j, a_j): the inputs of stages
# 2, ..., 12 are y + h * sum_j a_j k_j, and so is the eighth-order solution
# with the weights _B.  _E5 and _E3 weigh the differences of the solution
# from the embedded fifth- and third-order ones; dop853.f's third-order
# weights differ from _B in three entries (bhh1, bhh2, bhh3).
_A = (
    ((1, 5.26001519587677318785587544488e-2),),
    ((1, 1.97250569845378994544595329183e-2), (2, 5.91751709536136983633785987549e-2)),
    ((1, 2.95875854768068491816892993775e-2), (3, 8.87627564304205475450678981324e-2)),
    ((1, 2.41365134159266685502369798665e-1), (3, -8.84549479328286085344864962717e-1),
     (4, 9.24834003261792003115737966543e-1)),
    ((1, 3.7037037037037037037037037037e-2), (4, 1.70828608729473871279604482173e-1),
     (5, 1.25467687566822425016691814123e-1)),
    ((1, 3.7109375e-2), (4, 1.70252211019544039314978060272e-1),
     (5, 6.02165389804559606850219397283e-2), (6, -1.7578125e-2)),
    ((1, 3.70920001185047927108779319836e-2), (4, 1.70383925712239993810214054705e-1),
     (5, 1.07262030446373284651809199168e-1), (6, -1.53194377486244017527936158236e-2),
     (7, 8.27378916381402288758473766002e-3)),
    ((1, 6.24110958716075717114429577812e-1), (4, -3.36089262944694129406857109825),
     (5, -8.68219346841726006818189891453e-1), (6, 2.75920996994467083049415600797e1),
     (7, 2.01540675504778934086186788979e1), (8, -4.34898841810699588477366255144e1)),
    ((1, 4.77662536438264365890433908527e-1), (4, -2.48811461997166764192642586468),
     (5, -5.90290826836842996371446475743e-1), (6, 2.12300514481811942347288949897e1),
     (7, 1.52792336328824235832596922938e1), (8, -3.32882109689848629194453265587e1),
     (9, -2.03312017085086261358222928593e-2)),
    ((1, -9.3714243008598732571704021658e-1), (4, 5.18637242884406370830023853209),
     (5, 1.09143734899672957818500254654), (6, -8.14978701074692612513997267357),
     (7, -1.85200656599969598641566180701e1), (8, 2.27394870993505042818970056734e1),
     (9, 2.49360555267965238987089396762), (10, -3.0467644718982195003823669022)),
    ((1, 2.27331014751653820792359768449), (4, -1.05344954667372501984066689879e1),
     (5, -2.00087205822486249909675718444), (6, -1.79589318631187989172765950534e1),
     (7, 2.79488845294199600508499808837e1), (8, -2.85899827713502369474065508674),
     (9, -8.87285693353062954433549289258), (10, 1.23605671757943030647266201528e1),
     (11, 6.43392746015763530355970484046e-1)),
)
_B = ((1, 5.42937341165687622380535766363e-2), (6, 4.45031289275240888144113950566),
      (7, 1.89151789931450038304281599044), (8, -5.8012039600105847814672114227),
      (9, 3.1116436695781989440891606237e-1), (10, -1.52160949662516078556178806805e-1),
      (11, 2.01365400804030348374776537501e-1), (12, 4.47106157277725905176885569043e-2))
_E5 = ((1, 0.1312004499419488073250102996e-1), (6, -0.1225156446376204440720569753e+1),
       (7, -0.4957589496572501915214079952), (8, 0.1664377182454986536961530415e+1),
       (9, -0.3503288487499736816886487290), (10, 0.3341791187130174790297318841),
       (11, 0.8192320648511571246570742613e-1), (12, -0.2235530786388629525884427845e-1))
_BHH = {1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547,
        12: 0.220588235294117647058823529412e-1}
_E3 = tuple((j, b - _BHH.get(j, 0.0)) for j, b in _B)


def _tableau():
    """The (14, 13) table over the rows (y, k1, ..., k12): row r < 11 gives
    the input of stage r + 2, row 11 the eighth-order solution (both with 1
    for y, set per step), and rows 12 and 13 the weights of the fifth- and
    third-order error estimates."""
    table = np.zeros((14, 13))
    for r, row in enumerate(_A + (_B, _E5, _E3)):
        for j, a in row:
            table[r, j] = a
    return table


_TABLEAU = _tableau()


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
    # Step control: rejected steps, RHS evaluations (1 at the start, 11 per
    # attempted step and 1 more per accepted one), and the smallest and
    # largest accepted step size the controller chose (None when it chose
    # none: a last step cut short to land on t_max does not count).
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


class _Frame:
    """The coordinates a flow from p0 runs in (see the module docstring):
    orthonormal bases U, m x (r + k'), and V, n x (r + k''), k' = min(k, m - r)
    and k'' = min(k, n - r); X = U^T X_r V and the start W = U^T W0,
    S = S0 V.

    The kernel columns are U0 and V0 times the Q factors of thin QRs of
    U0^T W0 and V0^T S0^T, orthonormal also when those blocks are rank
    deficient or zero.  The coordinates are X's singular directions, and
    those a flow leaves decay, but only to the rounding of the products that
    form X here; an exact diag(sigma_r) would let them sink towards
    subnormal floats, which slow every product down.  The start is kept as
    two arrays, not a FactorPair, so that one that overflows float64
    reaches integrate_flow's finiteness check.
    """

    __slots__ = ("U", "V", "X", "W", "S")

    def __init__(self, X, p0):
        r = X.r
        Ur, Vr, U0, V0 = X.U[:, :r], X.V[:, :r], X.U[:, r:], X.V0
        QW, QS = np.linalg.qr(U0.T @ p0.W)[0], np.linalg.qr(V0.T @ p0.S.T)[0]
        self.U, self.V = np.hstack([Ur, U0 @ QW]), np.hstack([Vr, V0 @ QS])
        self.X = ((self.U.T @ Ur) * X.sigma[:r]) @ (Vr.T @ self.V)
        self.W, self.S = self.U.T @ p0.W, p0.S @ self.V

    def lift(self, W, S):
        """The point (U W, S V^T) of the full problem."""
        return FactorPair(W=self.U @ W, S=S @ self.V.T)


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
    """Dormand-Prince 8(5,3) on flat (W, S) buffers allocated once, counting
    RHS evaluations; the only code that knows their layout.  W, S and X are
    those of the flow's _Frame, and point() maps the current point back.

    One (16, N) array holds the point y, the stage slopes k1, ..., k12, the
    stage input and the fifth- and third-order error estimates, with a
    _Buffer per row.  Each stage input is one ndarray.dot product, which
    skips np.dot's dispatcher, of a row of h * tableau (with 1 for y) and
    the rows; the last three rows of h * tableau give the solution, into
    the stage input, and both estimates in one product.  A stage is its
    input product and the RHS there: W S and X - W S into the residual D,
    D S^T and W^T D into its slope.  Accepting a step copies the solution
    into row 0 and evaluates its slope, the next step's k1, into row 1, and
    so does loading p0, once it fixes the invariant C = W^T W - S S^T of the
    drift.  The views and bound dot methods of every call are fetched here,
    once, so the stage loop looks up no attribute; each call takes the
    buffer it writes as its last argument.
    """

    def __init__(self, X, p0):
        self.frame = frame = _Frame(X, p0)
        X = frame.X
        (m, n), k = X.shape, p0.k
        a = np.empty((16, k * (m + n)))
        y, k1, *_, s, e5, e3 = rows = [_Buffer(row, m, k) for row in a]
        self.coef = coef = np.empty_like(_TABLEAU)
        # The residual X - W S of the latest RHS evaluation and the two Gram
        # products of the drift.
        D, (G, H) = np.empty((m, n)), np.empty((2, k, k))
        self.stages = [(coef[r, : r + 2].dot, a[: r + 2], rows[r + 2].W, rows[r + 2].S)
                       for r in range(11)]
        # The stage input's flat y and what an RHS evaluation there calls.
        self.stage_rhs = (s.y, s.W.dot, s.S, X, D, D.dot, s.ST, s.WT.dot)
        self.finish = (coef[11:].dot, a[:13], a[13:], e5.y.dot, e5.y, e3.y.dot, e3.y)
        self.move = (y.y, s.y, y.W.dot, y.S, X, D, D.dot, y.ST, y.WT.dot, k1.W, k1.S)
        s.W[...], s.S[...] = frame.W, frame.S
        C = s.WT @ s.W - s.S @ s.ST
        self.measure = (y.y.dot, y.y, y.WT.dot, y.W, y.S.dot, y.ST, G, H, C,
                        G.reshape(-1).dot, G.reshape(-1), D.reshape(-1).dot, D.reshape(-1),
                        k1.y.dot, k1.y)
        self.W, self.S, self.rhs_evals = y.W, y.S, 0
        self.accept()

    def attempt(self, h):
        """Take one step of size h from row 0 and return its local error
        estimate: n5 / sqrt(n5 + 0.01 n3) from the squared norms n5 and n3 of
        the fifth- and third-order estimates, as in dop853.f, and 0 when n5
        is.  The eighth-order solution is left in the stage input."""
        coef, subtract = self.coef, np.subtract
        y, Wdot, S, X, D, Ddot, ST, WTdot = self.stage_rhs
        np.multiply(_TABLEAU, h, coef)
        coef[:12, 0] = 1.0
        for cdot, rows, kW, kS in self.stages:
            cdot(rows, y)
            Wdot(S, D)
            subtract(X, D, D)
            Ddot(ST, kW)
            WTdot(D, kS)
        self.rhs_evals += 11
        cdot, rows, out, e5dot, e5, e3dot, e3 = self.finish
        cdot(rows, out)
        n5, n3 = float(e5dot(e5)), float(e3dot(e3))
        return n5 / math.sqrt(n5 + 0.01 * n3) if n5 else 0.0

    def accept(self):
        """Move to the solution and evaluate its slope and residual."""
        y, solution, Wdot, S, X, D, Ddot, ST, WTdot, kW, kS = self.move
        y[...] = solution
        Wdot(S, D)
        np.subtract(X, D, D)
        Ddot(ST, kW)
        WTdot(D, kS)
        self.rhs_evals += 1

    def sample(self, t):
        """The sample at the current point, from its slope k1 and the residual
        D of the RHS evaluation that gave it, and its ||y||^2 as ysq.  The
        drift ||W^T W - S S^T - C||_F is computed as np.linalg.norm does: the
        square root of the dot product of the flat difference with itself."""
        ydot, y, WTdot, W, Sdot, ST, G, H, C, gdot, g, Ddot, D, kdot, k1 = self.measure
        self.ysq = float(ydot(y))
        WTdot(W, G)
        Sdot(ST, H)
        np.subtract(G, H, G)
        np.subtract(G, C, G)
        return FlowSample(t=float(t), J=0.5 * float(Ddot(D)),
                          grad_norm=math.sqrt(kdot(k1)), drift=math.sqrt(gdot(g)))

    def point(self):
        """The current point, mapped back to the full problem."""
        return self.frame.lift(self.W, self.S)


def integrate_flow(X, p0, t_max=200.0, grad_tol=1e-9):
    """Integrate gradient flow from p0 until the point is certified as a
    limit, time runs out, MAX_STEPS steps have been accepted, or the iterate
    diverges; the module docstring gives the order of these checks.

    The flow is that of the stored rank-r X, whose singular values under the
    rank cutoff are zero: J, the gradient and the gradient test are taken
    against it, not against the raw X.X.  The two gradients differ by at
    most ||X - X_r||_2 ||(W, S)||.

    The gradient test starts at min(grad_tol, LIMIT_TOL) * X.tol_scale.  A
    point that passes it is Converged when ``reduce_to_canonical`` accepts it
    at LIMIT_TOL, and the trajectory carries that reduction.  Each refusal
    (NotCritical, NumericalFailure, RankAmbiguous or SingularGroupElement)
    divides the test by 10 and steps on, at most TIGHTENINGS times, before
    the flow is Uncertified.

    Raises DimensionError when p0 does not fit X, InvalidSelection for
    k = p0.k outside [1, min(m, n)], InvalidInput for a t_max that is not a
    positive finite number and a grad_tol that is not a nonnegative number,
    NumericalFailure when J, the gradient or the drift at p0 is not finite
    in float64, and StiffnessFailure if the accepted step size underflows
    H_MIN.
    """
    check_pair(X, p0)
    _check_k(X, p0.k)
    if not (isinstance(t_max, Real) and math.isfinite(t_max) and t_max > 0):
        raise InvalidInput(f"t_max must be positive and finite, got {t_max!r}")
    if not (isinstance(grad_tol, Real) and grad_tol >= 0):
        raise InvalidInput(f"grad_tol must be nonnegative, got {grad_tol!r}")
    gtol, tightened, canonical = min(grad_tol, LIMIT_TOL) * X.tol_scale, 0, None
    t, steps, rejected, h_min, h_max = 0.0, 0, 0, math.inf, 0.0
    # The start's products may overflow float64; such a start is refused here.
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _Stepper(X, p0)
        start = stepper.sample(t)
    if not all(map(math.isfinite, (start.J, start.grad_norm, start.drift, stepper.ysq))):
        raise NumericalFailure(
            f"the flow's start is not finite in float64: max |W| = {np.abs(p0.W).max():.3g}, "
            f"max |S| = {np.abs(p0.S).max():.3g}")
    samples = [start]
    h, grad0 = H0, start.grad_norm
    if grad0 > 0.0:
        h = min(H0, 0.01 * math.sqrt(stepper.ysq) / grad0)
    # moved: the point is new (the start, or the end of an accepted step), so
    # the stop checks run on it; growth: the step-size factor of the last
    # attempt, applied after those checks (1.0 leaves the first step as it is).
    status, moved, growth, samp = None, True, 1.0, start
    attempt, accept, sample = stepper.attempt, stepper.accept, stepper.sample
    record, isfinite, sqrt = samples.append, math.isfinite, math.sqrt
    while True:
        if moved:
            if steps and (not isfinite(samp.J) or stepper.ysq > DIVERGENCE_NORM ** 2):
                status = "Diverged"
            elif samp.grad_norm <= gtol:
                try:
                    canonical, _ = reduce_to_canonical(X, stepper.point(), tol=LIMIT_TOL)
                    status = "Converged"
                except (NotCritical, NumericalFailure, RankAmbiguous, SingularGroupElement):
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
        tol_step = ATOL + RTOL * sqrt(ysq)
        if samp.grad_norm <= ENDGAME_ZONE * gtol:
            tol_step = min(tol_step, ENDGAME_SHARE * gtol / (ysq + sqrt(2.0 * samp.J)))
        err = attempt(h)
        # The step-size factor and its clamp are the defaults of dop853.f; as
        # there, the step accepted right after a rejection (moved is still the
        # last attempt's outcome) does not grow the next one.
        factor = 0.9 * (tol_step / max(err, 1e-300)) ** 0.125
        growth = min(6.0 if moved else 1.0, max(0.333, factor))
        moved = err <= tol_step
        if moved:
            accept()
            t = t_max if clipped else t + h
            steps += 1
            if not clipped:
                h_min, h_max = min(h_min, h), max(h_max, h)
            samp = sample(t)
            record(samp)
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
    selection: tuple  # 0-based indices
    lambdas: tuple
    p: int | None
    lambda_min: float | None
    balance_residual: float


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
        selection=cp.selection.indices,
        lambdas=tuple(float(v) for v in cp.lambdas),
        p=res.p,
        lambda_min=res.lambda_min_closed_form,
        balance_residual=balance_residual(traj.terminal),
    )


def _start_rng(X, k, seed):
    """The generator of a start with k columns, after checking k and seed."""
    _check_k(X, k)
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
