"""The three workloads: their seeded inputs, their ops and the check on each op.

A workload hands the runner one cycle of ops at a time; the runner only ever
runs whole cycles.  ``op.run()`` is the timed call into mfland and
``op.check(out)`` runs after the clock has stopped, raising ``CheckFailed``
when the output is wrong.  No check uses a closed form: they compare
eigenpair counts, the Hessian trace and residuals through
``calculus.hessian_apply``, flow invariants, and for the CLI the exit code,
the JSON and byte-identical repeats.

The op lists and the size ladder are constants of this file, not flags, so
every commit runs the same load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Tolerances of the output checks, in units of sigma_1 so that they do not
# depend on the scale of X: Hessian eigenvalues and J scale as sigma_1^2 and
# the conserved quantity W^T W - S S^T as sigma_1.
# The flow bounds are those of verify's flow_conservation check at sigma_1 = 1.
TRACE_TOL = 1e-11        # |sum(values) - tr H| <= TRACE_TOL * N * sigma_1^2
RESIDUAL_TOL = 1e-10     # ||H v - lambda v|| / ||v|| <= RESIDUAL_TOL * sigma_1^2
DRIFT_TOL = 1e-8         # max drift of W^T W - S S^T <= DRIFT_TOL * sigma_1
J_INCREASE_TOL = 1e-9    # J(t_{i+1}) <= J(t_i) + J_INCREASE_TOL * sigma_1^2

T_MAX = 200.0
GRAD_TOL = 1e-9          # integrate_flow's default

# (m, n, k), so N = k (m + n) runs from 500 to oracle.MAX_DENSE_DIM = 5000.
SPECTRUM_LADDER = ((40, 60, 5), (48, 72, 10), (100, 150, 10), (200, 300, 10))
# Balanced and orbit ops assemble the dense Hessian and call eigh: N <= this.
DENSE_ORACLE_MAX_N = 1200


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class NoResult(Exception):
    """An op declined to answer: a typed error, exit code 2 or no convergence."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _rng(*tags):
    return np.random.default_rng(list(tags))


def _haar(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def fixed_spectrum_matrix(rng, m, n, sigma):
    """U diag(sigma) V^T with Haar-random U and V."""
    sigma = np.asarray(sigma, dtype=float)
    U, V = _haar(rng, m), _haar(rng, n)
    return (U[:, : sigma.size] * sigma) @ V[:, : sigma.size].T


def bulk_spectrum(m, n):
    """m values evenly spaced over the singular-value support of an m x n Gaussian."""
    return np.linspace(np.sqrt(n) + np.sqrt(m), np.sqrt(n) - np.sqrt(m), m)


class Op:
    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class SpectrumChecker:
    """Count, trace and residual checks on the Hessian eigenpairs at a point."""

    def __init__(self):
        # Bound before any tracing is installed, so checks never show in spans.
        from mfland.calculus import hessian_apply
        from mfland.oracle import unflatten_tangent
        self.hessian_apply = hessian_apply
        self.unflatten = unflatten_tangent

    def check(self, X, p, values, vector_at, rng):
        """``vector_at(i)`` is the eigenvector of ``values[i]``."""
        m, n, k = X.m, X.n, p.k
        N = k * (m + n)
        s2 = float(X.sigma[0]) ** 2
        values = np.asarray(values, dtype=float)
        _require(values.size == N, f"eigenpair count {values.size} != k(m+n) = {N}")
        # tr H = m ||S||_F^2 + n ||W||_F^2 at any point.
        trace = m * float(np.sum(p.S * p.S)) + n * float(np.sum(p.W * p.W))
        gap = abs(float(np.sum(values)) - trace)
        _require(gap <= TRACE_TOL * N * s2,
                 f"eigenvalue sum misses the trace by {gap:.3e} > {TRACE_TOL * N * s2:.3e}")
        order = np.argsort(values, kind="stable")
        for i in (order[0], order[-1], int(rng.integers(N))):
            v = vector_at(i)
            hv = self.hessian_apply(X, p, v)
            res = np.sqrt(np.sum((hv.G - values[i] * v.G) ** 2)
                          + np.sum((hv.H - values[i] * v.H) ** 2))
            res /= np.sqrt(np.sum(v.G * v.G) + np.sum(v.H * v.H))
            _require(res <= RESIDUAL_TOL * s2,
                     f"eigenpair {i} (value {values[i]:.6g}) has residual "
                     f"{res:.3e} > {RESIDUAL_TOL * s2:.3e}")

    def check_report(self, X, rep, rng):
        self.check(X, rep.point, rep.values, lambda i: rep.eigpairs[i].vector, rng)

    def check_dense(self, X, p, evals, evecs, rng):
        self.check(X, p, evals,
                   lambda i: self.unflatten(evecs[:, i], X.m, X.n, p.k), rng)


# ----------------------------------------------------------- spectrum -----

class SpectrumWorkload:
    """Closed-form spectra over a size ladder, and the dense oracle in the tail."""

    name = "spectrum"

    def __init__(self, seed):
        from mfland import canonical
        from mfland.errors import MflandError
        self.refusals = (MflandError,)
        self.seed = seed
        self.checker = SpectrumChecker()
        self.cases = []
        for m, n, k in SPECTRUM_LADDER:
            rng = _rng(seed, m, n, k)
            q = k // 2
            self.cases.append({
                "m": m, "n": n, "k": k,
                "raw": rng.standard_normal((m, n)),
                # Skipping one index makes each selection non-maximal: a saddle.
                "sel_full": canonical.Selection(tuple(range(k - 1)) + (k,)),
                "sel_half": canonical.Selection(tuple(range(q - 1)) + (q,)),
                "C0_half": rng.standard_normal((n - m, k - q)),
                "C0_zero": rng.standard_normal((n - m, k)),
                "A": np.eye(k) + 0.3 * rng.standard_normal((k, k)) / np.sqrt(k),
            })

    def load(self):
        from mfland import model
        for case in self.cases:
            case["X"] = model.load_data_matrix(case["raw"])
        self.ops = [op for case in self.cases for op in self._ops_for(case)]
        # One op runs twice: with an odd number of ops per cycle the median sits
        # inside the block of the N=1200 and N=2500 spectra, not on the 2x gap
        # between them.
        self.ops.append(next(op for op in self.ops
                             if op.name == "spectrum_full_rank_scaled N=2500"))

    def warm_up(self):
        for op in self._ops_for(self.cases[0]):
            op.check(op.run())

    def cycle(self, c):
        return self.ops

    def _ops_for(self, case):
        from mfland import canonical, orbit, oracle, spectrum
        X, k = case["X"], case["k"]
        N = k * (case["m"] + case["n"])
        tag = f"N={N}"

        def rng():
            return _rng(self.seed, N, 1)

        def check_rep(rep):
            self.checker.check_report(X, rep, rng())

        def deficient():
            cp = canonical.build_canonical(X, case["sel_half"], k, C0=case["C0_half"])
            return spectrum.spectrum_deficient_rank(cp)

        def classify():
            cp = canonical.build_canonical(X, case["sel_half"], k, C0=case["C0_half"])
            return canonical.classify_canonical(cp)

        def check_classify(res):
            q = case["sel_half"].q
            _require(res.kind == "StrictSaddle", f"kind {res.kind} != StrictSaddle")
            _require(res.p == q, f"defect position {res.p} != {q}")
            _require(res.lambda_min_closed_form < 0,
                     f"lambda_min {res.lambda_min_closed_form} is not negative")

        def transport():
            base = canonical.build_canonical(X, case["sel_full"], k).materialize()
            g = orbit.GroupElement.from_matrix(case["A"])
            moved = orbit.apply_group_action(base, g)
            evals, evecs = oracle.numeric_spectrum(X, moved)
            return moved, evals, evecs, orbit.inertia_of(X, moved)

        def check_transport(out):
            moved, evals, evecs, inertia = out
            self.checker.check_dense(X, moved, evals, evecs, rng())
            _require(sum(inertia) == N, f"inertia {inertia} does not sum to {N}")
            _require(inertia[1] >= 1,
                     f"transported saddle has no negative direction: {inertia}")

        ops = [
            Op(f"spectrum_full_rank_scaled {tag}",
               lambda: spectrum.spectrum_full_rank_scaled(X, case["sel_full"], a=1.5),
               check_rep),
            Op(f"spectrum_deficient_rank {tag}", deficient, check_rep),
            Op(f"spectrum_zero_family {tag}",
               lambda: spectrum.spectrum_zero_family(X, case["C0_zero"], k),
               check_rep),
            Op(f"classify_canonical {tag}", classify, check_classify),
        ]
        if N <= DENSE_ORACLE_MAX_N:
            ops += [
                Op(f"spectrum_balanced {tag}",
                   lambda: spectrum.spectrum_balanced(X, case["sel_full"], k),
                   check_rep),
                Op(f"orbit_transport {tag}", transport, check_transport),
            ]
        return ops


# --------------------------------------------------------------- flow -----

class FlowWorkload:
    """Gradient flow from fresh seeded starts, then classify_limit if converged."""

    name = "flow"

    # label -> (m, n, k, singular values).  The seed turns a fixed spectrum
    # (Haar U and V): step counts follow the spectral gaps, so a fixed spectrum
    # keeps the work per op comparable across seeds.
    INPUTS = {
        "generic 20x30 k=5": (20, 30, 5, bulk_spectrum(20, 30)),
        "generic 30x45 k=6": (30, 45, 6, bulk_spectrum(30, 45)),
        "tied 20x30 k=1": (20, 30, 1, np.concatenate([bulk_spectrum(20, 30)[:1],
                                                      bulk_spectrum(20, 30)[:-1]])),
        "rank-2 40x60 k=3": (40, 60, 3, np.array([10.0, 6.0])),
    }
    # One cycle: both starts on every input.  Known defects show here: tied
    # limits and the imbalanced 30x45 limit fail in reduce_to_canonical, and
    # the rank-2 balanced start runs into t_max.  The 30x45 balanced flow runs
    # twice so that the median op sits inside its block of similar op times,
    # not on the gap between two faster and slower kinds.
    OPS = tuple((label, init) for label in INPUTS for init in ("balanced", "random"))
    OPS += (("generic 30x45 k=6", "balanced"),)
    WARM_UP = (8, 12, 2)  # m, n, k

    def __init__(self, seed):
        from mfland.calculus import gradient
        from mfland.errors import MflandError
        self.refusals = (MflandError,)
        self.gradient = gradient  # for checks; bound before any tracing
        self.seed = seed
        self.raw = {label: fixed_spectrum_matrix(_rng(seed, i), m, n, s)
                    for i, (label, (m, n, _k, s)) in enumerate(self.INPUTS.items())}

    def load(self):
        from mfland import model
        self.X = {label: model.load_data_matrix(a) for label, a in self.raw.items()}

    def warm_up(self):
        """Both starts on a small X that does not depend on the seed, so that
        set-up does the same work for every seed."""
        from mfland import flow, model
        m, n, k = self.WARM_UP
        X = model.load_data_matrix(fixed_spectrum_matrix(_rng(0), m, n, bulk_spectrum(m, n)))
        for init in ("balanced", "random"):
            self._checker(X)(self._runner(flow, X, k, init, 0)())

    def cycle(self, c):
        """Every cycle starts each flow from a fresh seeded point."""
        from mfland import flow
        ops = []
        for j, (label, init) in enumerate(self.OPS):
            X, k = self.X[label], self.INPUTS[label][2]
            start = int(np.random.SeedSequence([self.seed, c + 1, j]).generate_state(1)[0])
            ops.append(Op(f"{label} {init}", self._runner(flow, X, k, init, start),
                          self._checker(X)))
        return ops

    @staticmethod
    def _runner(flow, X, k, init, start_seed):
        def run():
            make = flow.random_balanced_pair if init == "balanced" else flow.random_pair
            traj = flow.integrate_flow(X, make(X, k, start_seed), t_max=T_MAX,
                                       grad_tol=GRAD_TOL)
            if traj.status != "Converged":
                return traj, None
            return traj, flow.classify_limit(X, traj)
        return run

    def _checker(self, X):
        s1 = float(X.sigma[0])

        def check(out):
            traj, diag = out
            drift = max(s.drift for s in traj.samples)
            _require(drift <= DRIFT_TOL * s1,
                     f"drift {drift:.3e} > {DRIFT_TOL * s1:.3e}")
            Js = np.array([s.J for s in traj.samples])
            rise = float(np.max(np.diff(Js), initial=0.0))
            _require(rise <= J_INCREASE_TOL * s1 * s1,
                     f"J increased by {rise:.3e} > {J_INCREASE_TOL * s1 * s1:.3e}")
            if traj.status != "Converged":
                raise NoResult(
                    f"{traj.status}: no limit by t_max={T_MAX:g} after {traj.steps} "
                    f"steps (grad norm {traj.samples[-1].grad_norm:.3e})")
            gnorm = self.gradient(X, traj.terminal).norm()
            bound = GRAD_TOL * max(1.0, float(np.linalg.norm(X.X)))
            _require(gnorm <= bound, f"converged with grad norm {gnorm:.3e} > {bound:.3e}")
            _require(diag.kind in ("GlobalMinimum", "StrictSaddle"),
                     f"unknown limit kind {diag.kind}")
        return check


# ---------------------------------------------------------------- cli -----

class CliWorkload:
    """One fresh ``python -m mfland.cli`` process per op, on small seeded X."""

    name = "cli"

    # (name, argv after `mfland`); {seed} is the workload seed.
    COMMANDS = (
        ("spectrum full-rank", "spectrum --x A.csv --k 2 --select 1,3"),
        ("spectrum deficient c0", "spectrum --x D.csv --k 2 --select 1 --c0 C0.csv"),
        ("spectrum zero", "spectrum --x A.csv --k 2"),
        ("spectrum balanced", "spectrum --x A.csv --k 2 --select 1,3 --balanced"),
        ("spectrum csv", "spectrum --x A.csv --k 1 --select 2 --format csv"),
        ("classify", "classify --x A.csv --k 2 --select 1,3"),
        ("orbit a", "orbit --x A.csv --k 2 --select 1,3 --a G.csv"),
        ("orbit scale", "orbit --x A.csv --k 1 --select 2 --scale 2.0"),
        ("flow generic", "flow --x A.csv --k 2 --seed {seed}"),
        ("flow tied", "flow --x T.csv --k 1 --seed {seed}"),
        ("verify", "verify --seed {seed}"),
    )
    # Rows x columns of each CSV's matrix, for count checks on spectrum output.
    SHAPES = {"A.csv": (4, 6), "D.csv": (4, 6)}

    refusals = ()  # ops are processes; a refusal is exit code 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = None
        rng = _rng(seed, 4, 6)
        self.files = {
            "A.csv": rng.standard_normal((4, 6)),
            "D.csv": rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6)),
            "C0.csv": rng.standard_normal((4, 1)),
            "G.csv": np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
            "T.csv": np.diag([2.0, 2.0, 1.0]) @ np.eye(3, 4),
        }
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("MFLAND_THREADS", None)
        self.first_stdout = {}

    def load(self):
        for name, arr in self.files.items():
            with open(self.workdir / name, "w", encoding="utf-8") as fh:
                for row in np.atleast_2d(arr):
                    fh.write(",".join(format(x, ".17g") for x in row) + "\n")
        self.ops = [Op(name, self._runner(argv.format(seed=self.seed).split()),
                       self._checker(name, argv))
                    for name, argv in self.COMMANDS]

    def warm_up(self):
        self.ops[0].run()

    def cycle(self, c):
        return self.ops

    def trace_into(self, tracer):
        """Run later ops under traced_cli.py and merge their spans into tracer."""
        self.tracer = tracer

    def _runner(self, args):
        def run():
            if self.tracer is None:
                return subprocess.run([sys.executable, "-m", "mfland.cli", *args],
                                      cwd=self.workdir, env=self.env,
                                      capture_output=True, timeout=120)
            import spans
            path = self.workdir / "spans.json"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(path), *args],
                cwd=self.workdir, env=self.env, capture_output=True, timeout=120)
            if path.exists():
                self.tracer.merge(*spans.read(path))
                path.unlink()
            return proc
        return run

    def _checker(self, name, argv):
        words = argv.split()

        def check(proc):
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            reason = f"exit {proc.returncode}: {err[-1] if err else '(no stderr)'}"
            if proc.returncode == 2:  # the CLI's code for a typed mfland error
                raise NoResult(reason)
            _require(proc.returncode == 0, reason)
            first = self.first_stdout.setdefault(name, proc.stdout)
            _require(proc.stdout == first, "stdout differs from the first run "
                     "of the same command")
            text = proc.stdout.decode()
            if "--format" in words:
                rows = text.strip().splitlines()
                _require(rows and rows[0] == "value,provenance,coupling",
                         "csv header missing")
                _require(len(rows) - 1 == self._count(words),
                         f"csv has {len(rows) - 1} eigenpairs, want {self._count(words)}")
                return
            try:
                doc = json.loads(text)
            except ValueError as exc:
                raise CheckFailed(f"stdout is not JSON: {exc}") from None
            if words[0] == "spectrum":
                want = self._count(words)
                _require(doc["count"] == want == len(doc["eigenvalues"]),
                         f"count {doc['count']}, {len(doc['eigenvalues'])} values, "
                         f"want {want}")
            if words[0] == "verify":
                failed = [c["name"] for c in doc["checks"] if not c["passed"]]
                _require(doc["all_passed"], f"verify failed: {failed}")
        return check

    def _count(self, words):
        m, n = self.SHAPES[words[words.index("--x") + 1]]
        return int(words[words.index("--k") + 1]) * (m + n)


WORKLOADS = {w.name: w for w in (CliWorkload, SpectrumWorkload, FlowWorkload)}
