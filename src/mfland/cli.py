"""Command-line interface.

Subcommands: spectrum, classify, orbit, flow, verify.  Matrices travel as
CSV (row per line, no header); selections are 1-based on the command line.
Reports are JSON with floats printed at 17 significant digits, so a given
input and seed always produces byte-identical output.  Exit codes: 0 on
success, 1 when `verify` finds a failing check, 2 on invalid input.
"""

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .canonical import CanonicalPoint, Selection, check_scale, classify_canonical
from .errors import InvalidInput, MflandError
from .flow import classify_limit, integrate_flow, random_balanced_pair, random_pair
from .model import load_data_matrix, read_matrix_csv, write_matrix_csv
from .oracle import numeric_spectrum
from .orbit import (
    GroupElement,
    apply_group_action,
    induced_norm,
    inertia_of,
    transported_lambda_min_bound,
)
from .spectrum import (
    spectrum_balanced,
    spectrum_deficient_rank,
    spectrum_full_rank_scaled,
    spectrum_zero_family,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- output ----

def _fmt_float(x):
    if x != x:
        raise InvalidInput("refusing to serialize NaN")
    return format(float(x), ".17g")


def _render(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_render(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    return json.dumps(obj)


def _emit(text, path):
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------- parsing ---

def _parse_selection(raw):
    """None when --select is absent; a --select that lists no index is refused."""
    if raw is None:
        return None
    try:
        one_based = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInput(f"could not parse selection {raw!r}; expect e.g. 1,3")
    if not one_based:
        raise InvalidInput(f"selection {raw!r} lists no index; expect e.g. 1,3")
    if any(i < 1 for i in one_based):
        raise InvalidInput("selection indices are 1-based")
    return Selection(tuple(sorted(i - 1 for i in one_based)))


def _load_X(args):
    return load_data_matrix(read_matrix_csv(args.x), rank_tol=args.rank_tol)


def _load_point(args, X, sel):
    """The point of sel (None: the zero family) at --k, C0 from --c0."""
    C0 = read_matrix_csv(args.c0) if args.c0 else None
    return CanonicalPoint(X, Selection(()) if sel is None else sel, args.k, C0)


# ------------------------------------------------------------- commands -----
#
# A command returns the fields of its report (main adds the schema version
# and the command name in front) or its CSV text; verify also returns its
# exit status.

def _cmd_spectrum(args):
    X = _load_X(args)
    k = args.k
    sel = _parse_selection(args.select)
    if args.balanced and sel is None:
        raise InvalidInput("--balanced requires --select")
    full_rank = sel is not None and sel.q == k and not args.balanced
    scale = args.scale if args.scale is not None else 1.0
    if scale != 1.0 and not full_rank:
        raise InvalidInput("--scale is only supported at a canonical point with q = k")
    if args.balanced:
        if args.c0:
            raise InvalidInput("--c0 is not used with --balanced")
        rep = spectrum_balanced(X, sel, k)
        family = "balanced"
    else:
        cp = _load_point(args, X, sel)
        if sel is None:
            rep = spectrum_zero_family(X, cp.C0, k)
            family = "zero"
        elif full_rank:
            rep = spectrum_full_rank_scaled(X, sel, a=scale)
            family = "canonical-full-rank"
        else:
            rep = spectrum_deficient_rank(cp)
            family = "canonical-deficient"
    if args.format == "csv":
        lines = ["value,provenance,coupling"]
        for e in rep.eigpairs:
            cpl = "" if e.coupling is None else _fmt_float(e.coupling)
            lines.append(f'{_fmt_float(e.value)},"{e.provenance}",{cpl}')
        return "\n".join(lines)
    return {
        "m": X.m,
        "n": X.n,
        "transposed": X.transposed,
        "family": family,
        "selection": [i + 1 for i in sel.indices] if sel is not None else None,
        "scale": scale,
        "count": len(rep.eigpairs),
        "eigenvalues": rep.values.tolist(),
        "inertia": list(rep.inertia),
        "lambda_min": rep.lambda_min,
        "eigenpairs": [
            {"value": e.value, "provenance": e.provenance, "coupling": e.coupling}
            for e in rep.eigpairs
        ],
    }


def _cmd_classify(args):
    X = _load_X(args)
    cp = _load_point(args, X, _parse_selection(args.select))
    res = classify_canonical(cp)
    return {
        "m": X.m,
        "n": X.n,
        "transposed": X.transposed,
        "k": cp.k,
        "q": cp.q,
        "selection": [i + 1 for i in cp.selection.indices],
        "kind": res.kind,
        "maximal": res.maximal,
        "p": res.p,
        "lambda_min_closed_form": res.lambda_min_closed_form,
        "J": cp.objective_value(),
    }


def _cmd_orbit(args):
    X = _load_X(args)
    cp = _load_point(args, X, _parse_selection(args.select))
    k = cp.k
    if args.a:
        A = read_matrix_csv(args.a)
    elif args.scale is not None:
        check_scale(args.scale)
        A = args.scale * np.eye(k)
    else:
        raise InvalidInput("orbit needs --a FILE or --scale VALUE")
    g = GroupElement.from_matrix(A)
    base = cp.materialize()
    moved = apply_group_action(base, g)
    res = classify_canonical(cp)
    if res.kind == "StrictSaddle":
        lam_base = res.lambda_min_closed_form
    else:
        lam_base = float(numeric_spectrum(X, base)[0][0])
    evs, _ = numeric_spectrum(X, moved)
    return {
        "k": k,
        "selection": [i + 1 for i in cp.selection.indices],
        "kind": res.kind,
        "induced_norm": induced_norm(g),
        "cond_A": g.cond(),
        "lambda_min_base": lam_base,
        "transported_bound": transported_lambda_min_bound(lam_base, g),
        "lambda_min_transported": float(evs[0]),
        "inertia_base": list(inertia_of(X, base)),
        "inertia_transported": list(
            inertia_of(X, moved, zero_tol=1e-8 * g.cond() ** 2)
        ),
    }


def _cmd_flow(args):
    X = _load_X(args)
    k = args.k
    if args.init == "balanced":
        p0 = random_balanced_pair(X, k, args.seed)
    else:
        p0 = random_pair(X, k, args.seed)
    traj = integrate_flow(
        X, p0, t_max=args.t_max, grad_tol=args.grad_tol
    )
    if args.trajectory:
        rows = [[s.t, s.J, s.grad_norm, s.drift] for s in traj.samples]
        write_matrix_csv(args.trajectory, np.array(rows))
    report = {
        "seed": args.seed,
        "init": args.init,
        "status": traj.status,
        "steps": traj.steps,
        "rejected": traj.rejected,
        "rhs_evals": traj.rhs_evals,
        "h_min": traj.h_min,
        "h_max": traj.h_max,
        "t_final": traj.t_final,
        "J": traj.samples[-1].J,
        "grad_norm": traj.samples[-1].grad_norm,
        "max_drift": max(s.drift for s in traj.samples),
    }
    if traj.status == "Converged":
        diag = classify_limit(X, traj)
        report["limit"] = {f.name: getattr(diag, f.name) for f in fields(diag) if f.name != "J"}
    return report


def _cmd_verify(args):
    from .verify import run_all

    X = _load_X(args) if args.x else None
    checks = run_all(X, seed=args.seed)
    ok = all(c["passed"] for c in checks)
    return {"seed": args.seed, "all_passed": ok, "checks": checks}, 0 if ok else 1


# ----------------------------------------------------------------- main -----

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mfland",
        description="Critical points, Hessian spectra, orbits, and gradient "
        "flow of 0.5 * ||X - W S||_F^2.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_x=True):
        p.add_argument("--x", required=need_x, help="data matrix CSV")
        p.add_argument("--rank-tol", type=float, default=1e-10)
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def point(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--select", default=None, help="1-based singular value indices, e.g. 1,3")
        p.add_argument("--c0", default=None, help="CSV for the kernel coupling block C0")

    p = sub.add_parser("spectrum", help="closed-form Hessian spectrum at a family point")
    common(p)
    point(p)
    p.add_argument("--scale", type=float, default=None, help="orbit scale a (q = k only)")
    p.add_argument("--balanced", action="store_true", help="use the balanced representative")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("classify", help="family membership and saddle type")
    common(p)
    point(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("orbit", help="transport a family point by A in GL(k)")
    common(p)
    point(p)
    p.add_argument("--a", default=None, help="CSV for the group element A")
    p.add_argument("--scale", type=float, default=None, help="use A = scale * I")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("flow", help="integrate gradient flow from a seeded start")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("balanced", "random"), default="balanced")
    p.add_argument("--t-max", type=float, default=200.0)
    p.add_argument("--grad-tol", type=float, default=1e-9)
    p.add_argument("--trajectory", default=None, help="CSV path for (t, J, gradnorm, drift)")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("verify", help="run the invariant battery (exit 1 on failure)")
    common(p, need_x=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        code = 0
        if isinstance(report, tuple):
            report, code = report
        if isinstance(report, dict):
            report = _render({"schema_version": SCHEMA_VERSION,
                              "command": args.command, **report})
    except MflandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
