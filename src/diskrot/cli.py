"""Command-line interface.

Every command reads an optional JSON map config, runs one verification
or computation, and writes a report bundle (JSON, CSV series, SVG
charts) atomically under --out.  Exit codes: 0 success, 1 assertion or
computation failure, 2 usage or schema error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_CONFIG = {
    "family": "conjugated",
    "alpha": "golden",
    "g": {"hamiltonian": "twist-a", "steps": 2, "support_radius": 0.85},
}


def _apply_thread_cap():
    cap = os.environ.get("DISKROT_THREADS")
    if not cap:
        return
    # must land before numpy initializes its thread pools
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


def build_parser():
    p = argparse.ArgumentParser(
        prog="diskrot",
        description="Numerical laboratory for area-preserving disk maps: "
        "winding numbers, actions, Calabi invariants, linking averages, "
        "and topological-angle diagnostics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="JSON map config file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--samples", type=int, help="sample count")
        sp.add_argument("--n", type=int, help="iterate count")
        sp.add_argument("--pairs", type=int, help="pair count")
        return sp

    sp = add("winding", "pairwise winding numbers")
    sp.add_argument("--pairs-file", help="CSV of pairs x1,y1,x2,y2")
    sp.add_argument(
        "--cross-check",
        action="store_true",
        help="recompute along a second isotopy of the same map",
    )
    add("action", "action values on sampled points")
    add("calabi", "Calabi invariant with error estimate")
    add("mean-action", "Birkhoff averages of the action along an orbit")
    add("linking", "double Birkhoff linking averages of a pair")
    add("righthand", "right-handedness certificate")
    sp = add("foliation-check", "topological-angle inequalities and identities")
    sp.add_argument("--nmax", type=int, default=32)
    sp = add("strip-measure", "invariant mass of a leaf strip")
    sp.add_argument("--alpha", default="golden")
    sp.add_argument("--beta", type=float, default=0.75)
    sp.add_argument("--conv", default="2/3", help="convergent a/b")
    sp = add("convergents", "continued-fraction convergents")
    sp.add_argument("--alpha", default="golden")
    sp.add_argument("--count", type=int, default=10)
    add("thm41-bound", "action/winding gap against the uniform bound")
    sp = add("verify-all", "run the full acceptance suite")
    sp.add_argument("--fast", action="store_true", help="reduced sample counts")
    return p


def _load_config(args):
    if getattr(args, "config", None):
        with open(args.config) as f:
            return json.load(f)
    return dict(DEFAULT_CONFIG)


def _resolve_alpha_arg(text):
    from .geometry import GOLDEN

    return GOLDEN if text == "golden" else float(text)


def _bundle(args, name, iso=None):
    from .report import ReportBundle

    cfg = iso.config() if iso is not None else None
    return ReportBundle(args.out, name, config=cfg, seed=args.seed)


def cmd_winding(args):
    import numpy as np

    from .geometry import uniform_disk
    from .maps import ConjugatedRotation, from_config
    from .report import write_csv
    from .winding import _pair_track, pair_windings

    cfg = _load_config(args)
    iso = from_config(cfg)
    if args.pairs_file:
        import csv as _csv

        with open(args.pairs_file, newline="") as f:
            rows = [[float(v) for v in row] for row in _csv.reader(f) if row]
        pairs = np.asarray(rows)
    else:
        rng = np.random.default_rng(args.seed)
        count = args.pairs or 100
        pairs = np.hstack([uniform_disk(rng, count, 0.95), uniform_disk(rng, count, 0.95)])

    alt = None
    if args.cross_check and isinstance(iso, ConjugatedRotation) and not iso.deform:
        alt = ConjugatedRotation(iso.alpha, iso.g, deform=True)

    # the refinements column is each pair's bisection depth
    w, depth = _pair_track(iso, pairs[:, :2], pairs[:, 2:])
    header = ["x1", "y1", "x2", "y2", "W", "refinements"]
    cols = [*pairs.T, w, depth.tolist()]
    if alt is not None:
        w_alt = pair_windings(alt, pairs[:, :2], pairs[:, 2:])
        max_dev = float(np.max(np.abs(w - w_alt)))
        header.append("W_alt_isotopy")
        cols.append(w_alt)
    out_rows = [list(row) for row in zip(*cols)]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "windings.csv")
    write_csv(path, header, out_rows)
    bundle = _bundle(args, "winding", iso)
    bundle.add(pairs=len(out_rows), csv=path)
    if alt is not None:
        bundle.add(cross_check_max_deviation=max_dev)
    bundle.write()
    print(f"wrote {path} ({len(out_rows)} pairs)")
    return 0


def cmd_action(args):
    import numpy as np

    from .action import ActionField
    from .geometry import uniform_disk
    from .maps import from_config

    iso = from_config(_load_config(args))
    field = ActionField(iso)
    rng = np.random.default_rng(args.seed)
    pts = uniform_disk(rng, args.samples or 100)
    a = field.action(pts)
    bundle = _bundle(args, "action", iso)
    bundle.add(mean=float(a.mean()), min=float(a.min()), max=float(a.max()))
    bundle.add_series(
        "values", ["x", "y", "a"], [list(p) + [v] for p, v in zip(pts, a)]
    )
    path = bundle.write()
    print(f"action: mean={a.mean():.6f} over {len(pts)} points -> {path}")
    return 0


def cmd_calabi(args):
    from .action import ActionField, calabi
    from .maps import from_config

    iso = from_config(_load_config(args))
    field = ActionField(iso)
    res = calabi(field, samples=args.samples or 1_000_000, seed=args.seed)
    bundle = _bundle(args, "calabi", iso)
    bundle.add(**res.to_dict(), boundary_rot=iso.boundary_rot)
    path = bundle.write()
    print(f"CAL = {res.value:.6f} +- {res.stderr:.2e} -> {path}")
    return 0


def cmd_mean_action(args):
    import numpy as np

    from .action import ActionField
    from .ergodic import mean_action
    from .geometry import uniform_disk
    from .maps import from_config

    iso = from_config(_load_config(args))
    field = ActionField(iso)
    rng = np.random.default_rng(args.seed)
    x = uniform_disk(rng, 1, 0.95)[0]
    rep = mean_action(field, x, args.n or 4096)
    bundle = _bundle(args, "mean-action", iso)
    bundle.add(x=list(x), verdict=rep.verdict[0], final=rep.final)
    bundle.add_convergence("partial_averages", rep)
    path = bundle.write()
    print(f"mean action -> {rep.final:.6f} (target {rep.target:.6f}) -> {path}")
    return 0


def cmd_linking(args):
    import numpy as np

    from .ergodic import linking_average
    from .geometry import uniform_disk
    from .maps import from_config

    iso = from_config(_load_config(args))
    rng = np.random.default_rng(args.seed)
    x, y = uniform_disk(rng, 2, 0.95)
    rep = linking_average(iso, x, y, args.n or 512)
    bundle = _bundle(args, "linking", iso)
    bundle.add(x=list(x), y=list(y), verdict=rep.verdict[0], final=rep.final)
    bundle.add_convergence("partial_averages", rep)
    path = bundle.write()
    print(f"linking S_n -> {rep.final:.6f} (target {rep.target:.6f}) -> {path}")
    return 0


def cmd_righthand(args):
    from .ergodic import right_handedness_certificate
    from .maps import from_config

    iso = from_config(_load_config(args))
    cert = right_handedness_certificate(
        iso, pair_samples=args.pairs or 100, n=args.n or 256, seed=args.seed
    )
    bundle = _bundle(args, "righthand", iso)
    bundle.add(**cert)
    path = bundle.write()
    print(
        f"{cert['mode']}-handed: min S = {cert['min_S']:.6f}, "
        f"tangent avg = {cert['tangent_average']:.6f} -> {path}"
    )
    return 0


def cmd_foliation_check(args):
    import numpy as np

    from .foliation import annulus_sums, big_lambda_sequence, displacement_table
    from .geometry import resample, uniform_disk
    from .maps import from_config
    from .winding import pair_windings_iterated

    iso = from_config(_load_config(args))
    rng = np.random.default_rng(args.seed)
    count = args.pairs or 100
    nmax = args.nmax
    Z = uniform_disk(rng, count, 0.9)
    Zp = uniform_disk(rng, count, 0.9)

    def too_close():
        return (np.hypot(*(Zp - Z).T) < 1e-3) | (np.hypot(*Z.T) < 0.05) | (
            np.hypot(*Zp.T) < 0.05
        )

    def redraw(bad):
        Z[bad] = uniform_disk(rng, int(bad.sum()), 0.9)
        Zp[bad] = uniform_disk(rng, int(bad.sum()), 0.9)

    resample(too_close, redraw, 32)

    # |lambda| - tau_bar, must stay <= 0
    tau_bar, _, lam = annulus_sums(iso, Z, Zp, n=1)
    ineq21_slack = max(0.0, float(np.max(np.abs(lam) - tau_bar)))

    _, m_tot = displacement_table(iso, Z, n=nmax)
    w0 = pair_windings_iterated(iso, np.zeros(2), Z, nmax)
    prop1_slack = float(np.max(np.abs(m_tot - w0)))

    _, L_tot = big_lambda_sequence(iso, Z[:20], Zp[:20], n=nmax)
    w = pair_windings_iterated(iso, Z[:20], Zp[:20], nmax)
    L_worst = max(0.0, float(np.max(np.abs(L_tot - w))))

    ok = ineq21_slack <= 0.0 and prop1_slack <= 1.0 + 1e-9 and L_worst <= 2.0 + 1e-9
    bundle = _bundle(args, "foliation-check", iso)
    bundle.add(
        pairs=count,
        nmax=nmax,
        lambda_le_tau_bar_violation=ineq21_slack,
        max_abs_m_minus_W0=prop1_slack,
        max_abs_Lambda_minus_W=L_worst,
        passed=ok,
    )
    path = bundle.write()
    print(
        f"foliation-check: |m-W0| <= {prop1_slack:.3f}, "
        f"|Lambda-W| <= {L_worst:.3f} -> {path}"
    )
    return 0 if ok else 1


def cmd_strip_measure(args):
    import warnings

    from .errors import NearRationalWarning
    from .farey import Convergent, strip_measure
    from .maps import PlaneExtension

    alpha = _resolve_alpha_arg(args.alpha)
    a_str, b_str = args.conv.split("/")
    conv = Convergent(int(a_str), int(b_str), alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        iso = PlaneExtension(alpha, args.beta)
    res = strip_measure(iso, conv, samples=args.samples or 1_000_000, seed=args.seed)
    bundle = _bundle(args, "strip-measure", iso)
    bundle.add(**res)
    path = bundle.write()
    print(
        f"strip mass = {res['value']:.6f} +- {res['stderr']:.2e} "
        f"(expected {res['expected']:.6f}) -> {path}"
    )
    return 0


def cmd_convergents(args):
    from .farey import convergents

    alpha = _resolve_alpha_arg(args.alpha)
    convs = convergents(alpha, args.count)
    bundle = _bundle(args, "convergents")
    bundle.add(
        alpha=alpha,
        convergents=[{"a": c.a, "b": c.b, "defect": c.defect} for c in convs],
    )
    path = bundle.write()
    for c in convs:
        print(f"{c.a}/{c.b}  defect={c.defect:+.3e}")
    print(f"-> {path}")
    return 0


def cmd_thm41_bound(args):
    import numpy as np

    from .action import ActionField, action_winding_gap
    from .geometry import uniform_disk
    from .maps import from_config

    iso = from_config(_load_config(args))
    field = ActionField(iso)
    rng = np.random.default_rng(args.seed)
    x = uniform_disk(rng, 1, 0.9)[0]
    res = action_winding_gap(
        field, iso, x, args.n or 4, mc_samples=args.samples or 100_000, seed=args.seed
    )
    bundle = _bundle(args, "thm41-bound", iso)
    bundle.add(x=list(x), **res)
    path = bundle.write()
    print(
        f"gap = {res['gap']:.4f} (bound {res['bound']:.4f}, "
        f"{'OK' if res['within_bound'] else 'VIOLATED'}) -> {path}"
    )
    return 0 if res["within_bound"] else 1


def cmd_verify_all(args):
    from .report import write_json
    from .verify import run_all

    def progress(res):
        status = "PASS" if res["passed"] else "FAIL"
        print(f"[{status}] criterion {res['criterion']:2d}: {res['name']}")

    results = run_all(seed=args.seed, fast=args.fast, progress=progress)
    passed = all(r["passed"] for r in results)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "verify-all.json")
    write_json(
        path,
        {
            "seed": args.seed,
            "fast": args.fast,
            "passed": passed,
            "criteria": results,
        },
    )
    print(f"{'all criteria passed' if passed else 'FAILURES present'} -> {path}")
    return 0 if passed else 1


_COMMANDS = {
    "winding": cmd_winding,
    "action": cmd_action,
    "calabi": cmd_calabi,
    "mean-action": cmd_mean_action,
    "linking": cmd_linking,
    "righthand": cmd_righthand,
    "foliation-check": cmd_foliation_check,
    "strip-measure": cmd_strip_measure,
    "convergents": cmd_convergents,
    "thm41-bound": cmd_thm41_bound,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    _apply_thread_cap()
    # argparse exits 2 on usage errors
    args = build_parser().parse_args(argv)

    from .errors import DiskrotError, SchemaError

    try:
        return _COMMANDS[args.command](args)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DiskrotError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
