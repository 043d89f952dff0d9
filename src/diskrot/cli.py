"""Command-line interface.

Every command reads an optional JSON map config, runs one verification
or computation, and writes a report bundle (JSON, CSV series, SVG
charts) atomically under --out.  Exit codes: 0 success, 1 assertion or
computation failure, 2 usage or schema error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from .action import ActionField, action_winding_gap, calabi
from .ergodic import linking_average, mean_action, right_handedness_certificate
from .errors import DiskrotError, SchemaError
from .farey import Convergent, convergents, strip_measure
from .foliation import annulus_table, winding_gaps
from .geometry import GOLDEN, resample, uniform_disk
from .maps import ConjugatedRotation, PlaneExtension, from_config
from .report import ReportBundle, peak_rss_mb, run_metadata, write_csv, write_json
from .verify import run_all
from .winding import _pair_track, pair_windings

DEFAULT_CONFIG = {
    "family": "conjugated",
    "alpha": "golden",
    "g": {"hamiltonian": "twist-a", "steps": 2, "support_radius": 0.85},
}


def _count(least):
    """argparse type: an integer >= least (2 for a standard error's samples)."""

    def count(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"need an integer >= {least}, got {text}")
        return int(text)

    return count


def rotation_number(text):
    """argparse type: "golden" or a rotation number in (0, 1)."""
    alpha = GOLDEN if text == "golden" else float(text)
    if not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(f"need 'golden' or 0 < alpha < 1, got {text}")
    return alpha


def finite(text):
    """argparse type: a finite real number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text}")
    return value


def fraction(text):
    """argparse type: a/b in lowest terms with b >= 1, as (a, b)."""
    a, b = map(int, text.split("/"))
    if b < 1 or math.gcd(a, b) != 1:
        raise argparse.ArgumentTypeError(f"need a/b in lowest terms, got {text}")
    return a, b


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared after it.

    Sharing is sound because parse_args keeps no state between calls here:
    each call returns a fresh Namespace, no action has a mutable default,
    and the type= converters are pure.
    """
    p = argparse.ArgumentParser(
        prog="diskrot",
        description="Numerical laboratory for area-preserving disk maps: "
        "winding numbers, actions, Calabi invariants, linking averages, "
        "and topological-angle diagnostics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, config=True):
        fmt = argparse.ArgumentDefaultsHelpFormatter
        sp = sub.add_parser(name, help=help_, formatter_class=fmt)
        if config:
            sp.add_argument("--config", help="JSON map config file")
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.add_argument("--out", default=".", help="output directory")
        return sp

    sp = add("winding", "pairwise winding numbers")
    sp.add_argument("--pairs", type=_count(1), default=100, help="random pair count")
    sp.add_argument("--pairs-file", help="CSV of pairs x1,y1,x2,y2")
    sp.add_argument(
        "--cross-check",
        action="store_true",
        help="recompute along a second isotopy of the same map",
    )
    sp = add("action", "action values on sampled points")
    sp.add_argument("--samples", type=_count(1), default=100, help="sample count")
    sp = add("calabi", "Calabi invariant with error estimate")
    sp.add_argument("--samples", type=_count(1), default=1_000_000, help="sample count")
    sp = add("mean-action", "Birkhoff averages of the action along an orbit")
    sp.add_argument("--n", type=_count(1), default=4096, help="iterate count")
    sp = add("linking", "double Birkhoff linking averages of a pair")
    sp.add_argument("--n", type=_count(1), default=512, help="iterate count")
    sp = add("righthand", "right-handedness certificate")
    sp.add_argument("--pairs", type=_count(1), default=100, help="sampled pair count")
    sp.add_argument("--n", type=_count(1), default=256, help="iterate count")
    sp = add("foliation-check", "topological-angle inequalities and identities")
    sp.add_argument("--pairs", type=_count(1), default=100, help="sampled pair count")
    sp.add_argument("--nmax", type=_count(1), default=32, help="iterate count")
    sp = add("strip-measure", "invariant mass of a leaf strip", config=False)
    sp.add_argument("--samples", type=_count(2), default=1_000_000, help="sample count")
    sp.add_argument("--alpha", type=rotation_number, default="golden", help="in (0, 1)")
    sp.add_argument("--beta", type=finite, default=0.75, help="outer rotation number")
    sp.add_argument("--conv", type=fraction, default="2/3", help="convergent a/b")
    sp = add("convergents", "continued-fraction convergents", config=False)
    sp.add_argument("--alpha", type=rotation_number, default="golden", help="in (0, 1)")
    sp.add_argument("--count", type=_count(1), default=10, help="convergent count")
    sp = add("thm41-bound", "action/winding gap against the uniform bound")
    sp.add_argument("--n", type=_count(1), default=4, help="iterate count")
    sp.add_argument("--samples", type=_count(2), default=100_000, help="sample count")
    sp = add("verify-all", "run the full acceptance suite", config=False)
    sp.add_argument("--fast", action="store_true", help="reduced sample counts")
    return p


def _read_text(path):
    """The UTF-8 text of an input file; SchemaError naming the file when it
    cannot be read."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as e:
        raise SchemaError(path, f"cannot read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(path, f"not UTF-8 text at byte {e.start}") from None


def _iso(args):
    """The isotopy of --config, or of DEFAULT_CONFIG without one."""
    cfg = json.loads(_read_text(args.config)) if args.config else DEFAULT_CONFIG
    return from_config(cfg)


def _bundle(args, name, iso=None):
    cfg = iso.config() if iso is not None else None
    return ReportBundle(args.out, name, config=cfg, seed=args.seed)


def _read_pairs(path):
    """The (N, 4) rows x1,y1,x2,y2 of a pairs CSV; blank lines are skipped."""
    rows = []
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    for row in filter(None, reader):
        where = f"{path}:{reader.line_num}"
        if len(row) != 4:
            raise SchemaError(where, f"expected x1,y1,x2,y2, got {len(row)} fields")
        try:
            rows.append([float(v) for v in row])
        except ValueError as e:
            raise SchemaError(where, str(e)) from None
        if not all(map(math.isfinite, rows[-1])):
            raise SchemaError(where, f"non-finite coordinate in {row}")
    if not rows:
        raise SchemaError(path, "no pairs")
    return np.asarray(rows)


def cmd_winding(args):
    iso = _iso(args)
    if args.pairs_file:
        pairs = _read_pairs(args.pairs_file)
    else:
        rng = np.random.default_rng(args.seed)
        pairs = np.hstack([uniform_disk(rng, args.pairs, 0.95) for _ in range(2)])

    # W is the closed form, which has no time grid, except for the deformed
    # variant, whose windings are tracked; refinements is the bisection
    # depth behind each pair's W
    X, Y = pairs[:, :2], pairs[:, 2:]
    if iso.deform:
        w, depth = _pair_track(iso, X, Y)
    else:
        w, depth = pair_windings(iso, X, Y), np.zeros(len(pairs), dtype=int)
    header = ["x1", "y1", "x2", "y2", "W", "refinements"]
    cols = [*pairs.T, w, depth.tolist()]
    checked = {}
    if args.cross_check:
        # the second isotopy of the same map is the other variant
        alt = ConjugatedRotation(iso.alpha, iso.g, deform=not iso.deform, beta=iso.beta)
        w_alt = pair_windings(alt, X, Y)
        header.append("W_alt_isotopy")
        cols.append(w_alt)
        checked["cross_check_max_deviation"] = float(np.max(np.abs(w - w_alt)))
    out_rows = [list(row) for row in zip(*cols)]
    path = os.path.join(args.out, "windings.csv")
    write_csv(path, header, out_rows)
    bundle = _bundle(args, "winding", iso)
    bundle.add(pairs=len(out_rows), csv=path, **checked)
    bundle.write()
    print(f"wrote {path} ({len(out_rows)} pairs)")
    return 0


def cmd_action(args):
    iso = _iso(args)
    field = ActionField(iso)
    rng = np.random.default_rng(args.seed)
    pts = uniform_disk(rng, args.samples)
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
    iso = _iso(args)
    field = ActionField(iso)
    res = calabi(field, samples=args.samples, seed=args.seed)
    bundle = _bundle(args, "calabi", iso)
    bundle.add(**res.to_dict(), boundary_rot=iso.boundary_rot)
    path = bundle.write()
    print(f"CAL = {res.value:.6f} +- {res.stderr:.2e} -> {path}")
    return 0


def cmd_mean_action(args):
    iso = _iso(args)
    field = ActionField(iso)
    rng = np.random.default_rng(args.seed)
    x = uniform_disk(rng, 1, 0.95)[0]
    rep = mean_action(field, x, args.n)
    bundle = _bundle(args, "mean-action", iso)
    bundle.add(x=list(x), verdict=rep.verdict[0], final=rep.final)
    bundle.add_convergence("partial_averages", rep)
    path = bundle.write()
    print(f"mean action -> {rep.final:.6f} (target {rep.target:.6f}) -> {path}")
    return 0


def cmd_linking(args):
    iso = _iso(args)
    rng = np.random.default_rng(args.seed)
    x, y = uniform_disk(rng, 2, 0.95)
    rep = linking_average(iso, x, y, args.n)
    bundle = _bundle(args, "linking", iso)
    bundle.add(x=list(x), y=list(y), verdict=rep.verdict[0], final=rep.final)
    bundle.add_convergence("partial_averages", rep)
    path = bundle.write()
    print(f"linking S_n -> {rep.final:.6f} (target {rep.target:.6f}) -> {path}")
    return 0


def cmd_righthand(args):
    iso = _iso(args)
    cert = right_handedness_certificate(
        iso, pair_samples=args.pairs, n=args.n, seed=args.seed
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
    iso = _iso(args)
    rng = np.random.default_rng(args.seed)
    Z = uniform_disk(rng, args.pairs, 0.9)
    Zp = uniform_disk(rng, args.pairs, 0.9)

    def too_close():
        return (np.hypot(*(Zp - Z).T) < 1e-3) | (np.hypot(*Z.T) < 0.05) | (
            np.hypot(*Zp.T) < 0.05
        )

    def redraw(bad):
        Z[bad] = uniform_disk(rng, int(bad.sum()), 0.9)
        Zp[bad] = uniform_disk(rng, int(bad.sum()), 0.9)

    resample(too_close, redraw, 32)

    # |lambda| - tau_bar, must stay <= 0
    t = annulus_table(iso, Z, Zp, n=1)
    ineq21_slack = max(0.0, float(np.max(np.abs(t["lambda_sum"]) - t["tau_bar"])))

    d_m, d_L = winding_gaps(iso, Z, Zp, [args.nmax])
    prop1_slack, L_worst = float(d_m.max()), float(d_L.max())

    ok = ineq21_slack <= 0.0 and prop1_slack <= 1.0 + 1e-9 and L_worst <= 2.0 + 1e-9
    bundle = _bundle(args, "foliation-check", iso)
    bundle.add(
        pairs=args.pairs,
        nmax=args.nmax,
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
    conv = Convergent(*args.conv, args.alpha)
    iso = PlaneExtension(args.alpha, args.beta)
    res = strip_measure(iso, conv, samples=args.samples, seed=args.seed)
    bundle = _bundle(args, "strip-measure", iso)
    bundle.add(**res)
    path = bundle.write()
    print(
        f"strip mass = {res['value']:.6f} +- {res['stderr']:.2e} "
        f"(expected {res['expected']:.6f}) -> {path}"
    )
    return 0


def cmd_convergents(args):
    convs = convergents(args.alpha, args.count)
    bundle = _bundle(args, "convergents")
    bundle.add(
        alpha=args.alpha,
        convergents=[{"a": c.a, "b": c.b, "defect": c.defect} for c in convs],
    )
    path = bundle.write()
    for c in convs:
        print(f"{c.a}/{c.b}  defect={c.defect:+.3e}")
    print(f"-> {path}")
    return 0


def cmd_thm41_bound(args):
    iso = _iso(args)
    field = ActionField(iso)
    rng = np.random.default_rng(args.seed)
    x = uniform_disk(rng, 1, 0.9)[0]
    res = action_winding_gap(field, x, [args.n], args.samples, rng)[0]
    bundle = _bundle(args, "thm41-bound", iso)
    bundle.add(x=list(x), **res)
    path = bundle.write()
    print(
        f"gap = {res['gap']:.4f} (bound {res['bound']:.4f}, "
        f"{'OK' if res['within_bound'] else 'VIOLATED'}) -> {path}"
    )
    return 0 if res["within_bound"] else 1


def cmd_verify_all(args):
    # each criterion's seconds and the process's peak after it, for run.json
    marks, runs = [time.perf_counter()], []

    def progress(res):
        marks.append(time.perf_counter())
        runs.append(
            {"criterion": res["criterion"], "seconds": marks[-1] - marks[-2],
             "peak_rss_mb": peak_rss_mb()}
        )
        status = "PASS" if res["passed"] else "FAIL"
        print(f"[{status}] criterion {res['criterion']:2d}: {res['name']}")

    results = run_all(seed=args.seed, fast=args.fast, progress=progress)
    passed = all(r["passed"] for r in results)
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
    # the run's telemetry goes to a sidecar, so verify-all.json stays comparable
    write_json(
        os.path.join(args.out, "run.json"),
        {
            **run_metadata(),
            "argv": args.argv,
            "seed": args.seed,
            "fast": args.fast,
            "seconds": time.perf_counter() - marks[0],
            "peak_rss_mb": peak_rss_mb(),
            "criteria": runs,
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
    # argparse exits 2 on usage errors
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DiskrotError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
