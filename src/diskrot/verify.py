"""The acceptance verification suite.

One function per criterion; each returns a dict with a boolean "passed"
and the measured quantities.  The CLI command `diskrot verify-all` and
the acceptance tests share these implementations.  `fast=True` shrinks
sample counts for smoke runs; stated tolerances always refer to the
full-scale defaults.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .action import ActionField, calabi, off_orbit_samples
from .ergodic import (
    double_sum_incremental,
    double_sum_naive,
    linking_average,
    mean_action,
    right_handedness_certificate,
)
from .errors import NearRationalWarning, OrbitCollision
from .farey import (
    convergents,
    invariant_circle,
    lebesgue_disk,
    product_integral_winding,
    rotation_of_measure,
    strip_measure,
)
from .foliation import annulus_table, lambda_int, lambda_prefixes, leaf_lifts
from .geometry import GOLDEN, TWOPI, resample, uniform_disk
from .maps import (
    ConjugacyMap,
    ConjugatedRotation,
    IteratedIsotopy,
    PlaneExtension,
    RigidRotation,
)
from .winding import OrbitTrack, pair_windings, winding_matrix, winding_tangent

_HAMILTONIANS = ("twist-a", "twist-b", "twist-c")


def conjugated_rotation(name="twist-a", alpha=GOLDEN, steps=2):
    return ConjugatedRotation(alpha, ConjugacyMap.from_named(name, repeats=steps))


def _admissible_pairs(rng, count, radius=0.95, min_sep=1e-3):
    X = uniform_disk(rng, count, radius)
    Y = uniform_disk(rng, count, radius)

    def redraw(bad):
        Y[bad] = uniform_disk(rng, int(bad.sum()), radius)

    resample(lambda: np.hypot(*(Y - X).T) < min_sep, redraw, 64)
    return X, Y


def criterion_1(seed=0, fast=False):
    """Rigid-rotation exactness of winding, action, Calabi, and linking."""
    alpha = GOLDEN
    iso = RigidRotation(alpha)
    rng = np.random.default_rng(seed)
    npairs = 100 if fast else 1000
    X, Y = _admissible_pairs(rng, npairs)
    w_err = float(np.max(np.abs(pair_windings(iso, X, Y) - alpha)))

    field = ActionField(iso, method="path")
    pts = uniform_disk(rng, 100)
    a_err = float(np.max(np.abs(field.action(pts) - alpha)))

    cal = calabi(field, samples=10_000 if fast else 100_000, seed=seed)
    cal_err = abs(cal.value - alpha)

    rep = linking_average(iso, (0.5, 0.0), (-0.3, 0.45), 64)
    s_err = max(abs(v - alpha) for v in rep.partial_averages)

    passed = w_err < 1e-12 and a_err < 1e-8 and cal_err < 1e-6 and s_err < 1e-12
    return {
        "criterion": 1,
        "name": "rigid-rotation exactness",
        "passed": passed,
        "details": {
            "winding_max_err": w_err,
            "action_max_err": a_err,
            "calabi_err": cal_err,
            "linking_max_err": s_err,
        },
    }


def criterion_2(seed=0, fast=False):
    """Calabi invariant equals the rotation number for conjugated maps."""
    alpha = GOLDEN
    samples = 20_000 if fast else 1_000_000
    per_map = []
    ok = True
    for i, name in enumerate(_HAMILTONIANS):
        field = ActionField(conjugated_rotation(name, alpha))
        res = calabi(field, samples=samples, seed=seed + i)
        err = abs(res.value - alpha)
        good = err < 3.0 * res.stderr
        ok = ok and good
        per_map.append(
            {"map": name, "value": res.value, "stderr": res.stderr, "err": err,
             "within_3_stderr": good}
        )
    return {
        "criterion": 2,
        "name": "Calabi = rotation number",
        "passed": ok,
        "details": {"alpha": alpha, "samples": samples, "maps": per_map},
    }


def criterion_3(seed=0, fast=False):
    """Birkhoff means of the action converge to the rotation number."""
    alpha = GOLDEN
    field = ActionField(conjugated_rotation("twist-a", alpha))
    rng = np.random.default_rng(seed)
    count = 5 if fast else 25
    n_max = 512 if fast else 4096
    xs = uniform_disk(rng, count, 0.95)
    max_defect = 0.0
    monotone = True
    for rep in mean_action(field, xs, n_max):
        max_defect = max(max_defect, abs(rep.final - alpha))
        avgs = rep.partial_averages
        # Cauchy window at n: diameter of the tail of partial averages
        # from n to n_max along the schedule
        windows = [
            max(avgs[k:]) - min(avgs[k:])
            for k, n_ in enumerate(rep.n_values)
            if 8 * n_ >= n_max
        ]
        monotone = monotone and all(
            windows[i + 1] <= windows[i] for i in range(len(windows) - 1)
        )
    passed = max_defect < 0.02 and monotone
    return {
        "criterion": 3,
        "name": "mean action converges to rotation number",
        "passed": passed,
        "details": {
            "max_defect": max_defect,
            "tolerance": 0.02,
            "n_max": n_max,
            "points": count,
            "cauchy_monotone": monotone,
        },
    }


def criterion_4(seed=0, fast=False):
    """Linking averages converge; incremental engine is exact."""
    alpha = GOLDEN
    iso = conjugated_rotation("twist-a", alpha)
    rng = np.random.default_rng(seed)
    count = 5 if fast else 25
    n = 128 if fast else 512
    max_defect = 0.0
    done = 0
    while done < count:
        X, Y = _admissible_pairs(rng, 1)
        try:
            rep = linking_average(iso, X[0], Y[0], n)
        except OrbitCollision:
            continue
        max_defect = max(max_defect, abs(rep.final - alpha))
        done += 1

    X, Y = _admissible_pairs(rng, 1)
    W = winding_matrix(iso, iso.orbit(X[0], 64), iso.orbit(Y[0], 64))
    ns = list(range(1, 65))
    inc = double_sum_incremental(W, ns)
    exact = all(inc[i] == double_sum_naive(W, n_) for i, n_ in enumerate(ns))

    passed = max_defect < 0.05 and exact
    return {
        "criterion": 4,
        "name": "linking averages + incremental engine",
        "passed": passed,
        "details": {
            "max_defect": max_defect,
            "tolerance": 0.05,
            "n": n,
            "pairs": count,
            "incremental_exact": exact,
        },
    }


def criterion_5(seed=0, fast=False):
    """Right-handedness certificate and linearized rotation number at 0."""
    alpha = GOLDEN
    iso = conjugated_rotation("twist-a", alpha)
    cert = right_handedness_certificate(
        iso,
        pair_samples=10 if fast else 100,
        n=64 if fast else 256,
        seed=seed,
    )
    lin = winding_tangent(iso, np.zeros(2), np.array([1.0, 0.0]))
    lin_err = abs(lin - alpha)
    passed = cert["min_S"] > 0.0 and lin_err < 1e-6
    return {
        "criterion": 5,
        "name": "right-handedness + linearized rotation",
        "passed": passed,
        "details": {
            "min_S": cert["min_S"],
            "linearized": lin,
            "linearized_err": lin_err,
            "certificate": cert,
        },
    }


def criterion_6(seed=0, fast=False):
    """Displacement and Lambda stay within 1 and 2 of the windings."""
    iso = conjugated_rotation("twist-a")
    rng = np.random.default_rng(seed)
    N = 100 if fast else 1000
    ns = (1, 2, 4, 8, 16, 32)
    n_max = ns[-1]
    Z = uniform_disk(rng, N, 0.92)
    Zp = uniform_disk(rng, N, 0.92)
    r = np.hypot(Z[:, 0], Z[:, 1])
    Z[r < 0.05] *= 5.0  # keep sample points off the fixed origin

    def redraw(bad):
        Zp[bad] = uniform_disk(rng, int(bad.sum()), 0.92)

    resample(
        lambda: (np.hypot(*(Zp - Z).T) < 1e-3) | (np.hypot(Zp[:, 0], Zp[:, 1]) < 0.05),
        redraw,
        32,
    )

    # one track of Z and Z': displacement prefixes and W(0, z) from Z's lifted
    # angles, pairwise windings per iterate from the grids, the lambda tables
    track = OrbitTrack(iso, np.concatenate([Z, Zp]), n_max)
    v = leaf_lifts(track)[:, :N]
    floors = np.floor(v / TWOPI).astype(int)
    w0 = (v - v[0]) / TWOPI
    wp = np.vstack([np.zeros(N), np.cumsum(track.pair_windings(), axis=0)])
    lam = lambda_prefixes(track, ns, k_max=10)

    gap_m = 0.0
    gap_L = 0.0
    violations = 0
    for i, n_ in enumerate(ns):
        m_n = floors[n_] - floors[0]
        d1 = np.abs(m_n - (w0[n_] - 0.0))
        d2 = np.abs(lam[i] + m_n - wp[n_])
        gap_m = max(gap_m, float(d1.max()))
        gap_L = max(gap_L, float(d2.max()))
        violations += int(np.sum(d1 > 1.0 + 1e-9)) + int(np.sum(d2 > 2.0 + 1e-9))
    passed = violations == 0
    return {
        "criterion": 6,
        "name": "displacement/Lambda winding bounds",
        "passed": passed,
        "details": {
            "pairs": N,
            "n_values": list(ns),
            "max_|m-W0|": gap_m,
            "max_|Lambda-W|": gap_L,
            "violations": violations,
        },
    }


def criterion_7(seed=0, fast=False):
    """Action minus winding integral stays within the uniform bound 8.

    For each sampled x one Monte-Carlo batch is tracked through all
    iterates, so the integrals at every requested n come from prefixes of
    the same winding accumulation.
    """
    iso = conjugated_rotation("twist-a")
    field = ActionField(iso)
    rng = np.random.default_rng(seed)
    count = 2 if fast else 10
    mc = 2000 if fast else 100_000
    ns = (1, 4) if fast else (1, 4, 16)
    n_max = ns[-1]
    xs = uniform_disk(rng, count, 0.9)
    worst = 0.0
    violations = 0
    rows = []
    for x in xs:
        ys = off_orbit_samples(rng, iso.orbit(x, n_max + 1), mc)
        X, Y = x, ys
        totals = np.zeros(mc)
        for k in range(n_max):
            totals += pair_windings(iso, X, Y, init_steps=32)
            X = iso.map(X)
            Y = iso.map(Y)
            n = k + 1
            if n not in ns:
                continue
            a_n = float(
                ActionField(
                    IteratedIsotopy(iso, n), beta=field.beta, path_tol=field.path_tol
                ).action(x)
            )
            integral = float(totals.mean())
            stderr = float(totals.std(ddof=1) / math.sqrt(mc))
            gap = abs(a_n - integral)
            bound = 8.0 + 3.0 * n * stderr
            worst = max(worst, gap)
            if gap > bound:
                violations += 1
            rows.append({"n": n, "gap": gap, "bound": bound})
    return {
        "criterion": 7,
        "name": "action/winding gap bound",
        "passed": violations == 0,
        "details": {
            "max_gap": worst,
            "violations": violations,
            "mc_samples": mc,
            "cases": rows,
        },
    }


def criterion_8(seed=0, fast=False):
    """Strip measure of the plane extension equals the convergent defect."""
    alpha = GOLDEN
    beta = 0.75
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        iso = PlaneExtension(alpha, beta)
    samples = 50_000 if fast else 1_000_000
    per_conv = []
    ok = True
    tested = 0
    for conv in convergents(alpha, 5):
        if (conv.a, conv.b) not in ((1, 2), (2, 3), (3, 5)):
            continue
        if not alpha < conv.value < beta:
            per_conv.append({"a": conv.a, "b": conv.b, "skipped": True})
            continue
        res = strip_measure(iso, conv, samples=samples, seed=seed)
        good = abs(res["value"] - res["expected"]) <= 3.0 * res["stderr"]
        ok = ok and good
        tested += 1
        per_conv.append(
            {"a": conv.a, "b": conv.b, "value": res["value"],
             "expected": res["expected"], "stderr": res["stderr"],
             "within_3_stderr": good}
        )
    return {
        "criterion": 8,
        "name": "strip measure = a - b*alpha",
        "passed": ok and tested > 0,
        "details": {"samples": samples, "convergents": per_conv},
    }


def criterion_9(seed=0, fast=False):
    """Lambda-calculus cocycle and exact Birkhoff identities."""
    span = range(-20, 21)
    cocycle_ok = True
    for k in span:
        lk = {l: lambda_int(k, l) for l in span}
        for l in span:
            if lambda_int(l, k) != -lk[l]:
                cocycle_ok = False
            for m in (-20, -7, 0, 3, 20):
                if lk[l] + lambda_int(l, m) != lambda_int(k, m):
                    cocycle_ok = False

    iso = conjugated_rotation("twist-b")
    rng = np.random.default_rng(seed)
    pairs = 3 if fast else 10
    n = 8 if fast else 32
    drawn = [_admissible_pairs(rng, 1, radius=0.9) for _ in range(pairs)]
    t = annulus_table(iso, *(np.concatenate(c) for c in zip(*drawn)), n=n)
    lam_seq, lam_total = t["lambda_seq"], t["lambda_sum"]
    # the combined sequence is what big_lambda_sequence returns
    L_seq, L_total = lam_seq + t["m_seq"], lam_total + t["m_total"]
    exact = np.array_equal(t["m_seq"].sum(axis=0), t["m_total"]) and all(
        math.fsum(seq) == total
        for seq, total in zip([*lam_seq.T, *L_seq.T], [*lam_total, *L_total])
    )
    passed = cocycle_ok and exact
    return {
        "criterion": 9,
        "name": "lambda cocycle + Birkhoff identities",
        "passed": passed,
        "details": {"cocycle_ok": cocycle_ok, "birkhoff_exact": exact, "n": n},
    }


def criterion_10(seed=0, fast=False):
    """Rotation numbers of invariant measures and the product integral."""
    alpha = GOLDEN
    g = ConjugacyMap.from_named("twist-a")
    iso = ConjugatedRotation(alpha, g)
    samples = 5000 if fast else 100_000

    rot = rotation_of_measure(iso, samples=samples, seed=seed)
    ok_w = abs(rot["winding_value"] - alpha) <= 3.0 * rot["winding_stderr"]
    ok_m = (
        abs(rot["displacement_value"] - alpha) <= 3.0 * rot["displacement_stderr"]
    )
    ok_agree = abs(rot["difference"]) <= 3.0 * rot["combined_stderr"]

    prods = []
    ok_prod = True
    for tag, s1, s2 in (
        ("lebesgue x lebesgue", lebesgue_disk(), lebesgue_disk()),
        ("circle x lebesgue", invariant_circle(g, 0.5), lebesgue_disk()),
    ):
        res = product_integral_winding(iso, s1, s2, samples=samples, seed=seed + 7)
        good = abs(res["value"] - alpha) <= 3.0 * res["stderr"]
        ok_prod = ok_prod and good
        prods.append({"measures": tag, **res, "within_3_stderr": good})

    passed = ok_w and ok_m and ok_agree and ok_prod
    return {
        "criterion": 10,
        "name": "measure rotation numbers + product integral",
        "passed": passed,
        "details": {
            "rotation_of_lebesgue": rot,
            "products": prods,
            "winding_ok": ok_w,
            "displacement_ok": ok_m,
            "routes_agree": ok_agree,
        },
    }


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(seed=0, fast=False, progress=None):
    results = []
    for fn in ALL_CRITERIA:
        res = fn(seed=seed, fast=fast)
        results.append(res)
        if progress is not None:
            progress(res)
    return results
