"""Orbit averages: Birkhoff means of the action, double-orbit linking
averages, and right-handedness certificates.

Double sums are accumulated with correctly rounded summation (math.fsum),
so the incremental engine that adds the 2n-1 new pairs per increment
agrees bit for bit with a naive recomputation of the full square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailed, OrbitCollision, ResampleExhausted
from .geometry import as_xy, uniform_disk
from .winding import MERGE_EPS, pair_windings, winding_tangent

CAUCHY_POINTS = 3
DEFAULT_TOL = 0.01


def pow2_schedule(n_max):
    """Powers of two up to and including n_max (n_max appended if absent)."""
    out = []
    n = 1
    while n < n_max:
        out.append(n)
        n *= 2
    out.append(n_max)
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    """Partial-average sequence with a Cauchy-window verdict."""

    n_values: tuple
    partial_averages: tuple
    target: float | None = None
    label: str = ""

    def __post_init__(self):
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n_values must be strictly increasing")
        if len(self.n_values) != len(self.partial_averages):
            raise ValueError("length mismatch")

    @property
    def cauchy_window(self):
        tail = self.partial_averages[-CAUCHY_POINTS:]
        return max(tail) - min(tail)

    @property
    def verdict(self):
        if len(self.partial_averages) >= CAUCHY_POINTS and self.cauchy_window < DEFAULT_TOL:
            return ("converged", self.partial_averages[-1], DEFAULT_TOL)
        return ("undecided",)

    @property
    def final(self):
        return self.partial_averages[-1]

    def to_dict(self):
        v = self.verdict
        return {
            "label": self.label,
            "n_values": list(self.n_values),
            "partial_averages": list(self.partial_averages),
            "cauchy_window": self.cauchy_window,
            "target": self.target,
            "tol": DEFAULT_TOL,
            "verdict": {"status": v[0], "limit": v[1] if len(v) > 1 else None},
        }


def mean_action(field, x, n_max):
    """Partial Birkhoff averages (1/n) sum a(f^i x) of the action; N points
    (N, 2) give a list of N reports from one batched orbit."""
    schedule = pow2_schedule(n_max)
    x = as_xy(x)
    csum = np.cumsum(field.action(field.iso.orbit(x, n_max)), axis=0)
    reports = [
        ConvergenceReport(
            n_values=tuple(schedule),
            partial_averages=tuple(float(c[n - 1] / n) for n in schedule),
            target=field.iso.boundary_rot,
            label="mean-action",
        )
        for c in csum.reshape(n_max, -1).T
    ]
    return reports[0] if x.ndim == 1 else reports


def admissibility_check(X, Y):
    """min over (i,j) of |f^i(x) - f^j(y)|; OrbitCollision if <= MERGE_EPS."""
    dx = X[:, None, 0] - Y[None, :, 0]
    dy = X[:, None, 1] - Y[None, :, 1]
    d = np.hypot(dx, dy)
    if d.min() <= MERGE_EPS:
        i, j = np.unravel_index(np.argmin(d), d.shape)
        raise OrbitCollision(
            f"orbits pass within merge_eps at (i={i}, j={j})", int(i), int(j)
        )
    return float(d.min())


def double_sum_naive(W, n):
    """(1/n^2) * correctly rounded sum of the leading n x n block."""
    return math.fsum(W[:n, :n].ravel().tolist()) / (n * n)


def double_sum_incremental(W, schedule):
    """Prefix double averages over a schedule, adding only new border pairs.

    The growing entry list is re-reduced with correctly rounded summation,
    so each value is bit-identical to the naive block sum.
    """
    entries = []
    out = []
    done = 0
    for n in schedule:
        for k in range(done, n):
            # new row and column of the k-th border (2k+1 entries)
            entries.extend(W[k, : k + 1].tolist())
            entries.extend(W[:k, k].tolist())
        done = n
        out.append(math.fsum(entries) / (n * n))
    return out


def linking_average(iso, x, y, n):
    """Double Birkhoff averages S_n = (1/n^2) sum_ij W(f^i x, f^j y), the
    windings from the family's closed form where it has one."""
    schedule = pow2_schedule(n)
    x, y = as_xy(x), as_xy(y)
    X, Y = iso.orbit(x, n), iso.orbit(y, n)
    admissibility_check(X, Y)
    W = iso.orbit_windings_closed_form(x, y, n)
    if W is None:
        W = pair_windings(iso, X[:, None], Y[None, :])
    avgs = tuple(double_sum_incremental(W, schedule))
    return ConvergenceReport(
        n_values=tuple(schedule),
        partial_averages=avgs,
        target=iso.boundary_rot,
        label="linking",
    )


def linking_samples(iso, draw, count, n):
    """`linking_average` reports of count pairs (x, y) = draw(), skipping
    pairs whose orbits collide; ResampleExhausted after 8 * count draws."""
    reports = []
    for _ in range(8 * count):
        try:
            reports.append(linking_average(iso, *draw(), n))
        except OrbitCollision:
            continue
        if len(reports) == count:
            return reports
    raise ResampleExhausted(
        f"{count - len(reports)} linking pairs still collide after {8 * count} draws"
    )


def linearized_rotation_average(iso, n):
    """(1/n) sum of single-step tangent windings at the fixed origin, from
    the direction (1, 0).

    Directions advance by the unit-normalized Jacobian action, matching the
    tangent pairs (0, df^i xi) of the fixed-point condition.
    """
    d = np.array([1.0, 0.0])
    J1 = iso.jac(1.0, np.zeros(2))
    dirs = np.empty((n, 2))
    for i in range(n):
        dirs[i] = d
        d = J1 @ d
        d = d / np.hypot(d[0], d[1])
    vals = winding_tangent(iso, np.zeros(2), dirs).tolist()
    return math.fsum(vals) / n, vals


def right_handedness_certificate(iso, pair_samples=100, n=256, seed=0):
    """Positivity of sampled double averages plus the fixed-point condition.

    The mode is "right" when boundary_rot > 0 and "left" otherwise;
    left-handed mode certifies all values negative.
    """
    mode = "right" if iso.boundary_rot > 0 else "left"
    sign = 1.0 if mode == "right" else -1.0
    rng = np.random.default_rng(seed)
    draw = lambda: uniform_disk(rng, 2, radius=0.97)
    values = np.array([r.final for r in linking_samples(iso, draw, pair_samples, n)])
    if np.any(sign * values <= 0.0):
        bad = int(np.argmin(sign * values))
        raise CertificateFailed(
            f"S_n = {values[bad]:.6g} not {mode}-handed", sample=bad
        )
    tangent_avg, tangent_vals = linearized_rotation_average(iso, min(n, 64))
    if sign * tangent_avg <= 0.0:
        raise CertificateFailed(
            f"tangent average {tangent_avg:.6g}", sample="origin"
        )
    return {
        "mode": mode,
        "n": n,
        "pair_samples": pair_samples,
        "min_S": float(values.min()),
        "max_S": float(values.max()),
        "mean_S": float(values.mean()),
        "tangent_average": tangent_avg,
        "linearized_rotation": float(tangent_vals[0]),
        "seed": seed,
    }
