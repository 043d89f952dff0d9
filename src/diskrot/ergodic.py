"""Orbit averages: Birkhoff means of the action, double-orbit linking
averages, and right-handedness certificates.

Linking averages divide the family's border sums, `linking_closed_form`,
one call per sample set.  Where there are none, the tracked windings' double
sums come from the incremental engine, which adds the 2n-1 new pairs of each
increment with correctly rounded summation (math.fsum), so it agrees bit for
bit with a naive recomputation of the full square.
"""
from __future__ import annotations

import contextlib
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
    """min over (i,j) of |f^i(x) - f^j(y)|, OrbitCollision at its first
    (i, j) in row-major order if <= MERGE_EPS; X's rows go in blocks of
    some 1 << 16 distances."""
    rows, best = max(1, (1 << 16) // max(len(Y), 1)), (math.inf, 0, 0)
    for lo in range(0, len(X), rows):
        d = np.hypot(*(X[lo : lo + rows, None, c] - Y[None, :, c] for c in (0, 1)))
        i, j = np.unravel_index(np.argmin(d), d.shape)
        best = min(best, (d[i, j], lo + i, j))
    if best[0] <= MERGE_EPS:
        raise OrbitCollision(f"orbits pass within merge_eps at (i={best[1]}, j={best[2]})", *map(int, best[1:]))
    return float(best[0])


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
    """Double Birkhoff averages S_n = (1/n^2) sum_ij W(f^i x, f^j y)."""
    O = iso.orbit(np.array([as_xy(x), as_xy(y)]), n)
    admissibility_check(O[:, 0], O[:, 1])
    return _linking_reports(iso, [O], n)[0]


def _linking_reports(iso, orbits, n):
    """Reports of the pairs whose orbits (n, 2, 2) are given: one call of the
    family's border sums, else the tracked windings' double sums."""
    schedule = pow2_schedule(n)
    P = np.array([O[0] for O in orbits])
    sums = iso.linking_closed_form(P[:, 0], P[:, 1], schedule)
    avgs = (sums / np.square(schedule)[:, None]).T.tolist() if sums is not None else [
        double_sum_incremental(pair_windings(iso, O[:, None, 0], O[None, :, 1]), schedule) for O in orbits
    ]
    return [ConvergenceReport(tuple(schedule), tuple(a), iso.boundary_rot, "linking") for a in avgs]


def linking_samples(iso, draw, count, n):
    """`linking_average` reports of count pairs (x, y) = draw(), skipping
    pairs whose orbits collide; ResampleExhausted after 8 * count draws.
    Each round draws the pairs still missing and walks their orbits at once."""
    orbits, drawn = [], 0
    while len(orbits) < count and drawn < 8 * count:
        batch = np.array([draw() for _ in range(min(count - len(orbits), 8 * count - drawn))])
        drawn, O = drawn + len(batch), iso.orbit(batch, n)
        for k in range(len(batch)):
            with contextlib.suppress(OrbitCollision):
                admissibility_check(O[:, k, 0], O[:, k, 1])
                orbits.append(O[:, k])
    if len(orbits) < count:
        raise ResampleExhausted(f"{count - len(orbits)} linking pairs still collide after {8 * count} draws")
    return _linking_reports(iso, orbits, n)


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
