"""Orbit averages: Birkhoff means of the action, double-orbit linking
averages, right-handedness certificates, and weak* convergence diagnostics.

Double sums are accumulated with correctly rounded summation (math.fsum),
so the incremental engine that adds the 2n-1 new pairs per increment
agrees bit for bit with a naive recomputation of the full square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailed, OrbitCollision
from .geometry import TWOPI, angles_of, as_xy, radii_of, uniform_disk
from .winding import MERGE_EPS, winding_matrix, winding_tangent

CAUCHY_POINTS = 3
DEFAULT_TOL = 0.01


def pow2_schedule(n_max, start=1):
    """Powers of two up to and including n_max (n_max appended if absent)."""
    out = []
    n = start
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
    tol: float = DEFAULT_TOL
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
        if len(self.partial_averages) >= CAUCHY_POINTS and self.cauchy_window < self.tol:
            return ("converged", self.partial_averages[-1], self.tol)
        return ("undecided",)

    @property
    def final(self):
        return self.partial_averages[-1]

    def defect(self):
        if self.target is None:
            return None
        return abs(self.final - self.target)

    def to_dict(self):
        v = self.verdict
        return {
            "label": self.label,
            "n_values": list(self.n_values),
            "partial_averages": list(self.partial_averages),
            "cauchy_window": self.cauchy_window,
            "target": self.target,
            "tol": self.tol,
            "verdict": {"status": v[0], "limit": v[1] if len(v) > 1 else None},
        }


@dataclass(frozen=True)
class OrbitCache:
    """Forward orbit z, f(z), ..., f^(n-1)(z) with a spot-check invariant."""

    base: np.ndarray
    points: np.ndarray
    map_tag: str

    @classmethod
    def build(cls, iso, x, n):
        x = as_xy(x)
        return cls(base=x, points=iso.orbit(x, n), map_tag=iso.family_tag)

    def recheck(self, iso, rng=None, fraction=0.01):
        """Re-evaluate f on a random 1% of indices; returns max defect."""
        rng = rng or np.random.default_rng(0)
        n = len(self.points)
        k = max(1, int(fraction * (n - 1)))
        idx = rng.choice(n - 1, size=min(k, n - 1), replace=False)
        fresh = iso.map(self.points[idx])
        return float(np.max(np.abs(fresh - self.points[idx + 1]))) if len(idx) else 0.0


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Atomic probability measure (1/n) sum of deltas at orbit points."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")

    @classmethod
    def from_orbit(cls, iso, x, n):
        pts = iso.orbit(as_xy(x), n)
        return cls(atoms=pts, weights=np.full(n, 1.0 / n))

    def integrate(self, phi):
        return float(np.dot(self.weights, phi(self.atoms)))


def mean_action(field, x, n_max, schedule=None, tol=DEFAULT_TOL):
    """Partial Birkhoff averages (1/n) sum a(f^i x) of the action; N points
    (N, 2) give a list of N reports from one batched orbit."""
    schedule = schedule or pow2_schedule(n_max)
    x = as_xy(x)
    csum = np.cumsum(field.action(field.iso.orbit(x, n_max)), axis=0)
    reports = [
        ConvergenceReport(
            n_values=tuple(schedule),
            partial_averages=tuple(float(c[n - 1] / n) for n in schedule),
            target=field.iso.boundary_rot,
            tol=tol,
            label="mean-action",
        )
        for c in csum.reshape(n_max, -1).T
    ]
    return reports[0] if x.ndim == 1 else reports


def admissibility_check(X, Y, merge_eps=MERGE_EPS):
    """min over (i,j) of |f^i(x) - f^j(y)|; raises OrbitCollision if <= eps."""
    dx = X[:, None, 0] - Y[None, :, 0]
    dy = X[:, None, 1] - Y[None, :, 1]
    d = np.hypot(dx, dy)
    if d.min() <= merge_eps:
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


def linking_average(
    iso, x, y, n, schedule=None, merge_eps=MERGE_EPS, tol=DEFAULT_TOL
):
    """Double Birkhoff averages S_n = (1/n^2) sum_ij W(f^i x, f^j y)."""
    schedule = schedule or pow2_schedule(n)
    X = iso.orbit(as_xy(x), n)
    Y = iso.orbit(as_xy(y), n)
    admissibility_check(X, Y, merge_eps)
    W = winding_matrix(iso, X, Y, merge_eps=merge_eps)
    avgs = tuple(double_sum_incremental(W, schedule))
    return ConvergenceReport(
        n_values=tuple(schedule),
        partial_averages=avgs,
        target=iso.boundary_rot,
        tol=tol,
        label="linking",
    )


def linearized_rotation_average(iso, n, direction=(1.0, 0.0)):
    """(1/n) sum of single-step tangent windings at the fixed origin.

    Directions advance by the unit-normalized Jacobian action, matching the
    tangent pairs (0, df^i xi) of the fixed-point condition.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.hypot(d[0], d[1])
    J1 = iso.jac(1.0, np.zeros(2))
    dirs = np.empty((n, 2))
    for i in range(n):
        dirs[i] = d
        d = J1 @ d
        d = d / np.hypot(d[0], d[1])
    vals = winding_tangent(iso, np.zeros(2), dirs).tolist()
    return math.fsum(vals) / n, vals


def right_handedness_certificate(
    iso, pair_samples=100, n=256, seed=0, merge_eps=MERGE_EPS, mode=None
):
    """Positivity of sampled double averages plus the fixed-point condition.

    mode defaults to "right" when boundary_rot > 0 and "left" otherwise;
    left-handed mode certifies all values negative.
    """
    if mode is None:
        mode = "right" if iso.boundary_rot > 0 else "left"
    sign = 1.0 if mode == "right" else -1.0
    rng = np.random.default_rng(seed)
    values = []
    tried = 0
    while len(values) < pair_samples and tried < 8 * pair_samples:
        tried += 1
        x, y = uniform_disk(rng, 2, radius=0.97)
        X = iso.orbit(x, n)
        Y = iso.orbit(y, n)
        try:
            admissibility_check(X, Y, merge_eps)
        except OrbitCollision:
            continue
        W = winding_matrix(iso, X, Y, merge_eps=merge_eps)
        values.append(double_sum_naive(W, n))
    if len(values) < pair_samples:
        raise CertificateFailed("could not sample enough admissible pairs")
    values = np.asarray(values)
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


def trig_moment_dictionary(max_p=2, max_q=2):
    """Test functions r^p cos(q theta), r^p sin(q theta), sup bounded by 1."""
    phis = {}
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if p == 0 and q > 0:
                continue

            def cosphi(pts, p=p, q=q):
                return radii_of(pts) ** p * np.cos(q * angles_of(pts))

            phis[f"r^{p}cos{q}t"] = cosphi
            if q > 0:

                def sinphi(pts, p=p, q=q):
                    return radii_of(pts) ** p * np.sin(q * angles_of(pts))

                phis[f"r^{p}sin{q}t"] = sinphi
    return phis

def empirical_weak_convergence(iso, x, n_values, phis=None):
    """Moment sequences of empirical measures with invariance defects.

    The defect |int phi o f dmu_n - int phi dmu_n| telescopes to the
    one-point difference (phi(f^n x) - phi(x)) / n, so it obeys the bound
    (2/n) sup|phi| exactly.
    """
    phis = phis or trig_moment_dictionary()
    n_max = max(n_values)
    orbit = iso.orbit(as_xy(x), n_max + 1)
    out = {}
    for name, phi in phis.items():
        vals = phi(orbit)
        sup = float(np.max(np.abs(vals)))
        moments, defects, bounds = [], [], []
        for n in n_values:
            moments.append(math.fsum(vals[:n].tolist()) / n)
            d = abs(math.fsum(vals[1 : n + 1].tolist()) - math.fsum(vals[:n].tolist())) / n
            defects.append(d)
            bounds.append(2.0 * sup / n)
        out[name] = {
            "n_values": list(n_values),
            "moments": moments,
            "invariance_defects": defects,
            "bounds": bounds,
            "within_bound": all(d <= b + 1e-12 for d, b in zip(defects, bounds)),
        }
    return out
