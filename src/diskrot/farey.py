"""Continued-fraction convergents, invariant circles of the plane
extension, and the strip-measure identity.

The strip between the lifted ray at angle 0 and its backward image under
f^b composed with the inverse deck shift T^(-a) carries, per fundamental
domain, an invariant mass of a - b*alpha.  The mass is estimated by the
crossing multiplicity of sampled points: minus the displacement integer
of the shifted lift under a radial plane extension, which must be
nonpositive when the foliation by rays is Brouwer for this power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FoliationNotTransverse, RationalInput
from .foliation import displacements
from .geometry import TWOPI, resample, uniform_disk
from .winding import pair_windings

_CHUNK = 1 << 15


@dataclass(frozen=True)
class Convergent:
    """A continued-fraction approximation a/b of alpha."""

    a: int
    b: int
    alpha: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("convergent must be in lowest terms")

    @property
    def defect(self):
        return self.a - self.b * self.alpha

    @property
    def value(self):
        return self.a / self.b


def convergents(alpha, count):
    """Continued-fraction convergents of alpha in (0, 1).

    Defects a - b*alpha alternate in sign and shrink in magnitude; the
    expansion terminating early means alpha is (numerically) rational.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    out = []
    # standard recurrences p_k = c_k p_{k-1} + p_{k-2}
    p_prev, q_prev = 1, 0
    p, q = 0, 1
    x = alpha
    for _ in range(count):
        frac = x - math.floor(x)
        if frac < 1e-12:
            raise RationalInput(
                f"expansion of {alpha} terminates before {count} convergents"
            )
        x = 1.0 / frac
        c = int(math.floor(x))
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
        conv = Convergent(p, q, alpha)
        if abs(conv.defect) >= 1.0 / q:
            raise RationalInput(f"convergent {p}/{q} fails the defect bound")
        out.append(conv)
    return out


def crossing_counts(iso, conv, pts):
    """Deck-copy crossing multiplicities of the strip O; nonnegative when
    the foliation by rays is Brouwer for f^b.

    A cover point lies in O when it lies strictly left of a lifted leaf
    while its image under f^b o T^(-a) lies weakly to the right.  A disk
    point's multiplicity is minus the displacement m of f^b o T^(-a),
    which is m of f^b minus a; m comes from `foliation.displacements`.
    """
    m = displacements(iso, pts, (conv.b,))[1][0] - conv.a
    if np.any(m > 0):
        bad = int(np.argmax(m))
        raise FoliationNotTransverse(
            f"positive shifted displacement {m[bad]} at sample {bad}"
        )
    return -m


def strip_measure(iso, conv, samples=1_000_000, seed=0):
    """Monte-Carlo mass of the strip per fundamental domain.

    Expected value a - b*alpha for an invariant measure (Lebesgue on the
    unit disk, extended by zero mass outside).
    """
    rng = np.random.default_rng(seed)
    counts = crossing_counts(iso, conv, uniform_disk(rng, samples))
    return {
        "value": float(counts.mean()),
        "stderr": float(counts.std(ddof=1) / math.sqrt(samples)),
        "expected": conv.defect,
        "a": conv.a,
        "b": conv.b,
        "samples": samples,
        "seed": seed,
    }


def invariant_circle(g, radius):
    """Sampler for the g-image of a centered circle (invariant for the
    conjugated rotation built from the same g)."""

    def sample(rng, n):
        t = TWOPI * rng.random(n)
        pts = np.column_stack([radius * np.cos(t), radius * np.sin(t)])
        return g.forward(pts)

    return sample


def rotation_of_measure(iso, samples=100_000, seed=0):
    """Winding- and displacement-based rotation numbers of Lebesgue measure.

    Both Monte-Carlo integrals estimate the boundary rotation number;
    their difference is reported with the combined standard error.
    """
    rng = np.random.default_rng(seed)
    pts = uniform_disk(rng, samples)
    # f_t fixes the origin: one winding W(0, z) per point gives both routes
    (w,), (m,) = displacements(iso, pts, (1,))
    m = m.astype(float)
    out = {
        "winding_value": float(w.mean()),
        "winding_stderr": float(w.std(ddof=1) / math.sqrt(samples)),
        "displacement_value": float(m.mean()),
        "displacement_stderr": float(m.std(ddof=1) / math.sqrt(samples)),
        "samples": samples,
        "seed": seed,
    }
    out["difference"] = out["winding_value"] - out["displacement_value"]
    out["combined_stderr"] = math.hypot(
        out["winding_stderr"], out["displacement_stderr"]
    )
    return out


def product_integral_winding(iso, sampler1, sampler2, samples=100_000, seed=0):
    """Monte-Carlo double integral of the winding over independent pairs."""
    rng = np.random.default_rng(seed)
    X = sampler1(rng, samples)
    Y = sampler2(rng, samples)

    def redraw(close):
        k = int(close.sum())
        X[close] = sampler1(rng, k)
        Y[close] = sampler2(rng, k)

    resample(lambda: np.hypot(*(Y - X).T) <= 1e-7, redraw, 64)
    w = np.empty(samples)
    for lo in range(0, samples, _CHUNK):
        w[lo : lo + _CHUNK] = pair_windings(
            iso, X[lo : lo + _CHUNK], Y[lo : lo + _CHUNK]
        )
    return {
        "value": float(w.mean()),
        "stderr": float(w.std(ddof=1) / math.sqrt(samples)),
        "samples": samples,
        "seed": seed,
    }
