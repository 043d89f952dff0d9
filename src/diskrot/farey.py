"""Continued-fraction convergents, invariant circles of the plane
extension, and the strip-measure identity.

The strip between a lifted reference leaf and its backward image under
f^b composed with the inverse deck shift T^(-a) carries, per fundamental
domain, an invariant mass of a - b*alpha.  The mass is estimated by the
crossing multiplicity of sampled points: minus the displacement integer
of the shifted lift, which must be nonpositive when the foliation is
Brouwer for this power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FoliationNotTransverse, RationalInput
from .foliation import RadialFoliation, displacement_table, displacements
from .geometry import TWOPI, angles_of, as_xy, resample, uniform_disk
from .maps import IteratedIsotopy
from .winding import MERGE_EPS, OrbitTrack, pair_windings, position_angle_tracks

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


@dataclass(frozen=True)
class InvariantCircleSpec:
    """The circle S_{a/b} of the plane extension, pointwise periodic."""

    conv: Convergent
    beta: float

    def __post_init__(self):
        if not self.conv.alpha < self.conv.value < self.beta:
            raise ValueError("a/b must lie in (alpha, beta)")

    @property
    def radius(self):
        return 1.0 + self.conv.value - self.conv.alpha


class StripRegion:
    """The strip O between a lifted leaf and its backward shifted image.

    Membership of a cover point (theta_lift, z): the point lies strictly
    left of the leaf while its image under f^b o T^(-a) lies weakly to
    the right.  The crossing multiplicity of a disk point counts the
    deck copies of the region containing some lift, which is minus the
    displacement of the shifted lift.
    """

    def __init__(self, iso, conv, F=None, leaf=0.0):
        self.iso = iso
        self.conv = conv
        self.F = F or RadialFoliation()
        self.leaf = float(leaf)

    def _shifted_displacement(self, pts):
        """m of f^b o T^(-a) = m of f^b minus a, per sample point."""
        pts = as_xy(pts)
        b = self.conv.b
        if self.F.is_euclidean and hasattr(self.iso, "angle_displacement_exact"):
            theta = angles_of(pts) % TWOPI
            theta = self.leaf + (theta - self.leaf) % TWOPI
            delta = self.iso.angle_displacement_exact(pts, b)
            m_b = np.floor((theta + delta - self.leaf) / TWOPI).astype(int)
        else:
            m_b = np.empty(len(pts), dtype=int)
            iterated = IteratedIsotopy(self.iso, b) if b > 1 else self.iso
            for lo in range(0, len(pts), _CHUNK):
                _, tot = displacement_table(
                    iterated, pts[lo : lo + _CHUNK], n=1, F=self.F, leaf=self.leaf
                )
                m_b[lo : lo + _CHUNK] = tot
        return m_b - self.conv.a

    def crossing_counts(self, pts):
        """Deck-copy crossing multiplicities; nonnegative when Brouwer."""
        m = self._shifted_displacement(pts)
        if np.any(m > 0):
            bad = int(np.argmax(m))
            raise FoliationNotTransverse(
                f"positive shifted displacement {m[bad]} at sample {bad}"
            )
        return -m

    def contains(self, theta_lift, z):
        """Membership of a single cover point (deck-well-defined test)."""
        z = as_xy(z)
        l = float(self.F.leaf_lift(theta_lift, z))
        m = int(self._shifted_displacement(z[None])[0])
        # the lift in the sector [leaf, leaf+2pi) has shifted image in
        # sector m; membership of some deck copy needs m <= -1, and the
        # specific lift is in the copy indexed by its own sector
        sector = math.floor((l - self.leaf) / TWOPI)
        return -m > 0 and 0 <= sector < -m


def strip_measure(iso, conv, F=None, samples=1_000_000, seed=0, leaf=0.0):
    """Monte-Carlo mass of the strip per fundamental domain.

    Expected value a - b*alpha for an invariant measure (Lebesgue on the
    unit disk, extended by zero mass outside).
    """
    region = StripRegion(iso, conv, F=F, leaf=leaf)
    rng = np.random.default_rng(seed)
    pts = uniform_disk(rng, samples)
    counts = region.crossing_counts(pts)
    value = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(samples))
    return {
        "value": value,
        "stderr": stderr,
        "expected": conv.defect,
        "a": conv.a,
        "b": conv.b,
        "samples": samples,
        "seed": seed,
    }


def lebesgue_disk(radius=1.0):
    """Sampler for normalized area measure on a disk."""

    def sample(rng, n):
        return uniform_disk(rng, n, radius=radius)

    return sample


def invariant_circle(g, radius):
    """Sampler for the g-image of a centered circle (invariant for the
    conjugated rotation built from the same g)."""

    def sample(rng, n):
        t = TWOPI * rng.random(n)
        pts = np.column_stack([radius * np.cos(t), radius * np.sin(t)])
        return pts if g is None else g.forward(pts)

    return sample


def mixture(samplers, weights):
    """Convex mixture of samplers."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()

    def sample(rng, n):
        counts = rng.multinomial(n, w)
        parts = [s(rng, int(c)) for s, c in zip(samplers, counts) if c]
        return np.concatenate(parts, axis=0)

    return sample


def origin_windings(iso, pts):
    """W(0, z) for a batch: the lifted-angle displacement in turns.

    Valid for isotopies fixing the origin, where the connecting vector
    from 0 to f_t(z) is f_t(z) itself.
    """
    _, _, theta = position_angle_tracks(iso, pts)
    return (theta[-1] - theta[0]) / TWOPI


def rotation_of_measure(iso, sampler=None, samples=100_000, seed=0, F=None, leaf=0.0):
    """Winding-based and displacement-based rotation numbers of a measure.

    Both Monte-Carlo integrals estimate the boundary rotation number;
    their difference is reported with the combined standard error.
    """
    sampler = sampler or lebesgue_disk()
    rng = np.random.default_rng(seed)
    pts = sampler(rng, samples)
    # one track: windings from its angles, displacements from their lifts
    track = OrbitTrack(iso, pts, 1)
    w = (track.ang[0, -1] - track.ang[0, 0]) / TWOPI
    m_seq, _ = displacements(track, F=F, leaf=leaf)
    m = m_seq[0].astype(float)
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


def product_integral_winding(
    iso, sampler1=None, sampler2=None, samples=100_000, seed=0, merge_eps=MERGE_EPS
):
    """Monte-Carlo double integral of the winding over independent pairs."""
    sampler1 = sampler1 or lebesgue_disk()
    sampler2 = sampler2 or lebesgue_disk()
    rng = np.random.default_rng(seed)
    X = sampler1(rng, samples)
    Y = sampler2(rng, samples)

    def redraw(close):
        k = int(close.sum())
        X[close] = sampler1(rng, k)
        Y[close] = sampler2(rng, k)

    resample(lambda: np.hypot(*(Y - X).T) <= max(merge_eps, 1e-7), redraw, 64)
    w = np.empty(samples)
    for lo in range(0, samples, _CHUNK):
        w[lo : lo + _CHUNK] = pair_windings(
            iso, X[lo : lo + _CHUNK], Y[lo : lo + _CHUNK], merge_eps=merge_eps
        )
    return {
        "value": float(w.mean()),
        "stderr": float(w.std(ddof=1) / math.sqrt(samples)),
        "samples": samples,
        "seed": seed,
    }
