"""Coordinate helpers for points of the closed unit disk.

Points are float arrays with a trailing dimension 2; the helpers take
angles and radii, rotate, wrap angles, resample rejected draws and sample
the disk by normalized area.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ResampleExhausted

TWOPI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def as_xy(obj):
    """Coerce a pair or (..., 2) array to a float ndarray."""
    a = np.asarray(obj, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError(f"expected trailing dimension 2, got shape {a.shape}")
    return a


def angles_of(pts):
    pts = np.asarray(pts)
    return np.arctan2(pts[..., 1], pts[..., 0])


def radii_of(pts):
    # hypot, not sqrt(x*x + y*y): 2-4x cheaper below ~64 points, as in bisection
    # sub-steps and single-point trajectories (the swap slowed orbit-averages 2.25 ->
    # 2.57 s and raised verify-all --fast peak RSS 86.7 -> 93.1 MB on a 2-vCPU VM).
    # The twist steps pick their annulus points by squared distance and pass
    # only those, so large batches no longer reach hypot whole
    pts = np.asarray(pts)
    return np.hypot(pts[..., 0], pts[..., 1])


def rotate(pts, angle):
    """Rotate points about the origin; angle may broadcast against pts[..., 0]."""
    pts = np.asarray(pts)
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(pts, dtype=float)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1]
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1]
    return out


def rot90(pts):
    """Rotate points by +90 degrees (multiplication by i)."""
    pts = np.asarray(pts)
    out = np.empty_like(pts, dtype=float)
    out[..., 0] = -pts[..., 1]
    out[..., 1] = pts[..., 0]
    return out


def rotation_matrices(angle, shape=None):
    """Stack of 2x2 rotation matrices for a (broadcastable) angle array."""
    angle = np.asarray(angle, dtype=float)
    # cos and sin of the given angles only; the writes below broadcast them
    # to shape, so one angle over many points costs one cos and one sin
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty((angle.shape if shape is None else tuple(shape)) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def wrap_to_pi(a):
    """Wrap angles to the principal interval (-pi, pi]."""
    # pi - mod(pi - a, 2pi), with np.mod only on the entries it changes:
    # mod(b, 2pi) is b itself, bit for bit, where 0 <= b < 2pi
    b = np.asarray(np.pi - np.asarray(a))
    far = ~((b >= 0.0) & (b < TWOPI))
    if far.any():
        b[far] = np.mod(b[far], TWOPI)
    return np.pi - b


def resample(bad_of, redraw, rounds):
    """Redraw rejected samples until none is left.

    bad_of() flags the rejected samples and redraw(bad) replaces them.
    Raises ResampleExhausted when samples are still rejected after
    `rounds` redraws.
    """
    for _ in range(rounds):
        bad = bad_of()
        if not bad.any():
            return
        redraw(bad)
    bad = bad_of()
    if bad.any():
        raise ResampleExhausted(
            f"{int(bad.sum())} samples still rejected after {rounds} redraws"
        )


def uniform_disk(rng, n, radius=1.0):
    """n points distributed by normalized area on the disk of given radius."""
    u = rng.random(n)
    theta = rng.random(n) * TWOPI
    r = radius * np.sqrt(u)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])
