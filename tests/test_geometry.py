"""Coordinate helpers and disk sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskrot.geometry import (
    GOLDEN,
    as_xy,
    angles_of,
    radii_of,
    rot90,
    rotate,
    rotation_matrices,
    uniform_disk,
    wrap_to_pi,
)


def test_golden_mean_value():
    assert abs(GOLDEN - (math.sqrt(5.0) - 1.0) / 2.0) == 0.0
    assert abs(GOLDEN * (GOLDEN + 1.0) - 1.0) < 1e-15


def test_as_xy_coercions():
    assert np.allclose(as_xy((1.0, 2.0)), [1.0, 2.0])
    a = np.zeros((4, 3, 2))
    assert as_xy(a).shape == (4, 3, 2)
    with pytest.raises(ValueError):
        as_xy(np.zeros((5, 3)))


def test_rotate_matches_matrices():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 2))
    ang = rng.standard_normal(50)
    R = rotation_matrices(ang, shape=(50,))
    via_mat = (R @ pts[..., None])[..., 0]
    assert np.max(np.abs(rotate(pts, ang) - via_mat)) < 1e-14
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) < 1e-14
    # cos and sin taken before broadcasting give the bits of the
    # element-wise formula on the broadcast angles
    for angle, shape in ((0.7 * math.pi, (3, 40)), (ang[:, None], (50, 3))):
        A = np.broadcast_to(angle, shape)
        c, s = np.cos(A), np.sin(A)
        want = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        got = rotation_matrices(angle, shape=shape)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rot90_is_quarter_rotation():
    pts = np.random.default_rng(2).standard_normal((20, 2))
    assert np.max(np.abs(rot90(pts) - rotate(pts, 0.5 * math.pi))) < 1e-15


def test_wrap_to_pi_range_and_identity():
    a = np.linspace(-20.0, 20.0, 2001)
    w = wrap_to_pi(a)
    assert np.all(w > -math.pi) and np.all(w <= math.pi)
    assert np.max(np.abs(np.sin(w) - np.sin(a))) < 1e-12
    assert np.max(np.abs(np.cos(w) - np.cos(a))) < 1e-12
    # bit for bit the np.mod formula, on the edge cases as well
    edges = [0.0, -0.0, math.pi, 2 * math.pi, 3 * math.pi, 1e300, math.inf, math.nan]
    edges += [np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0)]
    edges += [-e for e in edges]
    spread = np.random.default_rng(4).standard_normal(1000) * np.logspace(-10, 3, 1000)
    for x in (a, np.array(edges), spread, 4.0, -0.5, np.array(7.0)):
        with np.errstate(invalid="ignore"):
            want = np.pi - np.mod(np.pi - np.asarray(x), 2 * math.pi)
            got = wrap_to_pi(x)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_uniform_disk_statistics():
    rng = np.random.default_rng(3)
    pts = uniform_disk(rng, 200_000, radius=0.8)
    r = radii_of(pts)
    assert r.max() <= 0.8
    # area measure: E[r^2] = radius^2 / 2
    assert abs(np.mean(r * r) - 0.32) < 0.002
    assert abs(np.mean(angles_of(pts))) < 0.02
