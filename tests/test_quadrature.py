"""Batched Gauss-Legendre quadrature and its failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskrot.errors import QuadratureFailure
from diskrot.quadrature import ORDER, adaptive_gl, adaptive_segments, composite_gl


def test_composite_gl_exact_on_polynomials():
    # order-16 GL integrates degree-31 polynomials exactly per panel
    assert ORDER == 16
    val = composite_gl(lambda s: s**20, 1)
    assert abs(val - 1.0 / 21.0) < 1e-15


def test_adaptive_gl_batch_values():
    def f(s):
        return np.stack([np.exp(s), np.cos(s)], axis=-1)

    val, err = adaptive_gl(f, tol=1e-12)
    assert abs(val[0] - (math.e - 1.0)) < 1e-12
    assert abs(val[1] - math.sin(1.0)) < 1e-12
    assert err < 1e-12


def test_adaptive_gl_reports_nonconvergence():
    with pytest.raises(QuadratureFailure):
        adaptive_gl(lambda s: np.sign(s - 1.0 / math.sqrt(2.0)), tol=1e-10)


def test_adaptive_segments_resolves_sharp_peaks():
    # narrow Lorentzian peaks at per-entry centers, closed-form integrals
    centers = np.array([0.137, 0.5, 0.912345, 0.25])
    a = 1e-4

    def f(ss, idx):
        u = ss - centers[idx]
        return a / (a * a + u * u)

    val, est = adaptive_segments(f, len(centers), tol=1e-9)
    exact = np.arctan((1.0 - centers) / a) + np.arctan(centers / a)
    assert np.max(np.abs(val - exact)) < 1e-9
    assert np.all(est >= 0.0)


def test_adaptive_segments_matches_smooth_reference():
    freqs = np.array([1.0, 7.0, 31.5])

    def f(ss, idx):
        return np.cos(freqs[idx] * ss)

    val, _ = adaptive_segments(f, len(freqs), tol=1e-12)
    assert np.max(np.abs(val - np.sin(freqs) / freqs)) < 1e-12


def test_adaptive_segments_rejects_discontinuities():
    c = 1.0 / math.sqrt(2.0)

    def f(ss, idx):
        return np.where(ss < c, 0.0, 1.0)

    with pytest.raises(QuadratureFailure):
        adaptive_segments(f, 1, tol=1e-9)


def test_adaptive_segments_integrands_take_panel_blocks():
    # every level makes three calls, one per rule (whole panel, left half,
    # right half), each with the (P, ORDER) node block of the P open panels
    # and their (P, 1) integrand column; a level's P is twice the panels
    # rejected at the level before, by the accept rule recomputed here
    centers = np.array([0.137, 0.5, 0.912345, 0.25])
    a, tol = 1e-4, 1e-9
    calls = []

    def f(ss, idx):
        u = ss - centers[idx]
        vals = a / (a * a + u * u)
        calls.append((ss, idx, vals))
        return vals

    adaptive_segments(f, len(centers), tol=tol)
    assert len(calls) % 3 == 0
    x, w = np.polynomial.legendre.leggauss(ORDER)
    u, uw = 0.5 * (x + 1.0), 0.5 * w
    expected = len(centers)
    for lvl in range(0, len(calls), 3):
        (sw, iw, fw), (sl, il, fl), (sr, ir, fr) = calls[lvl : lvl + 3]
        assert sw.shape == sl.shape == sr.shape == (expected, ORDER)
        assert iw.shape == (expected, 1)
        assert np.array_equal(iw, il) and np.array_equal(iw, ir)
        width = (sw[:, -1] - sw[:, 0]) / (u[-1] - u[0])
        err = np.abs(width * (fw @ uw) - 0.5 * width * ((fl + fr) @ uw))
        expected = 2 * int(np.count_nonzero(err > 0.1 * tol * width))
    # the last level rejects nothing
    assert expected == 0
    assert len(calls) > 3
