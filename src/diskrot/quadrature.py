"""Batched adaptive Gauss-Legendre quadrature on [0, 1].

`composite_gl` and `adaptive_gl` take integrands that map a node array
(M,) to values (M, ...), so a whole batch of line integrals shares one set
of nodes; accuracy is certified by doubling the panel count until
successive composite values agree to tolerance.  `adaptive_segments` works
panel by panel: its integrands take a (P, ORDER) block of nodes, one row
per open panel, and a (P, 1) column naming each row's integrand.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

_NODE_CACHE = {}
ORDER = 16
MAX_DEPTH = 30
MAX_PANELS = 1 << 20
MAX_DOUBLINGS = 8


def _panel_rule(panels):
    if panels not in _NODE_CACHE:
        x, w = np.polynomial.legendre.leggauss(ORDER)
        width = 1.0 / panels
        starts = np.arange(panels) * width
        nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
        weights = np.tile(0.5 * width * w, panels)
        _NODE_CACHE[panels] = (nodes, weights)
    return _NODE_CACHE[panels]


def composite_gl(f, panels):
    """Order-ORDER Gauss-Legendre rule on `panels` equal panels of [0, 1]."""
    nodes, weights = _panel_rule(panels)
    vals = f(nodes)
    return np.tensordot(weights, vals, axes=(0, 0))


def adaptive_segments(f, count, tol):
    """Locally adaptive GL over [0, 1] for `count` independent integrands.

    f(ss, idx) takes the (P, ORDER) node block ss of the P open panels and
    the (P, 1) column idx of their integrands, and returns the (P, ORDER)
    values: row k is integrand idx[k, 0] at the nodes ss[k].  A column
    broadcasts against the block, so `g[idx]` indexing per-integrand data
    needs no repeat per node.  Each level makes three calls, one per rule
    (whole panel, left half, right half).  Each panel is accepted when the
    whole-panel rule agrees with its two halves to tol * width, so the
    per-integrand error sums to at most tol; otherwise it is bisected.
    Returns (values, error_estimates), both of shape (count,).
    """
    x, w = np.polynomial.legendre.leggauss(ORDER)
    u = 0.5 * (x + 1.0)
    uw = 0.5 * w
    total = np.zeros(count)
    err_tot = np.zeros(count)
    idx = np.arange(count)
    a = np.zeros(count)
    b = np.ones(count)
    for _ in range(MAX_DEPTH + 1):
        if len(idx) == 0:
            return total, err_tot
        width = b - a
        mid = a + 0.5 * width
        # three calls, not one (P, 3 * ORDER) block: the wider block
        # raises the peak memory of a criterion-1 round
        col = idx[:, None]
        fw = f(a[:, None] + width[:, None] * u, col)
        fl = f(a[:, None] + 0.5 * width[:, None] * u, col)
        fr = f(mid[:, None] + 0.5 * width[:, None] * u, col)
        whole = width * (fw @ uw)
        halves = 0.5 * width * ((fl + fr) @ uw)
        err = np.abs(whole - halves)
        # the two-rule defect can understate the true error in stiff spots,
        # so accept panels only well inside the budget
        ok = err <= 0.1 * tol * width
        np.add.at(total, idx[ok], halves[ok])
        np.add.at(err_tot, idx[ok], err[ok])
        bad = ~ok
        if 2 * int(bad.sum()) > MAX_PANELS:
            raise QuadratureFailure(f"panel budget {MAX_PANELS} exhausted at tol={tol}")
        idx = np.concatenate([idx[bad], idx[bad]])
        a = np.concatenate([a[bad], mid[bad]])
        b = np.concatenate([mid[bad], b[bad]])
    raise QuadratureFailure(
        f"bisection depth {MAX_DEPTH} exhausted at tol={tol} "
        f"({len(idx)} panels left, worst defect {float(np.max(err)):.3e})"
    )


def adaptive_gl(f, tol):
    """Integrate f over [0, 1], doubling panels until convergence.

    Returns (value, error_estimate).  The error estimate is the difference
    between the last two panel levels (per batch entry, maximum taken for
    the convergence decision).
    """
    prev = composite_gl(f, 1)
    panels = 2
    for _ in range(MAX_DOUBLINGS):
        cur = composite_gl(f, panels)
        err = np.max(np.abs(cur - prev))
        if err < tol:
            return cur, err
        prev = cur
        panels *= 2
    raise QuadratureFailure(
        f"quadrature did not reach tol={tol} (last defect {err:.3e})"
    )
