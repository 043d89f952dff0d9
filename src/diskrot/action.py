"""Action functions and the Calabi invariant.

The action of an isotopy solves da = f*beta - beta with the boundary
normalization a(x0) = integral of beta along the isotopy path of x0.  The
Calabi invariant integrates the action against the area form omega =
(r/pi) dr ^ dtheta, which has total mass one, so CAL is directly
comparable with the boundary rotation number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWOPI, as_xy, angles_of, resample, uniform_disk
from .maps import IteratedIsotopy
from .quadrature import adaptive_gl, adaptive_segments
from .winding import INIT_STEPS, pair_windings_iterated

_CHUNK = 1 << 16


class PrimitiveOneForm:
    """A primitive beta of omega = (r/pi) dr ^ dtheta = (1/pi) dx ^ dy.

    The default is beta = (r^2 / 2 pi) dtheta, written in Cartesian
    components as (x dy - y dx) / (2 pi) so it stays smooth at the origin.
    """

    def __init__(self, evaluator=None, label="r^2/2pi dtheta"):
        self._eval = evaluator
        self.label = label

    def __call__(self, z, v):
        if self._eval is not None:
            return self._eval(z, v)
        z = np.asarray(z)
        v = np.asarray(v)
        return (z[..., 0] * v[..., 1] - z[..., 1] * v[..., 0]) / TWOPI

    def plus_dh(self, h, grad_h, label=None):
        """beta + dh for a smooth function h with gradient grad_h."""

        def ev(z, v):
            g = np.asarray(grad_h(z))
            return self(z, v) + g[..., 0] * v[..., 0] + g[..., 1] * v[..., 1]

        return PrimitiveOneForm(ev, label=label or (self.label + " + dh"))


def exterior_derivative_density(beta, pts, h=1e-4):
    """Finite-difference d(beta) at pts, as a multiple of dx ^ dy.

    Computed from the circulation of beta around a small axis-aligned
    square; should equal 1/pi for any primitive of omega.
    """
    pts = as_xy(pts)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    # midpoint rule on each edge of the square [0,h]^2 anchored at pts
    circ = (
        beta(pts + 0.5 * ex, ex)
        + beta(pts + ex + 0.5 * ey, ey)
        - beta(pts + 0.5 * ex + ey, ex)
        - beta(pts + 0.5 * ey, ey)
    )
    return circ / (h * h)


class ActionField:
    """The action a of an isotopy, evaluated by certified path integrals.

    Integration runs along the radial segment from the boundary point on
    each point's ray; everything is evaluated in Cartesian components so
    the origin is an ordinary point of the integrand.
    """

    def __init__(self, iso, beta=None, path_tol=1e-7, method="auto"):
        if method not in ("auto", "path"):
            raise ValueError(f"unknown method {method!r}")
        self.iso = iso
        self.beta = beta if beta is not None else PrimitiveOneForm()
        self.path_tol = float(path_tol)
        self.method = method

    def _closed_form(self, pts):
        """Closed-form action when the isotopy provides one and beta is the
        standard primitive; None otherwise."""
        if self.method != "auto" or self.beta._eval is not None:
            return None
        try:
            return self.iso.action_closed_form(pts)
        except AttributeError:
            return None

    def boundary_value(self, thetas):
        """Integral of beta along t -> f_t(x0) for boundary points x0."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        x0 = np.column_stack([np.cos(thetas), np.sin(thetas)])

        def integrand(ts):
            out = np.empty((len(ts), len(thetas)))
            for k, t in enumerate(ts):
                out[k] = self.beta(self.iso.eval(t, x0), self.iso.velocity(t, x0))
            return out

        val, _ = adaptive_gl(integrand, tol=self.path_tol)
        return val

    def pullback_defect(self, pts, v):
        """(f*beta - beta) applied to tangent vectors v at pts."""
        f = self.iso.eval(1.0, pts)
        J = self.iso.jac(1.0, pts)
        Jv = (J @ v[..., None])[..., 0]
        return self.beta(f, Jv) - self.beta(pts, v)

    def _segment_integral(self, start, pts):
        """Integral of f*beta - beta along straight segments start -> pts."""
        start = np.broadcast_to(np.asarray(start, dtype=float), pts.shape)
        s0 = start.reshape(-1, 2)
        e = (pts - start).reshape(-1, 2)

        def integrand(ss, idx):
            return self.pullback_defect(s0[idx] + ss[:, None] * e[idx], e[idx])

        val, _ = adaptive_segments(integrand, len(s0), tol=self.path_tol)
        return val.reshape(pts.shape[:-1])

    def action(self, pts):
        """Action values at a batch of points (any shape with trailing 2)."""
        pts = as_xy(pts)
        single = pts.ndim == 1
        cf = self._closed_form(pts)
        if cf is not None:
            return float(cf) if single else cf
        flat = pts.reshape(-1, 2)
        out = np.empty(len(flat))
        for lo in range(0, len(flat), _CHUNK):
            chunk = flat[lo : lo + _CHUNK]
            theta = angles_of(chunk)
            x0 = np.column_stack([np.cos(theta), np.sin(theta)])
            out[lo : lo + _CHUNK] = self.boundary_value(theta) + self._segment_integral(
                x0, chunk
            )
        if single:
            return float(out[0])
        return out.reshape(pts.shape[:-1])

    def action_via(self, anchor_theta, pts):
        """Action via a chord from a different boundary anchor (cross-check)."""
        pts = as_xy(pts)
        flat = pts.reshape(-1, 2)
        x0 = np.array([math.cos(anchor_theta), math.sin(anchor_theta)])
        base = self.boundary_value(np.array([anchor_theta]))[0]
        vals = base + self._segment_integral(x0, flat)
        return vals.reshape(pts.shape[:-1])


@dataclass(frozen=True)
class CalabiResult:
    value: float
    stderr: float
    method: str
    samples: int
    seed: int

    def to_dict(self):
        return {
            "value": self.value,
            "stderr": self.stderr,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
        }


def calabi(field, samples=1_000_000, seed=0, method="stratified"):
    """CAL = integral of the action against omega (a probability measure)."""
    if method == "gauss":
        return _calabi_gauss(field, samples, seed)
    k = max(1, int(math.sqrt(samples / 2)))
    rng = np.random.default_rng(seed)
    edges = np.arange(k) / k
    # two samples per stratum of the (r^2, theta) unit square, where omega
    # is the uniform measure
    vals = np.empty((2, k * k))
    for rep in range(2):
        u = (edges[:, None] + rng.random((k, k)) / k).ravel()
        phi = (edges[None, :] + rng.random((k, k)) / k).ravel() * TWOPI
        r = np.sqrt(u)
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        vals[rep] = field.action(pts)
    value = float(vals.mean())
    d = vals[1] - vals[0]
    stderr = float(np.sqrt(np.sum(d * d)) / (2 * k * k))
    return CalabiResult(value, stderr, "stratified", 2 * k * k, seed)


def _calabi_gauss(field, samples, seed):
    def tensor_value(m):
        x, w = np.polynomial.legendre.leggauss(m)
        u = 0.5 * (x + 1.0)
        wu = 0.5 * w
        r = np.sqrt(u)
        phi = 0.5 * (x + 1.0) * TWOPI
        wphi = 0.5 * w  # weights on the normalized angle
        R, PHI = np.meshgrid(r, phi, indexing="ij")
        pts = np.stack([R * np.cos(PHI), R * np.sin(PHI)], axis=-1)
        a = field.action(pts.reshape(-1, 2)).reshape(m, m)
        return float(np.einsum("i,j,ij->", wu, wphi, a))

    m = max(8, int(math.sqrt(samples)))
    coarse = tensor_value(m // 2)
    fine = tensor_value(m)
    return CalabiResult(fine, abs(fine - coarse), "gauss", m * m, seed)


def off_orbit_samples(rng, orbit, count):
    """count uniform disk points, each redrawn while within 1e-6 of an
    orbit point (the Monte Carlo partners of the orbit's base point)."""
    ys = uniform_disk(rng, count)

    def near_orbit():
        d = np.min(
            np.hypot(ys[:, 0] - orbit[:, None, 0], ys[:, 1] - orbit[:, None, 1]),
            axis=0,
        )
        return d <= 1e-6

    def redraw(bad):
        ys[bad] = uniform_disk(rng, int(bad.sum()))

    resample(near_orbit, redraw, 64)
    return ys


def action_winding_gap(field, x, ns, mc_samples, rng, steps=INIT_STEPS):
    """|a_{f^n}(x) - integral of W_{f^n}(x, .) d omega| with its MC error,
    one row per n in ns.  One Monte Carlo batch drawn from rng is tracked
    through max(ns) iterates, so every integral is a prefix of the same
    per-iterate windings.

    The gap obeys a uniform-in-n bound of 8; the check adds a 3-sigma
    Monte Carlo allowance on top.
    """
    iso = field.iso
    x = as_xy(x)
    ys = off_orbit_samples(rng, iso.orbit(x, max(ns)), mc_samples)
    totals = np.cumsum(pair_windings_iterated(iso, x, ys, max(ns), steps), axis=0)
    rows = []
    for n in ns:
        iterated = IteratedIsotopy(iso, n)
        a_n = ActionField(iterated, beta=field.beta, path_tol=field.path_tol).action(x)
        integral = float(totals[n - 1].mean())
        stderr = float(totals[n - 1].std(ddof=1) / math.sqrt(mc_samples))
        gap = abs(float(a_n) - integral)
        bound = 8.0 + 3.0 * n * stderr
        rows.append(
            {"n": n, "action_n": float(a_n), "winding_integral": integral,
             "mc_stderr": stderr, "gap": gap, "bound": bound, "within_bound": gap <= bound}
        )
    return rows
