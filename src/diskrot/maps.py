"""Exactly area-preserving disk maps and isotopies.

Every family is one shape, g o T_p o g^{-1}: a radial twist T_p, which
turns each point by 2 pi p(r) (a rigid rotation where p is constant),
conjugated by a composition of localized twists (exact flows of
annular-bump Hamiltonians) or by the identity.  All of these have
Jacobians in closed form and are exactly area-preserving up to roundoff,
so every invariant-measure hypothesis used elsewhere in the package holds
by construction.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadInterval, NearRationalWarning, OriginMoved, SchemaError
from .geometry import (
    GOLDEN,
    TWOPI,
    angles_of,
    as_xy,
    radii_of,
    rot90,
    rotate,
    rotation_matrices,
    wrap_to_pi,
)

MAX_DEN = 64
RATIONAL_TOL = 1e-12
# pairs per pass of the ramp windings: keeps each complex temporary at
# 128 KiB; at 1 << 16 a `verify-all --fast` process peaked 1.5 MB higher
_CHUNK = 1 << 13
# relative widening of each twist step's annulus when choosing the points
# a step may move; the roundings of a squared distance and of hypot are
# some 1e-16 relative
_MARGIN = 1e-9


def check_irrational(value, name):
    """Warn (never fail) when value is within RATIONAL_TOL of p/q, q <= MAX_DEN."""
    for q in range(1, MAX_DEN + 1):
        p = round(value * q)
        if abs(value - p / q) < RATIONAL_TOL:
            warnings.warn(
                f"{name}={value} is within {RATIONAL_TOL} of {p}/{q}; "
                "convergence diagnostics may degrade",
                NearRationalWarning,
                stacklevel=3,
            )
            return


def _bump(xi):
    """Smooth bump on (-1, 1): exp(1 - 1/(1 - xi^2)), zero outside."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    u = xi[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def _dbump(xi):
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    u = xi[inside]
    den = 1.0 - u * u
    out[inside] = np.exp(1.0 - 1.0 / den) * (-2.0 * u / (den * den))
    return out


def _split(pts):
    """Flat copies px, py of the coordinates of pts (..., 2), and the batch
    shape; the twist kernels work on these in place."""
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0].flatten(), pts[..., 1].flatten(), pts.shape[:-1]


def _joined(px, py, shape):
    out = np.empty(shape + (2,))
    out[..., 0], out[..., 1] = px.reshape(shape), py.reshape(shape)
    return out


def _per_entry(scale, shape):
    """A scalar scale as it is; one scale per entry flattened as _split."""
    return np.broadcast_to(scale, shape).reshape(-1) if np.ndim(scale) else scale


def _at(p, idx):
    """p[idx] for an array of per-point values, p itself for a scalar."""
    return p[idx] if np.ndim(p) else p


def _tiles(shape, size):
    """Index tuples of slices that tile an array of `shape` (ndim >= 1) in
    contiguous blocks of at most `size` entries (one entry at least)."""
    inner = math.prod(shape[1:])
    if inner <= size:
        step = size // max(inner, 1)
        for lo in range(0, shape[0], step):
            yield (slice(lo, lo + step),)
        return
    for i in range(shape[0]):
        for rest in _tiles(shape[1:], size):
            yield (slice(i, i + 1),) + rest


_CELLS = 1 << 15  # cells of the bump-moment table, uniform over xi in [-1, 1]


@functools.cache
def _bump_moments():
    """The cumulative moments B0(xi) = int_{-1}^xi bump(u) du and B1(xi) =
    int_{-1}^xi u bump(u) du at the cell edges, each cell integrated by
    4-node GL before the cumsum: one table for every step.  (2, _CELLS + 2):
    the last column repeats xi = 1's, where the interpolation reads it."""
    x4, w4 = np.polynomial.legendre.leggauss(4)
    moments = np.zeros((2, _CELLS + 2))
    # 2048 cells at a time: node arrays for all cells at once would add
    # megabytes to the peak memory
    for s in range(0, _CELLS, 2048):
        u = (np.arange(s, s + 2048)[:, None] + 0.5 * (x4 + 1.0)) * (2.0 / _CELLS) - 1.0
        f = _bump(u)
        moments[:, s + 1 : s + 2049] = np.stack([f, u * f]) @ w4 / _CELLS
    np.cumsum(moments, axis=1, out=moments)
    moments.flags.writeable = False
    return moments


@dataclass(frozen=True)
class TwistStep:
    """Exact time-one flow of an annular-bump Hamiltonian about a center.

    Rotates each point about `center` by amp * bump profile of its distance
    to the center; identity outside the annulus inner <= rho <= outer and
    inside rho <= inner, so the origin and the boundary are untouched when
    the annulus is placed accordingly.
    """

    center: tuple
    amp: float
    inner: float
    outer: float

    def _xi(self, rho):
        mid = 0.5 * (self.inner + self.outer)
        half = 0.5 * (self.outer - self.inner)
        return (rho - mid) / half

    def angle(self, rho):
        return self.amp * _bump(self._xi(rho))

    def dangle(self, rho):
        half = 0.5 * (self.outer - self.inner)
        return self.amp * _dbump(self._xi(rho)) / half

    def _window(self, d2):
        """Mask of the squared offsets d2 from the center that lie in the
        annulus widened by a relative _MARGIN.  The step moves no other
        point: the rounding of a squared length or a radius is far below
        the margin.  Every kernel does its work on these entries alone and
        leaves the others' bits untouched."""
        lo = (self.inner * (1.0 - _MARGIN)) ** 2
        hi = (self.outer * (1.0 + _MARGIN)) ** 2
        return (d2 >= lo) & (d2 <= hi)

    def _move(self, px, py, scale, jac=False, gen=False, turn=None, rec=None):
        """The one kernel of a sub-step's image: moves the points of the
        flat coordinate arrays px, py in place at `scale`, a scalar or one
        per entry, and returns (J, S): the step's Jacobian stack (N, 2, 2)
        if jac and its generating function (N,) if gen, else None.  It
        carries turn, flat lifted angles of the points about the origin,
        along in place, and appends the step's psi (0 off the window) and d2
        at every point to the list rec.  The window, rho and psi are found
        once and serve all of them."""
        cx, cy = self.center
        x, y = px - cx, py - cy
        d2 = x * x + y * y
        idx = self._window(d2).nonzero()[0]
        if rec is not None:
            rec.append((np.zeros(px.shape), d2))
        J = np.broadcast_to(np.eye(2), px.shape + (2, 2)).copy() if jac else None
        S = None
        if gen:
            # outside the window psi = 0, and H is 0 within the inner circle
            # and its value at xi = 1 beyond the outer one
            H = self._from_moments(*_bump_moments()[:, -1], scale)
            S = np.where(d2 > self.inner**2, -(H / np.pi), 0.0)
        if not idx.size:
            return J, S
        x, y = x[idx], y[idx]
        if np.ndim(scale):
            scale = scale[idx]
        rho = np.hypot(x, y)
        psi = scale * self.angle(rho)
        if rec is not None:
            rec[-1][0][idx] = psi
        if gen:
            # the averaged rotation of w over the flow is (sin psi/psi) w +
            # ((1-cos psi)/psi) i w, in forms safe at psi = 0; its dot with c
            # is written out, since through BLAS a point's last bits would
            # depend on its place in the batch
            s1 = np.sinc(psi / np.pi)
            s2 = 0.5 * psi * np.sinc(0.5 * psi / np.pi) ** 2
            circ = rho * rho + ((s1 * x - s2 * y) * cx + (s1 * y + s2 * x) * cy)
            S[idx] = psi * circ / TWOPI - self.potential(rho, scale) / np.pi
        # a window point whose bump underflows stays put: c + (p - c) could
        # move it by an ulp
        m = psi.nonzero()[0]
        idx, x, y, rho, psi = idx[m], x[m], y[m], rho[m], psi[m]
        c, s = np.cos(psi), np.sin(psi)
        rx, ry = c * x - s * y, s * x + c * y
        if jac:
            # D = R(psi) + (psi'/rho) * (i R(psi) w) outer w, det = 1 exactly;
            # identity wherever the bump (and with it the shear) vanishes
            k = (scale[m] if np.ndim(scale) else scale) * self.dangle(rho) / rho
            kx, ky = k * x, k * y
            J[idx, 0, 0], J[idx, 0, 1] = c - ry * kx, -s - ry * ky
            J[idx, 1, 0], J[idx, 1, 1] = s + rx * kx, c + rx * ky
        qx, qy = rx + cx, ry + cy
        px[idx], py[idx] = qx, qy
        if turn is not None:
            # the step turns p about the origin by the psi of the farther
            # point of the pair (0, p) plus a remainder in (-pi, pi)
            # (`ConjugacyMap.ramp_winding`): p's psi with the origin inside
            # the inner circle, the fixed origin's 0 beyond the outer one;
            # the remainder is d less its whole turns, which wrap_to_pi's
            # slow branch would remove
            cur = turn[idx] + (psi if math.hypot(cx, cy) < self.inner else 0.0)
            d = np.arctan2(qy, qx) - cur
            turn[idx] = cur + (d - TWOPI * np.round(d / TWOPI))
        return J, S

    def potential(self, rho, scale=1.0):
        """Hamiltonian H(rho) = integral of the angular speed against r dr,
        both bump moments read at one index and fraction of xi clipped to
        [-1, 1]."""
        t = (np.minimum(np.maximum(self._xi(rho), -1.0), 1.0) + 1.0) * (0.5 * _CELLS)
        i = t.astype(np.intp)
        f = t - i
        return self._from_moments(*(m[i] + f * (m[i + 1] - m[i]) for m in _bump_moments()), scale)

    def _from_moments(self, b0, b1, scale):
        """scale * H from the bump moments b0, b1 at xi: as r = mid + half *
        xi, amp * half * (mid * B0(xi) + half * B1(xi))."""
        mid, half = 0.5 * (self.inner + self.outer), 0.5 * (self.outer - self.inner)
        return scale * self.amp * (half * (mid * b0 + half * b1))

# Named Hamiltonians: geometry given for support_radius = 1, scaled at build
# time.  Each step needs |center| < inner or |center| > outer (origin fixed,
# which `ConjugacyMap` checks) and |center| + outer <= 1 (compact support).
HAMILTONIANS = {
    "twist-a": (
        dict(center=(0.25, 0.10), amp=1.2, inner=0.30, outer=0.58),
        dict(center=(-0.20, 0.30), amp=-0.9, inner=0.40, outer=0.62),
    ),
    "twist-b": (
        dict(center=(0.05, -0.30), amp=0.8, inner=0.35, outer=0.60),
        dict(center=(0.32, 0.18), amp=-1.1, inner=0.40, outer=0.63),
        dict(center=(-0.28, -0.05), amp=0.7, inner=0.32, outer=0.55),
    ),
    "twist-c": (
        dict(center=(-0.10, 0.22), amp=-1.4, inner=0.28, outer=0.60),
        dict(center=(0.24, -0.24), amp=0.95, inner=0.38, outer=0.64),
    ),
    "identity": (),
}


@dataclass(frozen=True)
class ConjugacyMap:
    """Area-preserving conjugacy built from localized twist steps.

    The forward map applies each step `repeats` times at amplitude
    amp/repeats (a splitting-integrator composition of exact sub-flows), so
    det(jacobian) = 1 exactly and the inverse is exact.
    """

    steps: tuple
    repeats: int = 2
    h_tag: str = "custom"
    support_radius: float = 0.85

    def __post_init__(self):
        # the leaf coordinates, displacements and windings about 0 all
        # assume that g fixes the origin
        for st in self.steps:
            if st._window(st.center[0] ** 2 + st.center[1] ** 2):
                raise OriginMoved(f"{st} moves the origin")

    @classmethod
    def from_named(cls, name, repeats=2, support_radius=0.85):
        if name not in HAMILTONIANS:
            raise SchemaError("/g/hamiltonian", f"unknown hamiltonian {name!r}")
        s = support_radius
        steps = tuple(
            TwistStep(
                center=(d["center"][0] * s, d["center"][1] * s),
                amp=d["amp"],
                inner=d["inner"] * s,
                outer=d["outer"] * s,
            )
            for d in HAMILTONIANS[name]
        )
        return cls(steps=steps, repeats=repeats, h_tag=name, support_radius=s)

    def _sequence(self, inverse=False):
        seq = list(self.steps) * self.repeats
        return seq[::-1] if inverse else seq

    def _walk(self, pts, scale, inverse=False, jac=False, gen=False, turn=None):
        """One pass of the sub-step kernels of g (g^{-1} with inverse) over
        split coordinates: (image, Jacobian if jac, S if gen), the Jacobian
        as the full-stack product of the sub-steps' Jacobians; turn as in
        `TwistStep._move`."""
        px, py, shape = _split(pts)
        s = _per_entry((-scale if inverse else scale) / self.repeats, shape)
        J = np.broadcast_to(np.eye(2), px.shape + (2, 2)).copy() if jac else None
        S = np.zeros(px.shape) if gen else None
        for st in self._sequence(inverse):
            Js, dS = st._move(px, py, s, jac, gen, turn)
            if jac:
                J = Js @ J
            if gen:
                S = S + dS
        if jac:
            J = J.reshape(shape + (2, 2))
        if gen:
            S = S.reshape(shape)
        return _joined(px, py, shape), J, S

    def forward(self, pts, scale=1.0):
        return self._walk(pts, scale)[0]

    def inverse(self, pts, scale=1.0):
        return self._walk(pts, scale, inverse=True)[0]

    def jac_forward(self, pts, scale=1.0):
        return self._walk(pts, scale, jac=True)[1]

    def generating(self, pts, scale=1.0):
        """Primitive S with forward*beta - beta = dS, accumulated over the
        step sequence (S of a composition telescopes along partial images)."""
        return self._walk(pts, scale, gen=True)[2]

    def _chain(self, Z):
        """The sub-step chain of each point of Z (..., 2), flattened, as g
        is ramped from the identity: `forward`'s walk, recorded.  Its L + 1
        positions (L + 1, N) as complex numbers, and at each of the L
        sub-steps the psi and d2 that `TwistStep._move` records."""
        seq, rec = self._sequence(), []
        # `_move` walks a float buffer's columns in place; the pair loop of
        # ramp_winding reads its rows as complex numbers
        z = np.empty((len(seq) + 1, math.prod(Z.shape[:-1]), 2))
        z[0] = Z.reshape(-1, 2)
        for k, st in enumerate(seq):
            z[k + 1] = z[k]
            st._move(z[k + 1, :, 0], z[k + 1, :, 1], 1.0 / self.repeats, rec=rec)
        return z.view(complex)[..., 0], [r[0] for r in rec], [r[1] for r in rec]

    def ramp_winding(self, P, Q):
        """Winding D(P, Q), in turns, of s -> g_s(Q) - g_s(P) as g is
        ramped from the identity, its sub-steps one after another.

        Every ramp gives the same D: the sub-step amplitudes range over a
        cube, which is contractible.  P and Q broadcast against each other;
        each distinct point walks the sub-steps once (`_chain`) and the
        pairs are read from the chains, _CHUNK pairs at a time.  With
        A = p - c and B = q - c, a sub-step turns the separation q - p by
        psi of the point farther from the center plus
        arg(1 - (near/far) e^{i delta}) - arg(1 - near/far), which lies in
        (-pi, pi) since |near/far| <= 1; so that term is the wrapped
        remainder.  A sub-step that moves neither point of a pair turns it
        by exactly 0.
        """
        P, Q = as_xy(P), as_xy(Q)
        shape = np.broadcast_shapes(P.shape, Q.shape)[:-1]
        ndim = max(len(shape), 1)  # a single pair as a batch of one
        P = P.reshape((1,) * (ndim + 1 - P.ndim) + P.shape)
        Q = Q.reshape((1,) * (ndim + 1 - Q.ndim) + Q.shape)
        turn = np.zeros(np.broadcast_shapes(P.shape, Q.shape)[:-1])
        last = [None, None]  # each side's last key and chain
        for tile in _tiles(turn.shape, _CHUNK):
            t = turn[tile]
            (zp, pp, dp, ip), (zq, pq, dq, iq) = (
                self._tile_chain(Z, tile, t.shape, last, side)
                for side, Z in enumerate((P, Q))
            )
            t = t.reshape(-1)  # a view: a tile is contiguous
            every = slice(None)
            theta = np.angle(zq[0][iq(every)] - zp[0][ip(every)])
            for k in range(len(pp)):
                moved = (pp[k] != 0.0)[ip(every)] | (pq[k] != 0.0)[iq(every)]
                m = moved.nonzero()[0]
                if not m.size:
                    continue
                i, j = ip(m), iq(m)
                far = np.where(dp[k][i] > dq[k][j], pp[k][i], pq[k][j])
                theta1 = np.angle(zq[k + 1][j] - zp[k + 1][i])
                t[m] += far + wrap_to_pi(theta1 - theta[m] - far)
                theta[m] = theta1
        return turn.reshape(shape) / TWOPI

    def _tile_chain(self, Z, tile, shape, last, side):
        """(z, psi, d2, index) for the points of Z that a tile of pairs of
        `shape` reads: their `_chain` and index(m), which maps the pairs m
        of the tile's flat index to the points of the chain.  An axis along
        which Z broadcasts is read whole, so its chain is kept in
        last[side] for the next tile."""
        key = tuple(slice(None) if n == 1 else sl for n, sl in zip(Z.shape, tile))
        if last[side] is None or last[side][0] != key:
            last[side] = (key, self._chain(Z[key]))
        chain = last[side][1]
        size = len(chain[0][0])
        if size == math.prod(shape):
            return chain + (lambda m: m,)
        if size == 1:
            return chain + (lambda m: 0,)
        flat = np.broadcast_to(np.arange(size).reshape(Z[key].shape[:-1]), shape).ravel()
        return chain + (lambda m: flat[m],)

    def ramp_tangent_winding(self, P, V):
        """Winding, in turns, of s -> Dg_s(P) . V along the same ramp: the
        base points walk g's sub-steps, _CHUNK at a time, and V is carried
        by the Jacobian R(psi)[v + (psi'/rho)(w.v) i w] of each `_move` that
        moves its point, w = p - c.  The bracket keeps v's component along
        w, so it turns v by less than pi: the sub-step turns v by psi plus
        the wrapped remainder arg v' - arg v - psi."""
        P, V = np.broadcast_arrays(as_xy(P), as_xy(V))
        shape = P.shape[:-1]
        px, py, _ = _split(P)
        v = (V[..., 0] + 1j * V[..., 1]).ravel()
        turn = np.zeros(len(v))
        for lo in range(0, len(v), _CHUNK):
            bx, by = px[lo : lo + _CHUNK], py[lo : lo + _CHUNK]
            vc, tc, rec = v[lo : lo + _CHUNK], turn[lo : lo + _CHUNK], []
            for st in self._sequence():
                J = st._move(bx, by, 1.0 / self.repeats, jac=True, rec=rec)[0]
                psi = rec.pop()[0]
                m = psi.nonzero()[0]
                if not m.size:
                    continue
                v0, J = vc[m], J[m]
                x, y = v0.real, v0.imag
                v1 = (J[:, 0, 0] * x + J[:, 0, 1] * y) + 1j * (J[:, 1, 0] * x + J[:, 1, 1] * y)
                tc[m] += psi[m] + wrap_to_pi(np.angle(v1) - np.angle(v0) - psi[m])
                vc[m] = v1
        return turn.reshape(shape) / TWOPI


class Isotopy:
    """A time-parametrized family of area-preserving disk maps.

    Subclasses provide eval/jac (and velocity where the action module needs
    it).  eval(t) with t in [0, n] is the isotopy of f^n: n copies of the
    isotopy of f run one after another, so f_k = f^k at every integer k;
    jac and velocity are asked for t in [0, 1] only.  eval takes one time
    for every point, one time per point, or a column of S times (S, 1)
    against a batch (N, 2), which gives the batch at each time, (S, N, 2).
    Instances are immutable after construction and all evaluators are pure,
    so they are freely shareable.  The closed-form hooks answer None here:
    actions then come from path integrals, and windings, linking sums and
    orbit tracks' angles are tracked.
    """

    boundary_rot = 0.0
    domain_radius = 1.0

    def eval(self, t, pts):
        raise NotImplementedError

    def jac(self, t, pts):
        raise NotImplementedError

    def velocity(self, t, pts):
        raise NotImplementedError(f"{type(self).__name__} has no analytic velocity")

    def map(self, pts):
        return self.eval(1.0, pts)

    def orbit(self, pts, n):
        """Stack [z, ..., f^(n-1)(z)] on a new leading axis, one map per step."""
        pts = as_xy(pts)
        out = np.empty((n,) + pts.shape)
        out[0] = pts
        for i in range(1, n):
            out[i] = self.map(out[i - 1])
        return out

    def action_closed_form(self, pts, n=1):
        """Action of f^n at pts."""
        return None

    def windings_closed_form(self, X, Y, ns):
        """Windings (len(ns), ...) of the pairs (X, Y) under f^n, one row
        per n in ns, in the order given."""
        return None

    def linking_closed_form(self, X, Y, ns):
        """Sums over i, j < N of the windings of the pairs (f^i x, f^j y),
        (len(ns), K) for the K pairs (X, Y), one row per N in ns."""
        return None

    def tangent_windings_closed_form(self, base, dirs):
        """Windings of t -> Df_t(base) . dirs."""
        return None

    def leaf_angles(self, pts):
        """(angles, positions), two closures (t, idx) that share the batch's
        time-independent part: the lifted angles about the fixed origin of
        f_t(pts[idx]), continuous in t from a start branch of the family's
        choosing, and f_t(pts[idx]) as eval gives it; t as in eval, idx a
        slice or an index array."""
        return None


class ConjugatedRotation(Isotopy):
    """f_t = g o T_p^t o g^{-1}: the radial twist T_p, which turns each
    point by 2 pi t p(r), conjugated by a compactly supported g (None for
    the identity).  p is alpha, or with beta the plane extension's profile
    alpha + clip(r - 1, 0, beta - alpha) on the disk of radius
    1 + beta - alpha.  g is supported in r <= support_radius < 1, where
    p = alpha, so f turns the unit circle rigidly by alpha.  Every
    closed-form hook answers: the square (s, t) -> g_s T_p^t w splits each
    quantity into the radial twist's, in closed form, and g's ramp.

    With deform=True the conjugacy amplitude is also ramped with t
    (g_t T_p^t g_t^{-1}), a second isotopy of the same map for winding
    cross-checks, whose windings have no closed form.  It is not a flow,
    so past t = 1 it runs the ramp again over t - k from f^k z,
    k = floor(t), entry by entry.
    """

    def __init__(self, alpha, g, deform=False, beta=None):
        check_irrational(alpha, "alpha")
        self.alpha, self.g, self.deform = float(alpha), g, bool(deform)
        self.boundary_rot, self.beta = self.alpha, None if beta is None else float(beta)
        if beta is not None:
            if beta <= alpha:
                raise BadInterval(f"need beta > alpha, got alpha={alpha}, beta={beta}")
            if math.floor(beta) > math.floor(alpha):
                msg = f"(alpha, beta)=({alpha}, {beta}) straddles an integer"
                warnings.warn(msg, NearRationalWarning, stacklevel=3)
            self.domain_radius = 1.0 + self.beta - self.alpha

    def _conj(self, pts, s=1.0, inverse=False):
        """g_s(pts), or g_s^{-1}(pts) with inverse; pts itself for g = None."""
        if self.g is None:
            return pts
        return self.g.inverse(pts, s) if inverse else self.g.forward(pts, s)

    def _unwalk(self, pts, s=1.0, jac=False, gen=False):
        """g_s^{-1}(pts) with its Jacobian if jac and its primitive if gen,
        from one walk (`ConjugacyMap._walk`); pts and Nones for g = None."""
        if self.g is None:
            return pts, None, None
        return self.g._walk(pts, s, inverse=True, jac=jac, gen=gen)

    def _band(self, w):
        """p(|w|) - alpha at the points w: clip(|w| - 1, 0, beta - alpha) on
        a plane, else the scalar 0."""
        if self.beta is None:
            return 0.0
        return np.clip(radii_of(w) - 1.0, 0.0, self.beta - self.alpha)

    def _turns(self, w, b, ks):
        """The angles 2 pi k p(|w|) of T_p^k at the points w of bands b,
        one row per k in ks, with k alpha mod 1 exact in integers."""
        num, den = self.alpha.as_integer_ratio()
        col = (-1,) + (1,) * (w.ndim - 1)
        a = TWOPI * np.array([k * num % den / den for k in ks]).reshape(col)
        return a if self.beta is None else a + TWOPI * np.reshape(ks, col) * b

    def _power(self, w, b, n):
        """T_p^n w, for the points w of bands b."""
        return rotate(w, self._turns(w, b, (n,))[0])

    def _twist_orbit(self, z, n):
        """(T_p^k w, k = 0..n, on a new leading axis, w's bands), w = g^{-1}(z)."""
        w = self._conj(as_xy(z), inverse=True)
        b = self._band(w)
        return rotate(np.broadcast_to(w, (n + 1,) + w.shape), self._turns(w, b, range(n + 1))), b

    def _twist(self, w, t):
        """T_p^t w at times t as eval takes them; w is broadcast to a column
        of times."""
        a = TWOPI * t * (self.alpha + self._band(w))
        if np.ndim(a) >= w.ndim:  # more time axes than the batch has
            w = np.broadcast_to(w, np.broadcast_shapes(np.shape(a), w.shape[:-1]) + (2,))
        return rotate(w, a)

    def _restart(self, t, pts):
        """(t - k, z, k) where the deformed ramp restarts: k = floor(t) where
        t > 1 and 0 elsewhere, and z the points broadcast against t, f^k
        applied where k > 0, once for each distinct (k, point).  At k = 0 z
        is the point itself, whose bits g g^{-1} would not keep."""
        k = np.where(t > 1.0, np.floor(t), 0.0)
        shape = np.broadcast_shapes(k.shape, pts.shape[:-1])
        z, mask = np.broadcast_to(pts, shape + (2,)), np.broadcast_to(k > 0, shape)
        if mask.any():
            flat = pts.reshape(-1, 2)
            src = np.broadcast_to(np.arange(len(flat)).reshape(pts.shape[:-1]), shape)
            key = np.broadcast_to(k, shape)[mask].astype(np.intp) * len(flat) + src[mask]
            key, inv = np.unique(key, return_inverse=True)
            kk, b = np.divmod(key, len(flat))
            z = np.array(z)
            z[mask] = self._conj(self._twist(self._conj(flat[b], inverse=True), kk))[inv]
        return t - k, z, k

    def _ramp(self, t, pts):
        """g_t T_p^t g_t^{-1}(pts), the deformed ramp at t <= 1, scalar or
        one per point."""
        return self._conj(self._twist(self._conj(pts, t, inverse=True), t), t)

    def eval(self, t, pts):
        """f_t(pts), t as `Isotopy` describes; without deform g^{-1} is
        walked once over pts, whatever the number of times."""
        pts = as_xy(pts)
        if self.deform:
            return self._ramp(*self._restart(t, pts)[:2])
        return self._conj(self._twist(self._conj(pts, inverse=True), t))

    def leaf_angles(self, pts):
        """One walk of g per call: T_p^t turns w = g^{-1}(z) to the lifted
        angle theta(w) + 2 pi t p(|w|), and `TwistStep._move` carries it
        through g's sub-steps, so theta(f_t z) - theta(z) = 2 pi [t p(|w|) +
        D(0, T_p^t w) - D(0, w)], D the conjugacy's `ramp_winding`.  The
        positions walk g over the same T_p^t w, which is eval less its walk
        of g^{-1}.  None for the deformed variant."""
        if self.deform:
            return None
        w = self._conj(as_xy(pts), inverse=True)
        p, theta = self.alpha + self._band(w), angles_of(w)

        def angles(t, idx):
            a = TWOPI * t * _at(p, idx)
            turn = theta[idx] + a
            if self.g is not None:
                wi = np.broadcast_to(w[idx], turn.shape + (2,))
                self.g._walk(rotate(wi, a), 1.0, turn=turn.reshape(-1))
            return turn

        return angles, lambda t, idx: self._conj(self._twist(w[idx], t))

    def orbit(self, pts, n):
        """g T_p^k g^{-1} in one conjugacy pass."""
        pts = as_xy(pts)
        return np.concatenate([pts[None], self._conj(self._twist_orbit(pts, n - 1)[0][1:])])

    def jac(self, t, pts):
        pts = as_xy(pts)
        if self.deform and np.max(t) > 1.0:
            # the chain rule through the restart: J_ramp(t - k, f^k z) Df^k(z)
            tk, fk, k = self._restart(t, pts)
            Dk = np.where((k > 0)[..., None, None], self._jac(k, pts, 1.0), np.eye(2))
            return self._jac(tk, fk, tk) @ Dk
        return self._jac(t, pts, t if self.deform else 1.0)

    def _jac(self, t, pts, s):
        """Jacobian Dg_s DT_p^t Dg_s^{-1} of g_s T_p^t g_s^{-1}, without the
        conjugacy's factors for g = None."""
        w, Ji, _ = self._unwalk(pts, s, jac=True)
        psi = TWOPI * t * (self.alpha + self._band(w))
        J = rotation_matrices(psi, shape=w.shape[:-1])
        if self.g is None and self.beta is None:  # a rigid rotation
            return J
        tw = rotate(w, psi)
        if self.beta is not None:
            # the band's shear (psi'/r) (i T w) outer w, with psi' = 2 pi t
            r = radii_of(w)
            k = np.zeros_like(r)
            np.divide(TWOPI * t * ((r > 1.0) & (r < self.domain_radius)), r, out=k, where=r > 0)
            J = J + rot90(tw)[..., :, None] * (k[..., None, None] * w[..., None, :])
        return J if self.g is None else self.g.jac_forward(tw, s) @ J @ Ji

    def velocity(self, t, pts):
        if self.deform:
            raise NotImplementedError("deformed variant has no analytic velocity")
        w = self._conj(as_xy(pts), inverse=True)
        p = self.alpha + self._band(w)
        tw = rotate(w, TWOPI * t * p)
        v = TWOPI * np.expand_dims(p, -1) * rot90(tw)
        return v if self.g is None else (self.g.jac_forward(tw) @ v[..., None])[..., 0]

    def action_closed_form(self, pts, n=1):
        """Action of f^n: a(z) = n a_T(|w|) + S_g(T_p^n w) - S_g(w) with
        w = g^{-1}(z), where a_T(r) = alpha + ((1 + b)^3 - 1)/3, b = p(r) -
        alpha, is the radial twist's action, alpha on the unit circle.  One
        walk gives w and -S_g(w), g^{-1}'s primitive at z.  The deformed
        variant has the same action: it depends on the isotopy only through
        f and the boundary path, which g_t leaves alone."""
        z = as_xy(pts)
        w, _, S = self._unwalk(z, gen=True)
        b = self._band(w)
        a = n * (self.alpha + b * (1.0 + b * (1.0 + b / 3.0)))
        if self.g is None:
            return np.full(z.shape[:-1], a)
        return a + self.g.generating(self._power(w, b, n)) + S

    def _twist_windings(self, wx, wy, tx, ty, bx, by, n):
        """Windings W_{T_p^n} of the pairs (wx, wy) of bands (bx, by), images
        (tx, ty), where the bands and n broadcast against the pairs' shape:
        n p(r_far) turns, plus the wrapped remainder of `ramp_winding`'s
        sub-step at centre 0 where the two points have different p, so a
        pair that T_p turns rigidly keeps its bits."""
        if self.beta is None:
            return n * self.alpha
        shape = np.broadcast_shapes(wx.shape, wy.shape)[:-1]
        # b grows with r, so the farther point has the larger b
        W = np.array(np.broadcast_to(n * (self.alpha + np.maximum(bx, by)), shape))
        moved = np.broadcast_to(bx != by, shape)
        if moved.any():
            d0, d1 = (np.broadcast_to(q - p, W.shape + (2,))[moved] for p, q in ((wx, wy), (tx, ty)))
            W[moved] += wrap_to_pi(angles_of(d1) - angles_of(d0) - TWOPI * W[moved]) / TWOPI
        return W

    def windings_closed_form(self, X, Y, ns):
        """Windings (len(ns), ...) of the pairs (X, Y) under f^n, one row
        per n in ns, without a time grid; None for the deformed variant.

        The square (s, t) -> g_s T_p^t w, t in [0, n], winds zero times
        around its boundary, and its s = 0 side is the radial twist.  So
        with w = g^{-1}(.) and D the conjugacy's `ramp_winding`,
        W_{f^n} = W_{T_p^n}(w_X, w_Y) + D(T_p^n w_X, T_p^n w_Y) - D(w_X, w_Y):
        len(ns) + 1 evaluations of D and no map call.
        """
        if self.deform:
            return None
        wx, wy = (self._conj(as_xy(V), inverse=True) for V in (X, Y))
        bx, by = self._band(wx), self._band(wy)
        shape = np.broadcast_shapes(wx.shape, wy.shape)[:-1]
        D0 = 0.0 if self.g is None else self.g.ramp_winding(wx, wy)

        def W(n):
            tx, ty = self._power(wx, bx, n), self._power(wy, by, n)
            D = 0.0 if self.g is None else self.g.ramp_winding(tx, ty) - D0
            return np.broadcast_to(self._twist_windings(wx, wy, tx, ty, bx, by, n) + D, shape)

        return np.array([W(n) for n in ns])

    def orbit_windings_closed_form(self, x, y, n):
        """W[i, j] = W(f^i x, f^j y), i, j < n, by the square of
        `windings_closed_form` on the orbits T_p^i w_x, T_p^j w_y in g^{-1}
        coordinates: W_T[i, j] + M[i+1, j+1] - M[i, j], with W_T the twist
        windings of the pairs and M[i, j] = D(T_p^i w_x, T_p^j w_y), one
        (n + 1)^2 matrix of D and no map call; None for the deformed
        variant."""
        if self.deform:
            return None
        (TX, bx), (TY, by) = self._twist_orbit(x, n), self._twist_orbit(y, n)
        # T_p keeps radii, so one band per orbit serves its axis of the grid
        W = self._twist_windings(TX[:-1, None], TY[None, :-1], TX[1:, None], TY[None, 1:], bx, by, 1)
        if self.g is None:
            return W + np.zeros((n, n))
        M = self.g.ramp_winding(TX[:, None], TY[None, :])
        return W + (M[1:, 1:] - M[:-1, :-1])

    def linking_closed_form(self, X, Y, ns):
        """Sums over i, j < N of `orbit_windings_closed_form`'s W_T[i, j] +
        M[i+1, j+1] - M[i, j], each correctly rounded: M telescopes to its
        hook (c, c), (c, k), (k, c), 0 < k < N, at c = N less the one at 0,
        all read in one `ramp_winding` call.  W_T sums to N^2 alpha, or on a
        plane over the square's diagonals to W_{T_p^L} at each diagonal's
        first pair, L its length.  None for the deformed variant."""
        if self.deform:
            return None
        n, K, sizes = max(ns), len(X), [2 * N - 1 for N in ns]
        cuts = np.cumsum(sizes)[:-1]
        (TX, bx), (TY, by) = self._twist_orbit(X, n), self._twist_orbit(Y, n)
        # the hooks at (0, 0) up to n and at (N, N) for each N, entry t of
        # the one at (c, c) being (c, c), (c, 1), (1, c), (c, 2), ...
        t = np.concatenate([np.arange(2 * N - 1) for N in [n, *ns]])
        c = np.repeat([0, *ns], [2 * n - 1, *sizes])
        k = np.where(t == 0, c, (t + 1) // 2)
        I, J = np.where(t % 2, c, k), np.where(t % 2, k, c)
        M = np.zeros((len(I), K)) if self.g is None else self.g.ramp_winding(TX[I], TY[J])
        if self.beta is None:  # N^2 alpha as alpha's power-of-two multiples, each exact
            T = [np.array([[self.alpha * 2.0**e] * K for e in range(2 * N.bit_length()) if N * N >> e & 1]) for N in ns]
        else:
            d = np.concatenate([np.arange(1 - N, N) for N in ns])
            a, b, L = np.maximum(d, 0), np.maximum(-d, 0), np.repeat(ns, sizes) - abs(d)
            T = np.split(self._twist_windings(TX[a], TY[b], TX[a + L], TY[b + L], bx, by, L[:, None]), cuts)
        parts = zip(np.split(M[2 * n - 1 :], cuts), sizes, T)
        return np.array([[math.fsum(v) for v in np.concatenate((h, -M[:s], w)).T.tolist()] for h, s, w in parts])

    def tangent_windings_closed_form(self, base, dirs):
        """Windings of t -> Df_t(base) . dirs by the same square of tangent
        vectors: W_T + D'(T_p w, DT_p u) - D'(w, u), with w = g^{-1}(base),
        u = Dg^{-1}(base) . dirs and D' the conjugacy's
        `ramp_tangent_winding`.  DT_p u = R(psi)[u + (psi'/r)(w.u) i w], a
        bracket that turns u by less than pi, as `_move`'s: W_T is p plus the
        wrapped remainder on the band, p elsewhere.  None for the deformed
        variant."""
        if self.deform:
            return None
        w, Ji, _ = self._unwalk(as_xy(base), jac=True)
        u = as_xy(dirs) if Ji is None else as_xy(dirs) @ Ji.T
        b = self._band(w)
        a, W = self._turns(w, b, (1,))[0], self.alpha + b
        tu = rotate(u, a)
        if self.beta is not None and 1.0 < radii_of(w) < self.domain_radius:
            tu = rotate(u + (TWOPI / radii_of(w)) * (u @ w)[:, None] * rot90(w), a)
            W = W + wrap_to_pi(angles_of(tu) - angles_of(u) - TWOPI * W) / TWOPI
        if self.g is None:
            return W + np.zeros(len(u))
        ramp = self.g.ramp_tangent_winding
        return W + ramp(rotate(w, a), tu) - ramp(w, u)

    def config(self):
        cfg = {"family": "rigid", "alpha": self.alpha}
        if self.g is not None:
            g = {"hamiltonian": self.g.h_tag, "steps": self.g.repeats,
                 "support_radius": self.g.support_radius}
            cfg = {"family": "conjugated", "alpha": self.alpha, "g": g, "deform": self.deform}
        if self.beta is None:
            return cfg
        plane = {"family": "plane-extension", "alpha": self.alpha, "beta": self.beta}
        return plane if self.g is None else {**plane, "core": cfg}


class RigidRotation(ConjugatedRotation):
    """f_t = rotation by 2 pi t alpha: the identity conjugacy, constant p."""

    def __init__(self, alpha):
        super().__init__(alpha, None)


class PlaneExtension(ConjugatedRotation):
    """Radial-profile extension of a pseudo-rotation to the disk of radius
    1 + beta - alpha: p(r) is alpha for r <= 1, alpha + r - 1 on the linear
    band 1 <= r <= 1 + beta - alpha, and beta beyond.  A core, rigid or
    conjugated with the plane's alpha, lends the plane its g and deform."""

    def __init__(self, alpha, beta, core=None):
        g, deform = getattr(core, "g", None), getattr(core, "deform", False)
        super().__init__(alpha, g, deform, beta=beta)


def _finite(value):
    """value is a JSON number below 1e308 in magnitude, which rules out NaN,
    the infinities and integers too big for a float; booleans are not
    numbers."""
    return type(value) in (int, float) and -1e308 < value < 1e308


def _resolve_alpha(value, pointer):
    if value == "golden":
        return GOLDEN
    if _finite(value):
        return float(value)
    raise SchemaError(pointer, f"expected a finite number or 'golden', got {value!r}")


def from_config(cfg):
    """Build an isotopy from a JSON-style config document.

    Schema:
      {"family": "rigid", "alpha": <real | "golden">}
      {"family": "conjugated", "alpha": ..., "deform": <true | false, optional>,
       "g": {"hamiltonian": <name>, "steps": <int>, "support_radius": <real>}}
      {"family": "plane-extension", "alpha": ..., "beta": <real>,
       "core": <optional rigid or conjugated config with the same alpha>}
    A rigid core loads as no core.
    """
    if not isinstance(cfg, dict):
        raise SchemaError("", f"config must be an object, got {type(cfg).__name__}")
    family = cfg.get("family")
    if family is None:
        raise SchemaError("/family", "missing required field")
    if family == "rigid":
        return RigidRotation(_resolve_alpha(cfg.get("alpha", "golden"), "/alpha"))
    if family == "conjugated":
        alpha = _resolve_alpha(cfg.get("alpha", "golden"), "/alpha")
        gcfg = cfg.get("g", {})
        if not isinstance(gcfg, dict):
            raise SchemaError("/g", "must be an object")
        name = gcfg.get("hamiltonian", "twist-a")
        if not isinstance(name, str):
            raise SchemaError("/g/hamiltonian", f"must be a name, got {name!r}")
        steps = gcfg.get("steps", 2)
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            raise SchemaError("/g/steps", f"must be a positive integer, got {steps!r}")
        sr = gcfg.get("support_radius", 0.85)
        if not isinstance(sr, (int, float)) or not 0.1 < sr < 1.0:
            raise SchemaError("/g/support_radius", f"must lie in (0.1, 1), got {sr!r}")
        g = ConjugacyMap.from_named(name, repeats=steps, support_radius=float(sr))
        deform = cfg.get("deform", False)
        if not isinstance(deform, bool):
            raise SchemaError("/deform", f"must be true or false, got {deform!r}")
        return ConjugatedRotation(alpha, g, deform=deform)
    if family == "plane-extension":
        alpha = _resolve_alpha(cfg.get("alpha", "golden"), "/alpha")
        beta = cfg.get("beta")
        if not _finite(beta):
            raise SchemaError("/beta", f"must be a finite number, got {beta!r}")
        core = from_config(cfg["core"]) if "core" in cfg else None
        # the core must meet the band where p = alpha: a core turning the
        # unit circle by another alpha would make the map jump at r = 1
        if core is not None and core.beta is not None:
            raise SchemaError("/core/family", "must be rigid or conjugated, got a plane extension")
        if core is not None and core.alpha != alpha:
            raise SchemaError("/core/alpha", f"must equal the plane's alpha {alpha}, got {core.alpha}")
        return PlaneExtension(alpha, float(beta), core=core)
    raise SchemaError("/family", f"unknown family {family!r}")
