"""Winding numbers of point pairs along an isotopy, and tangent extensions.

Every angle the package follows over time is unwrapped by one engine,
`track`: the angle of a batch of vectors is sampled on a uniform time grid
and continued against the previous sample.  Every result carries a
no-aliasing certificate: each unwrapped step moves the angle by less than
pi/2.  A grid step that fails is bisected for its entry alone, and each
failing half again, until every sub-step passes (up to a depth cap), so a
few fast-swinging entries do not force the whole batch onto a finer grid.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import CoincidentPoints, RefinementExhausted, SingularJacobian
from .geometry import TWOPI, as_xy, radii_of, wrap_to_pi

ALIAS_BOUND = 0.5 * math.pi
MERGE_EPS = 1e-9
INIT_STEPS = 64
MAX_REFINEMENTS = 24
_TINY = 1e-13
ALL = slice(None)


def _angles(v):
    x, y = v[:, 0], v[:, 1]
    if np.min(x * x + y * y) < _TINY * _TINY:
        raise CoincidentPoints("zero vector along the track")
    return np.arctan2(y, x)


def track(vec_at, n, steps, grid=False):
    """Certified unwrapped angles of n vectors over t in [0, 1].

    vec_at(t, idx) returns the (len(idx), 2) vectors of the entries idx at
    time t: a scalar t with idx = ALL on the uniform grid of `steps` steps,
    and an array of per-entry times with an index array inside failing
    steps.  Raises RefinementExhausted when a step still fails after
    MAX_REFINEMENTS bisections.

    Returns (turn, depth): the angle change over [0, 1] in radians and the
    deepest bisection of each entry, both (n,).  With grid=True returns
    (vecs, theta, depth) instead: the vectors (steps+1, n, 2) and the
    unwrapped angles (steps+1, n) at the grid times.
    """
    times = np.linspace(0.0, 1.0, steps + 1)
    return _track(lambda k: vec_at(times[k], ALL), vec_at, n, steps, grid)


def _track(row, vec_at, n, steps, grid):
    """`track` with the grid vectors of step k given by row(k), so a grid
    already evaluated is not evaluated again; vec_at serves bisections."""
    times = np.linspace(0.0, 1.0, steps + 1)
    v = row(0)
    prev = _angles(v)
    if grid:
        vecs = np.empty((steps + 1, n, 2))
        vecs[0] = v
        # row 0 holds the start angles, so the cumulative sum unwraps
        dtheta = np.empty((steps + 1, n))
        dtheta[0] = prev
    else:
        total = np.zeros(n)
    failed = []
    for k in range(1, steps + 1):
        v = row(k)
        raw = _angles(v)
        d = wrap_to_pi(raw - prev)
        bad = np.abs(d) >= ALIAS_BOUND
        if bad.any():
            ii = np.nonzero(bad)[0]
            failed.append((np.full(len(ii), k), ii, prev[ii], raw[ii]))
            d[bad] = 0.0
        if grid:
            vecs[k] = v
            dtheta[k] = d
        else:
            total += d
        prev = raw

    depth = np.zeros(n, dtype=int)
    if failed:
        # bisect each failing (entry, step) pair; pid lists the pairs still
        # failing, sub collects each pair's certified sub-steps
        step, ent, a0, a1 = (np.concatenate(c) for c in zip(*failed))
        t0, t1 = times[step - 1], times[step]
        sub = np.zeros(len(ent))
        pid = np.arange(len(ent))
        for level in range(1, MAX_REFINEMENTS + 1):
            depth[ent[pid]] = level
            tm = 0.5 * (t0 + t1)
            am = _angles(vec_at(tm, ent[pid]))
            d1 = wrap_to_pi(am - a0)
            d2 = wrap_to_pi(a1 - am)
            ok1 = np.abs(d1) < ALIAS_BOUND
            ok2 = np.abs(d2) < ALIAS_BOUND
            np.add.at(sub, pid[ok1], d1[ok1])
            np.add.at(sub, pid[ok2], d2[ok2])
            b1, b2 = ~ok1, ~ok2
            if not (b1.any() or b2.any()):
                break
            pid = np.concatenate([pid[b1], pid[b2]])
            t0, t1 = np.concatenate([t0[b1], tm[b2]]), np.concatenate([tm[b1], t1[b2]])
            a0, a1 = np.concatenate([a0[b1], am[b2]]), np.concatenate([am[b1], a1[b2]])
        else:
            raise RefinementExhausted(
                f"no-aliasing bound not certified after {MAX_REFINEMENTS} bisections"
            )
        if grid:
            dtheta[step, ent] = sub
        else:
            np.add.at(total, ent, sub)
    if grid:
        return vecs, np.cumsum(dtheta, axis=0), depth
    return total, depth


def _entry_trajectory(iso, P, shape):
    """Trajectory of the pair entries' points P broadcast to `shape`.  One
    point (2,) shared by every entry is evaluated once per grid time."""
    if P.ndim == 1:
        at = iso.trajectory(P[None])
        return lambda t, idx: at(t, idx if idx is ALL else np.zeros_like(idx))
    P = np.ascontiguousarray(np.broadcast_to(P, shape), dtype=float).reshape(-1, 2)
    return iso.trajectory(P)


def _pair_track(iso, X, Y, merge_eps=MERGE_EPS, init_steps=INIT_STEPS):
    """(windings, bisection depths) of paired point arrays X[i], Y[i]; either
    side may be one point (2,) paired with every point of the other."""
    X = as_xy(X)
    Y = as_xy(Y)
    shape = np.broadcast_shapes(X.shape, Y.shape)
    if radii_of(Y - X).min() <= merge_eps:
        raise CoincidentPoints(f"pair separation <= merge_eps={merge_eps}")
    fx = _entry_trajectory(iso, X, shape)
    fy = _entry_trajectory(iso, Y, shape)
    turn, depth = track(
        lambda t, idx: fy(t, idx) - fx(t, idx), math.prod(shape[:-1]), init_steps
    )
    return turn.reshape(shape[:-1]) / TWOPI, depth.reshape(shape[:-1])


def pair_windings(iso, X, Y, merge_eps=MERGE_EPS, init_steps=INIT_STEPS):
    """Windings of paired point arrays X[i] with Y[i] under the isotopy."""
    return _pair_track(iso, X, Y, merge_eps, init_steps)[0]


def winding(iso, x, y, merge_eps=MERGE_EPS):
    """Winding number of the vector from f_t(x) to f_t(y), in turns.

    Symmetric in its arguments: the connecting vector and its negation
    wind identically.
    """
    return float(pair_windings(iso, x, y, merge_eps))


def winding_tangent(iso, base, direction):
    """Winding of t -> jac(t, base) . xi, the blow-up value on the diagonal.

    direction is one vector (2,) or K vectors (K, 2) at the same base; the
    K directions are tracked as one batch and K windings returned.
    """
    b = as_xy(base)
    xi = np.asarray(direction, dtype=float)
    dirs = xi.reshape(-1, 2)

    def vec_at(t, idx):
        J = iso.jac(t, np.broadcast_to(b, np.shape(t) + (2,)))
        v = (J @ dirs[idx][..., None])[..., 0]
        if np.hypot(v[..., 0], v[..., 1]).min() < 1e-14:
            raise SingularJacobian("jacobian image too small to normalize")
        return v

    turn, _ = track(vec_at, len(dirs), INIT_STEPS)
    w = turn / TWOPI
    return w if xi.ndim > 1 else w[0]


def pair_windings_iterated(iso, X, Y, n, merge_eps=MERGE_EPS):
    """Windings of paired arrays under the n-fold concatenated isotopy,
    summed over the iterates; returns (N,) turns.  A single point (2,)
    stays one point through the iterates."""
    X = as_xy(X)
    Y = as_xy(Y)
    total = np.zeros(np.broadcast_shapes(X.shape, Y.shape)[:-1])
    for _ in range(n):
        total += pair_windings(iso, X, Y, merge_eps=merge_eps)
        X = iso.map(X)
        Y = iso.map(Y)
    return total


def winding_matrix(iso, xs, ys, merge_eps=MERGE_EPS):
    """All cross windings W[i, j] = winding(xs[i], ys[j]) in one sweep.

    Each grid sample evaluates the two point sets once and forms all n*m
    separation vectors; a cell whose step fails the certificate is bisected
    alone, from its own pair of points.
    """
    xs = as_xy(xs)
    ys = as_xy(ys)
    zx = xs[:, 0] + 1j * xs[:, 1]
    zy = ys[:, 0] + 1j * ys[:, 1]
    sep = np.abs(zy[None, :] - zx[:, None])
    if sep.min() <= merge_eps:
        i, j = np.unravel_index(np.argmin(sep), sep.shape)
        raise CoincidentPoints(f"points xs[{i}] and ys[{j}] within merge_eps")
    n, m = len(xs), len(ys)
    fx, fy = iso.trajectory(xs), iso.trajectory(ys)

    def vec_at(t, idx):
        if idx is ALL:
            return (fy(t, ALL)[None, :] - fx(t, ALL)[:, None]).reshape(-1, 2)
        i, j = np.divmod(idx, m)
        return fy(t, j) - fx(t, i)

    turn, _ = track(vec_at, n * m, INIT_STEPS)
    return turn.reshape(n, m) / TWOPI


def position_angle_tracks(iso, pts, steps=INIT_STEPS):
    """Certified tracks of f_t(z) on the uniform grid of `steps` steps.

    Returns (times, pos (T+1, N, 2), theta (T+1, N)).
    """
    trk = OrbitTrack(iso, pts, 1, steps)
    return np.linspace(0.0, 1.0, steps + 1), trk.pos[0], trk.ang[0]


class OrbitTrack:
    """Certified tracks of f_t(f^k z), t in [0, 1], k < n, of a batch of
    points, each iterate on its own uniform grid of T steps: one track that
    every consumer reads instead of tracking the same orbits again.

    pos (n, T+1, N, 2): row 0 is iterate k's own start sample f_0(f^k z),
    row T is f^(k+1) z.  ang (n, T+1, N): each iterate's unwrapped angles
    from its own row-0 angle.  depth (N,): each entry's deepest bisection.
    """

    def __init__(self, iso, pts, n, steps=INIT_STEPS):
        self.pts = as_xy(pts)
        self._at = []
        self._alloc(n, steps, np.arange(len(self.pts)))
        times = np.linspace(0.0, 1.0, steps + 1)
        for k in range(n):
            start = self.pos[k - 1, -1].copy() if k else self.pts
            self._at.append(iso.trajectory(start))
            self._track(k, lambda j: self._at[k](times[j], ALL))

    def _alloc(self, n, steps, ent):
        # ent maps the entries into the batch the trajectories were built for
        self.steps, self._ent = steps, ent
        self.pos = np.empty((n, steps + 1, len(ent), 2))
        self.ang = np.empty((n, steps + 1, len(ent)))
        self.depth = np.zeros(len(ent), dtype=int)

    def _track(self, k, row):
        at, ent = self._at[k], self._ent
        self.pos[k], self.ang[k], depth = _track(
            row, lambda t, idx: at(t, ent[idx]), len(ent), self.steps, grid=True
        )
        np.maximum(self.depth, depth, out=self.depth)

    def refine(self, idx):
        """Keep the entries idx and double their steps, in place.  The even
        rows are the current grid and only the midpoint times are
        evaluated, so the result equals a fresh track bit for bit."""
        old = self.pos
        self.pts = self.pts[idx]
        self._alloc(len(self._at), 2 * self.steps, self._ent[idx])
        times = np.linspace(0.0, 1.0, self.steps + 1)
        for k, at in enumerate(self._at):
            self._track(
                k, lambda j: at(times[j], self._ent) if j % 2 else old[k, j // 2, idx]
            )

    def shifts(self, theta0):
        """Branch shifts (n, N) continuing the angles across iterates:
        ang[k] + shifts[k] starts where iterate k-1 ended, and iterate 0
        is moved onto the branch of theta0 at t = 0."""
        shift = np.empty((len(self.ang), len(self._ent)))
        shift[0] = np.round((np.asarray(theta0) - self.ang[0, 0]) / TWOPI) * TWOPI
        for k in range(1, len(shift)):
            shift[k] = (self.ang[k - 1, -1] + shift[k - 1]) - self.ang[k, 0]
        return shift

    def pair_windings(self):
        """Windings (n, M) of the entry pairs (i, M + i), M = N/2, over each
        iterate, equal to `pair_windings` of the iterates' start points; a
        failing step is bisected through the iterate's trajectory."""
        ent, M = self._ent, len(self._ent) // 2
        out = np.empty((len(self._at), M))
        start = self.pts
        for k, (at, P) in enumerate(zip(self._at, self.pos)):
            if radii_of(start[M:] - start[:M]).min() <= MERGE_EPS:
                raise CoincidentPoints(f"pair separation <= merge_eps={MERGE_EPS}")
            rows = lambda j: P[j, M:] - P[j, :M]
            vec_at = lambda t, idx: at(t, ent[M + idx]) - at(t, ent[idx])
            turn, _ = _track(rows, vec_at, M, self.steps, grid=False)
            out[k] = turn / TWOPI
            start = P[-1]
        return out
