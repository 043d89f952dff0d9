"""Winding numbers of point pairs along an isotopy, and tangent extensions.

`pair_windings_iterated` (with `pair_windings` its n = 1 row, whose
broadcast point arrays also give cross matrices) and `winding_tangent`
first ask the isotopy for its closed form (`Isotopy.windings_closed_form`,
`tangent_windings_closed_form`): every family g T_p g^{-1} but the
deformed variant has one, exact and with no time grid.  Iterated windings
are the cumulative W_{f^n}, n in ns, and give every integer-time winding,
the origin windings behind m too.  `OrbitTrack`, the grid of f_t z over
t in [0, n] behind the lambda and tau lifts, takes its lifted angles, and
the few positions its readers need, from `Isotopy.leaf_angles` where the
family has them (all but the deformed variant), exact at each grid time.
Every other angle is unwrapped by one engine, `track`, from positions
that `Isotopy.eval` gives: the deformed variant's pair windings
(`_pair_track`, whose bisection depth is the `refinements` column of the
`winding` command) and orbit tracks, and the cross-checks that take the
tracker on purpose.  The angle of a batch of vectors is sampled on a
uniform time grid and continued against the previous sample, a block of
grid rows at a time: `OrbitTrack` evaluates up to BLOCK points of grid
rows per call, a column of times, and unwraps a tracked grid's principal
angles with array operations; the positions its readers need are
evaluated again on demand (`OrbitTrack.positions`).  Every tracked result
carries a no-aliasing check: each unwrapped step moves the angle by less
than pi/2.  A grid step that fails is bisected for its entry alone, and
each failing half again, until every sub-step passes (up to a depth cap),
so a few fast-swinging entries do not force the whole batch onto a finer
grid.
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
# points per eval call and per unwrapped block of an orbit track's grid
# rows; a batch wider than this goes one row at a time, so the block
# adds no memory there
BLOCK = 8192
_TINY = 1e-13
ALL = slice(None)


def _angles(v):
    x, y = v[..., 0], v[..., 1]
    if np.min(x * x + y * y) < _TINY * _TINY:
        raise CoincidentPoints("zero vector along the track")
    return np.arctan2(y, x)


def track(vec_at, n, steps):
    """Certified unwrapped angles of n vectors over t in [0, 1].

    vec_at(t, idx) returns the (len(idx), 2) vectors of the entries idx at
    time t: a scalar t with idx = ALL on the uniform grid of `steps` steps,
    and an array of per-entry times with an index array inside failing
    steps.  Raises RefinementExhausted when a step still fails after
    MAX_REFINEMENTS bisections.

    Returns (turn, depth): the angle change over [0, 1] in radians and the
    deepest bisection of each entry, both (n,).
    """
    times = np.linspace(0.0, 1.0, steps + 1)
    return _track((_angles(vec_at(t, ALL))[None] for t in times), vec_at, n, times)


def _row_blocks(rows, width):
    """Slices of consecutive grid rows, at most BLOCK points of `width`
    entries each and at least one row."""
    per = max(1, BLOCK // width)
    return (slice(lo, lo + per) for lo in range(0, rows, per))


def _track(blocks, vec_at, n, times, grid=False):
    """`track` of the vectors at the grid `times`, given by their principal
    angles in blocks (B, n) of consecutive rows from the first time to the
    last, so a grid already evaluated is not evaluated again; vec_at serves
    bisections.  With grid=True returns (theta, depth) instead: the
    unwrapped angles (len(times), n) at the grid times."""
    if grid:
        # row 0 holds the start angles, so the cumulative sum unwraps
        dtheta = np.empty((len(times), n))
    else:
        total = np.zeros(n)
    failed = []
    prev, k = None, 1  # the angles of the last row unwrapped, the next step
    for a in blocks:
        if prev is None:
            prev, a = a[0], a[1:]
            if grid:
                dtheta[0] = prev
        ext = np.concatenate([prev[None], a])
        d = wrap_to_pi(np.diff(ext, axis=0))
        bad = np.abs(d) >= ALIAS_BOUND
        if bad.any():
            # row-major, so the pairs come step by step as the bisection expects
            s, e = np.nonzero(bad)
            failed.append((k + s, e, ext[s, e], ext[s + 1, e]))
            d[bad] = 0.0
        if grid:
            dtheta[k : k + len(d)] = d
        else:
            for dk in d:  # a running sum, step after step
                total += dk
        prev, k = ext[-1], k + len(d)

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
        return np.cumsum(dtheta, axis=0, out=dtheta), depth
    return total, depth


def _entry_positions(iso, P, shape):
    """f_t of the pair entries' points P broadcast to `shape`: each distinct
    point of P is evaluated once per grid time.  With idx = ALL it returns
    them in P's shape padded to len(shape) axes, which broadcasts against
    the other side; an index array of entries is mapped to P's points
    through the flat broadcast index."""
    P = P.reshape((1,) * (len(shape) - P.ndim) + P.shape)
    pts = P.reshape(-1, 2)
    flat = np.broadcast_to(np.arange(len(pts)).reshape(P.shape[:-1]), shape[:-1]).ravel()
    return lambda t, idx: iso.eval(t, P) if idx is ALL else iso.eval(t, pts[flat[idx]])


def _separated(X, Y):
    """X and Y as arrays, once no pair is within MERGE_EPS."""
    X = as_xy(X)
    Y = as_xy(Y)
    if radii_of(Y - X).min() <= MERGE_EPS:
        raise CoincidentPoints(f"pair separation <= MERGE_EPS={MERGE_EPS}")
    return X, Y


def _pair_track(iso, X, Y, init_steps=INIT_STEPS):
    """(windings, bisection depths) of the pairs of point arrays X and Y
    broadcast against each other: X[i] with Y[i], one point (2,) with every
    point of the other side, or X[:, None] with Y[None, :] for the cross
    matrix of two point sets."""
    X, Y = _separated(X, Y)
    shape = np.broadcast_shapes(X.shape, Y.shape)
    fx = _entry_positions(iso, X, shape)
    fy = _entry_positions(iso, Y, shape)
    turn, depth = track(
        lambda t, idx: (fy(t, idx) - fx(t, idx)).reshape(-1, 2),
        math.prod(shape[:-1]),
        init_steps,
    )
    return turn.reshape(shape[:-1]) / TWOPI, depth.reshape(shape[:-1])


def pair_windings(iso, X, Y):
    """Windings of the pairs of point arrays X and Y broadcast against each
    other under the isotopy; X[:, None] with Y[None, :] gives the cross
    matrix W[i, j] of the pairs (X[i], Y[j])."""
    return pair_windings_iterated(iso, X, Y, (1,))[0]


def winding_tangent(iso, base, direction):
    """Winding of t -> jac(t, base) . xi, the blow-up value on the diagonal.

    direction is one vector (2,) or K vectors (K, 2) at the same base; the
    K directions are computed as one batch and K windings returned.
    """
    b = as_xy(base)
    xi = np.asarray(direction, dtype=float)
    dirs = xi.reshape(-1, 2)
    if np.hypot(dirs[:, 0], dirs[:, 1]).min() < 1e-14:
        raise SingularJacobian("direction too small to normalize")

    def vec_at(t, idx):
        J = iso.jac(t, np.broadcast_to(b, np.shape(t) + (2,)))
        v = (J @ dirs[idx][..., None])[..., 0]
        if np.hypot(v[..., 0], v[..., 1]).min() < 1e-14:
            raise SingularJacobian("jacobian image too small to normalize")
        return v

    w = iso.tangent_windings_closed_form(b, dirs)
    if w is None:
        w = track(vec_at, len(dirs), INIT_STEPS)[0] / TWOPI
    return w if xi.ndim > 1 else w[0]


def pair_windings_iterated(iso, X, Y, ns):
    """Windings (len(ns), ...) of paired arrays under f^n (n >= 1), one row
    per n in ns; the tracked route sums each iterate's `_pair_track`.  A
    single point (2,) stays one point through the iterates.  The closed
    form checks only the start pairs against MERGE_EPS: it tracks nothing,
    and f^n keeps distinct points distinct."""
    X, Y = _separated(X, Y)
    exact = iso.windings_closed_form(X, Y, ns)
    if exact is not None:
        return exact
    out = []
    for k in range(max(ns)):
        if k:
            X, Y = iso.map(X), iso.map(Y)
        out.append(_pair_track(iso, X, Y)[0])
    return np.cumsum(out, axis=0)[np.asarray(ns) - 1]


class OrbitTrack:
    """Tracks of f_t z, t in [0, n], of a batch of points on one uniform
    grid of T steps per unit time: the sampled paths that the digital-line
    lifts of lambda and tau are read from.  T is a power of two, so row kT
    is time k exactly and holds f^k z.

    ang (nT+1, N): lifted angles of the positions, continuous in t from a
    start branch that differs by whole turns from entry to entry.  A family
    with `Isotopy.leaf_angles` gives them exactly at each grid time; depth
    is then zero.  Any other is tracked: phi (nT+1, N) holds the principal
    angles, ang is unwrapped from each entry's principal start angle, and
    depth (N,) is each entry's deepest bisection.  The positions themselves
    are not kept: `positions` evaluates them again where they are read.
    """

    def __init__(self, iso, pts, n, steps=INIT_STEPS):
        self.iso, self.n = iso, n
        self._start(as_xy(pts), steps)
        self._track(ALL)

    def _start(self, pts, steps):
        """Take the batch pts on `steps` steps per unit time: an empty grid
        and, where the family has them, its leaf-angle closures, which walk
        g^{-1} over pts once."""
        self.pts, self.steps = pts, steps
        self._leaf = self.iso.leaf_angles(pts)
        grid = np.empty((self.n * steps + 1, len(pts)))
        if self._leaf is None:
            self.phi, self.ang = grid, None  # at most one grid of angles alive
        else:
            self.ang, self.depth = grid, np.zeros(len(pts), dtype=int)

    def _grid(self):
        """The grid that the evaluations fill."""
        return self.phi if self._leaf is None else self.ang

    def _times(self):
        return np.linspace(0.0, self.n, self.n * self.steps + 1)

    def _at(self, t, idx):
        """f_t of the entries idx (ALL or an index array), from the leaf
        angles' batch where the family has them."""
        if self._leaf is None:
            return self.iso.eval(t, self.pts[idx])
        return self._leaf[1](t, idx)

    def _track(self, rows):
        """Evaluate the grid rows `rows` (a slice; the grid holds the others
        already), a column of times per call, and unwrap a tracked grid."""
        grid, times, N = self._grid(), self._times(), len(self.pts)
        column, new = times[rows, None], grid[rows]
        angles = self._leaf[0] if self._leaf else lambda t, idx: _angles(self._at(t, idx))
        for b in _row_blocks(len(column), N):
            new[b] = angles(column[b], ALL)
        if self._leaf is not None:
            return
        self.ang, self.depth = _track(
            (grid[b] for b in _row_blocks(len(grid), N)), self._at, N, times, grid=True
        )

    def positions(self, rows, idx):
        """f_t z at the grid rows `rows` of the entries `idx`, integer arrays
        that broadcast: (..., 2) in their broadcast shape.  One time per
        entry from the grid's own times, so they equal the positions the
        grid's angles were taken of, bit for bit."""
        rows, idx = np.broadcast_arrays(rows, idx)
        return self._at(self._times()[rows.ravel()], idx.ravel()).reshape(rows.shape + (2,))

    def refine(self, idx):
        """Keep the entries idx and double their steps, in place.  The even
        rows are the current grid and only the midpoint times are
        evaluated, so the result equals a fresh track bit for bit."""
        old = self._grid()
        self._start(self.pts[idx], 2 * self.steps)
        even = self._grid()[::2]
        for b in _row_blocks(len(old), len(idx)):  # no full-grid temporary
            even[b] = old[b, idx]
        del old  # the old grid goes before the new one is unwrapped
        self._track(slice(1, None, 2))
