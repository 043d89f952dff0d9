"""The radial foliation by rays and the discrete topological-angle calculus.

The leaves are the rays from the origin: the leaf coordinate of z is its
lifted angle and the along-leaf coordinate its radius.  Pair configurations
are classified by quarter turns in Z/4Z (0: further out on the same
lifted leaf, 1: leaf strictly to the left, 2: behind on the same leaf,
3: leaf strictly to the right), and paths of configurations are lifted
through the digital-line covering Z -> Z/4Z.  The paths are read off one
orbit track of each pair batch over t in [0, n], its integer times at
rows kT, and `_lift_table` lifts every pair at every deck copy in one
array pass over that grid's angles: a table of integer lifts (pair, deck,
integer time).  The leaf coordinates are exact at each grid time for every
family but the deformed variant (`Isotopy.leaf_angles`), whose track is
unwrapped.  The track keeps angles only; the radii that decide a crossing
are read from positions evaluated again at the few steps near a level of
the leaf-coordinate difference, and at the rows of tie decks: by the leaf
walk where the family has one, by `Isotopy.eval` for the deformed variant.
`annulus_table` gives each pair's tau and lambda integers, summed over
deck copies, and `lambda_prefixes` the lambda of f^n, as array
expressions over the table.  Every isotopy here fixes the origin, so the leaf
coordinate of f^n z changes by 2 pi W_{f^n}(0, z): `displacements` reads
the displacement m of integer times off that winding, and `winding_gaps`
compares m and Lambda = lambda + m with the windings.  All are
differences of lift values, so the additive constant of the lift cancels.
"""
from __future__ import annotations

import numpy as np

from .errors import SamePoint, StepTooCoarse, TailNotCertified, ZeroPoint
from .geometry import TWOPI, angles_of, as_xy, radii_of
from .winding import OrbitTrack, _row_blocks, pair_windings_iterated

TIE_TOL = 1e-12
K_MAX = 10
MAX_DOUBLINGS = 7
# turns of slack in the scan for levels of d: a sign flip or a tie of
# d + 2 pi k in floats lies far closer than this to the level -k turns
LEVEL_EPS = 1e-9


def lambda_int(k, l):
    """Signed crossing count of 4Z for digital-line paths from k to l,
    elementwise over broadcast integer arrays.

    Endpoints on 4Z count one half; the value is antisymmetric and
    satisfies the cocycle law lambda(k,l) + lambda(l,m) = lambda(k,m).
    """
    a, b = np.minimum(k, l), np.maximum(k, l)
    val = (b - 1) // 4 - a // 4 + 0.5 * (a % 4 == 0) + 0.5 * (b % 4 == 0)
    # + 0.0 makes the -0.0 of a path down without a crossing 0.0
    return np.where(k < l, val, -val) + 0.0


def _crossing_step(d0, d1, ds0, ds1):
    """Lift step of +-2 across a sign flip of d between two samples: the
    even value passed is 0 or 2 by the along-coordinate comparison at the
    interpolated crossing, and from state 1 a passed 2 means +2, from state
    3 a passed 0."""
    dsx = ds0 + d0 / (d0 - d1) * (ds1 - ds0)
    return np.where(np.where(d0 > 0, dsx <= 0, dsx > 0), 2, -2)


def _lift_path_slow(d, ds):
    """Digital-line lift of a sampled configuration path (state machine).

    Handles samples lying on a leaf coincidence (|d| <= TIE_TOL, the
    closed even states of the digital line).  Returns the integer lift at
    every sample.
    """

    def odd_val(x):
        return 1 if x > 0 else 3

    def even_val(s):
        return 0 if s > 0 else 2

    ks = np.empty(len(d), dtype=int)
    if abs(d[0]) <= TIE_TOL:
        k = even_val(ds[0])
        state_even = True
    else:
        k = odd_val(d[0])
        state_even = False
    ks[0] = k
    for t in range(1, len(d)):
        cur_even = abs(d[t]) <= TIE_TOL
        if state_even and cur_even:
            if k % 4 != even_val(ds[t]):
                raise StepTooCoarse("even-to-even jump in one time step")
        elif state_even:
            o = odd_val(d[t])
            k = k + 1 if (k + 1) % 4 == o else k - 1
        elif cur_even:
            e = even_val(ds[t])
            k = k + 1 if (k + 1) % 4 == e else k - 1
        elif odd_val(d[t]) != k % 4:
            k += int(_crossing_step(d[t - 1], d[t], ds[t - 1], ds[t]))
        state_even = cur_even
        ks[t] = k
    return ks


def displacements(iso, Z, ns):
    """Windings W_{f^n}(0, z) of the points Z (N, 2) about the fixed origin
    and their displacements m = floor((theta_0 + 2 pi W) / 2 pi), with
    theta_0 the principal angle in [0, 2 pi), for n in ns: both (len(ns), N)."""
    w = pair_windings_iterated(iso, np.zeros(2), Z, ns)
    return w, np.floor((angles_of(Z) % TWOPI + TWOPI * w) / TWOPI).astype(int)


def _lift_table(track):
    """Digital-line lifts of the pairs (i, M + i) of an orbit track over Z
    and Z' in one array pass over its grid: (L, win, ok).  L (M, 2 K_MAX + 1,
    n + 1) holds the lift of d + 2 pi k, d the pairs' leaf-coordinate
    difference, at every deck shift |k| <= K_MAX and integer time; win (M, 2)
    is each pair's window [lo, hi] of decks whose d + 2 pi k can change sign
    (the others are 2 pi clear of d and keep their lift); ok (M,) is False
    where a tie needs finer steps.  Sign flips are tested only at the grid
    steps within LEVEL_EPS turns of a level of d, found a block of rows at a
    time; decks with a tie (|d + 2 pi k| <= TIE_TOL) take the state machine.
    Radii are read through `track.positions` at those steps and decks only.
    """
    K, T, M, ang = K_MAX, track.steps, len(track.pts) // 2, track.ang
    # each entry's branch at t = 0 is that of its angle in [0, 2 pi)
    shift = np.round((angles_of(track.pts) % TWOPI - ang[0]) / TWOPI) * TWOPI
    off = shift[M:] - shift[:M]
    top, low = np.full(M, -np.inf), np.full(M, np.inf)
    steps, ties = [], set()
    for b in _row_blocks(len(ang), M):
        # one row past the block, for the step into the next block
        d = ang[b.start : b.stop + 1, M:] - ang[b.start : b.stop + 1, :M] + off
        np.maximum(top, d.max(axis=0), out=top)
        np.minimum(low, d.min(axis=0), out=low)
        under, over = np.floor(d / TWOPI - LEVEL_EPS), np.floor(d / TWOPI + LEVEL_EPS)
        r, i = np.nonzero(np.abs(d - TWOPI * over) <= TIE_TOL)
        ties.update(zip(i.tolist(), (-over[r, i]).astype(int).tolist()))
        r, i = np.nonzero(np.minimum(under[:-1], under[1:]) != np.maximum(over[:-1], over[1:]))
        steps.append((b.start + r, i))

    lo, hi = np.floor(-top / TWOPI).astype(int), np.ceil(-low / TWOPI).astype(int)
    bad = np.flatnonzero((lo < -K) | (hi > K))
    if len(bad):
        i = bad[0]
        raise TailNotCertified(
            f"pair {i}: contributing deck shifts [{lo[i]}, {hi[i]}] exceed K_MAX={K}"
        )

    def d_at(rows, i):
        return ang[rows, M + i] - ang[rows, i] + off[i]

    def gaps(rows, i):
        # both points of each pair in one evaluation
        rows, i = np.broadcast_arrays(rows, i)
        r = radii_of(track.positions(np.stack([rows, rows]), np.stack([M + i, i])))
        return r[0] - r[1]

    # every deck at the steps near a level; a step that bisection made
    # longer than pi may cross several
    ks = np.arange(-K, K + 1)
    r, i = (np.concatenate(c) for c in zip(*steps))
    d0, d1 = d_at(r, i)[:, None] + TWOPI * ks, d_at(r + 1, i)[:, None] + TWOPI * ks
    c, k = np.nonzero((d0 > 0) != (d1 > 0))
    r, i = r[c], i[c]
    L = np.zeros((M, len(ks), (len(ang) - 1) // T + 1), dtype=int)
    # the step into row r + 1 shows from the first integer time at or after it
    step = _crossing_step(d0[c, k], d1[c, k], *gaps(np.stack([r, r + 1]), i))
    np.add.at(L, (i, k, -(-(r + 1) // T)), step)
    np.cumsum(L, axis=2, out=L)
    L += np.where(d_at(0, np.arange(M))[:, None] + TWOPI * ks > 0, 1, 3)[..., None]

    ok = np.ones(M, dtype=bool)
    rows = np.arange(len(ang))
    for i, k in ties:
        try:
            L[i, k + K] = _lift_path_slow(d_at(rows, i) + TWOPI * k, gaps(rows, i))[::T]
        except StepTooCoarse:
            ok[i] = False
    return L, np.column_stack([lo, hi]), ok


def _settled_lifts(track, report):
    """`_lift_table` of the batch, each pair's rows accepted once its key,
    row i of the (M, ...) report(L, win), agrees between two successive
    resolutions: pairs near a shared leaf need fine steps to catch every
    crossing, so the unsettled ones alone are refined in place,
    MAX_DOUBLINGS times at most."""
    pending = np.arange(len(track.pts) // 2)
    seen = np.zeros(len(pending), dtype=bool)
    prev, done = None, []
    for doubling in range(MAX_DOUBLINGS + 1):
        L, win, ok = _lift_table(track)
        key = report(L, win)
        if prev is None:
            prev = np.empty_like(key)
        same = ok & seen[pending] & np.all(key == prev[pending], axis=1)
        done.append((pending[same], L[same]))
        prev[pending], seen[pending] = key, ok
        still = np.flatnonzero(~same)
        del L, key  # only the settled rows stay alive while the track refines
        if not len(still):
            p, L = (np.concatenate(c) for c in zip(*done))
            return L[np.argsort(p)]
        if doubling < MAX_DOUBLINGS:
            track.refine(np.concatenate([still, len(pending) + still]))
            pending = pending[still]
    raise StepTooCoarse(f"lift tables of {len(still)} pairs did not settle")


def lambda_prefixes(track, ns):
    """Deck-summed lambda(z_i, z'_i) of f^n, n in ns, (len(ns), M), for the
    pairs (i, M + i) of an orbit track over Z and Z'.  A pair settles once
    these agree between two successive resolutions; refines the track."""

    def values(L):
        return lambda_int(L[..., :1], L[..., ns]).sum(axis=1)

    return values(_settled_lifts(track, lambda L, win: values(L))).T


def winding_gaps(iso, Z, Zp, ns):
    """|m - W(0, z)| and |Lambda - W(z, z')| of f^n, n in ns, both
    (len(ns), M), for the pairs (Z_i, Z'_i): m is z's displacement,
    Lambda = lambda + m."""
    w0, m = displacements(iso, Z, ns)
    wp = pair_windings_iterated(iso, Z, Zp, ns)
    lam = lambda_prefixes(OrbitTrack(iso, np.concatenate([Z, Zp]), max(ns)), ns)
    return np.abs(m - w0), np.abs(lam + m - wp)


def annulus_table(iso, z, zp, n=1):
    """Deck-summed lift data of the pairs (z_i, z'_i) ((N, 2) or (2,)) over
    n iterates: per pair tau_bar, tau_sum, lambda_seq (one value an
    iterate), lambda_sum and z's displacements m_seq, m_total, where m_seq
    differences the displacements of f^1 .. f^n, so sum(m_seq) = m_total
    exactly.  A pair settles once its lift tables agree at two successive
    resolutions."""
    z, zp = as_xy(z), as_xy(zp)
    if radii_of(zp - z).min() <= TIE_TOL:
        raise SamePoint("pair projects to one point")
    if np.any(radii_of(z) == 0.0) or np.any(radii_of(zp) == 0.0):
        raise ZeroPoint("the origin has no leaf coordinate")
    Z = z.reshape(-1, 2)
    _, m = displacements(iso, Z, range(1, n + 1))
    track = OrbitTrack(iso, np.concatenate([Z, zp.reshape(-1, 2)]), n)
    # the key is the window with its decks' tables (the others are fixed by it)
    L = _settled_lifts(track, lambda L, win: np.hstack([win, L.reshape(len(L), -1)]))
    tau = L[..., -1] - L[..., 0]
    out = {
        "tau_bar": np.abs(tau).sum(axis=1),
        "tau_sum": tau.sum(axis=1),
        "lambda_seq": lambda_int(L[..., :-1], L[..., 1:]).sum(axis=1).T,
        "lambda_sum": lambda_int(L[..., 0], L[..., -1]).sum(axis=1),
        "m_seq": np.diff(m, axis=0, prepend=0),
        "m_total": m[-1],
    }
    return {key: v[..., 0] for key, v in out.items()} if z.ndim == 1 else out
