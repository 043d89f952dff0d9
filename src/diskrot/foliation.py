"""The radial foliation by rays and the discrete topological-angle calculus.

The leaves are the rays from the origin: the leaf coordinate of z is its
lifted angle and the along-leaf coordinate its radius.  Pair configurations
are classified by quarter turns in Z/4Z (0: further out on the same
lifted leaf, 1: leaf strictly to the left, 2: behind on the same leaf,
3: leaf strictly to the right), and paths of configurations are lifted
through the digital-line covering Z -> Z/4Z.  The paths are read off one
orbit track of each pair batch over t in [0, n], its integer times at
rows kT: `annulus_table` gives each pair's tau and
lambda integers, summed over deck copies, and `lambda_prefixes` the
lambda of f^n.  Every isotopy here fixes the origin, so the leaf
coordinate of f^n z changes by 2 pi W_{f^n}(0, z): `displacements` reads
the displacement m of integer times off that winding, and `winding_gaps`
compares m and Lambda = lambda + m with the windings.  All are
differences of lift values, so the additive constant of the lift cancels.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SamePoint, StepTooCoarse, TailNotCertified, ZeroPoint
from .geometry import TWOPI, angles_of, as_xy, radii_of
from .winding import OrbitTrack, pair_windings_iterated

TIE_TOL = 1e-12
K_MAX = 10
MAX_DOUBLINGS = 7


def lambda_int(k, l):
    """Signed crossing count of 4Z for a digital-line path from k to l.

    Endpoints on 4Z count one half; the value is antisymmetric and
    satisfies the cocycle law lambda(k,l) + lambda(l,m) = lambda(k,m).
    """
    if k == l:
        return 0.0
    a, b = (k, l) if k < l else (l, k)
    interior = (b - 1) // 4 - a // 4
    ends = (1 if a % 4 == 0 else 0) + (1 if b % 4 == 0 else 0)
    val = interior + 0.5 * ends
    return val if k < l else -val


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
        else:
            if odd_val(d[t]) != k % 4:
                w = d[t - 1] / (d[t - 1] - d[t])
                dsx = ds[t - 1] + w * (ds[t] - ds[t - 1])
                e = even_val(dsx)
                k = k + 2 if (k + 1) % 4 == e else k - 2
        state_even = cur_even
        ks[t] = k
    return ks


def _lift_path(d, ds_at):
    """Vectorized digital-line lift for a path with no even samples.

    Crossings are detected as sign flips of d; the even value passed is
    0 or 2 by the along-coordinate comparison at the interpolated
    crossing, and the lift jumps by +-2 accordingly.  Double crossings
    inside one step cancel and leave every output unchanged.  ds_at(rows)
    gives the along-coordinate differences at the samples rows alone.
    """
    if np.any(np.abs(d) <= TIE_TOL):
        return _lift_path_slow(d, ds_at(np.arange(len(d))))
    pos = d > 0
    flips = np.nonzero(pos[1:] != pos[:-1])[0]
    inc = np.zeros(len(d), dtype=int)
    if len(flips):
        w = d[flips] / (d[flips] - d[flips + 1])
        ds0, ds1 = ds_at(np.stack([flips, flips + 1]))
        dsx = ds0 + w * (ds1 - ds0)
        # from state 1 the passed even value 2 means +2; from state 3 it is 0
        up = np.where(pos[flips], dsx <= 0, dsx > 0)
        inc[flips + 1] = np.where(up, 2, -2)
    k0 = 1 if pos[0] else 3
    return k0 + np.cumsum(inc)


def displacements(iso, Z, ns):
    """Windings W_{f^n}(0, z) of the points Z (N, 2) about the fixed origin
    and their displacements m = floor((theta_0 + 2 pi W) / 2 pi), with
    theta_0 the principal angle in [0, 2 pi), for n in ns: both (len(ns), N)."""
    w = pair_windings_iterated(iso, np.zeros(2), Z, ns)
    return w, np.floor((angles_of(Z) % TWOPI + TWOPI * w) / TWOPI).astype(int)


def _contributing_decks(d):
    """Deck shifts k for which d + 2 pi k can change sign along the path."""
    lo = int(math.floor(-d.max() / TWOPI))
    hi = int(math.ceil(-d.min() / TWOPI))
    if lo < -K_MAX or hi > K_MAX:
        raise TailNotCertified(
            f"contributing deck shifts [{lo}, {hi}] exceed K_MAX={K_MAX}"
        )
    return range(lo, hi + 1)


def _pair_lifts(track):
    """Per pair (i, M + i) of an orbit track over Z and Z', the digital-line
    lifts at the integer times {deck shift: lifts} of the contributing
    decks (the others stay open and contribute zero; the window must fit
    in [-K_MAX, K_MAX]), or None where a tie needs finer steps."""
    T, M, ang = track.steps, len(track.pts) // 2, track.ang
    # each entry's branch at t = 0 is that of its angle in [0, 2 pi)
    shift = np.round((angles_of(track.pts) % TWOPI - ang[0]) / TWOPI) * TWOPI
    d = ang[:, M:] - ang[:, :M]
    d += shift[M:] - shift[:M]

    def gaps(i, rows):
        s = radii_of(track.pos[rows[..., None], [i, M + i]])
        return s[..., 1] - s[..., 0]

    out = []
    for i, dj in enumerate(d.T):
        try:
            decks = _contributing_decks(dj)
            lifts = (_lift_path(dj + TWOPI * k, lambda r: gaps(i, r))[::T].copy() for k in decks)
            out.append(dict(zip(decks, lifts)))
        except StepTooCoarse:
            out.append(None)
    return out


def _settled_lifts(track, report):
    """`_pair_lifts` of each pair, accepted once report(lifts) agrees
    between two successive resolutions: pairs near a shared leaf need fine
    steps to catch every crossing, so the unsettled ones alone are refined
    in place, MAX_DOUBLINGS times at most."""
    settled = [None] * (len(track.pts) // 2)
    prev = list(settled)
    pending = np.arange(len(settled))
    for doubling in range(MAX_DOUBLINGS + 1):
        still = []
        lifts_of = _pair_lifts(track)
        for j, (p, lifts) in enumerate(zip(pending, lifts_of)):
            key = None if lifts is None else report(lifts)
            if key is not None and key == prev[p]:
                settled[p] = lifts
            else:
                prev[p] = key
                still.append(j)
        if not still:
            return settled
        if doubling < MAX_DOUBLINGS:
            still = np.asarray(still)
            track.refine(np.concatenate([still, len(pending) + still]))
            pending = pending[still]
    raise StepTooCoarse(f"lift tables of {len(still)} pairs did not settle")


def _lambda_sum(lifts, i, j):
    """Deck-summed lambda between the integer times i and j."""
    return sum(lambda_int(int(ks[i]), int(ks[j])) for ks in lifts.values())


def lambda_prefixes(track, ns):
    """Deck-summed lambda(z_i, z'_i) of f^n, n in ns, (len(ns), M), for the
    pairs (i, M + i) of an orbit track over Z and Z'.  A pair settles once
    these agree between two successive resolutions; refines the track."""

    def values(lifts):
        return tuple(_lambda_sum(lifts, 0, n) for n in ns)

    tables = _settled_lifts(track, values)
    return np.array([values(t) for t in tables], dtype=float).T


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
    tables = _settled_lifts(track, lambda t: {k: v.tobytes() for k, v in t.items()})
    taus = [[int(ks[-1] - ks[0]) for ks in t.values()] for t in tables]
    out = {
        "tau_bar": np.array([sum(map(abs, ts)) for ts in taus]),
        "tau_sum": np.array([sum(ts) for ts in taus]),
        "lambda_seq": np.array(
            [[_lambda_sum(t, i, i + 1) for t in tables] for i in range(n)], dtype=float
        ),
        "lambda_sum": np.array([_lambda_sum(t, 0, -1) for t in tables], dtype=float),
        "m_seq": np.diff(m, axis=0, prepend=0),
        "m_total": m[-1],
    }
    return {key: v[..., 0] for key, v in out.items()} if z.ndim == 1 else out
