"""Radial foliations and the discrete topological-angle calculus.

A radial foliation is encoded by an area chart h pushing forward the
Euclidean foliation by rays; the leaf coordinate of z is the angle of
h^{-1}(z) and the along-leaf coordinate its radius.  Pair configurations
are classified by quarter turns in Z/4Z (0: further out on the same
lifted leaf, 1: leaf strictly to the left, 2: behind on the same leaf,
3: leaf strictly to the right), and paths of configurations are lifted
through the digital-line covering Z -> Z/4Z.  All outputs (tau, lambda,
displacement) are differences of lift values, so the additive constant
of the lift cancels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    OrbitEscapesCompact,
    SamePoint,
    StepTooCoarse,
    TailNotCertified,
    ZeroPoint,
)
from .geometry import TWOPI, angles_of, as_xy, radii_of
from .winding import INIT_STEPS, OrbitTrack, track

TIE_TOL = 1e-12
K_MAX = 8
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


@dataclass(frozen=True)
class QuarterTurn:
    """An element of Z/4Z classifying a lifted pair configuration."""

    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % 4)

    def __add__(self, other):
        o = other.value if isinstance(other, QuarterTurn) else other
        return QuarterTurn(self.value + o)

    def __sub__(self, other):
        o = other.value if isinstance(other, QuarterTurn) else other
        return QuarterTurn(self.value - o)


class RadialFoliation:
    """A radial foliation h(F_euclid) for an invertible area chart h.

    chart=None is the Euclidean foliation itself; otherwise chart must
    expose forward(pts, scale) and inverse(pts, scale) with scale in
    [0, 1] interpolating from the identity, as the conjugacy maps do.
    """

    def __init__(self, chart=None, tag=None):
        self.chart = chart
        self.tag = tag or ("euclidean" if chart is None else "chart")

    @property
    def is_euclidean(self):
        return self.chart is None or getattr(self.chart, "is_identity", False)

    def inverse_points(self, pts):
        pts = as_xy(pts)
        return pts if self.is_euclidean else self.chart.inverse(pts)

    def along(self, pts):
        """Along-leaf coordinate s(z): radius of the chart preimage."""
        return radii_of(self.inverse_points(pts))

    def leaf_coord(self, pts):
        """Leaf coordinate l(z) in [0, 2*pi)."""
        return angles_of(self.inverse_points(pts)) % TWOPI

    def angle_shift(self, pts):
        """Continuous shift D(z) with leaf_lift = theta_lift + D(z).

        Tracked along the chart's interpolation to the identity, so the
        shift is single-valued and deck-equivariant.
        """
        pts = as_xy(pts)
        if self.is_euclidean:
            return np.zeros(pts.shape[:-1])
        flat = pts.reshape(-1, 2)
        turn, _ = track(
            lambda u, idx: self.chart.inverse(flat[idx], u), len(flat), INIT_STEPS
        )
        return turn.reshape(pts.shape[:-1])

    def leaf_lift(self, theta_lift, pts):
        """Lifted leaf coordinate of a cover point (theta_lift, pts)."""
        return np.asarray(theta_lift) + self.angle_shift(pts)

    def leaf_point(self, leaf, s):
        """The point of the leaf with coordinates (leaf, s)."""
        base = np.stack(
            [np.asarray(s) * np.cos(leaf), np.asarray(s) * np.sin(leaf)], axis=-1
        )
        return base if self.is_euclidean else self.chart.forward(base)

    def ray_probe(self, n_leaves=16, s_inner=1e-3, s_outer=1 - 1e-3):
        """Max radius at s_inner and min radius at s_outer over leaves.

        Every leaf must run from the origin to the boundary; the probe
        returns (max inner radius, min outer radius).
        """
        leaves = np.arange(n_leaves) * TWOPI / n_leaves
        inner = radii_of(self.leaf_point(leaves, np.full(n_leaves, s_inner)))
        outer = radii_of(self.leaf_point(leaves, np.full(n_leaves, s_outer)))
        return float(inner.max()), float(outer.min())


def _cover_data(tilde_z):
    """Coerce a CoverPoint or (theta_lift, point) pair to (theta, xy)."""
    if hasattr(tilde_z, "theta_lift"):
        return float(tilde_z.theta_lift), tilde_z.project().as_array()
    theta, pt = tilde_z
    return float(theta), as_xy(pt)


def quarter_turn(tilde_z, tilde_zp, F=None, tie_tol=TIE_TOL):
    """The Z/4Z configuration class of an ordered lifted pair."""
    F = F or RadialFoliation()
    th, z = _cover_data(tilde_z)
    thp, zp = _cover_data(tilde_zp)
    l = float(F.leaf_lift(th, z))
    lp = float(F.leaf_lift(thp, zp))
    d = lp - l
    if abs(d) <= tie_tol:
        ds = float(F.along(zp)) - float(F.along(z))
        if abs(ds) <= tie_tol:
            raise SamePoint("identical lifted points")
        return QuarterTurn(0 if ds > 0 else 2)
    return QuarterTurn(1 if d > 0 else 3)


def _lift_path_slow(d, ds, tie_tol=TIE_TOL):
    """Digital-line lift of a sampled configuration path (state machine).

    Handles samples lying on a leaf coincidence (|d| <= tie_tol, the
    closed even states of the digital line).  Returns the integer lift at
    every sample.
    """

    def odd_val(x):
        return 1 if x > 0 else 3

    def even_val(s):
        return 0 if s > 0 else 2

    ks = np.empty(len(d), dtype=int)
    if abs(d[0]) <= tie_tol:
        k = even_val(ds[0])
        state_even = True
    else:
        k = odd_val(d[0])
        state_even = False
    ks[0] = k
    for t in range(1, len(d)):
        cur_even = abs(d[t]) <= tie_tol
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


def _lift_path(d, ds, tie_tol=TIE_TOL):
    """Vectorized digital-line lift for a path with no even samples.

    Crossings are detected as sign flips of d; the even value passed is
    0 or 2 by the along-coordinate comparison at the interpolated
    crossing, and the lift jumps by +-2 accordingly.  Double crossings
    inside one step cancel and leave every output unchanged.
    """
    if np.any(np.abs(d) <= tie_tol):
        return _lift_path_slow(d, ds, tie_tol)
    pos = d > 0
    flips = np.nonzero(pos[1:] != pos[:-1])[0]
    inc = np.zeros(len(d), dtype=int)
    if len(flips):
        w = d[flips] / (d[flips] - d[flips + 1])
        dsx = ds[flips] + w * (ds[flips + 1] - ds[flips])
        # from state 1 the passed even value 2 means +2; from state 3 it is 0
        up = np.where(pos[flips], dsx <= 0, dsx > 0)
        inc[flips + 1] = np.where(up, 2, -2)
    k0 = 1 if pos[0] else 3
    return k0 + np.cumsum(inc)


def _leaf_tracks(theta, pts, F):
    """Lifted leaf and along coordinates (l, s) at track samples pts
    (..., 2) whose lifted angles are theta."""
    if F.is_euclidean:
        return theta, radii_of(pts)
    flat = pts.reshape(-1, 2)
    l = theta + F.angle_shift(flat).reshape(theta.shape)
    return l, radii_of(F.inverse_points(flat)).reshape(theta.shape)


def _orbit_track(iso, pts, n, steps=INIT_STEPS):
    if np.any(radii_of(pts) == 0.0):
        raise ZeroPoint("the origin has no leaf coordinate")
    return OrbitTrack(iso, pts, n, steps)


def leaf_lifts(track, F=None):
    """Lifted leaf coordinates l(f^k z), k = 0..n, of an orbit track's
    points, (n+1, N), starting from the principal lift."""
    shift = track.shifts(angles_of(track.pts) % TWOPI)
    theta = np.concatenate([track.ang[:1, 0] + shift[:1], track.ang[:, -1] + shift])
    pos = np.concatenate([track.pos[:1, 0], track.pos[:, -1]])
    return _leaf_tracks(theta, pos, F or RadialFoliation())[0]


def displacements(track, F=None, leaf=0.0):
    """Per-iterate displacements m(f^i z) of an orbit track's points and
    their total, (m_seq (n, N), m_total (N,)), from the same lifted leaf
    values, so sum(m_seq) = m_total exactly (telescoping floors)."""
    v = leaf_lifts(track, F)
    # normalize the starting lift into the fundamental sector [leaf, leaf+2pi)
    v = v - TWOPI * np.floor((v[0] - leaf) / TWOPI)
    floors = np.floor((v - leaf) / TWOPI).astype(int)
    return floors[1:] - floors[:-1], floors[-1] - floors[0]


def displacement_table(iso, pts, n=1, F=None, leaf=0.0):
    """`displacements` of the orbits of pts (N, 2), or of one point (2,)."""
    pts = as_xy(pts)
    m_seq, m_total = displacements(_orbit_track(iso, pts.reshape(-1, 2), n), F, leaf)
    if pts.ndim == 1:
        return m_seq[:, 0], int(m_total[0])
    return m_seq, m_total


def displacement(iso, z, F=None, leaf=0.0, n=1):
    """m_{f^n, leaf}(z): deck copies of the reference leaf crossed."""
    return displacement_table(iso, z, n=n, F=F, leaf=leaf)[1]


def tau(iso, tilde_z, tilde_zp, F=None, tie_tol=TIE_TOL, steps=INIT_STEPS):
    """tau of a lifted pair between F and its backward image under f.

    The quarter-turn path s -> config(f_s(z~), f_s(z~')) is lifted
    through the digital line; tau is the lift's end minus start.
    """
    F = F or RadialFoliation()
    th, z = _cover_data(tilde_z)
    thp, zp = _cover_data(tilde_zp)
    prev = None
    for attempt in range(8):
        track = _orbit_track(iso, np.stack([z, zp]), 1, steps * 2**attempt)
        theta = track.ang[0] + track.shifts(np.array([th, thp]))[0]
        l, s = _leaf_tracks(theta, track.pos[0], F)
        try:
            ks = _lift_path(l[:, 1] - l[:, 0], s[:, 1] - s[:, 0], tie_tol)
        except StepTooCoarse:
            prev = None
            continue
        val = int(ks[-1] - ks[0])
        # accept once two successive resolutions agree
        if prev is not None and val == prev:
            return val
        prev = val
    raise StepTooCoarse("quarter-turn path not resolved after refinement")


def _contributing_decks(d, k_max):
    """Deck shifts k for which d + 2 pi k can change sign along the path."""
    lo = int(math.floor(-d.max() / TWOPI))
    hi = int(math.ceil(-d.min() / TWOPI))
    if lo < -k_max or hi > k_max:
        raise TailNotCertified(
            f"contributing deck shifts [{lo}, {hi}] exceed k_max={k_max}"
        )
    return range(lo, hi + 1)


def _pair_lifts(track, F, k_max, tie_tol):
    """Per pair (i, M + i) of an orbit track over Z and Z', the digital-line
    lifts at the integer times {deck shift: lifts} of the contributing
    decks (the others stay open and contribute zero; the window must fit
    in [-k_max, k_max]), or None where a tie needs finer steps."""
    n, T, M = len(track.ang), track.steps, len(track.pts) // 2
    shift = track.shifts(angles_of(track.pts) % TWOPI)
    # pair differences on the iterate grids joined at integer times (row k*T)
    d, ds = np.empty((2, n * T + 1, M))
    for k in range(n):
        l, s = _leaf_tracks(track.ang[k] + shift[k], track.pos[k], F)
        j = min(k, 1)
        d[k * T + j : (k + 1) * T + 1] = l[j:, M:] - l[j:, :M]
        ds[k * T + j : (k + 1) * T + 1] = s[j:, M:] - s[j:, :M]
    out = []
    for dj, sj in zip(d.T, ds.T):
        try:
            decks = _contributing_decks(dj, k_max)
            lifts = (_lift_path(dj + TWOPI * k, sj, tie_tol)[::T].copy() for k in decks)
            out.append(dict(zip(decks, lifts)))
        except StepTooCoarse:
            out.append(None)
    return out


def _settled_lifts(track, F, k_max, tie_tol, report):
    """`_pair_lifts` of each pair, accepted once report(lifts) agrees
    between two successive resolutions: pairs near a shared leaf need fine
    steps to catch every crossing, so the unsettled ones alone are refined
    in place, MAX_DOUBLINGS times at most."""
    settled = [None] * (len(track.pts) // 2)
    prev = list(settled)
    pending = np.arange(len(settled))
    for doubling in range(MAX_DOUBLINGS + 1):
        still = []
        lifts_of = _pair_lifts(track, F, k_max, tie_tol)
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


def lambda_prefixes(track, ns, F=None, k_max=K_MAX):
    """Deck-summed lambda(z_i, z'_i) of f^n, n in ns, (len(ns), M), for the
    pairs (i, M + i) of an orbit track over Z and Z'.  A pair settles once
    these agree between two successive resolutions; refines the track."""

    def values(lifts):
        return tuple(_lambda_sum(lifts, 0, n) for n in ns)

    tables = _settled_lifts(track, F or RadialFoliation(), k_max, TIE_TOL, values)
    return np.array([values(t) for t in tables], dtype=float).T


def annulus_table(iso, z, zp, n=1, F=None, k_max=K_MAX, tie_tol=TIE_TOL, leaf=0.0):
    """Deck-summed lift data of pairs (z_i, z'_i) over n iterates, from one
    orbit track of z and z' ((N, 2) arrays or one pair (2,)): per pair
    tau_bar, tau_sum, lambda_seq (n values), lambda_sum and the
    displacements m_seq, m_total of z.  A pair settles once its lift
    tables agree between two successive resolutions."""
    F = F or RadialFoliation()
    z, zp = as_xy(z), as_xy(zp)
    if radii_of(zp - z).min() <= tie_tol:
        raise SamePoint("pair projects to one point")
    M = z.size // 2
    track = _orbit_track(iso, np.concatenate([z.reshape(-1, 2), zp.reshape(-1, 2)]), n)
    m_seq, m_total = displacements(track, F, leaf)
    tables = _settled_lifts(
        track, F, k_max, tie_tol, lambda t: {k: v.tobytes() for k, v in t.items()}
    )
    taus = [[int(ks[-1] - ks[0]) for ks in t.values()] for t in tables]
    out = {
        "tau_bar": np.array([sum(map(abs, ts)) for ts in taus]),
        "tau_sum": np.array([sum(ts) for ts in taus]),
        "lambda_seq": np.array(
            [[_lambda_sum(t, i, i + 1) for t in tables] for i in range(n)], dtype=float
        ),
        "lambda_sum": np.array([_lambda_sum(t, 0, -1) for t in tables], dtype=float),
        "m_seq": m_seq[:, :M],
        "m_total": m_total[:M],
    }
    return {key: v[..., 0] for key, v in out.items()} if z.ndim == 1 else out


def annulus_sums(iso, z, zp, F=None, n=1, k_max=K_MAX):
    """(tau_bar, tau_sum, lambda_sum) of pairs, summed over deck copies."""
    t = annulus_table(iso, z, zp, n=n, F=F, k_max=k_max)
    return t["tau_bar"], t["tau_sum"], t["lambda_sum"]


def lambda_sequence(iso, z, zp, F=None, n=1, k_max=K_MAX):
    """Per-iterate lambda values and their total; the cocycle law of
    lambda_int makes sum(seq) = total exact."""
    t = annulus_table(iso, z, zp, n=n, F=F, k_max=k_max)
    return t["lambda_seq"], t["lambda_sum"]


def big_lambda(iso, z, zp, F=None, leaf=0.0, n=1, k_max=K_MAX):
    """Lambda = lambda + m, the winding surrogate of the pair."""
    t = annulus_table(iso, z, zp, n=n, F=F, k_max=k_max, leaf=leaf)
    return t["lambda_sum"] + t["m_total"]


def big_lambda_sequence(iso, z, zp, F=None, leaf=0.0, n=1, k_max=K_MAX):
    """Per-iterate Lambda values and their exact total."""
    t = annulus_table(iso, z, zp, n=n, F=F, k_max=k_max, leaf=leaf)
    return t["lambda_seq"] + t["m_seq"], t["lambda_sum"] + t["m_total"]


def rotation_number(
    iso, z, n_max, F=None, leaf=0.0, r_floor=1e-3, schedule=None, tol=0.01
):
    """Partial averages of the displacement along the orbit of z."""
    from .ergodic import ConvergenceReport, pow2_schedule

    F = F or RadialFoliation()
    z = as_xy(z)
    orbit = iso.orbit(z, n_max)
    rmin = float(radii_of(orbit).min())
    if rmin < r_floor:
        raise OrbitEscapesCompact(f"orbit radius {rmin:.3g} below floor {r_floor}")
    m_seq, _ = displacement_table(iso, z, n=n_max, F=F, leaf=leaf)
    csum = np.cumsum(m_seq)
    schedule = schedule or pow2_schedule(n_max)
    avgs = tuple(float(csum[n - 1] / n) for n in schedule)
    return ConvergenceReport(
        n_values=tuple(schedule),
        partial_averages=avgs,
        target=iso.boundary_rot,
        tol=tol,
        label="rotation-number",
    )


def winding_distance_probe(iso, F=None, pair_samples=100, seed=0, deck_span=2):
    """Max |tau| over sampled lifted pairs: a lower bound for the winding
    distance between F and its backward image under the isotopy's map."""
    F = F or RadialFoliation()
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(pair_samples):
        r1, r2 = 0.05 + 0.9 * rng.random(2)
        t1, t2 = TWOPI * rng.random(2)
        k = rng.integers(-deck_span, deck_span + 1)
        z = np.array([r1 * math.cos(t1), r1 * math.sin(t1)])
        zp = np.array([r2 * math.cos(t2), r2 * math.sin(t2)])
        val = tau(iso, (t1, z), (t2 + TWOPI * k, zp), F=F)
        best = max(best, abs(val))
    return best
