"""The foliation by rays, digital-line lifts, and the integer-angle calculus."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from diskrot import foliation
from diskrot.errors import CoincidentPoints, SamePoint, StepTooCoarse, TailNotCertified, ZeroPoint
from diskrot.foliation import (
    K_MAX,
    TIE_TOL,
    _lift_path_slow,
    _lift_table,
    annulus_table,
    displacements,
    lambda_int,
    winding_gaps,
)
from diskrot.geometry import GOLDEN, TWOPI, angles_of, radii_of, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, RigidRotation, TwistStep
from diskrot.winding import OrbitTrack, _pair_track, pair_windings_iterated

RIGID = RigidRotation(GOLDEN)
CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
# a strong twist: points in its annulus swing through many turns per unit time
FAST = ConjugatedRotation(
    GOLDEN, ConjugacyMap((TwistStep((0.2, 0.08), 20.0, 0.25, 0.5),), repeats=1)
)


def _lambda_oracle(k, l):
    """Signed count of multiples of 4 met by the integer path k -> l."""
    if k == l:
        return 0.0
    a, b = (min(k, l), max(k, l))
    val = sum(1.0 for j in range(a + 1, b) if j % 4 == 0)
    val += 0.5 * ((a % 4 == 0) + (b % 4 == 0))
    return val if k < l else -val


def test_lambda_int_against_direct_count():
    span = range(-15, 16)
    for k in span:
        for l in span:
            assert lambda_int(k, l) == _lambda_oracle(k, l)
    # broadcast arrays, elementwise
    table = np.array([[_lambda_oracle(k, l) for l in span] for k in span])
    ks = np.arange(-15, 16)
    lam = lambda_int(ks[:, None], ks)
    assert np.array_equal(lam, table)
    # no -0.0, which deck sums would carry into the reports
    assert not np.any(np.signbit(lam[lam == 0.0]))


def test_lambda_int_cocycle_and_antisymmetry():
    span = range(-9, 10)
    for k in span:
        for l in span:
            assert lambda_int(k, l) == -lambda_int(l, k)
            for m in (-8, -1, 0, 5):
                assert lambda_int(k, l) + lambda_int(l, m) == lambda_int(k, m)


def _track_of(d, ds, steps):
    """A stand-in orbit track whose pairs have the leaf-coordinate and
    along-leaf differences d and ds ((R,) for one pair, (R, M) for M) at
    its grid rows, `steps` rows per unit time: the first points of the
    pairs stay at radius 1 on the ray at angle pi.  Its positions are read
    from the stored points, with OrbitTrack.positions' broadcast indices."""
    d, ds = d.reshape(len(d), -1), ds.reshape(len(ds), -1)
    ang = np.concatenate([np.full(d.shape, np.pi), np.pi + d], axis=1)
    r = np.concatenate([np.ones(d.shape), 1.0 + ds], axis=1)
    pos = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    return SimpleNamespace(
        steps=steps, pts=pos[0], ang=ang, positions=lambda rows, idx: pos[rows, idx]
    )


def _reference_lifts(track, i, k):
    """Pair i's lifts of deck k at the integer times by the state machine."""
    M = len(track.pts) // 2
    shift = np.round((angles_of(track.pts) % TWOPI - track.ang[0]) / TWOPI) * TWOPI
    d = track.ang[:, M + i] - track.ang[:, i] + (shift[M + i] - shift[i])
    rows = np.arange(len(track.ang))
    ds = radii_of(track.positions(rows, M + i)) - radii_of(track.positions(rows, i))
    return _lift_path_slow(d + TWOPI * k, ds)[:: track.steps]


def test_lift_table_matches_state_machine():
    t = np.linspace(0.0, 1.0, 2001)
    d = np.sin(3.0 * TWOPI * t) + 0.2
    ds = 0.5 * np.cos(TWOPI * t) - 0.1
    for sign in (1.0, -1.0):
        track = _track_of(sign * d, ds, 100)
        L, win, ok = _lift_table(track)
        assert ok.all() and L.shape == (1, 2 * K_MAX + 1, 21)
        lo, hi = win[0]
        assert (lo, hi) == (-1, 1)
        for k in range(lo, hi + 1):
            assert np.array_equal(L[0, k + K_MAX], _reference_lifts(track, 0, k))
        # the decks outside the window never cross
        assert np.all(L[0, : lo + K_MAX] == 3) and np.all(L[0, hi + K_MAX + 1 :] == 1)


def test_lift_table_matches_state_machine_on_the_fast_twist():
    # grid steps that bisection made longer than pi cross several levels at once
    rng = np.random.default_rng(1)
    Z, Zp = uniform_disk(rng, 200, 0.9), uniform_disk(rng, 200, 0.9)
    track = OrbitTrack(FAST, np.concatenate([Z, Zp]), 3)
    d = track.ang[:, 200:] - track.ang[:, :200]
    assert np.any(np.abs(np.diff(np.floor(d / TWOPI), axis=0)) >= 2)
    L, win, ok = _lift_table(track)
    assert ok.all()
    crossings = 0
    for i, (lo, hi) in enumerate(win):
        for k in range(lo, hi + 1):
            ref = _reference_lifts(track, i, k)
            assert np.array_equal(L[i, k + K_MAX], ref), (i, k)
            crossings += np.count_nonzero(np.diff(ref))
    assert crossings > 0


def test_lift_table_sends_ties_to_the_state_machine():
    # pair 0 sits on a leaf coincidence at time 1; pair 1 jumps between the
    # two even states in one step, which needs finer steps
    d = np.column_stack([np.linspace(-1.0, 1.0, 9), np.zeros(9)])
    ds = np.column_stack([np.full(9, 0.3), np.where(np.arange(9) < 4, 0.3, -0.3)])
    track = _track_of(d, ds, 4)
    assert np.abs(track.ang[4, 2] - track.ang[4, 0]) <= TIE_TOL
    L, win, ok = _lift_table(track)
    assert ok.tolist() == [True, False]
    assert np.array_equal(L[0, K_MAX], _reference_lifts(track, 0, 0))
    # the even state at the tie, which no sign flip gives
    assert L[0, K_MAX, 1] % 2 == 0


def test_lift_table_names_the_pair_beyond_k_max(monkeypatch):
    # pair 1 turns three times round pair 0: its window needs decks -4 .. 0
    t = np.linspace(0.0, 1.0, 65)
    d = np.column_stack([np.full(65, 0.1), 3.0 * TWOPI * t + 0.1])
    monkeypatch.setattr(foliation, "K_MAX", 1)
    with pytest.raises(TailNotCertified, match=r"pair 1: contributing deck shifts \[-4, 0\]"):
        _lift_table(_track_of(d, np.full(d.shape, 0.2), 64))


def test_lift_path_slow_rejects_unresolved_jumps():
    d = np.array([0.0, 0.0])
    ds = np.array([1.0, -1.0])
    with pytest.raises(StepTooCoarse):
        _lift_path_slow(d, ds)


def test_rigid_displacement_matches_floor_formula():
    # through the deformed variant, which tracks, and the closed form
    tracked = ConjugatedRotation(GOLDEN, None, deform=True)
    thetas = np.array([0.1, 1.5, 3.0, 4.4, 6.1])
    pts = 0.6 * np.column_stack([np.cos(thetas), np.sin(thetas)])
    for n in (1, 3, 7):
        want = np.floor((thetas % TWOPI + TWOPI * n * GOLDEN) / TWOPI).astype(int)
        for iso in (tracked, RIGID):
            _, (m,) = displacements(iso, pts, (n,))
            assert np.array_equal(m, want)


def test_displacement_birkhoff_identity():
    rng = np.random.default_rng(0)
    pts = uniform_disk(rng, 20, 0.9)
    pts = pts[np.hypot(*pts.T) > 0.05]
    t = annulus_table(CONJ, pts, -pts, n=8)
    m_seq, m_total = t["m_seq"], t["m_total"]
    assert np.array_equal(m_seq.sum(axis=0), m_total)
    assert m_total.dtype.kind == "i"
    # each iterate's m is the displacement of f at that orbit point
    for k, orbit_pts in enumerate(CONJ.orbit(pts, 8)):
        assert np.array_equal(displacements(CONJ, orbit_pts, (1,))[1][0], m_seq[k])


def test_fast_twist_displacements_match_a_fine_track():
    # a 64-step track of the origin windings is whole turns off here
    pts = uniform_disk(np.random.default_rng(0), 400, 0.95)
    pts = pts[np.hypot(*pts.T) > 0.05]
    (w,), (m,) = displacements(FAST, pts, (1,))
    fine, _ = _pair_track(FAST, np.zeros(2), pts, init_steps=4096)
    assert np.max(np.abs(w - fine)) < 1e-9
    assert np.array_equal(m, np.floor((angles_of(pts) % TWOPI + TWOPI * fine) / TWOPI))


def test_deformed_displacements_equal_the_closed_form():
    # two isotopies of one map wind alike at integer times
    deformed = ConjugatedRotation(GOLDEN, CONJ.g, deform=True)
    pts = uniform_disk(np.random.default_rng(4), 200, 0.9)
    pts = pts[np.hypot(*pts.T) > 0.05]
    ns = (1, 2, 4)
    w, m = displacements(deformed, pts, ns)
    w_exact, m_exact = displacements(CONJ, pts, ns)
    assert np.max(np.abs(w - w_exact)) < 1e-10
    assert np.array_equal(m, m_exact)


def test_winding_gaps_reject_merged_pairs():
    X = np.array([[0.3, 0.1], [0.5, -0.2]])
    with pytest.raises(CoincidentPoints):
        winding_gaps(CONJ, X, X + [[1e-10, 0.0], [0.1, 0.0]], (1,))


def test_displacement_rejects_the_origin():
    with pytest.raises(ZeroPoint):
        annulus_table(CONJ, (0.0, 0.0), (0.5, 0.2))


def test_rigid_tau_vanishes_off_shared_leaves():
    cases = [((0.5, 0.2), (0.1, 0.6)), ((-0.4, 0.3), (-0.5, 0.35))]
    for z, zp in cases:
        assert annulus_table(RIGID, z, zp)["tau_bar"] == 0
    with pytest.raises(SamePoint):
        annulus_table(RIGID, (0.5, 0.2), (0.5, 0.2))


def test_deformed_tau_vanishes_with_no_crossing_step():
    # outside g's support f_t rotates both points rigidly: d never meets a
    # level, and the lift table asks the track for no positions at all
    deformed = ConjugatedRotation(GOLDEN, CONJ.g, deform=True)
    z, zp = (0.88, 0.0), (0.0, 0.875)
    assert annulus_table(deformed, z, zp)["tau_bar"] == 0
    assert annulus_table(deformed, z, zp) == annulus_table(RIGID, z, zp)


def test_annulus_sums_crossing_bound():
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = uniform_disk(rng, 1, 0.85)[0]
        zp = uniform_disk(rng, 1, 0.85)[0]
        if np.hypot(*z) < 0.05 or np.hypot(*zp) < 0.05 or np.hypot(*(zp - z)) < 1e-2:
            continue
        t = annulus_table(CONJ, z, zp)
        tau_bar, tau_sum, lam = t["tau_bar"], t["tau_sum"], t["lambda_sum"]
        assert abs(lam) <= tau_bar
        assert abs(tau_sum) <= tau_bar
        assert (tau_bar - tau_sum) % 2 == 0


def test_lambda_and_big_lambda_sequences_telescope():
    z = np.array([0.52, 0.18])
    zp = np.array([-0.33, 0.47])
    t = annulus_table(CONJ, z, zp, n=6)
    assert abs(math.fsum(t["lambda_seq"]) - t["lambda_sum"]) == 0.0
    L_seq, L_total = t["lambda_seq"] + t["m_seq"], t["lambda_sum"] + t["m_total"]
    assert abs(math.fsum(L_seq) - L_total) == 0.0


def test_big_lambda_tracks_the_winding():
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = 0.1 + uniform_disk(rng, 1, 0.8)[0]
        zp = -0.1 + uniform_disk(rng, 1, 0.8)[0]
        if np.hypot(*(zp - z)) < 1e-2:
            continue
        for n in (1, 4):
            t = annulus_table(CONJ, z, zp, n=n)
            L = t["lambda_sum"] + t["m_total"]
            w = float(pair_windings_iterated(CONJ, z[None], zp[None], (n,))[0, 0])
            assert abs(L - w) <= 2.0 + 1e-9

