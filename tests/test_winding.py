"""Winding numbers of pairs: exact cases, oracles, and certificates."""

from __future__ import annotations

import numpy as np
import pytest

from diskrot.errors import CoincidentPoints, RefinementExhausted
from diskrot.geometry import GOLDEN, TWOPI, uniform_disk, wrap_to_pi
from diskrot.maps import (
    ConjugacyMap,
    ConjugatedRotation,
    IteratedIsotopy,
    RigidRotation,
    TwistStep,
)
from diskrot.winding import (
    OrbitTrack,
    _pair_track,
    pair_windings,
    pair_windings_iterated,
    position_angle_tracks,
    winding,
    winding_matrix,
    track,
    winding_tangent,
)

RIGID = RigidRotation(GOLDEN)
CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
# a strong twist: pairs in its annulus swing through many turns per unit time
FAST = ConjugatedRotation(
    GOLDEN, ConjugacyMap((TwistStep((0.2, 0.08), 20.0, 0.25, 0.5),), repeats=1)
)


def _pairs(rng, count, radius=0.95, min_sep=1e-3):
    X = uniform_disk(rng, count, radius)
    Y = uniform_disk(rng, count, radius)
    while True:
        bad = np.hypot(*(Y - X).T) < min_sep
        if not bad.any():
            return X, Y
        Y[bad] = uniform_disk(rng, int(bad.sum()), radius)


def _dense_windings(iso, X, Y, steps=4096):
    """Oracle: fixed fine uniform grid with plain branch continuation."""
    times = np.linspace(0.0, 1.0, steps + 1)
    v = iso.eval(0.0, Y) - iso.eval(0.0, X)
    prev = np.arctan2(v[:, 1], v[:, 0])
    total = np.zeros(len(X))
    for t in times[1:]:
        v = iso.eval(t, Y) - iso.eval(t, X)
        raw = np.arctan2(v[:, 1], v[:, 0])
        total += wrap_to_pi(raw - prev)
        prev = raw
    return total / TWOPI


def test_rigid_windings_equal_alpha_exactly():
    X, Y = _pairs(np.random.default_rng(0), 500)
    w = pair_windings(RIGID, X, Y)
    assert np.max(np.abs(w - GOLDEN)) < 1e-12


def test_adaptive_windings_match_dense_grid():
    X, Y = _pairs(np.random.default_rng(1), 300)
    w = pair_windings(CONJ, X, Y)
    assert np.max(np.abs(w - _dense_windings(CONJ, X, Y))) < 1e-9


def test_scalar_winding_agrees_with_batch():
    X, Y = _pairs(np.random.default_rng(2), 20)
    w = pair_windings(CONJ, X, Y)
    for i in range(len(X)):
        assert abs(winding(CONJ, X[i], Y[i]) - w[i]) < 1e-10


def test_winding_is_symmetric():
    X, Y = _pairs(np.random.default_rng(3), 30)
    assert np.max(np.abs(pair_windings(CONJ, X, Y) - pair_windings(CONJ, Y, X))) < 1e-12
    w, wr = winding(CONJ, X[0], Y[0]), winding(CONJ, Y[0], X[0])
    assert abs(w - wr) < 1e-12


def test_coincident_pair_rejected():
    with pytest.raises(CoincidentPoints):
        winding(CONJ, (0.3, 0.2), (0.3, 0.2))
    with pytest.raises(CoincidentPoints):
        pair_windings(CONJ, np.array([[0.3, 0.2]]), np.array([[0.3, 0.2]]))


def test_iterated_winding_telescopes():
    X, Y = _pairs(np.random.default_rng(4), 10, radius=0.9)
    n = 5
    per_iter = pair_windings_iterated(CONJ, X, Y, n)
    concat = pair_windings(IteratedIsotopy(CONJ, n), X, Y)
    assert np.max(np.abs(per_iter - concat)) < 1e-8


def test_winding_matrix_matches_pairwise_values():
    rng = np.random.default_rng(5)
    xs = uniform_disk(rng, 12, 0.9)
    ys = uniform_disk(rng, 15, 0.9)
    W = winding_matrix(CONJ, xs, ys)
    assert W.shape == (12, 15)
    i, j = np.meshgrid(np.arange(12), np.arange(15), indexing="ij")
    direct = pair_windings(CONJ, xs[i.ravel()], ys[j.ravel()]).reshape(12, 15)
    assert np.max(np.abs(W - direct)) < 1e-10


def test_bisected_matrix_cells_equal_pair_windings():
    rng = np.random.default_rng(8)
    xs = uniform_disk(rng, 6, 0.6)
    ys = uniform_disk(rng, 7, 0.6)
    i, j = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
    w, depth = _pair_track(FAST, xs[i.ravel()], ys[j.ravel()])
    assert depth.max() > 0
    W = winding_matrix(FAST, xs, ys)
    assert np.max(np.abs(W.ravel() - w)) < 1e-12


def test_shared_reference_point_equals_its_broadcast_copies():
    rng = np.random.default_rng(10)
    xs = uniform_disk(rng, 3, 0.6)
    Y = uniform_disk(rng, 200, 0.6)
    W = winding_matrix(FAST, xs, Y)
    for x, row in zip(xs, W):
        w, depth = _pair_track(FAST, x, Y)
        assert depth.max() > 0
        assert np.array_equal(w, pair_windings(FAST, np.broadcast_to(x, Y.shape), Y))
        assert np.array_equal(row, w)


@pytest.mark.parametrize("steps", [64, 256])
def test_conjugacy_inverse_runs_once_per_tracked_side(monkeypatch, steps):
    calls = []
    inverse = ConjugacyMap.inverse

    def counted(self, pts, scale=1.0):
        calls.append(1)
        return inverse(self, pts, scale)

    monkeypatch.setattr(ConjugacyMap, "inverse", counted)
    X, Y = _pairs(np.random.default_rng(11), 300, radius=0.6)
    _, depth = _pair_track(FAST, X, Y, init_steps=steps)
    assert depth.max() > 0 and len(calls) <= 2
    calls.clear()
    pair_windings(FAST, X[0], Y, init_steps=steps)
    assert len(calls) <= 2
    # the deformed isotopy's g_t depends on t: it keeps evaluating f_t
    calls.clear()
    deformed = ConjugatedRotation(GOLDEN, FAST.g, deform=True)
    turn, _ = track(
        lambda t, idx: deformed.eval(t, Y[idx]) - deformed.eval(t, X[idx]), len(X), steps
    )
    assert np.array_equal(pair_windings(deformed, X, Y, init_steps=steps), turn / TWOPI)
    assert len(calls) > steps


def test_bisected_position_tracks_stay_on_the_requested_grid():
    pts = uniform_disk(np.random.default_rng(9), 50, 0.95)
    _, _, depth = track(lambda t, idx: CONJ.eval(t, pts[idx]), len(pts), 4, grid=True)
    assert depth.max() > 0
    times, pos, theta = position_angle_tracks(CONJ, pts, steps=4)
    assert np.array_equal(times, [0.0, 0.25, 0.5, 0.75, 1.0])
    _, pos_ref, theta_ref = position_angle_tracks(CONJ, pts, steps=1024)
    assert np.array_equal(pos, pos_ref[::256])
    assert np.max(np.abs(theta - theta_ref[::256])) < 1e-9


def test_discontinuous_vector_exhausts_the_refinement():
    # the vector flips at t = 1/2, so the step holding it aliases at every depth
    def flip(t, idx):
        late = np.atleast_1d(t) >= 0.5
        return np.where(late[:, None], [[-1.0, 0.0]], [[1.0, 0.0]])

    with pytest.raises(RefinementExhausted):
        track(flip, 1, 64)


@pytest.mark.parametrize("iso", [CONJ, FAST], ids=["conjugated", "fast-twist"])
def test_batched_tangent_windings_equal_single_directions(iso):
    ang = np.linspace(0.0, TWOPI, 9)[:-1]
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    for base in (np.zeros(2), np.array([0.5, 0.3])):
        batch = winding_tangent(iso, base, dirs)
        single = [winding_tangent(iso, base, d) for d in dirs]
        assert np.max(np.abs(batch - single)) < 1e-12


def test_tangent_winding_at_the_fixed_origin():
    assert abs(winding_tangent(RIGID, np.zeros(2), np.array([1.0, 0.0])) - GOLDEN) < 1e-12
    assert abs(winding_tangent(CONJ, np.zeros(2), np.array([0.0, 1.0])) - GOLDEN) < 1e-8


def test_two_isotopies_of_one_map_wind_identically():
    alt = ConjugatedRotation(GOLDEN, CONJ.g, deform=True)
    X, Y = _pairs(np.random.default_rng(6), 50, radius=0.9)
    dev = np.abs(pair_windings(CONJ, X, Y) - pair_windings(alt, X, Y))
    assert np.max(dev) < 1e-8


def test_refined_track_equals_a_fresh_track():
    # fast-twist orbits bisect at 64 and at 128 steps; refining evaluates only
    # the midpoints yet reproduces the fresh finer track bit for bit
    pts = uniform_disk(np.random.default_rng(3), 40, 0.6)
    idx = np.arange(0, 40, 2)
    trk = OrbitTrack(FAST, pts, 2)
    assert trk.depth.max() > 0
    for steps in (128, 256):
        trk.refine(idx if steps == 128 else np.arange(len(idx)))
        fresh = OrbitTrack(FAST, pts[idx], 2, steps)
        assert trk.steps == steps and fresh.depth.max() > 0
        assert np.array_equal(trk.pts, fresh.pts)
        assert np.array_equal(trk.pos, fresh.pos)
        assert np.array_equal(trk.ang, fresh.ang)
        assert np.array_equal(trk.depth, fresh.depth)


def test_track_grid_times_nest_exactly():
    for steps in (64, 128, 1024):
        fine = np.linspace(0.0, 1.0, 2 * steps + 1)
        assert np.array_equal(fine[::2], np.linspace(0.0, 1.0, steps + 1))


def test_orbit_track_pair_windings_equal_iterated_pair_windings():
    X, Y = _pairs(np.random.default_rng(12), 60, radius=0.6)
    trk = OrbitTrack(FAST, np.concatenate([X, Y]), 3)
    per_iterate = trk.pair_windings()
    for k in range(3):
        turn, depth = _pair_track(FAST, X, Y)
        assert depth.max() > 0
        assert np.array_equal(per_iterate[k], turn)
        X, Y = FAST.map(X), FAST.map(Y)


def test_orbit_track_rejects_merged_pairs():
    X = np.array([[0.3, 0.1], [0.5, -0.2]])
    trk = OrbitTrack(CONJ, np.concatenate([X, X + [[1e-10, 0.0], [0.1, 0.0]]]), 1)
    with pytest.raises(CoincidentPoints):
        trk.pair_windings()
