"""Winding numbers of pairs: exact cases, oracles, and certificates."""

from __future__ import annotations

import numpy as np
import pytest

from diskrot import winding
from diskrot.errors import CoincidentPoints, RefinementExhausted, SingularJacobian
from diskrot.foliation import annulus_table, displacements, winding_gaps
from diskrot.geometry import GOLDEN, TWOPI, uniform_disk, wrap_to_pi
from diskrot.maps import (
    ConjugacyMap,
    ConjugatedRotation,
    RigidRotation,
    TwistStep,
)
from diskrot.winding import (
    BLOCK,
    OrbitTrack,
    _pair_track,
    _track,
    pair_windings,
    pair_windings_iterated,
    track,
    winding_tangent,
)
from test_maps import PLANES, Concatenation, plane_points

RIGID = RigidRotation(GOLDEN)
CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
# a strong twist: pairs in its annulus swing through many turns per unit time
FAST = ConjugatedRotation(
    GOLDEN, ConjugacyMap((TwistStep((0.2, 0.08), 20.0, 0.25, 0.5),), repeats=1)
)
# the same maps along a second isotopy, which has no closed form and is
# tracked: the public functions reach the tracker's bisection through these
CONJ_TRACKED = ConjugatedRotation(GOLDEN, CONJ.g, deform=True)
FAST_TRACKED = ConjugatedRotation(GOLDEN, FAST.g, deform=True)
NAMED = {
    name: ConjugatedRotation(GOLDEN, ConjugacyMap.from_named(name))
    for name in ("twist-a", "twist-b", "twist-c")
}


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
    # the tracker's: the closed form gives alpha by construction
    X, Y = _pairs(np.random.default_rng(0), 500)
    w = _pair_track(RIGID, X, Y)[0]
    assert np.max(np.abs(w - GOLDEN)) < 1e-12
    assert np.all(pair_windings(RIGID, X, Y) == GOLDEN)


def _dense_tangent_windings(iso, bases, dirs, steps=4096):
    """Oracle for tangent windings: the same fine grid on jac(t, bases[i]) . dirs[i]."""
    prev = np.arctan2(dirs[:, 1], dirs[:, 0])
    total = np.zeros(len(dirs))
    for t in np.linspace(0.0, 1.0, steps + 1)[1:]:
        v = (iso.jac(t, bases) @ dirs[..., None])[..., 0]
        raw = np.arctan2(v[:, 1], v[:, 0])
        total += wrap_to_pi(raw - prev)
        prev = raw
    return total / TWOPI


def test_adaptive_windings_match_dense_grid():
    X, Y = _pairs(np.random.default_rng(1), 300)
    dense = _dense_windings(CONJ, X, Y)
    assert np.max(np.abs(_pair_track(CONJ, X, Y)[0] - dense)) < 1e-9
    assert np.max(np.abs(pair_windings(CONJ, X, Y) - dense)) < 1e-9


@pytest.mark.parametrize("name", ["twist-a", "twist-b", "twist-c", "fast-twist"])
def test_exact_windings_match_the_dense_oracle(name):
    iso = FAST if name == "fast-twist" else NAMED[name]
    rng = np.random.default_rng(20)
    X, Y = _pairs(rng, 60)
    xs, ys = uniform_disk(rng, 5, 0.9), uniform_disk(rng, 6, 0.9)
    i, j = np.meshgrid(np.arange(5), np.arange(6), indexing="ij")
    n, (Xi, Yi) = 4, _pairs(rng, 15, radius=0.9)
    orbit_x, orbit_y = iso.orbit(Xi, n), iso.orbit(Yi, n)
    # one dense pass over the pairs, the matrix cells and the iterates' pairs
    P = np.concatenate([X, xs[i.ravel()], *orbit_x])
    Q = np.concatenate([Y, ys[j.ravel()], *orbit_y])
    dense = _dense_windings(iso, P, Q)
    # the iterates' pairs summed: the windings under f, ..., f^n
    k = len(X) + i.size
    dense[k:] = np.cumsum(dense[k:].reshape(n, -1), axis=0).ravel()
    exact = np.concatenate([
        pair_windings(iso, X, Y),
        pair_windings(iso, xs[:, None], ys[None, :]).ravel(),
        pair_windings_iterated(iso, Xi, Yi, range(1, n + 1)).ravel(),
    ])
    assert np.max(np.abs(exact - dense)) < 1e-9
    ang = np.linspace(0.0, TWOPI, 5)[:-1]
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    bases = np.repeat([[0.0, 0.0], [0.5, 0.3]], len(dirs), axis=0)
    dense = _dense_tangent_windings(iso, bases, np.tile(dirs, (2, 1)))
    exact = [winding_tangent(iso, base, dirs) for base in bases[:: len(dirs)]]
    assert np.max(np.abs(np.concatenate(exact) - dense)) < 1e-9


@pytest.mark.xfail(strict=True, reason="the pi/2 jump check lets whole turns through")
def test_coarse_fast_twist_track_agrees_with_the_exact_windings():
    X, Y = _pairs(np.random.default_rng(0), 4000)
    tracked, _ = _pair_track(FAST, X, Y, init_steps=64)
    assert np.max(np.abs(tracked - pair_windings(FAST, X, Y))) < 1e-9


def test_scalar_winding_agrees_with_batch():
    X, Y = _pairs(np.random.default_rng(2), 20)
    w = pair_windings(CONJ, X, Y)
    for i in range(len(X)):
        assert abs(float(pair_windings(CONJ, X[i], Y[i])) - w[i]) < 1e-10


def test_winding_is_symmetric():
    X, Y = _pairs(np.random.default_rng(3), 30)
    assert np.max(np.abs(pair_windings(CONJ, X, Y) - pair_windings(CONJ, Y, X))) < 1e-12


def test_coincident_pair_rejected():
    with pytest.raises(CoincidentPoints):
        pair_windings(CONJ, (0.3, 0.2), (0.3, 0.2))
    with pytest.raises(CoincidentPoints):
        pair_windings(CONJ, np.array([[0.3, 0.2]]), np.array([[0.3, 0.2]]))


def test_iterated_winding_telescopes():
    X, Y = _pairs(np.random.default_rng(4), 10, radius=0.9)
    n = 5
    (cumulative,) = pair_windings_iterated(CONJ, X, Y, (n,))
    concat = pair_windings(Concatenation(CONJ, n), X, Y)
    assert np.max(np.abs(cumulative - concat)) < 1e-8


def test_closed_form_walks_the_pairs_once_per_n_and_once_at_the_start(monkeypatch):
    X, Y = _pairs(np.random.default_rng(4), 10, radius=0.9)
    calls = []
    ramp_winding = ConjugacyMap.ramp_winding

    def counted(self, P, Q):
        calls.append(np.shape(P))
        return ramp_winding(self, P, Q)

    monkeypatch.setattr(ConjugacyMap, "ramp_winding", counted)
    assert CONJ.windings_closed_form(X, Y, (1, 4, 16)).shape == (3, 10)
    assert len(calls) == 4


@pytest.mark.parametrize("iso", [CONJ, CONJ_TRACKED], ids=["closed-form", "deformed"])
def test_cumulative_rows_follow_the_order_of_ns(iso):
    X, Y = _pairs(np.random.default_rng(6), 8, radius=0.9)
    ns = (4, 1, 4)
    rows = pair_windings_iterated(iso, X, Y, ns)
    w0, m = displacements(iso, X, ns)
    for n, row, w0_row, m_row in zip(ns, rows, w0, m):
        assert np.array_equal(row, pair_windings_iterated(iso, X, Y, (n,))[0])
        w0_n, m_n = displacements(iso, X, (n,))
        assert np.array_equal(w0_row, w0_n[0]) and np.array_equal(m_row, m_n[0])


def test_winding_matrix_matches_pairwise_values():
    # the cross matrix is pair_windings of broadcast points: the closed form,
    # the same pairs written out, and the tracked second isotopy agree
    rng = np.random.default_rng(5)
    xs = uniform_disk(rng, 12, 0.9)
    ys = uniform_disk(rng, 15, 0.9)
    W = pair_windings(CONJ, xs[:, None], ys[None, :])
    assert W.shape == (12, 15)
    i, j = np.meshgrid(np.arange(12), np.arange(15), indexing="ij")
    direct = pair_windings(CONJ, xs[i.ravel()], ys[j.ravel()]).reshape(12, 15)
    assert np.max(np.abs(W - direct)) < 1e-10
    tracked = pair_windings(CONJ_TRACKED, xs[:, None], ys[None, :])
    assert tracked.shape == (12, 15)
    assert np.max(np.abs(W - tracked)) < 1e-8


def test_bisected_matrix_cells_equal_pair_windings():
    rng = np.random.default_rng(8)
    xs = uniform_disk(rng, 6, 0.6)
    ys = uniform_disk(rng, 7, 0.6)
    i, j = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
    w, depth = _pair_track(FAST_TRACKED, xs[i.ravel()], ys[j.ravel()])
    assert depth.max() > 0
    # a failing cell is bisected alone, from its own pair of points
    W, depth_grid = _pair_track(FAST_TRACKED, xs[:, None], ys[None, :])
    assert np.array_equal(W.ravel(), w) and np.array_equal(depth_grid.ravel(), depth)
    assert np.array_equal(pair_windings(FAST_TRACKED, xs[:, None], ys[None, :]), W)
    exact = pair_windings(FAST, xs[i.ravel()], ys[j.ravel()])
    assert np.max(np.abs(pair_windings(FAST, xs[:, None], ys[None, :]).ravel() - exact)) < 1e-12


def test_shared_reference_point_equals_its_broadcast_copies():
    rng = np.random.default_rng(10)
    xs = uniform_disk(rng, 3, 0.6)
    Y = uniform_disk(rng, 200, 0.6)
    W = pair_windings(FAST_TRACKED, xs[:, None], Y[None, :])
    exact = pair_windings(FAST, xs[:, None], Y[None, :])
    for x, row, exact_row in zip(xs, W, exact):
        copies = np.broadcast_to(x, Y.shape)
        w, depth = _pair_track(FAST_TRACKED, x, Y)
        assert depth.max() > 0
        assert np.array_equal(w, pair_windings(FAST_TRACKED, copies, Y))
        assert np.array_equal(row, w)
        assert np.max(np.abs(pair_windings(FAST, x, Y) - exact_row)) < 1e-12
        assert np.max(np.abs(pair_windings(FAST, copies, Y) - exact_row)) < 1e-12


def _count_closure_calls(monkeypatch, calls):
    """Patch `ConjugatedRotation.leaf_angles`, which returns the closures
    (angles, positions), so that every angles call appends (t, entries) to
    calls."""
    hook = ConjugatedRotation.leaf_angles

    def counted(self, pts):
        closures = hook(self, pts)
        if closures is None:
            return None
        angles, positions = closures

        def counted_angles(t, idx):
            out = angles(t, idx)
            calls.append((t, out.shape[-1]))
            return out

        return counted_angles, positions

    monkeypatch.setattr(ConjugatedRotation, "leaf_angles", counted)


def _count_eval_calls(monkeypatch, calls):
    """Patch `ConjugatedRotation.eval` so that every call appends (t, number
    of points) to calls."""
    ev = ConjugatedRotation.eval

    def counted(self, t, pts):
        calls.append((t, np.size(pts) // 2))
        return ev(self, t, pts)

    monkeypatch.setattr(ConjugatedRotation, "eval", counted)


def test_cross_matrix_evaluates_each_point_once_per_grid_time(monkeypatch):
    # n + m points per grid time, not n * m; the bisections evaluate what
    # they evaluate for the same pairs written out
    calls = []
    _count_eval_calls(monkeypatch, calls)
    rng = np.random.default_rng(8)
    xs, ys = uniform_disk(rng, 6, 0.6), uniform_disk(rng, 7, 0.6)
    _, depth = _pair_track(FAST_TRACKED, xs[:, None], ys[None, :])
    assert depth.max() > 0
    grid = [n for t, n in calls if np.ndim(t) == 0]
    assert sorted(set(grid)) == [6, 7] and len(grid) == 2 * 65
    bisections = [n for t, n in calls if np.ndim(t)]
    calls.clear()
    i, j = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
    _pair_track(FAST_TRACKED, xs[i.ravel()], ys[j.ravel()])
    assert [n for t, n in calls if np.ndim(t)] == bisections


@pytest.mark.parametrize("steps", [64, 256])
def test_pair_track_tracks_the_differences_of_eval(steps):
    # the deformed isotopy's g_t depends on t: the pair track is the
    # tracker run on f_t y - f_t x, bit for bit
    X, Y = _pairs(np.random.default_rng(11), 300, radius=0.6)
    turn, depth = track(
        lambda t, idx: FAST_TRACKED.eval(t, Y[idx]) - FAST_TRACKED.eval(t, X[idx]), len(X), steps
    )
    assert depth.max() > 0
    assert np.array_equal(_pair_track(FAST_TRACKED, X, Y, init_steps=steps)[0], turn / TWOPI)


def test_closed_form_windings_walk_the_inverse_once_per_side(monkeypatch):
    calls = []
    inverse = ConjugacyMap.inverse

    def counted(self, pts, scale=1.0):
        calls.append(1)
        return inverse(self, pts, scale)

    monkeypatch.setattr(ConjugacyMap, "inverse", counted)
    X, Y = _pairs(np.random.default_rng(11), 300, radius=0.6)
    for x in (X, X[0]):
        calls.clear()
        pair_windings(FAST, x, Y)
        assert len(calls) == 2


def test_bisected_position_tracks_stay_on_the_requested_grid():
    pts = uniform_disk(np.random.default_rng(9), 50, 0.95)
    _, depth = track(lambda t, idx: CONJ_TRACKED.eval(t, pts[idx]), len(pts), 4)
    assert depth.max() > 0
    coarse = OrbitTrack(CONJ_TRACKED, pts, 3, 4)
    assert coarse.phi.shape == (13, 50) and coarse.ang.shape == (13, 50)
    assert coarse.depth.max() > 0
    fine = OrbitTrack(CONJ_TRACKED, pts, 3, 1024)
    assert np.array_equal(coarse.phi, fine.phi[::256])
    assert np.array_equal(_grid_positions(coarse), _grid_positions(fine)[::256])
    assert np.max(np.abs(coarse.ang - fine.ang[::256])) < 1e-9
    # the exact angles of the flow's track are the same on any grid, bit for bit
    coarse, fine = OrbitTrack(CONJ, pts, 3, 4), OrbitTrack(CONJ, pts, 3, 1024)
    assert np.array_equal(coarse.ang, fine.ang[::256])
    assert np.array_equal(_grid_positions(coarse), _grid_positions(fine)[::256])


def test_discontinuous_vector_exhausts_the_refinement():
    # the vector flips at t = 1/2, so the step holding it aliases at every depth
    def flip(t, idx):
        late = np.atleast_1d(t) >= 0.5
        return np.where(late[:, None], [[-1.0, 0.0]], [[1.0, 0.0]])

    with pytest.raises(RefinementExhausted):
        track(flip, 1, 64)


@pytest.mark.parametrize(
    "iso",
    [CONJ, FAST, CONJ_TRACKED, FAST_TRACKED],
    ids=["conjugated", "fast-twist", "conjugated-tracked", "fast-twist-tracked"],
)
def test_batched_tangent_windings_equal_single_directions(iso):
    ang = np.linspace(0.0, TWOPI, 9)[:-1]
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    for base in (np.zeros(2), np.array([0.5, 0.3])):
        batch = winding_tangent(iso, base, dirs)
        single = [winding_tangent(iso, base, d) for d in dirs]
        assert np.max(np.abs(batch - single)) < 1e-12


@pytest.mark.parametrize("iso", [CONJ, CONJ_TRACKED], ids=["exact", "tracked"])
def test_zero_tangent_direction_rejected(iso):
    with pytest.raises(SingularJacobian):
        winding_tangent(iso, np.array([0.5, 0.3]), np.zeros(2))


def test_tangent_winding_at_the_fixed_origin():
    assert abs(winding_tangent(RIGID, np.zeros(2), np.array([1.0, 0.0])) - GOLDEN) < 1e-12
    assert abs(winding_tangent(CONJ, np.zeros(2), np.array([0.0, 1.0])) - GOLDEN) < 1e-8


def test_two_isotopies_of_one_map_wind_identically():
    alt = ConjugatedRotation(GOLDEN, CONJ.g, deform=True)
    X, Y = _pairs(np.random.default_rng(6), 50, radius=0.9)
    dev = np.abs(pair_windings(CONJ, X, Y) - pair_windings(alt, X, Y))
    assert np.max(dev) < 1e-8


def test_refined_track_equals_a_fresh_track():
    # deformed fast-twist orbits bisect at 64 and at 128 steps; refining
    # evaluates only the midpoints yet reproduces the fresh finer track bit
    # for bit
    pts = uniform_disk(np.random.default_rng(3), 40, 0.6)
    idx = np.arange(0, 40, 2)
    trk = OrbitTrack(FAST_TRACKED, pts, 2)
    assert trk.depth.max() > 0
    for steps in (128, 256):
        trk.refine(idx if steps == 128 else np.arange(len(idx)))
        fresh = OrbitTrack(FAST_TRACKED, pts[idx], 2, steps)
        assert trk.steps == steps and fresh.depth.max() > 0
        assert np.array_equal(trk.pts, fresh.pts)
        assert np.array_equal(trk.phi, fresh.phi)
        assert np.array_equal(_grid_positions(trk), _grid_positions(fresh))
        assert np.array_equal(trk.ang, fresh.ang)
        assert np.array_equal(trk.depth, fresh.depth)


def test_refined_exact_track_equals_a_fresh_track(monkeypatch):
    # the flow's exact angles: refine evaluates the midpoint rows alone, and
    # the result is a fresh finer track, bit for bit
    pts = uniform_disk(np.random.default_rng(3), 40, 0.6)
    idx = np.arange(0, 40, 2)
    calls = []
    _count_closure_calls(monkeypatch, calls)
    trk = OrbitTrack(FAST, pts, 2)
    for steps in (128, 256):
        calls.clear()
        trk.refine(idx if steps == 128 else np.arange(len(idx)))
        assert np.array_equal(np.concatenate([t[:, 0] for t, _ in calls]), trk._times()[1::2])
        fresh = OrbitTrack(FAST, pts[idx], 2, steps)
        assert trk.steps == steps and not hasattr(trk, "phi")
        assert np.array_equal(trk.pts, fresh.pts)
        assert np.array_equal(trk.ang, fresh.ang)
        assert np.array_equal(_grid_positions(trk), _grid_positions(fresh))
        assert np.array_equal(trk.depth, fresh.depth) and not trk.depth.any()


def _grid_positions(trk):
    """The positions (nT+1, N, 2) of every grid row and entry of a track."""
    return trk.positions(np.arange(len(trk.ang))[:, None], np.arange(len(trk.pts)))


def _row_by_row(iso, pts, n, steps):
    """Reference orbit track (positions, phi, ang, depth): one grid over
    [0, n], one eval call and one unwrapped row per grid time."""
    times = np.linspace(0.0, n, n * steps + 1)
    pos = np.stack([iso.eval(t, pts) for t in times])
    phi = np.arctan2(pos[..., 1], pos[..., 0])
    ang, depth = _track(
        (r[None] for r in phi), lambda t, idx: iso.eval(t, pts[idx]), len(pts), times, grid=True
    )
    return pos, phi, ang, depth


@pytest.mark.parametrize("iso", [FAST_TRACKED], ids=["deformed"])
def test_block_evaluated_orbit_track_equals_row_by_row(iso):
    # 300 entries make blocks of 27 rows, which divide neither the 129 rows
    # of 64 steps over two iterates nor, for the 150 refined entries, 54
    # into 257 rows
    pts = uniform_disk(np.random.default_rng(13), 300, 0.6)
    assert 129 % (BLOCK // 300) and 257 % (BLOCK // 150)
    idx = np.arange(0, 300, 2)
    trk = OrbitTrack(iso, pts, 2)
    for kept, steps in ((pts, 64), (pts[idx], 128)):
        if steps == 128:
            trk.refine(idx)
        assert trk.depth.max() > 0
        got = (_grid_positions(trk), trk.phi, trk.ang, trk.depth)
        for g, want in zip(got, _row_by_row(iso, kept, 2, steps)):
            assert np.array_equal(g, want)


@pytest.mark.parametrize("iso", [CONJ, CONJ_TRACKED], ids=["exact", "deformed"])
def test_orbit_track_evaluates_rows_in_blocks(monkeypatch, iso):
    calls = []
    (_count_eval_calls if iso.deform else _count_closure_calls)(monkeypatch, calls)
    pts = uniform_disk(np.random.default_rng(14), 200, 0.95)
    trk = OrbitTrack(iso, pts, 3)
    # 40 rows of 200 points a call: the 193 rows of three iterates take five
    assert trk.depth.max() == 0
    assert [(np.shape(t), n) for t, n in calls] == [((40, 1), 200)] * 4 + [((33, 1), 200)]


@pytest.mark.parametrize("iso", [CONJ_TRACKED, FAST], ids=["deformed", "conjugated"])
def test_orbit_track_asks_for_leaf_angles_once_per_batch(monkeypatch, iso):
    # on the batch and on the points each refine keeps; the exact track
    # reads its positions from the leaf walk and never calls eval
    calls = []
    hook = ConjugatedRotation.leaf_angles

    def counted(self, pts):
        calls.append(len(pts))
        return hook(self, pts)

    monkeypatch.setattr(ConjugatedRotation, "leaf_angles", counted)
    evals = []
    _count_eval_calls(monkeypatch, evals)
    pts = uniform_disk(np.random.default_rng(15), 40, 0.6)
    trk = OrbitTrack(iso, pts, 5)
    trk.refine(np.arange(0, 40, 2))
    _grid_positions(trk)
    assert calls == [40, 20]
    assert bool(evals) == iso.deform


def test_deformed_orbit_track_meets_the_plain_one_at_integer_times():
    # floor(t) = k puts the deformed ramp at scale 0 at t = k, where the
    # track holds f^k z = g R^k g^{-1} z, as the flow's track does; two
    # isotopies of f^k turn each point by the same angle
    pts = uniform_disk(np.random.default_rng(16), 60, 0.95)
    plain, deformed = OrbitTrack(CONJ, pts, 4), OrbitTrack(CONJ_TRACKED, pts, 4)
    T = plain.steps
    every = np.arange(len(pts))
    for k in range(1, 5):
        pos = plain.positions(k * T, every)
        assert np.array_equal(deformed.positions(k * T, every), pos)
        assert np.array_equal(deformed.phi[k * T], np.arctan2(pos[:, 1], pos[:, 0]))
        turned = [trk.ang[k * T] - trk.ang[0] for trk in (plain, deformed)]
        assert np.max(np.abs(turned[0] - turned[1])) < 1e-9


def _refined_positions(iso, rng):
    """An orbit track of iso over two iterates, refined twice, with eval's
    positions at its grid times: (track, positions (nT+1, N, 2), points
    kept) after each refine, and before the first."""
    pts = uniform_disk(rng, 60, 0.6)
    trk = OrbitTrack(iso, pts, 2)
    kept = pts
    for idx in (None, np.arange(0, 60, 3), np.array([0, 4, 5, 11, 19])):
        if idx is not None:
            trk.refine(idx)
            kept = kept[idx]
        times = np.linspace(0.0, 2, 2 * trk.steps + 1)
        yield trk, np.stack([iso.eval(t, kept) for t in times]), kept


@pytest.mark.parametrize("iso", [FAST, FAST_TRACKED], ids=["fast-twist", "deformed"])
def test_positions_equal_eval_at_the_grid_times(iso):
    # through two refines, whole grids and scattered (row, entry) pairs alike
    rng = np.random.default_rng(17)
    for trk, want, kept in _refined_positions(iso, rng):
        assert np.array_equal(_grid_positions(trk), want)
        rows, ent = rng.integers(len(want), size=500), rng.integers(len(kept), size=500)
        assert np.array_equal(trk.positions(rows, ent), want[rows, ent])
        none = np.zeros((2, 0), dtype=int)  # a lift table with no crossing step
        assert trk.positions(none, none).shape == (2, 0, 2)


def test_tracked_principal_angles_are_the_positions_angles():
    # the deformed fast twist bisects; phi is arctan2 of the positions
    for trk, want, _ in _refined_positions(FAST_TRACKED, np.random.default_rng(17)):
        assert trk.depth.max() > 0
        assert np.array_equal(trk.phi, np.arctan2(want[..., 1], want[..., 0]))


def test_exact_angles_are_lifts_of_the_positions_angles():
    # every position's principal angle equals ang mod 2 pi, with no bisection
    for trk, want, _ in _refined_positions(FAST, np.random.default_rng(17)):
        assert not trk.depth.any()
        gap = wrap_to_pi(trk.ang - np.arctan2(want[..., 1], want[..., 0]))
        assert np.max(np.abs(gap)) < 1e-12


@pytest.mark.parametrize(
    "iso, grids", [(FAST, {"ang"}), (FAST_TRACKED, {"phi", "ang"})], ids=["exact", "deformed"]
)
def test_orbit_track_keeps_no_array_beyond_one_grid_of_angles(iso, grids):
    # (nT+1, N) grids: a tracked track keeps its principal angles phi next to
    # ang, an exact one ang alone; the positions are evaluated on demand
    pts = uniform_disk(np.random.default_rng(18), 40, 0.6)
    trk = OrbitTrack(iso, pts, 3)
    for idx in (None, np.arange(0, 40, 2)):
        if idx is not None:
            trk.refine(idx)
        arrays = {k: v for k, v in vars(trk).items() if isinstance(v, np.ndarray)}
        grid = (trk.n * trk.steps + 1) * len(trk.pts)
        assert max(v.size for v in arrays.values()) == grid
        assert {k for k, v in arrays.items() if v.size == grid} == grids


def test_exact_leaf_lifts_match_a_fine_track():
    # the fast twist's lifted angles, against a 4,096-step track of its
    # positions: equal up to each entry's start branch, a whole number of
    # turns; the 64-step track of the same grid is whole turns off
    pts = uniform_disk(np.random.default_rng(19), 200, 0.6)
    exact = OrbitTrack(FAST, pts, 2).ang
    fine = _row_by_row(FAST, pts, 2, 4096)[2][::64]
    branch = (exact[0] - fine[0]) / TWOPI
    assert np.max(np.abs(branch - np.round(branch))) < 1e-12
    assert np.max(np.abs(exact - fine - TWOPI * np.round(branch))) < 1e-9
    coarse = _row_by_row(FAST, pts, 2, 64)[2]
    assert np.max(np.abs(exact - coarse - TWOPI * np.round(branch))) > np.pi


@pytest.mark.parametrize(
    "step",
    [TwistStep((0.5, 0.0), 1.5, 0.1, 0.35), TwistStep((0.55, 0.1), 12.0, 0.05, 0.4)],
    ids=["slow", "fast"],
)
def test_a_step_off_the_origin_has_exact_leaf_angles(step):
    # the fixed origin lies beyond the step's annulus, so it is the far
    # point of every pair (0, q) and the step turns q about it by the
    # remainder alone: the exact track against a 4,096-step tracked grid
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap((step,), repeats=1))
    pts = uniform_disk(np.random.default_rng(21), 50, 0.9)
    exact = OrbitTrack(iso, pts, 2)
    assert exact.depth.max() == 0 and not hasattr(exact, "phi")
    fine = _row_by_row(iso, pts, 2, 4096)[2][::64]
    turns = (exact.ang - fine) / TWOPI
    assert np.max(np.abs(turns - np.round(turns))) < 1e-9
    assert np.all(np.round(turns) == np.round(turns[0]))


def test_exact_orbit_tracks_never_call_the_tracker(monkeypatch):
    # neither the track nor its refines, nor the lifts read off it, unwrap
    calls = []
    unwrap = winding._track

    def counted(*args, **kw):
        calls.append(1)
        return unwrap(*args, **kw)

    monkeypatch.setattr(winding, "_track", counted)
    rng = np.random.default_rng(20)
    Z, Zp = uniform_disk(rng, 30, 0.9), uniform_disk(rng, 30, 0.9)
    for iso in (FAST, CONJ, RIGID, *PLANES.values()):
        trk = OrbitTrack(iso, np.concatenate([Z, Zp]), 2)
        trk.refine(np.arange(0, 60, 2))
        annulus_table(iso, Z, Zp, n=2)
        winding_gaps(iso, Z, Zp, (1, 2))
    assert not calls
    OrbitTrack(CONJ_TRACKED, Z, 1)
    assert calls


def test_track_grid_times_nest_exactly():
    # row kT of an orbit track is time k, and refine's even rows are the
    # coarser grid, bit for bit
    for n in (1, 3, 32):
        for steps in (4, 64, 128, 1024):
            coarse = np.linspace(0.0, n, n * steps + 1)
            assert np.array_equal(np.linspace(0.0, n, 2 * n * steps + 1)[::2], coarse)
            assert np.array_equal(coarse[::steps], np.arange(n + 1.0))


def test_tracked_iterated_windings_sum_each_iterates_pair_track(monkeypatch):
    X, Y = _pairs(np.random.default_rng(12), 60, radius=0.6)
    asked = []
    closed_form = ConjugatedRotation.windings_closed_form

    def counted(self, *args):
        asked.append(1)
        return closed_form(self, *args)

    monkeypatch.setattr(ConjugatedRotation, "windings_closed_form", counted)
    cumulative = pair_windings_iterated(FAST_TRACKED, X, Y, (1, 2, 3))
    # the closed form is asked once, not again on every iterate
    assert len(asked) == 1
    turns = []
    for k in range(3):
        turn, depth = _pair_track(FAST_TRACKED, X, Y)
        assert depth.max() > 0
        turns.append(turn)
        X, Y = FAST_TRACKED.map(X), FAST_TRACKED.map(Y)
    assert np.array_equal(cumulative, np.cumsum(turns, axis=0))


def _plane_pairs(iso, rng, count):
    X, Y = plane_points(iso, rng, count), plane_points(iso, rng, count)
    keep = np.hypot(*(Y - X).T) > 1e-3
    return X[keep], Y[keep]


@pytest.mark.parametrize("name", sorted(PLANES))
def test_radial_closed_form_windings_match_a_fine_track(name):
    # pairs on both sides of r = 1 and of R, under f and f^3
    iso = PLANES[name]
    X, Y = _plane_pairs(iso, np.random.default_rng(23), 40)
    exact = pair_windings_iterated(iso, X, Y, (1, 3))
    # one fine track of the three iterates' pairs, summed
    fine, _ = _pair_track(iso, iso.orbit(X, 3), iso.orbit(Y, 3), init_steps=4096)
    assert np.max(np.abs(exact - np.cumsum(fine, axis=0)[[0, 2]])) < 1e-9


@pytest.mark.parametrize("name", sorted(PLANES))
def test_radial_closed_form_tangent_windings_match_the_dense_oracle(name):
    # base points on the band, where DT_p shears, and one on either side
    iso = PLANES[name]
    R = iso.domain_radius
    ang = np.linspace(0.0, TWOPI, 9)[:-1]
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    r = np.array([0.5, 1.0 + 0.3 * (R - 1.0), 1.0 + 0.8 * (R - 1.0), R + 0.1])
    bases = r[:, None] * np.array([np.cos(1.0), np.sin(1.0)])
    # one dense pass for every base
    dense = _dense_tangent_windings(
        iso, np.repeat(bases, len(dirs), axis=0), np.tile(dirs, (len(r), 1))
    ).reshape(len(r), -1)
    for base, want in zip(bases, dense):
        assert np.max(np.abs(winding_tangent(iso, base, dirs) - want)) < 1e-9


# orbit radii as fractions s of the band, r = 1 + s (R - 1): one orbit inside
# the unit circle and one on the band, two on the band at different radii,
# and one on the band against one beyond R
ORBIT_PAIRS = {"inside-band": (-0.45, 0.5), "band-band": (0.3, 0.8), "band-beyond": (0.5, 1.2)}


@pytest.mark.parametrize("pair", sorted(ORBIT_PAIRS))
@pytest.mark.parametrize("name", sorted(PLANES))
def test_radial_closed_form_orbit_windings_match_the_tracked_cross_matrix(name, pair):
    iso = PLANES[name]
    r = 1.0 + np.array(ORBIT_PAIRS[pair]) * (iso.domain_radius - 1.0)
    x, y = r[0] * np.array([np.cos(0.2), np.sin(0.2)]), r[1] * np.array([np.cos(2.0), np.sin(2.0)])
    X, Y = iso.orbit(x, 16), iso.orbit(y, 16)
    W = pair_windings(iso, X[:, None], Y[None, :])
    tracked = _pair_track(iso, X[:, None], Y[None, :])[0]
    assert W.shape == (16, 16)
    assert np.max(np.abs(W - tracked)) < 1e-9
